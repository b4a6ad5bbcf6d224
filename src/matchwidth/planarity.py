"""Combinatorial planarity testing (face-insertion method on blocks)."""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Iterable

from .bigraph import BipartiteGraph


def _blocks(n: int, adj: dict[int, set[int]]) -> list[set[int]]:
    """Biconnected components (as vertex sets) via DFS lowpoints."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    stack: list[tuple[int, int]] = []
    blocks: list[set[int]] = []
    counter = 0

    for root in range(1, n + 1):
        if root in index or not adj[root]:
            continue
        parent[root] = None
        work: list[tuple[int, Iterable[int]]] = [(root, iter(sorted(adj[root])))]
        index[root] = low[root] = counter
        counter += 1
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if w not in index:
                    parent[w] = v
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append((v, w))
                    work.append((w, iter(sorted(adj[w]))))
                    pushed = True
                    break
                if w != parent[v] and index[w] < index[v]:
                    stack.append((v, w))
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    comp: set[int] = set()
                    while stack:
                        a, c = stack.pop()
                        comp.update((a, c))
                        if (a, c) == (u, v):
                            break
                    if comp:
                        blocks.append(comp)
    return blocks


def _find_cycle(adj: dict[int, set[int]], verts: set[int]) -> list[int]:
    """A cycle of a block in which every vertex has two neighbours: walk
    from the lowest vertex, each step to the lowest neighbour other than
    the vertex just left, until a vertex repeats."""
    walk, prev = [min(verts)], 0
    while True:
        y = min(w for w in adj[walk[-1]] if w != prev)
        if y in walk:
            return walk[walk.index(y) :]
        prev = walk[-1]
        walk.append(y)


def _planar_block(adj_full: dict[int, set[int]], verts: set[int]) -> bool:
    """Face-insertion planarity for one biconnected bipartite block."""
    adj = {v: adj_full[v] & verts for v in verts}
    n = len(verts)
    m = sum(len(s) for s in adj.values()) // 2
    if n <= 4:
        return True
    if m > 2 * n - 4:
        return False
    cycle = _find_cycle(adj, verts)

    embedded_v: set[int] = set(cycle)
    embedded_e: set[frozenset[int]] = {
        frozenset((cycle[i], cycle[(i + 1) % len(cycle)])) for i in range(len(cycle))
    }
    faces: list[list[int]] = [list(cycle), list(reversed(cycle))]

    def fragments() -> list[tuple[set[int], set[int]]]:
        # returns (fragment vertex set incl. attachments, attachment set)
        out: list[tuple[set[int], set[int]]] = []
        # chords
        for v in embedded_v:
            for w in adj[v]:
                if w in embedded_v and v < w and frozenset((v, w)) not in embedded_e:
                    out.append(({v, w}, {v, w}))
        rest = verts - embedded_v
        seen: set[int] = set()
        for v in rest:
            if v in seen:
                continue
            comp = {v}
            seen.add(v)
            stack = [v]
            attach: set[int] = set()
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y in embedded_v:
                        attach.add(y)
                    elif y not in seen:
                        seen.add(y)
                        comp.add(y)
                        stack.append(y)
            out.append((comp | attach, attach))
        return out

    def path_in_fragment(frag: set[int], attach: set[int]) -> list[int]:
        if len(frag) == 2:
            a, bb = sorted(frag)
            return [a, bb]
        comp = frag - embedded_v
        a = min(attach)
        parent: dict[int, int | None] = {a: None}
        queue = deque([a])
        while queue:
            x = queue.popleft()
            for y in sorted(adj[x]):
                if y in comp and y not in parent:
                    parent[y] = x
                    queue.append(y)
                elif y in attach and y != a and x != a:
                    path = [y, x]
                    cur = parent[x]
                    while cur is not None:
                        path.append(cur)
                        cur = parent[cur]
                    return path[::-1]
        raise AssertionError("fragment with fewer than two attachments in a block")

    while True:
        frags = fragments()
        if not frags:
            return True
        chosen = None
        chosen_faces: list[int] = []
        for frag, attach in frags:
            ok_faces = [
                i for i, f in enumerate(faces) if attach <= set(f)
            ]
            if not ok_faces:
                return False
            if len(ok_faces) == 1:
                chosen = (frag, attach)
                chosen_faces = ok_faces
                break
            if chosen is None:
                chosen = (frag, attach)
                chosen_faces = ok_faces
        assert chosen is not None
        frag, attach = chosen
        path = path_in_fragment(frag, attach)
        face = faces.pop(chosen_faces[0])
        ia, ib = face.index(path[0]), face.index(path[-1])
        if ia > ib:
            ia, ib = ib, ia
            path = path[::-1]
        # path now runs face[ia] -> face[ib]; split the face cycle in two
        side1 = face[ia : ib + 1]  # face[ia] .. face[ib]
        side2 = face[ib:] + face[: ia + 1]  # face[ib] .. face[ia]
        inner = path[1:-1]
        faces.append(side1 + inner[::-1])
        faces.append(side2 + inner)
        for x, y in zip(path, path[1:]):
            embedded_e.add(frozenset((x, y)))
        embedded_v.update(path)


def planarity_test(g: BipartiteGraph) -> bool:
    """Standard graph planarity (desk scale).  A planar bipartite graph on
    n >= 3 vertices has at most 2n - 4 edges: no face is a triangle."""
    n = g.n
    adj = {v: set(g.adj[v]) for v in range(1, n + 1)}
    if n >= 3 and len(g.edges) > 2 * n - 4:
        return False
    for block in _blocks(n, adj):
        if not _planar_block(adj, block):
            return False
    return True


def contains_kuratowski_subdivision(g: BipartiteGraph) -> bool:
    """Search directly for a K5 or K33 subdivision (tiny graphs): the oracle
    for `planarity_test`, which `strongplanar` answers with."""
    verts = list(g.vertices)

    def disjoint_paths(
        pairs: list[tuple[int, int]], reserved: set[int], branch: set[int]
    ) -> bool:
        if not pairs:
            return True
        a, b = pairs[0]
        stack: list[tuple[int, ...]] = [(a,)]
        while stack:
            path = stack.pop()
            x = path[-1]
            for y in g.adj[x]:
                if y == b:
                    inner = set(path[1:])
                    if disjoint_paths(pairs[1:], reserved | inner, branch):
                        return True
                    continue
                if y in reserved or y in path or y in branch:
                    continue
                stack.append(path + (y,))
        return False

    # K5 subdivision
    for branch in combinations(verts, 5):
        pairs = [(a, b) for a, b in combinations(branch, 2)]
        if disjoint_paths(pairs, set(), set(branch)):
            return True
    # K33 subdivision
    for six in combinations(verts, 6):
        for part in combinations(six, 3):
            other = tuple(v for v in six if v not in part)
            if min(part) != min(six):
                continue
            pairs = [(a, b) for a in part for b in other]
            if disjoint_paths(pairs, set(), set(six)):
                return True
    return False
