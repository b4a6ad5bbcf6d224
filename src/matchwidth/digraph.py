"""Simple digraphs with the standard reachability/SCC toolbox."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

Arc = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """Simple digraph on vertices [1..n]; antiparallel arc pairs allowed."""

    n: int
    arcs: frozenset[Arc] = frozenset()

    def __post_init__(self) -> None:
        for u, v in self.arcs:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"arc ({u},{v}) out of range")
        object.__setattr__(self, "arcs", frozenset(tuple(a) for a in self.arcs))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def out_adj(self) -> dict[int, frozenset[int]]:
        out: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.arcs:
            out[u].add(v)
        return {v: frozenset(s) for v, s in out.items()}

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        """Out-neighbourhood of each vertex as an int mask (vertex v is bit
        v); entry 0 is unused."""
        out = [0] * (self.n + 1)
        for u, v in self.arcs:
            out[u] |= 1 << v
        return tuple(out)

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        """In-neighbourhood of each vertex as an int mask, like `out_masks`."""
        inn = [0] * (self.n + 1)
        for u, v in self.arcs:
            inn[v] |= 1 << u
        return tuple(inn)

    @cached_property
    def in_adj(self) -> dict[int, frozenset[int]]:
        inn: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.arcs:
            inn[v].add(u)
        return {v: frozenset(s) for v, s in inn.items()}


def digraph_from_arcs(n: int, pairs: Iterable[tuple[int, int]]) -> Digraph:
    return Digraph(n, frozenset(tuple(p) for p in pairs))


def vertex_mask(vertices: Iterable[int]) -> int:
    """Vertex set as an int mask: vertex v is bit v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_members(mask: int) -> frozenset[int]:
    """The vertex set of a mask made by `vertex_mask`."""
    return frozenset(mask_sorted(mask))


def mask_sorted(mask: int) -> list[int]:
    """The vertices of a mask made by `vertex_mask`, in ascending order."""
    members = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        members.append(bit.bit_length() - 1)
    return members


def strong_component_masks(d: Digraph, banned: int = 0) -> list[int]:
    """SCCs of d minus the banned vertex mask, as vertex masks in reverse
    topological order (Tarjan, iterative; roots and successors are taken in
    ascending order)."""
    out = d.out_masks
    alive = (((1 << d.n) - 1) << 1) & ~banned
    index = [0] * (d.n + 1)  # preorder number from 1; 0 while unvisited
    low = [0] * (d.n + 1)
    on_stack = 0
    stack: list[int] = []
    sccs: list[int] = []
    counter = 0
    todo = alive
    while todo:
        root = (todo & -todo).bit_length() - 1
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        on_stack |= 1 << root
        work = [root]
        rest = [out[root] & alive]  # successors of work[i] still to try
        while work:
            v = work[-1]
            succ = rest[-1]
            while succ:
                bit = succ & -succ
                succ ^= bit
                w = bit.bit_length() - 1
                if not index[w]:
                    break
                if on_stack & bit and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                rest.pop()
                if work and low[v] < low[work[-1]]:
                    low[work[-1]] = low[v]
                if low[v] == index[v]:
                    comp = 0
                    while True:
                        w = stack.pop()
                        comp |= 1 << w
                        if w == v:
                            break
                    on_stack &= ~comp
                    todo &= ~comp
                    sccs.append(comp)
                continue
            rest[-1] = succ
            counter += 1
            index[w] = low[w] = counter
            stack.append(w)
            on_stack |= bit
            work.append(w)
            rest.append(out[w] & alive)
    return sccs


def strong_components(d: Digraph) -> list[frozenset[int]]:
    """SCCs of d, in reverse topological order (Tarjan)."""
    return [mask_members(c) for c in strong_component_masks(d)]


def mask_union(nbrs: Sequence[int], mask: int) -> int:
    """The union of the neighbourhood masks nbrs[v] over the vertices v of
    mask."""
    out = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        out |= nbrs[bit.bit_length() - 1]
    return out


def mask_reach(nbrs: Sequence[int], sources: int, allowed: int) -> int:
    """The vertices that the sources inside `allowed` reach without leaving
    it, as a mask; nbrs[v] is the mask of v's successors.  Each vertex
    reached is taken off the worklist once, lowest bit first."""
    seen = todo = sources & allowed
    while todo:
        bit = todo & -todo
        todo ^= bit
        new = nbrs[bit.bit_length() - 1] & allowed & ~seen
        seen |= new
        todo |= new
    return seen


def component_masks(out: Sequence[int], inn: Sequence[int], keep: int) -> Iterator[int]:
    """The strong components inside the vertex mask keep, as masks, lowest
    vertex first; out[v] and inn[v] are the masks of v's successors and
    predecessors.  Each is a forward closure in keep from the lowest vertex
    left, then a backward closure in what it reached, so a caller may stop
    after any component.  Where Tarjan's order is read, or a banned mask
    is passed, `strong_component_masks` is the split."""
    while keep:
        start = keep & -keep
        comp = mask_reach(inn, start, mask_reach(out, start, keep))
        yield comp
        keep ^= comp


def is_strongly_connected(d: Digraph) -> bool:
    every = ((1 << d.n) - 1) << 1
    return every != 0 and next(component_masks(d.out_masks, d.in_masks, every)) == every


def simple_directed_cycles(d: Digraph) -> list[tuple[int, ...]]:
    """All simple directed cycles, each rooted at its minimal vertex.

    Exhaustive oracle for `porosity.directed_cycle_hitting_set`, which
    places the guards of `decomp.cops_play` (`matchwidth cops`), and for the
    cycle bijection behind `direction.m_direction`.
    """
    cycles: list[tuple[int, ...]] = []

    def dfs(start: int, v: int, path: list[int], visited: set[int]) -> None:
        for w in sorted(d.out_adj[v]):
            if w < start:
                continue
            if w == start:
                cycles.append(tuple(path))
            elif w not in visited:
                visited.add(w)
                path.append(w)
                dfs(start, w, path, visited)
                path.pop()
                visited.remove(w)

    for s in d.vertices:
        dfs(s, s, [s], {s})
    return cycles

