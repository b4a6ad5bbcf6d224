"""Translating between bipartite graphs with perfect matchings and digraphs."""

from __future__ import annotations

from itertools import combinations

from .bigraph import (
    BipartiteGraph,
    Graph,
    Matching,
    VertexSet,
    check_matching,
    is_extendable,
    is_perfect,
)
from .digraph import Digraph, is_strongly_k_connected, strong_components
from .errors import NotPerfect, TooSmall

VertexTag = dict[int, tuple[int, int]]


def m_direction(b: BipartiteGraph, m: Matching) -> tuple[Digraph, VertexTag]:
    """Digraph on the edges of the perfect matching m.

    Vertex i stands for the i-th matching edge in sorted order; there is an
    arc (e, f) whenever some edge of b joins the V1 endpoint of e to the V2
    endpoint of f.  The returned tag maps digraph vertices back to edges.
    """
    m = check_matching(b, m)
    if not is_perfect(b, m):
        raise NotPerfect("m is not a perfect matching")
    edges = sorted(m)
    tag: VertexTag = {i + 1: e for i, e in enumerate(edges)}
    index_of_v1 = {e[0]: i + 1 for i, e in enumerate(edges)}
    index_of_v2 = {e[1]: i + 1 for i, e in enumerate(edges)}
    arcs = set()
    for u, v in b.edges:
        e = index_of_v1[u]
        f = index_of_v2[v]
        if e != f:
            arcs.add((e, f))
    return Digraph(len(edges), frozenset(arcs)), tag


def elementary_parts(b: BipartiteGraph, m: Matching) -> list[VertexSet]:
    """Strong components of the M-direction, as vertex sets of b.

    m must be a perfect matching.  A non-matching edge lies in some perfect
    matching iff it joins two matching edges of one component, so these
    parts are the elementary components of b, in Tarjan's order.
    """
    d, tag = m_direction(b, m)
    return [frozenset(x for i in comp for x in tag[i]) for comp in strong_components(d)]


def split(d: Digraph) -> tuple[BipartiteGraph, Matching, VertexTag]:
    """The bipartite graph with perfect matching whose M-direction is d.

    Digraph vertex v becomes the matching edge (v, n+v); the tag records
    this correspondence.
    """
    n = d.n
    matching = frozenset((v, n + v) for v in d.vertices)
    edges = set(matching)
    for u, v in d.arcs:
        edges.add((u, n + v))
    tag: VertexTag = {v: (v, n + v) for v in d.vertices}
    return BipartiteGraph(n, n, frozenset(edges)), matching, tag


def biorientation(g: Graph | BipartiteGraph) -> Digraph:
    """Replace every edge uv by the two arcs (u,v) and (v,u)."""
    arcs = set()
    for u, v in g.edges:
        arcs.add((u, v))
        arcs.add((v, u))
    return Digraph(g.n, frozenset(arcs))


def is_k_extendable(b: BipartiteGraph, m: Matching, k: int) -> bool:
    """True iff every matching of size k extends to a perfect matching.

    Decided through strong k-connectivity of the M-direction.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if b.n < 2 * k + 2 or not b.is_connected():
        raise TooSmall(f"need a connected graph with at least {2 * k + 2} vertices")
    d, _ = m_direction(b, m)
    return is_strongly_k_connected(d, k)


def is_k_extendable_bruteforce(b: BipartiteGraph, k: int) -> bool:
    """Definition-level check over all k-matchings (oracle, tiny graphs)."""
    if b.n < 2 * k + 2 or not b.is_connected():
        raise TooSmall(f"need a connected graph with at least {2 * k + 2} vertices")
    for combo in combinations(sorted(b.edges), k):
        covered: set[int] = set()
        ok = True
        for u, v in combo:
            if u in covered or v in covered:
                ok = False
                break
            covered.update((u, v))
        if ok and not is_extendable(b, frozenset(combo)):
            return False
    return True


def conformal_cycles(b: BipartiteGraph, m: Matching) -> list[tuple[int, ...]]:
    """All M-conformal cycles, as vertex tuples starting at the minimal vertex.

    Exhaustive (test oracle).  A cycle is M-conformal iff m restricted to it
    is a perfect matching of the cycle.
    """
    m = check_matching(b, m)
    mate = {}
    for u, v in m:
        mate[u] = v
        mate[v] = u
    cycles: list[tuple[int, ...]] = []

    # walk: alternate matching edge / non-matching edge, starting with matching
    def dfs(start: int, v: int, path: list[int], need_m: bool, visited: set[int]) -> None:
        for w in sorted(b.adj[v]):
            is_m = mate.get(v) == w
            if is_m != need_m:
                continue
            if w == start:
                if not need_m:  # closing edge must be a non-matching edge
                    cycles.append(tuple(path))
                continue
            if w < start or w in visited:
                continue
            visited.add(w)
            path.append(w)
            dfs(start, w, path, not need_m, visited)
            path.pop()
            visited.remove(w)

    # the first step is forced along the matching edge at the minimal vertex,
    # so every conformal cycle is produced exactly once
    for s in sorted(b.vertices):
        dfs(s, s, [s], True, {s})
    return cycles
