"""Translating between bipartite graphs with perfect matchings and digraphs."""

from __future__ import annotations

from .bigraph import BipartiteGraph, Matching, VertexSet, check_matching, is_perfect
from .digraph import Digraph, strong_components
from .errors import NotPerfect

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
