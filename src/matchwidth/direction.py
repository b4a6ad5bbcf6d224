"""Translating between bipartite graphs with perfect matchings and digraphs."""

from __future__ import annotations

from typing import Iterator

from .bigraph import BipartiteGraph, Matching, VertexSet, check_matching, is_perfect
from .digraph import Digraph, mask_members, strong_component_masks, strong_components
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


def elementary_directions(
    b: BipartiteGraph, m: Matching
) -> Iterator[tuple[BipartiteGraph, Digraph, VertexTag]]:
    """Each elementary component of b with more than one matching edge, as
    `bigraph.induced_subgraph` numbers it, with the M-direction and tag
    that `m_direction` gives it on m's edges there; in Tarjan's order.

    m must be a perfect matching of b.  One M-direction of b is built and
    split into strong components, the parts of `elementary_parts`; each
    component's digraph and graph are read off it.  Digraph vertices and V1
    are both numbered in the order of their V1 ends, and the induced
    numbering keeps the order of each colour class, so the component's
    i-th vertex is its i-th matching edge and that edge's V1 end is i.  An
    edge of b inside the part is a matching edge or gives an arc there, and
    each arc (e, f) comes from the one edge that joins the V1 end of e to
    the V2 end of f.

    When the M-direction is one strong component of at least 2 vertices,
    that numbering is b's own and every arc lies inside the part, so b, d
    and tag themselves are yielded, with no copy.
    """
    d, tag = m_direction(b, m)
    out = d.out_masks
    every = (1 << (d.n + 1)) - 2
    for comp in strong_component_masks(d):
        if not comp & (comp - 1):
            continue  # a K2, whose one perfect matching is its edge
        if comp == every:
            yield b, d, tag
            return
        ids = sorted(mask_members(comp))
        k = len(ids)
        new = {e: i for i, e in enumerate(ids, start=1)}
        whites = sorted(tag[e][1] for e in ids)
        white = {v: i for i, v in enumerate(whites, start=k + 1)}
        sub_tag: VertexTag = {new[e]: (new[e], white[tag[e][1]]) for e in ids}
        arcs = []
        for e in ids:
            row = out[e] & comp
            while row:
                low = row & -row
                row ^= low
                arcs.append((new[e], new[low.bit_length() - 1]))
        edges = frozenset(sub_tag.values()).union((e, sub_tag[f][1]) for e, f in arcs)
        yield BipartiteGraph(k, k, edges), Digraph(k, frozenset(arcs)), sub_tag


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
