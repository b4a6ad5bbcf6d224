"""Canonical labelling by iterative refinement with backtracking (desk scale).

Used for round-trip isomorphism tests, corpus deduplication, and the
memoisation of minor-closure searches.  Not intended for large graphs.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, Sequence

from .bigraph import BipartiteGraph, Matching
from .digraph import Digraph

Canon = tuple


def _refine(
    n: int,
    out_adj: Sequence[frozenset[int]],
    in_adj: Sequence[frozenset[int]] | None,
    colors: list[int],
) -> list[int]:
    while True:
        sigs = []
        for v in range(n):
            outs = tuple(sorted(colors[w] for w in out_adj[v]))
            ins = tuple(sorted(colors[w] for w in in_adj[v])) if in_adj is not None else ()
            sigs.append((colors[v], outs, ins))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _canonical(
    n: int,
    out_adj: Sequence[frozenset[int]],
    in_adj: Sequence[frozenset[int]] | None,
    colors: list[int],
    given: Sequence[int] | None = None,
) -> Canon:
    """The least encoding over the vertex orders that refinement and
    individualisation reach.  An encoding lists the `given` colours (the
    first call's) along the order, with the arcs: the refined colours of a
    discrete order are 0..n-1 on every graph, so they keep no trace of the
    colour classes."""
    given = colors if given is None else given
    colors = _refine(n, out_adj, in_adj, list(colors))

    def encode(order: list[int]) -> Canon:
        pos = {v: i for i, v in enumerate(order)}
        if in_adj is None:
            arcs = sorted(
                (min(pos[u], pos[w]), max(pos[u], pos[w]))
                for u in range(n)
                for w in out_adj[u]
                if u < w
            )
        else:
            arcs = sorted((pos[u], pos[w]) for u in range(n) for w in out_adj[u])
        return (tuple(given[v] for v in order), tuple(arcs))

    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    target = None
    for c in sorted(classes):
        if len(classes[c]) > 1:
            target = c
            break
    if target is None:
        order = sorted(range(n), key=lambda v: colors[v])
        return encode(order)

    best: Canon | None = None
    fresh = max(colors) + 1
    for v in classes[target]:
        child = list(colors)
        child[v] = fresh
        sub = _canonical(n, out_adj, in_adj, child, given)
        if best is None or sub < best:
            best = sub
    assert best is not None
    return best


def canonical_bipartite(
    b: BipartiteGraph,
    m: Matching | None = None,
    allow_swap: bool = True,
) -> Canon:
    """Canonical form of a bipartite graph respecting colour classes.

    When m is given the matching edges are distinguished, so two (graph,
    matching) pairs compare equal iff they are isomorphic respecting m.
    With allow_swap the two colour classes may be exchanged.
    """

    def one(swap: bool) -> Canon:
        cls = (lambda v: 2 if v <= b.n1 else 3) if swap else (lambda v: 3 if v <= b.n1 else 2)
        if m is None:
            out = [frozenset(w - 1 for w in b.adj[v + 1]) for v in range(b.n)]
            colors = [cls(v + 1) for v in range(b.n)]
            return ("plainb", _canonical(b.n, out, None, colors))
        # subdivide matching edges with marker vertices so they canonicalise apart
        extra = {e: b.n + i + 1 for i, e in enumerate(sorted(m))}
        total = b.n + len(extra)
        adj: list[set[int]] = [set() for _ in range(total)]
        for u, v in b.edges:
            e = (u, v)
            if e in extra:
                x = extra[e]
                adj[u - 1].add(x - 1)
                adj[x - 1].add(u - 1)
                adj[v - 1].add(x - 1)
                adj[x - 1].add(v - 1)
            else:
                adj[u - 1].add(v - 1)
                adj[v - 1].add(u - 1)
        colors = [cls(v + 1) for v in range(b.n)] + [1] * len(extra)
        out = [frozenset(s) for s in adj]
        return ("mb", _canonical(total, out, None, colors))

    first = one(False)
    if not allow_swap:
        return first
    return min(first, one(True))


def canonical_digraph(d: Digraph) -> Canon:
    out = [frozenset(w - 1 for w in d.out_adj[v + 1]) for v in range(d.n)]
    inn = [frozenset(w - 1 for w in d.in_adj[v + 1]) for v in range(d.n)]
    return ("d", _canonical(d.n, out, inn, [0] * d.n))


def bipartite_isomorphic(
    b1: BipartiteGraph,
    b2: BipartiteGraph,
    m1: Matching | None = None,
    m2: Matching | None = None,
    allow_swap: bool = True,
) -> bool:
    """Isomorphism through canonical forms, optionally of graphs with
    matchings: the oracle that checks the graphs `gen` and `split` build
    against known families."""
    if (b1.n1, b1.n2, len(b1.edges)) != (b2.n1, b2.n2, len(b2.edges)) and not (
        allow_swap and (b1.n1, b1.n2) == (b2.n2, b2.n1) and len(b1.edges) == len(b2.edges)
    ):
        return False
    return canonical_bipartite(b1, m1, allow_swap) == canonical_bipartite(b2, m2, allow_swap)


def digraph_isomorphic(d1: Digraph, d2: Digraph) -> bool:
    """Isomorphism through canonical forms: the oracle that checks the
    M-directions `direction` builds against known digraphs."""
    if d1.n != d2.n or len(d1.arcs) != len(d2.arcs):
        return False
    return canonical_digraph(d1) == canonical_digraph(d2)


def bipartite_isomorphisms(b: BipartiteGraph, c: BipartiteGraph) -> Iterator[dict[int, int]]:
    """The colour-preserving isomorphisms from b to c, one at a time (tiny
    graphs only).

    Tries every degree-preserving map of V1(b) onto V1(c), then maps V2(b)
    in ascending order by backtracking: v may go only to an unused w whose
    neighbourhood in c holds the image of N(v).  They come out in the
    lexicographic order of the (V1 image, V2 image) tuples.
    """
    if (b.n1, b.n2, len(b.edges)) != (c.n1, c.n2, len(c.edges)):
        return
    v2 = list(b.v2)
    for p1 in permutations(c.v1):
        part1 = {u: p1[u - 1] for u in b.v1}
        if any(b.degree(u) != c.degree(part1[u]) for u in b.v1):
            continue
        # the V2(c) vertices each v may go to, ascending
        options = []
        for v in v2:
            image = {part1[u] for u in b.adj[v]}
            options.append([w for w in c.v2 if image <= c.adj[w]])
        images: list[int] = []

        def extend(i: int) -> Iterator[dict[int, int]]:
            if i == len(v2):
                full = dict(part1)
                full.update(zip(v2, images))
                yield full
                return
            for w in options[i]:
                if w not in images:
                    images.append(w)
                    yield from extend(i + 1)
                    images.pop()

        yield from extend(0)


def bipartite_automorphisms(b: BipartiteGraph) -> list[dict[int, int]]:
    """All colour-preserving automorphisms, in the order
    `bipartite_isomorphisms` gives them."""
    return list(bipartite_isomorphisms(b, b))


def swap_colours(b: BipartiteGraph) -> BipartiteGraph:
    """b with its colour classes exchanged: V2 vertex n1 + i becomes i and
    V1 vertex u becomes n2 + u."""
    return BipartiteGraph(b.n2, b.n1, frozenset((v - b.n1, u + b.n2) for u, v in b.edges))
