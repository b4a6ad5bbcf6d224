"""Shared graph builders for the test suite."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager

from matchwidth.bigraph import BipartiteGraph, Matching, graph_from_edges
from matchwidth.decomp import LeafTree, NicePMD, _TreeBuilder, dtd_to_nice_pmd, dtw_exact_small
from matchwidth.digraph import Digraph, digraph_from_arcs
from matchwidth.direction import m_direction


def even_cycle(k: int) -> BipartiteGraph:
    """C_{2k} with V1 = odd positions; vertex ids follow the cycle order
    a1, b1, a2, b2, ... mapped to ids 1..k (a's) and k+1..2k (b's)."""
    edges = []
    for i in range(1, k + 1):
        edges.append((i, k + i))  # a_i - b_i
        edges.append((i % k + 1, k + i))  # b_i - a_{i+1}
    return graph_from_edges(k, k, edges)


def path_graph(n_edges: int) -> BipartiteGraph:
    """Path a1-b1-a2-b2-... with n_edges edges (n_edges odd gives equal classes)."""
    total = n_edges + 1
    n1 = (total + 1) // 2
    n2 = total // 2
    edges = []
    for i in range(n_edges):
        even_pos = i if i % 2 == 0 else i + 1
        odd_pos = i + 1 if i % 2 == 0 else i
        edges.append((even_pos // 2 + 1, n1 + (odd_pos + 1) // 2))
    return graph_from_edges(n1, n2, edges)


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    return graph_from_edges(a, b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


def k2() -> BipartiteGraph:
    return graph_from_edges(1, 1, [(1, 2)])


def canonical_cycle_matching(k: int) -> frozenset[tuple[int, int]]:
    """The matching {a_i b_i} of even_cycle(k)."""
    return frozenset((i, k + i) for i in range(1, k + 1))


def directed_cycle(n: int) -> Digraph:
    return digraph_from_arcs(n, [(i, i % n + 1) for i in range(1, n + 1)])


def bidirected_clique(n: int) -> Digraph:
    arcs = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                arcs.append((i, j))
    return digraph_from_arcs(n, arcs)


def random_bipartite_with_pm(rng: random.Random, n1: int, extra_edges: int) -> BipartiteGraph:
    """Random bipartite graph on (n1, n1) built around a planted perfect matching."""
    edges = {(i, n1 + i) for i in range(1, n1 + 1)}
    pool = [
        (i, n1 + j)
        for i in range(1, n1 + 1)
        for j in range(1, n1 + 1)
        if i != j
    ]
    rng.shuffle(pool)
    for e in pool[:extra_edges]:
        edges.add(e)
    return graph_from_edges(n1, n1, edges)


def random_digraph(rng: random.Random, n: int, arc_prob: float) -> Digraph:
    arcs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and rng.random() < arc_prob
    ]
    return digraph_from_arcs(n, arcs)


def random_cubic_tree(rng, ground, root_kind):
    """Random leaf tree over `ground` (three or more elements), grown by
    hanging each further leaf off a random edge.  root_kind is None, "leaf",
    "deg3" (an internal node) or "deg2" (a node subdividing a random edge)."""
    ground = list(ground)
    adj = [{1}, {0}]
    leaf_map = {0: ground[0], 1: ground[1]}

    def subdivide():
        x = rng.randrange(len(adj))
        y = rng.choice(sorted(adj[x]))
        adj[x].remove(y)
        adj[y].remove(x)
        adj[x].add(len(adj))
        adj[y].add(len(adj))
        adj.append({x, y})
        return len(adj) - 1

    for v in ground[2:]:
        mid = subdivide()
        adj[mid].add(len(adj))
        adj.append({mid})
        leaf_map[len(adj) - 1] = v
    root = None
    if root_kind == "leaf":
        root = rng.choice(sorted(leaf_map))
    elif root_kind == "deg3":
        root = rng.choice([x for x in range(len(adj)) if x not in leaf_map])
    elif root_kind == "deg2":
        root = subdivide()
    return LeafTree(tuple(map(frozenset, adj)), leaf_map, root)


def nice_pmd(b: BipartiteGraph, m: Matching) -> NicePMD:
    """The `compute_pmd` tree of b on m, with the width data and niceness
    certificate that `dtd_to_nice_pmd` adds on the k-DAPP route."""
    d, tag = m_direction(b, m)
    _, dtd = dtw_exact_small(d)
    return dtd_to_nice_pmd(b, d, tag, dtd)


def sibling_leaf_caterpillar(b: BipartiteGraph, m: Matching) -> LeafTree:
    """A leaf tree over b's vertices whose spine has one node per edge of the
    perfect matching m, holding the edge's two ends as sibling leaves.  The
    edges come in breadth-first order of b, from each unreached vertex in
    turn, so a ladder's caterpillar is as deep as the ladder is long."""
    mate = {}
    for u, v in m:
        mate[u], mate[v] = v, u
    tb = _TreeBuilder()
    leaves: dict[int, int] = {}
    spine = None
    seen: set[int] = set()
    placed: set[int] = set()
    for first in sorted(b.vertices):
        if first in seen:
            continue
        seen.add(first)
        todo = [first]
        for x in todo:
            todo += sorted(b.adj[x] - seen)
            seen |= b.adj[x]
            if x in placed:
                continue
            placed |= {x, mate[x]}
            node = tb.node()
            for end in (x, mate[x]):
                leaf = tb.node()
                leaves[leaf] = end
                tb.link(node, leaf)
            if spine is not None:
                up = tb.node()
                tb.link(up, spine)
                tb.link(up, node)
                node = up
            spine = node
    return LeafTree(tuple(map(frozenset, tb.adj)), leaves, spine)


@contextmanager
def recursion_headroom(frames: int):
    """Lower the recursion limit to the current frame depth plus `frames`
    for the body, and restore it after."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
