import hashlib
import json
import random
from functools import reduce
from operator import or_

import pytest

from matchwidth.bigraph import graph_from_edges, some_perfect_matching
from matchwidth.decomp import (
    CycleDecomposition,
    DirectedTreeDecomposition,
    LeafTree,
    compute_pmd,
    cop_number_game_exact,
    cops_play,
    cycd_width,
    cycw_exact_small,
    dtd_to_nice_pmd,
    dtw_exact_small,
    matchings_in,
    nice_pmd_check,
    pmd_width,
    pmw_exact_small,
    prepare_dtd,
    validate_dtd,
)
from matchwidth.digraph import digraph_from_arcs
from matchwidth.direction import m_direction
from matchwidth.errors import OracleLimitExceeded
import matchwidth.decomp as decomp_module
from matchwidth.grids import cylindrical_grid, square_grid
from matchwidth.porosity import (
    cycle_porosity,
    matching_porosity,
    matching_porosity_bruteforce,
)

from common import (
    bidirected_clique,
    canonical_cycle_matching,
    complete_bipartite,
    directed_cycle,
    even_cycle,
    k2,
    nice_pmd,
    random_bipartite_with_pm,
    random_cubic_tree,
    random_digraph,
)


def leaf_tree_from_pairs(pairs, leaf_map, root=None):
    m = 1 + max(max(p) for p in pairs) if pairs else 1
    adj = [set() for _ in range(m)]
    for x, y in pairs:
        adj[x].add(y)
        adj[y].add(x)
    return LeafTree(tuple(frozenset(a) for a in adj), leaf_map, root)


def tree_edge_shores(tree):
    """Both shores of every tree edge, found by walking the tree."""

    def side(x, y):
        out, seen, stack = set(), {x, y}, [y]
        while stack:
            z = stack.pop()
            if z in tree.leaf_map:
                out.add(tree.leaf_map[z])
            for w in tree.adj[z]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(out)

    return [(side(x, y), side(y, x)) for x in range(tree.m) for y in tree.adj[x] if x < y]


ROOT_KINDS = (None, "leaf", "deg2", "deg3")


def test_cut_widths_on_random_trees():
    rng = random.Random(41)
    for _ in range(25):
        b = random_bipartite_with_pm(rng, rng.randint(2, 5), rng.randint(0, 8))
        non_edges = [
            (u, v) for u in b.v1 for v in b.v2 if (u, v) not in b.edges
        ]
        extra = frozenset(rng.sample(non_edges, min(3, len(non_edges))))
        host = graph_from_edges(b.n1, b.n2, b.edges | extra)
        for kind in ROOT_KINDS:
            tree = random_cubic_tree(rng, b.vertices, kind)
            shores = tree_edge_shores(tree)
            assert pmd_width(b, tree) == max(
                matching_porosity_bruteforce(b, s) for s, _ in shores
            )
            assert pmd_width(host, tree) == max(
                matching_porosity_bruteforce(host, s) for s, _ in shores
            )
        d = random_digraph(rng, rng.randint(3, 7), rng.uniform(0.2, 0.6))
        for kind in ROOT_KINDS:
            tree = random_cubic_tree(rng, d.vertices, kind)
            worst = max(
                max(cycle_porosity(d, s), cycle_porosity(d, t))
                for s, t in tree_edge_shores(tree)
            )
            assert cycd_width(d, tree) == worst // 2
    # larger planted graphs, on the pipeline's trees and on random ones,
    # against the maximum over every tree edge
    for n1 in (6, 7, 8, 9, 10, 11, 12) * 2:
        b = random_bipartite_with_pm(rng, n1, rng.randint(n1, 3 * n1))
        non_edges = [
            (u, v) for u in b.v1 for v in b.v2 if (u, v) not in b.edges
        ]
        extra = frozenset(rng.sample(non_edges, 3))
        host = graph_from_edges(b.n1, b.n2, b.edges | extra)
        trees = [compute_pmd(b, some_perfect_matching(b))]
        trees += [random_cubic_tree(rng, b.vertices, kind) for kind in ROOT_KINDS]
        for tree in trees:
            shores = tree_edge_shores(tree)
            assert pmd_width(b, tree) == max(
                matching_porosity(b, s) for s, _ in shores
            )
            assert pmd_width(host, tree) == max(
                matching_porosity(host, s) for s, _ in shores
            )


def test_pmd_width_searches_few_cuts(monkeypatch):
    grid = square_grid(4, 6)
    tree = compute_pmd(grid, some_perfect_matching(grid))
    inner = [
        s for s, _ in tree_edge_shores(tree) if 1 < len(s) < grid.n - 1
    ]
    searched = []

    def counted(b, shore):
        searched.append(shore)
        return matching_porosity(b, shore)

    monkeypatch.setattr(decomp_module, "matching_porosity", counted)
    assert pmd_width(grid, tree) == 4
    assert len(inner) == 22
    assert len(searched) == 1


def test_pmd_width_c4():
    c4 = even_cycle(2)
    # one internal edge: tree 4 leaves, two internal nodes
    tree = leaf_tree_from_pairs(
        [(0, 4), (1, 4), (4, 5), (5, 2), (5, 3)], {0: 1, 1: 3, 2: 2, 3: 4}
    )
    assert pmd_width(c4, tree) == 2


def test_pmd_width_k2():
    tree = leaf_tree_from_pairs([(0, 1)], {0: 1, 1: 2})
    assert pmd_width(k2(), tree) == 1


def test_pmw_exact_small():
    w, dec = pmw_exact_small(even_cycle(2))
    assert w == 2
    assert pmd_width(even_cycle(2), dec) == 2
    assert pmw_exact_small(k2())[0] == 1
    w6, dec6 = pmw_exact_small(even_cycle(3))
    assert w6 == 2
    assert pmd_width(even_cycle(3), dec6) == 2


def test_pmw_has_limit():
    with pytest.raises(OracleLimitExceeded):
        pmw_exact_small(complete_bipartite(6, 6))


def test_cycd_width():
    two_cycle = digraph_from_arcs(2, [(1, 2), (2, 1)])
    tree = leaf_tree_from_pairs([(0, 1)], {0: 1, 1: 2})
    assert cycd_width(two_cycle, tree) == 1
    w, dec = cycw_exact_small(directed_cycle(4))
    assert w == 1
    assert cycd_width(directed_cycle(4), dec) == 1
    dag = digraph_from_arcs(3, [(1, 2), (2, 3)])
    wd, decd = cycw_exact_small(dag)
    assert wd == 0


def test_validate_dtd_examples():
    single = digraph_from_arcs(1, [])
    dec = DirectedTreeDecomposition((-1,), (frozenset({1}),), (frozenset(),))
    ok, width, _ = validate_dtd(single, dec)
    assert ok and width == 0

    two_cycle = digraph_from_arcs(2, [(1, 2), (2, 1)])
    dec2 = DirectedTreeDecomposition(
        (-1, 0), (frozenset({1}), frozenset({2})), (frozenset(), frozenset({1}))
    )
    ok2, width2, _ = validate_dtd(two_cycle, dec2)
    assert ok2 and width2 == 1

    bad = DirectedTreeDecomposition(
        (-1, 0), (frozenset({1}), frozenset({2})), (frozenset(), frozenset())
    )
    ok3, _, _ = validate_dtd(two_cycle, bad)
    assert not ok3


def test_dtw_exact_small_examples():
    dag = digraph_from_arcs(4, [(1, 2), (2, 3), (3, 4)])
    k, dec = dtw_exact_small(dag)
    assert k == 1
    assert validate_dtd(dag, dec)[0]
    assert dec.width() == 0

    two_cycle = digraph_from_arcs(2, [(1, 2), (2, 1)])
    k2_, dec2 = dtw_exact_small(two_cycle)
    assert k2_ <= 2
    assert validate_dtd(two_cycle, dec2)[0]
    assert dec2.width() <= 1

    bk4 = bidirected_clique(4)
    k4, dec4 = dtw_exact_small(bk4)
    assert k4 == 4
    assert validate_dtd(bk4, dec4)[0]


def test_cop_number_matches_true_game():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        d = random_digraph(rng, n, rng.uniform(0.15, 0.7))
        k_mon, _ = dtw_exact_small(d)
        k_true = cop_number_game_exact(d)
        assert k_mon == k_true
    for d in (directed_cycle(3), directed_cycle(5), bidirected_clique(3)):
        assert dtw_exact_small(d)[0] == cop_number_game_exact(d)


def acyclic(d):
    """Kahn's algorithm: every vertex gets removed."""
    indeg = {v: len(d.in_adj[v]) for v in d.vertices}
    todo = [v for v in d.vertices if not indeg[v]]
    for v in todo:
        for w in d.out_adj[v]:
            indeg[w] -= 1
            if not indeg[w]:
                todo.append(w)
    return len(todo) == d.n


def test_one_cop_wins_exactly_on_acyclic_digraphs():
    rng = random.Random(13)
    verdicts = []
    for _ in range(300):
        n = rng.randint(1, 9)
        d = random_digraph(rng, n, rng.uniform(0.05, 0.5))
        want = acyclic(d)
        assert (dtw_exact_small(d)[0] == 1) == want
        if n <= 6:
            assert (cop_number_game_exact(d) == 1) == want
        verdicts.append(want)
    assert 50 < verdicts.count(True) < 250


def test_dtw_exact_small_at_workload_size():
    # M-directions of planted graphs as large as the pm-dense benchmark's;
    # (cop number, width, nodes) as the frozenset search found them
    pinned = [
        (2, 1, 8), (3, 3, 8), (2, 2, 8), (3, 3, 9), (2, 2, 9), (4, 4, 9),
        (4, 4, 10), (3, 3, 10), (5, 5, 10), (3, 3, 11), (3, 3, 11), (2, 2, 11),
    ]
    rng = random.Random(31)
    got = []
    for n1 in (8, 8, 8, 9, 9, 9, 10, 10, 10, 11, 11, 11):
        b = random_bipartite_with_pm(rng, n1, rng.randint(2 * n1, 4 * n1))
        d, _ = m_direction(b, frozenset((i, n1 + i) for i in range(1, n1 + 1)))
        k, dec = dtw_exact_small(d)
        assert validate_dtd(d, dec)[0]
        assert dec.width() <= 2 * k - 1
        got.append((k, dec.width(), dec.m))
    assert got == pinned


def test_dtw_width_vs_cop_bound():
    rng = random.Random(9)
    for _ in range(20):
        d = random_digraph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.6))
        k, dec = dtw_exact_small(d)
        assert validate_dtd(d, dec)[0]
        assert dec.width() <= 3 * k - 2


def test_cops_play_captures():
    for d in (
        digraph_from_arcs(3, [(1, 2), (2, 3)]),
        directed_cycle(4),
        digraph_from_arcs(2, [(1, 2), (2, 1)]),
    ):
        w, dec = cycw_exact_small(d)
        transcript = cops_play(d, dec)
        k = max(w, 1)
        assert transcript.max_cops() <= 6 * k * k + 12 * k
        if d.n == 4:
            assert transcript.max_cops() <= 18


def test_cops_play_random():
    rng = random.Random(13)
    for _ in range(25):
        d = random_digraph(rng, rng.randint(1, 6), rng.uniform(0.15, 0.7))
        w, dec = cycw_exact_small(d)
        transcript = cops_play(d, dec)
        k = max(w, 1)
        assert transcript.max_cops() <= 6 * k * k + 12 * k


def test_binarised_two_leaf_tree():
    # both leaves hang from the virtual node m = 2, whose below-set is the
    # whole ground set
    tree = LeafTree((frozenset({1}), frozenset({0})), {0: 2, 1: 1})
    view = tree.binarised()
    assert view.root == 2
    assert view.kids == [(), (), (0, 1)]
    assert view.order == [2, 0, 1]
    assert view.below() == [frozenset({2}), frozenset({1}), frozenset({1, 2})]


def test_cut_masks_hold_the_edges_with_one_end_below():
    rng = random.Random(23)
    cases = [(k2(), LeafTree((frozenset({1}), frozenset({0})), {0: 2, 1: 1}).binarised())]
    for _ in range(20):
        b = random_bipartite_with_pm(rng, rng.randint(2, 6), rng.randint(0, 10))
        for kind in ROOT_KINDS:
            tree = random_cubic_tree(rng, b.vertices, kind)
            cases.append((b, tree.binarised()))
            if kind == "deg3":
                # the degree-3 root's view adds the virtual node m
                assert len(cases[-1][1].kids) == tree.m + 1
    for b, view in cases:
        edges = sorted(b.edges)
        below = view.below_masks()
        cut = view.cut_masks(edges)
        for x in view.order:
            assert cut[x] == sum(
                1 << i for i, (u, v) in enumerate(edges) if (below[x] >> u & 1) != (below[x] >> v & 1)
            )


def test_matchings_in_lists_every_small_matching_of_its_mask_once():
    rng = random.Random(29)
    for _ in range(30):
        b = random_bipartite_with_pm(rng, rng.randint(2, 4), rng.randint(0, 6))
        ends = [1 << u | 1 << v for u, v in sorted(b.edges)]
        mask = rng.getrandbits(len(ends))
        cap = rng.randint(0, 3)
        want = []
        for sub in range(1 << len(ends)):
            chosen = [ev for i, ev in enumerate(ends) if sub >> i & 1]
            covered = reduce(or_, chosen, 0)
            if not sub & ~mask and len(chosen) <= cap and covered.bit_count() == 2 * len(chosen):
                want.append((sub, covered))
        got = matchings_in(mask, ends, cap)
        assert got[0] == (0, 0) and sorted(got) == sorted(want)


def test_prepare_dtd():
    # star-shaped decomposition with four children gets binarised
    d = digraph_from_arcs(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    dec = DirectedTreeDecomposition(
        (-1, 0, 0, 0, 0),
        tuple(frozenset({i}) for i in range(1, 6)),
        (frozenset(),) + (frozenset({1}),) * 4,
    )
    assert validate_dtd(d, dec)[0]
    prepared = prepare_dtd(d, dec)
    assert validate_dtd(d, prepared, proto=True)[0]
    for t in range(prepared.m):
        assert len(prepared.kids[t]) <= 2
    # already subcubic input is unchanged
    k, dec2 = dtw_exact_small(directed_cycle(3))
    assert prepare_dtd(directed_cycle(3), dec2).m == dec2.m


def test_convert_c4():
    b = even_cycle(2)
    m = some_perfect_matching(b)
    nice = nice_pmd(b, m)
    assert nice.width <= 2
    assert nice_pmd_check(b, nice, m)[0]


def test_convert_c6_c8():
    for k in (3, 4):
        b = even_cycle(k)
        m = some_perfect_matching(b)
        nice = nice_pmd(b, m)
        assert nice_pmd_check(b, nice, m)[0]
        exact, _ = pmw_exact_small(b)
        assert nice.width <= 2 * exact


def test_convert_k33():
    b = complete_bipartite(3, 3)
    m = some_perfect_matching(b)
    nice = nice_pmd(b, m)
    assert nice_pmd_check(b, nice, m)[0]
    assert pmd_width(b, nice.tree) == nice.width


def test_conversion_width_is_over_the_host():
    # a k-DAPP host: b plus the completion edge 3-6; M is a perfect matching
    # of both, and the converted tree is wider over host than over b
    b = graph_from_edges(3, 3, [(1, 4), (2, 5), (2, 6), (3, 5)])
    host = graph_from_edges(3, 3, sorted(b.edges | {(3, 6)}))
    m = frozenset({(1, 4), (2, 6), (3, 5)})
    d, tag = m_direction(host, m)
    _, dtd = dtw_exact_small(d)
    nice = dtd_to_nice_pmd(host, d, tag, dtd)
    assert nice_pmd_check(host, nice, m) == (True, None)
    assert nice.width == pmd_width(host, nice.tree) > pmd_width(b, nice.tree)
    assert nice.type1_bound >= nice.width


def test_width_chain_small():
    # 1/2 pmw <= cycw <= pmw and cycw - 1 <= certificate width <= quadratic bound
    cases = [even_cycle(2), even_cycle(3), even_cycle(4), complete_bipartite(3, 3)]
    for b in cases:
        m = frozenset((i, b.n1 + i) for i in range(1, b.n1 + 1))
        if not m <= b.edges:
            continue
        d, _ = m_direction(b, m)
        pmw, _ = pmw_exact_small(b)
        cycw, _ = cycw_exact_small(d)
        assert pmw <= 2 * cycw <= 2 * pmw
        _, cert = dtw_exact_small(d)
        width = cert.width()
        assert cycw - 1 <= width <= 18 * cycw * cycw + 36 * cycw - 2


def test_compute_pmd_pinned():
    # (width, type1_bound, tree digest) of each graph, recorded before the
    # checks and the width moved onto vertex masks; the decomposition must
    # not change, and the k-DAPP route's nice conversion holds the same tree
    pinned = [
        ("planted6", 2, 2, "ecdd5e7ef3afcfbf"),
        ("planted7", 2, 2, "36f04605340c6a29"),
        ("planted8", 1, 2, "d62cb1174bfa0042"),
        ("planted9", 2, 2, "9abf0f5c3587e237"),
        ("planted10", 4, 4, "52fc8c219e41096f"),
        ("planted11", 2, 2, "d2b845700155c15d"),
        ("planted12", 2, 2, "6133b862dfe32813"),
        ("grid3x4", 2, 2, "76d3d5c216c968c2"),
        ("grid3x6", 2, 2, "dae16763d5e62d96"),
        ("grid3x8", 2, 2, "757d68bd5eb76c4f"),
        ("grid4x3", 2, 2, "831aa03865b6806f"),
        ("grid4x4", 4, 4, "8b13026bf9c40e7f"),
        ("grid4x5", 4, 4, "a7a22f99f32b9a99"),
        ("grid4x6", 4, 4, "a17bde5433ebc243"),
        ("cg2", 4, 4, "bc0e0f189a2d23c1"),
    ]
    rng = random.Random(2106)
    graphs = [
        (f"planted{n1}", random_bipartite_with_pm(rng, n1, rng.randint(n1, 2 * n1)))
        for n1 in range(6, 13)
    ]
    graphs += [(f"grid3x{k}", square_grid(3, k)) for k in (4, 6, 8)]
    graphs += [(f"grid4x{k}", square_grid(4, k)) for k in (3, 4, 5, 6)]
    graphs.append(("cg2", cylindrical_grid(2)[0]))
    got = []
    for name, b in graphs:
        m = some_perfect_matching(b)
        tree = compute_pmd(b, m)
        nice = nice_pmd(b, m)
        assert nice.tree == tree
        data = [[sorted(a) for a in tree.adj], sorted(tree.leaf_map.items()), tree.root]
        digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()[:16]
        got.append((name, nice.width, nice.type1_bound, digest))
    assert got == pinned
