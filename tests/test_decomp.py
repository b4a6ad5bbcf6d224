import hashlib
import json
import random
from functools import reduce
from operator import or_

import pytest

from matchwidth.bigraph import (
    admissible_edges_for,
    enumerate_perfect_matchings,
    graph_from_edges,
    some_perfect_matching,
)
from matchwidth.decomp import (
    CycleDecomposition,
    DirectedTreeDecomposition,
    LeafTree,
    compute_pmd,
    cop_number_game_exact,
    cops_play,
    cycd_width,
    cut_width,
    cycw_exact_small,
    dtd_greedy,
    dtd_to_nice_pmd,
    dtd_to_pmd,
    dtw_exact_small,
    matchings_in,
    nice_pmd_check,
    pmd_width,
    pmw_exact_small,
    prepare_dtd,
    validate_dtd,
)
from matchwidth.counting import count_pm_decomp
from matchwidth.digraph import Digraph, digraph_from_arcs, vertex_mask
from matchwidth.direction import m_direction
from matchwidth.errors import InvalidDecomposition, OracleLimitExceeded
import matchwidth.decomp as decomp_module
from matchwidth.grids import cylindrical_grid, square_grid
from matchwidth.porosity import (
    cycle_porosity,
    matching_porosity,
    matching_porosity_bound,
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
    recursion_headroom,
)
from corpus import connected_pm_bipartite


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
                matching_porosity(b, vertex_mask(s)) for s, _ in shores
            )
            assert pmd_width(host, tree) == max(
                matching_porosity(host, vertex_mask(s)) for s, _ in shores
            )


def test_pmd_width_searches_few_cuts(monkeypatch):
    # the exact search's tree (the k-DAPP route's), whose width the pruning
    # settles with one exact porosity search
    grid = square_grid(4, 6)
    tree = nice_pmd(grid, some_perfect_matching(grid)).tree
    inner = [
        s for s, _ in tree_edge_shores(tree) if 1 < len(s) < grid.n - 1
    ]
    searched = []

    def counted(b, shore: int) -> int:
        searched.append(shore)
        return matching_porosity(b, shore)

    monkeypatch.setattr(decomp_module, "matching_porosity", counted)
    assert pmd_width(grid, tree) == 4
    assert len(inner) == 22
    assert len(searched) == 1
    # the shore is searched as the vertex mask of one side of a tree edge
    assert searched[0] in {vertex_mask(side) for pair in tree_edge_shores(tree) for side in pair}


def test_cut_bounds_are_exact_on_the_core_of_a_graph_with_one_perfect_matching():
    # relabelled staircases, V1 vertex i joined to V2 vertices i..n1: one
    # perfect matching m, so the admissible core is m, and the bound of
    # every shore on the core is the porosity, the edges of m it cuts
    rng = random.Random(53)
    seen = set()
    for _ in range(30):
        n1 = rng.randint(2, 7)
        v2 = list(range(n1 + 1, 2 * n1 + 1))
        rng.shuffle(v2)
        edges = [(i, v2[j - 1]) for i in range(1, n1 + 1) for j in range(i, n1 + 1)]
        b = graph_from_edges(n1, n1, edges)
        (m,) = enumerate_perfect_matchings(b)
        core = graph_from_edges(n1, n1, admissible_edges_for(b, m))
        assert core.edges == m
        for _ in range(10):
            shore = vertex_mask(v for v in b.vertices if rng.random() < 0.5)
            bound = matching_porosity_bound(core, shore)
            assert bound == matching_porosity(b, shore) == sum(
                (shore >> u & 1) != (shore >> v & 1) for u, v in m
            )
            seen.add(bound)
    assert len(seen) >= 4


def test_exact_small_trees_pinned():
    # digests of the width and tree of `pmw_exact_small` and
    # `cycw_exact_small`, recorded when each split's two sides were
    # searched apart: the corpus graphs of n <= 8, the 2 x 4 and 2 x 5
    # ladders, their M-directions, and random digraphs
    graphs = [b for n in range(1, 5) for b in connected_pm_bipartite(n)]
    graphs += [square_grid(2, 4), square_grid(2, 5)]
    rng = random.Random(3300)
    digraphs = [m_direction(b, some_perfect_matching(b))[0] for b in graphs]
    digraphs += [random_digraph(rng, rng.randint(5, 8), rng.uniform(0.15, 0.5)) for _ in range(20)]

    def digest(results):
        sha = hashlib.sha256()
        for width, tree in results:
            data = [width, [sorted(a) for a in tree.adj], sorted(tree.leaf_map.items())]
            sha.update(json.dumps(data).encode())
        return sha.hexdigest()[:16]

    assert digest(map(pmw_exact_small, graphs)) == "ed4e3c69b4dcdb7a"
    assert digest(map(cycw_exact_small, digraphs)) == "27c7a66cc357ccc0"


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


def test_cops_play_transcripts_pinned():
    # a digest of the width and the cop positions, in play order, over
    # seeded digraphs of 1-8 vertices, recorded when the opening, the
    # one- and two-vertex games and each descent step were placed apart
    rng = random.Random(3802)
    sha = hashlib.sha256()
    for _ in range(200):
        d = random_digraph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.6))
        w, dec = cycw_exact_small(d)
        positions = [sorted(c) for c in cops_play(d, dec).cop_positions]
        sha.update(json.dumps([w, positions]).encode())
    assert sha.hexdigest()[:16] == "debc5b86b7f9f0d3"


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
    # per graph: the `nice_pmd` width, type1_bound and tree digest of the
    # k-DAPP route's exact-search tree, recorded before the checks and the
    # width moved onto vertex masks, then the digest and `cut_width` of the
    # `compute_pmd` tree, which past four M-direction vertices comes from
    # the greedy strategy; neither tree may change
    pinned = [
        ("planted6", 2, 2, "ecdd5e7ef3afcfbf", "ecdd5e7ef3afcfbf", 2),
        ("planted7", 2, 2, "36f04605340c6a29", "36f04605340c6a29", 2),
        ("planted8", 1, 2, "d62cb1174bfa0042", "d62cb1174bfa0042", 1),
        ("planted9", 2, 2, "9abf0f5c3587e237", "8d21582ca59d370c", 2),
        ("planted10", 4, 4, "52fc8c219e41096f", "672cbd1c4ee71a77", 2),
        ("planted11", 2, 2, "d2b845700155c15d", "7de4cf397667b397", 2),
        ("planted12", 2, 2, "6133b862dfe32813", "6133b862dfe32813", 2),
        ("grid3x4", 2, 2, "76d3d5c216c968c2", "93d5e47874e48de3", 2),
        ("grid3x6", 2, 2, "dae16763d5e62d96", "c1f1a1558414a6b0", 2),
        ("grid3x8", 2, 2, "757d68bd5eb76c4f", "99237a2f977e64e8", 2),
        ("grid4x3", 2, 2, "831aa03865b6806f", "fc1bd6d4ae012fa5", 2),
        ("grid4x4", 4, 4, "8b13026bf9c40e7f", "d44671b9d0d4d3a3", 4),
        ("grid4x5", 4, 4, "a7a22f99f32b9a99", "cde8c7a356a8d8db", 4),
        ("grid4x6", 4, 4, "a17bde5433ebc243", "402a8c632e2567ea", 6),
        ("cg2", 4, 4, "bc0e0f189a2d23c1", "984045e2601ee854", 4),
    ]
    rng = random.Random(2106)
    graphs = [
        (f"planted{n1}", random_bipartite_with_pm(rng, n1, rng.randint(n1, 2 * n1)))
        for n1 in range(6, 13)
    ]
    graphs += [(f"grid3x{k}", square_grid(3, k)) for k in (4, 6, 8)]
    graphs += [(f"grid4x{k}", square_grid(4, k)) for k in (3, 4, 5, 6)]
    graphs.append(("cg2", cylindrical_grid(2)[0]))

    def digest(tree):
        data = [[sorted(a) for a in tree.adj], sorted(tree.leaf_map.items()), tree.root]
        return hashlib.sha256(json.dumps(data).encode()).hexdigest()[:16]

    got = []
    for name, b in graphs:
        m = some_perfect_matching(b)
        tree = compute_pmd(b, m)
        nice = nice_pmd(b, m)
        got.append(
            (name, nice.width, nice.type1_bound, digest(nice.tree), digest(tree), cut_width(b, m, tree))
        )
    assert got == pinned


def test_dtd_greedy_is_a_deterministic_valid_decomposition():
    # the M-directions of every corpus graph (n1 <= 4), CG_2-CG_4, and the
    # 3 x k and 4 x k grids up to k = 8
    graphs = [b for n in range(1, 5) for b in connected_pm_bipartite(n)]
    graphs += [cylindrical_grid(k)[0] for k in (2, 3, 4)]
    graphs += [square_grid(3, k) for k in (2, 4, 6, 8)]
    graphs += [square_grid(4, k) for k in range(2, 9)]
    rng = random.Random(1500)
    digraphs = [m_direction(b, some_perfect_matching(b))[0] for b in graphs]
    # acyclic, disconnected and dense digraphs too
    digraphs += [random_digraph(rng, rng.randint(1, 12), rng.uniform(0.05, 0.5)) for _ in range(60)]
    for d in digraphs:
        dec = dtd_greedy(d)
        assert validate_dtd(d, dec)[0]
        assert all(len(bag) == 1 for bag in dec.bags)
        # the same digraph, built afresh from its arcs in another order
        again = digraph_from_arcs(d.n, sorted(d.arcs, reverse=True))
        assert dtd_greedy(again) == dec


def test_dtd_greedy_refuses_the_empty_digraph():
    with pytest.raises(InvalidDecomposition):
        dtd_greedy(Digraph(0))


def test_compute_pmd_width_is_at_least_pmw():
    # `cut_width` of the pipeline's tree is an upper bound on pmw; n1 = 5
    # gives M-directions past EXACT_TREE_LIMIT within the oracle's reach
    rng = random.Random(1501)
    graphs = [b for n in range(1, 5) for b in connected_pm_bipartite(n)]
    graphs += [random_bipartite_with_pm(rng, 5, rng.randint(2, 15)) for _ in range(12)]
    assert decomp_module.EXACT_TREE_LIMIT < 5 and graphs[-1].n <= decomp_module.PMW_ORACLE_LIMIT
    for b in graphs:
        m = some_perfect_matching(b)
        assert cut_width(b, m, compute_pmd(b, m)) >= pmw_exact_small(b)[0]


def test_each_tree_is_validated_once_by_the_function_that_returns_it(monkeypatch):
    # dtd_to_pmd leaves the check to its callers: compute_pmd validates the
    # tree it returns, and dtd_to_nice_pmd validates before cut_width and
    # nice_pmd_check read the tree
    log = []
    real_validate, real_cut_width = LeafTree.validate, decomp_module.cut_width

    def validate(self, ground):
        log.append(("validate", self, frozenset(ground)))
        return real_validate(self, ground)

    def cut_width_(host, m, tree):
        log.append(("cut_width", tree, frozenset(host.vertices)))
        return real_cut_width(host, m, tree)

    monkeypatch.setattr(LeafTree, "validate", validate)
    monkeypatch.setattr(decomp_module, "cut_width", cut_width_)
    for b in (even_cycle(5), square_grid(3, 4), cylindrical_grid(2)[0]):
        m = some_perfect_matching(b)
        d, tag = m_direction(b, m)
        ground = frozenset(b.vertices)
        log.clear()
        dtd_to_pmd(d, tag, dtw_exact_small(d)[1])
        assert log == []
        tree = compute_pmd(b, m)
        assert log == [("validate", tree, ground)]
        log.clear()
        nice = dtd_to_nice_pmd(b, d, tag, dtw_exact_small(d)[1])
        assert log == [("validate", nice.tree, ground), ("cut_width", nice.tree, ground)]


def test_dtd_to_pmd_on_a_deep_chain():
    # a zig-zag path host, whose M-direction is the path 1 -> 2 -> ... -> n,
    # and the DTD chain with one vertex per level: the conversion runs on an
    # explicit stack, so the depth is no limit
    n = 1500
    edges = [(i, n + i) for i in range(1, n + 1)] + [(i, n + i + 1) for i in range(1, n)]
    host = graph_from_edges(n, n, edges)
    d, tag = m_direction(host, frozenset(edges[:n]))
    assert d.arcs == frozenset((i, i + 1) for i in range(1, n))
    chain = DirectedTreeDecomposition(
        tuple(range(-1, n - 1)),
        tuple(frozenset({t}) for t in range(1, n + 1)),
        (frozenset(),) * n,
    )
    assert validate_dtd(d, chain) == (True, 0, None)
    with recursion_headroom(100):
        tree = dtd_to_pmd(d, tag, chain)
        assert count_pm_decomp(host, tree) == 1
    tree.validate(host.vertices)
    # each level adds a join above its child's subtree and its bag's leaf
    assert tree.m == 4 * n - 1
