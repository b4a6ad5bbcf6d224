import random

import pytest

from matchwidth.bigraph import graph_from_edges, induced_subgraph, some_perfect_matching
from matchwidth.counting import CountStats, count_pm, count_pm_bruteforce, count_pm_decomp
from matchwidth.decomp import LeafTree, _TreeBuilder, compute_pmd, matchings_in, pmw_exact_small
from matchwidth.direction import elementary_parts
from matchwidth.errors import OracleLimitExceeded
from matchwidth.grids import cylindrical_grid, square_grid, square_grid_coords

from common import (
    complete_bipartite,
    even_cycle,
    k2,
    path_graph,
    random_bipartite_with_pm,
    recursion_headroom,
    sibling_leaf_caterpillar,
)


def domino_tilings(rows: int, cols: int) -> int:
    """Independent recomputation: broken-profile DP over grid cells."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(cell: int, profile: int) -> int:
        if cell == rows * cols:
            return 1 if profile == 0 else 0
        r, c = divmod(cell, cols)
        if profile & 1:
            return rec(cell + 1, profile >> 1)
        total = 0
        # vertical domino down
        if r + 1 < rows:
            total += rec(cell + 1, (profile >> 1) | (1 << (cols - 1)))
        # horizontal domino right
        if c + 1 < cols and not (profile >> 1) & 1:
            total += rec(cell + 2, profile >> 2 if cols >= 2 else 0)
        return total

    if rows * cols % 2:
        return 0
    return rec(0, 0)


def row_major_caterpillar(rows: int, cols: int) -> tuple:
    """The rows x cols grid and a caterpillar over its vertices in row-major order."""
    ids = square_grid_coords(rows, cols)
    order = [ids[r, c] for r in range(1, rows + 1) for c in range(1, cols + 1)]
    tb = _TreeBuilder()
    root, leaves = tb.caterpillar(order)
    return square_grid(rows, cols), LeafTree(tuple(map(frozenset, tb.adj)), leaves, root)


def random_leaf_tree(rng: random.Random, ground, root_degree: int) -> LeafTree:
    """Random leaf tree over `ground`: random pairs of parts join under new
    nodes until `root_degree` parts are left, which the root joins."""
    tb = _TreeBuilder()
    leaf_map = {}
    parts = []
    for v in ground:
        x = tb.node()
        leaf_map[x] = v
        parts.append(x)
    while len(parts) > root_degree:
        x = tb.node()
        for _ in range(2):
            tb.link(x, parts.pop(rng.randrange(len(parts))))
        parts.append(x)
    root = tb.node()
    for x in parts:
        tb.link(root, x)
    return LeafTree(tuple(map(frozenset, tb.adj)), leaf_map, root)


def unpruned_count_pm_decomp(g, dec, stats=None):
    """The decomposition DP before colour balance pruned it: every entry
    sums over all middle matchings that avoid S, zero terms included."""
    dec.validate(g.vertices)
    if stats is None:
        stats = CountStats()
    if dec.m == 1:
        return 1 if g.n == 0 else 0
    view = dec.binarised()
    root, kids = view.root, view.kids
    uncounted = (root, dec.m)
    below = view.below_masks()
    edges = sorted(g.edges)
    ends = [1 << u | 1 << v for u, v in edges]
    cut = view.cut_masks(edges)
    mids = {}
    for x, ys in enumerate(kids):
        if ys:
            b1 = below[ys[0]]
            ws = matchings_in(cut[ys[0]] & cut[ys[1]], ends, g.n // 2)
            mids[x] = [(w, w & b1, w & ~b1) for _, w in ws]
    memo = [{} for _ in kids]

    def entry(t, s):
        t1, t2 = kids[t]
        memo1, memo2 = memo[t1], memo[t2]
        s1 = s & below[t1]
        s2 = s ^ s1
        ws = [w for w in mids[t] if not w[0] & s]
        if t not in uncounted:
            stats.table_entries += 1
            stats.boundary_sets += len(ws)
        total = 0
        for _, w1, w2 in ws:
            left = memo1.get(s1 | w1)
            if left is None:
                yield t1, s1 | w1
                left = memo1[s1 | w1]
            if left:
                right = memo2.get(s2 | w2)
                if right is None:
                    yield t2, s2 | w2
                    right = memo2[s2 | w2]
                total += left * right
        memo[t][s] = total

    stack = [entry(root, 0)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif child[0] in dec.leaf_map:
            t, s = child
            memo[t][s] = 1 if s else 0
            stats.table_entries += 1
        else:
            stack.append(entry(*child))
    return memo[root][0]


def assert_pruning_is_exact(g, tree) -> int:
    """Both DPs give the same count, and the pruned one visits no more
    entries; returns the count."""
    new, old = CountStats(), CountStats()
    got = count_pm_decomp(g, tree, stats=new)
    assert got == unpruned_count_pm_decomp(g, tree, stats=old)
    assert new.table_entries <= old.table_entries
    assert new.boundary_sets <= old.boundary_sets
    return got


def test_balanced_entries_agree_with_the_unpruned_dp():
    rng = random.Random(37)
    for _ in range(60):
        n1 = rng.randint(1, 7)
        b = random_bipartite_with_pm(rng, n1, rng.randint(0, 2 * n1))
        expected = count_pm_bruteforce(b)
        tree = compute_pmd(b, some_perfect_matching(b))
        assert assert_pruning_is_exact(b, tree) == expected
        for root_degree in (2, 3):
            tree = random_leaf_tree(rng, b.vertices, root_degree)
            assert assert_pruning_is_exact(b, tree) == expected
    # unbalanced colour classes, and balanced ones without a perfect matching
    unbalanced = no_pm = 0
    for _ in range(200):
        n1 = rng.randint(1, 6)
        n2 = n1 + rng.choice((-2, -1, 0, 0, 1, 2))
        if n2 < 1 or n1 + n2 < 2:
            continue
        p = rng.random()
        edges = [(u, n1 + v) for u in range(1, n1 + 1) for v in range(1, n2 + 1) if rng.random() < p]
        b = graph_from_edges(n1, n2, edges)
        if n1 == n2 and some_perfect_matching(b) is not None:
            continue
        unbalanced += n1 != n2
        no_pm += n1 == n2
        tree = random_leaf_tree(rng, b.vertices, rng.choice((2, 3)))
        assert assert_pruning_is_exact(b, tree) == 0
    assert unbalanced >= 50 and no_pm >= 20
    two_leaves = LeafTree((frozenset({1}), frozenset({0})), {0: 1, 1: 2})
    assert assert_pruning_is_exact(k2(), two_leaves) == 1
    assert assert_pruning_is_exact(graph_from_edges(1, 1, []), two_leaves) == 0


def test_bruteforce_counts():
    assert count_pm_bruteforce(even_cycle(2)) == 2
    assert count_pm_bruteforce(even_cycle(9)) == 2
    assert count_pm_bruteforce(complete_bipartite(3, 3)) == 6
    assert count_pm_bruteforce(k2()) == 1
    assert count_pm_bruteforce(path_graph(3)) == 1


def test_bruteforce_limit():
    with pytest.raises(OracleLimitExceeded):
        count_pm_bruteforce(complete_bipartite(12, 12))


def test_grid_counts_match_domino_dp():
    for rows, cols in ((2, 2), (2, 3), (2, 4), (4, 4), (3, 4)):
        g = square_grid(rows, cols)
        assert count_pm_bruteforce(g) == domino_tilings(rows, cols)
    assert domino_tilings(4, 4) == 36


def test_decomp_count_small():
    for b in (even_cycle(2), even_cycle(3), even_cycle(4), complete_bipartite(3, 3)):
        _, dec = pmw_exact_small(b)
        assert count_pm_decomp(b, dec) == count_pm_bruteforce(b)


def test_decomp_count_via_pipeline():
    for b in (even_cycle(2), even_cycle(3), complete_bipartite(3, 3), square_grid(2, 4)):
        assert count_pm(b) == count_pm_bruteforce(b)


def test_count_pm_random_graphs_with_and_without_perfect_matching():
    # uniform random bipartite graphs, a quarter of them with unbalanced
    # colour classes: many have no perfect matching, and count 0
    rng = random.Random(29)
    zeros = 0
    for _ in range(300):
        n1 = rng.randint(0, 6)
        n2 = n1 if rng.random() < 0.75 else max(0, n1 + rng.choice((-1, 1)))
        p = rng.random()
        edges = [(u, n1 + v) for u in range(1, n1 + 1) for v in range(1, n2 + 1) if rng.random() < p]
        b = graph_from_edges(n1, n2, edges)
        expected = count_pm_bruteforce(b)
        assert count_pm(b) == expected
        zeros += expected == 0
    assert 50 <= zeros <= 250


def test_count_pm_is_the_product_over_elementary_components():
    # planted graphs with few extra edges split into several elementary
    # components, some of them K2
    rng = random.Random(31)
    split = 0
    for _ in range(80):
        n1 = rng.randint(3, 6)
        b = random_bipartite_with_pm(rng, n1, rng.randint(2, 2 * n1))
        parts = elementary_parts(b, some_perfect_matching(b))
        if len(parts) < 2 or all(len(p) == 2 for p in parts):
            continue
        split += 1
        product = 1
        for part in parts:
            product *= count_pm_bruteforce(induced_subgraph(b, part)[0])
        assert count_pm(b) == count_pm_bruteforce(b) == product
    assert split >= 30


def test_decomp_count_random_agreement():
    rng = random.Random(19)
    for _ in range(40):
        b = random_bipartite_with_pm(rng, rng.randint(1, 5), rng.randint(0, 9))
        tree = compute_pmd(b, some_perfect_matching(b))
        assert count_pm_decomp(b, tree) == count_pm_bruteforce(b)


def test_decomp_count_random_agreement_larger():
    rng = random.Random(23)
    for n1 in range(6, 12):
        for _ in range(4):
            b = random_bipartite_with_pm(rng, n1, rng.randint(n1, 2 * n1))
            expected = count_pm_bruteforce(b)
            tree = compute_pmd(b, some_perfect_matching(b))
            assert count_pm_decomp(b, tree) == expected
            for root_degree in (2, 3):
                tree = random_leaf_tree(rng, b.vertices, root_degree)
                assert count_pm_decomp(b, tree) == expected


def test_row_major_caterpillars():
    # the 1000 x 2 ladder's spine is 2000 leaves deep; ladders count Fibonacci
    g, tree = row_major_caterpillar(1000, 2)
    a, b = 0, 1
    for _ in range(1001):
        a, b = b, a + b
    assert count_pm_decomp(g, tree) == a
    # frozen regression constants: table sizes of the 8 x 8 grid's caterpillar
    g, tree = row_major_caterpillar(8, 8)
    stats = CountStats()
    assert count_pm_decomp(g, tree, stats=stats) == domino_tilings(8, 8) == 12988816
    assert (stats.table_entries, stats.boundary_sets) == (3422, 4168)


def test_count_on_a_deep_tree():
    # the 2 x 600 ladder's caterpillar of matching edges is about 600 levels
    # deep, and the walk counts it within 100 frames of headroom
    g = square_grid(600, 2)
    tree = sibling_leaf_caterpillar(g, some_perfect_matching(g))
    a, b = 0, 1
    for _ in range(601):
        a, b = b, a + b
    with recursion_headroom(100):
        assert count_pm_decomp(g, tree) == a  # Fibonacci F(601), F(1) = F(2) = 1


def test_decomp_count_two_leaf_tree():
    # the DP walks the two leaves under the virtual root
    tree = LeafTree((frozenset({1}), frozenset({0})), {0: 1, 1: 2})
    assert count_pm_decomp(k2(), tree) == 1
    assert count_pm_decomp(graph_from_edges(1, 1, []), tree) == 0


def test_count_invariant_across_decompositions():
    b = even_cycle(3)
    _, d1 = pmw_exact_small(b)
    d2 = compute_pmd(b, some_perfect_matching(b))
    assert count_pm_decomp(b, d1) == count_pm_decomp(b, d2)


def test_count_pm_reads_no_width_or_niceness(monkeypatch):
    # counting needs only a valid tree: with the niceness certificate and
    # every width search made to raise, count_pm still counts exactly
    import matchwidth.decomp as decomp
    import matchwidth.porosity as porosity
    from corpus import connected_pm_bipartite

    def refuse(*args):
        raise AssertionError("pm count computed a width or a niceness verdict")

    for module, name in (
        (decomp, "nice_pmd_check"),
        (decomp, "cut_width"),
        (decomp, "matching_porosity"),
        (porosity, "matching_porosity"),
    ):
        monkeypatch.setattr(module, name, refuse)
    graphs = [b for n in range(1, 5) for b in connected_pm_bipartite(n)]
    assert len(graphs) == 94
    graphs += [square_grid(3, 4), cylindrical_grid(2)[0]]
    for b in graphs:
        assert count_pm(b) == count_pm_bruteforce(b)


def test_cg2_count_frozen():
    b, _, _ = cylindrical_grid(2)
    value = count_pm_bruteforce(b)
    # frozen regression constant: permanent DP and full enumeration both give 9
    from matchwidth.bigraph import enumerate_perfect_matchings

    assert len(enumerate_perfect_matchings(b)) == value == 9
    assert count_pm(b) == 9


def test_stats_envelope():
    b = even_cycle(4)
    w, dec = pmw_exact_small(b)
    stats = CountStats()
    count_pm_decomp(b, dec, stats=stats)
    n = b.n
    envelope = n ** (4 * w + 1)
    assert stats.table_entries <= envelope
    assert stats.boundary_sets <= envelope
