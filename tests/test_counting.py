import random

import pytest

from matchwidth.bigraph import graph_from_edges, induced_subgraph, some_perfect_matching
from matchwidth.counting import CountStats, count_pm, count_pm_bruteforce, count_pm_decomp
from matchwidth.decomp import (
    LeafTree,
    _TreeBuilder,
    compute_pmd,
    direction_pmd,
    matchings_in,
    pmw_exact_small,
)
from matchwidth.direction import elementary_directions, elementary_parts, m_direction
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


def relabelled(rng: random.Random, b):
    """b with each colour class numbered in a random order."""
    v1, v2 = list(b.v1), list(b.v2)
    rng.shuffle(v1)
    rng.shuffle(v2)
    new = {**dict(zip(b.v1, v1)), **dict(zip(b.v2, v2))}
    return graph_from_edges(b.n1, b.n2, [(new[u], new[v]) for u, v in b.edges])


def chained_blocks(rng: random.Random, sizes: list[int]):
    """Planted blocks of the given sizes side by side, each with random
    extra edges, and a few edges from a block's V1 to a later block's V2:
    those go one way, so they lie in no perfect matching, and each block
    holds one or more elementary components."""
    n1 = sum(sizes)
    edges = []
    starts = []
    at = 0
    for k in sizes:
        block = random_bipartite_with_pm(rng, k, rng.randint(min(k, k * k - k), k * k - k))
        edges += [(at + u, n1 + at + v - k) for u, v in block.edges]
        starts.append(at)
        at += k
    for _ in range(rng.randint(1, 2 * len(sizes))):
        i, j = sorted(rng.sample(range(len(sizes)), 2))
        u = starts[i] + rng.randint(1, sizes[i])
        v = starts[j] + rng.randint(1, sizes[j])
        edges.append((u, n1 + v))
    return graph_from_edges(n1, n1, edges)


def test_component_directions_are_read_off_one_direction():
    # hosts of several elementary components, relabelled so that matching
    # edges do not pair V1 and V2 in the same order: each component that
    # count_pm counts has the graph `induced_subgraph` gives it, and the
    # digraph and tag of `m_direction` on m's edges there
    rng = random.Random(59)
    several = 0
    for _ in range(100):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        b = relabelled(rng, chained_blocks(rng, sizes))
        m = some_perfect_matching(b)
        parts = [part for part in elementary_parts(b, m) if len(part) > 2]
        got = list(elementary_directions(b, m))
        assert len(got) == len(parts)
        for part, (sub, d, tag) in zip(parts, got):
            want, fwd, _ = induced_subgraph(b, part)
            assert sub == want
            assert (d, tag) == m_direction(sub, frozenset((fwd[u], fwd[v]) for u, v in m if u in part))
        several += len(parts) > 1
        assert count_pm(b) == count_pm_bruteforce(b, limit=24)
    assert several >= 40


def test_a_one_component_host_is_its_own_component():
    # an elementary host is yielded itself, with the M-direction and tag
    # that m_direction gives it, whatever order its matching pairs V1 and
    # V2 in
    rng = random.Random(61)
    hosts = [even_cycle(2), even_cycle(5), cylindrical_grid(2)[0], complete_bipartite(3, 3)]
    while len(hosts) < 40:
        n1 = rng.randint(2, 6)
        b = relabelled(rng, random_bipartite_with_pm(rng, n1, rng.randint(n1, n1 * n1 - n1)))
        if len(elementary_parts(b, some_perfect_matching(b))) == 1:
            hosts.append(b)
    for b in hosts:
        m = some_perfect_matching(b)
        assert len(elementary_parts(b, m)) == 1
        ((sub, d, tag),) = elementary_directions(b, m)
        assert sub is b
        assert (d, tag) == m_direction(b, m)
        assert count_pm(b) == count_pm_bruteforce(b)


def spy_on_trees(monkeypatch):
    """Record every tree `count_pm` builds and every tree that
    `LeafTree.validate` checks."""
    import matchwidth.counting as counting

    built, checked = [], []
    real_validate, real_build = LeafTree.validate, counting.direction_pmd

    def validate(self, ground):
        checked.append(self)
        return real_validate(self, ground)

    def build(*args):
        built.append(real_build(*args))
        return built[-1]

    monkeypatch.setattr(LeafTree, "validate", validate)
    monkeypatch.setattr(counting, "direction_pmd", build)
    return built, checked


def test_count_pm_validates_each_component_tree_once(monkeypatch):
    # a C6 block on V1 {1, 2, 3}, a K_{2,2} block on {4, 5} and two K2s,
    # joined by edges from a block's V1 to a later block's V2, which lie in
    # no perfect matching; and hosts of one elementary component
    c6 = [(1, 8), (2, 9), (3, 10), (1, 9), (2, 10), (3, 8)]
    k22 = [(4, 11), (4, 12), (5, 11), (5, 12)]
    one_way = [(1, 11), (2, 14), (4, 13), (6, 14)]
    blocks = graph_from_edges(7, 7, c6 + k22 + [(6, 13), (7, 14)] + one_way)
    assert sorted(map(len, elementary_parts(blocks, some_perfect_matching(blocks)))) == [2, 2, 4, 6]
    built, checked = spy_on_trees(monkeypatch)
    for b, components in (
        (blocks, 2),
        (even_cycle(5), 1),
        (square_grid(3, 4), 1),
        (cylindrical_grid(2)[0], 1),
    ):
        built.clear()
        checked.clear()
        assert count_pm(b) == count_pm_bruteforce(b)
        assert len(built) == components
        assert [id(tree) for tree in checked] == [id(tree) for tree in built]


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
    # frozen regression constants: table sizes of the 8 x 8 grid's
    # caterpillar, whose bottom node joins two leaves and is settled as one
    # entry with no middle matchings
    g, tree = row_major_caterpillar(8, 8)
    stats = CountStats()
    assert count_pm_decomp(g, tree, stats=stats) == domino_tilings(8, 8) == 12988816
    assert (stats.table_entries, stats.boundary_sets) == (3420, 4166)


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


def test_settled_leaf_pairs_agree_with_bruteforce():
    # nodes whose two children are leaves are settled without a walk: random
    # trees over random graphs give such pairs that are an edge, that are
    # non-adjacent and that share a colour, some of them under the virtual
    # node of a degree-3 root
    rng = random.Random(47)
    kinds = {"edge": 0, "non-adjacent": 0, "same colour": 0, "virtual": 0}
    for _ in range(300):
        n1 = rng.randint(1, 5)
        n2 = max(0, n1 + rng.choice((-1, 0, 0, 0, 1)))
        if n1 + n2 < 3:
            continue
        p = rng.random()
        edges = [(u, n1 + v) for u in range(1, n1 + 1) for v in range(1, n2 + 1) if rng.random() < p]
        b = graph_from_edges(n1, n2, edges)
        tree = random_leaf_tree(rng, b.vertices, rng.choice((2, 3)))
        for x, ys in enumerate(tree.binarised().kids):
            if ys and all(y in tree.leaf_map for y in ys):
                u, v = sorted(tree.leaf_map[y] for y in ys)
                kind = "edge" if (u, v) in b.edges else "same colour" if (v <= n1) == (u <= n1) else "non-adjacent"
                kinds[kind] += 1
                kinds["virtual"] += x == tree.m
        assert count_pm_decomp(b, tree) == count_pm_bruteforce(b)
    assert min(kinds.values()) >= 10
    # C_6 under a degree-3 root with two leaf children, for pairs that are
    # an edge, non-adjacent or of one colour: the other four vertices hang
    # below node 1, the root's lowest neighbour and so its first child, and
    # the root's virtual node joins the two leaves
    g = even_cycle(3)
    for pair in ((1, 4), (1, 5), (1, 6), (1, 2), (4, 5)):
        rest = [v for v in g.vertices if v not in pair]
        pairs = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 6), (4, 7), (5, 8), (5, 9)]
        leaf_map = {2: pair[0], 3: pair[1], 6: rest[0], 7: rest[1], 8: rest[2], 9: rest[3]}
        adj = [set() for _ in range(10)]
        for x, y in pairs:
            adj[x].add(y)
            adj[y].add(x)
        tree = LeafTree(tuple(map(frozenset, adj)), leaf_map, root=0)
        view = tree.binarised()
        assert view.root == 0 and view.kids[view.kids[0][1]] in ((2, 3), (3, 2))
        assert count_pm_decomp(g, tree) == count_pm_bruteforce(g)
    # the two-node tree over an edge, a non-adjacent pair and one colour
    two_leaves = LeafTree((frozenset({1}), frozenset({0})), {0: 1, 1: 2})
    for n1, n2, edges, want in ((1, 1, [(1, 2)], 1), (1, 1, [], 0), (2, 0, [], 0)):
        assert count_pm_decomp(graph_from_edges(n1, n2, edges), two_leaves) == want


def test_count_pm_past_the_exact_search():
    # each of these graphs is one elementary component with an M-direction
    # of 18 to 300 vertices, past the exact search's 12
    assert count_pm(cylindrical_grid(3)[0]) == 169
    assert count_pm(cylindrical_grid(4)[0]) == 9826
    assert count_pm(square_grid(6, 6)) == domino_tilings(6, 6) == 6728
    assert count_pm(square_grid(8, 8)) == domino_tilings(8, 8) == 12988816
    # the 2 x k ladder has F(k + 1) perfect matchings (F(1) = F(2) = 1)
    fib = [0, 1]
    while len(fib) < 302:
        fib.append(fib[-1] + fib[-2])
    assert count_pm(square_grid(2, 300)) == fib[301]


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


# (n1, [(count, table_entries, boundary_sets)] per elementary component) of
# the hosts `pm_dense_shaped_hosts` draws, recorded from the DP that set up
# its middle matchings over sorted-edge cut masks
PINNED_DENSE_COMPONENT_COUNTS = [
    (10, [(91, 261, 337)]),
    (10, [(101, 202, 222)]),
    (11, [(32, 87, 85)]),
    (9, [(72, 106, 164)]),
    (11, [(124, 134, 146)]),
    (10, [(80, 108, 118)]),
    (9, [(62, 91, 100)]),
    (10, [(109, 193, 235)]),
    (9, [(64, 110, 140)]),
    (11, [(152, 121, 143)]),
    (10, [(75, 66, 61)]),
    (9, [(49, 126, 143)]),
]


def pm_dense_shaped_hosts():
    """Twelve relabelled planted hosts shaped like the `pm-dense`
    benchmark's: n1 = 9-11 with 2.5 n1 extra edges."""
    rng = random.Random(44)
    for _ in range(12):
        n1 = rng.randint(9, 11)
        yield n1, relabelled(rng, random_bipartite_with_pm(rng, n1, round(2.5 * n1)))


def test_component_tree_counts_and_table_sizes_are_pinned():
    # the count and the table sizes of the DP on each component's
    # `direction_pmd` tree, the trees `count_pm` builds
    got = []
    for n1, b in pm_dense_shaped_hosts():
        rows = []
        for sub, d, tag in elementary_directions(b, some_perfect_matching(b)):
            stats = CountStats()
            count = count_pm_decomp(sub, direction_pmd(d, tag), stats=stats)
            rows.append((count, stats.table_entries, stats.boundary_sets))
        got.append((n1, rows))
        product = 1
        for count, _, _ in rows:
            product *= count
        assert product == count_pm_bruteforce(b)
    assert got == PINNED_DENSE_COMPONENT_COUNTS
