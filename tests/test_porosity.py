import hashlib
import json
import random

import pytest

import matchwidth.porosity as por
from matchwidth.bigraph import (
    check_matching,
    enumerate_perfect_matchings,
    graph_from_edges,
    is_perfect,
    some_perfect_matching,
)
from matchwidth.digraph import (
    digraph_from_arcs,
    simple_directed_cycles,
    vertex_mask,
)
from matchwidth.direction import m_direction, split
import matchwidth.direction as direction_module
from matchwidth.errors import NoPerfectMatching, NotPerfect
from matchwidth.grids import cylindrical_grid, square_grid
from matchwidth.porosity import (
    DMStructure,
    cycle_porosity,
    directed_cycle_hitting_set,
    dm_order,
    elementary_components,
    guarding_set,
    linearise_dm,
    matching_porosity,
    matching_porosity_bound,
    matching_porosity_bruteforce,
    verify_guard,
    verify_guard_bruteforce,
)

from common import (
    canonical_cycle_matching,
    complete_bipartite,
    directed_cycle,
    even_cycle,
    path_graph,
    random_bipartite_with_pm,
    random_digraph,
)


def test_porosity_examples():
    c4 = even_cycle(2)
    # shore = endpoints of one matching edge
    assert matching_porosity(c4, vertex_mask([1, 3])) == 2
    assert matching_porosity(c4, 0) == 0
    c8 = even_cycle(4)
    # four consecutive cycle vertices a1, b1, a2, b2
    assert matching_porosity(c8, vertex_mask([1, 5, 2, 6])) == 2


def test_porosity_matches_bruteforce_random():
    rng = random.Random(7)
    for _ in range(120):
        n1 = rng.randint(1, 5)
        b = random_bipartite_with_pm(rng, n1, rng.randint(0, 8))
        shore = frozenset(v for v in b.vertices if rng.random() < 0.5)
        assert matching_porosity(b, vertex_mask(shore)) == matching_porosity_bruteforce(b, shore)


def ssp_witness(b, shore):
    """The successive-shortest-path route's maximising perfect matching, or
    None when b has none."""
    n = b.n1
    rows = sorted(b.v1)
    cols = sorted(b.v2)
    cidx = {v: j for j, v in enumerate(cols)}
    as_cost: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in b.edges:
        crossing = (u in shore) != (v in shore)
        as_cost[u - 1].append((cidx[v], 0 if crossing else 1))
    mate = por._min_cost_pm_ssp(n, as_cost)
    if mate is None:
        return None
    return frozenset((rows[i], cols[mate[i]]) for i in range(n))


def crossing(m, shore):
    return sum(1 for u, v in m if (u in shore) != (v in shore))


def test_porosity_bound_covers_bruteforce():
    rng = random.Random(17)
    tight = 0
    for _ in range(300):
        n1 = rng.randint(1, 7)
        b = random_bipartite_with_pm(rng, n1, rng.randint(0, n1 * (n1 - 1)))
        shore = frozenset(v for v in b.vertices if rng.random() < 0.5)
        exact = matching_porosity_bruteforce(b, shore)
        bound = matching_porosity_bound(b, vertex_mask(shore))
        assert bound >= exact
        tight += bound == exact
    assert tight >= 100


def test_porosity_ssp_route_matches_subset_route():
    rng = random.Random(11)
    for _ in range(40):
        b = random_bipartite_with_pm(rng, rng.randint(2, 5), rng.randint(0, 7))
        shore = frozenset(v for v in b.vertices if rng.random() < 0.5)
        expect = matching_porosity_bruteforce(b, shore)
        mate = ssp_witness(b, shore)
        assert mate is not None
        assert crossing(mate, shore) == expect


def shuffled_columns(rng, b):
    cols = sorted(b.v2)
    perm = cols[:]
    rng.shuffle(perm)
    relabel = dict(zip(cols, perm))
    return graph_from_edges(b.n1, b.n2, [(u, relabel[v]) for u, v in b.edges])


def relabelled(rng, b):
    """b with its V1 labels and its V2 labels each shuffled."""
    perm = {}
    for side in (list(b.v1), list(b.v2)):
        shuffled = side[:]
        rng.shuffle(shuffled)
        perm.update(zip(side, shuffled))
    return graph_from_edges(b.n1, b.n2, [(perm[u], perm[v]) for u, v in b.edges])


def greedy_rows(b):
    """V1 ordered so that each next row adds the fewest unseen columns,
    ties to the lowest row: what `dp_rows` promises."""
    order, seen, left = [], set(), sorted(b.v1)
    while left:
        u = min(left, key=lambda x: (len(b.adj[x] - seen), x))
        left.remove(u)
        order.append(u)
        seen |= b.adj[u]
    return tuple(order)


def dp_value(b, shore, rows):
    """The subset DP's porosity with V1 taken in the order rows."""
    ((_, k),) = list(por._max_crossing_layers(b, shore, rows))[-1].items()
    return k


def test_porosity_witness_on_both_routes():
    rng = random.Random(23)
    for n1 in range(6, 15):
        for extra in (n1 // 2, n1, 2 * n1, 3 * n1):
            b = shuffled_columns(rng, random_bipartite_with_pm(rng, n1, extra))
            shore = frozenset(v for v in b.vertices if rng.random() < 0.5)
            k, m = por._porosity_with_witness(b, vertex_mask(shore))
            assert check_matching(b, m) == m and is_perfect(b, m)
            assert crossing(m, shore) == k
            other = ssp_witness(b, shore)
            assert is_perfect(b, other) and crossing(other, shore) == k
            if n1 <= 7:
                assert k == matching_porosity_bruteforce(b, shore)
        # rows 1 and 2 see only the first column: no mask of two columns is
        # reachable, however well the later rows are matched; nor is a
        # column that no row sees; wherever the labels put them, in the
        # `dp_rows` order and in label order
        rest = [(i, n1 + j) for i in range(3, n1 + 1) for j in range(1, n1 + 1)]
        starved = graph_from_edges(n1, n1, [(1, n1 + 1), (2, n1 + 1)] + rest)
        lonely = graph_from_edges(n1, n1, [(i, n1 + j) for i in range(1, n1 + 1) for j in range(2, n1 + 1)])
        shuffle = random.Random(n1)
        for b in (starved, lonely, relabelled(shuffle, starved), relabelled(shuffle, lonely)):
            for rows in (b.dp_rows, b.v1):
                with pytest.raises(NoPerfectMatching):
                    dp_value(b, vertex_mask(range(1, n1 + 1)), rows)
            with pytest.raises(NoPerfectMatching):
                por._porosity_with_witness(b, vertex_mask(range(1, n1 + 1)))
            with pytest.raises(NoPerfectMatching):
                matching_porosity(b, vertex_mask(range(1, n1 + 1)))
        assert ssp_witness(starved, frozenset()) is None


def test_subset_dp_on_relabelled_graphs():
    # shuffled ladders and grids, whose `dp_rows` differ from 1..n1, and
    # random planted graphs: the subset DP against brute force where the
    # perfect matchings are few enough, and against the SSP route always
    rng = random.Random(3302)
    graphs = [square_grid(2, k) for k in range(2, 15)]
    graphs += [square_grid(3, k) for k in (2, 4, 6, 8)]
    graphs += [square_grid(4, k) for k in (3, 4, 5, 6)]
    graphs += [cylindrical_grid(2)[0]]
    graphs += [random_bipartite_with_pm(rng, n1, rng.randint(0, 2 * n1)) for n1 in range(1, 13) for _ in range(3)]
    reordered = 0
    for b in [relabelled(rng, b) for b in graphs for _ in range(2)]:
        assert sorted(b.dp_rows) == list(b.v1)
        assert b.dp_rows == greedy_rows(b)
        reordered += b.dp_rows != tuple(b.v1)
        pms = len(enumerate_perfect_matchings(b)) if b.n1 <= 8 else None
        for _ in range(4):
            shore = frozenset(v for v in b.vertices if rng.random() < 0.5)
            k, m = por._porosity_with_witness(b, vertex_mask(shore))
            assert matching_porosity(b, vertex_mask(shore)) == k
            assert check_matching(b, m) == m and is_perfect(b, m)
            assert crossing(m, shore) == k
            assert crossing(ssp_witness(b, shore), shore) == k
            if pms is not None and pms <= 400:
                assert k == matching_porosity_bruteforce(b, shore)
            # any row order gives the same value
            rows = list(b.v1)
            rng.shuffle(rows)
            assert dp_value(b, vertex_mask(shore), rows) == k
    assert reordered >= 60


def test_porosity_requires_pm():
    star = graph_from_edges(1, 3, [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(NoPerfectMatching):
        matching_porosity(star, vertex_mask([1]))


def test_cycle_porosity_examples():
    two_cycle = digraph_from_arcs(2, [(1, 2), (2, 1)])
    assert cycle_porosity(two_cycle, [1]) == 2
    dag = digraph_from_arcs(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert cycle_porosity(dag, [1, 2]) == 0
    c4 = directed_cycle(4)
    assert cycle_porosity(c4, [1, 2]) == 2


def test_elementary_components():
    assert len(elementary_components(even_cycle(3)).components) == 1
    p4 = path_graph(3)
    comps = elementary_components(p4).components
    assert set(comps) == {frozenset({1, 3}), frozenset({2, 4})}
    two_c4 = graph_from_edges(
        4, 4, [(1, 5), (1, 6), (2, 5), (2, 6), (3, 7), (3, 8), (4, 7), (4, 8)]
    )
    assert len(elementary_components(two_c4).components) == 2


def test_dm_order_p4():
    p4 = path_graph(3)
    s = dm_order(p4, 2)
    i_a = s.components.index(frozenset({1, 3}))  # a1, b1
    i_b = s.components.index(frozenset({2, 4}))  # a2, b2
    assert (i_b, i_a) in s.order
    assert (i_a, i_b) not in s.order
    # duality: <=_1 is the reverse of <=_2
    s1 = dm_order(p4, 1)
    assert (i_a, i_b) in s1.order and (i_b, i_a) not in s1.order


def test_dm_order_chain():
    p6 = path_graph(5)
    s = dm_order(p6, 2)
    assert len(s.components) == 3
    order = linearise_dm(s)
    assert len(order) == 3
    # the chain is total: all pairs comparable
    comparable = sum(
        1
        for i in range(3)
        for j in range(3)
        if i != j and ((i, j) in s.order or (j, i) in s.order)
    )
    assert comparable == 6


def test_dm_order_trivial_when_matching_covered():
    s = dm_order(even_cycle(3), 2)
    assert len(s.components) == 1


def test_dm_order_is_reachability_between_components():
    # <=_2 is reachability between the strong components of an M-direction,
    # for any perfect matching M, and <=_1 its reverse; so it is a partial
    # order
    rng = random.Random(83)
    strict = 0
    for _ in range(300):
        n1 = rng.randint(1, 7)
        b = random_bipartite_with_pm(rng, n1, rng.randint(0, n1 + 2))
        d, tag = m_direction(b, rng.choice(enumerate_perfect_matchings(b)))
        comps = dm_order(b, 2).components
        comp_of = {x: next(i for i, c in enumerate(comps) if tag[x][0] in c) for x in d.vertices}
        reach = set()
        for x in d.vertices:
            seen, todo = {x}, [x]
            while todo:
                for y in d.out_adj[todo.pop()]:
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            reach |= {(comp_of[x], comp_of[y]) for y in seen}
        assert dm_order(b, 2) == DMStructure(comps, frozenset(reach))
        assert dm_order(b, 1) == DMStructure(comps, frozenset((j, i) for i, j in reach))
        assert not any(i != j and (j, i) in reach for i, j in reach)
        strict += len(reach) - len(comps)
    assert strict


def test_guard_examples():
    c4 = even_cycle(2)
    m = canonical_cycle_matching(2)
    g = guarding_set(c4, m, [1, 3])
    assert 1 <= len(g) <= 8
    assert verify_guard(c4, m, [1, 3], g.edges)
    assert not verify_guard(c4, m, [1, 3], [])
    # empty cut: empty guard suffices
    g2 = guarding_set(c4, m, [])
    assert verify_guard(c4, m, [], g2.edges)
    c8 = even_cycle(4)
    m8 = canonical_cycle_matching(4)
    g3 = guarding_set(c8, m8, [1, 5, 2, 6])
    assert verify_guard(c8, m8, [1, 5, 2, 6], g3.edges)
    assert len(g3) <= 8


def test_guarding_set_pinned():
    # a digest of (porosity, guard) over a seeded sample, recorded from the
    # label-order subset DP over column indices; the guard rests on the DP's
    # maximising matching, which must not change with the DP's row order
    rng = random.Random(3301)
    sha = hashlib.sha256()
    for _ in range(300):
        n1 = rng.randint(2, 8)
        b = random_bipartite_with_pm(rng, n1, rng.randint(0, 3 * n1))
        m = some_perfect_matching(b)
        shore = frozenset(v for v in b.vertices if rng.random() < 0.5)
        g = guarding_set(b, m, shore)
        sha.update(json.dumps([g.porosity, sorted(g.edges)]).encode())
    assert sha.hexdigest()[:16] == "7efde67974edea65"


def low_half(b):
    """The shore of the first half of V1 and the first half of V2."""
    h = b.n1 // 2
    return frozenset(range(1, h + 1)) | frozenset(range(b.n1 + 1, b.n1 + h + 1))


def test_guard_outputs_and_verdicts_pinned():
    # a digest of (porosity, guard) and of `verify_guard` on the guard, on
    # the guard less each edge, on random parts of m and on m itself, over
    # seeded (graph, matching, shore) triples, CG_3 and the 6 x 6 grid;
    # recorded when each crossing-cycle test built its own M-direction
    rng = random.Random(3803)
    cases = []
    for _ in range(300):
        n1 = rng.randint(1, 8)
        b = random_bipartite_with_pm(rng, n1, rng.randint(0, 3 * n1))
        if n1 <= 5:
            pms = enumerate_perfect_matchings(b)
            m = pms[rng.randrange(len(pms))]
        else:
            m = some_perfect_matching(b)
        p = rng.random()
        cases.append((b, m, frozenset(v for v in b.vertices if rng.random() < p)))
    for b in (cylindrical_grid(3)[0], square_grid(6, 6)):
        m = some_perfect_matching(b)
        cases += [(b, m, low_half(b)), (b, m, frozenset(v for v in b.vertices if rng.random() < 0.5))]
    sha = hashlib.sha256()
    for b, m, shore in cases:
        g = guarding_set(b, m, shore)
        edges = sorted(g.edges)
        tries = [edges] + [edges[:i] + edges[i + 1 :] for i in range(len(edges))]
        tries += [[e for e in sorted(m) if rng.random() < 0.5] for _ in range(2)] + [sorted(m)]
        verdicts = [verify_guard(b, m, shore, f) for f in tries]
        sha.update(json.dumps([g.porosity, edges, verdicts]).encode())
    assert sha.hexdigest()[:16] == "cd2a2108d9f9d51e"


def test_guarding_set_builds_at_most_three_m_directions(monkeypatch):
    # one for m on b, one for m less the crossing edges, and one for the
    # elementary components of what the cover of a maximising matching
    # leaves; `verify_guard` builds one
    b = cylindrical_grid(3)[0]
    m = some_perfect_matching(b)
    shore = low_half(b)
    assert shore == frozenset(range(1, 10)) | frozenset(range(19, 28))
    built = []

    def counted(*args):
        built.append(args)
        return m_direction(*args)

    monkeypatch.setattr(por, "m_direction", counted)
    monkeypatch.setattr(direction_module, "m_direction", counted)
    g = guarding_set(b, m, shore)
    assert len(built) <= 3
    built.clear()
    assert verify_guard(b, m, shore, g.edges)
    assert len(built) == 1


def test_guarding_set_cuts_a_dangerous_prefix():
    # the lambda order here has a prefix, ending at its fourth component,
    # with a crossing conformal cycle, so the construction cuts it off with
    # a pair of lambda-cuts before the greedy reduction
    b = graph_from_edges(
        6,
        6,
        [(1, 7), (1, 8), (1, 9), (2, 7), (2, 8), (2, 10), (3, 8), (3, 11), (4, 7), (4, 12)]
        + [(5, 9), (5, 11), (6, 10), (6, 12)],
    )
    m = frozenset({(1, 7), (2, 8), (3, 11), (4, 12), (5, 9), (6, 10)})
    shore = frozenset({1, 4, 5, 7, 9, 12})
    g = guarding_set(b, m, shore)
    assert verify_guard(b, m, shore, g.edges)
    assert verify_guard_bruteforce(b, m, shore, g.edges)
    assert len(g) <= 2 * g.porosity + g.porosity**2
    assert (g.porosity, g.edges) == (2, frozenset({(1, 7)}))


def test_guard_saturated_cut_case():
    # |M ∩ cut| = porosity: the crossing matching edges alone are a guard
    c6 = even_cycle(3)
    m = canonical_cycle_matching(3)
    shore = frozenset({1, 4, 5})  # a1, b1 and one more white vertex
    k = matching_porosity(c6, vertex_mask(shore))
    crossing = frozenset(e for e in m if (e[0] in shore) != (e[1] in shore))
    if len(crossing) == k:
        assert verify_guard(c6, m, shore, crossing)


def test_verify_guard_agrees_with_bruteforce():
    rng = random.Random(3)
    for _ in range(150):
        n1 = rng.randint(2, 5)
        b = random_bipartite_with_pm(rng, n1, rng.randint(0, 9))
        pms = enumerate_perfect_matchings(b)
        m = pms[rng.randrange(len(pms))]
        shore = frozenset(v for v in b.vertices if rng.random() < 0.5)
        cand = frozenset(e for e in m if rng.random() < 0.4) | frozenset(
            e for e in m if (e[0] in shore) != (e[1] in shore)
        )
        assert verify_guard(b, m, shore, cand) == verify_guard_bruteforce(
            b, m, shore, cand
        )


def test_guarding_set_bound_and_soundness_random():
    rng = random.Random(17)
    for _ in range(150):
        n1 = rng.randint(2, 6)
        b = random_bipartite_with_pm(rng, n1, rng.randint(0, 2 * n1))
        pms = enumerate_perfect_matchings(b)
        m = pms[rng.randrange(len(pms))]
        shore = frozenset(v for v in b.vertices if rng.random() < 0.5)
        g = guarding_set(b, m, shore)
        k = g.porosity
        assert len(g) <= 2 * k + k * k
        assert verify_guard(b, m, shore, g.edges)
        assert verify_guard_bruteforce(b, m, shore, g.edges)


def test_guard_separation_property():
    # after deleting the guard, no elementary component straddles the cut
    rng = random.Random(23)
    for _ in range(60):
        b = random_bipartite_with_pm(rng, rng.randint(2, 5), rng.randint(0, 8))
        pms = enumerate_perfect_matchings(b)
        m = pms[rng.randrange(len(pms))]
        shore = frozenset(v for v in b.vertices if rng.random() < 0.5)
        g = guarding_set(b, m, shore)
        removed = {x for e in g.edges for x in e}
        keep = frozenset(b.vertices) - removed
        if not keep:
            continue
        from matchwidth.bigraph import induced_subgraph

        sub, fwd, back = induced_subgraph(b, keep)
        if sub.n1 != sub.n2 or not enumerate_perfect_matchings(sub):
            continue
        for comp in elementary_components(sub).components:
            orig = {back[v] for v in comp}
            inside = orig & shore
            assert not inside or inside == orig


def test_obs_porosity_equality():
    # matching porosity of a conformal shore equals cycle porosity of its image
    rng = random.Random(31)
    for _ in range(80):
        b = random_bipartite_with_pm(rng, rng.randint(2, 5), rng.randint(0, 8))
        pms = enumerate_perfect_matchings(b)
        m = pms[rng.randrange(len(pms))]
        d, tag = m_direction(b, m)
        inv = {e: v for v, e in tag.items()}
        chosen = frozenset(e for e in m if rng.random() < 0.5)
        shore = frozenset(x for e in chosen for x in e)
        image = frozenset(inv[e] for e in chosen)
        assert matching_porosity(b, vertex_mask(shore)) == cycle_porosity(d, image)


def test_hitting_set_examples():
    two_cycle = digraph_from_arcs(2, [(1, 2), (2, 1)])
    s = directed_cycle_hitting_set(two_cycle, [1])
    assert len(s) == 1
    dag = digraph_from_arcs(4, [(1, 2), (2, 3), (1, 3)])
    assert directed_cycle_hitting_set(dag, [1, 2]) == frozenset()
    two_triangles = digraph_from_arcs(
        6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]
    )
    assert directed_cycle_hitting_set(two_triangles, [1, 2, 3]) == frozenset()


def test_hitting_set_random():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(2, 7)
        d = random_digraph(rng, n, rng.uniform(0.1, 0.6))
        shore = frozenset(v for v in d.vertices if rng.random() < 0.5)
        k = cycle_porosity(d, shore)
        s = directed_cycle_hitting_set(d, shore)
        assert len(s) <= k * k + 2 * k
        # cross-check with explicit cycle enumeration
        for cyc in simple_directed_cycles(d):
            crosses = any(
                (cyc[i] in shore) != (cyc[(i + 1) % len(cyc)] in shore)
                for i in range(len(cyc))
            )
            if crosses:
                assert set(cyc) & set(s)


def test_porosity_matches_linear_sum_assignment():
    # crossing edges weigh 1, the others 0, and non-edges are forbidden; n1
    # above 14 takes the successive-shortest-path route
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(37)
    for n1 in [rng.randint(1, 8) for _ in range(80)] + [15, 16, 17, 18]:
        b = random_bipartite_with_pm(rng, n1, rng.randint(0, 3 * n1))
        if rng.random() < 0.2:
            drop = rng.choice(sorted(b.edges))
            b = graph_from_edges(n1, n1, b.edges - {drop})
        shore = frozenset(v for v in b.vertices if rng.random() < 0.5)
        cost = np.full((n1, n1), np.inf)
        for u, v in b.edges:
            cost[u - 1, v - n1 - 1] = -1.0 if (u in shore) != (v in shore) else 0.0
        try:
            rows, cols = optimize.linear_sum_assignment(cost)
        except ValueError:  # no perfect matching
            with pytest.raises(NoPerfectMatching):
                matching_porosity(b, vertex_mask(shore))
            continue
        assert matching_porosity(b, vertex_mask(shore)) == -int(cost[rows, cols].sum())


def test_verify_guard_and_its_oracle_agree_on_bad_input():
    # both refuse a matching that is not perfect, and both say no to a guard
    # with an edge outside m or one that misses a crossing matching edge
    c4 = even_cycle(2)
    for check in (verify_guard, verify_guard_bruteforce):
        with pytest.raises(NotPerfect):
            check(c4, {(1, 3)}, [1], [(1, 3)])
        m = {(1, 3), (2, 4)}
        assert not check(c4, m, [1], [(1, 3), (1, 4)])
        assert not check(c4, m, [1], [])
