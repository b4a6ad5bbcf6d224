import random

import pytest

from matchwidth.bigraph import admissible_edges, check_matching, graph_from_edges
from matchwidth.digraph import digraph_from_arcs
from matchwidth.direction import m_direction, split
from matchwidth.errors import NotContractible
from matchwidth.isomorphism import digraph_isomorphic
from matchwidth.minors import (
    MatchingMinorModel,
    antichain_member,
    butterfly_contract,
    butterfly_minor_bruteforce,
    find_model_bruteforce,
    is_strongly_planar,
    matching_minor_bruteforce,
    proper_butterfly_minors,
    residual_matching,
    validate_model,
)
from matchwidth.planarity import planarity_test

from common import (
    bidirected_clique,
    canonical_cycle_matching,
    complete_bipartite,
    cube,
    directed_cycle,
    even_cycle,
    k2,
    random_bipartite_with_pm,
)


def identity_model(b):
    return MatchingMinorModel(
        {v: frozenset({v}) for v in b.vertices},
        {e: e for e in b.edges},
    )


def test_identity_model_valid():
    c4 = even_cycle(2)
    assert validate_model(c4, c4, identity_model(c4))


def test_model_rejects_even_paths():
    # C4 inside C6 with one path of even length is invalid
    c6 = even_cycle(3)
    c4 = even_cycle(2)
    mu = MatchingMinorModel(
        {1: frozenset({1}), 2: frozenset({2}), 3: frozenset({4}), 4: frozenset({5})},
        {
            (1, 3): (1, 4),
            (1, 4): (1, 5),  # not an edge/odd path of c6 in general
            (2, 3): (2, 4),
            (2, 4): (2, 5),
        },
    )
    assert not validate_model(c6, c4, mu)


def test_bisubdivision_model_c4_in_c8():
    c8 = even_cycle(4)
    c4 = even_cycle(2)
    # walk around C8: 1,5,2,6,3,7,4,8(,1); map C4's vertices to 1,5,3,7
    mu = MatchingMinorModel(
        {1: frozenset({1}), 3: frozenset({5}), 2: frozenset({3}), 4: frozenset({7})},
        {
            (1, 3): (1, 5),
            (2, 3): (5, 2, 6, 3),
            (2, 4): (3, 7),
            (1, 4): (1, 8, 4, 7),
        },
    )
    assert validate_model(c8, c4, mu)
    pms = [m for m in (canonical_cycle_matching(4),)]
    res = residual_matching(c4, mu, canonical_cycle_matching(4))
    assert len(res) == 2


def test_find_model_and_bruteforce_agree_basic():
    """Statement: h is a matching minor of b iff b holds a matching minor
    model of h (bicontraction sequences against models)."""
    assert matching_minor_bruteforce(even_cycle(3), even_cycle(2))
    assert matching_minor_bruteforce(even_cycle(2), even_cycle(2))
    assert not matching_minor_bruteforce(even_cycle(4), complete_bipartite(3, 3))
    assert find_model_bruteforce(even_cycle(3), even_cycle(2)) is not None
    assert find_model_bruteforce(even_cycle(4), complete_bipartite(3, 3)) is None


def test_model_existence_equals_minor_relation():
    """Statement, as above, on random planted graphs."""
    rng = random.Random(11)
    targets = [even_cycle(2), even_cycle(3), complete_bipartite(2, 2)]
    for _ in range(40):
        b = random_bipartite_with_pm(rng, rng.randint(2, 4), rng.randint(0, 6))
        for h in targets:
            if h.n > b.n:
                continue
            lhs = matching_minor_bruteforce(b, h)
            rhs = find_model_bruteforce(b, h) is not None
            assert lhs == rhs, (sorted(b.edges), h.n)


def test_residual_of_identity():
    """Statement: a perfect matching of a model's vertex set induces a
    perfect matching of the pattern (its residual matching)."""
    c4 = even_cycle(2)
    m = canonical_cycle_matching(2)
    assert residual_matching(c4, identity_model(c4), m) == m


def test_butterfly_contract():
    path = digraph_from_arcs(3, [(1, 2), (2, 3)])
    out = butterfly_contract(path, (1, 2))
    assert digraph_isomorphic(out, digraph_from_arcs(2, [(2, 1)]))
    two = digraph_from_arcs(2, [(1, 2), (2, 1)])
    assert butterfly_contract(two, (1, 2)).n == 1
    dd = digraph_from_arcs(4, [(1, 2), (2, 3), (4, 3), (2, 4), (3, 1)])
    # tail has two out-arcs and head has two in-arcs: not contractible
    with pytest.raises(NotContractible):
        butterfly_contract(dd, (2, 3))


def test_butterfly_minor_bruteforce():
    c4 = directed_cycle(4)
    assert butterfly_minor_bruteforce(c4, directed_cycle(3))
    dag = digraph_from_arcs(4, [(1, 2), (2, 3), (3, 4)])
    assert not butterfly_minor_bruteforce(dag, digraph_from_arcs(2, [(1, 2), (2, 1)]))
    assert butterfly_minor_bruteforce(c4, c4)


def test_antichain_members():
    bk3 = bidirected_clique(3)
    assert antichain_member(bk3, bk3)
    # odd bicycle of length 5: bidirected C5
    c5 = [(i, i % 5 + 1) for i in range(1, 6)]
    bic5 = digraph_from_arcs(5, c5 + [(b, a) for a, b in c5])
    assert antichain_member(bic5, bk3)
    two_cycle = digraph_from_arcs(2, [(1, 2), (2, 1)])
    assert not antichain_member(two_cycle, bk3)


def test_antichain_is_antichain():
    bk3 = bidirected_clique(3)
    c5 = [(i, i % 5 + 1) for i in range(1, 6)]
    bic5 = digraph_from_arcs(5, c5 + [(b, a) for a, b in c5])
    assert not butterfly_minor_bruteforce(bic5, bk3)


def test_strongly_planar():
    assert not is_strongly_planar(bidirected_clique(3))
    dag = digraph_from_arcs(4, [(1, 2), (2, 3), (1, 4)])
    assert is_strongly_planar(dag)
    from matchwidth.grids import cylindrical_grid_digraph

    d, _ = cylindrical_grid_digraph(2)
    assert is_strongly_planar(d)


def test_planarity_examples():
    from itertools import combinations

    from matchwidth.grids import square_grid
    from matchwidth.planarity import contains_kuratowski_subdivision

    assert planarity_test(square_grid(4, 4))
    # K5 with each edge subdivided once: branch vertices 1-5 in V1, one V2
    # vertex per edge of K5
    k5_edges = list(combinations(range(1, 6), 2))
    k5_sub = graph_from_edges(
        5, 10, [(x, 6 + i) for i, e in enumerate(k5_edges) for x in e]
    )
    assert not planarity_test(k5_sub)
    assert contains_kuratowski_subdivision(k5_sub)
    assert not planarity_test(complete_bipartite(3, 3))


def test_mccuaig_bridge_small():
    # H matching minor of B iff some M-direction pair is a butterfly minor
    cases = [
        (even_cycle(3), even_cycle(2)),
        (even_cycle(4), even_cycle(3)),
        (complete_bipartite(3, 3), even_cycle(3)),
    ]
    from matchwidth.bigraph import enumerate_perfect_matchings

    for b, h in cases:
        lhs = matching_minor_bruteforce(b, h)
        rhs = False
        for m_b in enumerate_perfect_matchings(b):
            d_b, _ = m_direction(b, m_b)
            for m_h in enumerate_perfect_matchings(h):
                d_h, _ = m_direction(h, m_h)
                if butterfly_minor_bruteforce(d_b, d_h):
                    rhs = True
                    break
            if rhs:
                break
        assert lhs == rhs


def test_excluding_antichain_lemma_small():
    # D has a butterfly minor in the anti-chain of H iff Split(D) has Split(H)
    rng = random.Random(3)
    h = digraph_from_arcs(2, [(1, 2), (2, 1)])
    bh, _, _ = split(h)
    for _ in range(20):
        n = rng.randint(1, 4)
        arcs = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and rng.random() < 0.5
        ]
        d = digraph_from_arcs(n, arcs)
        bd, _, _ = split(d)
        lhs = matching_minor_bruteforce(bd, bh)
        # the anti-chain of a 2-cycle contains the 2-cycle itself; checking
        # all candidates is infeasible, but membership of some member is
        # equivalent to the split containment (Lemma 5.9) which we check
        # against the direct butterfly route for the minimal member
        rhs = butterfly_minor_bruteforce(d, h)
        assert lhs == rhs


def test_matching_minor_check_examples():
    from matchwidth.minors import matching_minor_check

    assert matching_minor_check(even_cycle(3), even_cycle(2))
    assert matching_minor_check(even_cycle(4), even_cycle(2))
    assert not matching_minor_check(even_cycle(2), even_cycle(3))
    assert matching_minor_check(complete_bipartite(3, 3), complete_bipartite(3, 3))
    assert not matching_minor_check(even_cycle(4), complete_bipartite(3, 3))


def test_matching_minor_check_agrees_random():
    from matchwidth.minors import matching_minor_check

    rng = random.Random(77)
    targets = [even_cycle(2), even_cycle(3)]
    checked = 0
    while checked < 25:
        b = random_bipartite_with_pm(rng, rng.randint(2, 4), rng.randint(0, 6))
        h = targets[rng.randrange(2)]
        if h.n > b.n:
            continue
        assert matching_minor_check(b, h) == matching_minor_bruteforce(b, h)
        checked += 1


# `_solve_full` calls per (host, pattern) below.  The order in which the
# search guesses each pattern vertex's slots and spines and places them
# fixes the count of a "yes" check, which stops at its first solvable
# instance, so a change to that order shows up here.  A "no" check solves
# every instance its complete placements build, in any order.  Every
# benchmark pattern is cubic, and a pattern vertex of degree at most 3 is
# guessed with no spine, so every path leaves from an exposed vertex.
# Each call is a distinct instance, up to the order of its terminal pairs,
# of the pass that places h's colour classes on the same host classes: the
# benchmark patterns all have an automorphism that swaps their classes, so
# the other pass never runs.
PINNED_SOLVE_CALLS = [
    (6, 0, 0, 0),
    (4, 0, 0, 0),
    (1, 2, 0, 0),
    (5, 0, 0, 0),
    (6, 0, 0, 0),
    (11, 1, 0, 0),
    (9, 4, 0, 0),
    (9, 0, 0, 0),
    (5, 0, 0, 0),
    (45, 10, 0, 0),
]

# Hopcroft-Karp runs (`bigraph.max_matching`) per check on the same hosts:
# a perfect-matching test whose outcome is already known shows up here.
# The pattern's matching-covered test runs once per process
# (`minors._pattern`), and the test warms it before counting, so it is in
# none of these.  A check that ends at its size exits runs none; past them
# it runs one for a perfect matching of the host, which also gives the
# host's admissible edges.  Then come one extendability test per distinct
# forced set and one perfect matching per proxied instance, which is both
# that instance's extendability test and the matching its DP is built on.
# Every terminal is covered by a forced edge, so no W candidate of
# `_solve_full` needs a test of its own.
PINNED_MATCHING_CALLS = [
    (4, 1, 1, 1),
    (4, 1, 1, 0),
    (3, 3, 1, 0),
    (4, 1, 1, 0),
    (4, 1, 1, 0),
    (9, 2, 1, 1),
    (8, 3, 1, 0),
    (7, 1, 1, 1),
    (6, 1, 1, 1),
    (24, 7, 1, 1),
]


def test_matching_minor_check_agrees_on_benchmark_shapes(monkeypatch):
    # hosts shaped like the `minor` benchmark's: planted, n1 4-5, 3-4 extra
    # edges; every benchmark pattern is checked against the closure search
    import matchwidth.bigraph as bigraph
    import matchwidth.minors as minors

    calls = []
    solve = minors._solve_full
    matchings = [0]
    max_matching = bigraph.max_matching

    def counted(*args):
        calls.append(args)
        return solve(*args)

    def counted_matching(*args):
        matchings[0] += 1
        return max_matching(*args)

    rng = random.Random(5)
    targets = [even_cycle(2), even_cycle(3), even_cycle(4), complete_bipartite(3, 3)]
    for h in targets:
        minors._pattern(h)
    monkeypatch.setattr(minors, "_solve_full", counted)
    monkeypatch.setattr(bigraph, "max_matching", counted_matching)
    for pinned, pinned_matchings in zip(PINNED_SOLVE_CALLS, PINNED_MATCHING_CALLS):
        b = random_bipartite_with_pm(rng, rng.randint(4, 5), rng.randint(3, 4))
        want_admissible = admissible_edges(b)
        counts = []
        matching_counts = []
        for h in targets:
            calls.clear()
            matchings[0] = 0
            got = minors.matching_minor_check(b, h)
            matching_counts.append(matchings[0])
            assert got == matching_minor_bruteforce(b, h)
            # no instance is solved twice within one check, in any pair
            # order: `_solve_full(b, pairs, banned, forced, admissible)`
            keys = [(frozenset(forced), tuple(sorted(pairs))) for _, pairs, _, forced, _ in calls]
            assert len(set(keys)) == len(keys), (sorted(b.edges), h.n)
            # every forced set is a matching of b, and every call gets b's
            # admissible edges
            for _, _, _, forced, admissible in calls:
                assert check_matching(b, forced) == forced, (sorted(b.edges), sorted(forced))
                assert admissible == want_admissible, sorted(b.edges)
            counts.append(len(calls))
        assert tuple(counts) == pinned, sorted(b.edges)
        assert tuple(matching_counts) == pinned_matchings, sorted(b.edges)


# sha256 of every `_solve_full` call that `matching_minor_check` makes on
# the hosts of the test below, with its verdict.  The call counts above
# show a change of order only on a "yes" check; this digest also shows a
# change of any instance handed to the DP, or of the order of the calls or
# of the pairs within one.  The hosts give 495 calls, 29 of them solvable.
PINNED_INSTANCE_DIGEST = "c99e77c6270d68e3826e984accad13854f7e03355eb7fbf7b7fb95aec671e88a"


def test_matching_minor_check_instance_sequence_pinned(monkeypatch):
    # 60 hosts shaped like the `minor` benchmark's (planted, n1 4-5, 3-4
    # extra edges), each checked against C4, C6, C8 and K3,3
    import hashlib

    import matchwidth.minors as minors

    digest = hashlib.sha256()
    solve = minors._solve_full

    def recorded(b, pairs, banned, forced, admissible):
        verdict = solve(b, pairs, banned, forced, admissible)
        call = (sorted(b.edges), list(pairs), sorted(banned), sorted(forced), verdict)
        digest.update(repr(call).encode())
        return verdict

    monkeypatch.setattr(minors, "_solve_full", recorded)
    rng = random.Random(40)
    targets = [even_cycle(2), even_cycle(3), even_cycle(4), complete_bipartite(3, 3)]
    for _ in range(60):
        b = random_bipartite_with_pm(rng, rng.randint(4, 5), rng.randint(3, 4))
        for h in targets:
            digest.update(repr(minors.matching_minor_check(b, h)).encode())
    assert digest.hexdigest() == PINNED_INSTANCE_DIGEST


def test_equal_patterns_are_analysed_once(monkeypatch):
    # two separately built, equal patterns share one `_pattern` entry: h's
    # symmetries and perfect matchings are worked out on the first check
    # only
    import matchwidth.minors as minors

    counts = {"bipartite_automorphisms": 0, "enumerate_perfect_matchings": 0}
    for name in counts:
        real = getattr(minors, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(minors, name, counted)
    first = even_cycle(3)
    second = graph_from_edges(3, 3, sorted(first.edges))
    assert first is not second and first == second
    minors._pattern.cache_clear()
    assert minors.matching_minor_check(even_cycle(4), first)
    assert minors.matching_minor_check(even_cycle(4), second)
    assert counts == {"bipartite_automorphisms": 1, "enumerate_perfect_matchings": 1}


def test_pattern_not_matching_covered_raises_on_every_call():
    # a path on four vertices has a perfect matching, but its middle edge
    # lies in none; `lru_cache` keeps no exception, so both calls raise
    from matchwidth.errors import ModelInvalid
    from matchwidth.minors import matching_minor_check

    path = graph_from_edges(2, 2, [(1, 3), (2, 3), (2, 4)])
    for _ in range(2):
        with pytest.raises(ModelInvalid):
            matching_minor_check(even_cycle(3), path)


def test_large_pattern_stops_at_the_size_exits():
    # the pattern's perfect matchings are listed only past the size exits:
    # C26 is past `enumerate_perfect_matchings`' 24-vertex limit, so only a
    # host large enough to get there trips it
    from matchwidth.errors import OracleLimitExceeded
    from matchwidth.minors import matching_minor_check

    assert not matching_minor_check(even_cycle(3), even_cycle(13))
    with pytest.raises(OracleLimitExceeded):
        matching_minor_check(even_cycle(14), even_cycle(13))


def test_pattern_representatives_match_the_orbit_loop():
    # the cached representatives and passes equal what the check worked
    # out inline on every call before they were cached
    from corpus import connected_pm_bipartite

    from matchwidth.bigraph import enumerate_perfect_matchings, is_matching_covered
    from matchwidth.isomorphism import (
        bipartite_automorphisms,
        bipartite_isomorphisms,
        swap_colours,
    )
    from matchwidth.minors import _pattern

    seen_flips = set()
    patterns = [h for n in range(1, 5) for h in connected_pm_bipartite(n) if is_matching_covered(h)]
    assert len(patterns) == 32
    for h in patterns:
        autos = bipartite_automorphisms(h)
        swapping = next(bipartite_isomorphisms(h, swap_colours(h)), None) is not None
        seen_mh = set()
        want = []
        for m_h in enumerate_perfect_matchings(h):
            if m_h in seen_mh:
                continue
            seen_mh.update(frozenset((a[u], a[v]) for u, v in m_h) for a in autos)
            want.append(m_h)
        pattern = _pattern(h)
        assert [frozenset(t.m_edges) for t in pattern.representatives] == want, sorted(h.edges)
        assert pattern.flips == ((False,) if swapping else (False, True)), sorted(h.edges)
        seen_flips.add(pattern.flips)
    assert seen_flips == {(False,), (False, True)}


def test_matching_minor_check_builds_only_extendable_forced_sets(monkeypatch):
    # on hosts shaped like the benchmark's, every forced set the search
    # checks for extendability extends: the search forces admissible edges
    # only.  Forcing any edge of b, it built 120 sets here that do not.
    import matchwidth.minors as minors

    tests = []
    has_pm = minors.has_perfect_matching

    def recorded(b, banned=frozenset()):
        ok = has_pm(b, banned)
        tests.append(ok)
        return ok

    monkeypatch.setattr(minors, "has_perfect_matching", recorded)
    rng = random.Random(8)
    targets = [even_cycle(2), even_cycle(3), even_cycle(4), complete_bipartite(3, 3)]
    for _ in range(10):
        b = random_bipartite_with_pm(rng, rng.randint(4, 5), rng.randint(3, 4))
        for h in targets:
            minors.matching_minor_check(b, h)
    assert tests and all(tests), tests.count(False)


def test_matching_minor_check_instances_ignore_pair_order(monkeypatch):
    # reordering the terminal pairs of an instance the search builds does
    # not change its verdict: the memo keys each instance on its set of
    # pairs.  Checked on hosts shaped like the benchmark's only.
    import matchwidth.minors as minors

    calls = []
    solve = minors._solve_full

    def recorded(*args):
        verdict = solve(*args)
        calls.append((args, verdict))
        return verdict

    monkeypatch.setattr(minors, "_solve_full", recorded)
    rng = random.Random(8)
    shuffler = random.Random(0)
    targets = [even_cycle(2), even_cycle(3), even_cycle(4), complete_bipartite(3, 3)]
    for _ in range(10):
        b = random_bipartite_with_pm(rng, rng.randint(4, 5), rng.randint(3, 4))
        for h in targets:
            minors.matching_minor_check(b, h)
    assert calls
    for (host, pairs, banned, forced, admissible), verdict in calls:
        orders = {pairs[::-1]} | {tuple(shuffler.sample(pairs, len(pairs))) for _ in range(2)}
        for order in orders - {pairs}:
            assert solve(host, order, banned, forced, admissible) == verdict, (
                sorted(host.edges),
                pairs,
            )


def test_matching_minor_check_on_a_larger_non_pfaffian_host():
    # This host (n1 = 6) is not Pfaffian, so by Little's theorem it holds
    # K3,3 as a matching minor; its k-DAPP instances convert decompositions
    # of hosts with completion edges.
    from matchwidth.minors import matching_minor_check

    host = graph_from_edges(
        6,
        6,
        [
            (1, 7), (1, 9), (1, 10), (1, 11), (2, 7), (2, 8), (2, 9), (2, 12),
            (3, 7), (3, 9), (3, 11), (4, 9), (4, 10), (4, 11), (4, 12), (5, 7),
            (5, 9), (5, 10), (5, 11), (5, 12), (6, 8), (6, 9), (6, 12),
        ],
    )
    assert matching_minor_check(host, complete_bipartite(3, 3))


# A matching-covered pattern on 4 + 4 vertices with V1 degrees 4,2,2,2 and
# V2 degrees 3,3,2,2: no automorphism swaps its colour classes, so the
# check still runs the pass that places them on opposite host classes.
ASYMMETRIC = graph_from_edges(
    4, 4, [(1, 5), (1, 6), (1, 7), (1, 8), (2, 5), (2, 6), (3, 5), (3, 7), (4, 6), (4, 8)]
)


def test_matching_minor_check_agrees_on_colour_asymmetric_pattern():
    # on these hosts one "yes" is found only by the flipped pass
    from matchwidth.minors import matching_minor_check

    rng = random.Random(3)
    for _ in range(10):
        b = random_bipartite_with_pm(rng, 5, rng.randint(6, 9))
        assert matching_minor_check(b, ASYMMETRIC) == matching_minor_bruteforce(
            b, ASYMMETRIC
        ), sorted(b.edges)


def test_matching_minor_check_places_spines():
    # ASYMMETRIC with vertex 1 split in two, joined through a new vertex
    # 10: 1 keeps the edges to 6 and 7 (old 5 and 6), the new V1 vertex 5
    # takes 8 and 9 (old 7 and 8).  No host vertex has degree 4, so the
    # model of the degree-4 vertex is the path 1-10-5 and needs a spine.
    from matchwidth.minors import matching_minor_check

    host = graph_from_edges(
        5,
        5,
        [
            (1, 6), (1, 7), (1, 10), (2, 6), (2, 7), (3, 6),
            (3, 8), (4, 7), (4, 9), (5, 8), (5, 9), (5, 10),
        ],
    )
    assert max(host.degree(v) for v in host.vertices) == 3
    assert matching_minor_check(host, ASYMMETRIC)
    assert matching_minor_bruteforce(host, ASYMMETRIC)


# K3,3 with vertex 1 replaced by a spider: centre 1, new vertices 10-12,
# leaves 4-6, each leaf joined to one old neighbour (7-9).
K33_SPIDER = graph_from_edges(
    6,
    6,
    [
        (1, 10), (1, 11), (1, 12), (4, 10), (5, 11), (6, 12), (4, 7), (5, 8),
        (6, 9), (2, 7), (2, 8), (2, 9), (3, 7), (3, 8), (3, 9),
    ],
)
# K3,3 with vertex 1 replaced by the path 4-9-1-10-5: the leaves 4 and 5
# join old neighbours 6 and 7, and the third edge leaves the middle, 1-8.
K33_PATH = graph_from_edges(
    5,
    5,
    [
        (4, 9), (1, 9), (1, 10), (5, 10), (4, 6), (5, 7), (1, 8),
        (2, 6), (2, 7), (2, 8), (3, 6), (3, 7), (3, 8),
    ],
)


@pytest.mark.parametrize("host", [K33_SPIDER, K33_PATH], ids=["spider", "path"])
def test_matching_minor_check_re_roots_cubic_vertex_models(host):
    # the split vertex's model has three leaves or a path with a middle
    # exit; re-rooted at its branch vertex, it is found with no spine
    from matchwidth.minors import matching_minor_check

    assert max(host.degree(v) for v in host.vertices) == 3
    assert matching_minor_check(host, complete_bipartite(3, 3))
    assert matching_minor_bruteforce(host, complete_bipartite(3, 3))


def test_matching_minor_check_agrees_on_cubic_patterns():
    # every vertex of these patterns is guessed with no spine; each host
    # has a vertex of degree 4 or more, where a spine could have sat
    from matchwidth.minors import matching_minor_check

    rng = random.Random(1)
    targets = [even_cycle(3), even_cycle(4), complete_bipartite(3, 3), cube()]
    answers = []
    while len(answers) < 8 * len(targets):
        b = random_bipartite_with_pm(rng, rng.randint(4, 5), rng.randint(6, 12))
        if max(b.degree(v) for v in b.vertices) < 4:
            continue
        for h in targets:
            got = matching_minor_check(b, h)
            assert got == matching_minor_bruteforce(b, h), (sorted(b.edges), h.n)
            answers.append(got)
    assert 0 < sum(answers) < len(answers)


def test_matching_minor_check_on_a_host_without_a_perfect_matching():
    from matchwidth.minors import matching_minor_check

    # vertex 6 is isolated, so the host has no perfect matching and no
    # matching minor
    host = graph_from_edges(3, 3, [(1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5)])
    assert matching_minor_check(host, even_cycle(2)) is False
    assert matching_minor_bruteforce(host, even_cycle(2)) is False


def test_benchmark_patterns_prune_by_the_stabiliser_of_m_h():
    # |Stab(m_h)| in the colour-preserving automorphisms is 2, 3, 4 and 6
    # for C4, C6, C8 and K3,3; each has one m_h up to symmetry, and the
    # search prunes by the non-identity elements.  Each is stored as the
    # index of sigma^-1(u) in h_vertices, per u.
    from matchwidth.minors import _pattern

    sizes = [
        (even_cycle(2), 1), (even_cycle(3), 2), (even_cycle(4), 3), (complete_bipartite(3, 3), 5),
    ]
    for h, size in sizes:
        (tables,) = _pattern(h).representatives
        vertices = tables.h_vertices
        m_h = frozenset(tables.m_edges)
        assert len(set(tables.stab)) == len(tables.stab) == size, h.n
        for perm in tables.stab:
            assert sorted(perm) == list(range(h.n)) and perm != tuple(range(h.n))
            inverse = {u: vertices[k] for u, k in zip(vertices, perm)}
            assert {(inverse[u], inverse[v]) for u, v in h.edges} == h.edges
            assert {(inverse[u], inverse[v]) for u, v in m_h} == m_h


# A matching-covered pattern whose vertices 3-6 have degree 4, so the
# search guesses spines for them.  Its third perfect matching up to
# symmetry, {1-7, 2-8, 3-5, 4-6}, is fixed by (3 4)(5 6), which keeps the
# order of the non-m_h edges at each of 3-6; no automorphism fixes the
# other two.  With spines, the first member of an orbit the search visits
# need not be the one it keeps.
DEGREE_FOUR = graph_from_edges(
    4,
    4,
    [
        (1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (2, 8), (3, 5),
        (3, 6), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (4, 8),
    ],
)
# DEGREE_FOUR with vertex 3 split in two, joined through the new V2
# vertex 10: 3 keeps 6 and 7 (old 5 and 6), the new V1 vertex 5 takes 8
# and 9 (old 7 and 8)
DEGREE_FOUR_SPLIT = [
    (1, 6), (1, 7), (1, 8), (2, 6), (2, 7), (2, 9), (3, 6), (3, 7),
    (3, 10), (4, 6), (4, 7), (4, 8), (4, 9), (5, 8), (5, 9), (5, 10),
]


def _pruning_hosts(rng):
    """DEGREE_FOUR_SPLIT relabelled within its classes, with up to two of
    its edges dropped and up to two added."""
    for _ in range(10):
        v1, v2 = rng.sample(range(1, 6), 5), rng.sample(range(6, 11), 5)
        edges = {(v1[x - 1], v2[y - 6]) for x, y in DEGREE_FOUR_SPLIT}
        edges -= set(rng.sample(sorted(edges), rng.randint(0, 2)))
        others = [(x, y) for x in range(1, 6) for y in range(6, 11) if (x, y) not in edges]
        edges |= set(rng.sample(others, rng.randint(0, 2)))
        yield graph_from_edges(5, 5, edges)


def test_matching_minor_check_prunes_without_losing_an_instance(monkeypatch):
    # pruned by Stab(m_h), the check answers as the closure search does,
    # and on a "no" host, where it solves every instance it builds, it
    # solves the same set of instances as the search without pruning
    import matchwidth.minors as minors
    from matchwidth.bigraph import is_matching_covered

    assert is_matching_covered(DEGREE_FOUR)
    assert [len(t.stab) for t in minors._pattern(DEGREE_FOUR).representatives] == [0, 0, 1]
    solved = []
    solve = minors._solve_full

    def recorded(b, pairs, banned, forced, admissible):
        solved.append((forced, frozenset(pairs)))
        return solve(b, pairs, banned, forced, admissible)

    tables = minors._MhTables.__init__

    def unpruned(self, h, m_h, autos):
        tables(self, h, m_h, [{v: v for v in h.vertices}])

    def check(b, h, prune):
        minors._pattern.cache_clear()
        solved.clear()
        with monkeypatch.context() as patch:
            if not prune:
                patch.setattr(minors._MhTables, "__init__", unpruned)
            got = minors.matching_minor_check(b, h)
        minors._pattern.cache_clear()
        return got, set(solved)

    monkeypatch.setattr(minors, "_solve_full", recorded)
    rng = random.Random(41)
    hosts = [(b, DEGREE_FOUR) for b in _pruning_hosts(rng)]
    hosts += [(random_bipartite_with_pm(rng, 5, rng.randint(7, 12)), cube()) for _ in range(8)]
    answers = {DEGREE_FOUR: set(), cube(): set()}
    for b, h in hosts:
        got, instances = check(b, h, True)
        want, want_instances = check(b, h, False)
        assert got == want == matching_minor_bruteforce(b, h), (sorted(b.edges), h.n)
        if not got:
            assert instances == want_instances, (sorted(b.edges), h.n)
        answers[h].add(got)
    assert all(seen == {True, False} for seen in answers.values())


def test_matching_minor_check_leaves_no_reference_cycle():
    # one check per pool pattern on a host shaped like the `minor`
    # benchmark's, with the collector paused: what the collector then finds
    # unreachable is what refcounting alone would have left, and no
    # function of the search may be part of it.  Each pattern is analysed
    # first, outside the measured checks: that is once per process, and it
    # lists h's perfect matchings with a recursive oracle.
    import gc
    import types

    import matchwidth.minors as minors

    rng = random.Random(47)
    targets = [even_cycle(2), even_cycle(3), even_cycle(4), complete_bipartite(3, 3)]
    hosts = [random_bipartite_with_pm(rng, 5, rng.randint(3, 4)) for _ in targets]
    for h in targets:
        minors._pattern(h).representatives
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        answers = [minors.matching_minor_check(b, h) for b, h in zip(hosts, targets)]
        gc.collect()
        left = sorted(
            {
                f"{obj.__module__}.{obj.__qualname__}"
                for obj in gc.garbage
                if isinstance(obj, types.FunctionType)
                and obj.__module__ in ("matchwidth.minors", "matchwidth.bigraph")
            }
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == []
    assert True in answers and False in answers


def test_pattern_tables_are_pinned():
    from math import factorial

    from matchwidth.minors import _slot_patterns, _tree_shapes

    # restricted growth strings: each slot at most one above the largest
    # before it (0 at the start), with the number of spine slots; below
    # three non-m_h edges, the all-zero pattern alone
    sizes = []
    for count in range(6):
        table = _slot_patterns(count)
        assigns = [assign for assign, _ in table]
        assert assigns == sorted(set(assigns))
        for assign, spines in table:
            assert len(assign) == count and spines == max(assign, default=0)
            assert all(s <= max(assign[:i], default=0) + 1 for i, s in enumerate(assign))
        sizes.append(len(table))
    assert sizes == [1, 1, 1, 15, 52, 203]
    # spine trees: slot j's parent lies below j
    for a in range(5):
        shapes = _tree_shapes(a)
        assert shapes == sorted(set(shapes)) and len(shapes) == factorial(a)
        assert all(len(s) == a and all(p < j for j, p in enumerate(s, start=1)) for s in shapes)
