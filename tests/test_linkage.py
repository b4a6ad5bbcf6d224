import random

import pytest

from matchwidth.bigraph import (
    check_matching,
    enumerate_perfect_matchings,
    graph_from_edges,
    has_perfect_matching,
    is_extendable,
    is_perfect,
    some_perfect_matching,
)
from matchwidth.decomp import NicePMD
from matchwidth.digraph import mask_members
from matchwidth.errors import InvalidW, NotExtendable, OracleLimitExceeded
from matchwidth.grids import square_grid
from matchwidth.linkage import (
    _achievable,
    _alternating_paths,
    dapp_bruteforce,
    dapp_solve,
    dapp_solve_extending,
    is_limited,
    make_context,
    make_proxies,
    parts_in,
    w_completion,
)

from common import (
    canonical_cycle_matching,
    complete_bipartite,
    even_cycle,
    k2,
    nice_pmd,
    path_graph,
    random_bipartite_with_pm,
    recursion_headroom,
    sibling_leaf_caterpillar,
)


def test_bruteforce_examples():
    c6 = even_cycle(3)
    ok, sol = dapp_bruteforce(c6, [(1, 5)])
    assert ok and sol is not None
    assert sol.paths[0][0] == 1 and sol.paths[0][-1] == 5
    two = graph_from_edges(4, 4, [(1, 5), (1, 6), (2, 5), (2, 6), (3, 7), (3, 8), (4, 7), (4, 8)])
    assert not dapp_bruteforce(two, [(1, 7)])[0]
    c4 = even_cycle(2)
    assert dapp_bruteforce(c4, [(1, 3)])[0]


def test_bruteforce_limits():
    with pytest.raises(OracleLimitExceeded):
        dapp_bruteforce(complete_bipartite(7, 7), [(1, 8)])
    with pytest.raises(OracleLimitExceeded):
        dapp_bruteforce(even_cycle(2), [(1, 3)] * 3)


def test_w_completion_cases():
    # W pairs each terminal pair directly: nothing to add
    assert w_completion([(1, 3)], [(1, 3)]) == frozenset()
    # W matches terminals to outside vertices: one virtual closing edge
    out = w_completion([(1, 4)], [(1, 5), (2, 4)])
    assert out == frozenset({(2, 5)})
    # two pairs chained through W close a cycle on their own
    out2 = w_completion([(1, 4), (2, 5)], [(1, 5), (2, 4)])
    assert out2 == frozenset()
    # a path through two pairs: 6 -W- 1 -link- 4 -W- 2 -link- 5 -W- 3
    assert w_completion([(1, 4), (2, 5)], [(1, 6), (2, 4), (3, 5)]) == frozenset({(3, 6)})


def test_w_completion_closes_every_path():
    # in W, the links s_i t_i and the completion, every vertex has degree
    # two, and each virtual edge joins V1 to V2
    rng = random.Random(29)
    for _ in range(2000):
        n1 = rng.randint(1, 7)
        k = rng.randint(1, n1)
        pairs = list(zip(rng.sample(range(1, n1 + 1), k), rng.sample(range(n1 + 1, 2 * n1 + 1), k)))
        terminals = {x for p in pairs for x in p}
        left = list(range(1, n1 + 1))
        rng.shuffle(left)
        w = [e for e in zip(left, range(n1 + 1, 2 * n1 + 1)) if terminals & set(e)]
        virtual = w_completion(pairs, w)
        assert len(virtual) <= len(pairs)
        assert all(u <= n1 < v for u, v in virtual)
        degree: dict[int, int] = {}
        for u, v in [*w, *pairs, *virtual]:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert set(degree.values()) == {2}


def test_w_completion_validation():
    with pytest.raises(InvalidW):
        w_completion([(1, 4)], [(2, 5)])  # terminals uncovered
    with pytest.raises(InvalidW):
        w_completion([(1, 4), (1, 5)], [(1, 4), (2, 5)])  # not distinct


def test_w_completion_against_solutions():
    # closing the paths of any W-extending solution through W and the
    # completion yields alternating cycles only
    c8 = even_cycle(4)
    pairs = [(1, 6)]
    for m in enumerate_perfect_matchings(c8):
        w = frozenset(e for e in m if 1 in e or 6 in e)
        if len(w) != 2:
            continue
        virt = w_completion(pairs, w)
        ok, sol = dapp_bruteforce(c8, pairs)
        assert ok
        # degree check: every vertex of paths+W+virtual has even degree in the
        # multigraph after removing matched terminal-pair edges
        deg: dict[int, int] = {}
        for u, v in list(w) + list(virt):
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        for path in sol.paths:
            for x, y in zip(path, path[1:]):
                deg[x] = deg.get(x, 0) + 1
                deg[y] = deg.get(y, 0) + 1
        # endpoints gain degree from both their W edge and their path
        assert all(v % 2 == 0 for v in deg.values())


def test_make_proxies_axioms():
    c8 = even_cycle(4)
    pairs = [(1, 6)]
    w = frozenset({(1, 5), (2, 6)})
    assert is_extendable(c8, w)
    found = list(make_proxies(c8, pairs, w, frozenset()))
    assert found
    for proxy, wprime in found:
        terms = [x for p in proxy for x in p]
        assert len(set(terms)) == len(terms)
        covered = {x for e in wprime for x in e}
        assert all(t in covered for t in terms)
        for e in wprime:
            assert e[0] in terms or e[1] in terms


def test_make_proxies_empty_when_blocked():
    # no admissible W' exists when every neighbour is consumed by W
    c4 = even_cycle(2)
    w = frozenset({(1, 3), (2, 4)})
    assert list(make_proxies(c4, [(1, 4)], w, frozenset())) == []


def test_itinerary_root_matches_solution():
    c6 = even_cycle(3)
    nice = nice_pmd(c6, some_perfect_matching(c6))
    # forced edges covering the proxied terminals; query the root directly
    w_prime = frozenset({(2, 4), (3, 5)})
    assert is_extendable(c6, w_prime)
    ctx = make_context(c6, nice, forced=w_prime, banned=frozenset(), k=1)
    j_set = ctx.index[2, 4] | ctx.index[3, 5]
    # the path 2-5 exists with both anchors forced
    assert _achievable(ctx, (ctx.root_node, 0, ((2, 5),), j_set)) is True
    # an empty J leaves the terminals uncovered, so the entry is refused
    assert _achievable(ctx, (ctx.root_node, 0, ((2, 5),), 0)) is False


def test_dp_answers_on_a_deep_tree(monkeypatch):
    # each DP run takes the caterpillar of its matching's edges in place of
    # the exact decomposition, with the ladder's width 2 as its budget; the
    # 2 x 60 ladder's caterpillar is about 60 levels deep, and the DP answers
    # within 100 frames of headroom, as it keeps no frame per tree level
    import matchwidth.linkage as linkage

    def caterpillar_dp(b, pairs, forced, banned, m):
        nice = NicePMD(sibling_leaf_caterpillar(b, m), 2, 2)
        ctx = make_context(b, nice, forced, banned, max(len(pairs), 1))
        return _achievable(ctx, (ctx.root_node, 0, tuple(sorted(pairs)), ctx.forced))

    monkeypatch.setattr(linkage, "_dp_decides", caterpillar_dp)
    # on short ladders the caterpillar DP answers every pair as the oracle does
    for k in (4, 5):
        b = square_grid(2, k)
        for s in range(1, b.n1 + 1):
            for t in range(b.n1 + 1, b.n + 1):
                assert dapp_solve(b, [(s, t)]) == dapp_bruteforce(b, [(s, t)], limit=b.n)[0]
    b = square_grid(2, 60)
    with recursion_headroom(100):
        assert dapp_solve(b, [(1, b.n)])


def test_make_context_on_a_two_leaf_tree():
    # K2's decomposition has no inner node: the DP joins its two leaves at
    # the virtual node 2, over the one edge that each leaf's cut holds
    ctx = make_context(k2(), nice_pmd(k2(), some_perfect_matching(k2())), (), (), 1)
    assert ctx.below == [0b010, 0b100, 0b110]
    assert ctx.edges == [(1, 2)] and ctx.cut == [1, 1, 0]
    assert ctx.kids == [(), (), (0, 1)]
    assert ctx.root_node == 2


def test_dapp_solve_examples():
    c6 = even_cycle(3)
    assert dapp_solve(c6, [(1, 5)])
    two = graph_from_edges(4, 4, [(1, 5), (1, 6), (2, 5), (2, 6), (3, 7), (3, 8), (4, 7), (4, 8)])
    assert not dapp_solve(two, [(1, 7)])
    c8 = even_cycle(4)
    assert dapp_solve(c8, [(1, 6), (3, 8)]) == dapp_bruteforce(c8, [(1, 6), (3, 8)])[0]


# In the next three instances a path crosses into a child over one crossing,
# takes one matching edge there and leaves over a second crossing: the two
# crossings share their anchor edge, and the join must link them.


def test_dp_decides_on_the_minimal_repro():
    # M holds the forced covers 3-6 and 4-8 of the terminals, and
    # 4-7-1-9-2-10-5-6 is an internally M-conformal path joining them
    import matchwidth.linkage as linkage

    b = graph_from_edges(
        5, 5, [(1, 7), (1, 9), (2, 9), (2, 10), (3, 6), (3, 9), (4, 7), (4, 8), (5, 6), (5, 10)]
    )
    forced = frozenset({(3, 6), (4, 8)})
    m = frozenset({(1, 7), (2, 9), (3, 6), (4, 8), (5, 10)})
    assert linkage._dp_decides(b, ((4, 6),), forced, frozenset(), m) is True


def test_dapp_solve_on_the_n1_7_design_instance():
    # the oracle routes 3-11-6-10-1-12-4-13-7-9
    b = graph_from_edges(
        7,
        7,
        [
            (1, 10), (1, 12), (2, 8), (2, 9), (2, 13), (3, 11), (3, 14), (4, 12), (4, 13),
            (5, 8), (5, 9), (5, 12), (6, 10), (6, 11), (7, 8), (7, 9), (7, 13),
        ],
    )
    assert dapp_solve(b, [(3, 9)]) == dapp_bruteforce(b, [(3, 9)], limit=14)[0]


def test_dapp_solve_on_the_n1_6_design_instance():
    # with M = {1-8, 2-11, 3-12, 4-10, 5-7, 6-9} the paths 6-7-5-12-3-10-4-8
    # and 1-11-2-9 are disjoint and M-alternating
    b = graph_from_edges(
        6,
        6,
        [
            (1, 7), (1, 8), (1, 11), (2, 7), (2, 9), (2, 11), (3, 10), (3, 12),
            (4, 8), (4, 10), (5, 7), (5, 12), (6, 7), (6, 9),
        ],
    )
    pairs = [(6, 8), (1, 9)]
    assert dapp_solve(b, pairs) == dapp_bruteforce(b, pairs)[0]


def test_dapp_solve_ignores_the_pair_order():
    # the oracle routes 6-12-5-13-7-8 and 4-9-1-10-2-14; the proxy families
    # are enumerated in pair order, and one order meets the conversion of a
    # host with a completion edge before it meets a "yes"
    b = graph_from_edges(
        7,
        7,
        [
            (1, 9), (1, 10), (2, 8), (2, 10), (2, 12), (2, 14), (3, 10), (3, 11), (4, 8),
            (4, 9), (4, 11), (5, 10), (5, 12), (5, 13), (6, 9), (6, 10), (6, 12), (6, 14),
            (7, 8), (7, 10), (7, 12), (7, 13),
        ],
    )
    pairs = [(6, 8), (4, 14)]
    expected = dapp_bruteforce(b, pairs, limit=14)[0]
    assert expected is True
    assert dapp_solve(b, pairs[::-1]) == expected
    assert dapp_solve(b, pairs) == expected


# dapp-pool questions (bench/workloads.py, seeds 1-10 and 821972149) whose
# "yes" needs the join to link two crossings that share an anchor edge:
# with the links switched off, the DP answers "no" on each of them
LINKED_CROSSINGS = [
    (6, [(6, 8), (1, 9)], (
        "1-7 1-8 1-11 2-7 2-9 2-11 3-10 3-12 4-8 4-10 5-7 5-12 6-7 6-9"
    )),
    (7, [(1, 9)], (
        "1-10 1-11 2-8 2-13 2-14 3-8 3-10 3-11 3-14 4-8 5-9 5-13 6-9 6-13 7-12"
    )),
    (7, [(3, 14)], (
        "1-11 1-13 2-13 2-14 3-9 3-12 4-8 4-10 4-13 4-14 5-10 6-13 6-14 7-9 7-10 7-11 "
        "7-12"
    )),
    (6, [(4, 10), (2, 11)], (
        "1-7 1-9 1-12 2-8 2-10 3-9 3-10 3-11 4-7 4-9 4-11 4-12 5-8 5-12 6-7 6-8 6-9 6-10"
    )),
    (7, [(4, 8)], (
        "1-9 1-10 2-8 2-10 3-9 3-11 3-14 4-11 4-12 4-13 4-14 5-12 6-8 6-10 7-9 7-11 7-12 "
        "7-14"
    )),
    (9, [(9, 13)], (
        "1-10 2-10 2-15 2-17 3-13 3-15 4-10 4-11 5-13 5-14 6-10 6-12 6-16 6-17 7-18 8-10 "
        "8-14 9-12 9-16"
    )),
    (8, [(3, 10), (8, 15)], (
        "1-11 1-12 1-14 2-9 2-11 2-15 3-9 3-15 3-16 4-10 4-14 5-11 5-12 5-15 6-12 6-13 "
        "7-10 7-14 8-13 8-16"
    )),
    (9, [(9, 15)], (
        "1-11 1-16 1-17 2-10 2-12 2-18 3-11 3-15 4-10 4-13 4-14 4-18 5-15 6-13 7-17 7-18 "
        "8-16 8-18 9-12 9-18"
    )),
    (9, [(5, 17)], (
        "1-12 1-15 2-10 2-11 2-13 2-15 3-12 3-17 4-11 4-14 5-13 5-16 6-14 6-17 7-13 7-15 "
        "8-15 8-16 8-17 8-18 9-11 9-14"
    )),
    (8, [(1, 10), (8, 12)], (
        "1-9 1-12 1-15 2-11 2-14 2-16 3-10 3-11 3-13 4-9 4-11 4-12 4-14 5-11 6-9 6-12 "
        "6-15 6-16 7-13 7-16 8-10 8-15 8-16"
    )),
    (9, [(3, 18), (7, 11)], (
        "1-12 1-14 1-15 1-16 2-12 2-13 2-17 3-11 3-13 4-11 4-13 4-14 4-15 5-13 5-15 5-17 "
        "6-10 6-13 7-15 7-18 8-11 8-12 9-16 9-18"
    )),
    (9, [(5, 13), (1, 17)], (
        "1-12 1-13 1-14 2-12 2-13 2-18 3-12 3-15 3-16 4-11 4-12 4-13 4-16 4-17 5-12 5-18 "
        "6-13 6-15 6-17 7-10 7-15 8-14 8-16 9-12 9-17"
    )),
    (9, [(2, 14), (8, 18)], (
        "1-15 1-17 2-10 2-11 2-12 2-13 2-17 3-11 3-15 3-18 4-12 4-13 5-10 5-13 5-17 6-18 "
        "7-10 7-16 8-10 8-13 8-14 9-10 9-12 9-14 9-15 9-18"
    )),
    (9, [(7, 14)], (
        "1-11 1-12 1-16 2-10 2-15 2-16 2-17 3-14 3-15 3-17 4-12 4-15 5-12 5-15 5-17 6-12 "
        "6-17 7-13 7-15 7-18 8-10 8-11 8-12 8-14 9-13 9-16"
    )),
    (9, [(8, 12), (6, 17)], (
        "1-15 1-18 2-11 2-13 2-16 2-17 3-14 3-15 3-16 4-11 4-12 4-17 4-18 5-13 5-16 6-12 "
        "6-14 7-10 7-12 7-16 8-10 8-13 8-16 9-12 9-17 9-18"
    )),
]


def planted_question(rng, n1):
    """A planted graph on (n1, n1) and 1-2 terminal pairs that are not edges
    and share no terminal (fewer when no such pair is left)."""
    b = random_bipartite_with_pm(rng, n1, rng.randint(n1 // 2, 2 * n1))
    pairs = []
    for _ in range(rng.randint(1, 2)):
        free = [
            (s, t)
            for s in range(1, n1 + 1)
            for t in range(n1 + 1, 2 * n1 + 1)
            if not b.has_edge(s, t) and all(s != p and t != q for p, q in pairs)
        ]
        if free:
            pairs.append(rng.choice(free))
    return b, pairs


def test_dapp_solve_agrees_with_oracle_random(monkeypatch):
    # every DP run also receives a perfect matching of its host that holds
    # the instance's forced edges, and pairs and forced edges that join V1
    # to V2 with the V1 end first
    import matchwidth.linkage as linkage

    dp_decides = linkage._dp_decides
    dp_runs = [0]

    def checked_dp(b, pairs, forced, banned, m):
        assert is_perfect(b, check_matching(b, m)) and forced <= m, (sorted(b.edges), sorted(m))
        assert all(1 <= s <= b.n1 < t <= b.n for s, t in pairs), pairs
        assert forced <= b.edges, sorted(forced)
        dp_runs[0] += 1
        return dp_decides(b, pairs, forced, banned, m)

    monkeypatch.setattr(linkage, "_dp_decides", checked_dp)
    rng = random.Random(20240)
    checked = 0
    while checked < 120:
        n1 = rng.randint(2, 5)
        edges = set()
        for i in range(1, n1 + 1):
            for j in range(n1 + 1, 2 * n1 + 1):
                if rng.random() < rng.choice([0.3, 0.5, 0.7]):
                    edges.add((i, j))
        b = graph_from_edges(n1, n1, edges)
        if not has_perfect_matching(b):
            continue
        k = rng.choice([1, 1, 2])
        pairs = [(rng.randint(1, n1), rng.randint(n1 + 1, 2 * n1)) for _ in range(k)]
        assert dapp_solve(b, pairs) == dapp_bruteforce(b, pairs)[0]
        checked += 1
    # planted graphs up to n1 = 7 with 1-2 pairs that are not edges and share
    # no terminal: both pair orders get the oracle's answer
    rng = random.Random(20240)
    for _ in range(400):
        n1 = rng.randint(3, 7)
        b, pairs = planted_question(rng, n1)
        if not pairs:
            continue
        expected = dapp_bruteforce(b, pairs, limit=2 * n1)[0]
        for order in (pairs, pairs[::-1]):
            assert dapp_solve(b, order) == expected, (sorted(b.edges), order)
    for n1, pairs, edges in LINKED_CROSSINGS:
        b = graph_from_edges(n1, n1, [tuple(map(int, e.split("-"))) for e in edges.split()])
        expected = dapp_bruteforce(b, pairs, limit=2 * n1)[0]
        for order in (pairs, pairs[::-1]):
            assert dapp_solve(b, order) == expected, (n1, edges, order)
    assert dp_runs[0]


def perfect_matchings_on(b, free):
    """Every perfect matching of b[free], by brute force."""
    if not free:
        yield frozenset()
        return
    v = min(free)
    for y in sorted(b.adj[v] & free):
        e = (min(v, y), max(v, y))
        for rest in perfect_matchings_on(b, free - {v, y}):
            yield rest | {e}


def entry_oracle(b, forced, banned, xs, u_set, pairs, j_set):
    """One itinerary entry by brute force, as the `_query` docstring defines
    it: a perfect matching M of b[xs - V(U)], plus U, that holds J's edges
    inside xs, with every forced edge that touches xs in J, and disjoint pair
    paths inside xs, internally M-conformal, that avoid banned vertices and
    J's non-terminal vertices."""
    if any(e not in j_set for e in forced if e[0] in xs or e[1] in xs):
        return False
    inner = {e for e in j_set if e[0] in xs and e[1] in xs}
    terminals = {x for p in pairs for x in p}
    blocked = (
        frozenset(b.vertices) - xs
        | banned
        | ({x for e in j_set for x in e} - terminals)
    )
    free = xs - {x for e in u_set for x in e}
    for m in perfect_matchings_on(b, free):
        if not inner <= m:
            continue
        mate = {}
        for u, v in m | u_set:
            mate[u] = v
            mate[v] = u

        def route(idx, used):
            if idx == len(pairs):
                return True
            s, t = pairs[idx]
            others = terminals - {s, t}
            return any(
                route(idx + 1, used | set(path))
                for path in _alternating_paths(b, mate, s, t, blocked | others | used)
            )

        if route(0, frozenset()):
            return True
    return False


def edge_set(ctx, mask):
    """The edges of an edge mask of one DP run."""
    return frozenset(ctx.edges[i] for i in mask_members(mask))


def memo_entries(ctx):
    """Each memo entry of one DP run as (vertex set, U, pairs, J, answer),
    decoded through the context."""
    for (node, u_set, pairs, j_set), got in ctx.memo.items():
        yield mask_members(ctx.below[node]), edge_set(ctx, u_set), pairs, edge_set(ctx, j_set), got


def test_every_itinerary_entry_agrees_with_the_entry_oracle(monkeypatch):
    # every entry the DP settles while deciding seeded planted questions and
    # the linked-crossing questions, in both pair orders, is checked against
    # its definition
    import matchwidth.linkage as linkage

    make_context = linkage.make_context
    contexts = []

    def recorded(*args, **kwargs):
        contexts.append(make_context(*args, **kwargs))
        return contexts[-1]

    monkeypatch.setattr(linkage, "make_context", recorded)

    def check(b, pairs):
        contexts.clear()
        dapp_solve(b, pairs)
        for ctx in contexts:
            forced = edge_set(ctx, ctx.forced)
            for xs, u_set, entry_pairs, j_set, got in memo_entries(ctx):
                want = entry_oracle(ctx.b, forced, ctx.banned, xs, u_set, entry_pairs, j_set)
                assert got == want, (sorted(ctx.b.edges), sorted(xs), u_set, entry_pairs, j_set)
                answers.append(got)

    answers = []
    rng = random.Random(31)
    for _ in range(400):
        b, pairs = planted_question(rng, rng.randint(3, 6))
        if pairs:
            check(b, pairs)
    assert len(answers) > 500 and True in answers and False in answers
    answers.clear()
    for n1, pairs, edges in LINKED_CROSSINGS:
        b = graph_from_edges(n1, n1, [tuple(map(int, e.split("-"))) for e in edges.split()])
        for order in (pairs, pairs[::-1]):
            check(b, order)
    assert len(answers) > 500 and True in answers and False in answers


def test_solve_full_trusts_its_forced_set(monkeypatch):
    # an instance whose pairs are all edges of b is solved by routing them
    # along those edges; the caller has already shown that the forced set
    # extends and found b's admissible edges, so no Hopcroft-Karp run is
    # needed
    import matchwidth.bigraph as bigraph
    import matchwidth.linkage as linkage

    c6 = even_cycle(3)
    admissible = bigraph.admissible_edges(c6)
    runs = [0]
    max_matching = bigraph.max_matching

    def counted(*args):
        runs[0] += 1
        return max_matching(*args)

    monkeypatch.setattr(bigraph, "max_matching", counted)
    pairs = ((1, 4), (2, 5))
    assert linkage._solve_full(c6, pairs, frozenset(), frozenset(), admissible)
    assert runs[0] == 0


def test_dapp_extending():
    c6 = even_cycle(3)
    m = canonical_cycle_matching(3)
    # empty F equals the plain solver
    assert dapp_solve_extending(c6, [(1, 5)], frozenset()) == dapp_solve(c6, [(1, 5)])
    # full perfect matching forces internally M-conformal paths
    assert dapp_solve_extending(c6, [(1, 5)], m)
    with pytest.raises(NotExtendable):
        dapp_solve_extending(path_graph(3), [(1, 4)], [(2, 3)])


def dapp_extending_bruteforce(b, pairs, f_set):
    """One pair: some perfect matching M with F ⊆ M carries an internally
    M-conformal s-t path."""
    ((s, t),) = pairs
    for m in enumerate_perfect_matchings(b):
        if f_set <= m:
            mate = {x: y for u, v in m for x, y in ((u, v), (v, u))}
            if any(_alternating_paths(b, mate, s, t, frozenset())):
                return True
    return False


@pytest.mark.xfail(
    strict=True,
    reason="forced edges reach the DP as J edges, whose ends no path may use, "
    "so a path cannot run through an F edge below that edge's join",
)
def test_dapp_extending_path_through_a_forced_edge():
    # M = {1-6, 2-7, 3-8, 4-9, 5-10} holds F and carries 5-6-1-7-2-9-4-8,
    # which runs through the forced edge 2-7
    b = graph_from_edges(
        5,
        5,
        [(1, 6), (1, 7), (2, 6), (2, 7), (2, 9), (3, 6), (3, 8), (4, 6), (4, 8), (4, 9), (5, 6), (5, 10)],
    )
    pairs = [(5, 8)]
    f_set = frozenset({(2, 7), (3, 8)})
    assert dapp_extending_bruteforce(b, pairs, f_set)
    assert dapp_solve_extending(b, pairs, f_set)


def test_dapp_extending_can_refuse():
    # forcing the other matching on C8 breaks a one-sided connection:
    # with M' = {b1a2, b2a3, b3a4, b4a1} the pair (a1, b1) has no internally
    # M'-conformal path when enough vertices are pinned
    c8 = even_cycle(4)
    other = frozenset({(2, 5), (3, 6), (4, 7), (1, 8)})
    want = False

    mate = {}
    for u, v in other:
        mate[u] = v
        mate[v] = u
    paths = list(_alternating_paths(c8, mate, 1, 5, frozenset()))
    assert dapp_solve_extending(c8, [(1, 5)], other) == bool(paths)


def test_is_limited():
    """The (k, w)-limitedness check itself, on one linkage that is limited
    and one that is not."""
    c8 = even_cycle(4)
    # single-edge paths give at most k parts
    assert is_limited(c8, [(1, 5)], range(1, 9), k=1, w=2)
    # adversarial system: on a 12-vertex path the unique perfect matching
    # never crosses the cut around every other matched pair, yet a single
    # path walking the whole graph visits that set in three pieces
    p12 = path_graph(11)
    walk = tuple([1, 7, 2, 8, 3, 9, 4, 10, 5, 11, 6, 12])
    assert not is_limited(p12, [walk], [1, 7, 3, 9, 5, 11], k=1, w=0)


def test_limited_holds_for_solution_linkages():
    """Paper statement behind the k-DAPP dynamic program: the linkage of a
    solution meets every vertex set whose cut has matching porosity at most
    w in at most k + w parts."""
    rng = random.Random(5)
    for _ in range(25):
        b = random_bipartite_with_pm(rng, rng.randint(2, 4), rng.randint(0, 6))
        pairs = [(rng.randint(1, b.n1), rng.randint(b.n1 + 1, b.n))]
        ok, sol = dapp_bruteforce(b, pairs)
        if not ok:
            continue
        w = frozenset(e for e in sol.matching if any(x in e for p in pairs for x in p))
        assert is_limited(b, sol.paths, b.vertices, k=1, w=max(2, len(w)))


def test_dapp_solve_on_a_host_without_a_perfect_matching():
    # vertex 6 is isolated, so no linkage extends to a perfect matching
    host = graph_from_edges(3, 3, [(1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5)])
    assert dapp_solve(host, [(1, 5)]) is False
    assert dapp_bruteforce(host, [(1, 5)])[0] is False
