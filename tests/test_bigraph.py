import random

import pytest
from hypothesis import given, settings, strategies as st

from matchwidth.bigraph import (
    BipartiteGraph,
    admissible_edges,
    admissible_edges_for,
    bicontract,
    enumerate_perfect_matchings,
    graph_from_edges,
    has_perfect_matching,
    is_conformal,
    is_extendable,
    is_matching_covered,
    max_matching,
    some_perfect_matching,
    induced_subgraph,
)
from matchwidth.decomp import _is_elementary_set
from matchwidth.digraph import Digraph, vertex_mask
from matchwidth.direction import conformal_cycles, m_direction
from matchwidth.errors import DegreeNotTwo, NoPerfectMatching, OracleLimitExceeded
from matchwidth.porosity import _crossing_cycle, elementary_components
from matchwidth.isomorphism import bipartite_isomorphic

from common import (
    canonical_cycle_matching,
    complete_bipartite,
    even_cycle,
    greedy_trap_path,
    k2,
    path_graph,
    random_bipartite_with_pm,
    recursion_headroom,
    ref_admissible_edges,
    ref_max_matching,
)


def test_has_pm_basics():
    assert has_perfect_matching(even_cycle(2))  # C4
    assert has_perfect_matching(k2())
    star = graph_from_edges(1, 3, [(1, 2), (1, 3), (1, 4)])
    assert not has_perfect_matching(star)


def test_enumerate_counts():
    assert len(enumerate_perfect_matchings(even_cycle(2))) == 2
    assert len(enumerate_perfect_matchings(complete_bipartite(3, 3))) == 6
    assert len(enumerate_perfect_matchings(k2())) == 1


def test_enumerate_order_and_dedup():
    pms = enumerate_perfect_matchings(complete_bipartite(3, 3))
    keys = [tuple(sorted(m)) for m in pms]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_enumerate_limits():
    with pytest.raises(OracleLimitExceeded):
        enumerate_perfect_matchings(complete_bipartite(13, 13))


def test_extendable():
    c6 = even_cycle(3)
    for e in c6.edges:
        assert is_extendable(c6, [e])
    p4 = path_graph(3)
    # the middle edge of the path is not extendable
    mid = next(e for e in p4.edges if e == (2, 3))
    assert not is_extendable(p4, [mid])
    assert is_extendable(c6, [])


def test_conformal():
    c4 = even_cycle(2)
    # two adjacent vertices leave a K2
    assert is_conformal(c4, [1, 3])
    # both V1 vertices leave two isolated white vertices
    assert not is_conformal(c4, [1, 2])
    assert is_conformal(c4, [])


def test_admissible():
    c6 = even_cycle(3)
    assert admissible_edges(c6) == c6.edges
    p4 = path_graph(3)
    assert admissible_edges(p4) == frozenset({(1, 3), (2, 4)})
    k33 = complete_bipartite(3, 3)
    assert admissible_edges(k33) == k33.edges


def test_matching_covered():
    assert is_matching_covered(even_cycle(3))
    assert not is_matching_covered(path_graph(3))
    two_c4 = graph_from_edges(
        4, 4, [(1, 5), (1, 6), (2, 5), (2, 6), (3, 7), (3, 8), (4, 7), (4, 8)]
    )
    assert not is_matching_covered(two_c4)


def test_bicontract_on_cycles():
    c6 = even_cycle(3)
    smaller, _, _ = bicontract(c6, 1)
    assert bipartite_isomorphic(smaller, even_cycle(2))
    c4 = even_cycle(2)
    tiny, _, _ = bicontract(c4, 4)
    assert bipartite_isomorphic(tiny, k2())
    p4 = path_graph(3)
    inner, _, _ = bicontract(p4, 3)
    assert bipartite_isomorphic(inner, k2())


def test_bicontract_requires_degree_two():
    k33 = complete_bipartite(3, 3)
    with pytest.raises(DegreeNotTwo):
        bicontract(k33, 1)


def test_bicontract_preserves_pm_existence():
    graphs = [even_cycle(2), even_cycle(3), even_cycle(4), path_graph(5)]
    for b in graphs:
        for v in b.vertices:
            if b.degree(v) != 2:
                continue
            image, _, _ = bicontract(b, v)
            assert has_perfect_matching(image) == has_perfect_matching(b)


def test_extendable_matches_enumeration():
    for b in [even_cycle(2), even_cycle(3), path_graph(5), complete_bipartite(3, 3)]:
        pms = enumerate_perfect_matchings(b)
        for e in sorted(b.edges):
            by_enum = any(e in m for m in pms)
            assert is_extendable(b, [e]) == by_enum


def _random_bigraph(rng: random.Random) -> BipartiteGraph:
    """n1 in 1..7; one graph in five unbalanced, half with a planted PM."""
    n1 = rng.randint(1, 7)
    n2 = n1 if rng.random() < 0.8 else max(1, n1 + rng.choice((-1, 1)))
    p = rng.uniform(0.1, 0.5)
    edges = {(i, n1 + j) for i in range(1, n1 + 1) for j in range(1, n2 + 1) if rng.random() < p}
    if n1 == n2 and rng.random() < 0.5:
        edges |= {(i, n1 + i) for i in range(1, n1 + 1)}
    return graph_from_edges(n1, n2, edges)


def _components(vertices, edges) -> set[frozenset[int]]:
    nbrs = {v: set() for v in vertices}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    comps, seen = set(), set()
    for v in vertices:
        if v in seen:
            continue
        comp, stack = {v}, [v]
        while stack:
            for y in nbrs[stack.pop()] - comp:
                comp.add(y)
                stack.append(y)
        seen |= comp
        comps.add(frozenset(comp))
    return comps


def _elementary_by_definition(b: BipartiteGraph) -> bool:
    pms = enumerate_perfect_matchings(b)
    union = {e for m in pms for e in m}
    return bool(pms) and len(_components(b.vertices, union)) == 1


def test_admissible_is_union_of_pms():
    for b in [even_cycle(3), path_graph(5), complete_bipartite(2, 2)]:
        pms = enumerate_perfect_matchings(b)
        union = frozenset(e for m in pms for e in m)
        assert admissible_edges(b) == union

    rng = random.Random(5)
    seen = {"no_pm": 0, "unbalanced": 0, "split": 0, "crossing": 0}
    for _ in range(300):
        b = _random_bigraph(rng)
        adm = admissible_edges(b)
        assert adm == frozenset(e for e in b.edges if is_extendable(b, [e]))
        pms = enumerate_perfect_matchings(b)
        assert adm == frozenset(e for m in pms for e in m)
        seen["unbalanced"] += b.n1 != b.n2
        for _ in range(3):
            xs = frozenset(v for v in b.vertices if rng.random() < 0.6)
            sub, _, _ = induced_subgraph(b, xs)
            assert _is_elementary_set(b, xs) == _elementary_by_definition(sub)
        if not pms:
            seen["no_pm"] += 1
            with pytest.raises(NoPerfectMatching):
                elementary_components(b)
            continue
        comps = elementary_components(b).components
        assert set(comps) == _components(b.vertices, adm)
        assert list(comps) == sorted(comps, key=min)

        # a shore of whole matching edges and an `allowed` set that splits
        # some of them, as in the lambda-loop of `guarding_set`
        if b.n1 > 5:
            continue
        m = pms[rng.randrange(len(pms))]
        cycles = conformal_cycles(b, m)
        d, tag = m_direction(b, m)
        for _ in range(3):
            shore = frozenset(x for e in m if rng.random() < 0.5 for x in e)
            allowed = frozenset(v for v in b.vertices if rng.random() < 0.8)
            seen["split"] += any((u in allowed) != (v in allowed) for u, v in m)
            expected = any(
                set(c) <= allowed and any(v in shore for v in c) and any(v not in shore for v in c)
                for c in cycles
            )
            seen["crossing"] += expected
            side = vertex_mask(i for i, e in tag.items() if e[0] in shore)
            banned = vertex_mask(i for i, (u, v) in tag.items() if u not in allowed or v not in allowed)
            assert _crossing_cycle(d, side, banned) == expected
    assert min(seen.values()) >= 10, seen


def _chained_pieces(rng: random.Random) -> BipartiteGraph:
    """Pieces with perfect matchings, each a K2 or a 2k-cycle with random
    chords, joined by edges from a piece's V1 to a later piece's V2 only, so
    no joining edge lies in a perfect matching; labels shuffled per class."""
    sizes = [rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(1, 4))]
    n1 = sum(sizes)
    blacks = list(range(1, n1 + 1))
    whites = list(range(n1 + 1, 2 * n1 + 1))
    rng.shuffle(blacks)
    rng.shuffle(whites)
    edges = set()
    start = 0
    pieces = []
    for k in sizes:
        xs, ys = blacks[start : start + k], whites[start : start + k]
        start += k
        pieces.append((xs, ys))
        edges.update(zip(xs, ys))
        if k > 1:
            edges.update((xs[i], ys[i - 1]) for i in range(k))
            edges.update((x, y) for x in xs for y in ys if rng.random() < 0.3)
    for i, (xs, _) in enumerate(pieces):
        for _, ys in pieces[i + 1 :]:
            edges.update((x, y) for x in xs for y in ys if rng.random() < 0.3)
    return graph_from_edges(n1, n1, edges)


def test_admissible_edges_matches_the_reference():
    # the closure split on M-direction masks against the route it replaced,
    # part membership from `direction.elementary_parts`
    rng = random.Random(41)
    seen = {"unbalanced": 0, "no_pm": 0, "isolated": 0, "k2_and_larger": 0, "all": 0}
    for i in range(400):
        b = (_random_bigraph if i % 2 else _chained_pieces)(rng)
        if i % 4 >= 2:
            # cut every edge at one vertex
            x = rng.choice(b.vertices)
            b = graph_from_edges(b.n1, b.n2, [e for e in b.edges if x not in e])
        got = admissible_edges(b)
        assert got == ref_admissible_edges(b), (b.n1, b.n2, sorted(b.edges))
        sizes = sorted(len(c) for c in _components(b.vertices, got) if len(c) > 1)
        seen["unbalanced"] += b.n1 != b.n2
        seen["no_pm"] += b.n1 == b.n2 and not has_perfect_matching(b)
        seen["isolated"] += any(not b.adj[v] for v in b.vertices)
        seen["k2_and_larger"] += bool(sizes) and sizes[0] == 2 and sizes[-1] > 2
        seen["all"] += bool(got) and got == b.edges
    assert min(seen.values()) >= 20, seen


def test_admissible_edges_do_not_depend_on_the_perfect_matching():
    # every perfect matching of b gives `admissible_edges_for` the same
    # edges, the union of b's perfect matchings
    rng = random.Random(43)
    several = 0
    for _ in range(150):
        b = _random_bigraph(rng)
        pms = enumerate_perfect_matchings(b)
        union = frozenset(e for m in pms for e in m)
        for m in pms[:6]:
            assert admissible_edges_for(b, m) == union
        several += len(pms) > 1
    assert several >= 30


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_random_graphs_pm_consistency(n1, data):
    # random sub-square graphs: HK existence agrees with brute enumeration
    all_pairs = [(i, n1 + j) for i in range(1, n1 + 1) for j in range(1, n1 + 1)]
    picked = data.draw(st.lists(st.sampled_from(all_pairs), max_size=14, unique=True))
    b = graph_from_edges(n1, n1, picked)
    pms = enumerate_perfect_matchings(b)
    assert has_perfect_matching(b) == (len(pms) > 0)
    m = some_perfect_matching(b)
    assert (m is not None) == (len(pms) > 0)
    if m is not None:
        assert m in pms


def test_max_matching_size_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    for _ in range(150):
        n1, n2 = rng.randint(0, 9), rng.randint(0, 9)
        p = rng.uniform(0.05, 0.6)
        b = graph_from_edges(
            n1, n2, [(u, v) for u in range(1, n1 + 1) for v in range(n1 + 1, n1 + n2 + 1) if rng.random() < p]
        )
        banned = frozenset(v for v in b.vertices if rng.random() < 0.2)
        got = max_matching(b, banned)
        assert all(v in b.adj[u] and u not in banned and v not in banned for u, v in got.items())
        assert len(set(got.values())) == len(got)
        g = nx.Graph()
        g.add_nodes_from(v for v in b.vertices if v not in banned)
        g.add_edges_from((u, v) for u, v in b.edges if u not in banned and v not in banned)
        top = [u for u in b.v1 if u not in banned]
        assert len(got) == len(nx.bipartite.hopcroft_karp_matching(g, top)) // 2


def test_max_matching_augments_along_a_path_of_any_length():
    # the last augmenting path runs through all 3,000 vertices; the search
    # keeps it on a stack of its own, so it needs no Python recursion
    b = greedy_trap_path(1500)
    with recursion_headroom(100):
        got = max_matching(b)
    assert got == {i: 3001 - i for i in b.v1}


def test_max_matching_matches_the_set_based_reference():
    # the same matching as the set-based search it replaced, on balanced,
    # unbalanced and unmatchable hosts, with and without banned vertices
    rng = random.Random(83)
    kinds = {"perfect": 0, "not perfect": 0, "unbalanced": 0, "banned": 0}
    for _ in range(600):
        n1 = rng.randint(0, 9)
        n2 = n1 if rng.random() < 0.6 else rng.randint(0, 9)
        if n1 == n2 and n1 and rng.random() < 0.5:
            b = random_bipartite_with_pm(rng, n1, rng.randint(0, n1 * n1 - n1))
        else:
            p = rng.uniform(0.05, 0.7)
            b = graph_from_edges(
                n1, n2, [(u, v) for u in range(1, n1 + 1) for v in range(n1 + 1, n1 + n2 + 1) if rng.random() < p]
            )
        cases = [frozenset()]
        if b.n:
            cases.append(frozenset(rng.sample(range(1, b.n + 1), rng.randint(1, b.n))))
        for banned in cases:
            got = max_matching(b, banned)
            assert got == ref_max_matching(b, banned)
            if banned:
                kinds["banned"] += 1
            elif n1 != n2:
                kinds["unbalanced"] += 1
            else:
                kinds["perfect" if len(got) == n1 else "not perfect"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_graph_constructors_check_their_input():
    # an edge given V2 end first is turned round; one that does not join V1
    # to V2, or leaves the vertex range, is refused, as are a negative class
    # size, a loop and an arc out of range
    assert BipartiteGraph(2, 2, {(3, 1)}).edges == {(1, 3)}
    for args in ((2, 2, {(1, 2)}), (2, 2, {(1, 9)}), (-1, 2)):
        with pytest.raises(ValueError):
            BipartiteGraph(*args)
    for arcs in ({(1, 1)}, {(1, 3)}):
        with pytest.raises(ValueError):
            Digraph(2, arcs)
