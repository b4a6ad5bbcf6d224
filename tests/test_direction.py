from matchwidth.digraph import (
    digraph_from_arcs,
    is_strongly_connected,
    simple_directed_cycles,
    strong_components,
)
from matchwidth.direction import (
    conformal_cycles,
    m_direction,
    split,
)
from matchwidth.isomorphism import bipartite_isomorphic, digraph_isomorphic

from common import (
    bidirected_clique,
    canonical_cycle_matching,
    complete_bipartite,
    directed_cycle,
    even_cycle,
    k2,
)


def test_m_direction_c4():
    b = even_cycle(2)
    d, tag = m_direction(b, canonical_cycle_matching(2))
    assert d.n == 2
    assert d.arcs == frozenset({(1, 2), (2, 1)})
    assert set(tag.values()) == set(canonical_cycle_matching(2))


def test_m_direction_k2():
    d, _ = m_direction(k2(), frozenset({(1, 2)}))
    assert d.n == 1 and not d.arcs


def test_m_direction_c6_is_directed_triangle():
    d, _ = m_direction(even_cycle(3), canonical_cycle_matching(3))
    assert digraph_isomorphic(d, directed_cycle(3))


def test_split_singletons():
    b, m, _ = split(digraph_from_arcs(1, []))
    assert bipartite_isomorphic(b, k2())
    assert len(m) == 1


def test_split_bidirected_k3_is_k33():
    b, _, _ = split(bidirected_clique(3))
    assert bipartite_isomorphic(b, complete_bipartite(3, 3))


def test_split_directed_triangle_is_c6():
    b, m, _ = split(directed_cycle(3))
    assert bipartite_isomorphic(b, even_cycle(3), m, canonical_cycle_matching(3))


def test_round_trip_small_corpus():
    cases = [
        (even_cycle(2), canonical_cycle_matching(2)),
        (even_cycle(3), canonical_cycle_matching(3)),
        (even_cycle(4), canonical_cycle_matching(4)),
        (complete_bipartite(3, 3), frozenset({(1, 4), (2, 5), (3, 6)})),
    ]
    for b, m in cases:
        d, _ = m_direction(b, m)
        b2, m2, _ = split(d)
        assert bipartite_isomorphic(b, b2, m, m2, allow_swap=False)


def test_cycle_bijection():
    # M-conformal cycles of B correspond to directed cycles of the M-direction
    for k in (2, 3, 4):
        b = even_cycle(k)
        m = canonical_cycle_matching(k)
        d, tag = m_direction(b, m)
        inv = {e: v for v, e in tag.items()}
        bcycles = conformal_cycles(b, m)
        dcycles = simple_directed_cycles(d)
        assert len(bcycles) == len(dcycles)
        images = set()
        for cyc in bcycles:
            verts = set(cyc)
            matched = frozenset(inv[e] for e in m if e[0] in verts)
            images.add(matched)
        assert images == {frozenset(c) for c in dcycles}
    b = complete_bipartite(3, 3)
    m = frozenset({(1, 4), (2, 5), (3, 6)})
    d, _ = m_direction(b, m)
    assert len(conformal_cycles(b, m)) == len(simple_directed_cycles(d))


def test_scc_helpers():
    d = digraph_from_arcs(4, [(1, 2), (2, 1), (3, 4)])
    comps = {frozenset(c) for c in strong_components(d)}
    assert frozenset({1, 2}) in comps and frozenset({3}) in comps
    assert not is_strongly_connected(d)
    assert is_strongly_connected(directed_cycle(5))
