import random

import pytest

from matchwidth.bigraph import (
    enumerate_perfect_matchings,
    graph_from_edges,
    has_perfect_matching,
    induced_subgraph,
    is_conformal,
    is_matching_covered,
    is_perfect,
    some_perfect_matching,
)
from matchwidth.digraph import digraph_from_arcs
from matchwidth.direction import m_direction
from matchwidth.errors import NotMatchingCovered, NotStronglyConnected, OddOrder
from matchwidth.grids import (
    cylindrical_grid,
    cylindrical_grid_digraph,
    ear_decomposition,
    ep_gadget,
    model_cgq_in_cg3k,
    quadrangulation,
    square_grid,
    square_grid_coords,
    square_grid_model,
    switched_matching,
)
from matchwidth.isomorphism import bipartite_isomorphic, digraph_isomorphic
from matchwidth.minors import residual_matching, validate_model

from common import (
    bidirected_clique,
    complete_bipartite,
    cube,
    even_cycle,
    k2,
    path_graph,
    random_bipartite_with_pm,
)


def test_cg1_is_c4():
    b, m, _ = cylindrical_grid(1)
    assert b.n == 4 and len(b.edges) == 4
    assert bipartite_isomorphic(b, even_cycle(2))
    assert is_perfect(b, m)


def test_cg2_counts():
    b, m, _ = cylindrical_grid(2)
    assert b.n == 16
    # edge families of the definition: 4k^2 ring edges plus 2k(k-1) spokes
    assert len(b.edges) == 20
    assert len(m) == 8 and is_perfect(b, m)
    assert is_matching_covered(b)


def test_cg3_matching_covered():
    b, m, _ = cylindrical_grid(3)
    assert b.n == 36 and is_perfect(b, m)
    assert is_matching_covered(b)


def test_quadrangulation_counts():
    b1, _, _ = quadrangulation(1)
    assert len(b1.edges) == 4  # nothing added at order 1
    b2, m2, _ = quadrangulation(2)
    assert len(b2.edges) == 20 + 4
    assert is_perfect(b2, m2)


def test_m_direction_of_cg1_is_two_cycle():
    b, m, _ = cylindrical_grid(1)
    d, _ = m_direction(b, m)
    assert digraph_isomorphic(d, digraph_from_arcs(2, [(1, 2), (2, 1)]))


def test_model_cgq_in_cg3(k=1):
    """Paper statement: the quadrangulation of order k is a matching minor of
    the cylindrical matching grid CG_3k, by an explicit model (k = 1)."""
    host, _, _ = cylindrical_grid(3)
    pattern, _, _ = quadrangulation(1)
    mu = model_cgq_in_cg3k(1)
    assert validate_model(host, pattern, mu)


def test_model_cgq_edge_paths_internally_conformal():
    """Paper statement, as above: the model's edge paths are internally
    conformal for the canonical matching of CG_3k (k = 1)."""
    host, canonical, _ = cylindrical_grid(3)
    mu = model_cgq_in_cg3k(1)
    mate = {}
    for u, v in canonical:
        mate[u] = v
        mate[v] = u
    for path in mu.edge_models.values():
        inner = path[1:-1]
        for i in range(0, len(inner), 2):
            assert mate[inner[i]] == inner[i + 1]


@pytest.mark.slow
def test_model_cgq_in_cg6():
    """Paper statement: the quadrangulation of order 2 is a matching minor
    of CG_6, by the explicit model."""
    host, _, _ = cylindrical_grid(6)
    pattern, _, _ = quadrangulation(2)
    mu = model_cgq_in_cg3k(2)
    assert validate_model(host, pattern, mu)


def test_square_grid_basics():
    c4 = square_grid(2, 2)
    assert bipartite_isomorphic(c4, even_cycle(2))
    g = square_grid(4, 4)
    assert g.n == 16 and len(g.edges) == 24
    assert bipartite_isomorphic(square_grid(1, 2), k2())


def test_square_grid_model_4():
    """Paper statement: the quadrangulation of order k (k even) holds the
    k x k grid as a matching minor, by a model conformal for the switched
    matching whose residual matching is perfect (k = 4)."""
    mu = square_grid_model(4)
    host, switched, _ = switched_matching(4)
    grid = square_grid(4, 4)
    assert validate_model(host, grid, mu)
    used = mu.total_vertices()
    inside = frozenset(e for e in switched if e[0] in used and e[1] in used)
    covered = {x for e in inside for x in e}
    assert covered == set(used)
    res = residual_matching(grid, mu, inside)
    assert is_perfect(grid, res)


def test_square_grid_model_rejects_odd():
    with pytest.raises(OddOrder):
        square_grid_model(5)


@pytest.mark.slow
def test_square_grid_model_6():
    """Paper statement, as above, for k = 6."""
    mu = square_grid_model(6)
    host, switched, _ = switched_matching(6)
    grid = square_grid(6, 6)
    assert validate_model(host, grid, mu)


def test_ear_decomposition_counts():
    c4 = even_cycle(2)
    stages = ear_decomposition(c4)
    assert len(stages) == 4 - 4 + 2
    k33 = complete_bipartite(3, 3)
    stages33 = ear_decomposition(k33)
    assert len(stages33) == 9 - 6 + 2
    assert ear_decomposition(k2()) == [(frozenset({(1, 2)}), None)]


def test_ear_decomposition_stage_invariants():
    b = complete_bipartite(3, 3)
    for edges, ear in ear_decomposition(b):
        verts = frozenset(x for e in edges for x in e)
        assert is_conformal(b, frozenset(b.vertices) - verts)
    with pytest.raises(NotMatchingCovered):
        ear_decomposition(path_graph(3))


# The ears each graph's decomposition adds, in order, frozen from the
# decomposition that listed every alternating path and kept the least one
# passing a perfect matching check and a matching covered check.
PINNED_EARS = [
    (even_cycle(3), [(1, 6, 3, 5, 2, 4)]),
    (complete_bipartite(3, 3), [(1, 5, 2, 4), (1, 6, 3, 4), (2, 6), (3, 5)]),
    (cube(), [(1, 6, 2, 5), (1, 7, 3, 5), (2, 8, 4, 6), (3, 8), (4, 7)]),
    (square_grid(2, 3), [(1, 5, 3, 4), (3, 6, 2, 4)]),
    (
        square_grid(4, 4),
        [
            (1, 11, 3, 9), (3, 13, 5, 11), (5, 15, 7, 13), (3, 12, 4, 10, 2, 9), (2, 12),
            (4, 14, 6, 12), (6, 13), (6, 16, 8, 14), (7, 16),
        ],
    ),
    (
        cylindrical_grid(2)[0],
        [(1, 12, 4, 11, 3, 10, 2, 9), (1, 13, 5, 16, 8, 12), (3, 15, 7, 14, 6, 10), (6, 13), (8, 15)],
    ),
]


@pytest.mark.parametrize("b, ears", PINNED_EARS)
def test_ear_decomposition_pinned_ears(b, ears):
    assert [ear for _, ear in ear_decomposition(b)] == [None, *ears]


def test_ear_decomposition_random_matching_covered():
    rng = random.Random(37)
    checked = 0
    while checked < 200:
        n1 = rng.randint(2, 7)
        b = random_bipartite_with_pm(rng, n1, rng.randint(n1, min(3 * n1, n1 * n1 - n1)))
        if not is_matching_covered(b):
            continue
        checked += 1
        m = some_perfect_matching(b)
        stages = ear_decomposition(b)
        assert len(stages) == len(b.edges) - b.n + 2
        assert stages[0] == (frozenset({min(m)}), None)
        assert stages[-1][0] == b.edges
        for (before, _), (edges, ear) in zip(stages, stages[1:]):
            verts = frozenset(x for e in edges for x in e)
            sub, _, _ = induced_subgraph(graph_from_edges(b.n1, b.n2, edges), verts)
            assert is_matching_covered(sub) and is_conformal(b, verts)
            # an odd path: ends in the stage before, inner vertices outside it
            # and matched by m in pairs along the path
            inside = {x for e in before for x in e}
            assert len(ear) % 2 == 0 and len(set(ear)) == len(ear)
            assert ear[0] in inside and ear[-1] in inside
            assert not inside & set(ear[1:-1])
            path = [b.edge(ear[i], ear[i + 1]) for i in range(len(ear) - 1)]
            assert set(path[1::2]) <= m and not set(path[::2]) & m
            assert edges == before | set(path) and before < edges


def test_ear_decomposition_10x10_grid():
    assert len(ear_decomposition(square_grid(10, 10))) == 82


def test_cylindrical_grid_digraph():
    d, outer = cylindrical_grid_digraph(2)
    assert d.n == 8
    assert sorted(outer) == list(range(1, 5))
    # the outer labels trace a directed cycle
    for s in range(1, 5):
        assert (outer[s], outer[s % 4 + 1]) in d.arcs


def test_ep_gadget_sizes():
    two_cycle = digraph_from_arcs(2, [(1, 2), (2, 1)])
    d = ep_gadget(two_cycle, (1, 2), 1)
    assert d.n == 2 * 1 + 1 * 2
    bk3 = bidirected_clique(3)
    d2 = ep_gadget(bk3, (1, 2), 2)
    assert d2.n == 2 * 4 + 2 * 3
    with pytest.raises(NotStronglyConnected):
        ep_gadget(digraph_from_arcs(2, [(1, 2)]), (1, 2), 1)
