import random

import pytest

from matchwidth.bigraph import Graph
from matchwidth.planarity import contains_kuratowski_subdivision, planarity_test


def random_graph(rng: random.Random, n: int, m: int) -> Graph:
    pool = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return Graph(n, frozenset(rng.sample(pool, min(m, len(pool)))))


def test_planarity_matches_kuratowski_oracle():
    rng = random.Random(31)
    seen = set()
    for _ in range(400):
        n = rng.randint(5, 7)
        g = random_graph(rng, n, rng.randint(n, 3 * n - 6))
        planar = planarity_test(g)
        assert planar == (not contains_kuratowski_subdivision(g))
        seen.add(planar)
    assert seen == {True, False}


def test_planarity_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    seen = set()
    for _ in range(150):
        n = rng.randint(8, 16)
        g = random_graph(rng, n, rng.randint(n, 3 * n - 6))
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        planar = planarity_test(g)
        assert planar == nx.check_planarity(h)[0]
        seen.add(planar)
    assert seen == {True, False}
