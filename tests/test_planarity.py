import random

import pytest

from matchwidth.bigraph import BipartiteGraph
from matchwidth.planarity import contains_kuratowski_subdivision, planarity_test

from common import complete_bipartite, even_cycle


def random_bipartite(rng: random.Random, n1: int, n2: int, m: int) -> BipartiteGraph:
    pool = [(u, v) for u in range(1, n1 + 1) for v in range(n1 + 1, n1 + n2 + 1)]
    return BipartiteGraph(n1, n2, frozenset(rng.sample(pool, min(m, len(pool)))))


def test_planarity_matches_kuratowski_oracle():
    rng = random.Random(31)
    seen = set()
    for _ in range(400):
        n1, n2 = rng.randint(3, 4), rng.randint(3, 4)
        n = n1 + n2
        g = random_bipartite(rng, n1, n2, rng.randint(n, 2 * n - 4))
        planar = planarity_test(g)
        assert planar == (not contains_kuratowski_subdivision(g))
        seen.add(planar)
    assert seen == {True, False}


def test_planarity_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    seen = set()
    for _ in range(150):
        n1, n2 = rng.randint(4, 8), rng.randint(4, 8)
        n = n1 + n2
        g = random_bipartite(rng, n1, n2, rng.randint(n, 2 * n - 4))
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        planar = planarity_test(g)
        assert planar == nx.check_planarity(h)[0]
        seen.add(planar)
    assert seen == {True, False}


def test_edge_count_refuses_k33_before_any_block_test(monkeypatch):
    # K3,3 has 9 edges on 6 vertices, more than the 2n - 4 = 8 of a planar
    # bipartite graph; C6 has 6 and takes one block test
    import matchwidth.planarity as planarity

    calls = []
    block_test = planarity._planar_block

    def counted(*args):
        calls.append(args)
        return block_test(*args)

    monkeypatch.setattr(planarity, "_planar_block", counted)
    assert not planarity_test(complete_bipartite(3, 3))
    assert calls == []
    assert planarity_test(even_cycle(3))
    assert len(calls) == 1
