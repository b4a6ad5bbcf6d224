import random
from itertools import permutations

from matchwidth.bigraph import graph_from_edges
from matchwidth.isomorphism import bipartite_automorphisms

from common import complete_bipartite, even_cycle


def automorphisms_bruteforce(b):
    """Every pair of colour-class permutations that maps edges onto edges,
    in lexicographic order."""
    out = []
    for p1 in permutations(b.v1):
        for p2 in permutations(b.v2):
            image = dict(zip(b.v1, p1))
            image.update(zip(b.v2, p2))
            if all((image[u], image[v]) in b.edges for u, v in b.edges):
                out.append(image)
    return out


def test_automorphisms_match_bruteforce():
    graphs = [even_cycle(2), even_cycle(3), even_cycle(4), complete_bipartite(3, 3)]
    rng = random.Random(29)
    for _ in range(150):
        n1, n2 = rng.randint(0, 4), rng.randint(0, 4)
        pairs = [
            (u, n1 + v)
            for u in range(1, n1 + 1)
            for v in range(1, n2 + 1)
            if rng.random() < 0.5
        ]
        graphs.append(graph_from_edges(n1, n2, pairs))
    for b in graphs:
        assert bipartite_automorphisms(b) == automorphisms_bruteforce(b)
    assert len(bipartite_automorphisms(even_cycle(4))) == 8
    assert len(bipartite_automorphisms(complete_bipartite(3, 3))) == 36
