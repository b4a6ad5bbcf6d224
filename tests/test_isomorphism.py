import random
from itertools import permutations

import pytest

from matchwidth.bigraph import graph_from_edges
from matchwidth.isomorphism import (
    bipartite_automorphisms,
    bipartite_isomorphisms,
    canonical_bipartite,
    canonical_digraph,
    swap_colours,
)
from matchwidth.digraph import Digraph

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


def random_bipartite(rng, n1, n2):
    return graph_from_edges(
        n1,
        n2,
        [(u, n1 + v) for u in range(1, n1 + 1) for v in range(1, n2 + 1) if rng.random() < 0.5],
    )


def is_isomorphism(f, b, c):
    return sorted(f) == list(b.vertices) and {
        (min(f[u], f[v]), max(f[u], f[v])) for u, v in b.edges
    } == c.edges


def test_colour_swapping_isomorphisms():
    asymmetric = graph_from_edges(
        4, 4, [(1, 5), (1, 6), (1, 7), (1, 8), (2, 5), (2, 6), (3, 5), (3, 7), (4, 6), (4, 8)]
    )
    assert next(bipartite_isomorphisms(asymmetric, swap_colours(asymmetric)), None) is None
    for h in (even_cycle(2), even_cycle(3), even_cycle(4), complete_bipartite(3, 3)):
        c = swap_colours(h)
        f = next(bipartite_isomorphisms(h, c))
        assert is_isomorphism(f, h, c)
    # every isomorphism is one, and there are as many as automorphisms
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 4)
        b = random_bipartite(rng, n, n)
        c = swap_colours(b)
        found = list(bipartite_isomorphisms(b, c))
        assert all(is_isomorphism(f, b, c) for f in found)
        assert len(found) in (0, len(bipartite_automorphisms(b)))


def test_isomorphisms_match_networkx():
    """Colour-swapping isomorphisms, colour-respecting canonical forms and
    colour-preserving automorphisms against networkx's VF2 matcher."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

    def nx_graph(b, swapped=False):
        g = nx.Graph()
        for v in b.vertices:
            g.add_node(v, colour=(b.colour(v) == 1) != swapped)
        g.add_edges_from(b.edges)
        return g

    same_colour = categorical_node_match("colour", None)
    rng = random.Random(37)
    for _ in range(150):
        n = rng.randint(1, 4)
        b = random_bipartite(rng, n, n)
        # a colour-swapping automorphism of b is a colour-respecting
        # isomorphism onto b with its colours exchanged
        swapping = nx.is_isomorphic(nx_graph(b), nx_graph(b, swapped=True), node_match=same_colour)
        c = swap_colours(b)
        assert (next(bipartite_isomorphisms(b, c), None) is not None) == swapping
        assert (
            canonical_bipartite(b, allow_swap=False) == canonical_bipartite(c, allow_swap=False)
        ) == swapping
        g = nx_graph(b)
        preserving = sum(1 for _ in GraphMatcher(g, g, node_match=same_colour).isomorphisms_iter())
        assert len(bipartite_automorphisms(b)) == preserving


def sample_digraph(rng, n, arcs):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    return Digraph(n, frozenset(rng.sample(pairs, arcs)))


def sample_bipartite(rng, n1, n2, edges):
    pairs = [(u, n1 + v) for u in range(1, n1 + 1) for v in range(1, n2 + 1)]
    return graph_from_edges(n1, n2, rng.sample(pairs, edges))


def test_canonical_forms_match_networkx():
    """Equal canonical forms exactly when networkx's VF2 matcher finds an
    isomorphism: digraphs against relabelled copies and against distinct
    random digraphs of the same size, and pairs of distinct random
    bipartite graphs, with and without the colour swap."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import categorical_node_match

    def nx_digraph(d):
        g = nx.DiGraph()
        g.add_nodes_from(d.vertices)
        g.add_edges_from(d.arcs)
        return g

    def nx_graph(b, swapped=False):
        g = nx.Graph()
        for v in b.vertices:
            g.add_node(v, colour=(b.colour(v) == 1) != swapped)
        g.add_edges_from(b.edges)
        return g

    same_colour = categorical_node_match("colour", None)
    rng = random.Random(43)
    verdicts = []
    for _ in range(200):
        n = rng.randint(1, 5)
        arcs = rng.randint(0, n * (n - 1))
        d = sample_digraph(rng, n, arcs)
        order = list(d.vertices)
        rng.shuffle(order)
        image = Digraph(n, frozenset((order[u - 1], order[v - 1]) for u, v in d.arcs))
        assert nx.is_isomorphic(nx_digraph(d), nx_digraph(image))
        assert canonical_digraph(d) == canonical_digraph(image)
        other = sample_digraph(rng, n, arcs)
        iso = nx.is_isomorphic(nx_digraph(d), nx_digraph(other))
        assert (canonical_digraph(d) == canonical_digraph(other)) == iso
        verdicts.append(iso)
    for _ in range(200):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        edges = rng.randint(0, n1 * n2)
        b = sample_bipartite(rng, n1, n2, edges)
        c = sample_bipartite(rng, *rng.choice([(n1, n2), (n2, n1)]), edges)
        kept = nx.is_isomorphic(nx_graph(b), nx_graph(c), node_match=same_colour)
        swapped = nx.is_isomorphic(nx_graph(b), nx_graph(c, swapped=True), node_match=same_colour)
        fixed = canonical_bipartite(b, allow_swap=False) == canonical_bipartite(c, allow_swap=False)
        assert fixed == kept
        assert (canonical_bipartite(b) == canonical_bipartite(c)) == (kept or swapped)
        verdicts += [kept, swapped]
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9
