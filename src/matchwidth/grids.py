"""Explicit generators: cylindrical matching grids, quadrangulations, square
grids, matching minor models of grids, ear decompositions, and the
Erdos-Posa gadget digraph."""

from __future__ import annotations

from dataclasses import dataclass

from .bigraph import (
    BipartiteGraph,
    Edge,
    Matching,
    graph_from_edges,
    is_matching_covered,
    some_perfect_matching,
)
from .digraph import Digraph, is_strongly_connected
from .direction import m_direction
from .errors import (
    InvalidParameter,
    NotMatchingCovered,
    NotStronglyConnected,
    OddOrder,
    OddVertexCount,
)
from .minors import MatchingMinorModel


@dataclass(frozen=True)
class GridCoordinates:
    """Vertex ids of the ring/position pairs."""

    k: int
    to_id: dict[tuple[int, int], int]

    def id(self, ring: int, pos: int) -> int:
        return self.to_id[(ring, self.norm(pos))]

    def norm(self, pos: int) -> int:
        return (pos - 1) % (4 * self.k) + 1


def cylindrical_grid(k: int) -> tuple[BipartiteGraph, Matching, GridCoordinates]:
    """The cylindrical matching grid of order k with its canonical matching.

    k concentric rings of length 4k; ring i and i+1 joined at positions
    1 mod 4 (outward) and ring i to i-1 at positions 3 mod 4 (inward).
    """
    if k < 1:
        raise InvalidParameter(f"order {k} is not positive")
    length = 4 * k
    blacks = [(i, j) for i in range(1, k + 1) for j in range(1, length + 1, 2)]
    whites = [(i, j) for i in range(1, k + 1) for j in range(2, length + 1, 2)]
    to_id: dict[tuple[int, int], int] = {}
    for idx, pos in enumerate(blacks, start=1):
        to_id[pos] = idx
    for idx, pos in enumerate(whites, start=len(blacks) + 1):
        to_id[pos] = idx
    coords = GridCoordinates(k, to_id)

    edges: set[tuple[int, int]] = set()

    def add(p: tuple[int, int], q: tuple[int, int]) -> None:
        a = coords.id(*p)
        b = coords.id(*q)
        edges.add((min(a, b), max(a, b)))

    for i in range(1, k + 1):
        for j in range(1, length + 1):
            add((i, j), (i, j % length + 1))
    for i in range(1, k):
        for j in range(1, length + 1, 4):
            add((i, j), (i + 1, j + 1))
    for i in range(2, k + 1):
        for j in range(3, length + 1, 4):
            add((i, j), (i - 1, j + 1))

    matching = frozenset(
        (coords.id(i, 2 * r - 1), coords.id(i, 2 * r))
        for i in range(1, k + 1)
        for r in range(1, 2 * k + 1)
    )
    b = graph_from_edges(len(blacks), len(whites), edges)
    return b, matching, coords


def quadrangulation(k: int) -> tuple[BipartiteGraph, Matching, GridCoordinates]:
    """The canonical internal quadrangulation: CG_k plus the edges joining
    even positions of each ring to the next ring."""
    b, m, coords = cylindrical_grid(k)
    edges = set(b.edges)
    for i in range(1, k):
        for j in range(2, 4 * k + 1, 2):
            a = coords.id(i, j)
            c = coords.id(i + 1, coords.norm(j + 1))
            edges.add((min(a, c), max(a, c)))
    return graph_from_edges(b.n1, b.n2, edges), m, coords


def model_cgq_in_cg3k(k: int) -> MatchingMinorModel:
    """The explicit model of the quadrangulation of order k inside the
    cylindrical matching grid of order 3k.

    Vertex models are five-vertex barycentric paths around host rings
    3l-1; edge models follow the construction's coordinate scheme (ring
    edges and grid edges single host edges, quadrangulation edges
    seven-edge paths).  A check of the statement that the quadrangulation
    of order k is a matching minor of CG_3k.
    """
    if k < 1:
        raise InvalidParameter(f"order {k} is not positive")
    _, _, hc = cylindrical_grid(3 * k)
    pattern, _, pc = quadrangulation(k)

    def pat(level: int, j: int, name: str) -> int:
        base = {"a_down": 4 * j - 1, "b_up": 4 * j, "a_up": 4 * j + 1, "b_down": 4 * j + 2}
        return pc.id(level, pc.norm(base[name]))

    def hid(i: int, pos: int) -> int:
        return hc.id(i, hc.norm(pos))

    vertex_models: dict[int, frozenset[int]] = {}
    for level in range(1, k + 1):
        i = 3 * level - 1
        for j in range(1, k + 1):
            base = 12 * (j - 1)
            vertex_models[pat(level, j, "a_down")] = frozenset(
                {hid(i, base + 1), hid(i, base + 2), hid(i, base + 3), hid(i - 1, base + 4), hid(i - 1, base + 3)}
            )
            vertex_models[pat(level, j, "b_up")] = frozenset(
                {hid(i, base + 4), hid(i, base + 5), hid(i, base + 6), hid(i + 1, base + 3), hid(i + 1, base + 4)}
            )
            vertex_models[pat(level, j, "a_up")] = frozenset(
                {hid(i, base + 7), hid(i, base + 8), hid(i, base + 9), hid(i + 1, base + 10), hid(i + 1, base + 9)}
            )
            vertex_models[pat(level, j, "b_down")] = frozenset(
                {hid(i, base + 10), hid(i, base + 11), hid(i, base + 12), hid(i - 1, base + 9), hid(i - 1, base + 10)}
            )

    def pattern_edge(x: int, y: int) -> Edge:
        return pattern.edge(x, y)

    edge_models: dict[Edge, tuple[int, ...]] = {}
    for level in range(1, k + 1):
        i = 3 * level - 1
        for j in range(1, k + 1):
            base = 12 * (j - 1)
            prev = pat(level, j - 1 if j > 1 else k, "b_down")
            edge_models[pattern_edge(prev, pat(level, j, "a_down"))] = (
                hid(i, base), hid(i, base + 1),
            )
            edge_models[pattern_edge(pat(level, j, "a_down"), pat(level, j, "b_up"))] = (
                hid(i, base + 3), hid(i, base + 4),
            )
            edge_models[pattern_edge(pat(level, j, "b_up"), pat(level, j, "a_up"))] = (
                hid(i, base + 6), hid(i, base + 7),
            )
            edge_models[pattern_edge(pat(level, j, "a_up"), pat(level, j, "b_down"))] = (
                hid(i, base + 9), hid(i, base + 10),
            )
    for level in range(1, k):
        i = 3 * level - 1
        for j in range(1, k + 1):
            base = 12 * (j - 1)
            edge_models[pattern_edge(pat(level, j, "b_up"), pat(level + 1, j, "a_down"))] = (
                hid(i + 1, base + 4), hid(i + 2, base + 3),
            )
            edge_models[pattern_edge(pat(level, j, "a_up"), pat(level + 1, j, "b_down"))] = (
                hid(i + 1, base + 9), hid(i + 2, base + 10),
            )
            # quadrangulation edges: seven-edge paths through the two rings between
            edge_models[pattern_edge(pat(level, j, "b_up"), pat(level + 1, j, "a_up"))] = (
                hid(i + 1, base + 4), hid(i + 1, base + 5), hid(i + 1, base + 6),
                hid(i + 1, base + 7), hid(i + 1, base + 8), hid(i + 2, base + 7),
                hid(i + 2, base + 8), hid(i + 3, base + 7),
            )
            prev = pat(level, j - 1 if j > 1 else k, "b_down")
            base2 = 12 * (j - 2) if j > 1 else 12 * (k - 1)
            edge_models[pattern_edge(prev, pat(level + 1, j, "a_down"))] = (
                hid(i, base2 + 12), hid(i + 1, base2 + 11), hid(i + 1, base2 + 12),
                hid(i + 2, base2 + 11), hid(i + 2, base2 + 12), hid(i + 2, base2 + 13),
                hid(i + 2, base2 + 14), hid(i + 2, base2 + 15),
            )

    return MatchingMinorModel(vertex_models, edge_models)


# ---------------------------------------------------------------------------
# Square grids and the grid model inside the quadrangulation.
# ---------------------------------------------------------------------------


def square_grid(rows: int, cols: int) -> BipartiteGraph:
    """The rows x cols grid graph, bipartite by coordinate parity."""
    for side, count in (("row", rows), ("column", cols)):
        if count < 1:
            raise InvalidParameter(f"{side} count {count} is not positive")
    if (rows * cols) % 2:
        raise OddVertexCount("grid needs an even number of vertices")
    ids = square_grid_coords(rows, cols)
    edges = set()
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            if c < cols:
                edges.add(tuple(sorted((ids[(r, c)], ids[(r, c + 1)]))))
            if r < rows:
                edges.add(tuple(sorted((ids[(r, c)], ids[(r + 1, c)]))))
    n1 = rows * cols // 2
    return graph_from_edges(n1, rows * cols - n1, edges)


def square_grid_coords(rows: int, cols: int) -> dict[tuple[int, int], int]:
    blacks = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1) if (r + c) % 2 == 0]
    whites = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1) if (r + c) % 2 == 1]
    ids: dict[tuple[int, int], int] = {}
    for i, pos in enumerate(blacks, start=1):
        ids[pos] = i
    for i, pos in enumerate(whites, start=len(blacks) + 1):
        ids[pos] = i
    return ids


def switched_matching(k: int) -> tuple[BipartiteGraph, Matching, GridCoordinates]:
    """The quadrangulation of order k with the canonical matching switched
    along every second concentric cycle."""
    b, _, coords = quadrangulation(k)
    out = set()
    for i in range(1, k + 1):
        if i % 2 == 1:
            for r in range(1, 2 * k + 1):
                out.add(tuple(sorted((coords.id(i, 2 * r - 1), coords.id(i, 2 * r)))))
        else:
            for r in range(1, 2 * k + 1):
                out.add(
                    tuple(
                        sorted(
                            (coords.id(i, 2 * r), coords.id(i, coords.norm(2 * r + 1)))
                        )
                    )
                )
    return b, frozenset(tuple(e) for e in out), coords


def _grid_model_pieces(k: int) -> tuple[set[tuple[int, int]], set[frozenset[tuple[int, int]]]]:
    """Vertices (ring, pos) and edges of the iterative piece construction."""
    verts: set[tuple[int, int]] = set()
    edges: set[frozenset[tuple[int, int]]] = set()

    def ring_path(i: int, lo: int, hi: int) -> None:
        for p in range(lo, hi + 1):
            verts.add((i, p))
            if p > lo:
                edges.add(frozenset({(i, p - 1), (i, p)}))

    def cross(i: int, p: int, i2: int, q: int) -> None:
        verts.update({(i, p), (i2, q)})
        edges.add(frozenset({(i, p), (i2, q)}))

    def base_piece(i: int, j: int) -> None:
        ring_path(i, j, j + 4)
        ring_path(i + 1, j + 1, j + 5)
        cross(i, j, i + 1, j + 1)
        cross(i, j + 3, i + 1, j + 4)
        cross(i, j + 4, i + 1, j + 5)

    def width_piece(i: int, j: int) -> None:
        ring_path(i, j, j + 4)
        ring_path(i + 1, j + 1, j + 5)
        ring_path(i + 2, j + 2, j + 6)
        cross(i, j, i + 1, j + 1)
        cross(i, j + 1, i + 1, j + 2)
        cross(i, j + 4, i + 1, j + 5)
        cross(i + 1, j + 1, i + 2, j + 2)
        cross(i + 1, j + 4, i + 2, j + 5)
        cross(i + 1, j + 5, i + 2, j + 6)

    def height_piece(i: int, j: int) -> None:
        ring_path(i, j, j + 7)
        ring_path(i + 1, j + 1, j + 8)
        ring_path(i + 2, j + 4, j + 9)
        cross(i, j, i + 1, j + 1)
        cross(i, j + 3, i + 1, j + 4)
        cross(i, j + 4, i + 1, j + 5)
        cross(i, j + 7, i + 1, j + 8)
        cross(i + 1, j + 3, i + 2, j + 4)
        cross(i + 1, j + 4, i + 2, j + 5)
        cross(i + 1, j + 7, i + 2, j + 8)
        cross(i + 1, j + 8, i + 2, j + 9)

    # the C4 seed (a 2x2 grid)
    verts.update({(1, 1), (1, 2), (2, 2), (2, 3)})
    edges.add(frozenset({(1, 1), (1, 2)}))
    edges.add(frozenset({(2, 2), (2, 3)}))
    edges.add(frozenset({(1, 1), (2, 2)}))
    edges.add(frozenset({(1, 2), (2, 3)}))

    for z in range(2, k // 2 + 1):
        base_piece(1, 4 * z - 6)
        height_piece(2 * z - 2, 4 * z - 6)
        for i in range(1, z - 1):
            width_piece(2 * i, 4 * (z + i) - 7)
        for j in range(1, z - 1):
            width_piece(2 * z - 2, 4 * (z + j) - 3)
    return verts, edges


def square_grid_model(k: int) -> MatchingMinorModel:
    """A matching minor model of the k x k grid inside the quadrangulation
    of order k, conformal for the switched matching (k even, k >= 4): a
    check of the statement that the quadrangulation of order k holds the
    k x k grid as a matching minor."""
    if k % 2 or k < 4:
        raise OddOrder("order must be even and at least 4")
    host, _, coords = switched_matching(k)
    verts, edges = _grid_model_pieces(k)

    host_edges = set()
    for e in edges:
        (i1, p1), (i2, p2) = sorted(e)
        a, b = coords.id(i1, p1), coords.id(i2, p2)
        if not host.has_edge(a, b):
            raise AssertionError(f"piece edge {(i1, p1)}-{(i2, p2)} missing in host")
        host_edges.add((min(a, b), max(a, b)))

    # group the run of every ring into k columns of odd-size vertex models
    runs: dict[int, list[int]] = {}
    for i, p in verts:
        runs.setdefault(i, []).append(p)
    for i in runs:
        runs[i] = sorted(runs[i])
        lo, hi = runs[i][0], runs[i][-1]
        assert runs[i] == list(range(lo, hi + 1)), "ring run not contiguous"
    assert sorted(runs) == list(range(1, k + 1))

    crossings: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, k)}
    for e in edges:
        (i1, p1), (i2, p2) = sorted(e)
        if i1 != i2:
            crossings[i1].append((p1, p2))

    def ring_splits(i: int) -> list[list[tuple[int, int]]]:
        run = runs[i]
        total = len(run)
        out: list[list[tuple[int, int]]] = []

        def rec(start: int, groups: list[tuple[int, int]]) -> None:
            if len(groups) == k:
                if start == total:
                    out.append(list(groups))
                return
            remaining_groups = k - len(groups)
            for size in range(1, total - start + 1, 2):
                rest = total - start - size
                if rest < remaining_groups - 1:
                    break
                groups.append((run[start], run[start + size - 1]))
                rec(start + size, groups)
                groups.pop()

        rec(0, [])
        return out

    def column_of(groups: list[tuple[int, int]], pos: int) -> int | None:
        for c, (lo, hi) in enumerate(groups):
            if lo <= pos <= hi:
                return c if (pos - lo) % 2 == 0 else None  # anchors must be old
        return None

    chosen: dict[int, list[tuple[int, int]]] = {}

    def solve(i: int) -> bool:
        if i > k:
            return True
        for groups in ring_splits(i):
            if i > 1:
                ok = True
                for p1, p2 in crossings[i - 1]:
                    c1 = column_of(chosen[i - 1], p1)
                    c2 = column_of(groups, p2)
                    if c1 is None or c2 is None or c1 != c2:
                        ok = False
                        break
                if not ok:
                    continue
            chosen[i] = groups
            if solve(i + 1):
                return True
            del chosen[i]
        return False

    if not solve(1):
        raise AssertionError("grid model extraction failed")

    grid_ids = square_grid_coords(k, k)
    grid = square_grid(k, k)
    vertex_models: dict[int, frozenset[int]] = {}
    for i in range(1, k + 1):
        for c, (lo, hi) in enumerate(chosen[i], start=1):
            vertex_models[grid_ids[(i, c)]] = frozenset(
                coords.id(i, p) for p in range(lo, hi + 1)
            )
    edge_models: dict[Edge, tuple[int, ...]] = {}
    for i in range(1, k + 1):
        for c in range(1, k):
            hi_prev = chosen[i][c - 1][1]
            lo_next = chosen[i][c][0]
            e = grid.edge(grid_ids[(i, c)], grid_ids[(i, c + 1)])
            edge_models[e] = (coords.id(i, hi_prev), coords.id(i, lo_next))
    for i in range(1, k):
        for p1, p2 in crossings[i]:
            c1 = column_of(chosen[i], p1)
            e = grid.edge(grid_ids[(i, c1 + 1)], grid_ids[(i + 1, c1 + 1)])
            edge_models[e] = (coords.id(i, p1), coords.id(i + 1, p2))
    return MatchingMinorModel(vertex_models, edge_models)


# ---------------------------------------------------------------------------
# Ear decompositions.
# ---------------------------------------------------------------------------


def ear_decomposition(
    b: BipartiteGraph,
) -> list[tuple[frozenset[Edge], tuple[int, ...] | None]]:
    """A sequence of matching covered conformal subgraphs from K2 up to b,
    each step adding one internally conformal ear.

    Stages are returned as (edge set, ear added); the first stage is a single
    matching edge with ear None.  The stage count is |E| - |V| + 2.

    By the bipartite ear theorem (Lovasz and Plummer, Matching Theory),
    every matching covered bipartite graph grows from K2 by ears: for a
    perfect matching m of b, odd m-alternating paths whose ends lie in the
    current stage H and whose inner vertices lie outside it.  Each step adds
    the least ear in (length, path) order: the least missing edge between
    two vertices of H, else the walk that one breadth-first search backward
    over the matching edges outside H leads.

    No ear needs a check.  For x in V1 and y in V2 of H, H - x - y has a
    perfect matching N (Thm 4.1.1 there); N plus the non-matching edges of
    an ear from x to y is a perfect matching of H + ear holding them, and
    m's other edges match the rest of b.  A shortest alternating walk in a
    bipartite graph is a path, and an odd path joins opposite colours.
    """
    if not is_matching_covered(b):
        raise NotMatchingCovered("graph must be matching covered")
    m = some_perfect_matching(b)
    assert m is not None
    mate: dict[int, int] = {}
    for u, v in m:
        mate[u] = v
        mate[v] = u
    adj = b.adj

    first = min(m)
    stages: list[tuple[frozenset[Edge], tuple[int, ...] | None]] = [
        (frozenset({first}), None)
    ]
    current_edges: set[Edge] = {first}
    current_verts: set[int] = set(first)

    while len(current_edges) < len(b.edges):
        ear = min(
            (
                (u, y)
                for u in current_verts
                for y in adj[u] & current_verts
                if b.edge(u, y) not in current_edges
            ),
            default=None,
        )
        if ear is None:
            # dist[x]: the matching edges an ear entering the outside at x
            # crosses before it closes in the current stage
            frontier = [
                x for x in b.vertices if x not in current_verts and adj[mate[x]] & current_verts
            ]
            dist = dict.fromkeys(frontier, 1)
            while frontier:
                nxt = []
                for z in frontier:
                    for w in adj[z] - current_verts:
                        if mate[w] not in dist:
                            dist[mate[w]] = dist[z] + 1
                            nxt.append(mate[w])
                frontier = nxt
            d, u, x = min((dist[x], u, x) for u in current_verts for x in adj[u] if x in dist)
            # walk forward, each step to the lowest vertex one matching edge
            # nearer the close
            path = [u, x]
            for left in range(d - 1, 0, -1):
                y = mate[path[-1]]
                path += [y, min(z for z in adj[y] if dist.get(z) == left)]
            y = mate[path[-1]]
            ear = (*path, y, min(adj[y] & current_verts))
        current_edges.update(b.edge(ear[i], ear[i + 1]) for i in range(len(ear) - 1))
        current_verts.update(ear)
        stages.append((frozenset(current_edges), ear))
    return stages


# ---------------------------------------------------------------------------
# The Erdos-Posa gadget digraph.
# ---------------------------------------------------------------------------


def cylindrical_grid_digraph(k: int) -> tuple[Digraph, dict[int, int]]:
    """The directed cylindrical grid of order k (the M-direction of CG_k)
    plus the labelling of its outer directed cycle as positions 1..2k."""
    b, m, coords = cylindrical_grid(k)
    d, tag = m_direction(b, m)
    # digraph vertex for ring/pair-index: edge (i, 2r-1)-(i, 2r)
    by_edge = {e: v for v, e in tag.items()}

    def vertex(i: int, r: int) -> int:
        rr = (r - 1) % (2 * k) + 1
        a = coords.id(i, 2 * rr - 1)
        c = coords.id(i, 2 * rr)
        return by_edge[(min(a, c), max(a, c))]

    # orient the outer cycle: follow arcs around ring 1
    start = vertex(1, 1)
    order = [start]
    ring1 = {vertex(1, r) for r in range(1, 2 * k + 1)}
    while len(order) < 2 * k:
        cur = order[-1]
        nxts = [w for w in d.out_adj[cur] if w in ring1 and w not in order]
        order.append(nxts[0])
    outer = {s + 1: v for s, v in enumerate(order)}
    return d, outer


def ep_gadget(h: Digraph, arc: tuple[int, int], k: int) -> Digraph:
    """The gadget attaching k copies of h to the outer cycle of the directed
    cylindrical grid of order k: the chosen arc of each copy is rerouted
    through the grid."""
    if not is_strongly_connected(h):
        raise NotStronglyConnected("pattern digraph must be strongly connected")
    if tuple(arc) not in h.arcs:
        raise InvalidParameter(f"{tuple(arc)} is not an arc of the pattern")
    if k < 1:
        raise InvalidParameter(f"order {k} is not positive")
    grid, outer = cylindrical_grid_digraph(k)
    u, v = arc
    n_grid = grid.n
    arcs = set(grid.arcs)
    for i in range(1, k + 1):
        offset = n_grid + (i - 1) * h.n

        def cp(x: int) -> int:
            return offset + x

        for a, bb in h.arcs:
            if (a, bb) == (u, v):
                continue
            arcs.add((cp(a), cp(bb)))
        arcs.add((cp(u), outer[2 * i]))
        arcs.add((outer[2 * i - 1], cp(v)))
    return Digraph(n_grid + k * h.n, frozenset(arcs))
