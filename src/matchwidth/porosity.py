"""Edge cuts, matching/cycle porosity, DM structure, and guarding sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .bigraph import (
    BipartiteGraph,
    Edge,
    Matching,
    VertexSet,
    check_matching,
    enumerate_perfect_matchings,
    induced_subgraph,
    is_perfect,
    some_perfect_matching,
)
from .digraph import Digraph, mask_members, mask_reach, strong_component_masks, vertex_mask
from .direction import conformal_cycles, elementary_parts, m_direction, split
from .errors import NoPerfectMatching, NotPerfect


# ---------------------------------------------------------------------------
# Matching porosity via min-cost perfect matching (successive shortest paths).
# ---------------------------------------------------------------------------


def _min_cost_pm_ssp(
    n: int,
    adj: Sequence[Sequence[tuple[int, int]]],
) -> list[int] | None:
    """Min-cost perfect matching by successive shortest augmenting paths.

    adj[i] lists (j, cost) pairs for row i; costs are non-negative small
    integers.  Returns mate_l (row -> column) or None when infeasible.
    Bellman-Ford-style relaxation on the residual graph keeps this simple
    and exact at desk scale.
    """
    mate_l: list[int | None] = [None] * n
    mate_r: list[int | None] = [None] * n
    big = float("inf")
    cost_of: list[dict[int, int]] = [dict(row) for row in adj]

    for _ in range(n):
        dist_l = [big] * n
        dist_r = [big] * n
        parent_r: list[int | None] = [None] * n
        for i in range(n):
            if mate_l[i] is None:
                dist_l[i] = 0
        changed = True
        while changed:
            changed = False
            for i in range(n):
                if dist_l[i] == big:
                    continue
                for j, c in adj[i]:
                    if mate_l[i] == j:
                        continue
                    nd = dist_l[i] + c
                    if nd < dist_r[j]:
                        dist_r[j] = nd
                        parent_r[j] = i
                        changed = True
                        k = mate_r[j]
                        if k is not None:
                            back = nd - cost_of[k][j]
                            if back < dist_l[k]:
                                dist_l[k] = back
            # inner loop re-runs until no relaxation fires
        free = [j for j in range(n) if mate_r[j] is None and dist_r[j] < big]
        if not free:
            return None
        end = min(free, key=lambda j: (dist_r[j], j))
        j: int | None = end
        while j is not None:
            i = parent_r[j]
            assert i is not None
            prev = mate_l[i]
            mate_l[i] = j
            mate_r[j] = i
            j = prev

    return mate_l  # type: ignore[return-value]


# the subset DP's limit on n1; the SSP route takes larger graphs
SUBSET_DP_LIMIT = 14


def _max_crossing_layers(
    b: BipartiteGraph, shore: int, rows: Sequence[int]
) -> Iterator[dict[int, int]]:
    """The most edges across the cut of the shore (a vertex mask, vertex v
    is bit v) that a perfect matching of b uses, by DP over subsets of V2.

    rows orders V1.  A state of layer i is the mask of the columns that
    rows[:i] use, and holds the most crossing edges of such a matching; a
    state that leaves out a column no later row sees is dropped.  Yields
    the layers in turn; the last holds one state, every column.  Exact;
    preferred when n1 <= SUBSET_DP_LIMIT.
    """
    adj = b.adj_masks
    later = [0] * (len(rows) + 1)  # the columns rows[i:] see
    for i in reversed(range(len(rows))):
        later[i] = later[i + 1] | adj[rows[i]]
    layer = {0: 0}
    yield layer
    seen = 0
    for i, u in enumerate(rows):
        seen |= adj[u]
        need = seen & ~later[i + 1]  # the columns every state must now use
        side = shore >> u & 1
        edges = []
        rest = adj[u]
        while rest:
            bit = rest & -rest
            rest ^= bit
            edges.append((bit, ((shore & bit) != 0) ^ side))
        nxt: dict[int, int] = {}
        for mask, base in layer.items():
            for bit, w in edges:
                if mask & bit:
                    continue
                grown = mask | bit
                if grown & need != need:
                    continue
                if base + w > nxt.get(grown, -1):
                    nxt[grown] = base + w
        if not nxt:
            raise NoPerfectMatching("graph has no perfect matching")
        layer = nxt
        yield layer


def _subset_dp_applies(b: BipartiteGraph) -> bool:
    """Whether porosity on b takes the subset DP (n1 <= SUBSET_DP_LIMIT)
    rather than the SSP route; raises when the colour classes differ."""
    if b.n1 != b.n2:
        raise NoPerfectMatching("unbalanced colour classes")
    return b.n1 <= SUBSET_DP_LIMIT


def _porosity_by_ssp(b: BipartiteGraph, shore: int) -> tuple[int, Matching]:
    """`_porosity_with_witness` by min-cost perfect matching, for n1 past
    SUBSET_DP_LIMIT."""
    n = b.n1
    # minimise non-crossing edges instead (same optimum, costs >= 0)
    as_cost: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in b.edges:
        as_cost[u - 1].append((v - n - 1, 1 - ((shore >> u ^ shore >> v) & 1)))
    mate = _min_cost_pm_ssp(n, as_cost)
    if mate is None:
        raise NoPerfectMatching("graph has no perfect matching")
    m = frozenset((i + 1, n + 1 + j) for i, j in enumerate(mate))
    return sum((shore >> u ^ shore >> v) & 1 for u, v in m), m


def _porosity_with_witness(b: BipartiteGraph, shore: int) -> tuple[int, Matching]:
    """Max |M ∩ cut(shore)| over perfect matchings, with a maximising
    matching; shore is a vertex mask.

    The subset DP takes V1 in label order here, not in `b.dp_rows`, so the
    witness does not depend on that order.  It is rebuilt from the last
    row back, each row taking the highest column that still completes a
    best matching.
    """
    if not _subset_dp_applies(b):
        return _porosity_by_ssp(b, shore)
    rows = b.v1
    layers = list(_max_crossing_layers(b, shore, rows))
    adj = b.adj_masks
    ((mask, k),) = layers[-1].items()
    value = k
    m = []
    for i in reversed(range(b.n1)):
        u = rows[i]
        side = shore >> u & 1
        free = adj[u] & mask
        while True:
            v = free.bit_length() - 1
            w = (shore >> v & 1) ^ side
            if layers[i].get(mask ^ 1 << v) == value - w:
                break
            free ^= 1 << v
        m.append((u, v))
        mask ^= 1 << v
        value -= w
    return k, frozenset(m)


def matching_porosity(b: BipartiteGraph, shore: int) -> int:
    """Maximum number of cut edges any perfect matching uses; shore is a
    vertex mask (vertex v is bit v), as in `matching_porosity_bound`."""
    if not _subset_dp_applies(b):
        return _porosity_by_ssp(b, shore)[0]
    for last in _max_crossing_layers(b, shore, b.dp_rows):
        pass  # only the last layer is read
    ((_, k),) = last.items()
    return k


def matching_porosity_bound(b: BipartiteGraph, shore: int) -> int:
    """Upper bound on `matching_porosity` of the shore given as a vertex
    mask (vertex v is bit v), from the neighbourhoods of its vertices.

    Let d = |shore ∩ V1| - |shore ∩ V2|.  A perfect matching with a cut
    edges leaving shore ∩ V1 and c leaving shore ∩ V2 has a - c = d, so it
    crosses 2a - d = 2c + d times.  a is at most the number of shore ∩ V1
    vertices with a neighbour outside the shore, and at most the number of
    V2 vertices outside with a neighbour in shore ∩ V1; c likewise.
    """
    adj = b.adj_masks
    black = ((1 << b.n1) - 1) << 1
    d = (shore & black).bit_count() - (shore & ~black).bit_count()
    leaving = [0, 0]  # shore vertices of V1, of V2 with a neighbour outside
    reached = [0, 0]  # the outside vertices they reach
    rest = shore
    while rest:
        bit = rest & -rest
        rest ^= bit
        out = adj[bit.bit_length() - 1] & ~shore
        if out:
            side = 0 if bit & black else 1
            leaving[side] += 1
            reached[side] |= out
    a = min(leaving[0], reached[0].bit_count())
    c = min(leaving[1], reached[1].bit_count())
    return min(2 * a - d, 2 * c + d)


def matching_porosity_bruteforce(b: BipartiteGraph, shore: Iterable[int]) -> int:
    """Porosity by enumerating all perfect matchings: the oracle for
    `matching_porosity`, which `pm width` and `cut porosity` answer with."""
    s = frozenset(shore)
    pms = enumerate_perfect_matchings(b)
    if not pms:
        raise NoPerfectMatching("graph has no perfect matching")
    return max(sum(1 for u, v in m if (u in s) != (v in s)) for m in pms)


def cycle_porosity(d: Digraph, shore: Iterable[int]) -> int:
    """Max cut edges used by a family of pairwise disjoint directed cycles.

    Computed as the matching porosity of the corresponding conformal shore in
    the split of d.
    """
    s = vertex_mask(shore)
    b, _, _ = split(d)
    # digraph vertex v is the matching edge (v, n + v) of the split
    return matching_porosity(b, s | s << d.n)


# ---------------------------------------------------------------------------
# Elementary components and the Dulmage-Mendelsohn order.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DMStructure:
    """Elementary components together with the component order <=_i."""

    components: tuple[VertexSet, ...]
    order: frozenset[tuple[int, int]] = frozenset()  # (i, j) means comp_i <=_i comp_j


def elementary_components(b: BipartiteGraph) -> DMStructure:
    """Elementary components, sorted by their least vertex.

    They are the strong components of the M-direction of any one perfect
    matching (`direction.elementary_parts`).
    """
    m = some_perfect_matching(b)
    if m is None:
        raise NoPerfectMatching("graph has no perfect matching")
    return DMStructure(tuple(sorted(elementary_parts(b, m), key=min)))


def dm_order(b: BipartiteGraph, colour: int) -> DMStructure:
    """Transitive-reflexive closure of the one-step order <=°_colour.

    K1 <=°_i K2 when some edge joins V_i ∩ V(K2) to V(K1) \\ V_i.

    The closure is always a partial order.  The elementary components are
    the strong components of the M-direction of one perfect matching M
    (`elementary_components`), and an edge between two components is never
    in M.  So K1 <=°_2 K2, for K1 != K2, holds exactly when an edge joins
    the V1 end of a matching edge in K1 to the V2 end of one in K2, that
    is, when an arc of that M-direction runs from K1 to K2; for colour 1
    the arc runs from K2 to K1.  The closure is reachability in the
    condensation, which is acyclic, or its reverse.
    """
    if colour not in (1, 2):
        raise ValueError("colour index must be 1 or 2")
    base = elementary_components(b)
    comps = base.components
    idx = {}
    for i, comp in enumerate(comps):
        for v in comp:
            idx[v] = i
    in_colour = (lambda v: v <= b.n1) if colour == 1 else (lambda v: v > b.n1)

    # succ[j] holds every component K2 with K_j <=° K2 in one step
    n = len(comps)
    succ = [0] * n
    for u, v in b.edges:
        for x, y in ((u, v), (v, u)):
            # x in V_i ∩ K2, y in V(K1) minus V_i:  K1 <=° K2
            if in_colour(x) and not in_colour(y):
                succ[idx[y]] |= 1 << idx[x]
    closure = frozenset(
        (i, j)
        for i in range(n)
        for j in mask_members(mask_reach(succ, 1 << i, (1 << n) - 1))
    )
    return DMStructure(comps, closure)


def linearise_dm(structure: DMStructure) -> list[int]:
    """Deterministic topological order of the components consistent with <=_i.

    Minimal elements first; ties broken by the lowest vertex id.
    """
    n = len(structure.components)
    preds: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, j in structure.order:
        if i != j:
            preds[j].add(i)
    placed: list[int] = []
    remaining = set(range(n))
    while remaining:
        ready = [i for i in remaining if preds[i] <= set(placed)]
        ready.sort(key=lambda i: min(structure.components[i]))
        nxt = ready[0]
        placed.append(nxt)
        remaining.remove(nxt)
    return placed


# ---------------------------------------------------------------------------
# Guarding sets (constructive).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuardingSet:
    edges: Matching
    porosity: int

    def __len__(self) -> int:
        return len(self.edges)


def _crossing_cycle(d: Digraph, side: int, banned: int) -> bool:
    """Is there an M-conformal cycle crossing the shore cut that avoids the
    banned matching edges?

    d is the M-direction of a perfect matching M, `side` the mask of its
    matching edges whose V1 end lies in the shore, and `banned` a mask of
    matching edges; no other matching edge may cross the cut.  The
    M-conformal cycles are the directed cycles of d, so one crosses the cut
    iff some strong component of d - banned meets both side and the rest.
    """
    return any(c & side and c & ~side for c in strong_component_masks(d, banned))


def guarding_set(b: BipartiteGraph, m: Matching, shore: Iterable[int]) -> GuardingSet:
    """A guard F ⊆ M for the cut around the shore, |F| <= 2k + k².

    Constructive: start from the crossing matching edges, add the cover of a
    porosity-maximising matching, then walk the linearised component order
    and cut off minimal dangerous configurations with pairs of lambda-cuts.
    Every crossing-cycle test reads the strong components of one of two
    M-directions: that of m less the crossing edges on b less their ends,
    and that of m on b.
    """
    m = check_matching(b, m)
    if not is_perfect(b, m):
        raise NotPerfect("m is not a perfect matching")
    shore = frozenset(shore)
    k = matching_porosity(b, vertex_mask(shore))

    f_start = frozenset(e for e in m if (e[0] in shore) != (e[1] in shore))
    removed0 = frozenset(x for e in f_start for x in e)
    keep0 = frozenset(b.vertices) - removed0
    if not keep0:
        return GuardingSet(f_start, k)
    b0, fwd, back = induced_subgraph(b, keep0)
    shore0 = frozenset(fwd[v] for v in shore if v in fwd)
    m0 = frozenset((fwd[u], fwd[v]) for u, v in m if u in keep0 and v in keep0)
    if not b0.cut(shore0):
        return GuardingSet(f_start, k)

    k0, m_max = _porosity_with_witness(b0, vertex_mask(shore0))
    if k0 == 0:
        return GuardingSet(f_start, k)
    w_edges = frozenset(e for e in m_max if (e[0] in shore0) != (e[1] in shore0))
    w_vertices = frozenset(x for e in w_edges for x in e)
    f0 = frozenset(e for e in m0 if e[0] in w_vertices or e[1] in w_vertices)

    # elementary components of b0 - V(W) in the lambda order of <=_2
    keep1 = frozenset(b0.vertices) - w_vertices
    b1, _, back1 = induced_subgraph(b0, keep1)
    structure = dm_order(b1, 2)
    lam = linearise_dm(structure)
    comps_b0 = [frozenset(back1[v] for v in structure.components[i]) for i in lam]

    w_v1 = frozenset(e[0] for e in w_edges)
    mcover_vertices = frozenset(x for e in f0 for x in e)
    boxes = [comp - mcover_vertices for comp in comps_b0]

    d0, tag0 = m_direction(b0, m0)
    side0 = vertex_mask(i for i, e in tag0.items() if e[0] in shore0)
    picked: list[frozenset[Edge]] = []
    removed = set(mcover_vertices)
    last = 0  # 1-based index of the last dangerous endpoint handled
    ell = len(comps_b0)
    while True:
        hit = None
        allowed: set[int] = set()
        for j in range(ell):
            allowed |= boxes[j] - removed
            if j + 1 <= last:
                continue
            banned = vertex_mask(
                i for i, (u, v) in tag0.items() if u not in allowed or v not in allowed
            )
            if _crossing_cycle(d0, side0, banned):
                hit = j + 1
                break
        if hit is None:
            break
        f_p: set[Edge] = set()
        for idx in (hit - 1, hit):
            prefix = set(w_v1)
            for j in range(idx):
                prefix |= comps_b0[j]
            f_p |= {e for e in m0 if (e[0] in prefix) != (e[1] in prefix)}
        picked.append(frozenset(f_p))
        removed |= {x for e in f_p for x in e}
        last = hit

    guard0 = set(f0)
    for f_p in picked:
        guard0 |= f_p
    guard = set(f_start)
    guard |= {(back[u], back[v]) for u, v in guard0}

    # greedy reduction: drop edges (crossing ones excepted) while the guard
    # property survives; deterministic order, bound can only improve.  The
    # guard's edges are matching edges, so the matching edges inside what
    # the trial guard leaves are all the others.
    d, tag = m_direction(b, m)
    index = {e: i for i, e in tag.items()}
    side = vertex_mask(i for i, e in tag.items() if e[0] in shore)
    for e in sorted(guard - f_start):
        if not _crossing_cycle(d, side, vertex_mask(index[f] for f in guard if f != e)):
            guard.remove(e)
    return GuardingSet(frozenset(guard), k)


def verify_guard(
    b: BipartiteGraph,
    m: Matching,
    shore: Iterable[int],
    guard: Iterable[Edge],
) -> bool:
    """Check the guard contract: contains the crossing matching edges and hits
    every M-conformal cycle that crosses the cut."""
    m = check_matching(b, m)
    if not is_perfect(b, m):
        raise NotPerfect("m is not a perfect matching")
    shore = frozenset(shore)
    guard = frozenset(guard)
    if not guard <= m:
        return False
    crossing = frozenset(e for e in m if (e[0] in shore) != (e[1] in shore))
    if not crossing <= guard:
        return False
    d, tag = m_direction(b, m)
    index = {e: i for i, e in tag.items()}
    side = vertex_mask(i for i, e in tag.items() if e[0] in shore)
    return not _crossing_cycle(d, side, vertex_mask(index[e] for e in guard))


def verify_guard_bruteforce(
    b: BipartiteGraph,
    m: Matching,
    shore: Iterable[int],
    guard: Iterable[Edge],
) -> bool:
    """Guard check against the exhaustive conformal-cycle enumeration: the
    oracle for `verify_guard`, which certifies every `guard` answer."""
    m = check_matching(b, m)
    if not is_perfect(b, m):
        raise NotPerfect("m is not a perfect matching")
    shore = frozenset(shore)
    guard = frozenset(guard)
    if not guard <= m:
        return False
    crossing = frozenset(e for e in m if (e[0] in shore) != (e[1] in shore))
    if not crossing <= guard:
        return False
    guard_vertices = {x for e in guard for x in e}
    for cyc in conformal_cycles(b, m):
        verts = set(cyc)
        edges = set()
        for i, u in enumerate(cyc):
            v = cyc[(i + 1) % len(cyc)]
            edges.add((min(u, v), max(u, v)))
        crosses = any((u in shore) != (v in shore) for u, v in edges)
        if crosses and not (verts & guard_vertices):
            return False
    return True


def directed_cycle_hitting_set(d: Digraph, shore: Iterable[int]) -> VertexSet:
    """Vertices whose removal kills every directed cycle crossing the cut.

    Size at most k² + 2k for k the cycle porosity, via the guarding set of
    the split.
    """
    s = frozenset(shore)
    b, m, tag = split(d)
    y = frozenset(x for v in s for x in tag[v])
    guard = guarding_set(b, m, y)
    edge_to_vertex = {e: v for v, e in tag.items()}
    return frozenset(edge_to_vertex[e] for e in guard.edges)
