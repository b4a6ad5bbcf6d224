"""Edge cuts, matching/cycle porosity, DM structure, and guarding sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bigraph import (
    BipartiteGraph,
    Edge,
    Matching,
    VertexSet,
    check_matching,
    induced_subgraph,
    is_perfect,
    some_perfect_matching,
)
from .digraph import Digraph, has_cycle_crossing, mask_members, mask_reach
from .direction import elementary_parts, m_direction, split
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


def _max_crossing_pm_subsets(
    n: int,
    adj_mask: Sequence[Sequence[tuple[int, int]]],
) -> list[int] | None:
    """Max-total-weight perfect matching by DP over column subsets.

    adj_mask[i] lists (j, weight).  Row i extends, in ascending order, only
    the column masks that some matching of rows 0..i-1 covers; a strict `>`
    keeps the first best witness.  Exact; preferred when n <= 14.  Returns
    mate_l or None.
    """
    best = [-1] * (1 << n)
    best[0] = 0
    last = [0] * (1 << n)  # column bit of the row matched last
    layer = [0]
    for row in adj_mask:
        edges = [(1 << j, w) for j, w in row]
        nxt = []
        for mask in layer:
            base = best[mask]
            for bit, w in edges:
                if mask & bit:
                    continue
                grown = mask | bit
                if base + w > best[grown]:
                    if best[grown] < 0:
                        nxt.append(grown)
                    best[grown] = base + w
                    last[grown] = bit
        if not nxt:
            return None
        nxt.sort()
        layer = nxt
    mate_l = [0] * n
    mask = (1 << n) - 1
    for i in reversed(range(n)):
        mate_l[i] = last[mask].bit_length() - 1
        mask ^= last[mask]
    return mate_l


def _porosity_with_witness(b: BipartiteGraph, shore: VertexSet) -> tuple[int, Matching]:
    """Max |M ∩ cut(shore)| over perfect matchings, with a maximising matching."""
    if b.n1 != b.n2:
        raise NoPerfectMatching("unbalanced colour classes")
    if b.n == 0:
        return 0, frozenset()
    n = b.n1
    rows = sorted(b.v1)
    cols = sorted(b.v2)
    cidx = {v: j for j, v in enumerate(cols)}
    weighted: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in b.edges:
        crossing = (u in shore) != (v in shore)
        weighted[u - 1].append((cidx[v], 1 if crossing else 0))
    if n <= 14:
        mate = _max_crossing_pm_subsets(n, weighted)
    else:
        # minimise non-crossing edges instead (same optimum, costs >= 0)
        as_cost = [[(j, 1 - w) for j, w in row] for row in weighted]
        mate = _min_cost_pm_ssp(n, as_cost)
    if mate is None:
        raise NoPerfectMatching("graph has no perfect matching")
    m = frozenset((rows[i], cols[mate[i]]) for i in range(n))
    k = sum(1 for u, v in m if (u in shore) != (v in shore))
    return k, m


def matching_porosity(b: BipartiteGraph, shore: Iterable[int]) -> int:
    """Maximum number of cut edges any perfect matching uses."""
    k, _ = _porosity_with_witness(b, frozenset(shore))
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
    from .bigraph import enumerate_perfect_matchings

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
    s = frozenset(shore)
    b, _, tag = split(d)
    y = frozenset(x for v in s for x in tag[v])
    return matching_porosity(b, y)


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

    def __iter__(self):
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def _crossing_conformal_cycle_exists(
    b: BipartiteGraph,
    m_edges: Iterable[Edge],
    shore: VertexSet,
    allowed: VertexSet,
) -> bool:
    """Is there an M-conformal cycle inside `allowed` crossing the shore cut?

    m_edges must be a perfect matching of b; its edges not inside `allowed`
    are banned from the M-direction.  A crossing cycle exists iff some
    strong component of what is left holds matching edges from both sides
    (a matching edge's side is that of its V1 end).
    """
    d, tag = m_direction(b, m_edges)
    side = frozenset(i for i, e in tag.items() if e[0] in shore)
    banned = frozenset(i for i, e in tag.items() if not (e[0] in allowed and e[1] in allowed))
    return has_cycle_crossing(d, side, banned)


def guarding_set(b: BipartiteGraph, m: Matching, shore: Iterable[int]) -> GuardingSet:
    """A guard F ⊆ M for the cut around the shore, |F| <= 2k + k².

    Constructive: start from the crossing matching edges, add the cover of a
    porosity-maximising matching, then walk the linearised component order
    and cut off minimal dangerous configurations with pairs of lambda-cuts.
    """
    m = check_matching(b, m)
    if not is_perfect(b, m):
        raise NotPerfect("m is not a perfect matching")
    shore = frozenset(shore)
    k = matching_porosity(b, shore)

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

    k0, m_max = _porosity_with_witness(b0, shore0)
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
            if _crossing_conformal_cycle_exists(b0, m0, shore0, frozenset(allowed)):
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
    # property survives; deterministic order, bound can only improve
    for e in sorted(guard - f_start):
        trial = frozenset(guard - {e})
        removed_v = frozenset(x for f in trial for x in f)
        if not _crossing_conformal_cycle_exists(
            b, m, shore, frozenset(b.vertices) - removed_v
        ):
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
    removed = frozenset(x for e in guard for x in e)
    allowed = frozenset(b.vertices) - removed
    return not _crossing_conformal_cycle_exists(b, m, shore, allowed)


def verify_guard_bruteforce(
    b: BipartiteGraph,
    m: Matching,
    shore: Iterable[int],
    guard: Iterable[Edge],
) -> bool:
    """Guard check against the exhaustive conformal-cycle enumeration: the
    oracle for `verify_guard`, which certifies every `guard` answer."""
    from .direction import conformal_cycles

    m = check_matching(b, m)
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
