"""Matching minor models and containment, butterfly minors, anti-chains,
and strong planarity."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .bigraph import (
    BipartiteGraph,
    Edge,
    Matching,
    admissible_edges,
    bicontract,
    check_matching,
    enumerate_perfect_matchings,
    has_perfect_matching,
    induced_subgraph,
    is_matching_covered,
    is_perfect,
)
from .digraph import Digraph
from .direction import split
from .errors import (
    ModelInvalid,
    NotContractible,
    OracleLimitExceeded,
)
from .isomorphism import (
    bipartite_automorphisms,
    bipartite_isomorphisms,
    canonical_bipartite,
    canonical_digraph,
    swap_colours,
)
from .linkage import _solve_full
from .planarity import planarity_test

MM_ORACLE_LIMIT = 14
BM_ORACLE_LIMIT = 8


# ---------------------------------------------------------------------------
# Matching minor models.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchingMinorModel:
    """mu: H-vertices to vertex sets of the host, H-edges to host paths."""

    vertex_models: dict[int, frozenset[int]]
    edge_models: dict[Edge, tuple[int, ...]]

    def total_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for s in self.vertex_models.values():
            out |= s
        for p in self.edge_models.values():
            out |= set(p)
        return frozenset(out)


def _tree_structure(b: BipartiteGraph, verts: frozenset[int]) -> dict[int, set[int]] | None:
    """Adjacency of the induced subgraph when it is a tree, else None."""
    verts = set(verts)
    adj = {v: {w for w in b.adj[v] if w in verts} for v in verts}
    edge_count = sum(len(s) for s in adj.values()) // 2
    if edge_count != len(verts) - 1:
        return None
    seen: set[int] = set()
    stack = [next(iter(verts))]
    seen.add(stack[0])
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return adj if len(seen) == len(verts) else None


def _barycentric_old_vertices(
    b: BipartiteGraph, verts: frozenset[int]
) -> frozenset[int] | None:
    """Old vertices of a barycentric subtree, or None if not barycentric.

    A tree is barycentric iff all its vertices of degree other than two lie
    in a single class of the proper 2-colouring; that class is the old set.
    """
    if len(verts) == 1:
        return verts
    adj = _tree_structure(b, verts)
    if adj is None:
        return None
    root = next(iter(verts))
    colour = {root: 0}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in colour:
                colour[y] = 1 - colour[x]
                stack.append(y)
    branch = [v for v in verts if len(adj[v]) != 2]
    classes = {colour[v] for v in branch}
    if len(classes) > 1:
        return None
    old_class = classes.pop() if classes else 0
    return frozenset(v for v in verts if colour[v] == old_class)


def validate_model(
    b: BipartiteGraph, h: BipartiteGraph, mu: MatchingMinorModel
) -> bool:
    """Check all six conditions of the matching minor model definition."""
    # (i) vertex models are barycentric subtrees
    old: dict[int, frozenset[int]] = {}
    if set(mu.vertex_models) != set(h.vertices):
        return False
    for v, verts in mu.vertex_models.items():
        if not verts or not verts <= frozenset(b.vertices):
            return False
        o = _barycentric_old_vertices(b, verts)
        if o is None:
            return False
        old[v] = o
    # (ii) pairwise disjoint
    used: set[int] = set()
    for verts in mu.vertex_models.values():
        if used & verts:
            return False
        used |= verts
    # (iii) edge models are odd paths, internally disjoint and avoiding trees
    if set(mu.edge_models) != set(h.edges):
        return False
    internal_used: set[int] = set()
    for path in mu.edge_models.values():
        if len(path) < 2 or len(path) % 2 != 0:
            return False  # odd number of edges means even number of vertices
        if len(set(path)) != len(path):
            return False
        for x, y in zip(path, path[1:]):
            if not b.has_edge(x, y):
                return False
        inner = set(path[1:-1])
        if inner & used or inner & internal_used:
            return False
        internal_used |= inner
    # (iv) ends anchored at old vertices of the two endpoint trees
    for (u1, u2), path in mu.edge_models.items():
        x1, x2 = path[0], path[-1]
        ok = (x1 in old[u1] and x2 in old[u2]) or (x1 in old[u2] and x2 in old[u1])
        if not ok:
            return False
    # (v) degree-one vertices map to single vertices
    for v in h.vertices:
        if h.degree(v) == 1 and len(mu.vertex_models[v]) != 1:
            return False
    # (vi) the host minus the model has a perfect matching
    return has_perfect_matching(b, mu.total_vertices())


def residual_matching(
    h: BipartiteGraph, mu: MatchingMinorModel, m: Iterable[Edge]
) -> Matching:
    """The perfect matching of h induced by a perfect matching of mu(h).

    An h-edge is in the residual matching iff its model path is M-conformal
    (covered ends), as opposed to internally M-conformal.  A check of the
    statement that every perfect matching of a model's vertex set induces
    a perfect matching of h.
    """
    m = frozenset(tuple(e) for e in m)
    model_vertices = mu.total_vertices()
    covered = {x for e in m for x in e}
    if covered != set(model_vertices):
        raise ModelInvalid("matching does not exactly cover the model")
    mate: dict[int, int] = {}
    for u, v in m:
        mate[u] = v
        mate[v] = u
    residual: set[Edge] = set()
    for e, path in mu.edge_models.items():
        pos = {x: i for i, x in enumerate(path)}
        # conformal: ends matched inside the path
        x1, x2 = path[0], path[-1]
        in1 = mate[x1] in pos and abs(pos[mate[x1]] - pos[x1]) == 1
        in2 = mate[x2] in pos and abs(pos[mate[x2]] - pos[x2]) == 1
        inner_ok = all(
            mate[x] in pos and abs(pos[mate[x]] - pos[x]) == 1 for x in path[1:-1]
        )
        if not inner_ok:
            raise ModelInvalid(f"path of {e} is not alternating for the matching")
        if in1 and in2:
            residual.add(e)
    out = check_matching(h, residual)
    if not is_perfect(h, out):
        raise ModelInvalid("residual edge set is not a perfect matching")
    return out


# ---------------------------------------------------------------------------
# Matching minor containment: definition-level closure search (oracle).
# ---------------------------------------------------------------------------


def _bicontract_candidates(b: BipartiteGraph) -> list[int]:
    return [v for v in b.vertices if b.degree(v) == 2]


def matching_minor_bruteforce(
    b: BipartiteGraph, h: BipartiteGraph, limit: int = MM_ORACLE_LIMIT
) -> bool:
    """Is h a matching minor of b?  Exhaustive closure search: the oracle for
    `matching_minor_check` (`minor --oracle`).

    Atomic steps from any graph with a perfect matching: delete an edge
    (keeping a perfect matching), delete the two endpoints of an edge
    (conformal pair), or bicontract a degree-2 vertex.  Memoised on
    canonical forms.
    """
    if b.n > limit:
        raise OracleLimitExceeded(f"{b.n} vertices exceeds oracle limit {limit}")
    if not has_perfect_matching(h):
        raise ModelInvalid("target graph has no perfect matching")
    if not has_perfect_matching(b):
        return False
    target = canonical_bipartite(h)
    n_h, e_h = h.n, len(h.edges)
    seen: set = set()

    def search(g: BipartiteGraph) -> bool:
        if g.n < n_h or len(g.edges) < e_h:
            return False
        key = canonical_bipartite(g)
        if key in seen:
            return False
        seen.add(key)
        if g.n == n_h and key == target:
            return True
        # edge deletions
        for e in sorted(g.edges):
            g2 = BipartiteGraph(g.n1, g.n2, g.edges - {e})
            if has_perfect_matching(g2) and search(g2):
                return True
        # conformal pair deletions
        if g.n > n_h:
            for u, v in sorted(g.edges):
                keep = frozenset(x for x in g.vertices if x not in (u, v))
                g2, _, _ = induced_subgraph(g, keep)
                if has_perfect_matching(g2) and search(g2):
                    return True
        # bicontractions
        if g.n > n_h:
            for v in _bicontract_candidates(g):
                g2, _, _ = bicontract(g, v)
                if has_perfect_matching(g2) and search(g2):
                    return True
        return False

    return search(b)


def find_model_bruteforce(b: BipartiteGraph, h: BipartiteGraph) -> MatchingMinorModel | None:
    """Search for a valid matching minor model of h in b by backtracking.

    Independent of the closure search; a check of the statement that h is a
    matching minor of b iff b holds a matching minor model of h.
    """
    if b.n > MM_ORACLE_LIMIT:
        raise OracleLimitExceeded(f"{b.n} vertices exceeds oracle limit {MM_ORACLE_LIMIT}")
    h_vertices = sorted(h.vertices, key=lambda v: -h.degree(v))
    h_edge_list = sorted(h.edges)

    # candidate barycentric trees, smallest first: single vertices, then
    # paths of even length grown along the host graph
    def candidate_trees(colour: int, banned: frozenset[int]) -> Iterator[frozenset[int]]:
        verts = [v for v in b.vertices if b.colour(v) == colour and v not in banned]
        for v in verts:
            yield frozenset({v})
        budget = b.n - len(banned)
        max_extra = (budget - len(h_vertices)) // 2 if budget > len(h_vertices) else 0
        if max_extra <= 0:
            return
        # grow trees by attaching length-2 arms (keeps them barycentric)
        frontier: list[frozenset[int]] = [frozenset({v}) for v in verts]
        produced: set[frozenset[int]] = set(frontier)
        for _ in range(max_extra):
            nxt: list[frozenset[int]] = []
            for tree in frontier:
                for x in sorted(tree):
                    if b.colour(x) != colour:
                        continue
                    for y in sorted(b.adj[x]):
                        if y in banned or y in tree:
                            continue
                        for z in sorted(b.adj[y]):
                            if z in banned or z in tree or z == x:
                                continue
                            grown = tree | {y, z}
                            if grown not in produced:
                                produced.add(grown)
                                nxt.append(grown)
                                yield grown
            frontier = nxt
            if not frontier:
                return

    def paths_between(
        src: frozenset[int], dst: frozenset[int], banned: frozenset[int]
    ) -> Iterator[tuple[int, ...]]:
        # odd paths from an old vertex of src to an old vertex of dst,
        # internally avoiding banned
        for s in sorted(src):
            stack: list[tuple[int, ...]] = [(s,)]
            while stack:
                path = stack.pop()
                x = path[-1]
                for y in sorted(b.adj[x]):
                    if y in path:
                        continue
                    if y in dst:
                        if len(path) % 2 == 1:  # path has odd edge count
                            yield path + (y,)
                        continue
                    if y in banned or y in src:
                        continue
                    stack.append(path + (y,))

    def extend(
        assigned: dict[int, frozenset[int]],
        olds: dict[int, frozenset[int]],
        used: frozenset[int],
        edges_done: dict[Edge, tuple[int, ...]],
        idx: int,
    ) -> MatchingMinorModel | None:
        if idx == len(h_edge_list):
            mu = MatchingMinorModel(dict(assigned), dict(edges_done))
            if validate_model(b, h, mu):
                return mu
            return None
        e = h_edge_list[idx]
        u1, u2 = e
        src, dst = olds[u1], olds[u2]
        banned = used - assigned[u1] - assigned[u2]
        for path in paths_between(src, dst, banned):
            inner = frozenset(path[1:-1])
            if inner & used:
                continue
            edges_done[e] = path
            got = extend(assigned, olds, used | inner, edges_done, idx + 1)
            if got is not None:
                return got
            del edges_done[e]
        return None

    def assign_vertices(
        pos: int,
        flip: bool,
        assigned: dict[int, frozenset[int]],
        olds: dict[int, frozenset[int]],
        used: frozenset[int],
    ) -> MatchingMinorModel | None:
        if pos == len(h_vertices):
            return extend(assigned, olds, used, {}, 0)
        v = h_vertices[pos]
        base = 1 if v <= h.n1 else 2
        want = base if not flip else 3 - base
        for tree in candidate_trees(want, used):
            if h.degree(v) == 1 and len(tree) != 1:
                continue
            o = _barycentric_old_vertices(b, tree)
            if o is None:
                continue
            assigned[v] = tree
            olds[v] = o
            got = assign_vertices(pos + 1, flip, assigned, olds, used | tree)
            if got is not None:
                return got
            del assigned[v]
            del olds[v]
        return None

    for flip in (False, True):
        if flip and h.n1 != h.n2:
            continue
        got = assign_vertices(0, flip, {}, {}, frozenset())
        if got is not None:
            return got
    return None


# ---------------------------------------------------------------------------
# Butterfly minors.
# ---------------------------------------------------------------------------


def butterfly_contract(d: Digraph, arc: tuple[int, int]) -> Digraph:
    """Contract a butterfly-contractible arc (unique out-edge of its tail or
    unique in-edge of its head); the new vertex inherits both neighbourhoods."""
    u, v = arc
    if (u, v) not in d.arcs:
        raise ValueError(f"({u},{v}) is not an arc")
    if d.out_adj[u] != {v} and d.in_adj[v] != {u}:
        raise NotContractible(f"arc ({u},{v}) is not butterfly contractible")
    keep = [x for x in d.vertices if x not in (u, v)]
    remap = {x: i + 1 for i, x in enumerate(keep)}
    new = len(keep) + 1
    arcs: set[tuple[int, int]] = set()
    for a, bb in d.arcs:
        if (a, bb) == (u, v):
            continue
        na = remap.get(a, new)
        nb = remap.get(bb, new)
        if na != nb:
            arcs.add((na, nb))
    return Digraph(len(keep) + 1, frozenset(arcs))


def _butterfly_children(d: Digraph) -> Iterator[Digraph]:
    for arc in sorted(d.arcs):
        yield Digraph(d.n, d.arcs - {arc})
    for v in d.vertices:
        keep = [x for x in d.vertices if x != v]
        remap = {x: i + 1 for i, x in enumerate(keep)}
        arcs = frozenset(
            (remap[a], remap[bb]) for a, bb in d.arcs if a != v and bb != v
        )
        yield Digraph(d.n - 1, arcs)
    for arc in sorted(d.arcs):
        u, v = arc
        if d.out_adj[u] == {v} or d.in_adj[v] == {u}:
            yield butterfly_contract(d, arc)


def butterfly_minor_bruteforce(d: Digraph, h: Digraph) -> bool:
    """Is h a butterfly minor of d?  Exhaustive closure with canonical memo."""
    if d.n > BM_ORACLE_LIMIT:
        raise OracleLimitExceeded(f"{d.n} vertices exceeds oracle limit {BM_ORACLE_LIMIT}")
    target = canonical_digraph(h)
    seen: set = set()

    def search(g: Digraph) -> bool:
        if g.n < h.n or len(g.arcs) < len(h.arcs):
            return False
        key = canonical_digraph(g)
        if key in seen:
            return False
        seen.add(key)
        if g.n == h.n and key == target:
            return True
        return any(search(child) for child in _butterfly_children(g))

    return search(d)


def proper_butterfly_minors(d: Digraph) -> list[Digraph]:
    """All proper butterfly minors up to isomorphism (closure enumeration)."""
    if d.n > BM_ORACLE_LIMIT:
        raise OracleLimitExceeded(f"{d.n} vertices exceeds oracle limit {BM_ORACLE_LIMIT}")
    seen = {canonical_digraph(d)}
    out: list[Digraph] = []
    queue = deque([d])
    while queue:
        g = queue.popleft()
        for child in _butterfly_children(g):
            key = canonical_digraph(child)
            if key not in seen:
                seen.add(key)
                out.append(child)
                queue.append(child)
    return out


def antichain_member(j: Digraph, d: Digraph) -> bool:
    """Is j a member of the fundamental anti-chain based on d?

    True iff Split(j) contains Split(d) as a matching minor while the split
    of every proper butterfly minor of j is free of it.
    """
    bj, _, _ = split(j)
    bd, _, _ = split(d)
    if not matching_minor_bruteforce(bj, bd, limit=2 * BM_ORACLE_LIMIT):
        return False
    for g in proper_butterfly_minors(j):
        if g.n * 2 < bd.n:
            continue
        bg, _, _ = split(g)
        if matching_minor_bruteforce(bg, bd, limit=2 * BM_ORACLE_LIMIT):
            return False
    return True


def is_strongly_planar(d: Digraph) -> bool:
    """A digraph is strongly planar iff its split is planar."""
    b, _, _ = split(d)
    return planarity_test(b)


# ---------------------------------------------------------------------------
# Matching minor checking through the disjoint alternating paths solver.
# ---------------------------------------------------------------------------


def _h_symmetries(h: BipartiteGraph) -> tuple[list[dict[int, int]], bool]:
    """h's colour-preserving automorphisms, and whether some automorphism
    swaps its colour classes.  Past 12 vertices: the identity and False."""
    if h.n > 12:
        return [{v: v for v in h.vertices}], False
    swapping = next(bipartite_isomorphisms(h, swap_colours(h)), None)
    return bipartite_automorphisms(h), swapping is not None


def matching_minor_check(b: BipartiteGraph, h: BipartiteGraph) -> bool:
    """Decide matching minor containment by guessing the model's anchor
    structure and solving F-extending disjoint alternating path instances.

    Every model can be normalised so that each vertex model is its exposed
    vertex plus anchor matching edges joined by even legs; the legs and the
    edge paths become terminal pairs of one DAPP instance whose forced set F
    consists of the anchor edges and the conformal-path end edges.

    Each piece of work is done once, and both skips rest on one premise:
    relabelling h by an automorphism maps the placement search for one
    perfect matching m_h onto the search for its image.

    - m_h is tried once per orbit of h's colour-preserving automorphisms.
    - The pass with h's colour classes placed on the opposite host classes
      runs only when no automorphism swaps them.  If sigma does, that pass
      for m_h is the unflipped pass for sigma(m_h), which is tried anyway.
    - One verdict memo serves the whole call (see `_check_with_mh`), so a
      DAPP instance that several guesses build is solved once.

    Every edge of a model's bisubdivision lies in a perfect matching of b,
    so only admissible edges of b are ever forced.  `bigraph.admissible_edges`
    finds them all from one perfect matching of b, after the size exits.
    Past those exits b is not empty, so the set is empty exactly when b has
    no perfect matching.
    """
    if not is_matching_covered(h):
        raise ModelInvalid("pattern must be matching covered")
    if h.n > b.n or len(h.edges) > len(b.edges):
        return False
    admissible = admissible_edges(b)
    if not admissible:
        return False

    autos, colour_swapping = _h_symmetries(h)
    flips = (False,) if colour_swapping else (False, True)

    # every perfect matching of h in the orbit of one already tried
    seen_mh: set[Matching] = set()
    budget_total = b.n - h.n  # spare vertices for legs, spines, path interiors
    memo: dict = {}

    for m_h in enumerate_perfect_matchings(h):
        if m_h in seen_mh:
            continue
        seen_mh.update(frozenset((a[u], a[v]) for u, v in m_h) for a in autos)
        if _check_with_mh(b, h, m_h, admissible, budget_total, flips, memo):
            return True
    return False


def _slot_patterns(count: int) -> list[tuple[tuple[int, ...], int]]:
    """Anchor slot patterns for a pattern vertex with `count` non-m_h edges:
    each edge goes to slot 0 (the exposed vertex) or to a numbered spine
    slot, the slots numbered in order of first use.  Each pattern comes
    with its number of spine slots.

    A pattern vertex u of degree at most 3 (`count <= 2`) gets the
    all-zero pattern alone: every edge leaves from the exposed vertex and
    no spine is guessed.  Why no model is lost, for a model with a perfect
    matching M whose residual matching is m_h:

    - Trim u's vertex model T to the tree spanned by the old vertices its
      paths leave from.  A dropped leaf and its neighbour are an M edge,
      which b minus the model then holds, so the model stays valid.
    - T now has at most three leaves, so at most one branch vertex, which
      is old.  Let r be that vertex.  When T is a path, let r be the
      middle one of u's three path starts along T, or, when u has degree
      2, the exposed vertex x, where the conformal path of u's m_h edge
      leaves.
    - M matches every vertex of T but x inside T, so the tree path from x
      to r is M-alternating and, read from r, starts with a matching
      edge.  Joined to the conformal path at x, it is a conformal path
      from r.
    - Each other leg of T, from r to a leaf, joined to the edge path that
      leaves the leaf, is an internally M-conformal odd path.

    The re-rooted model has {r} as u's vertex model, the same vertex set
    and the same M, so condition (vi) still holds, and the search places
    u's exposed vertex on r.  The rule is per vertex: a vertex of degree 4
    or more keeps every pattern."""
    if count <= 2:
        return [((0,) * count, 0)]
    out: list[tuple[tuple[int, ...], int]] = []

    def rec(i: int, assign: list[int], top: int) -> None:
        if i == count:
            out.append((tuple(assign), top))
            return
        for slot in range(0, min(top + 1, count) + 1):
            assign.append(slot)
            rec(i + 1, assign, max(top, slot))
            assign.pop()

    rec(0, [], 0)
    return out


def _tree_shapes(a_u: int) -> list[tuple[int, ...]]:
    """Spine trees on slots 0..a_u rooted at slot 0: parent[j - 1] < j is
    the parent of spine slot j."""
    shapes: list[tuple[int, ...]] = []

    def rec(j: int, parents: list[int]) -> None:
        if j > a_u:
            shapes.append(tuple(parents))
            return
        for p in range(0, j):
            parents.append(p)
            rec(j + 1, parents)
            parents.pop()

    rec(1, [])
    return shapes


def _check_with_mh(
    b: BipartiteGraph,
    h: BipartiteGraph,
    m_h: Matching,
    admissible: frozenset[Edge],
    budget: int,
    flips: tuple[bool, ...],
    memo: dict,
) -> bool:
    """Guess, pattern vertex by pattern vertex, how a model of h with
    perfect matching m_h sits in b, and solve the forced DAPP instance of
    each complete placement.

    One recursion takes the pattern vertices u in sorted order.  For u it
    guesses a slot pattern (which of u's non-m_h edges leave from which
    anchor) and a spine tree, then places u's exposed vertex and spines
    on host vertices and edges, and recurses.

    An anchor is a pair (h-vertex u, slot): slot 0 is u's exposed vertex,
    slot j >= 1 the end in u's host class of the spine edge of slot j.  An
    anchor's degree demand is its leaving paths and legs, plus the
    conformal-path end edge (slot 0) or its spine edge (slot >= 1); u's
    guess alone fixes it.  Two anchors are linked when an h-edge path or
    an m_h edge joins them.  Each linked pair placed on non-adjacent host
    vertices needs at least two spare vertices for its path's interior.
    The search carries that path demand as a running total: placing an
    anchor on x adds 2 for each link whose other anchor is already placed
    on a vertex not adjacent to x.  The slack is `budget` less two
    vertices per spine guessed so far, and a branch whose demand exceeds
    it is cut.  Demand only grows and slack only shrinks down a branch, so
    a complete placement is reached exactly when it meets the bound of
    its whole structure: a "no" check builds the same instances in
    whatever order the guesses and placements come.

    A pattern vertex of degree at most 3 is guessed with no spine: its
    vertex model re-roots at one old vertex, its branch vertex if it has
    one, with the tree path from the exposed vertex absorbed into the conformal
    path and every other leg into its edge path (`_slot_patterns`).  The
    re-rooted model has the same vertex set, so condition (vi) still
    holds.  A "no" check therefore builds a subset of the instances that
    guessing spines for those vertices as well would build.

    Every forced edge is admissible: the spine candidates are the
    admissible edges, and `mh_rec` skips a degenerate or end edge that is
    not.  A forced set with any other edge extends to no perfect matching,
    so each instance skipped is one that `run` would refuse before it
    reaches `_solve_full`.

    `memo` holds, for this `matching_minor_check` call, the verdict of each
    (forced set, set of terminal pairs) instance already solved and, keyed
    on the forced set alone, whether that set extends to a perfect matching
    of b (see `run`).
    """
    n1 = b.n1
    adj = b.adj
    h_vertices = sorted(h.vertices)
    non_m_edges = sorted(e for e in h.edges if e not in m_h)
    m_edges = sorted(m_h)
    incident = {u: [e for e in non_m_edges if u in e] for u in h_vertices}
    # per non-m_h edge (u, v) in sorted order: u, the edge's place among
    # u's non-m_h edges (the index into u's slot pattern), v, its place at v
    edge_slots = [
        (u, incident[u].index((u, v)), v, incident[v].index((u, v))) for u, v in non_m_edges
    ]
    # per u: (u's place, other end v, v's place) of each non-m_h edge whose
    # other end is placed before u; an edge's first end is its V1 end
    earlier ={u: [(iw, v, iv) for v, iv, w, iw in edge_slots if w == u] for u in h_vertices}
    mate = {u: v for e in m_h for u, v in (e, e[::-1])}
    patterns_by_u = {u: _slot_patterns(len(incident[u])) for u in h_vertices}
    most_spines = max(a for patterns in patterns_by_u.values() for _, a in patterns)
    shapes_by_size = [_tree_shapes(a) for a in range(most_spines + 1)]
    # host candidates per colour class, in the order they are tried:
    # (vertex, degree) for an exposed vertex, and (admissible edge, end in
    # the class, other end, degree of the first end) for a spine
    exposed_cands = {c: [(v, b.degree(v)) for v in vs] for c, vs in ((1, b.v1), (2, b.v2))}
    host_edges = sorted(admissible)
    spine_cands = {
        1: [(e, e[0], e[1], b.degree(e[0])) for e in host_edges],
        2: [(e, e[1], e[0], b.degree(e[1])) for e in host_edges],
    }
    colour_of = {u: (1 if u <= h.n1 else 2) for u in h.vertices}

    # placement state per placed u: its guess (slot pattern, spine tree),
    # the host vertex of each anchor, and its spine edges with their other
    # ends
    guessed: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    at: dict[int, list[int]] = {u: [] for u in h_vertices}
    spines: dict[int, list[tuple[Edge, int]]] = {u: [] for u in h_vertices}
    used: set[int] = set()

    def guess(i: int, slack: int, demand: int) -> bool:
        if i == len(h_vertices):
            return solve()
        u = h_vertices[i]
        for pattern, a_u in patterns_by_u[u]:
            if demand > slack - 2 * a_u:
                continue
            # host vertices of the placed anchors linked to each anchor
            linked: list[list[int]] = [[] for _ in range(a_u + 1)]
            for iu, v, iv in earlier[u]:
                linked[pattern[iu]].append(at[v][guessed[v][0][iv]])
            if mate[u] < u:
                linked[0].append(at[mate[u]][0])
            for shape in shapes_by_size[a_u]:
                need = [1] * (a_u + 1)
                for j in pattern + shape:
                    need[j] += 1
                guessed[u] = (pattern, shape)
                if place(i, u, 0, need, linked, slack - 2 * a_u, demand):
                    return True
        return False

    def place(
        i: int, u: int, slot: int, need: list[int], linked: list[list[int]], slack: int, demand: int
    ) -> bool:
        # place anchor (u, slot), then the next; past u's last, the next u
        if slot == len(need):
            return guess(i + 1, slack, demand)
        cls = host_class[u]
        anchors = at[u]
        if slot == 0:
            for x, deg in exposed_cands[cls]:
                if x in used or deg < need[0]:
                    continue
                d = demand + added(linked[0], x)
                if d > slack:
                    continue
                anchors.append(x)
                used.add(x)
                if place(i, u, 1, need, linked, slack, d):
                    return True
                used.remove(x)
                anchors.pop()
            return False
        for e, old, new, deg in spine_cands[cls]:
            if e[0] in used or e[1] in used or deg < need[slot]:
                continue
            d = demand + added(linked[slot], old)
            if d > slack:
                continue
            anchors.append(old)
            spines[u].append((e, new))
            used.update(e)
            if place(i, u, slot + 1, need, linked, slack, d):
                return True
            used.difference_update(e)
            spines[u].pop()
            anchors.pop()
        return False

    def added(linked: list[int], x: int) -> int:
        near = adj[x]
        return 2 * sum(1 for y in linked if y not in near)

    def ordered(x: int, y: int) -> tuple[int, int]:
        return (x, y) if x <= n1 else (y, x)

    def solve() -> bool:
        leg_pairs = [
            ordered(at[u][p], new)
            for u in h_vertices
            for p, (_, new) in zip(guessed[u][1], spines[u])
        ]
        edge_pairs = tuple(
            ordered(at[u][guessed[u][0][iu]], at[v][guessed[v][0][iv]])
            for u, iu, v, iv in edge_slots
        )
        forced = {e for u in h_vertices for e, _ in spines[u]}
        return mh_rec(0, forced, leg_pairs, edge_pairs)

    def mh_rec(i: int, forced: set[Edge], pairs: list, edge_pairs: tuple) -> bool:
        if i == len(m_edges):
            return run(frozenset(forced), tuple(pairs) + edge_pairs)
        u, v = m_edges[i]
        xu, xv = at[u][0], at[v][0]
        # degenerate realisation: the pattern matching edge maps to a single
        # matching edge of the host
        e = ordered(xu, xv)
        if e in admissible:
            forced.add(e)
            if mh_rec(i + 1, forced, pairs, edge_pairs):
                return True
            forced.discard(e)
        # general: pick the two end edges of the conformal path
        for pu in sorted(adj[xu]):
            if pu in used or pu == xv:
                continue
            eu = ordered(xu, pu)
            if eu not in admissible:
                continue
            for pv in sorted(adj[xv]):
                if pv in used or pv == xu or pv == pu:
                    continue
                ev = ordered(xv, pv)
                if ev not in admissible:
                    continue
                forced.update((eu, ev))
                used.update((pu, pv))
                pairs.append(ordered(pv, pu))
                if mh_rec(i + 1, forced, pairs, edge_pairs):
                    return True
                pairs.pop()
                used.difference_update((pu, pv))
                forced.difference_update((eu, ev))
        return False

    def run(forced: frozenset[Edge], all_pairs: tuple) -> bool:
        """Does the instance with forced set `forced` and terminal pairs
        `all_pairs` (the legs, the conformal paths and the edge paths of h)
        have a solution?

        For the fixed host b the verdict depends on the forced set and the
        set of pairs alone: the order of the pairs does not change the
        instance, and `ordered` already puts each pair's V1 end first.  So
        `memo` keys the verdict on `(forced, sorted pairs)` for the rest of
        the `matching_minor_check` call, and a repeated instance is answered
        without checking extendability or calling `_solve_full` again.  The
        first-seen pair order is the one `_solve_full` gets.  The remaining
        `_solve_full` calls are the ones an unmemoised search makes, in its
        order, with the repeats dropped.

        The key is exact only while `_solve_full` itself ignores the pair
        order.  That holds for the problem, but the DP behind it is known
        to fail on some instances (ROADMAP item 1), and the order
        independence is checked only on hosts shaped like the benchmark's
        (`tests/test_minors.py`).  Where an order-dependent fault would
        answer "no" first, the memo repeats that "no" for every other order.
        """
        key = (forced, tuple(sorted(all_pairs)))
        verdict = memo.get(key)
        if verdict is None:
            covered = frozenset(x for f in forced for x in f)
            terminals = {x for p in all_pairs for x in p}
            verdict = memo[key] = extends(forced, covered) and _solve_full(
                b, all_pairs, covered - terminals, forced, admissible
            )
        return verdict

    def extends(forced: frozenset[Edge], covered: frozenset[int]) -> bool:
        # does a perfect matching of b extend `forced`?  The set is always
        # a matching: `place` and `mh_rec` mark every end
        # of a forced edge in `used` and skip used vertices.  Many instances
        # share their forced set; `memo` keys this verdict on the set alone.
        ok = memo.get(forced)
        if ok is None:
            ok = memo[forced] = has_perfect_matching(b, covered)
        return ok

    for flip in flips:
        host_class = {u: 3 - c if flip else c for u, c in colour_of.items()}
        if guess(0, budget, 0):
            return True
    return False
