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
    check_matching,
    has_perfect_matching,
    induced_subgraph,
    is_perfect,
)
from .digraph import Digraph
from .direction import split
from .errors import (
    ModelInvalid,
    NotContractible,
    OracleLimitExceeded,
)
from .isomorphism import canonical_bipartite, canonical_digraph
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
    for e, path in mu.edge_models.items():
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
    (covered ends), as opposed to internally M-conformal.
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
    """Is h a matching minor of b?  Exhaustive closure search.

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
            from .bigraph import bicontract

            for v in _bicontract_candidates(g):
                g2, _, _ = bicontract(g, v)
                if has_perfect_matching(g2) and search(g2):
                    return True
        return False

    return search(b)


def find_model_bruteforce(
    b: BipartiteGraph, h: BipartiteGraph, limit: int = MM_ORACLE_LIMIT
) -> MatchingMinorModel | None:
    """Search for a valid matching minor model of h in b by backtracking.

    Independent of the closure search; used to cross-check the equivalence
    between models and bicontraction sequences.
    """
    if b.n > limit:
        raise OracleLimitExceeded(f"{b.n} vertices exceeds oracle limit {limit}")
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


def butterfly_minor_bruteforce(
    d: Digraph, h: Digraph, limit: int = BM_ORACLE_LIMIT
) -> bool:
    """Is h a butterfly minor of d?  Exhaustive closure with canonical memo."""
    if d.n > limit:
        raise OracleLimitExceeded(f"{d.n} vertices exceeds oracle limit {limit}")
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


def proper_butterfly_minors(d: Digraph, limit: int = BM_ORACLE_LIMIT) -> list[Digraph]:
    """All proper butterfly minors up to isomorphism (closure enumeration)."""
    if d.n > limit:
        raise OracleLimitExceeded(f"{d.n} vertices exceeds oracle limit {limit}")
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


def antichain_member(j: Digraph, d: Digraph, limit: int = BM_ORACLE_LIMIT) -> bool:
    """Is j a member of the fundamental anti-chain based on d?

    True iff Split(j) contains Split(d) as a matching minor while the split
    of every proper butterfly minor of j is free of it.
    """
    bj, _, _ = split(j)
    bd, _, _ = split(d)
    if not matching_minor_bruteforce(bj, bd, limit=2 * limit):
        return False
    for g in proper_butterfly_minors(j, limit=limit):
        if g.n * 2 < bd.n:
            continue
        bg, _, _ = split(g)
        if matching_minor_bruteforce(bg, bd, limit=2 * limit):
            return False
    return True


def is_strongly_planar(d: Digraph) -> bool:
    """A digraph is strongly planar iff its split is planar."""
    b, _, _ = split(d)
    return planarity_test(b)


# ---------------------------------------------------------------------------
# Matching minor checking through the disjoint alternating paths solver.
# ---------------------------------------------------------------------------


def _h_automorphism_images(h: BipartiteGraph) -> list[dict[int, int]]:
    from .isomorphism import bipartite_automorphisms

    if h.n <= 12:
        return bipartite_automorphisms(h)
    return [{v: v for v in h.vertices}]


def matching_minor_check(b: BipartiteGraph, h: BipartiteGraph) -> bool:
    """Decide matching minor containment by guessing the model's anchor
    structure and solving F-extending disjoint alternating path instances.

    Every model can be normalised so that each vertex model is its exposed
    vertex plus anchor matching edges joined by even legs; the legs and the
    edge paths become terminal pairs of one DAPP instance whose forced set F
    consists of the anchor edges and the conformal-path end edges.
    """
    from .bigraph import enumerate_perfect_matchings, is_matching_covered

    if not is_matching_covered(h):
        raise ModelInvalid("pattern must be matching covered")
    if not has_perfect_matching(b):
        return False
    if h.n > b.n or len(h.edges) > len(b.edges):
        return False

    h_pms = enumerate_perfect_matchings(h)
    autos = _h_automorphism_images(h)

    def orbit_key(m_h: Matching) -> Matching:
        best = None
        for a in autos:
            img = frozenset(
                (min(a[u], a[v]), max(a[u], a[v])) for u, v in m_h
            )
            key = tuple(sorted(img))
            if best is None or key < best:
                best = key
        return frozenset(best)  # type: ignore[arg-type]

    seen_mh: set = set()
    budget_total = b.n - h.n  # spare vertices for legs, spines, path interiors

    for m_h in h_pms:
        key = frozenset(orbit_key(m_h))
        if key in seen_mh:
            continue
        seen_mh.add(key)
        if _check_with_mh(b, h, m_h, budget_total):
            return True
    return False


def _check_with_mh(
    b: BipartiteGraph,
    h: BipartiteGraph,
    m_h: Matching,
    budget: int,
) -> bool:
    h_vertices = sorted(h.vertices)
    non_m_edges = sorted(e for e in h.edges if e not in m_h)
    mate_h: dict[int, int] = {}
    for u, v in m_h:
        mate_h[u] = v
        mate_h[v] = u

    # anchor slot patterns: every non-matching h-edge at u goes to slot 0
    # (the exposed vertex) or to a numbered spine slot
    def slot_patterns(u: int) -> list[tuple[tuple[int, ...], int]]:
        incident = [e for e in non_m_edges if u in e]
        out: list[tuple[tuple[int, ...], int]] = []

        def rec(i: int, assign: list[int], top: int) -> None:
            if i == len(incident):
                out.append((tuple(assign), top))
                return
            for slot in range(0, min(top + 1, len(incident)) + 1):
                if slot > top + 1:
                    continue
                assign.append(slot)
                rec(i + 1, assign, max(top, slot))
                assign.pop()

        rec(0, [], 0)
        return out

    patterns_by_u = {u: slot_patterns(u) for u in h_vertices}

    def tree_shapes(a_u: int) -> list[tuple[int, ...]]:
        # parent[j] for spine slots 1..a_u, parent < j (rooted at slot 0)
        if a_u == 0:
            return [()]
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

    def assignments(idx: int, chosen: dict, spine_budget: int) -> Iterator[dict]:
        if idx == len(h_vertices):
            yield dict(chosen)
            return
        u = h_vertices[idx]
        for pattern, a_u in patterns_by_u[u]:
            if 2 * a_u > spine_budget:
                continue
            for shape in tree_shapes(a_u):
                chosen[u] = (pattern, a_u, shape)
                yield from assignments(idx + 1, chosen, spine_budget - 2 * a_u)
                del chosen[u]

    colour_of = {u: (1 if u <= h.n1 else 2) for u in h.vertices}

    for flip in (False, True):
        if flip and h.n1 != h.n2:
            continue

        def b_class(u: int) -> int:
            c = colour_of[u]
            return c if not flip else 3 - c

        for combo in assignments(0, {}, budget):
            if _place_and_solve(b, h, m_h, combo, b_class):
                return True
    return False


def _place_and_solve(b, h, m_h, combo, b_class) -> bool:
    """Choose concrete vertices and edges for the guessed structure, then
    solve the resulting forced DAPP instance."""
    from .linkage import _solve_full

    h_vertices = sorted(h.vertices)
    non_m_edges = sorted(e for e in h.edges if e not in m_h)
    mate_h: dict[int, int] = {}
    for u, v in m_h:
        mate_h[u] = v
        mate_h[v] = u

    # concrete choices: exposed vertex x_u per h-vertex, spine edges per slot
    used: set[int] = set()
    exposed: dict[int, int] = {}
    spine: dict[tuple[int, int], Edge] = {}  # (u, slot>=1) -> edge

    slack0 = b.n - h.n - sum(2 * combo[u][1] for u in h_vertices)
    if slack0 < 0:
        return False

    # anchor slots per (vertex, incident non-matching edge)
    slot_of: dict[tuple[int, Edge], int] = {}
    for u in h_vertices:
        pattern = combo[u][0]
        incident = [e for e in non_m_edges if u in e]
        for i, e in enumerate(incident):
            slot_of[(u, e)] = pattern[i]

    # degree demand per slot: distinct host edges leave every anchor
    def slot_demand(u: int, slot: int) -> int:
        pattern, a_u, shape = combo[u]
        paths = sum(1 for e in non_m_edges if u in e and slot_of[(u, e)] == slot)
        legs = sum(1 for j in range(1, a_u + 1) if shape[j - 1] == slot)
        ends = 1 if slot == 0 else 0  # the conformal-path end edge at x_u
        spine_edge = 0 if slot == 0 else 1
        return paths + legs + ends + spine_edge

    def old_end(e: Edge, u: int) -> int:
        return e[0] if b_class(u) == 1 else e[1]

    def new_end(e: Edge, u: int) -> int:
        return e[1] if b_class(u) == 1 else e[0]

    def anchor_vertex(u: int, slot: int) -> int | None:
        if slot == 0:
            return exposed.get(u)
        e = spine.get((u, slot))
        return None if e is None else old_end(e, u)

    def path_demand() -> int:
        demand = 0
        for e in non_m_edges:
            u, v = e
            au = anchor_vertex(u, slot_of[(u, e)])
            av = anchor_vertex(v, slot_of[(v, e)])
            if au is not None and av is not None and not b.has_edge(au, av):
                demand += 2
        for u, v in m_h:
            xu, xv = exposed.get(u), exposed.get(v)
            if xu is not None and xv is not None and not b.has_edge(xu, xv):
                demand += 2
        return demand

    def place(idx: int) -> bool:
        if idx == len(h_vertices):
            return solve()
        u = h_vertices[idx]
        pattern, a_u, shape = combo[u]
        want1 = b_class(u) == 1
        need = slot_demand(u, 0)
        candidates = [
            v for v in (b.v1 if want1 else b.v2)
            if v not in used and b.degree(v) >= need
        ]
        for x in candidates:
            exposed[u] = x
            used.add(x)
            if path_demand() <= slack0 and place_spines(u, 1, a_u, idx):
                return True
            used.remove(x)
            del exposed[u]
        return False

    def place_spines(u: int, slot: int, a_u: int, idx: int) -> bool:
        if slot > a_u:
            return place(idx + 1)
        need = slot_demand(u, slot)
        for e in sorted(b.edges):
            if e[0] in used or e[1] in used:
                continue
            if b.degree(old_end(e, u)) < need:
                continue
            spine[(u, slot)] = e
            used.update(e)
            if path_demand() <= slack0 and place_spines(u, slot + 1, a_u, idx):
                return True
            used.difference_update(e)
            del spine[(u, slot)]
        return False

    def solve() -> bool:
        leg_pairs: list[tuple[int, int]] = []
        for u in h_vertices:
            pattern, a_u, shape = combo[u]
            for j in range(1, a_u + 1):
                p = shape[j - 1]
                a_vertex = exposed[u] if p == 0 else old_end(spine[(u, p)], u)
                q_vertex = new_end(spine[(u, j)], u)
                pair = (a_vertex, q_vertex) if a_vertex <= b.n1 else (q_vertex, a_vertex)
                leg_pairs.append(pair)
        return mh_rec(sorted(m_h), set(spine.values()), leg_pairs)

    def mh_rec(edges_left: list[Edge], forced: set[Edge], pairs: list) -> bool:
        if not edges_left:
            return run(frozenset(forced), tuple(pairs))
        u, v = edges_left[0]
        xu, xv = exposed[u], exposed[v]
        # degenerate realisation: the pattern matching edge maps to a single
        # matching edge of the host
        if b.has_edge(xu, xv):
            e = b.edge(xu, xv)
            forced.add(e)
            if mh_rec(edges_left[1:], forced, pairs):
                return True
            forced.discard(e)
        # general: pick the two end edges of the conformal path
        for pu in sorted(b.adj[xu]):
            if pu in used or pu == xv:
                continue
            eu = b.edge(xu, pu)
            for pv in sorted(b.adj[xv]):
                if pv in used or pv == xu or pv == pu:
                    continue
                ev = b.edge(xv, pv)
                forced.update((eu, ev))
                used.update((pu, pv))
                pair = (pv, pu) if pv <= b.n1 else (pu, pv)
                pairs.append(pair)
                if mh_rec(edges_left[1:], forced, pairs):
                    return True
                pairs.pop()
                used.difference_update((pu, pv))
                forced.difference_update((eu, ev))
        return False

    def run(forced: frozenset[Edge], pairs: tuple) -> bool:
        # edge paths of h join anchors of their endpoints
        all_pairs = list(pairs)
        for e in non_m_edges:
            u, v = e
            pu_pattern = combo[u][0]
            pv_pattern = combo[v][0]
            iu = [x for x in non_m_edges if u in x].index(e)
            iv = [x for x in non_m_edges if v in x].index(e)
            slot_u = pu_pattern[iu]
            slot_v = pv_pattern[iv]
            au = exposed[u] if slot_u == 0 else (
                spine[(u, slot_u)][0] if b_class(u) == 1 else spine[(u, slot_u)][1]
            )
            av = exposed[v] if slot_v == 0 else (
                spine[(v, slot_v)][0] if b_class(v) == 1 else spine[(v, slot_v)][1]
            )
            pair = (au, av) if au <= b.n1 else (av, au)
            all_pairs.append(pair)
        terminals = {x for p in all_pairs for x in p}
        banned = frozenset(x for f in forced for x in f) - terminals
        ok_matching = len({x for f in forced for x in f}) == 2 * len(forced)
        if not ok_matching:
            return False
        if not has_perfect_matching(b, frozenset(x for f in forced for x in f)):
            return False
        return _solve_full(b, tuple(all_pairs), banned, frozenset(forced))

    return place(0)
