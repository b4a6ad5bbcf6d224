"""Bipartite graphs, matchings, conformality, extendability, bicontraction.

Vertices are dense 1-based integers: the black class V1 is [1..n1] and the
white class V2 is [n1+1..n1+n2].  Edges are stored as pairs (u, v) with
u in V1 and v in V2.  All graph values are immutable; every operation is a
pure function, so concurrent use on shared graphs is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .digraph import component_masks, mask_members, mask_reach
from .errors import DegreeNotTwo, InvalidMatching, OracleLimitExceeded

Edge = tuple[int, int]
Matching = frozenset[Edge]
VertexSet = frozenset[int]

ORACLE_VERTEX_LIMIT = 24


@dataclass(frozen=True)
class BipartiteGraph:
    """Simple bipartite graph with colour classes V1 = [1..n1], V2 = [n1+1..n1+n2]."""

    n1: int
    n2: int
    edges: Matching = frozenset()

    def __post_init__(self) -> None:
        n1, n = self.n1, self.n1 + self.n2
        if n1 < 0 or self.n2 < 0:
            raise ValueError("negative class size")
        edges = frozenset(self.edges)
        # an edge given as (v, u) is turned round; what is then not in
        # V1 x V2 is refused
        odd = [(u, v) for u, v in edges if not 0 < u <= n1 < v <= n]
        if odd:
            turned = {(u, v) if u < v else (v, u) for u, v in odd}
            for u, v in turned:
                if not 1 <= u <= n1 < v:
                    raise ValueError(f"edge ({u},{v}) does not join V1 to V2")
            for _, v in turned:
                if v > n:
                    raise ValueError(f"vertex {v} out of range")
            edges = edges.difference(odd).union(turned)
        object.__setattr__(self, "edges", edges)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def v1(self) -> range:
        return range(1, self.n1 + 1)

    @property
    def v2(self) -> range:
        return range(self.n1 + 1, self.n1 + self.n2 + 1)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def colour(self, v: int) -> int:
        return 1 if v <= self.n1 else 2

    @cached_property
    def adj(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Neighbourhood of each vertex as an int mask (vertex v is bit v);
        entry 0 is unused."""
        masks = [0] * (self.n + 1)
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def dp_rows(self) -> tuple[int, ...]:
        """V1 in the order the porosity DP takes its rows: each next row
        adds the fewest columns no earlier row sees, ties to the lowest
        row.  On shuffled ladders and grids this keeps the DP's frontier
        of half-used columns narrow."""
        adj = self.adj_masks
        left = list(self.v1)
        order = []
        seen = 0
        while left:
            u = min(left, key=lambda x: (adj[x] & ~seen).bit_count())
            left.remove(u)
            order.append(u)
            seen |= adj[u]
        return tuple(order)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def edge(self, u: int, v: int) -> Edge:
        if u > v:
            u, v = v, u
        if (u, v) not in self.edges:
            raise ValueError(f"({u},{v}) is not an edge")
        return (u, v)

    def is_connected(self) -> bool:
        every = ((1 << self.n) - 1) << 1
        return self.n <= 1 or mask_reach(self.adj_masks, 1 << 1, every) == every

    def cut(self, shore: Iterable[int]) -> frozenset[Edge]:
        """Edge cut around the shore: edges with exactly one endpoint inside."""
        s = set(shore)
        return frozenset(e for e in self.edges if (e[0] in s) != (e[1] in s))


def graph_from_edges(n1: int, n2: int, pairs: Iterable[tuple[int, int]]) -> BipartiteGraph:
    return BipartiteGraph(n1, n2, frozenset(tuple(p) for p in pairs))


def induced_subgraph(
    b: BipartiteGraph, keep: VertexSet
) -> tuple[BipartiteGraph, dict[int, int], dict[int, int]]:
    """Induced subgraph on keep with dense renumbering; returns maps both ways."""
    blacks = sorted(v for v in keep if v <= b.n1)
    whites = sorted(v for v in keep if v > b.n1)
    fwd: dict[int, int] = {}
    for i, v in enumerate(blacks, start=1):
        fwd[v] = i
    for i, v in enumerate(whites, start=len(blacks) + 1):
        fwd[v] = i
    back = {i: v for v, i in fwd.items()}
    edges = frozenset(
        (fwd[u], fwd[v]) for u, v in b.edges if u in keep and v in keep
    )
    return BipartiteGraph(len(blacks), len(whites), edges), fwd, back


# ---------------------------------------------------------------------------
# Maximum matching (augmenting-path / Hopcroft-Karp) -- the single primitive
# behind all perfect-matching existence and extendability checks.
# ---------------------------------------------------------------------------


def max_matching(b: BipartiteGraph, banned: frozenset[int] = frozenset()) -> dict[int, int]:
    """Maximum matching of b minus the banned vertices, as a map V1 -> V2.

    Hopcroft-Karp on `adj_masks`, with V1 and each vertex's neighbours
    taken in ascending order; partners are kept in lists, where 0 marks
    a vertex not yet matched.  Each phase's layered search runs from each
    free V1 vertex on an explicit stack of (vertex, neighbour iterator)
    pairs, so a long augmenting path costs no Python recursion."""
    gone = 0
    for x in banned:
        gone |= 1 << x
    masks = b.adj_masks
    left = [u for u in b.v1 if not gone >> u & 1]
    adj: list[list[int]] = [[] for _ in range(b.n1 + 1)]
    for u in left:
        row = masks[u] & ~gone
        nbrs = adj[u]
        while row:
            low = row & -row
            row ^= low
            nbrs.append(low.bit_length() - 1)
    pair_u = [0] * (b.n1 + 1)
    pair_v = [0] * (b.n + 1)
    inf = b.n + 1  # above every BFS layer
    dist = [inf] * (b.n1 + 1)
    while True:
        queue = []
        for u in left:
            if pair_u[u]:
                dist[u] = inf
            else:
                dist[u] = 0
                queue.append(u)
        found = inf
        for u in queue:
            if dist[u] >= found:
                continue
            for v in adj[u]:
                w = pair_v[v]
                if not w:
                    found = min(found, dist[u] + 1)
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if found == inf:
            break
        for root in left:
            if pair_u[root]:
                continue
            stack = [(root, iter(adj[root]))]
            while stack:
                u, rest = stack[-1]
                for v in rest:
                    w = pair_v[v]
                    if not w:
                        # augment: the top vertex takes v, and each one
                        # below it the partner of the vertex above
                        for x, _ in reversed(stack):
                            pair_v[v] = x
                            pair_u[x], v = v, pair_u[x]
                        stack.clear()
                        break
                    if dist[w] == dist[u] + 1:
                        stack.append((w, iter(adj[w])))
                        break
                else:
                    dist[u] = inf
                    stack.pop()
    return {u: pair_u[u] for u in left if pair_u[u]}


def has_perfect_matching(b: BipartiteGraph, banned: frozenset[int] = frozenset()) -> bool:
    """True iff b minus the banned vertices has a perfect matching."""
    left = sum(1 for u in b.v1 if u not in banned)
    right = sum(1 for v in b.v2 if v not in banned)
    if left != right:
        return False
    return len(max_matching(b, banned)) == left


def some_perfect_matching(b: BipartiteGraph, banned: frozenset[int] = frozenset()) -> Matching | None:
    """A perfect matching of b minus banned, or None.  Deterministic."""
    left = sum(1 for u in b.v1 if u not in banned)
    right = sum(1 for v in b.v2 if v not in banned)
    if left != right:
        return None
    pair = max_matching(b, banned)
    if len(pair) != left:
        return None
    return frozenset((u, v) for u, v in pair.items())


def check_matching(b: BipartiteGraph, f: Iterable[Edge]) -> Matching:
    """Validate that f is a matching in b; returns it normalised."""
    edges = frozenset((min(u, v), max(u, v)) for u, v in f)
    covered: set[int] = set()
    for u, v in edges:
        if (u, v) not in b.edges:
            raise InvalidMatching(f"({u},{v}) is not an edge of the host graph")
        if u in covered or v in covered:
            raise InvalidMatching("edges are not pairwise disjoint")
        covered.update((u, v))
    return edges


def is_perfect(b: BipartiteGraph, m: Iterable[Edge]) -> bool:
    m = frozenset(m)
    return len(m) * 2 == b.n and len({x for e in m for x in e}) == b.n


def enumerate_perfect_matchings(b: BipartiteGraph) -> list[Matching]:
    """All perfect matchings, ordered lexicographically by sorted edge list.

    Brute-force oracle; refuses graphs above ORACLE_VERTEX_LIMIT vertices.
    """
    if b.n > ORACLE_VERTEX_LIMIT:
        raise OracleLimitExceeded(f"{b.n} vertices exceeds oracle limit {ORACLE_VERTEX_LIMIT}")
    if b.n1 != b.n2:
        return []
    out: list[Matching] = []
    used: set[int] = set()
    chosen: list[Edge] = []

    def rec(i: int) -> None:
        if i > b.n1:
            out.append(frozenset(chosen))
            return
        for v in sorted(b.adj[i]):
            if v not in used:
                used.add(v)
                chosen.append((i, v))
                rec(i + 1)
                chosen.pop()
                used.remove(v)

    rec(1)
    return out


def is_extendable(b: BipartiteGraph, f: Iterable[Edge]) -> bool:
    """True iff some perfect matching of b contains the matching f."""
    edges = check_matching(b, f)
    banned = frozenset(x for e in edges for x in e)
    return has_perfect_matching(b, banned)


def is_conformal(b: BipartiteGraph, x: Iterable[int]) -> bool:
    """True iff b minus the vertex set x still has a perfect matching."""
    return has_perfect_matching(b, frozenset(x))


def admissible_edges(b: BipartiteGraph) -> frozenset[Edge]:
    """Edges contained in at least one perfect matching (empty if no PM):
    `admissible_edges_for` one perfect matching that Hopcroft-Karp finds."""
    if b.n1 != b.n2:
        return frozenset()
    pair = max_matching(b)
    if len(pair) != b.n1:
        return frozenset()
    return admissible_edges_for(b, pair.items())


def admissible_edges_for(b: BipartiteGraph, m: Iterable[Edge]) -> frozenset[Edge]:
    """The edges of b contained in at least one perfect matching, given a
    perfect matching m of b as (V1 end, V2 end) pairs.

    One split of m's M-direction decides every edge: an edge is admissible
    iff both its ends lie in one elementary part, a strong component of the
    M-direction.  The M-direction is built as successor and predecessor
    masks over V1, vertex u standing for the matching edge at u, so an edge
    (u, v) is the arc from u to v's mate.  `digraph.component_masks` splits
    it, since no order of the parts is read; an edge is kept iff u and v's
    mate lie in one part.
    """
    n1 = b.n1
    mate = [0] * (b.n + 1)
    for u, v in m:
        mate[v] = u
    out = [0] * (n1 + 1)
    inn = [0] * (n1 + 1)
    for u, v in b.edges:
        w = mate[v]
        if w != u:
            out[u] |= 1 << w
            inn[w] |= 1 << u
    part = [0] * (n1 + 1)
    for comp in component_masks(out, inn, ((1 << n1) - 1) << 1):
        for u in mask_members(comp):
            part[u] = comp
    return frozenset(e for e in b.edges if part[e[0]] == part[mate[e[1]]])


def is_matching_covered(b: BipartiteGraph) -> bool:
    """Connected and every edge admissible."""
    if b.n == 0 or not b.is_connected():
        return False
    return admissible_edges(b) == b.edges and len(b.edges) > 0


def bicontract(b: BipartiteGraph, v: int) -> tuple[BipartiteGraph, dict[int, int], int]:
    """Contract the degree-2 vertex v with both of its neighbours.

    Returns (new graph, old-id -> new-id map for surviving vertices, id of
    the contraction vertex).  Parallel edges are merged silently.
    """
    if not (1 <= v <= b.n):
        raise ValueError(f"no vertex {v}")
    nbrs = sorted(b.adj[v])
    if len(nbrs) != 2:
        raise DegreeNotTwo(f"vertex {v} has degree {len(nbrs)}")
    v1_, v2_ = nbrs
    removed = {v, v1_, v2_}
    new_colour = b.colour(v1_)  # the contraction vertex takes the neighbours' colour

    survivors_black = [x for x in b.v1 if x not in removed]
    survivors_white = [x for x in b.v2 if x not in removed]
    if new_colour == 1:
        survivors_black.append(0)  # placeholder for the new vertex, appended last
    else:
        survivors_white.append(0)
    n1_new = len(survivors_black)
    n2_new = len(survivors_white)

    mapping: dict[int, int] = {}
    new_vertex = -1
    for i, x in enumerate(survivors_black, start=1):
        if x == 0:
            new_vertex = i
        else:
            mapping[x] = i
    for i, x in enumerate(survivors_white, start=n1_new + 1):
        if x == 0:
            new_vertex = i
        else:
            mapping[x] = i

    merged_nbrs = (b.adj[v1_] | b.adj[v2_]) - removed
    new_edges: set[Edge] = set()
    for u, w in b.edges:
        if u in removed or w in removed:
            continue
        a, c = mapping[u], mapping[w]
        new_edges.add((min(a, c), max(a, c)))
    for x in merged_nbrs:
        a, c = mapping[x], new_vertex
        new_edges.add((min(a, c), max(a, c)))
    return BipartiteGraph(n1_new, n2_new, frozenset(new_edges)), mapping, new_vertex
