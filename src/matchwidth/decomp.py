"""Width decompositions: pmw/cycle width, desk-scale directed treewidth via
the cops-and-robber game, and the conversion from directed tree
decompositions to perfect matching decompositions, with the niceness
certificate `nice_pmd_check` for the k-DAPP route."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, permutations
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .bigraph import (
    BipartiteGraph,
    Edge,
    Matching,
    induced_subgraph,
    is_conformal,
    some_perfect_matching,
)
from .digraph import (
    Digraph,
    mask_members,
    mask_reach,
    mask_union,
    strong_component_masks,
    vertex_mask,
)
from .direction import VertexTag, elementary_parts, m_direction
from .errors import (
    InvalidDecomposition,
    NoPerfectMatching,
    NotNice,
    OracleLimitExceeded,
)
from .porosity import (
    cycle_porosity,
    directed_cycle_hitting_set,
    matching_porosity,
    matching_porosity_bound,
)

DTW_ORACLE_LIMIT = 12
PMW_ORACLE_LIMIT = 10
COP_GAME_ORACLE_LIMIT = 7


# ---------------------------------------------------------------------------
# Leaf trees (shared by perfect matching and cycle decompositions).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafTree:
    """Tree whose leaves are bijectively mapped onto ground-set elements.

    Internal nodes have degree three; when rooted, the root may instead have
    degree two (equivalent to the unrooted cubic tree with one subdivided
    edge).  A one-node tree maps its single node to the single element.
    """

    adj: tuple[frozenset[int], ...]
    leaf_map: dict[int, int]
    root: int | None = None

    @property
    def m(self) -> int:
        return len(self.adj)

    def validate(self, ground: Iterable[int]) -> None:
        ground = set(ground)
        adj, m = self.adj, self.m
        if m == 0:
            raise InvalidDecomposition("empty tree")
        if self.root is not None and not 0 <= self.root < m:
            raise InvalidDecomposition(f"root {self.root} is not a node")
        if sum(len(a) for a in adj) != 2 * (m - 1):
            raise InvalidDecomposition("not a tree (edge count)")
        for x, nbrs in enumerate(adj):
            for y in nbrs:
                if not 0 <= y < m or x not in adj[y]:
                    raise InvalidDecomposition(f"adjacency of node {x} is not symmetric")
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != m:
            raise InvalidDecomposition("not connected")
        if set(self.leaf_map.values()) != ground or len(self.leaf_map) != len(ground):
            raise InvalidDecomposition("leaf map is not a bijection onto the ground set")
        for x in range(m):
            deg = len(adj[x])
            if x in self.leaf_map:
                if deg > 1:
                    raise InvalidDecomposition(f"leaf {x} has degree {deg}")
            elif deg == 2 and x == self.root:
                pass
            elif deg != 3:
                raise InvalidDecomposition(f"internal node {x} has degree {deg}")

    def rooted(self, root: int) -> RootedTree:
        """The tree hung from `root`; children keep adjacency order."""
        parent = [-1] * self.m
        kids: list[tuple[int, ...]] = [()] * self.m
        order = [root]
        for x in order:
            up = parent[x]
            kids[x] = tuple(y for y in self.adj[x] if y != up)
            for y in kids[x]:
                parent[y] = x
            order.extend(kids[x])
        return RootedTree(self.leaf_map, root, order, kids)

    def binarised(self) -> RootedTree:
        """The rooted view the decomposition DPs walk: hung from the designated
        root when it is internal, else from the lowest internal node, with two
        children at every internal node.  A degree-3 root keeps its first
        child and gets the virtual node m, whose children are the other two.
        A two-node tree hangs both its leaves from the virtual node m.  The
        tree must have at least two nodes."""
        if self.m == 2:
            return RootedTree(self.leaf_map, 2, [2, 0, 1], [(), (), (0, 1)])
        root = self.root
        if root is None or root in self.leaf_map:
            root = next(x for x in range(self.m) if x not in self.leaf_map)
        view = self.rooted(root)
        if len(view.kids[root]) == 3:
            t1, t2, t3 = view.kids[root]
            view.kids[root] = (t1, self.m)
            view.kids.append((t2, t3))
            view.order.insert(1, self.m)
        return view


@dataclass
class RootedTree:
    """A leaf tree hung from `root`: `order` lists the nodes parents first and
    `kids[x]` holds the children of x (none at a leaf, unless it is the root)."""

    leaf_map: dict[int, int]
    root: int
    order: list[int]
    kids: list[tuple[int, ...]]

    def below_masks(self) -> list[int]:
        """Ground elements on the leaves under each node, as masks (element v
        is bit v).  The tree edge from x's parent to x cuts off exactly
        below[x]."""
        out = [0] * len(self.kids)
        for x in reversed(self.order):
            if x in self.leaf_map:
                out[x] = 1 << self.leaf_map[x]
            else:
                for y in self.kids[x]:
                    out[x] |= out[y]
        return out

    def below(self) -> list[frozenset[int]]:
        """`below_masks` as sets."""
        return [mask_members(s) for s in self.below_masks()]

    def cut_masks(self, edges: Sequence[Edge]) -> list[int]:
        """The edges with exactly one end under each node, as masks over
        `edges` (edges[i] is bit i).  The middle cut of an inner node with
        children c1, c2, the edges between the two, is cut[c1] & cut[c2]."""
        incident: dict[int, int] = {}
        for i, (u, v) in enumerate(edges):
            incident[u] = incident.get(u, 0) | 1 << i
            incident[v] = incident.get(v, 0) | 1 << i
        # an inner node's cut is the symmetric difference of its children's
        cut = [0] * len(self.kids)
        for x in reversed(self.order):
            if x in self.leaf_map:
                cut[x] = incident.get(self.leaf_map[x], 0)
            for y in self.kids[x]:
                cut[x] ^= cut[y]
        return cut


class _TreeBuilder:
    """Mutable adjacency accumulator used while assembling leaf trees."""

    def __init__(self) -> None:
        self.adj: list[set[int]] = []

    def node(self) -> int:
        self.adj.append(set())
        return len(self.adj) - 1

    def link(self, x: int, y: int) -> None:
        self.adj[x].add(y)
        self.adj[y].add(x)

    def caterpillar(self, items: list[int]) -> tuple[int, dict[int, int]]:
        """Left-leaning binary caterpillar; returns (root, leaf -> item)."""
        assert items, "a caterpillar needs at least one item"
        spine = self.node()
        leaves = {spine: items[0]}
        for x in items[1:]:
            up = self.node()
            leaf = self.node()
            leaves[leaf] = x
            self.link(up, spine)
            self.link(up, leaf)
            spine = up
        return spine, leaves


def matchings_in(mask: int, ends: Sequence[int], cap: int) -> list[tuple[int, int]]:
    """The matchings inside the edge set `mask` with at most `cap` edges, each
    as (edge mask, vertex mask), the empty matching first; `ends[i]` is the
    vertex mask of edge i.  Both decomposition DPs join a node's children
    over the matchings in their middle cut."""
    out = [(0, 0)]
    while mask:
        low = mask & -mask
        mask ^= low
        ev = ends[low.bit_length() - 1]
        out += [(m | low, v | ev) for m, v in out if not v & ev and m.bit_count() < cap]
    return out


def walk(start: Callable[[Hashable], Iterator[Hashable] | None], top: Hashable) -> None:
    """Settle the memo entry `top` of a decomposition DP, and every entry it
    needs, on an explicit stack, so any tree depth is fine.  `start(key)`
    settles the entry and returns None, or returns a generator that yields
    the key (never None) of each child entry it misses, settled by the time
    it resumes, and settles its own entry before it ends."""
    stack = [iter((top,))]  # asks for top, as a generator asks for a child
    while stack:
        key = next(stack[-1], None)
        if key is None:
            stack.pop()
        else:
            pending = start(key)
            if pending is not None:
                stack.append(pending)


PMDecomposition = LeafTree
CycleDecomposition = LeafTree


def pmd_width(b: BipartiteGraph, dec: PMDecomposition) -> int:
    """Max matching porosity over the tree-edge cuts of the decomposition:
    the independent check of the width that `pm decomp` reports."""
    dec.validate(b.vertices)
    m = some_perfect_matching(b)
    if m is None:
        raise NoPerfectMatching("graph has no perfect matching")
    return cut_width(b, m, dec)


def cut_width(host: BipartiteGraph, m: Matching, tree: PMDecomposition) -> int:
    """`pmd_width` of a tree that `LeafTree.validate` accepts for host's
    vertices, given a perfect matching m of host; the answer does not
    depend on which one.

    Only cuts that can raise the maximum get the exact porosity search.
    The best value so far starts at the larger of 1 (every perfect matching
    crosses a leaf edge's cut exactly once) and the most edges that m uses
    on an inner cut.  Each inner cut has an upper bound from
    `matching_porosity_bound`.  The cuts are searched in falling order of
    their bounds until a bound is no larger than the best value: no
    remaining cut can exceed it, so the maximum is exact.
    """
    if tree.m == 1:
        return 0
    # porosity counts crossing edges, so either shore of a tree edge will do
    shores = tree.rooted(0).below_masks()[1:]
    inner = [s for s in shores if 1 < s.bit_count() < host.n - 1]
    best = max([1] + [sum((s >> u ^ s >> v) & 1 for u, v in m) for s in inner])
    bounded = sorted(
        ((matching_porosity_bound(host, s), s) for s in inner), key=lambda p: -p[0]
    )
    for bound, shore in bounded:
        if bound <= best:
            break
        best = max(best, matching_porosity(host, mask_members(shore)))
    return best


def cycd_width(d: Digraph, dec: CycleDecomposition) -> int:
    """Half the maximum cycle porosity over the tree-edge cuts: the check of
    the width `cycw_exact_small` reports with its decomposition, which
    `matchwidth cops` plays on."""
    dec.validate(d.vertices)
    if dec.m == 1:
        return 0
    below = dec.rooted(0).below()
    worst = max(cycle_porosity(d, below[x]) for x in range(1, dec.m))
    assert worst % 2 == 0, "cycle porosity of a cut is always even"
    return worst // 2


# ---------------------------------------------------------------------------
# Exact small-width search by dynamic programming over vertex subsets.
# ---------------------------------------------------------------------------


def _branch_dp(
    elements: Sequence[int], cut_value: Callable[[frozenset[int]], int]
) -> tuple[int, LeafTree]:
    """Optimal cubic leaf-tree minimising the max cut_value over tree cuts."""
    elems = list(elements)
    n = len(elems)
    if n == 0:
        raise InvalidDecomposition("empty ground set")
    if n == 1:
        return 0, LeafTree((frozenset(),), {0: elems[0]})
    full = (1 << n) - 1

    @cache
    def f(mask: int) -> int:
        return cut_value(frozenset(elems[i] for i in range(n) if mask >> i & 1))

    best = {1 << i: 0 for i in range(n)}
    split: dict[int, int] = {}
    # smaller masks first; the first n are the singletons
    for mask in sorted(range(1, full + 1), key=int.bit_count)[n:]:
        lowbit = mask & -mask
        rest = mask ^ lowbit
        cand = None
        sub = rest
        # iterate proper submasks containing lowbit to halve the work
        while True:
            s1 = sub | lowbit
            s2 = mask ^ s1
            if s2:
                val = max(best[s1], best[s2], f(s1), f(s2))
                if cand is None or val < cand:
                    cand = val
                    split[mask] = s1
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best[mask] = cand  # type: ignore[assignment]

    # root split: every decomposition has some edge splitting V into (A, rest)
    top = None
    top_mask = 0
    for sub in range(1, full):
        if not sub & 1:
            continue  # fix element 0 on the left side to halve the search
        val = max(best[sub], best[full ^ sub], f(sub))
        if top is None or val < top:
            top = val
            top_mask = sub
    assert top is not None

    tb = _TreeBuilder()
    leaf_map: dict[int, int] = {}

    def build(mask: int) -> int:
        # nodes are numbered in pre-order
        idx = tb.node()
        if mask.bit_count() == 1:
            leaf_map[idx] = elems[mask.bit_length() - 1]
        else:
            tb.link(idx, build(split[mask]))
            tb.link(idx, build(mask ^ split[mask]))
        return idx

    tb.link(build(top_mask), build(full ^ top_mask))
    return top, LeafTree(tuple(map(frozenset, tb.adj)), leaf_map)


def pmw_exact_small(b: BipartiteGraph) -> tuple[int, PMDecomposition]:
    """Exact perfect matching width with witness (brute force, small graphs)."""
    if b.n > PMW_ORACLE_LIMIT:
        raise OracleLimitExceeded(f"{b.n} vertices exceeds oracle limit {PMW_ORACLE_LIMIT}")
    if some_perfect_matching(b) is None:
        raise NoPerfectMatching("graph has no perfect matching")

    def f(shore: frozenset[int]) -> int:
        return matching_porosity(b, shore)

    width, tree = _branch_dp(sorted(b.vertices), f)
    tree.validate(b.vertices)
    return width, tree


def cycw_exact_small(d: Digraph) -> tuple[int, CycleDecomposition]:
    """Exact cycle width with witness (brute force, small digraphs)."""
    if d.n > PMW_ORACLE_LIMIT:
        raise OracleLimitExceeded(f"{d.n} vertices exceeds oracle limit {PMW_ORACLE_LIMIT}")

    def f(shore: frozenset[int]) -> int:
        return cycle_porosity(d, shore)

    raw, tree = _branch_dp(sorted(d.vertices), f)
    assert raw % 2 == 0
    return raw // 2, tree


# ---------------------------------------------------------------------------
# Directed tree decompositions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectedTreeDecomposition:
    """Arborescence with bags (partitioning V) and guards on the arcs.

    parent[t] is -1 exactly for the root; guards[t] guards the arc into t
    (empty at the root).  Empty bags are permitted only for proto
    decompositions (`validate_dtd` with proto=True, as `dtw --dtd FILE
    --proto` reads them): `dtw_exact_small` gives every node a non-empty
    bag, and `prepare_dtd`'s chain nodes have empty ones.
    """

    parent: tuple[int, ...]
    bags: tuple[frozenset[int], ...]
    guards: tuple[frozenset[int], ...]

    @property
    def m(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return self.parent.index(-1)

    @cached_property
    def kids(self) -> tuple[tuple[int, ...], ...]:
        """The children of each node, in ascending order."""
        out: list[list[int]] = [[] for _ in self.parent]
        for s, p in enumerate(self.parent):
            if p != -1:
                out[p].append(s)
        return tuple(tuple(c) for c in out)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """The nodes a root reaches, parents first: all of them unless the
        parent pointers contain a cycle."""
        out = [t for t, p in enumerate(self.parent) if p == -1]
        for t in out:
            out.extend(self.kids[t])
        return tuple(out)

    @cached_property
    def subtree_masks(self) -> tuple[int, ...]:
        """The vertices in the bags of each node's subtree, as a mask (vertex
        v is bit v).  Bags must hold no negative vertex ids."""
        out = [vertex_mask(bag) for bag in self.bags]
        for t in reversed(self.order):
            for s in self.kids[t]:
                out[t] |= out[s]
        return tuple(out)

    def gamma(self, t: int) -> frozenset[int]:
        out = set(self.bags[t])
        if self.parent[t] != -1:
            out |= self.guards[t]
        for c in self.kids[t]:
            out |= self.guards[c]
        return frozenset(out)

    def width(self) -> int:
        return max(len(self.gamma(t)) for t in range(self.m)) - 1


def validate_dtd(
    d: Digraph, dec: DirectedTreeDecomposition, proto: bool = False
) -> tuple[bool, int, str | None]:
    """Check the decomposition axioms; returns (valid, width, reason).

    proto=True also accepts empty bags, as `matchwidth dtw --dtd FILE
    --proto` asks."""
    m = dec.m
    if dec.parent.count(-1) != 1:
        return False, 0, "not exactly one root"
    if len(dec.order) != m:
        return False, 0, "parent pointers contain a cycle"
    covered: set[int] = set()
    for t in range(m):
        bag = dec.bags[t]
        if not proto and not bag:
            return False, 0, f"empty bag at node {t}"
        if covered & bag:
            return False, 0, "bags overlap"
        covered |= bag
    if covered != set(d.vertices):
        return False, 0, "bags do not partition the vertex set"
    out = d.out_masks
    for t in range(m):
        if dec.parent[t] == -1:
            continue
        below = dec.subtree_masks[t]
        # ids outside the digraph guard nothing
        guard = vertex_mask(v for v in dec.guards[t] if v >= 0)
        inner = below & ~guard
        if not inner:
            continue
        outside = mask_reach(out, inner, ~guard) & ~below
        if outside and mask_reach(out, outside, ~guard) & inner:
            return False, 0, f"guard of node {t} misses a walk"
    return True, dec.width(), None


# ---------------------------------------------------------------------------
# Cops and robber: exact search and decomposition extraction.
# ---------------------------------------------------------------------------


class _SccTable(dict):
    """For a banned vertex mask: the strong components of d minus it, as
    vertex masks, largest first.  Filled on first use.

    The entry for a non-empty mask S with lowest vertex v is made from the
    entry for S - v: each component that misses v stays, and the component
    C that holds v gives way to the strong components of d[C - v].  That is
    exact because a cycle through two vertices of a strong component stays
    inside that component.  The entry for the empty mask is the same split
    of the whole vertex set, so no entry needs a full Tarjan pass.  Only the
    order inside an entry is not Tarjan's: a caller that outputs components
    in order calls `strong_component_masks`.
    """

    def __init__(self, d: Digraph) -> None:
        super().__init__()
        self.d = d
        self.every = ((1 << d.n) - 1) << 1
        self[0] = tuple(sorted(self._split(self.every), key=int.bit_count, reverse=True))

    def _split(self, keep: int) -> list[int]:
        """The strong components of d[keep]: from the lowest vertex left, a
        forward closure in keep and then a backward closure in what it
        reached."""
        out, inn = self.d.out_masks, self.d.in_masks
        comps = []
        while keep:
            start = keep & -keep
            comp = mask_reach(inn, start, mask_reach(out, start, keep))
            comps.append(comp)
            keep ^= comp
        return comps

    def __missing__(self, banned: int) -> tuple[int, ...]:
        assert not banned & ~self.every, "a banned bit is no vertex of d"
        chain = []
        while banned not in self:
            chain.append(banned)
            banned &= banned - 1
        comps = self[banned]
        for banned in reversed(chain):
            v = banned & -banned
            i = 0
            while not comps[i] & v:
                i += 1
            parts = self._split(comps[i] ^ v)
            rest = comps[:i] + comps[i + 1 :]  # still largest first
            if parts:
                rest = tuple(sorted(rest + tuple(parts), key=int.bit_count, reverse=True))
            comps = self[banned] = rest
        return comps


def _responses(table: _SccTable, cops: int, robber: int, move: int) -> list[int]:
    """Robber components after the cops move from `cops` to `move` (the
    standard transition rule): the components of d - move inside the
    component of d - (cops & move) that holds the robber, in the table's
    order, largest first."""
    region = next(c for c in table[cops & move] if c & robber)
    return [c for c in table[move] if c & region]


def _monotone_win(table: _SccTable, moves: list[int], upto: list[int]) -> dict[int, int] | None:
    """The first winning move, in the order of `moves`, of each position the
    progress-monotone game with k = len(upto) - 1 cops reaches, keyed on
    `robber << (n + 1) | cops`, with 0 where the cops lose; None if they
    lose from the start.  `moves` lists vertex masks by size, then in
    combination order, and its first `upto[s]` entries are those of at most
    s vertices.

    A move places at least one cop inside the robber component and must
    shrink the territory, so the search is acyclic and memoisable.  Only
    such moves are listed.  A move keeps some cops `hold` and adds cops y
    outside `cops`; it shrinks the territory iff the component of d - hold
    around the robber lies inside robber | move.  That component holds the
    robber component, and any lifted cop in it lies outside the move; if it
    holds no cop, it is strongly connected in d - cops and so lies inside
    the robber component.  So the move is monotone iff that component is
    the robber component itself, that is, iff the robber component is an
    entry of `table[hold]`.

    A move wins iff every response wins, so the order in which the
    responses are tried changes no memo value.  They are tried in the
    table's order, largest first, which refutes a losing move sooner.
    """
    k = len(upto) - 1
    within = [moves[:end] for end in upto]  # the moves of at most s vertices
    rank = {move: i for i, move in enumerate(within[k])}
    shift = table.d.n + 1
    memo: dict[int, int] = {}  # 0: the position is lost

    def win(cops: int, robber: int) -> int:
        key = robber << shift | cops
        result = memo.get(key)
        if result is not None:
            return result
        result = 0
        legal: list[int] = []
        hold = cops
        while True:  # the submasks of cops, cops first
            room = k - hold.bit_count()
            if room and robber in table[hold]:
                legal += [hold | y for y in within[room] if y & robber and not y & cops]
            if not hold:
                break
            hold = (hold - 1) & cops
        # each hold's moves come in `moves` order, as adding one disjoint set
        # keeps combination order; sorting merges the holds
        legal.sort(key=rank.__getitem__)
        for move in legal:
            for c in table[move]:
                if c & robber and not win(move, c):
                    break
            else:
                result = move
                break
        memo[key] = result
        return result

    if not all(win(0, c) for c in table[0]):
        return None
    return memo


def cop_number_game_exact(d: Digraph) -> int:
    """True game value with arbitrary (including repositioning) moves.

    Least-fixpoint computation over all positions; tiny digraphs only.
    The oracle for the progress-monotone search of `dtw_exact_small`.
    """
    if d.n > COP_GAME_ORACLE_LIMIT:
        raise OracleLimitExceeded(
            f"{d.n} vertices exceeds oracle limit {COP_GAME_ORACLE_LIMIT}"
        )
    verts = sorted(d.vertices)
    table = _SccTable(d)
    for k in range(1, d.n + 1):
        cop_sets = [vertex_mask(c) for size in range(0, k + 1) for c in combinations(verts, size)]
        positions = [(c, r) for c in cop_sets for r in table[c]]
        winning: set[tuple[int, int]] = set()
        changed = True
        while changed:
            changed = False
            for pos in positions:
                if pos in winning:
                    continue
                cops, robber = pos
                for move in cop_sets:
                    if not move:
                        continue
                    responses = _responses(table, cops, robber, move)
                    if all((move, r) in winning for r in responses):
                        winning.add(pos)
                        changed = True
                        break
        if all((0, r) in winning for r in table[0]):
            return k
    raise AssertionError("n cops always win")


def dtw_exact_small(d: Digraph) -> tuple[int, DirectedTreeDecomposition]:
    """Minimum cop number (progress-monotone game) and a certificate
    decomposition of width at most 2k - 1 <= 3k - 2 extracted from the
    winning strategy.

    One cop wins exactly when d is acyclic, so a cyclic d starts at two:
    once the cop sits at v in the robber's component S, every next move
    {w} lifts v, and the component of d around the robber is S, which
    still holds v, so no monotone move exists.

    The search reads `_SccTable`, whose entries are largest first.  The
    tree lists the children of a node, and the extra children of the root,
    in Tarjan's order: where there are two or more it reads them from
    `strong_component_masks`, so the output does not depend on the table's
    order.  A strategy move is monotone, so its responses are the
    components of d - move that meet the robber.
    """
    if d.n > DTW_ORACLE_LIMIT:
        raise OracleLimitExceeded(f"{d.n} vertices exceeds oracle limit {DTW_ORACLE_LIMIT}")
    if d.n == 0:
        raise InvalidDecomposition("empty digraph")
    table = _SccTable(d)
    verts = sorted(d.vertices)
    moves: list[int] = []
    upto = [0]
    first = 2 if any(c & (c - 1) for c in table[0]) else 1
    for number in range(1, d.n + 1):
        moves += [vertex_mask(c) for c in combinations(verts, number)]
        upto.append(len(moves))
        if number < first:
            continue
        strategy = _monotone_win(table, moves, upto)
        if strategy is not None:
            break
    assert strategy is not None

    shift = d.n + 1
    parent: list[int] = []
    bags: list[frozenset[int]] = []
    guards: list[frozenset[int]] = []

    def build(cops: int, robber: int, parent_idx: int) -> int:
        move = strategy[robber << shift | cops]
        idx = len(parent)
        parent.append(parent_idx)
        bags.append(mask_members(move & robber))
        guards.append(mask_members(cops))
        resps = [c for c in table[move] if c & robber]
        if len(resps) > 1:
            resps = [c for c in strong_component_masks(d, move) if c & robber]
        for resp in resps:
            build(move, resp, idx)
        return idx

    start = table[0]
    if len(start) > 1:
        start = strong_component_masks(d)
    root_idx = build(0, start[0], -1)
    for comp in start[1:]:
        build(0, comp, root_idx)
        # the extra children of the root get guard = empty cop set, which
        # strongly guards a strong component of d
    dec = DirectedTreeDecomposition(tuple(parent), tuple(bags), tuple(guards))
    ok, _, reason = validate_dtd(d, dec)
    if not ok:
        raise AssertionError(f"extracted decomposition invalid: {reason}")
    return number, dec


# ---------------------------------------------------------------------------
# The explicit pursuit from a cycle decomposition (Lemma "cops can catch").
# ---------------------------------------------------------------------------


@dataclass
class PlayTranscript:
    cop_positions: list[frozenset[int]] = field(default_factory=list)

    def max_cops(self) -> int:
        return max((len(c) for c in self.cop_positions), default=0)


def cops_play(d: Digraph, dec: CycleDecomposition) -> PlayTranscript:
    """Execute the guard-set pursuit along the decomposition tree.

    Cops occupy, per tree edge, a hitting set for all directed cycles
    crossing the induced cut, then descend towards the robber's subtree.
    The robber takes the largest component, ties to the one with the
    smallest vertex.  It returns only on capture, so the transcript ends
    there; an escape raises AssertionError.
    """
    dec.validate(d.vertices)
    table = _SccTable(d)
    transcript = PlayTranscript()

    def robber(options: Iterable[int]) -> frozenset[int] | None:
        best = max(options, key=lambda c: (c.bit_count(), -(c & -c)), default=None)
        return None if best is None else mask_members(best)

    def place(cops: frozenset[int], prev: frozenset[int], prev_robber: frozenset[int]) -> frozenset[int] | None:
        transcript.cop_positions.append(cops)
        return robber(
            _responses(table, vertex_mask(prev), vertex_mask(prev_robber), vertex_mask(cops))
        )

    if dec.m == 1:
        only = dec.leaf_map[0]
        transcript.cop_positions.append(frozenset({only}))
        return transcript

    # opening: one cop on the lowest-id vertex
    leaf = min(dec.leaf_map, key=lambda x: dec.leaf_map[x])
    v = dec.leaf_map[leaf]
    c0 = frozenset({v})
    transcript.cop_positions.append(c0)
    r = robber(table[vertex_mask(c0)])
    if r is None:
        return transcript

    if dec.m == 2:
        # two-vertex ground set: occupy both vertices
        both = frozenset(dec.leaf_map.values())
        r = place(both, c0, r)
        if r is None:
            return transcript
        raise AssertionError("robber escaped the two-vertex capture")

    # the pursuit descends from the opening leaf, so every tree edge it
    # guards cuts off the below-set of its lower end
    view = dec.rooted(leaf)
    kids, below = view.kids, view.below()
    hitting: dict[int, frozenset[int]] = {}

    def s_edge(x: int) -> frozenset[int]:
        got = hitting.get(x)
        if got is None:
            got = directed_cycle_hitting_set(d, below[x])
            hitting[x] = got
        return got

    (t0,) = kids[leaf]
    e1, e2 = kids[t0]
    c1 = c0 | s_edge(e1) | s_edge(e2)
    r = place(c1, c0, r)
    if r is None:
        return transcript

    t_node = e1 if r <= below[e1] else e2
    prev_cops = c1

    while True:
        guard = s_edge(t_node)
        r2 = place(guard, prev_cops, r)
        if r2 is None:
            return transcript
        r = r2
        prev_cops = guard
        if t_node in dec.leaf_map:
            final = guard | frozenset({dec.leaf_map[t_node]})
            r3 = place(final, prev_cops, r)
            if r3 is None:
                return transcript
            raise AssertionError("robber escaped the leaf capture")
        e1p, e2p = kids[t_node]
        cops = guard | s_edge(e1p) | s_edge(e2p)
        r2 = place(cops, prev_cops, r)
        if r2 is None:
            return transcript
        r = r2
        prev_cops = cops
        t_node = e1p if r <= below[e1p] else e2p


# ---------------------------------------------------------------------------
# Prepared proto decompositions (subcubic shaping).
# ---------------------------------------------------------------------------


def _children_topo_order(d: Digraph, kids: Sequence[int], below: Sequence[int]) -> list[int]:
    """Order children so no arc runs from a later subtree into an earlier one;
    below[c] is the vertex mask of c's subtree, ties go to the lower id."""
    reach = {c: mask_union(d.out_masks, below[c]) for c in kids}
    order: list[int] = []
    remaining = sorted(kids)
    while remaining:
        for c in remaining:
            if not any(reach[o] & below[c] for o in remaining if o != c):
                break
        else:
            raise NotNice("children subtrees cannot be ordered without back edges")
        order.append(c)
        remaining.remove(c)
    return order


def prepare_dtd(d: Digraph, dec: DirectedTreeDecomposition) -> DirectedTreeDecomposition:
    """Split nodes with more than two children with empty-bag chain nodes
    so the tree becomes subcubic, preserving the guard axioms and the width.

    dec must be a decomposition of d that `validate_dtd` accepts, such as
    the output of `dtw_exact_small`.  Nothing in the package calls it:
    `dtd_to_nice_pmd` orders and folds each node's children itself and
    builds the same tree from dec as from the result.  It stays only while
    the benchmark names it as a trace target."""
    parent = list(dec.parent)
    bags = list(dec.bags)
    guards = list(dec.guards)
    # children in ascending order and subtree masks, kept up to date; a split
    # moves whole subtrees, so no other node's subtree changes
    kids = [list(c) for c in dec.kids]
    below = list(dec.subtree_masks)

    work = list(range(len(parent)))
    while work:
        t = work.pop()
        if len(kids[t]) <= 2:
            continue
        keep, *rest = _children_topo_order(d, kids[t], below)
        new = len(parent)
        parent.append(t)
        bags.append(frozenset())
        incoming = guards[t] if parent[t] != -1 else frozenset()
        guards.append(frozenset(incoming | bags[t]))
        for c in rest:
            parent[c] = new
        kids[t] = [keep, new]
        kids.append(sorted(rest))
        below.append(0)
        for c in rest:
            below[new] |= below[c]
        work.append(t)
        work.append(new)

    return DirectedTreeDecomposition(tuple(parent), tuple(bags), tuple(guards))


# ---------------------------------------------------------------------------
# From directed tree decompositions to nice perfect matching decompositions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NicePMD:
    """Rooted perfect matching decomposition with its width data.

    width is the tree's width over the graph it decomposes: b itself on the
    pm route, b plus completion edges in k-DAPP.
    type1_bound is the budget used by the Type-1 guard classification and by
    the linkage dynamic program (at least the width, at least the size of the
    largest hung bag subtree).
    """

    tree: PMDecomposition
    width: int
    type1_bound: int


def dtd_to_pmd(
    host: BipartiteGraph,
    d: Digraph,
    tag: VertexTag,
    dec: DirectedTreeDecomposition,
) -> PMDecomposition:
    """Translate a directed tree decomposition of the M-direction of host
    into a rooted perfect matching decomposition of host.

    dec must be a decomposition of d that `validate_dtd` accepts, with
    proto=True allowed only for empty-bag nodes with at least two children,
    such as the chain nodes of `prepare_dtd`.  d and tag are the M-direction
    of host (`direction.m_direction`) for a perfect matching M of host: b on
    the pm route, b plus completion edges in k-DAPP.

    Each node's children are taken in `_children_topo_order` and
    right-folded into binary joins, and a node with a bag joins that fold
    with a caterpillar holding its bag; every digraph leaf then expands
    into the two endpoints of its matching edge.  The tree is validated
    once, here; a node whose children cannot be ordered raises NotNice.
    """
    tb = _TreeBuilder()
    leaf_of: dict[int, int] = {}  # tree leaf -> digraph vertex

    def hang_bag(bag: frozenset[int]) -> int:
        root, leaves = tb.caterpillar(sorted(bag))
        leaf_of.update(leaves)
        return root

    def build(t: int) -> int:
        bag = dec.bags[t]
        built = [build(c) for c in _children_topo_order(d, dec.kids[t], dec.subtree_masks)]
        if not built:
            return hang_bag(bag)
        acc = built[-1]
        for x in reversed(built[:-1]):
            node = tb.node()
            tb.link(node, x)
            tb.link(node, acc)
            acc = node
        if bag:
            upper = tb.node()
            tb.link(upper, acc)
            tb.link(upper, hang_bag(bag))
            acc = upper
        return acc

    top = build(dec.root)

    # expand each digraph leaf into the endpoints of its matching edge
    final_leaf_map: dict[int, int] = {}
    for leaf, v in sorted(leaf_of.items()):
        a_v, b_v = tag[v]
        la = tb.node()
        lb = tb.node()
        tb.link(leaf, la)
        tb.link(leaf, lb)
        final_leaf_map[la] = a_v
        final_leaf_map[lb] = b_v

    if len(tb.adj) == 3 and len(final_leaf_map) == 2:
        # a single matching edge: the decomposition is the bare two-leaf tree,
        # rooted at a leaf so the root-successor conditions are vacuous
        values = [final_leaf_map[x] for x in sorted(final_leaf_map)]
        tree = LeafTree(
            (frozenset({1}), frozenset({0})), {0: values[0], 1: values[1]}, root=0
        )
    else:
        tree = LeafTree(tuple(frozenset(s) for s in tb.adj), final_leaf_map, root=top)
    tree.validate(host.vertices)
    return tree


def dtd_to_nice_pmd(
    host: BipartiteGraph,
    d: Digraph,
    tag: VertexTag,
    dec: DirectedTreeDecomposition,
) -> NicePMD:
    """`dtd_to_pmd`'s tree with its width data, certified nice: the tree
    the k-DAPP dynamic program (`linkage._dp_decides`) runs on.

    The arguments are those of `dtd_to_pmd`.  Each bag hangs as a
    caterpillar of its matching edges, so type1_bound is at least twice the
    largest bag.  `nice_pmd_check` is the one certificate of the output: a
    tree it refuses raises NotNice.
    """
    tree = dtd_to_pmd(host, d, tag, dec)
    m = frozenset(tag.values())
    width = cut_width(host, m, tree)
    nice = NicePMD(tree, width, max(width, 2 * max(map(len, dec.bags)), 1))
    ok, reason = nice_pmd_check(host, nice, m)
    if not ok:
        raise NotNice(f"conversion produced a non-nice decomposition: {reason}")
    return nice


def _is_elementary_set(b: BipartiteGraph, xs: frozenset[int]) -> bool:
    """The induced subgraph on xs has a perfect matching and one elementary part."""
    sub, _, _ = induced_subgraph(b, xs)
    m = some_perfect_matching(sub)
    return m is not None and len(elementary_parts(sub, m)) == 1


def nice_pmd_check(b: BipartiteGraph, nice: NicePMD, m0: Matching) -> tuple[bool, str | None]:
    """Verify the niceness axioms of a rooted perfect matching decomposition
    of b (a tree that `LeafTree.validate` accepts for b's vertices).

    m0 must be a perfect matching of b; the caller supplies it, and the
    verdict does not depend on which one it is.  The sets tested are the
    vertex masks below the tree nodes, and each verdict is taken once per
    node.  When m0 restricts to a set xs, both b[xs] and b - xs have perfect
    matchings, so xs is conformal, and xs is elementary iff the m0-direction
    of b[xs] is strongly connected.  Other sets take the general tests.
    """
    tree = nice.tree
    root = tree.root
    if root is None:
        return False, "decomposition is not rooted"
    k = nice.type1_bound
    view = tree.rooted(root)
    kids = view.kids
    below = view.below_masks()
    adj = b.adj_masks
    mate = [0] * (b.n + 1)  # the m0 partner of each vertex, as a bit
    for u, v in m0:
        mate[u] = 1 << v
        mate[v] = 1 << u
    # The m0-direction of b[xs] is strongly connected iff a walk that leaves
    # V1 vertices along edges and V2 vertices along m0 reaches all of xs from
    # one vertex, and so does the walk that swaps the two sides.
    forward = [adj[v] if v <= b.n1 else mate[v] for v in range(b.n + 1)]
    backward = [mate[v] if v <= b.n1 else adj[v] for v in range(b.n + 1)]
    # per node: the V2 neighbours of the V1 vertices below it, and the m0
    # partners of the vertices below it
    nbr1 = [0] * len(kids)
    mates = [0] * len(kids)
    for x in reversed(view.order):
        if x in tree.leaf_map:
            v = tree.leaf_map[x]
            nbr1[x] = adj[v] if v <= b.n1 else 0
            mates[x] = mate[v]
        else:
            for y in kids[x]:
                nbr1[x] |= nbr1[y]
                mates[x] |= mates[y]

    @cache
    def conformal(x: int) -> bool:
        return mates[x] == below[x] or is_conformal(b, mask_members(below[x]))

    @cache
    def elementary(x: int) -> bool:
        if x in tree.leaf_map:
            return False  # one vertex has no perfect matching
        xs = below[x]
        if mates[x] != xs:
            return _is_elementary_set(b, mask_members(xs))
        start = xs & -xs
        return mask_reach(forward, start, xs) == xs and mask_reach(backward, start, xs) == xs

    @cache
    def is_join(x: int) -> bool:
        cs = kids[x]
        if len(cs) != 2:
            return False
        for t1, t2 in ((cs[0], cs[1]), (cs[1], cs[0])):
            # no edge from a V2 vertex below t1 to a V1 vertex below t2
            if not nbr1[t2] & below[t1] and elementary(t1):
                return True
        return False

    @cache
    def is_guard1(x: int) -> bool:
        return below[x].bit_count() <= 2 * k and conformal(x)

    def is_guard2(x: int) -> bool:
        cs = kids[x]
        if len(cs) != 2:
            return False
        for t1, t2 in ((cs[0], cs[1]), (cs[1], cs[0])):
            if is_guard1(t1) and (is_join(t2) or (conformal(t2) and elementary(t2))):
                return True
        return False

    for x in view.order:
        if x == root or x in tree.leaf_map:
            continue
        cs = kids[x]
        basic = len(cs) == 2 and all(c in tree.leaf_map for c in cs)
        if basic or is_join(x) or is_guard1(x) or is_guard2(x):
            continue
        return False, f"node {x} is neither basic, join, nor guard"

    # root condition (vacuous when the root is a leaf)
    if root in tree.leaf_map:
        return True, None
    sortable: list[int] = []
    for c in kids[root]:
        if is_guard1(c):
            continue
        if is_join(c) or (conformal(c) and elementary(c)):
            sortable.append(c)
        else:
            return False, f"root successor {c} of no admissible type"
    if len(sortable) > 3:
        return False, "root has too many ordered successors"
    for perm in permutations(sortable):
        # no edge from the V1 side of a later successor to the V2 side of an
        # earlier one
        if not any(
            nbr1[perm[j]] & below[perm[i]]
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
        ):
            return True, None
    return False, "root successors cannot be ordered"


def compute_pmd(b: BipartiteGraph, m: Matching) -> PMDecomposition:
    """The decomposition behind `pm count`, `pm width` and `pm decomp`:
    build the M-direction, find a directed tree decomposition by the exact
    small-scale search, and convert it with `dtd_to_pmd`.  The tree is not
    certified nice, and its width is left to `cut_width`; counting needs
    only a valid tree.

    m must be a perfect matching of b; the caller supplies it, and the
    decomposition depends on which one it is."""
    d, tag = m_direction(b, m)
    _, dtd = dtw_exact_small(d)
    return dtd_to_pmd(b, d, tag, dtd)
