"""Width decompositions: pmw/cycle width, desk-scale directed treewidth via
the cops-and-robber game, and the conversion from directed tree
decompositions to nice perfect matching decompositions, which
`nice_pmd_check` certifies."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, permutations
from typing import Callable, Iterable, Sequence

from .bigraph import (
    BipartiteGraph,
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


PMDecomposition = LeafTree
CycleDecomposition = LeafTree


def pmd_width(b: BipartiteGraph, dec: PMDecomposition) -> int:
    """Max matching porosity over the tree-edge cuts of the decomposition:
    the independent check of the width that `pm decomp` reports.

    Only cuts that can raise the maximum get the exact porosity search.
    The best value so far starts at the larger of 1 (every perfect matching
    crosses a leaf edge's cut exactly once) and the most edges that one
    perfect matching M uses on an inner cut.  Each inner cut has an upper
    bound from `matching_porosity_bound`.  The cuts are searched in falling
    order of their bounds until a bound is no larger than the best value:
    no remaining cut can exceed it, so the maximum is exact.
    """
    dec.validate(b.vertices)
    m = some_perfect_matching(b)
    if m is None:
        raise NoPerfectMatching("graph has no perfect matching")
    if dec.m == 1:
        return 0
    # porosity counts crossing edges, so either shore of a tree edge will do
    return _cut_width(b, m, dec.rooted(0).below_masks()[1:])


def _cut_width(host: BipartiteGraph, m: Matching, shores: list[int]) -> int:
    """`pmd_width` of a decomposition of host whose tree edges cut off the
    vertex masks `shores`, given a perfect matching m of host."""
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
    fval: dict[int, int] = {}

    def f(mask: int) -> int:
        got = fval.get(mask)
        if got is None:
            got = cut_value(frozenset(elems[i] for i in range(n) if mask >> i & 1))
            fval[mask] = got
        return got

    best: dict[int, int] = {}
    split: dict[int, int] = {}

    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, full + 1):
        masks_by_size[bin(mask).count("1")].append(mask)
    for i in range(n):
        best[1 << i] = 0
    for size in range(2, n + 1):
        for mask in masks_by_size[size]:
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

    nodes_adj: list[set[int]] = []
    leaf_map: dict[int, int] = {}

    def build(mask: int) -> int:
        idx = len(nodes_adj)
        nodes_adj.append(set())
        if bin(mask).count("1") == 1:
            leaf_map[idx] = elems[(mask.bit_length() - 1)]
            return idx
        s1 = split[mask]
        s2 = mask ^ s1
        a = build(s1)
        bnode = build(s2)
        nodes_adj[idx].add(a)
        nodes_adj[a].add(idx)
        nodes_adj[idx].add(bnode)
        nodes_adj[bnode].add(idx)
        return idx

    left = build(top_mask)
    right = build(full ^ top_mask)
    nodes_adj[left].add(right)
    nodes_adj[right].add(left)
    tree = LeafTree(tuple(frozenset(a) for a in nodes_adj), leaf_map)
    return top, tree


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
    vertex masks in Tarjan's order (`strong_component_masks`), and the
    component of each vertex by index (0 for a banned vertex).  Filled on
    first use."""

    def __init__(self, d: Digraph) -> None:
        super().__init__()
        self.d = d

    def __missing__(self, banned: int) -> tuple[tuple[int, ...], list[int]]:
        comps = strong_component_masks(self.d, banned)
        owner = [0] * (self.d.n + 1)
        for comp in comps:
            rest = comp
            while rest:
                bit = rest & -rest
                rest ^= bit
                owner[bit.bit_length() - 1] = comp
        got = self[banned] = (tuple(comps), owner)
        return got


def _responses(table: _SccTable, cops: int, robber: int, move: int) -> list[int]:
    """Robber components after the cops move from `cops` to `move` (the
    standard transition rule): the components of d - move inside the
    component of d - (cops & move) that holds the robber."""
    region = table[cops & move][1][(robber & -robber).bit_length() - 1]
    return [c for c in table[move][0] if c & region]


def _monotone_win(table: _SccTable, moves: list[int]) -> dict[int, int] | None:
    """The first winning move, in the order of `moves`, of each position the
    progress-monotone game reaches, keyed on `robber << (n + 1) | cops`, with
    0 where the cops lose; None if they lose from the start.

    Moves place at least one cop inside the robber component and must shrink
    the territory; the search is therefore acyclic and memoisable.
    """
    shift = table.d.n + 1
    memo: dict[int, int] = {}  # 0: the position is lost

    def win(cops: int, robber: int) -> int:
        key = robber << shift | cops
        result = memo.get(key)
        if result is not None:
            return result
        result = 0
        low = (robber & -robber).bit_length() - 1
        for move in moves:
            if not move & robber:
                continue
            # No response equals the robber component, which `move` meets.
            # A response leaves it iff the component of d - hold around the
            # robber, opened up by the cops that lift, has a vertex outside
            # robber | move.
            hold = cops & move
            if hold != cops and table[hold][1][low] & ~(robber | move):
                continue
            for c in table[move][0]:
                if c & robber and not win(move, c):
                    break
            else:
                result = move
                break
        memo[key] = result
        return result

    if not all(win(0, c) for c in table[0][0]):
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
        positions = [(c, r) for c in cop_sets for r in table[c][0]]
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
        if all((0, r) in winning for r in table[0][0]):
            return k
    raise AssertionError("n cops always win")


def dtw_exact_small(d: Digraph) -> tuple[int, DirectedTreeDecomposition]:
    """Minimum cop number (progress-monotone game) and a certificate
    decomposition of width at most 2k - 1 <= 3k - 2 extracted from the
    winning strategy."""
    if d.n > DTW_ORACLE_LIMIT:
        raise OracleLimitExceeded(f"{d.n} vertices exceeds oracle limit {DTW_ORACLE_LIMIT}")
    if d.n == 0:
        raise InvalidDecomposition("empty digraph")
    table = _SccTable(d)
    verts = sorted(d.vertices)
    moves: list[int] = []
    for number in range(1, d.n + 1):
        moves += [vertex_mask(c) for c in combinations(verts, number)]
        strategy = _monotone_win(table, moves)
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
        for resp in _responses(table, cops, robber, move):
            build(move, resp, idx)
        return idx

    start = table[0][0]
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
    robber_positions: list[frozenset[int] | None] = field(default_factory=list)
    caught: bool = False

    def max_cops(self) -> int:
        return max((len(c) for c in self.cop_positions), default=0)


def cops_play(d: Digraph, dec: CycleDecomposition) -> PlayTranscript:
    """Execute the guard-set pursuit along the decomposition tree.

    Cops occupy, per tree edge, a hitting set for all directed cycles
    crossing the induced cut, then descend towards the robber's subtree.
    The robber takes the largest component, ties to the one with the
    smallest vertex.  The transcript ends in capture.
    """
    dec.validate(d.vertices)
    table = _SccTable(d)
    transcript = PlayTranscript()

    def robber(options: Iterable[int]) -> frozenset[int] | None:
        best = max(options, key=lambda c: (c.bit_count(), -(c & -c)), default=None)
        return None if best is None else mask_members(best)

    def place(cops: frozenset[int], prev: frozenset[int], prev_robber: frozenset[int]) -> frozenset[int] | None:
        transcript.cop_positions.append(cops)
        choice = robber(
            _responses(table, vertex_mask(prev), vertex_mask(prev_robber), vertex_mask(cops))
        )
        transcript.robber_positions.append(choice)
        return choice

    if dec.m == 1:
        only = dec.leaf_map[0]
        transcript.cop_positions.append(frozenset({only}))
        transcript.robber_positions.append(None)
        transcript.caught = True
        return transcript

    # opening: one cop on the lowest-id vertex
    leaf = min(dec.leaf_map, key=lambda x: dec.leaf_map[x])
    v = dec.leaf_map[leaf]
    c0 = frozenset({v})
    transcript.cop_positions.append(c0)
    r = robber(table[vertex_mask(c0)][0])
    transcript.robber_positions.append(r)
    if r is None:
        transcript.caught = True
        return transcript

    if dec.m == 2:
        # two-vertex ground set: occupy both vertices
        both = frozenset(dec.leaf_map.values())
        r = place(both, c0, r)
        if r is None:
            transcript.caught = True
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
        transcript.caught = True
        return transcript

    t_node = e1 if r <= below[e1] else e2
    prev_cops = c1

    while True:
        guard = s_edge(t_node)
        r2 = place(guard, prev_cops, r)
        if r2 is None:
            transcript.caught = True
            return transcript
        r = r2
        prev_cops = guard
        if t_node in dec.leaf_map:
            final = guard | frozenset({dec.leaf_map[t_node]})
            r3 = place(final, prev_cops, r)
            if r3 is None:
                transcript.caught = True
                return transcript
            raise AssertionError("robber escaped the leaf capture")
        e1p, e2p = kids[t_node]
        cops = guard | s_edge(e1p) | s_edge(e2p)
        r2 = place(cops, prev_cops, r)
        if r2 is None:
            transcript.caught = True
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


def dtd_to_nice_pmd(
    host: BipartiteGraph,
    d: Digraph,
    tag: VertexTag,
    dec: DirectedTreeDecomposition,
) -> NicePMD:
    """Translate a directed tree decomposition of the M-direction of host
    into a nice perfect matching decomposition of host.

    dec must be a decomposition of d that `validate_dtd` accepts, with
    proto=True allowed only for empty-bag nodes with at least two children,
    such as the chain nodes of `prepare_dtd`.  d and tag are the M-direction
    of host (`direction.m_direction`) for a perfect matching M of host: b on
    the pm route, b plus completion edges in k-DAPP.

    Each node's children are taken in `_children_topo_order` and
    right-folded into binary joins, and a node with a bag joins that fold
    with a caterpillar holding its bag; every digraph leaf then expands
    into the two endpoints of its matching edge.  `nice_pmd_check` is the
    one certificate of the output: a tree it refuses raises NotNice, as
    does a node whose children cannot be ordered.
    """
    tb = _TreeBuilder()
    leaf_of: dict[int, int] = {}  # tree leaf -> digraph vertex
    type1_sizes: list[int] = [0]

    def hang_bag(bag: frozenset[int]) -> int:
        root, leaves = tb.caterpillar(sorted(bag))
        leaf_of.update(leaves)
        type1_sizes.append(2 * len(bag))
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
    m = frozenset(tag.values())
    width = _cut_width(host, m, tree.rooted(0).below_masks()[1:])
    nice = NicePMD(tree, width, max(width, max(type1_sizes), 1))
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


def compute_pmd(b: BipartiteGraph, m: Matching) -> NicePMD:
    """Full pipeline: build the M-direction, find a directed tree
    decomposition by the exact small-scale search, and convert it to a nice
    perfect matching decomposition of b.

    m must be a perfect matching of b; the caller supplies it, and the
    decomposition depends on which one it is."""
    d, tag = m_direction(b, m)
    _, dtd = dtw_exact_small(d)
    return dtd_to_nice_pmd(b, d, tag, dtd)
