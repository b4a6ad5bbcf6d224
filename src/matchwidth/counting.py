"""Counting perfect matchings: brute-force oracle and the decomposition DP."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bigraph import BipartiteGraph, some_perfect_matching
from .decomp import LeafTree, direction_pmd, matchings_in, walk
from .direction import elementary_directions
from .errors import OracleLimitExceeded

COUNT_ORACLE_LIMIT = 22


def count_pm_bruteforce(b: BipartiteGraph, limit: int = COUNT_ORACLE_LIMIT) -> int:
    """Exact number of perfect matchings (exhaustive, arbitrary precision):
    the permanent of the biadjacency matrix, by a DP over subsets of the
    white class.  The oracle for `count_pm` (`pm count --oracle`).
    """
    if b.n > limit:
        raise OracleLimitExceeded(f"{b.n} vertices exceeds oracle limit {limit}")
    if b.n1 != b.n2:
        return 0
    n = b.n1
    masks = [0] * (n + 1)
    for u, v in b.edges:
        masks[u] |= 1 << (v - b.n1 - 1)
    counts = {0: 1}
    for u in range(1, n + 1):
        nxt: dict[int, int] = {}
        row = masks[u]
        for mask, c in counts.items():
            free = row & ~mask
            while free:
                bit = free & -free
                free ^= bit
                key = mask | bit
                nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    return counts.get((1 << n) - 1, 0)


@dataclass
class CountStats:
    """Operation counters backing the runtime-envelope assertions: the DP
    table entries the walk visits, and the middle matchings those entries
    sum over."""

    table_entries: int = 0
    boundary_sets: int = 0


def count_pm_decomp(
    g: BipartiteGraph,
    dec: LeafTree,
    stats: CountStats | None = None,
) -> int:
    """Number of perfect matchings via the decomposition dynamic program.

    mu(t, S) counts the perfect matchings of the graph induced by the leaves
    below t minus S, where S is the set of vertices below t that a perfect
    matching of g matches across t's cut; joins sum over matchings in the
    shared middle cut.  mu depends on a boundary matching only through its
    endpoints below t, so tables are keyed on (node, vertex bitmask), and
    filled by `decomp.walk`, so any tree depth is fine.  A leaf entry is
    settled by the entry that asks for it, and so is an entry of a node
    whose two children are leaves u, v: mu is 1 if S holds both, 0 if it
    holds one, and 1 or 0 for the empty S as uv is an edge of g or not.
    Every matching edge of a `dtd_to_pmd` tree is such a node, so neither
    it nor its leaves enter the walk; each such entry is memoised, and
    stats count it as one table entry, as a leaf.  Any other entry suspends
    at each child entry of an inner node that it misses.  The tree is
    validated here, and its rooted view is `LeafTree.binarised()`.

    The setup reads g only through `adj_masks`.  Two post-order unions over
    the rooted view give each node the vertices below it and their
    neighbours.  A node's middle edges, those between its children t1 and
    t2, then join each vertex u below t1 that has a neighbour below t2 to
    those neighbours; a node over two leaves reads one `adj_masks` bit.

    A bipartite graph has no perfect matching unless it holds as many V1 as
    V2 vertices, so mu(t, S) = 0 unless below(t) - S is colour-balanced.
    With tilt(X) = |X & V1| - |X & V2|, the term of a middle matching w of t
    is 0 unless tilt(w1) = tilt(below(t1) - S1) for its part w1 below the
    first child t1; each node's middle matchings are grouped by tilt(w1)
    and only that group is read, which skips only zero terms.  Every middle
    matching has tilt 0, so from a balanced entry the DP asks only for
    balanced child entries.
    """
    dec.validate(g.vertices)
    if stats is None:
        stats = CountStats()

    if dec.m == 1:
        # the tree validated, so g is one vertex
        return 0

    # A degree-3 root r with children t1, t2, t3 walks as r -> (t1, s) with
    # the virtual node s = dec.m -> (t2, t3), and a two-node tree as
    # s -> (0, 1); stats count no inner-node entries of r, s.
    view = dec.binarised()
    root, kids = view.root, view.kids
    uncounted = (root, dec.m)
    leaves = dec.leaf_map
    # vertex v is bit v: the vertices below each node, and their neighbours
    adj = g.adj_masks
    below = view.below_masks()
    nbrs = view.union_below(adj)

    black = (1 << g.n1 + 1) - 2  # V1 = [1..n1]

    def tilt(mask: int) -> int:
        return 2 * (mask & black).bit_count() - mask.bit_count()

    # each leaf and each node whose children are both leaves: its vertex
    # mask, and 1 if that is an edge of g, else 0; None at other nodes.
    # Each middle matching of any other node x as (its vertices, those
    # below x's first child, those below its second), grouped by the tilt
    # of those below the first child; the middle edges join a vertex u
    # below the first child to its neighbours below the second, and no
    # matching of g has more than n/2 edges
    fixed: list[tuple[int, int] | None] = [None] * len(kids)
    mids: dict[int, dict[int, list[tuple[int, int, int]]]] = {}
    for x, ys in enumerate(kids):
        if x in leaves:
            fixed[x] = below[x], 0
            continue
        t1, t2 = ys
        if t1 in leaves and t2 in leaves:
            fixed[x] = below[x], adj[leaves[t1]] >> leaves[t2] & 1
            continue
        b1, b2 = below[t1], below[t2]
        ends = []
        us = b1 & nbrs[t2]
        while us:
            u = us & -us
            us ^= u
            vs = adj[u.bit_length() - 1] & b2
            while vs:
                v = vs & -vs
                vs ^= v
                ends.append(u | v)
        groups = mids[x] = {}
        for _, w in matchings_in((1 << len(ends)) - 1, ends, g.n // 2):
            w1 = w & b1
            groups.setdefault(tilt(w1), []).append((w, w1, w ^ w1))

    memo: list[dict[int, int]] = [{} for _ in kids]

    def settle(t: int, s: int) -> int:
        """mu(t, s) of a leaf or a node over two leaves, into memo."""
        both, adjacent = fixed[t]
        value = memo[t][s] = 1 if s == both else 0 if s else adjacent
        stats.table_entries += 1
        return value

    def entry(key: tuple[int, int]) -> Iterator[tuple[int, int]]:
        """Evaluate mu(t, s) of an inner node into memo.  Each missing child
        entry of an inner node is yielded as (node, s); it is in memo when
        the walk resumes."""
        t, s = key
        t1, t2 = kids[t]
        memo1, memo2 = memo[t1], memo[t2]
        inner1, inner2 = fixed[t1] is None, fixed[t2] is None
        s1 = s & below[t1]
        s2 = s ^ s1
        sets = total = 0
        # only the group that balances what is left below t1 counts
        for w, w1, w2 in mids[t].get(tilt(below[t1] ^ s1), ()):
            if w & s:
                continue
            sets += 1
            left = memo1.get(s1 | w1)
            if left is None:
                if inner1:
                    yield t1, s1 | w1
                    left = memo1[s1 | w1]
                else:
                    left = settle(t1, s1 | w1)
            if left:
                right = memo2.get(s2 | w2)
                if right is None:
                    if inner2:
                        yield t2, s2 | w2
                        right = memo2[s2 | w2]
                    else:
                        right = settle(t2, s2 | w2)
                total += left * right
        memo[t][s] = total
        if t not in uncounted:
            stats.table_entries += 1
            stats.boundary_sets += sets

    if fixed[root] is not None:
        return settle(root, 0)
    walk(entry, (root, 0))
    return memo[root][0]


def count_pm(b: BipartiteGraph) -> int:
    """Count perfect matchings through the decomposition pipeline.

    Every perfect matching uses admissible edges only, so it is one perfect
    matching per elementary component, and the count of b is the product of
    the components' counts; a K2 adds a factor of 1.  One M-direction of b,
    on the one perfect matching found here, gives every other component its
    graph, M-direction and tag (`direction.elementary_directions`); an
    elementary b is its own one component, with no copy.  Each component is
    counted by the DP over its `decomp.direction_pmd` tree, which
    `count_pm_decomp` validates, the one check the tree gets.
    The DP is exact on any valid tree, so the tree's width and niceness are
    never computed, and past `decomp.EXACT_TREE_LIMIT` matching edges the
    tree comes from the greedy cop strategy: no component size is refused.
    The DP's cost grows with the tree's width.
    """
    m = some_perfect_matching(b)
    if m is None:
        return 0
    total = 1
    for sub, d, tag in elementary_directions(b, m):
        total *= count_pm_decomp(sub, direction_pmd(d, tag))
    return total
