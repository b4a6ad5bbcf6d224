"""Counting perfect matchings: brute-force oracle and the decomposition DP."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bigraph import BipartiteGraph, induced_subgraph, some_perfect_matching
from .decomp import LeafTree, compute_pmd, matchings_in, walk
from .direction import elementary_parts
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
    settled at once; an inner entry suspends at each child entry it misses.

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
    # s -> (0, 1); stats count no entries of r, s.
    view = dec.binarised()
    root, kids = view.root, view.kids
    uncounted = (root, dec.m)
    below = view.below_masks()
    # cuts are bitmasks over the sorted edges; vertex v is bit v
    edges = sorted(g.edges)
    ends = [1 << u | 1 << v for u, v in edges]
    cut = view.cut_masks(edges)

    black = (1 << g.n1 + 1) - 2  # V1 = [1..n1]

    def tilt(mask: int) -> int:
        return 2 * (mask & black).bit_count() - mask.bit_count()

    # each middle matching of x as (its vertices, those below x's first
    # child, those below its second), grouped by the tilt of those below
    # the first child; no matching of g has more than n/2 edges
    mids: dict[int, dict[int, list[tuple[int, int, int]]]] = {}
    for x, ys in enumerate(kids):
        if ys:
            b1 = below[ys[0]]
            groups = mids[x] = {}
            for _, w in matchings_in(cut[ys[0]] & cut[ys[1]], ends, g.n // 2):
                groups.setdefault(tilt(w & b1), []).append((w, w & b1, w & ~b1))

    memo: list[dict[int, int]] = [{} for _ in kids]

    def entry(t: int, s: int) -> Iterator[tuple[int, int]]:
        """Evaluate mu(t, s) into memo.  Each missing child entry is yielded
        as (node, s); it is in memo when the walk resumes."""
        t1, t2 = kids[t]
        memo1, memo2 = memo[t1], memo[t2]
        s1 = s & below[t1]
        s2 = s ^ s1
        # only the group that balances what is left below t1 counts
        ws = [w for w in mids[t].get(tilt(below[t1] ^ s1), ()) if not w[0] & s]
        if t not in uncounted:
            stats.table_entries += 1
            stats.boundary_sets += len(ws)
        total = 0
        for _, w1, w2 in ws:
            left = memo1.get(s1 | w1)
            if left is None:
                yield t1, s1 | w1
                left = memo1[s1 | w1]
            if left:
                right = memo2.get(s2 | w2)
                if right is None:
                    yield t2, s2 | w2
                    right = memo2[s2 | w2]
                total += left * right
        memo[t][s] = total

    def start(key: tuple[int, int]) -> Iterator[tuple[int, int]] | None:
        t, s = key
        if t in dec.leaf_map:
            # the leaf's one vertex is matched iff it is in s
            memo[t][s] = 1 if s else 0
            stats.table_entries += 1
            return None
        return entry(t, s)

    walk(start, (root, 0))
    return memo[root][0]


def count_pm(b: BipartiteGraph) -> int:
    """Count perfect matchings through the decomposition pipeline.

    Every perfect matching uses admissible edges only, so it is one perfect
    matching per elementary component, and the count of b is the product of
    the components' counts.  Each component with more than two vertices is
    counted by the DP over its own `compute_pmd` tree, built on the
    restriction of the one perfect matching of b found here, which is a
    perfect matching of the component; a K2 adds a factor of 1.  The DP is
    exact on any valid tree, so the tree's width and niceness are never
    computed.
    """
    m = some_perfect_matching(b)
    if m is None:
        return 0
    total = 1
    for part in elementary_parts(b, m):
        if len(part) > 2:
            sub, fwd, _ = induced_subgraph(b, part)
            m_sub = frozenset((fwd[u], fwd[v]) for u, v in m if u in part)
            total *= count_pm_decomp(sub, compute_pmd(sub, m_sub))
    return total
