"""Counting perfect matchings: brute-force oracle and the decomposition DP."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bigraph import BipartiteGraph, Graph
from .decomp import LeafTree, compute_pmd
from .errors import NoPerfectMatching, OracleLimitExceeded

COUNT_ORACLE_LIMIT = 22


def count_pm_bruteforce(g: Graph | BipartiteGraph, limit: int = COUNT_ORACLE_LIMIT) -> int:
    """Exact number of perfect matchings (exhaustive, arbitrary precision):
    the oracle for `count_pm` (`pm count --oracle`).

    For bipartite inputs this equals the permanent of the biadjacency matrix.
    """
    if g.n > limit:
        raise OracleLimitExceeded(f"{g.n} vertices exceeds oracle limit {limit}")
    if g.n % 2:
        return 0
    if isinstance(g, BipartiteGraph):
        if g.n1 != g.n2:
            return 0
        # permanent by DP over subsets of the white class
        n = g.n1
        masks = [0] * (n + 1)
        for u, v in g.edges:
            masks[u] |= 1 << (v - g.n1 - 1)
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

    verts = list(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    nbrs = [[idx[w] for w in g.adj[v]] for v in verts]
    full = (1 << len(verts)) - 1
    memo: dict[int, int] = {full: 1}

    def rec(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        i = (~mask & -~mask).bit_length() - 1
        total = 0
        for j in nbrs[i]:
            if not mask & (1 << j):
                total += rec(mask | (1 << i) | (1 << j))
        memo[mask] = total
        return total

    return rec(0)


@dataclass
class CountStats:
    """Operation counters backing the runtime-envelope assertions."""

    table_entries: int = 0
    boundary_sets: int = 0


def _matchings(mask: int, ends: list[int], cap: int) -> list[tuple[int, int]]:
    """Matchings inside the edge set `mask` with at most `cap` edges, each as
    an (edge mask, vertex mask) pair; `ends[i]` is the vertex mask of edge i."""
    out = [(0, 0)]
    while mask:
        low = mask & -mask
        mask ^= low
        ev = ends[low.bit_length() - 1]
        out += [(m | low, v | ev) for m, v in out if not v & ev and m.bit_count() < cap]
    return out


def count_pm_decomp(
    g: Graph | BipartiteGraph,
    dec: LeafTree,
    width: int | None = None,
    stats: CountStats | None = None,
) -> int:
    """Number of perfect matchings via the decomposition dynamic program.

    mu(t, F) counts the perfect matchings of the graph induced by the leaves
    below t together with the endpoints of the boundary matching F that
    contain F; joins sum over matchings in the shared middle cut.  Works for
    general graphs (desk scale).  Tables are keyed on (node, edge bitmask) and
    filled by a walk on an explicit stack, so any tree depth is fine.
    """
    dec.validate(g.vertices)
    if stats is None:
        stats = CountStats()

    if dec.m == 1:
        return 1 if g.n == 0 else 0

    # cuts are bitmasks over the sorted edges; vertex v is bit v
    ends: list[int] = []
    incident: dict[int, int] = {v: 0 for v in g.vertices}
    for i, (u, v) in enumerate(sorted(g.edges)):
        ends.append(1 << u | 1 << v)
        incident[u] |= 1 << i
        incident[v] |= 1 << i

    # A degree-3 root r with children t1, t2, t3 walks as r -> (t1, s) with
    # the virtual node s = dec.m -> (t2, t3), and a two-node tree as
    # s -> (0, 1); stats count no entries of r, s.
    view = dec.binarised()
    root, kids = view.root, view.kids
    uncounted = (root, dec.m)

    # an inner node's cut is the symmetric difference of its children's cuts
    cut = [0] * len(kids)
    for x in reversed(view.order):
        c = incident[dec.leaf_map[x]] if x in dec.leaf_map else 0
        for y in kids[x]:
            c ^= cut[y]
        cut[x] = c

    cap = g.n // 2 if width is None else width
    mids = {x: _matchings(cut[ys[0]] & cut[ys[1]], ends, cap) for x, ys in enumerate(kids) if ys}

    memo: dict[tuple[int, int], int] = {}

    def entry(t: int, f: int, covered: int) -> Iterator[tuple[int, int, int]]:
        """Evaluate mu(t, f) into memo.  Each missing child entry is yielded
        as (node, f, covered); it is in memo when the walk resumes."""
        t1, t2 = kids[t]
        f1 = f & cut[t1]
        f2 = f & cut[t2]
        # covered may also hold vertices outside t, which no middle matching
        # of t touches
        ws = [w for w in mids[t] if not w[1] & covered]
        if t not in uncounted:
            stats.table_entries += 1
            stats.boundary_sets += len(ws)
        total = 0
        for wm, wv in ws:
            left = memo.get((t1, f1 | wm))
            if left is None:
                yield t1, f1 | wm, covered | wv
                left = memo[t1, f1 | wm]
            if left:
                right = memo.get((t2, f2 | wm))
                if right is None:
                    yield t2, f2 | wm, covered | wv
                    right = memo[t2, f2 | wm]
                total += left * right
        memo[t, f] = total

    # the walk: suspended entries on an explicit stack, deepest on top
    stack = [entry(root, 0, 0)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif child[0] in dec.leaf_map:
            # f lies in the leaf's cut: its vertex is matched iff f has one edge
            t, f, _ = child
            memo[t, f] = 1 if f.bit_count() == 1 else 0
            stats.table_entries += 1
        else:
            stack.append(entry(*child))
    return memo[root, 0]


def count_pm(b: BipartiteGraph) -> int:
    """Count perfect matchings through the decomposition pipeline."""
    if b.n == 0:
        return 1  # the empty matching
    try:
        nice = compute_pmd(b)
    except NoPerfectMatching:
        return 0
    return count_pm_decomp(b, nice.tree, width=nice.width)
