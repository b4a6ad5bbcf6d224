"""The bipartite k-disjoint alternating paths problem: brute-force oracle,
W-completions, proxies, itineraries, and the merge DP over decompositions.

A solution for terminal pairs (s_i, t_i) is a perfect matching M together
with pairwise disjoint (shared endpoints allowed only at shared terminals)
internally M-conformal paths joining the pairs.  The dynamic program
decides whether one exists.  It works top-down with a memo over a rooted
perfect matching decomposition: an itinerary entry asks whether a local
matching M_loc with prescribed cut behaviour and path segments exists below
a node, and is true or false.  An internal node enumerates the interface
structure between its two children (matching crossings R, path crossings H
with their anchor edges, bounces, terminal landings) and is true at the
first structure whose two child entries are both true.  `decomp.walk`
settles the entries, as it does the counting DP's, so the depth of the tree
costs no Python frames.

Every terminal pair, at the root and in every child entry, joins a V1
vertex to a V2 vertex.  Edge sets are masks over the sorted edges, and
`_query` takes its middle cut from `RootedTree.cut_masks` and enumerates
the matching crossings R in it with `matchings_in`, as the counting DP
does.
`_routes` builds what one R fixes once (the source, sink and R nodes with
their ports, and the J edges inside each child), and decides how each end
of a path crossing is covered as it enumerates H.  The step per structure
only adds H's ports and wiring, routes the pairs and asks the two children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Generator, Iterable, Iterator, Sequence

from .bigraph import (
    BipartiteGraph,
    Edge,
    Matching,
    admissible_edges,
    check_matching,
    induced_subgraph,
    is_extendable,
    some_perfect_matching,
)
from .decomp import NicePMD, dtw_exact_small, dtd_to_nice_pmd, matchings_in, walk
from .digraph import mask_members, mask_union, vertex_mask
from .direction import m_direction
from .errors import (
    InvalidPairs,
    InvalidW,
    NotExtendable,
    OracleLimitExceeded,
)
from .porosity import matching_porosity

DAPP_VERTEX_LIMIT = 12
DAPP_PAIR_LIMIT = 2
LIMITED_ORACLE_LIMIT = 10

TerminalPair = tuple[int, int]


@dataclass(frozen=True)
class Solution:
    matching: Matching
    paths: tuple[tuple[int, ...], ...]


def _pairs_ok(b: BipartiteGraph, pairs: Sequence[TerminalPair]) -> None:
    for s, t in pairs:
        if not (1 <= s <= b.n1 < t <= b.n):
            raise InvalidPairs(f"terminal pair ({s},{t}) must join V1 to V2")


def _alternating_paths(
    b: BipartiteGraph,
    mate: dict[int, int],
    s: int,
    t: int,
    blocked: frozenset[int],
) -> Iterator[tuple[int, ...]]:
    """All internally M-conformal s-t paths avoiding blocked vertices.

    Any such path is s, y1, M(y1), y2, M(y2), ..., t (internal vertices come
    in matching pairs), or the bare edge st.
    """
    if b.has_edge(s, t):
        yield (s, t)
    path = [s]
    used = {s, t}

    def rec() -> Iterator[tuple[int, ...]]:
        x = path[-1]
        for y in sorted(b.adj[x]):
            if y in used or y in blocked or mate.get(x) == y:
                continue
            partner = mate.get(y)
            if partner is None or partner in used or partner in blocked:
                continue
            path.extend((y, partner))
            used.update((y, partner))
            if b.has_edge(partner, t):
                yield tuple(path) + (t,)
            yield from rec()
            used.difference_update((y, partner))
            del path[-2:]

    yield from rec()


def dapp_bruteforce(
    b: BipartiteGraph,
    pairs: Sequence[TerminalPair],
    limit: int = DAPP_VERTEX_LIMIT,
) -> tuple[bool, Solution | None]:
    """Exhaustive oracle over perfect matchings and path systems; it gates
    `dapp_solve` and `dapp_solve_extending` (`matchwidth dapp`)."""
    if b.n > limit:
        raise OracleLimitExceeded(f"{b.n} vertices exceeds oracle limit {limit}")
    if len(pairs) > DAPP_PAIR_LIMIT:
        raise OracleLimitExceeded(f"{len(pairs)} pairs exceed oracle limit {DAPP_PAIR_LIMIT}")
    pairs = [tuple(p) for p in pairs]
    _pairs_ok(b, pairs)
    from .bigraph import enumerate_perfect_matchings

    for m in enumerate_perfect_matchings(b):
        mate: dict[int, int] = {}
        for u, v in m:
            mate[u] = v
            mate[v] = u

        def try_pairs(idx: int, chosen: list[tuple[int, ...]], used: frozenset[int]) -> Solution | None:
            if idx == len(pairs):
                return Solution(m, tuple(chosen))
            s, t = pairs[idx]
            # vertices shared with earlier paths are allowed only at shared terminals
            share = frozenset(
                x
                for p, q in pairs[:idx]
                for x in (p, q)
                if x in (s, t)
            )
            if (frozenset({s, t}) & used) - share:
                return None
            for path in _alternating_paths(b, mate, s, t, used - share):
                got = try_pairs(idx + 1, chosen + [path], used | frozenset(path))
                if got is not None:
                    return got
            return None

        sol = try_pairs(0, [], frozenset())
        if sol is not None:
            return True, sol
    return False, None


# ---------------------------------------------------------------------------
# W-completions and proxies.
# ---------------------------------------------------------------------------


def w_completion(
    pairs: Sequence[TerminalPair], w: Iterable[Edge]
) -> frozenset[tuple[int, int]]:
    """Virtual edges closing the alternating chains through W (Lemma-style
    linear trace); together with W and any W-extending solution's paths they
    induce alternating cycles only."""
    pairs = [tuple(p) for p in pairs]
    w = frozenset(tuple(e) for e in w)
    mate_w: dict[int, int] = {}
    for u, v in w:
        if u in mate_w or v in mate_w:
            raise InvalidW("w is not a matching")
        mate_w[u] = v
        mate_w[v] = u
    terminals = {x for p in pairs for x in p}
    if not terminals <= set(mate_w):
        raise InvalidW("w must cover every terminal")
    for u, v in w:
        if u not in terminals and v not in terminals:
            raise InvalidW("every edge of w must cover a terminal")
    pair_of_s = {s: i for i, (s, t) in enumerate(pairs)}
    pair_of_t = {t: i for i, (s, t) in enumerate(pairs)}
    if len(pair_of_s) != len(pairs) or len(pair_of_t) != len(pairs):
        raise InvalidW("terminal pairs must be distinct")

    completed: set[int] = set()
    virtual: set[tuple[int, int]] = set()
    for start in range(len(pairs)):
        if start in completed:
            continue
        completed.add(start)
        # walk forward from s-side through w
        i = start
        dangling_s: int | None = None
        while True:
            s_i = pairs[i][0]
            x = mate_w[s_i]
            if x == pairs[i][1]:
                break  # w pairs the terminals directly: chain closes
            if x in pair_of_t:
                j = pair_of_t[x]
                if j in completed:
                    break  # returned to the starting pair: cycle closed
                completed.add(j)
                i = j
                continue
            dangling_s = x
            break
        if dangling_s is None:
            continue
        # walk from the t-side of the starting pair
        i = start
        dangling_t: int | None = None
        while True:
            t_i = pairs[i][1]
            y = mate_w[t_i]
            if y in pair_of_s:
                j = pair_of_s[y]
                if j in completed:
                    break
                completed.add(j)
                i = j
                continue
            dangling_t = y
            break
        if dangling_t is None:
            continue
        virtual.add((dangling_t, dangling_s) if dangling_t < dangling_s else (dangling_s, dangling_t))
    if len(virtual) > len(pairs):
        raise AssertionError("completion exceeded the pair count")
    return frozenset(virtual)


def make_proxies(
    b: BipartiteGraph,
    pairs: Sequence[TerminalPair],
    w: Matching,
    banned: frozenset[int],
) -> Iterator[tuple[tuple[TerminalPair, ...], Matching]]:
    """All (proxy pair family, W') choices that satisfy the proxy axioms
    other than extendability.  Whether W | W' extends to a perfect matching
    of b is the caller's test: `_solve_full` asks for a perfect matching of
    b - V(W) that holds W' and the forced edges."""
    pairs = [tuple(p) for p in pairs]
    avoid = banned | {x for e in w for x in e}
    s_terms = {s for s, _ in pairs}
    t_terms = {t for _, t in pairs}

    def choices(x: int, terms: set[int]) -> list[tuple[int, int]]:
        """Proxy terminals p two steps from x along x-y-p, each with y, the
        other end of the edge that covers it; no path vertex lies in W or
        is banned."""
        return [
            (p, y)
            for y in sorted(b.adj[x])
            if y not in avoid
            for p in sorted(b.adj[y])
            if p != x and p not in avoid and p not in terms
        ]

    def rec(idx: int, proxy: list[TerminalPair], wprime: set[Edge], used: set[int]) -> Iterator:
        if idx == len(pairs):
            yield tuple(proxy), frozenset(wprime)
            return
        s, t = pairs[idx]
        t_choices = choices(t, t_terms)
        for z, y in choices(s, s_terms):
            if z in used or y in used:
                continue
            e1 = (min(z, y), max(z, y))
            # collapsed proxy: one edge covers both proxy terminals
            # (arises from solution paths with exactly two inner vertices)
            if z in b.adj[t]:
                proxy.append((z, y))
                wprime.add(e1)
                used.update((z, y))
                yield from rec(idx + 1, proxy, wprime, used)
                used.difference_update((z, y))
                wprime.discard(e1)
                proxy.pop()
            for q, v in t_choices:
                if q in used or v in used or len({z, y, q, v}) < 4:
                    continue
                e2 = (min(v, q), max(v, q))
                proxy.append((z, q))
                wprime.update((e1, e2))
                used.update((z, y, q, v))
                yield from rec(idx + 1, proxy, wprime, used)
                used.difference_update((z, y, q, v))
                wprime.difference_update((e1, e2))
                proxy.pop()

    yield from rec(0, [], set(), set())


# ---------------------------------------------------------------------------
# The itinerary dynamic program over a rooted decomposition.
# ---------------------------------------------------------------------------


@dataclass
class _Ctx:
    """Shared state of one DP run: host graph, forced matching edges, banned
    path vertices, pair/width budgets, and the binarised decomposition tree.

    Edge sets are masks over the sorted edges of b: `edges[i]` is bit i,
    `index` maps an edge to its bit and `ends[i]` is the vertex mask of edge
    i (vertex v is bit v).  Per node, `below` is the vertex mask under it
    and `cut` the mask of the edges with exactly one end there."""

    b: BipartiteGraph
    edges: list[Edge]
    index: dict[Edge, int]
    ends: list[int]
    forced: int
    banned: frozenset[int]
    k: int
    w: int
    below: list[int]
    cut: list[int]
    kids: list[tuple[int, ...]]
    root_node: int
    memo: dict = field(default_factory=dict)


def _query(ctx: _Ctx, key: tuple) -> Iterator[tuple]:
    """Decide whether the itinerary entry key = (node, U, pairs, J) is
    achievable, and record the verdict in the memo.  U and J are edge masks.

    It is when there is a perfect matching M_loc of the subgraph induced by
    the node's vertex set plus the outer endpoints of U, with M_loc crossing
    the cut exactly at U and containing J (and the forced edges), together
    with disjoint pair-joining paths inside the node's vertex set,
    internally M_loc-conformal, avoiding banned vertices and J-endpoints
    (terminals excepted).

    An inner node tries each matching crossing R: a matching in the middle
    cut that holds its J and forced edges, avoids every other vertex of U, J
    and the forced edges, and leaves each child's U within the width w.  It
    yields each child entry missing from the memo to `decomp.walk`.
    """
    node, u_set, pairs, j_set = key
    xs = ctx.below[node]
    covered = mask_union(ctx.ends, j_set)
    terminals = [x for p in pairs for x in p]
    ok = (
        len(set(terminals)) == len(terminals)
        and all(xs >> x & 1 and covered >> x & 1 and x not in ctx.banned for x in terminals)
        and len(pairs) <= ctx.k + ctx.w
        and u_set.bit_count() <= ctx.w
        and not u_set & ~j_set
        # J is a matching and holds every forced edge that touches the node
        and covered.bit_count() == 2 * j_set.bit_count()
        and not mask_union(ctx.ends, ctx.forced & ~j_set) & xs
    )

    if ok and not ctx.kids[node]:
        # U's one edge covers the leaf's vertex and is all of J
        ok = not pairs and j_set == u_set and u_set.bit_count() == 1 and bool(covered & xs)
    elif ok:
        c1, c2 = ctx.kids[node]
        cut1, cut2 = ctx.cut[c1], ctx.cut[c2]
        mid = cut1 & cut2
        u_x, u_y = u_set & cut1, u_set & cut2
        must = (j_set | ctx.forced) & mid
        cap = ctx.w - max(u_x.bit_count(), u_y.bit_count()) - must.bit_count()
        ok = False
        if cap >= 0:
            taken = mask_union(ctx.ends, u_set | j_set | ctx.forced)
            pool = sum(1 << i for i in mask_members(mid) if not ctx.ends[i] & taken)
            for extra, _ in matchings_in(pool, ctx.ends, cap):
                r_set = must | extra
                routes = _routes(ctx, c1, c2, mid, u_x | r_set, u_y | r_set, r_set, pairs, j_set)
                ok = yield from routes
                if ok:
                    break
    ctx.memo[key] = ok


def _achievable(ctx: _Ctx, key: tuple) -> bool:
    """Is the itinerary entry key = (node, U, pairs, J) achievable?  The
    verdict of `_query`, with every entry it needs settled by `decomp.walk`."""
    walk(partial(_query, ctx), key)
    return ctx.memo[key]


def _routes(
    ctx: _Ctx,
    c1: int,
    c2: int,
    mid: int,
    u_x: int,
    u_y: int,
    r_set: int,
    pairs: tuple[TerminalPair, ...],
    j_set: int,
) -> Generator[tuple, None, bool]:
    """Enumerate interface structures (path crossings H with their anchors)
    and the routes of every pair through them, until one has both child
    entries achievable; mid is the mask of the edges between the two
    children, and U, R and J are edge masks too.  Returns whether one has.

    Every pair joins a V1 vertex to a V2 vertex: the root pairs do
    (`_pairs_ok`), and so does every segment, from an out-port (a V1 vertex)
    to an in-port (a V2 vertex).  So a V1 terminal is a source and a V2
    terminal a sink.

    Aux nodes are sources S_i, sinks T_i, matching crossings R_e and path
    crossings H.  Fixed per r_set: the S, T and R nodes with their ports,
    the pairs that take their own R edge, and the J edges inside each child.
    Each end of a path crossing is decided once, when it is enumerated: it
    is anchored by a matching edge on its side, whose other end is the
    crossing's port there, or it is wired to the S, T or R node it passes
    through.  An end on an R edge that touches a terminal has no option, and
    an end on the open port of an earlier crossing links to that crossing:
    the path takes one crossing, their shared anchor edge and the other,
    and neither end gets a port.
    Per structure, segment arcs between an out-port and an in-port on the
    same side become child terminal pairs; wiring arcs (terminal starts and
    landings, bounces through R endpoints) consume their vertex here.
    """
    b, edges, ends = ctx.b, ctx.edges, ctx.ends
    xs, ys = ctx.below[c1], ctx.below[c2]

    def side(v: int) -> int:
        return 0 if xs >> v & 1 else 1

    j_vertices = mask_union(ends, j_set | ctx.forced | r_set)
    out_port: dict[tuple, tuple[int, int]] = {}
    in_port: dict[tuple, tuple[int, int]] = {}
    wire_node: dict[int, tuple] = {}  # the node an unanchored crossing end wires to
    for i, (s, t) in enumerate(pairs):
        out_port["s", i] = (side(s), s)
        in_port["t", i] = (side(t), t)
        wire_node[s] = ("s", i)
        wire_node[t] = ("t", i)
    terminals = vertex_mask(x for p in pairs for x in p)
    for i in sorted(mask_members(r_set)):
        e = edges[i]
        if not ends[i] & terminals:
            out_port["r", e] = (side(e[0]), e[0])
            in_port["r", e] = (side(e[1]), e[1])
            wire_node[e[0]] = wire_node[e[1]] = ("r", e)
    sinks_base = ([], [])
    for node, (sd, _) in in_port.items():
        sinks_base[sd].append(node)
    direct_edge = {i: p for i, p in enumerate(pairs) if ctx.index.get(p, 0) & r_set & j_set}
    # each child's U and the J edges inside it
    j_kids = [u_x, u_y]
    for i in mask_members(j_set & ~u_x & ~u_y & ~r_set):
        j_kids[side(edges[i][0])] |= 1 << i

    def end_options(v: int) -> list[int | tuple]:
        """The node a crossing end at v wires to, or the port vertices of
        its possible anchors (ints)."""
        if v in wire_node:
            return [wire_node[v]]
        if j_vertices >> v & 1:
            return []
        pool = (xs if xs >> v & 1 else ys) & ~j_vertices
        return [u for u in sorted(b.adj[v]) if pool >> u & 1 and u not in ctx.banned]

    crossings = [
        edges[i] for i in sorted(mask_members(mid & ~r_set)) if not set(edges[i]) & ctx.banned
    ]
    options = {v: end_options(v) for e in crossings for v in e}
    # vertex-disjoint crossings, a matching across the cut; k + w caps them as
    # it caps segments below (a linked crossing ends no part on its side)
    max_h = ctx.k + ctx.w

    def enumerate_h(idx: int, chosen: list[tuple], used_v: set[int]) -> Iterator[list[tuple]]:
        yield list(chosen)
        if len(chosen) >= max_h:
            return
        # an end on the open port of a chosen crossing links to that crossing,
        # which closes the port: the two share its anchor edge
        ends = {v for c in chosen for v in c[:2]}
        open_port = {
            x: ("h", k)
            for k, c in enumerate(chosen)
            for x in c[2:]
            if type(x) is int and x not in ends
        }
        for i in range(idx, len(crossings)):
            w_end, z_end = crossings[i]  # V1 endpoint, V2 endpoint
            fresh = {v for v in (w_end, z_end) if v not in open_port}
            if fresh & used_v:
                continue
            for w_to in [open_port[w_end]] if w_end in open_port else options[w_end]:
                if w_to in used_v:
                    continue
                for z_to in [open_port[z_end]] if z_end in open_port else options[z_end]:
                    if z_to in used_v:
                        continue
                    chosen.append((w_end, z_end, w_to, z_to))
                    added = fresh | {x for x in (w_to, z_to) if type(x) is int}
                    used_v.update(added)
                    yield from enumerate_h(i + 1, chosen, used_v)
                    used_v.difference_update(added)
                    chosen.pop()

    def assemble(h_struct: list[tuple]) -> Generator[tuple, None, bool]:
        """Route every pair through one structure, a list of crossings
        (V1 end, V2 end, how the V1 end is covered, how the V2 end is
        covered), and ask both children."""
        outs, ins = dict(out_port), dict(in_port)
        sinks = (list(sinks_base[0]), list(sinks_base[1]))
        wiring: dict[tuple, list[tuple[tuple, int]]] = {}  # node -> [(target, consumed vertex)]
        anchors = [0, 0]
        for idx, (w_end, z_end, w_to, z_to) in enumerate(h_struct):
            node = ("h", idx)
            if type(w_to) is int:
                sd = side(w_end)
                ins[node] = (sd, w_to)
                sinks[sd].append(node)
                anchors[sd] |= ctx.index[w_end, w_to]
            else:
                if w_to[0] == "h":  # w_end is the out-port of crossing w_to
                    del outs[w_to]
                wiring.setdefault(w_to, []).append((node, w_end))
            if type(z_to) is int:
                sd = side(z_end)
                outs[node] = (sd, z_to)
                anchors[sd] |= ctx.index[z_to, z_end]
            else:
                if z_to[0] == "h":  # z_end is the in-port of crossing z_to
                    del ins[z_to]
                    sinks[side(z_end)].remove(z_to)
                wiring.setdefault(node, []).append((z_to, z_end))
        h_nodes = {("h", idx) for idx in range(len(h_struct))}

        used_nodes: set[tuple] = set()
        used_verts: set[int] = set()
        segs: tuple[list[TerminalPair], list[TerminalPair]] = ([], [])

        def advance(cur: tuple, tnode: tuple) -> Iterator[None]:
            if cur == tnode:
                yield None
                return
            op = outs.get(cur)
            if op is not None:
                sd, a = op
                if a not in used_verts and a not in ctx.banned:
                    seg_list = segs[sd]
                    for nxt in sinks[sd]:
                        if nxt[0] == "t" and nxt != tnode:
                            continue
                        if nxt in used_nodes:
                            continue
                        bvert = ins[nxt][1]
                        if bvert in used_verts or bvert in ctx.banned:
                            continue
                        if len(seg_list) >= ctx.k + ctx.w:
                            continue
                        used_nodes.add(nxt)
                        used_verts.update((a, bvert))
                        seg_list.append((a, bvert))
                        yield from advance(nxt, tnode)
                        seg_list.pop()
                        used_verts.difference_update((a, bvert))
                        used_nodes.discard(nxt)
            for nxt, consumed in wiring.get(cur, ()):  # terminal starts/landings, bounces
                if nxt in used_nodes or consumed in used_verts or consumed in ctx.banned:
                    continue
                if nxt[0] == "t" and nxt != tnode:
                    continue
                used_nodes.add(nxt)
                used_verts.add(consumed)
                yield from advance(nxt, tnode)
                used_verts.discard(consumed)
                used_nodes.discard(nxt)

        def route_pair(i: int) -> Iterator[None]:
            snode, tnode = ("s", i), ("t", i)
            if i in direct_edge:
                e = direct_edge[i]
                node = ("r", e)
                if node not in used_nodes and not (set(e) & used_verts):
                    used_nodes.add(node)
                    used_verts.update(e)
                    yield None
                    used_verts.difference_update(e)
                    used_nodes.discard(node)
            used_nodes.add(snode)
            yield from advance(snode, tnode)
            used_nodes.discard(snode)

        def route_all(i: int) -> Iterator[None]:
            if i == len(pairs):
                if h_nodes <= used_nodes:
                    yield None
                return
            for _ in route_pair(i):
                yield from route_all(i + 1)

        memo = ctx.memo
        for _ in route_all(0):
            for sd, child, u_child in ((0, c1, u_x), (1, c2, u_y)):
                key = (child, u_child, tuple(sorted(segs[sd])), j_kids[sd] | anchors[sd])
                if key not in memo:
                    yield key
                if not memo[key]:
                    break
            else:
                return True
        return False

    for h_struct in enumerate_h(0, [], set()):
        if (yield from assemble(h_struct)):
            return True
    return False


def make_context(
    b: BipartiteGraph,
    nice: NicePMD,
    forced: Iterable[Edge],
    banned: Iterable[int],
    k: int,
) -> _Ctx:
    view = nice.tree.binarised()
    edges = sorted(b.edges)
    index = {e: 1 << i for i, e in enumerate(edges)}
    return _Ctx(
        b=b,
        edges=edges,
        index=index,
        ends=[1 << u | 1 << v for u, v in edges],
        forced=sum(index[e] for e in {tuple(e) for e in forced}),
        banned=frozenset(banned),
        k=k,
        w=max(nice.type1_bound, 1),
        below=view.below_masks(),
        cut=view.cut_masks(edges),
        kids=view.kids,
        root_node=view.root,
    )


# ---------------------------------------------------------------------------
# Solving the k-DAPP through the decomposition pipeline.
# ---------------------------------------------------------------------------


def _solve_full(
    b: BipartiteGraph,
    pairs: tuple[TerminalPair, ...],
    banned: frozenset[int],
    forced: Matching,
    admissible: frozenset[Edge],
) -> bool:
    """Route adjacent pairs along their own edges, then run the W/proxy loops
    on the other pairs, with the DP per proxied instance on the host reduced
    by V(W).

    Precondition: `forced` extends to a perfect matching of b, and
    `admissible` is `bigraph.admissible_edges(b)`, as its callers
    `dapp_solve`, `dapp_solve_extending` and `minors._check_with_mh.run`
    establish.  So an instance without pairs, or with W inside `forced`, needs
    no extendability test.

    Each proxied instance takes one perfect matching of the reduced host
    that holds W' and the forced edges there.  It is the instance's only
    extendability test: every forced edge lies in W or avoids V(W), so it
    exists iff W, W' and the forced edges extend together in b.  It is also
    the matching the instance's decomposition is built on, which
    `_dp_decides` takes from here."""
    # routing an adjacent pair along its own edge is always safe: any
    # solution reroutes onto the edge since the other paths avoid its
    # terminals already, so a single branch suffices
    direct_terms = {x for s, t in pairs if b.has_edge(s, t) for x in (s, t)}
    pairs = tuple((s, t) for s, t in pairs if not b.has_edge(s, t))
    terminals = {x for p in pairs for x in p}
    banned = banned | frozenset(direct_terms - terminals)
    if not pairs:
        return True

    # W candidates: extendable matchings covering all terminals, every edge
    # covering a terminal, compatible with the forced edges.  No pair is an
    # edge of b, so no W edge joins a pair.  An edge in no perfect matching
    # of b extends to none with W, so a terminal without a forced edge takes
    # its W edge from b's admissible edges.
    term_set = sorted(terminals)
    forced_by_vertex: dict[int, Edge] = {}
    for e in forced:
        for x in e:
            forced_by_vertex[x] = e

    def w_candidates(idx: int, chosen: dict[int, Edge], used: set[int]) -> Iterator[frozenset[Edge]]:
        if idx == len(term_set):
            yield frozenset(chosen.values())
            return
        x = term_set[idx]
        if x in used:
            yield from w_candidates(idx + 1, chosen, used)
            return
        if x in forced_by_vertex:
            e = forced_by_vertex[x]
            chosen[x] = e
            used.update(e)
            yield from w_candidates(idx + 1, chosen, used)
            used.difference_update(e)
            del chosen[x]
            return
        for y in sorted(b.adj[x]):
            if y in used or y in forced_by_vertex:
                continue
            e = (min(x, y), max(x, y))
            if e not in admissible:
                continue
            chosen[x] = e
            used.update(e)
            yield from w_candidates(idx + 1, chosen, used)
            used.difference_update(e)
            del chosen[x]

    for w_set in w_candidates(0, {}, set()):
        if not w_set <= forced and not is_extendable(b, w_set | forced):
            continue
        reduced = None
        for proxy_pairs, w_prime in make_proxies(b, pairs, w_set, banned):
            if reduced is None:
                # built at the first proxy family: most W have none.  A
                # perfect matching of b holds W, so the reduced host has one
                w_vertices = frozenset(x for e in w_set for x in e)
                reduced, fwd, _ = induced_subgraph(b, frozenset(b.vertices) - w_vertices)
                red_banned = frozenset(fwd[x] for x in banned if x in fwd)
                # induced_subgraph numbers V1 before V2, so edges and pairs
                # stay V1-first
                red_forced = frozenset(
                    (fwd[u], fwd[v]) for u, v in forced if u in fwd and v in fwd
                )
            red_pairs = tuple((fwd[s], fwd[t]) for s, t in proxy_pairs)
            red_wprime = frozenset((fwd[u], fwd[v]) for u, v in w_prime)
            union = red_wprime | red_forced
            covered = frozenset(x for e in union for x in e)
            if len(covered) != 2 * len(union):
                continue  # forced edges collide with the proxy cover
            rest = some_perfect_matching(reduced, covered)
            if rest is None:
                continue
            if _dp_decides(reduced, red_pairs, union, red_banned, union | rest):
                return True
    return False


def _dp_decides(
    b: BipartiteGraph,
    pairs: tuple[TerminalPair, ...],
    forced: Matching,
    banned: frozenset[int],
    m: Matching,
) -> bool:
    """Build a nice decomposition of host, b plus the completion edges of
    the forced terminal covers, and run the DP over it on b; m is a perfect
    matching of b that holds the forced edges, so of host too.

    The pipeline is the one `decomp.compute_pmd` runs, spelled out here
    because its graph is host and the DP needs the tree certified nice, with
    its type1_bound, which only `dtd_to_nice_pmd` gives; and
    `bench/test_bench.py` checks that this module binds `dtw_exact_small`
    itself.  Host has b's vertices, so the tree is one of b's vertex set,
    and its width counts the completion edges.

    `_achievable` settles the root entry on `decomp.walk`.  It takes the
    pairs sorted, as the itinerary memo and `minors`' verdict memo both
    assume one pair order."""
    terminals = {x for p in pairs for x in p}
    covers = frozenset(e for e in forced if e[0] in terminals or e[1] in terminals)
    completion = w_completion(pairs, covers) if pairs and covers else frozenset()
    host = b if completion <= b.edges else BipartiteGraph(b.n1, b.n2, b.edges | completion)
    d, tag = m_direction(host, m)
    _, dtd = dtw_exact_small(d)
    nice = dtd_to_nice_pmd(host, d, tag, dtd)
    ctx = make_context(b, nice, forced=forced, banned=banned, k=max(len(pairs), 1))
    return _achievable(ctx, (ctx.root_node, 0, tuple(sorted(pairs)), ctx.forced))


def dapp_solve(b: BipartiteGraph, pairs: Sequence[TerminalPair]) -> bool:
    """Decide the k-disjoint alternating paths problem via the width DP.

    Adjacent pairs branch over direct routing; the remaining instance runs
    through the W / proxy loops with a nice decomposition computed for each
    proxied instance on its reduced graph.
    """
    pairs = tuple(tuple(p) for p in pairs)
    _pairs_ok(b, pairs)
    # one perfect matching of b gives its admissible edges; a non-empty b
    # without one has none
    admissible = admissible_edges(b)
    if b.n and not admissible:
        return False
    return _solve_full(b, pairs, frozenset(), frozenset(), admissible)


def dapp_solve_extending(
    b: BipartiteGraph,
    pairs: Sequence[TerminalPair],
    f_set: Iterable[Edge],
) -> bool:
    """Decide existence of an F-extending solution (F forced into M)."""
    pairs = tuple(tuple(p) for p in pairs)
    _pairs_ok(b, pairs)
    f_set = check_matching(b, f_set)
    if not is_extendable(b, f_set):
        raise NotExtendable("f is not extendable")
    return _solve_full(b, pairs, frozenset(), f_set, admissible_edges(b))


# ---------------------------------------------------------------------------
# Limitedness of linkages.
# ---------------------------------------------------------------------------


def parts_in(paths: Sequence[tuple[int, ...]], ys: frozenset[int]) -> int:
    """Components of the linkage restricted to the vertex set ys."""
    total = 0
    for path in paths:
        inside = False
        for v in path:
            if v in ys:
                if not inside:
                    total += 1
                    inside = True
            else:
                inside = False
    return total


def is_limited(
    b: BipartiteGraph,
    paths: Sequence[tuple[int, ...]],
    xs: Iterable[int],
    k: int,
    w: int,
) -> bool:
    """Check (k, w)-limitedness: every subset of xs whose cut has matching
    porosity at most w in b sees at most k + w parts.

    Exhaustive over the subsets of xs, so xs may hold at most
    LIMITED_ORACLE_LIMIT vertices.  A check of the limitedness statement
    behind the paper's k-DAPP dynamic program: the linkage of a solution
    meets such a set in at most k + w parts.
    """
    xs = sorted(set(xs))
    if len(xs) > LIMITED_ORACLE_LIMIT:
        raise OracleLimitExceeded(
            f"{len(xs)} vertices exceeds oracle limit {LIMITED_ORACLE_LIMIT}"
        )

    def check(sub: frozenset[int]) -> bool:
        if matching_porosity(b, sub) > w:
            return True
        return parts_in(paths, sub) <= k + w

    return all(
        check(frozenset(combo))
        for r in range(len(xs) + 1)
        for combo in combinations(xs, r)
    )
