"""The decomposition checkers against set-based reference copies.

`validate_dtd` and `nice_pmd_check` run on vertex masks and read conformal
structure off one perfect matching.  The `ref_*` functions below are the
earlier versions of the two checkers, which test every set with frozensets,
a fresh Hopcroft-Karp run and a fresh strong-component pass.  Both must
give the same verdict and the same reason on inputs that include
rejections, and every checker must reject some of them.

`ref_monotone_win` is the earlier cop search, which scans every cop set of
at most k vertices at each position and rejects the moves that are not
monotone.  `_monotone_win`, which lists only the monotone moves, must try
them in the same order and so fill the same memo.  `ref_dtw_exact_small`
is the earlier exact search, whose `RefSccTable` runs one Tarjan pass per
entry and keeps Tarjan's order; `dtw_exact_small`, whose table splits the
vertices left once per entry and orders the components largest first, must
return the same cop number and the same tree.  `ref_dtd_greedy` is the earlier
greedy strategy, which reads `_SccTable` for its kept cops and its
children and tries every vertex of the robber component; `dtd_greedy`
must return the same tree.

`ref_is_prepared` checks the prepared axioms of a proto decomposition
(subcubic; strong or small child subtrees; two children orderable without
back edges).  `dtd_to_nice_pmd` takes any decomposition that `validate_dtd`
accepts and leaves its output to `nice_pmd_check`; the tests at the end
show that every valid decomposition those axioms refuse converts to a
certified tree or raises NotNice.
"""

import random
import tracemalloc
from itertools import combinations, permutations

from matchwidth.bigraph import (
    enumerate_perfect_matchings,
    graph_from_edges,
    has_perfect_matching,
    induced_subgraph,
    some_perfect_matching,
)
from matchwidth.decomp import (
    DirectedTreeDecomposition,
    LeafTree,
    NicePMD,
    _SccTable,
    _TreeBuilder,
    _monotone_win,
    dtd_fault,
    dtd_greedy,
    dtd_to_nice_pmd,
    dtw_exact_small,
    nice_pmd_check,
    prepare_dtd,
    validate_dtd,
)
from matchwidth.digraph import (
    Digraph,
    component_masks,
    mask_members,
    strong_component_masks,
    vertex_mask,
)
from matchwidth.direction import m_direction, split
from matchwidth.errors import NotNice
from matchwidth.grids import cylindrical_grid, square_grid

from common import (
    bidirected_clique,
    directed_cycle,
    nice_pmd,
    random_bipartite_with_pm,
    random_cubic_tree,
    random_digraph,
)
from corpus import connected_pm_bipartite


def ref_strong_components(d, banned=frozenset()):
    """Tarjan on sets, roots and successors in ascending order."""
    index, low, on_stack, stack, sccs = {}, {}, set(), [], []
    counter = 0
    for root in d.vertices:
        if root in banned or root in index:
            continue
        work = [(root, iter(sorted(d.out_adj[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w in banned:
                    continue
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(d.out_adj[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
    return sccs


def ref_strongly_connected(d, banned):
    if all(v in banned for v in d.vertices):
        return False
    return len(ref_strong_components(d, banned)) == 1


def ref_reachable(d, sources, banned):
    seen = {s for s in sources if s not in banned}
    todo = list(seen)
    while todo:
        for y in d.out_adj[todo.pop()]:
            if y not in banned and y not in seen:
                seen.add(y)
                todo.append(y)
    return frozenset(seen)


def ref_children(dec, t):
    return [s for s in range(dec.m) if dec.parent[s] == t]


def ref_subtree_bag(dec, t):
    nodes = [t]
    for x in nodes:
        nodes.extend(ref_children(dec, x))
    return frozenset().union(*(dec.bags[s] for s in nodes))


def ref_validate_dtd(d, dec, proto=False):
    m = dec.m
    if len([t for t in range(m) if dec.parent[t] == -1]) != 1:
        return False, 0, "not exactly one root"
    for t in range(m):
        x, steps = t, 0
        while x != -1 and steps <= m:
            x = dec.parent[x]
            steps += 1
        if steps > m:
            return False, 0, "parent pointers contain a cycle"
    covered = set()
    for t in range(m):
        bag = dec.bags[t]
        if not proto and not bag:
            return False, 0, f"empty bag at node {t}"
        if covered & bag:
            return False, 0, "bags overlap"
        covered |= bag
    if covered != set(d.vertices):
        return False, 0, "bags do not partition the vertex set"
    for t in range(m):
        if dec.parent[t] == -1:
            continue
        below = ref_subtree_bag(dec, t)
        guard = dec.guards[t]
        inner = below - guard
        if not inner:
            continue
        outside = ref_reachable(d, inner, guard) - below
        if outside and (ref_reachable(d, outside, guard) & inner):
            return False, 0, f"guard of node {t} misses a walk"
    return True, dec.width(), None


def ref_monotone_win(table, moves):
    """The first winning move of each reached position, by a scan of every
    move in `moves` (all cop sets of at most k vertices)."""
    shift = table.d.n + 1
    memo = {}

    def win(cops, robber):
        key = robber << shift | cops
        result = memo.get(key)
        if result is not None:
            return result
        result = 0
        low = (robber & -robber).bit_length() - 1
        for move in moves:
            if not move & robber:
                continue
            hold = cops & move
            region = next(c for c in table[hold] if c >> low & 1)
            if hold != cops and region & ~(robber | move):
                continue
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


class RefSccTable(dict):
    """The earlier `_SccTable`: for a banned vertex mask, the strong
    components of d minus it in Tarjan's order, and the component of each
    vertex by index (0 for a banned vertex), from one Tarjan pass per
    entry."""

    def __init__(self, d):
        super().__init__()
        self.d = d

    def __missing__(self, banned):
        comps = strong_component_masks(self.d, banned)
        owner = [0] * (self.d.n + 1)
        for comp in comps:
            for v in mask_members(comp):
                owner[v] = comp
        got = self[banned] = (tuple(comps), owner)
        return got


def ref_responses(table, cops, robber, move):
    region = table[cops & move][1][(robber & -robber).bit_length() - 1]
    return [c for c in table[move][0] if c & region]


def ref_listed_monotone_win(table, moves, upto):
    """The earlier `_monotone_win`, on `RefSccTable` entries."""
    k = len(upto) - 1
    within = [moves[:end] for end in upto]
    rank = {move: i for i, move in enumerate(within[k])}
    shift = table.d.n + 1
    memo = {}

    def win(cops, robber):
        key = robber << shift | cops
        result = memo.get(key)
        if result is not None:
            return result
        result = 0
        low = (robber & -robber).bit_length() - 1
        legal = []
        hold = cops
        while True:
            room = k - hold.bit_count()
            if room and table[hold][1][low] == robber:
                legal += [hold | y for y in within[room] if y & robber and not y & cops]
            if not hold:
                break
            hold = (hold - 1) & cops
        legal.sort(key=rank.__getitem__)
        for move in legal:
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


def ref_dtw_exact_small(d):
    """The earlier `dtw_exact_small`: the search and the tree both read
    `RefSccTable`, so children come in Tarjan's order."""
    table = RefSccTable(d)
    verts = sorted(d.vertices)
    moves, upto = [], [0]
    first = 2 if any(c & (c - 1) for c in table[0][0]) else 1
    for number in range(1, d.n + 1):
        moves += [vertex_mask(c) for c in combinations(verts, number)]
        upto.append(len(moves))
        if number < first:
            continue
        strategy = ref_listed_monotone_win(table, moves, upto)
        if strategy is not None:
            break
    shift = d.n + 1
    parent, bags, guards = [], [], []

    def build(cops, robber, parent_idx):
        move = strategy[robber << shift | cops]
        idx = len(parent)
        parent.append(parent_idx)
        bags.append(mask_members(move & robber))
        guards.append(mask_members(cops))
        for resp in ref_responses(table, cops, robber, move):
            build(move, resp, idx)
        return idx

    start = table[0][0]
    root_idx = build(0, start[0], -1)
    for comp in start[1:]:
        build(0, comp, root_idx)
    return number, DirectedTreeDecomposition(tuple(parent), tuple(bags), tuple(guards))


def ref_is_prepared(d, dec):
    ok, width, _ = ref_validate_dtd(d, dec, proto=True)
    if not ok:
        return False
    everything = frozenset(d.vertices)
    for t in range(dec.m):
        kids = ref_children(dec, t)
        if len(kids) > (3 if dec.parent[t] == -1 else 2):
            return False
        if len(kids) == 1:
            below = ref_subtree_bag(dec, kids[0])
            strong = ref_strongly_connected(d, everything - below)
            if not (strong or len(below) <= width + 1):
                return False
        elif len(kids) == 2:
            seta, setb = (ref_subtree_bag(dec, c) for c in kids)
            sa = ref_strongly_connected(d, everything - seta)
            sb = ref_strongly_connected(d, everything - setb)
            sma = len(seta) <= width + 1
            smb = len(setb) <= width + 1
            no_back_ba = not any(u in setb and v in seta for u, v in d.arcs)
            no_back_ab = not any(u in seta and v in setb for u, v in d.arcs)
            first_as_t1 = (sma and (smb or sb)) or (sa and no_back_ba)
            second_as_t1 = (smb and (sma or sa)) or (sb and no_back_ab)
            if not (first_as_t1 or second_as_t1):
                return False
    return True


def ref_elementary(b, xs):
    sub, _, _ = induced_subgraph(b, xs)
    m = some_perfect_matching(sub)
    return m is not None and len(ref_strong_components(m_direction(sub, m)[0])) == 1


def ref_nice_pmd_check(b, nice):
    tree = nice.tree
    root = tree.root
    if root is None:
        return False, "decomposition is not rooted"
    k = nice.type1_bound
    view = tree.rooted(root)
    kids = view.kids
    below = [frozenset()] * len(kids)
    for x in reversed(view.order):
        if x in tree.leaf_map:
            below[x] = frozenset({tree.leaf_map[x]})
        else:
            below[x] = frozenset().union(*(below[y] for y in kids[x]))

    def no_edge_v2_to_v1(a, c):
        return not any(v in a and u in c for u, v in b.edges)

    def conformal(xs):
        return has_perfect_matching(b, frozenset(xs))

    def is_join(x):
        cs = kids[x]
        if len(cs) != 2:
            return False
        return any(
            no_edge_v2_to_v1(below[t1], below[t2]) and ref_elementary(b, below[t1])
            for t1, t2 in ((cs[0], cs[1]), (cs[1], cs[0]))
        )

    def is_guard1(x):
        return len(below[x]) <= 2 * k and conformal(below[x])

    def is_guard2(x):
        cs = kids[x]
        if len(cs) != 2:
            return False
        return any(
            is_guard1(t1)
            and (is_join(t2) or (conformal(below[t2]) and ref_elementary(b, below[t2])))
            for t1, t2 in ((cs[0], cs[1]), (cs[1], cs[0]))
        )

    for x in view.order:
        if x == root or x in tree.leaf_map:
            continue
        cs = kids[x]
        basic = len(cs) == 2 and all(c in tree.leaf_map for c in cs)
        if not (basic or is_join(x) or is_guard1(x) or is_guard2(x)):
            return False, f"node {x} is neither basic, join, nor guard"
    if root in tree.leaf_map:
        return True, None
    sortable = []
    for c in kids[root]:
        if is_guard1(c):
            continue
        if is_join(c) or (conformal(below[c]) and ref_elementary(b, below[c])):
            sortable.append(c)
        else:
            return False, f"root successor {c} of no admissible type"
    if len(sortable) > 3:
        return False, "root has too many ordered successors"
    for perm in permutations(sortable):
        if all(
            not (u in below[perm[j]] and v in below[perm[i]])
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
            for u, v in b.edges
        ):
            return True, None
    return False, "root successors cannot be ordered"


def planted(rng, low, high):
    n1 = rng.randint(low, high)
    return random_bipartite_with_pm(rng, n1, rng.randint(n1 // 2, 2 * n1))


def test_nice_pmd_check_matches_reference():
    rng = random.Random(61)
    verdicts = []

    def check(b, nice):
        # the same verdict and reason with every perfect matching of b
        want = ref_nice_pmd_check(b, nice)
        for m in enumerate_perfect_matchings(b):
            assert nice_pmd_check(b, nice, m) == want
        verdicts.append(want[0])

    for _ in range(60):
        # random cubic trees rooted at a random inner node
        b = planted(rng, 3, 8)
        tree = random_cubic_tree(rng, b.vertices, "deg3")
        check(b, NicePMD(tree, 0, rng.randint(1, 4)))
        # the pipeline's tree, as built and with two leaves swapped
        nice = nice_pmd(b, some_perfect_matching(b))
        check(b, nice)
        tree = nice.tree
        x, y = rng.sample(sorted(tree.leaf_map), 2)
        swapped = dict(tree.leaf_map)
        swapped[x], swapped[y] = swapped[y], swapped[x]
        check(b, NicePMD(LeafTree(tree.adj, swapped, tree.root), nice.width, nice.type1_bound))
    assert 0 < verdicts.count(False) < len(verdicts)


def test_nice_pmd_check_orders_the_root_successors():
    # on the cube, each half {1, 2, 5, 6} and {3, 4, 7, 8} has edges from its
    # V1 side to the other's V2 side, so the two root successors cannot be
    # ordered; with type1_bound 2 both halves are guards and need no order
    cube = graph_from_edges(
        4, 4, [(1, 5), (2, 5), (2, 6), (1, 6), (3, 7), (4, 7), (4, 8), (3, 8), (1, 7), (3, 5), (2, 8), (4, 6)]
    )
    m = frozenset({(1, 5), (2, 6), (3, 7), (4, 8)})
    tb = _TreeBuilder()
    root = tb.node()
    leaves = {}
    for half in (((1, 5), (2, 6)), ((3, 7), (4, 8))):
        side = tb.node()
        tb.link(root, side)
        for edge in half:
            node = tb.node()
            tb.link(side, node)
            for end in edge:
                leaf = tb.node()
                leaves[leaf] = end
                tb.link(node, leaf)
    tree = LeafTree(tuple(map(frozenset, tb.adj)), leaves, root)
    tree.validate(cube.vertices)
    for bound, want in ((1, (False, "root successors cannot be ordered")), (2, (True, None))):
        nice = NicePMD(tree, 0, bound)
        assert nice_pmd_check(cube, nice, m) == ref_nice_pmd_check(cube, nice) == want


def broken_dtds(rng, dec):
    """dec with one guard emptied; with more than one node, also dec with one
    node's bag moved onto another node's, with a vertex of one bag copied into
    another, and with one parent pointer moved to a random node."""
    t = rng.randrange(dec.m)
    guards = list(dec.guards)
    guards[t] = frozenset()
    yield DirectedTreeDecomposition(dec.parent, dec.bags, tuple(guards))
    if dec.m == 1:
        return
    s, t = rng.sample(range(dec.m), 2)
    bags = list(dec.bags)
    bags[t] |= bags[s]
    bags[s] = frozenset()
    yield DirectedTreeDecomposition(dec.parent, tuple(bags), dec.guards)
    s = rng.choice([x for x in range(dec.m) if dec.bags[x]])
    t = rng.choice([x for x in range(dec.m) if x != s])
    bags = list(dec.bags)
    bags[t] |= {rng.choice(sorted(dec.bags[s]))}
    yield DirectedTreeDecomposition(dec.parent, tuple(bags), dec.guards)
    parent = list(dec.parent)
    parent[rng.choice([x for x in range(dec.m) if parent[x] != -1])] = rng.randrange(dec.m)
    yield DirectedTreeDecomposition(tuple(parent), dec.bags, dec.guards)


def test_validate_dtd_matches_reference():
    rng = random.Random(67)
    valid = []

    def check(d, dec):
        for proto in (False, True):
            got = validate_dtd(d, dec, proto)
            assert got == ref_validate_dtd(d, dec, proto)
            # the cop strategies' check is the same verdict without the width
            assert dtd_fault(d, dec, proto) == got[2]
            valid.append(got[0])

    for _ in range(40):
        if rng.random() < 0.5:
            b = planted(rng, 3, 8)
            d, _ = m_direction(b, some_perfect_matching(b))
        else:
            d = random_digraph(rng, rng.randint(2, 8), rng.uniform(0.15, 0.6))
        _, dec = dtw_exact_small(d)
        for candidate in (dec, prepare_dtd(d, dec)):
            check(d, candidate)
            for broken in broken_dtds(rng, candidate):
                check(d, broken)
    # a node with four children
    d = Digraph(5, frozenset({(1, 2), (1, 3), (1, 4), (1, 5)}))
    star = DirectedTreeDecomposition(
        (-1, 0, 0, 0, 0),
        tuple(frozenset({v}) for v in range(1, 6)),
        (frozenset(),) + (frozenset({1}),) * 4,
    )
    check(d, star)
    assert valid[-1] is True
    # guard ids outside the digraph, as a decomposition file may hold them
    odd_guards = star.guards[:4] + (frozenset({-1, 9}),)
    check(d, DirectedTreeDecomposition(star.parent, star.bags, odd_guards))
    assert 0 < valid.count(False) < len(valid)


def test_validate_dtd_builds_no_mask_for_a_guard_id_outside_the_digraph():
    # a decomposition file may name any guard id; one far past d.n guards
    # nothing and must not make the check build a mask that wide
    d = Digraph(3, frozenset({(1, 2), (2, 1), (2, 3), (3, 2)}))
    far = 10**8
    for guard, ok in (({2, far}, True), ({far}, False)):
        dec = DirectedTreeDecomposition(
            (-1, 0, 1),
            tuple(frozenset({v}) for v in (1, 2, 3)),
            (frozenset(), frozenset(guard), frozenset({2})),
        )
        tracemalloc.start()
        try:
            got = validate_dtd(d, dec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == ref_validate_dtd(d, dec)
        assert got[0] is ok
        assert peak < 1 << 20


def test_scc_table_matches_strong_components():
    # an entry holds the strong components, largest first, whatever order
    # the table is filled in: at random, or each mask before its subsets
    rng = random.Random(71)
    for _ in range(400):
        d = random_digraph(rng, rng.randint(0, 10), rng.uniform(0.05, 0.6))
        if d.n <= 5:
            banned_sets = [frozenset(c) for k in range(d.n + 1) for c in combinations(d.vertices, k)]
        else:
            banned_sets = [frozenset(v for v in d.vertices if rng.random() < 0.3) for _ in range(6)]
        masks = [vertex_mask(banned) for banned in banned_sets]
        at_random, supersets_first = _SccTable(d), _SccTable(d)
        for mask in rng.sample(masks, len(masks)):
            at_random[mask]
        for mask in sorted(masks, key=int.bit_count, reverse=True):
            supersets_first[mask]
        for banned, mask in zip(banned_sets, masks):
            expected = ref_strong_components(d, banned)
            assert [mask_members(c) for c in strong_component_masks(d, mask)] == expected
            for table in (at_random, supersets_first):
                comps = table[mask]
                assert sorted(map(mask_members, comps), key=sorted) == sorted(expected, key=sorted)
                sizes = [c.bit_count() for c in comps]
                assert sizes == sorted(sizes, reverse=True)


def test_component_masks_matches_strong_components():
    # the closure split of a random keep mask gives Tarjan's components as
    # sets, each component's lowest vertex above the one before, so the
    # first holds the lowest vertex of keep; an empty keep yields nothing
    rng = random.Random(72)
    for _ in range(300):
        d = random_digraph(rng, rng.randint(1, 10), rng.uniform(0.05, 0.6))
        keep = vertex_mask(v for v in d.vertices if rng.random() < 0.7)
        comps = list(component_masks(d.out_masks, d.in_masks, keep))
        banned = frozenset(v for v in d.vertices if not keep >> v & 1)
        expected = ref_strong_components(d, banned)
        assert sorted(map(mask_members, comps), key=sorted) == sorted(expected, key=sorted)
        lows = [c & -c for c in comps]
        assert lows == sorted(lows)
        if keep:
            assert comps[0] & keep & -keep
    assert list(component_masks(d.out_masks, d.in_masks, 0)) == []


def random_dag(rng, n):
    """Arcs only go forward along a shuffled order of the vertices."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    p = rng.uniform(0.2, 0.8)
    return Digraph(
        n, frozenset((order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
    )


def test_monotone_win_matches_the_full_scan():
    # every k up to the cop number: the same None, or the same memo
    rng = random.Random(83)
    digraphs = [random_dag(rng, rng.randint(1, 10)) for _ in range(20)]
    digraphs += [directed_cycle(n) for n in range(2, 9)]
    digraphs += [bidirected_clique(n) for n in range(1, 6)]
    digraphs += [random_digraph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.6)) for _ in range(120)]
    for _ in range(40):
        b = planted(rng, 3, 10)
        digraphs.append(m_direction(b, some_perfect_matching(b))[0])
    lost = won = 0
    for d in digraphs:
        table = _SccTable(d)
        verts = sorted(d.vertices)
        moves, upto = [], [0]
        for k in range(1, d.n + 1):
            moves += [vertex_mask(c) for c in combinations(verts, k)]
            upto.append(len(moves))
            want = ref_monotone_win(table, moves)
            assert _monotone_win(table, moves, upto) == want
            if want is not None:
                won += len(want)
                break
            lost += 1
    assert lost > 100 and won > 1000


def test_dtw_exact_small_matches_the_earlier_search():
    # the table's largest-first order reaches no output: the same cop number
    # and the same tree, children in Tarjan's order
    rng = random.Random(89)
    digraphs = [random_digraph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.6)) for _ in range(150)]
    digraphs += [directed_cycle(n) for n in range(2, 9)]
    digraphs += [bidirected_clique(n) for n in range(1, 6)]
    for _ in range(40):
        b = planted(rng, 3, 10)
        digraphs.append(m_direction(b, some_perfect_matching(b))[0])
    for d in digraphs:
        k, dec = dtw_exact_small(d)
        want_k, want = ref_dtw_exact_small(d)
        assert (k, dec.parent, dec.bags, dec.guards) == (want_k, want.parent, want.bags, want.guards)


def ref_dtd_greedy(d):
    """The earlier `dtd_greedy`: each position's kept cops and its children
    come from `_SccTable`, and the pick splits R - y for every y of R."""
    table = _SccTable(d)
    parent, bags, guards = [], [], []
    start = table[0]
    if len(start) > 1:
        start = strong_component_masks(d)
    stack = [(0, comp, 0) for comp in reversed(start[1:])]
    stack.append((0, start[0], -1))
    while stack:
        cops, robber, up = stack.pop()
        hold = cops
        for cop in sorted(mask_members(cops)):
            if robber in table[hold ^ 1 << cop]:
                hold ^= 1 << cop
        best, pick = robber.bit_count(), 0
        for y in sorted(mask_members(robber)):
            parts = strong_component_masks(d, ~robber | 1 << y)
            largest = max(map(int.bit_count, parts), default=0)
            if largest < best:
                best, pick = largest, 1 << y
        move = hold | pick
        idx = len(parent)
        parent.append(up)
        bags.append(mask_members(move & robber))
        guards.append(mask_members(cops))
        resps = [c for c in table[move] if c & robber]
        if len(resps) > 1:
            resps = [c for c in strong_component_masks(d, move) if c & robber]
        stack += [(move, c, idx) for c in reversed(resps)]
    return DirectedTreeDecomposition(tuple(parent), tuple(bags), tuple(guards))


def test_dtd_greedy_matches_the_table_search():
    # the M-directions of every corpus graph (n1 <= 4), CG_2-CG_4, the
    # 3 x k and 4 x k grids and 2 x k ladders up to 2 x 200, and random
    # digraphs, acyclic, disconnected and dense ones among them
    graphs = [b for n in range(1, 5) for b in connected_pm_bipartite(n)]
    graphs += [cylindrical_grid(k)[0] for k in (2, 3, 4)]
    graphs += [square_grid(3, k) for k in (2, 4, 6, 8)]
    graphs += [square_grid(4, k) for k in range(2, 9)]
    graphs += [square_grid(2, k) for k in (2, 3, 5, 10, 31, 64, 200)]
    digraphs = [m_direction(b, some_perfect_matching(b))[0] for b in graphs]
    rng = random.Random(97)
    digraphs += [random_digraph(rng, rng.randint(1, 14), rng.uniform(0.05, 0.5)) for _ in range(200)]
    for d in digraphs:
        dec, want = dtd_greedy(d), ref_dtd_greedy(d)
        assert (dec.parent, dec.bags, dec.guards) == (want.parent, want.bags, want.guards)


def conversion_inputs(rng):
    """b, and the M-direction d of b with its tag: of a planted graph, or of
    the split of a random digraph, whose M-direction is that digraph."""
    if rng.random() < 0.5:
        b = planted(rng, 3, 7)
        d, tag = m_direction(b, some_perfect_matching(b))
    else:
        d = random_digraph(rng, rng.randint(1, 7), rng.uniform(0.15, 0.6))
        b, _, tag = split(d)
    return b, d, tag


def random_valid_dtd(rng, d):
    """A random bushy tree with non-empty bags whose guards are random parts
    of the vertices outside their subtrees, or None when `validate_dtd`
    refuses it.  Node t hangs from a node of the first half of 0..t-1."""
    verts = sorted(d.vertices)
    rng.shuffle(verts)
    size = rng.randint(1, len(verts))
    parent = (-1,) + tuple(rng.randrange((t + 1) // 2) for t in range(1, size))
    owner = list(range(size)) + [rng.randrange(size) for _ in verts[size:]]
    bags = tuple(frozenset(v for v, o in zip(verts, owner) if o == t) for t in range(size))
    below = DirectedTreeDecomposition(parent, bags, (frozenset(),) * size).subtree_masks
    keep = rng.random()
    guards = (frozenset(),) + tuple(
        frozenset(v for v in d.vertices if not below[t] >> v & 1 and rng.random() < keep)
        for t in range(1, size)
    )
    dec = DirectedTreeDecomposition(parent, bags, guards)
    return dec if validate_dtd(d, dec)[0] else None


def convert(b, d, tag, dec):
    """The NicePMD `dtd_to_nice_pmd` builds from dec, or the message of the
    NotNice it raises."""
    try:
        return dtd_to_nice_pmd(b, d, tag, dec)
    except NotNice as exc:
        return str(exc)


def test_prepare_dtd_does_not_change_the_conversion():
    # the search's decomposition and prepare_dtd's output of it convert to
    # the same NicePMD, or raise the same NotNice; so do random valid
    # decompositions
    rng = random.Random(73)
    split_some = []
    for _ in range(150):
        b, d, tag = conversion_inputs(rng)
        _, dec = dtw_exact_small(d)
        for candidate in (dec, *(random_valid_dtd(rng, d) for _ in range(3))):
            if candidate is None:
                continue
            try:
                prepared = prepare_dtd(d, candidate)
            except NotNice as exc:
                # prepare_dtd orders a node's children as the conversion does
                assert convert(b, d, tag, candidate) == str(exc)
                continue
            assert convert(b, d, tag, prepared) == convert(b, d, tag, candidate)
            split_some.append(prepared.m > candidate.m)
    assert any(split_some)


def test_conversion_certifies_what_the_prepared_check_refused():
    # a decomposition that validate_dtd accepts and the prepared axioms
    # refuse converts to a tree the reference niceness check accepts, or
    # raises NotNice
    rng = random.Random(79)
    converted = []
    for _ in range(150):
        b, d, tag = conversion_inputs(rng)
        _, dec = dtw_exact_small(d)
        for candidate in (dec, *(random_valid_dtd(rng, d) for _ in range(3))):
            if candidate is None or ref_is_prepared(d, candidate):
                continue
            got = convert(b, d, tag, candidate)
            if isinstance(got, NicePMD):
                assert ref_nice_pmd_check(b, got) == (True, None)
            converted.append(isinstance(got, NicePMD))
    assert 0 < converted.count(True) < len(converted)
