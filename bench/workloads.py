"""Seeded graph families and the question pools of the four workloads.

Everything here is the benchmark's own code: the program under test only
ever sees the graph files that `write_pool` produces.  The same seed gives
byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# A graph is (n1, n2, sorted edge list); V1 = 1..n1, V2 = n1+1..n1+n2.
Graph = tuple[int, int, tuple[tuple[int, int], ...]]


def planted(rng: random.Random, n1: int, extra: int) -> Graph:
    """Random bipartite graph with a planted perfect matching plus `extra`
    further edges drawn uniformly from the non-edges."""
    perm = list(range(n1))
    rng.shuffle(perm)
    edges = {(i + 1, n1 + 1 + perm[i]) for i in range(n1)}
    non = [
        (u, v)
        for u in range(1, n1 + 1)
        for v in range(n1 + 1, 2 * n1 + 1)
        if (u, v) not in edges
    ]
    edges.update(rng.sample(non, min(extra, len(non))))
    return n1, n1, tuple(sorted(edges))


def relabel(rng: random.Random, g: Graph) -> Graph:
    """Shuffle the vertex ids inside each colour class."""
    n1, n2, edges = g
    p1 = list(range(1, n1 + 1))
    p2 = list(range(n1 + 1, n1 + n2 + 1))
    rng.shuffle(p1)
    rng.shuffle(p2)
    return n1, n2, tuple(sorted((p1[u - 1], p2[v - n1 - 1]) for u, v in edges))


def _from_cells(cells: dict, adjacent) -> Graph:
    """Bipartite graph on labelled cells; colour is given by each cell's
    `black` flag, ids are assigned in sorted cell order."""
    blacks = sorted(c for c, black in cells.items() if black)
    whites = sorted(c for c, black in cells.items() if not black)
    ids = {c: i for i, c in enumerate(blacks + whites, start=1)}
    edges = {
        (ids[a], ids[b]) if ids[a] < ids[b] else (ids[b], ids[a])
        for a, b in adjacent
    }
    return len(blacks), len(whites), tuple(sorted(edges))


def square_grid(rows: int, cols: int) -> Graph:
    """rows x cols grid graph, coloured by coordinate parity."""
    cells = {(r, c): (r + c) % 2 == 0 for r in range(rows) for c in range(cols)}
    adjacent = [((r, c), (r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    adjacent += [((r, c), (r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return _from_cells(cells, adjacent)


def cylindrical_grid(k: int) -> Graph:
    """CG_k: k rings of length 4k; ring i meets ring i+1 from positions
    1 mod 4 and ring i-1 from positions 3 mod 4 (positions are 1-based)."""
    length = 4 * k
    cells = {(i, j): j % 2 == 1 for i in range(1, k + 1) for j in range(1, length + 1)}
    adjacent = [((i, j), (i, j % length + 1)) for i in range(1, k + 1) for j in range(1, length + 1)]
    adjacent += [((i, j), (i + 1, j + 1)) for i in range(1, k) for j in range(1, length + 1, 4)]
    adjacent += [((i, j), (i - 1, j + 1)) for i in range(2, k + 1) for j in range(3, length + 1, 4)]
    return _from_cells(cells, adjacent)


def even_cycle(k: int) -> Graph:
    """C_2k as a bipartite graph with k vertices per side."""
    edges = [(i, k + i) for i in range(1, k + 1)] + [(i % k + 1, k + i) for i in range(1, k + 1)]
    return k, k, tuple(sorted(edges))


def complete_bipartite(a: int, b: int) -> Graph:
    return a, b, tuple((u, a + v) for u in range(1, a + 1) for v in range(1, b + 1))


def graph_text(g: Graph) -> str:
    n1, n2, edges = g
    return "".join([f"b {n1} {n2}\n"] + [f"e {u} {v}\n" for u, v in edges])


@dataclass
class Question:
    """One CLI question.  `files` are names inside the pool directory and
    `write_pool` fills in `argv`; `graph` (and `pattern`, `pairs`) are what
    the checker needs, `oracle` says how a `pm count` answer is checked."""

    kind: str  # count | decomp | width | dapp | minor
    graph: Graph
    files: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...] = ()
    pattern: Graph | None = None
    oracle: tuple = ("bruteforce",)
    argv: list[str] = field(default_factory=list)


def _argv(q: Question, root: Path) -> list[str]:
    paths = [str(root / f) for f in q.files]
    if q.kind in ("count", "decomp", "width"):
        return ["--json", "pm", q.kind, paths[0]]
    if q.kind == "dapp":
        spec = ",".join(f"{s}:{t}" for s, t in q.pairs)
        return ["--json", "dapp", paths[0], "--pairs", spec]
    return ["--json", "minor", paths[0], paths[1]]


# --- pools -----------------------------------------------------------------

# (n1, extra edges) strata, 2.5 n1 extra edges each.  At 3 n1 a stratum's
# median cost moved by up to 1.9x from seed to seed with 21 graphs each,
# and at 3.5-4 n1 single questions take 0.3-3.5 s, so a run holds too few
# of them for its median and tail to be steady.
DENSE_STRATA = [(n1, round(2.5 * n1)) for n1 in (9, 10, 11)]
DENSE_ROUNDS = 66


def pool_pm_dense(rng: random.Random) -> list[tuple[str, Graph, tuple]]:
    """Rounds over every (n1, density) stratum, in a seeded order per round,
    so each whole round keeps the stratum mix balanced."""
    out = []
    for _ in range(DENSE_ROUNDS):
        order = DENSE_STRATA[:]
        rng.shuffle(order)
        for n1, extra in order:
            out.append(("count", planted(rng, n1, extra), ("bruteforce",)))
    return out


SPARSE_FAMILIES = (
    [("ladder", k) for k in range(4, 13, 2)]
    + [("grid", 3, k) for k in (4, 6, 8)]
    + [("grid", 4, k) for k in (3, 4, 5, 6)]
    + [("cg", 2)]
    + [("planted", n1) for n1 in range(6, 13)]
)
SPARSE_KINDS = ("count", "decomp", "width")
SPARSE_ROUNDS = 5


def pool_pm_sparse(rng: random.Random) -> list[tuple[str, Graph, tuple]]:
    """Rounds over the whole family list.  Each round relabels every family
    member afresh and draws new sparse planted graphs (at most n1 extra
    edges), since labels alone change a question's cost several-fold.
    Each graph is asked count, decomp and width."""
    out = []
    for _ in range(SPARSE_ROUNDS):
        graphs: list[tuple[Graph, tuple]] = []
        for family in SPARSE_FAMILIES:
            if family[0] == "ladder":
                graphs.append((relabel(rng, square_grid(2, family[1])), family))
            elif family[0] == "grid":
                graphs.append((relabel(rng, square_grid(*family[1:])), family))
            elif family[0] == "cg":
                graphs.append((relabel(rng, cylindrical_grid(family[1])), ("bruteforce",)))
            else:
                n1 = family[1]
                graphs.append((planted(rng, n1, rng.randint(n1 // 2, n1)), ("bruteforce",)))
        rng.shuffle(graphs)
        out += [(kind, g, oracle) for g, oracle in graphs for kind in SPARSE_KINDS]
    return out


DAPP_ROUNDS = 94
DAPP_N1 = (6, 7, 8, 9)


def pool_dapp(rng: random.Random) -> list[tuple[str, Graph, tuple]]:
    """Rounds of one planted graph per n1 in DAPP_N1, with n1 to 2 n1 extra
    edges, so every pool holds the same mix of sizes.  Each graph is asked
    two sets of one pair and two sets of two, the pairs non-adjacent V1-V2
    with distinct terminals, in seeded order.  Adjacent pairs would take
    the direct-edge shortcut and never reach the DP."""
    out = []
    for _ in range(DAPP_ROUNDS):
        for n1 in DAPP_N1:
            g = planted(rng, n1, rng.randint(n1, 2 * n1))
            edges = set(g[2])
            cand = [
                (s, t)
                for s in range(1, n1 + 1)
                for t in range(n1 + 1, 2 * n1 + 1)
                if (s, t) not in edges
            ]
            for size in (1, 1, 2, 2):
                first = rng.choice(cand)
                pairs = [first]
                rest = [p for p in cand if p[0] != first[0] and p[1] != first[1]]
                if size == 2 and rest:
                    pairs.append(rng.choice(rest))
                out.append(("dapp", g, tuple(pairs)))
    rng.shuffle(out)
    return out


MINOR_ROUNDS = 70
# (n1, extra edges) of the hosts, one of each per round
MINOR_HOSTS = [(4, 3), (4, 4), (5, 3), (5, 4)]
PATTERNS = {
    "C4": even_cycle(2),
    "C6": even_cycle(3),
    "C8": even_cycle(4),
    "K33": complete_bipartite(3, 3),
}


def pool_minor(rng: random.Random) -> list[tuple[str, Graph, str]]:
    """Every pattern on each host, in rounds over MINOR_HOSTS.  Hosts carry
    3-4 extra edges: with 2 the questions end before the linkage search,
    with 5 or more single questions reach 0.4 s and the exhaustive check
    of each pool outgrows the run."""
    out = []
    for _ in range(MINOR_ROUNDS):
        for n1, extra in MINOR_HOSTS:
            host = planted(rng, n1, extra)
            for name in PATTERNS:
                out.append(("minor", host, name))
    return out


POOLS = {
    "pm-dense": pool_pm_dense,
    "pm-sparse": pool_pm_sparse,
    "dapp": pool_dapp,
    "minor": pool_minor,
}

def build_questions(workload: str, seed: int) -> list[Question]:
    """The workload's question pool for `seed`, without files."""
    rng = random.Random(f"{workload}:{seed}")
    names: dict[Graph, str] = {}
    questions = []
    for kind, g, extra in POOLS[workload](rng):
        name = names.setdefault(g, f"g{len(names):04d}.txt")
        if kind == "dapp":
            questions.append(Question(kind, g, (name,), pairs=extra))
        elif kind == "minor":
            questions.append(
                Question(kind, g, (name, f"{extra}.txt"), pattern=PATTERNS[extra])
            )
        else:
            questions.append(Question(kind, g, (name,), oracle=extra))
    return questions


def write_pool(questions: list[Question], root: Path) -> list[Path]:
    """Write every graph and pattern file once; fill in each question's argv.
    Returns the distinct files written."""
    texts: dict[str, str] = {}
    for q in questions:
        texts.setdefault(q.files[0], graph_text(q.graph))
        if q.pattern is not None:
            texts.setdefault(q.files[1], graph_text(q.pattern))
    for name, text in texts.items():
        (root / name).write_text(text)
    for q in questions:
        q.argv = _argv(q, root)
    return [root / name for name in texts]
