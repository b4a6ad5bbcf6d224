"""Command-line front end.

Decision commands exit 0 for yes, 1 for no, 2 on errors; `--json` switches
the output to a single JSON object on stdout; `-` reads a graph from stdin.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from . import io as mio
from .bigraph import BipartiteGraph, Matching, graph_from_edges, some_perfect_matching
from .digraph import Digraph, vertex_mask
from .errors import InvalidParameter, MatchwidthError, NoPerfectMatching


def _emit(args, payload: dict, plain: str) -> None:
    if args.json:
        payload["schema"] = mio.SCHEMA_VERSION
        print(json.dumps(payload, sort_keys=True))
    elif plain:
        print(plain)


def _need_bipartite(g) -> BipartiteGraph:
    if not isinstance(g, BipartiteGraph):
        raise MatchwidthError("expected a bipartite graph file")
    return g


def _need_digraph(g) -> Digraph:
    if not isinstance(g, Digraph):
        raise MatchwidthError("expected a digraph file")
    return g


def _parse_shore(spec: str, g) -> frozenset[int]:
    try:
        shore = frozenset(int(x) for x in spec.split(",") if x)
    except ValueError:
        raise MatchwidthError(f"malformed shore {spec!r}: expected vertex ids") from None
    outside = sorted(shore.difference(g.vertices))
    if outside:
        raise MatchwidthError(f"shore vertices {outside} are not in the graph")
    return shore


def _perfect_matching(b: BipartiteGraph, path: str | None) -> Matching:
    """The perfect matching a question works with: the matching file at
    path when one is given, else one that Hopcroft-Karp finds."""
    if path:
        return mio.parse_matching_text(mio.read_text(path), b)
    m = some_perfect_matching(b)
    if m is None:
        raise NoPerfectMatching("graph has no perfect matching")
    return m


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise MatchwidthError(f"{path}: not valid JSON: {exc}") from None


def _parse_pairs(spec: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in spec.split(","):
        s, _, t = chunk.partition(":")
        try:
            pairs.append((int(s), int(t)))
        except ValueError:
            raise MatchwidthError(f"malformed terminal pair {chunk!r}: expected s:t") from None
    return pairs


def cmd_gen(args) -> int:
    from .grids import (
        cylindrical_grid,
        ep_gadget,
        quadrangulation,
        square_grid,
    )

    if args.kind == "cg":
        g, _, _ = cylindrical_grid(args.k)
    elif args.kind == "cgq":
        g, _, _ = quadrangulation(args.k)
    elif args.kind == "grid":
        g = square_grid(args.rows, args.cols)
    elif args.kind == "ep-gadget":
        h = _need_digraph(mio.parse_graph_file(args.hfile))
        g = ep_gadget(h, (args.u, args.v), args.k)
    else:  # random
        rng = random.Random(args.seed)
        n = args.n
        if n < 0:
            raise InvalidParameter(f"vertex count {n} is negative")
        if not 0 <= args.p <= 1:
            raise InvalidParameter(f"edge probability {args.p} is not in [0, 1]")
        edges = {(i, n + i) for i in range(1, n + 1)}
        for i in range(1, n + 1):
            for j in range(n + 1, 2 * n + 1):
                if rng.random() < args.p:
                    edges.add((i, j))
        g = graph_from_edges(n, n, edges)
    sys.stdout.write(mio.write_graph_text(g))
    return 0


def cmd_pm(args) -> int:
    if args.what != "count" and (args.oracle or args.decomp):
        flag = "--oracle" if args.oracle else "--decomp"
        raise MatchwidthError(f"{flag} applies to pm count only")
    if args.oracle and args.decomp:
        raise MatchwidthError("--oracle and --decomp exclude each other")
    b = _need_bipartite(mio.parse_graph_file(args.graph))
    if args.what == "count":
        from .counting import count_pm, count_pm_bruteforce, count_pm_decomp

        if args.oracle:
            value = count_pm_bruteforce(b)
        elif args.decomp:
            dec = mio.leaf_tree_from_json(_read_json(args.decomp))
            value = count_pm_decomp(b, dec)
        else:
            value = count_pm(b)
        _emit(args, {"count": str(value)}, str(value))
        return 0
    if b.n == 0:
        # it has a perfect matching, the empty one, but a decomposition tree
        # needs at least one leaf
        raise MatchwidthError("the empty graph has no decomposition")
    from .decomp import PMW_ORACLE_LIMIT, compute_pmd, cut_width, pmw_exact_small

    if args.what == "width" and b.n <= PMW_ORACLE_LIMIT:
        width, _ = pmw_exact_small(b)
        _emit(args, {"width": width, "exact": True}, str(width))
        return 0
    m = _perfect_matching(b, None)
    tree = compute_pmd(b, m)
    width = cut_width(b, m, tree)
    if args.what == "width":
        _emit(args, {"width": width, "exact": False}, str(width))
        return 0
    # decomp
    payload = mio.leaf_tree_to_json(tree)
    payload["width"] = width
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_cut(args) -> int:
    g = mio.parse_graph_file(args.graph)
    shore = _parse_shore(args.shore, g)
    if isinstance(g, BipartiteGraph):
        from .porosity import matching_porosity

        value = matching_porosity(g, vertex_mask(shore))
    else:
        from .porosity import cycle_porosity

        value = cycle_porosity(g, shore)
    _emit(args, {"porosity": value}, str(value))
    return 0


def cmd_guard(args) -> int:
    from .porosity import guarding_set, verify_guard

    b = _need_bipartite(mio.parse_graph_file(args.graph))
    m = _perfect_matching(b, args.matching)
    shore = _parse_shore(args.shore, b)
    g = guarding_set(b, m, shore)
    if not verify_guard(b, m, shore, g.edges):
        raise MatchwidthError("guarding set failed its verification")
    if args.json:
        _emit(args, {"guard": sorted(map(list, g.edges)), "porosity": g.porosity}, "")
    else:
        sys.stdout.write(mio.write_matching_text(g.edges))
    return 0


def cmd_dapp(args) -> int:
    from .linkage import dapp_bruteforce, dapp_solve, dapp_solve_extending

    if args.oracle and args.extend:
        raise MatchwidthError("--oracle and --extend exclude each other")
    if args.witness and not args.oracle:
        raise MatchwidthError("--witness needs --oracle")
    b = _need_bipartite(mio.parse_graph_file(args.graph))
    pairs = _parse_pairs(args.pairs)
    if args.oracle:
        answer, solution = dapp_bruteforce(b, pairs)
        if args.witness and solution is not None:
            with open(args.witness, "w") as fh:
                json.dump(
                    {
                        "schema": mio.SCHEMA_VERSION,
                        "matching": sorted(map(list, solution.matching)),
                        "paths": [list(p) for p in solution.paths],
                    },
                    fh,
                )
    elif args.extend:
        m = mio.parse_matching_text(mio.read_text(args.extend), b)
        answer = dapp_solve_extending(b, pairs, m)
    else:
        answer = dapp_solve(b, pairs)
    _emit(args, {"solvable": answer}, "yes" if answer else "no")
    return 0 if answer else 1


def cmd_minor(args) -> int:
    from .minors import matching_minor_bruteforce, matching_minor_check

    b = _need_bipartite(mio.parse_graph_file(args.graph))
    h = _need_bipartite(mio.parse_graph_file(args.pattern))
    answer = (
        matching_minor_bruteforce(b, h)
        if args.oracle
        else matching_minor_check(b, h)
    )
    _emit(args, {"contains": answer}, "yes" if answer else "no")
    return 0 if answer else 1


def cmd_strongplanar(args) -> int:
    from .minors import is_strongly_planar

    d = _need_digraph(mio.parse_graph_file(args.graph))
    answer = is_strongly_planar(d)
    _emit(args, {"strongly_planar": answer}, "yes" if answer else "no")
    return 0 if answer else 1


def cmd_dtw(args) -> int:
    from .decomp import dtw_exact_small, validate_dtd

    if args.proto and not args.dtd:
        raise MatchwidthError("--proto needs --dtd")
    d = _need_digraph(mio.parse_graph_file(args.graph))
    if args.dtd:
        dec = mio.dtd_from_json(_read_json(args.dtd))
        ok, width, reason = validate_dtd(d, dec, proto=args.proto)
        payload = {"valid": ok, "width": width if ok else None, "reason": reason}
        _emit(args, payload, f"{'valid' if ok else 'invalid'} width={width if ok else '-'}")
        return 0 if ok else 1
    number, dec = dtw_exact_small(d)
    payload = mio.dtd_to_json(dec)
    payload["cop_number"] = number
    payload["width"] = dec.width()
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_direction(args) -> int:
    from .direction import m_direction

    b = _need_bipartite(mio.parse_graph_file(args.graph))
    m = _perfect_matching(b, args.matching)
    d, _ = m_direction(b, m)
    sys.stdout.write(mio.write_graph_text(d))
    return 0


def cmd_split(args) -> int:
    from .direction import split

    d = _need_digraph(mio.parse_graph_file(args.graph))
    b, _, _ = split(d)
    sys.stdout.write(mio.write_graph_text(b))
    return 0


def cmd_dm(args) -> int:
    from .porosity import dm_order

    b = _need_bipartite(mio.parse_graph_file(args.graph))
    structure = dm_order(b, args.colour)
    payload = {
        "components": [sorted(c) for c in structure.components],
        "order": sorted(map(list, structure.order)),
    }
    _emit(
        args,
        payload,
        "\n".join(
            f"component {i}: {sorted(c)}" for i, c in enumerate(structure.components)
        ),
    )
    return 0


def cmd_ears(args) -> int:
    from .grids import ear_decomposition

    b = _need_bipartite(mio.parse_graph_file(args.graph))
    stages = ear_decomposition(b)
    if args.json:
        _emit(
            args,
            {
                "stages": [
                    {"edges": sorted(map(list, edges)), "ear": list(ear) if ear else None}
                    for edges, ear in stages
                ]
            },
            "",
        )
    else:
        for i, (edges, ear) in enumerate(stages):
            print(f"stage {i + 1}: {len(edges)} edges" + (f" ear {list(ear)}" if ear else ""))
    return 0


def cmd_cops(args) -> int:
    from .decomp import cops_play, cycw_exact_small

    d = _need_digraph(mio.parse_graph_file(args.graph))
    width, dec = cycw_exact_small(d)
    transcript = cops_play(d, dec)
    payload = {
        "caught": True,  # cops_play returns only on capture
        "max_cops": transcript.max_cops(),
        "rounds": len(transcript.cop_positions),
        "cycle_width": width,
    }
    _emit(
        args,
        payload,
        f"caught after {len(transcript.cop_positions)} moves with {transcript.max_cops()} cops",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="matchwidth")
    top.add_argument("--json", action="store_true", help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="graph generators")
    gsub = gen.add_subparsers(dest="kind", required=True)
    p = gsub.add_parser("cg")
    p.add_argument("k", type=int)
    p = gsub.add_parser("cgq")
    p.add_argument("k", type=int)
    p = gsub.add_parser("grid")
    p.add_argument("rows", type=int)
    p.add_argument("cols", type=int)
    p = gsub.add_parser("ep-gadget")
    p.add_argument("hfile")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    p.add_argument("k", type=int)
    p = gsub.add_parser("random")
    p.add_argument("n", type=int)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_gen)

    pm = sub.add_parser("pm", help="perfect matching computations")
    pm.add_argument("what", choices=["count", "width", "decomp"])
    pm.add_argument("graph")
    pm.add_argument("--oracle", action="store_true")
    pm.add_argument("--decomp", help="decomposition JSON file")
    pm.set_defaults(func=cmd_pm)

    cut = sub.add_parser("cut", help="cut porosity")
    cut.add_argument("what", choices=["porosity"])
    cut.add_argument("graph")
    cut.add_argument("shore", help="comma-separated vertex ids")
    cut.set_defaults(func=cmd_cut)

    guard = sub.add_parser("guard", help="guarding set for a cut")
    guard.add_argument("graph")
    guard.add_argument("shore")
    guard.add_argument("--matching")
    guard.set_defaults(func=cmd_guard)

    dapp = sub.add_parser("dapp", help="disjoint alternating paths")
    dapp.add_argument("graph")
    dapp.add_argument("--pairs", required=True, help='"s1:t1,s2:t2"')
    dapp.add_argument("--extend", help="matching file forced into the solution")
    dapp.add_argument("--oracle", action="store_true")
    dapp.add_argument("--witness", help="JSON output for the oracle witness")
    dapp.set_defaults(func=cmd_dapp)

    minor = sub.add_parser("minor", help="matching minor containment")
    minor.add_argument("graph")
    minor.add_argument("pattern")
    minor.add_argument("--oracle", action="store_true")
    minor.set_defaults(func=cmd_minor)

    sp = sub.add_parser("strongplanar", help="strong planarity of a digraph")
    sp.add_argument("graph")
    sp.set_defaults(func=cmd_strongplanar)

    dtw = sub.add_parser("dtw", help="directed treewidth certificate")
    dtw.add_argument("graph")
    dtw.add_argument("--dtd", help="validate this decomposition instead")
    dtw.add_argument("--proto", action="store_true")
    dtw.set_defaults(func=cmd_dtw)

    direction = sub.add_parser("direction", help="M-direction of a bipartite graph")
    direction.add_argument("graph")
    direction.add_argument("--matching")
    direction.set_defaults(func=cmd_direction)

    spl = sub.add_parser("split", help="split of a digraph")
    spl.add_argument("graph")
    spl.set_defaults(func=cmd_split)

    dm = sub.add_parser("dm", help="Dulmage-Mendelsohn component order")
    dm.add_argument("graph")
    dm.add_argument("--colour", type=int, default=2, choices=[1, 2])
    dm.set_defaults(func=cmd_dm)

    ears = sub.add_parser("ears", help="ear decomposition")
    ears.add_argument("graph")
    ears.set_defaults(func=cmd_ears)

    cops = sub.add_parser("cops", help="cops-and-robber pursuit transcript")
    cops.add_argument("graph")
    cops.set_defaults(func=cmd_cops)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and then reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except MatchwidthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
