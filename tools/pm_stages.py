"""Wall time per pool pass of each stage of the `pm` and `minor` routes,
for seeing which stage a change made cheaper.

    python3 tools/pm_stages.py --src <checkout>/src --workload W --seed N

It builds the workload's seeded pool with `bench/workloads.py`, asks
`matchwidth.cli.main(argv)` from the package under `--src` every question
in-process once to warm caches, and then in `PASSES` timed passes.  The
stages are wrapped by name with the benchmark's `spans.Tracer`, which
rebinds each function in every `matchwidth` module that imported it; a
stage the checkout lacks is reported missing.  For each stage it prints
the median over the passes of its inclusive wall time per pass, with its
calls per pass, and the median wall time of a whole pass; the last line of
stdout is the same as one JSON object.  The wrappers add their own small
cost to every stage and to the pass.  The collector is paused while a
pass is timed, so no collection lands in whichever stage happens to be
running; after each pass one `gc.collect()` runs outside the timing, and
the median of its seconds and of the objects it found are printed on a
line of their own.  Stages nest, so their times do not add up to the
pass: the cop strategies' closing check (`dtd_fault`, or `validate_dtd`
in older checkouts) runs inside `dtd_greedy` and `dtw_exact_small`, and
those and `dtd_to_pmd` run inside `direction_pmd`, the tree building of
`pm count` and of `compute_pmd` (`pm width` and `pm decomp`).  On
`minor`, `admissible_edges`, `_solve_full` and `has_perfect_matching` run
inside `matching_minor_check`, and `max_matching` inside each of the
three.  A generator stage (`elementary_directions`, `make_proxies`) is
counted only, its time "-": the tracer records no span for it, since its
body runs while its caller (`count_pm`, `_solve_full`) consumes it;
`m_direction`, which `elementary_directions` calls, keeps its own stage.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
PASSES = 7
STAGES = (
    "io.parse_graph_file",
    "bigraph.max_matching",
    "direction.m_direction",
    "direction.elementary_directions",
    "decomp.compute_pmd",
    "decomp.direction_pmd",
    "decomp.dtd_greedy",
    "decomp.dtw_exact_small",
    "decomp.validate_dtd",
    "decomp.dtd_fault",
    "decomp.dtd_to_pmd",
    "counting.count_pm_decomp",
    "decomp.cut_width",
    "decomp.pmw_exact_small",
    "porosity.matching_porosity",
    "bigraph.admissible_edges",
    "minors.matching_minor_check",
    "linkage._solve_full",
    "linkage.make_proxies",
    "bigraph.has_perfect_matching",
)


def one_pass(cli, questions) -> None:
    for q in questions:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(q.argv)
            except SystemExit:
                pass


def stage_times(spans, totals) -> dict[str, tuple[int, float | None]]:
    """Calls and inclusive seconds per stage name in the recorded spans,
    and calls alone, with seconds None, for the stages the tracer counts
    without spans (generators)."""
    out: dict[str, tuple[int, float | None]] = {
        name: (t.calls, None) for name, t in totals.items() if t.calls
    }
    for name, start, end, _ in spans:
        calls, took = out.get(name, (0, 0.0))
        out[name] = calls + 1, took + end - start
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="the checkout's src directory")
    parser.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    parser.add_argument("--seed", type=int, required=True, help="the pool's seed")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    import program
    import workloads
    from spans import Tracer

    cli = program.load(args.src)
    questions = workloads.build_questions(args.workload, args.seed)
    per_pass: list[dict[str, tuple[int, float]]] = []
    pass_s: list[float] = []
    gc_s: list[float] = []
    gc_found: list[int] = []
    with tempfile.TemporaryDirectory() as tmp:
        workloads.write_pool(questions, Path(tmp))
        with Tracer(list(STAGES)) as tracer:
            one_pass(cli, questions)
            gc.collect()
            for _ in range(PASSES):
                tracer.spans.clear()
                for totals in tracer.totals.values():
                    totals.calls = 0
                gc.disable()
                try:
                    start = time.perf_counter()
                    one_pass(cli, questions)
                    pass_s.append(time.perf_counter() - start)
                    # before the collector resumes, or its first automatic
                    # collection takes the pass's garbage
                    start = time.perf_counter()
                    gc_found.append(gc.collect())
                    gc_s.append(time.perf_counter() - start)
                finally:
                    gc.enable()
                per_pass.append(stage_times(tracer.spans, tracer.totals))
            missing = list(tracer.missing)

    stages = {}
    print(f"{args.workload} seed {args.seed}: {len(questions)} questions, {PASSES} passes")
    for name in STAGES:
        if name in missing:
            print(f"  {name:28s} missing")
            continue
        calls, took = per_pass[0].get(name, (0, 0.0))
        if took is None:
            stages[name] = {"seconds": None, "calls": calls}
            print(f"  {name:28s} {'-':>9s}    {calls:6d} calls")
            continue
        took = statistics.median(p.get(name, (0, 0.0))[1] for p in per_pass)
        stages[name] = {"seconds": round(took, 5), "calls": calls}
        print(f"  {name:28s} {took:9.4f} s  {calls:6d} calls")
    total = statistics.median(pass_s)
    print(f"  {'pass':28s} {total:9.4f} s")
    collect_s = statistics.median(gc_s)
    found = statistics.median(gc_found)
    print(f"  {'gc.collect after a pass':28s} {collect_s:9.4f} s  {found:6.0f} objects")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": PASSES,
        "pass_s": round(total, 5),
        "gc": {"seconds": round(collect_s, 5), "objects": found},
        "stages": stages,
        "missing": missing,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
