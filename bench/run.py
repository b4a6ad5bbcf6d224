"""End-to-end benchmark of the `matchwidth` CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  It writes the workload's seeded
graph files into a temporary directory there, asks
`matchwidth.cli.main(argv)` in-process, one question after another (a
closed loop with one client), in whole passes over the pool for about
`--seconds` seconds, and measures set-up in fresh interpreters.  Every
answer is checked afterwards, outside the timed region.  Timings are
scaled to a nominal machine speed measured next to each question
(`speed.py`).

With `--trace 0` it reports the end-to-end metrics.  With `--trace 1` it
answers a fixed list of questions untraced and then traced, and reports
the per-layer metrics of `layers.PER_LAYER`.  Lines before the last one
are a human-readable report; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import layers
import program
import speed
import workloads
from check import WRONG_OUTPUT, Answer, Checker
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 21
# A first pass over the pool stops after this many times `--seconds`.
MAX_STRETCH = 2

# `latency_tail_ms` is this percentile of the per-question times.  Over
# five seeds of each pool the spread (IQR over median) of p75 stayed within
# 0.07 on every workload, while p90 reached 0.16 and p95 0.44: a failed
# question counts as missing every latency limit, and 3-5% of `dapp`
# questions fail.
TAIL_PCT = 75
# `trace_questions` is the fixed number of pool questions the traced run
# answers, so its counts repeat exactly for a seed.
WORKLOADS = {
    "pm-dense": {"trace_questions": 24},
    "pm-sparse": {"trace_questions": 60},
    "dapp": {"trace_questions": 200},
    "minor": {"trace_questions": 80},
}
# Workloads that BENCHMARK.json leaves out.  `dapp_solve` answers "no" to
# some solvable `dapp` questions, so `dapp` runs report correct=false on
# many seeds; the workload stays runnable so the defect stays in view.
UNLISTED = {"dapp"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_qps": "questions/s",
    "ok_fraction": "fraction",
    "peak_rss_mb": "MB",
}


def ask(cli, argv: list[str]) -> Answer:
    """One CLI call with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raising question is a failed question
            return None, out.getvalue(), type(exc).__name__
    return code, out.getvalue(), None


def exit2_cause(cli, argv: list[str]) -> str:
    """Exception class behind an exit-2 answer, found by running the command
    once more without `main`'s error handler."""
    build = getattr(cli, "build_parser", None)
    if build is None:
        return "exit2"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build().parse_args(argv)
            args.func(args)
        except SystemExit:
            return "ArgumentError"
        except Exception as exc:
            return type(exc).__name__
    return "exit2"


def setup_samples(graph_dir: Path, count: int) -> list[float]:
    """Seconds of import plus parsing the pool, each in a fresh interpreter
    and scaled to the nominal speed (`program.main`)."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "program.py"), str(SRC), str(graph_dir)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def ask_each(cli, questions, order):
    """Ask the questions in `order` once each.  Returns [(index, latency_s,
    answer)] and the wall time of the loop."""
    records = []
    clock = time.perf_counter
    start = clock()
    for index in order:
        t0 = clock()
        answer = ask(cli, questions[index].argv)
        records.append((index, clock() - t0, answer))
    return records, clock() - start


def passes(cli, questions, seconds: float):
    """Ask the whole pool, in order, probing the machine's speed whenever
    `speed.EVERY_S` of question time has passed; then further whole passes
    while one is expected to end closer to `seconds` than stopping now
    would.  On a machine so slow that the first pass outlasts
    `MAX_STRETCH` times `seconds`, stop there, mid-pass.  Returns the
    records, each with its latency scaled to the nominal speed, the wall
    time of the loop and the median probe time."""
    records, probes, latest, walls = [], [], [], []
    since = math.inf
    clock = time.perf_counter
    cutoff = clock() + MAX_STRETCH * seconds
    while not walls or sum(walls) + statistics.mean(walls) / 2 < seconds:
        start = clock()
        for index, q in enumerate(questions):
            if records and clock() > cutoff:
                break
            if since >= speed.EVERY_S:
                probes.append(speed.probe_seconds())
                since = 0.0
            t0 = clock()
            answer = ask(cli, q.argv)
            lat = clock() - t0
            since += lat
            records.append((index, lat, answer))
            latest.append(len(probes) - 1)
        walls.append(clock() - start)
    factors = speed.factors(probes)
    scaled = [
        (index, lat * factors[at], answer)
        for (index, lat, answer), at in zip(records, latest)
    ]
    return scaled, sum(walls), statistics.median(probes)


def judge(cli, checker: Checker, records) -> tuple[list[str | None], Counter]:
    """Checker verdict per record, and failures counted by cause."""
    verdicts = [checker.check(index, answer) for index, _, answer in records]
    causes: Counter = Counter()
    seen: dict[int, str] = {}
    for (index, _, answer), verdict in zip(records, verdicts):
        if verdict is None:
            continue
        if verdict == "exit2":
            if index not in seen:
                seen[index] = exit2_cause(cli, checker.questions[index].argv)
            verdict = seen[index]
        causes[verdict] += 1
    return verdicts, causes


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(cli, questions, checker, seconds, graph_dir, report):
    # set-up samples are taken before and after the loop, so that their
    # median spans the run rather than one moment of the machine's speed
    setup = setup_samples(graph_dir, SETUP_SAMPLES // 2)
    records, wall, probe = passes(cli, questions, seconds)
    setup += setup_samples(graph_dir, SETUP_SAMPLES - len(setup))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts, causes = judge(cli, checker, records)
    n = len(records)
    ok = sum(v is None for v in verdicts)

    # A question's time is the median of its scaled latencies over the
    # passes.  A question with a failed answer misses every latency limit.
    times: dict[int, list[float]] = {}
    failed: dict[int, bool] = {}
    for (index, lat, _), verdict in zip(records, verdicts):
        times.setdefault(index, []).append(lat)
        failed[index] = failed.get(index, False) or verdict is not None
    per_question = {index: statistics.median(t) for index, t in times.items()}
    lats = sorted(math.inf if failed[i] else t for i, t in per_question.items())
    tail, beyond = nearest_rank(lats, TAIL_PCT)
    report(
        f"{n} answers to {len(times)} of {len(questions)} questions, "
        f"{wall:.2f} s; {n - ok} failed ({_causes(causes)})"
    )
    report(
        f"speed probe median {probe * 1e3:.4f} ms against {speed.NOMINAL_S * 1e3:.4f} ms nominal"
    )
    report(f"latency_tail_ms is p{TAIL_PCT}, with {beyond} questions beyond it")
    report(f"failed_fraction {(n - ok) / n:.6f}")
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": nearest_rank(lats, 50)[0] * 1e3,
        "latency_tail_ms": tail * 1e3,
        # the closed loop's rate with every question at its median time
        "throughput_qps": sum(not bad for bad in failed.values()) / sum(per_question.values()),
        "ok_fraction": ok / n,
        "peak_rss_mb": rss_mb,
    }
    return metrics, records, verdicts, causes, END_TO_END_UNITS


def traced(cli, name, questions, checker, report):
    count = WORKLOADS[name]["trace_questions"]
    order = [i % len(questions) for i in range(count)]
    # the first pass pays for first use of each file and code path; the
    # second is the untraced baseline
    warm, _ = ask_each(cli, questions, order)
    plain, plain_wall = ask_each(cli, questions, order)

    records = []
    traced_wall = 0.0
    with Tracer(layers.span_targets()) as tracer:
        for index in order:
            t0 = time.perf_counter()
            answer = ask(cli, questions[index].argv)
            elapsed = time.perf_counter() - t0
            traced_wall += elapsed
            records.append((index, elapsed, answer))
            tracer.flush()
    all_records = warm + plain + records
    verdicts, causes = judge(cli, checker, all_records)

    # oracle time over production time, on questions an in-repo oracle checks
    first: dict[int, float] = {}
    for index, lat, _ in plain:
        first.setdefault(index, lat)
    timed = [i for i in first if i in checker.oracle_s]
    oracle_ratio = (
        sum(checker.oracle_s[i] for i in timed) / sum(first[i] for i in timed)
        if timed
        else None
    )

    values: dict[str, float | None] = {}
    for metric, _, _ in layers.PER_LAYER:
        target, _, field = metric.rpartition(".")
        if metric in tracer.counters:
            values[metric] = tracer.counters[metric]
        elif field in ("calls", "self_s") and target in tracer.totals:
            values[metric] = getattr(tracer.totals[target], field)
    make_context = tracer.totals.get("linkage.make_context")
    values["linkage.dp_instances_per_question"] = (
        make_context.calls / count if make_context else None
    )
    values["trace.overhead_fraction"] = traced_wall / plain_wall - 1
    values["oracle_ratio"] = oracle_ratio

    accounted = sum(t.self_s for t in tracer.totals.values())
    report(f"traced {count} questions: {traced_wall:.3f} s traced, {plain_wall:.3f} s untraced")
    report(f"self time accounted: {accounted / traced_wall:.4f} of traced question wall time")
    for target, t in sorted(tracer.totals.items(), key=lambda kv: -kv[1].self_s):
        report(f"share {target}: {t.self_s / traced_wall:.4f} ({t.calls} calls)")
    units = {metric: unit for metric, unit, _ in layers.PER_LAYER}
    metrics = {k: v for k, v in values.items() if v is not None}
    missing = sorted(set(tracer.missing) | (set(units) - set(metrics)))
    if missing:
        report("missing: " + ", ".join(missing))
    return metrics, all_records, verdicts, causes, units


def _causes(causes: Counter) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(causes.items())) or "none"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = program.load(SRC)
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    def report(line: str) -> None:
        print(f"[{args.workload} seed={args.seed} trace={args.trace}] {line}")

    questions = workloads.build_questions(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        workloads.write_pool(questions, Path(tmp))
        checker = Checker(questions)
        if args.trace:
            result = traced(cli, args.workload, questions, checker, report)
        else:
            result = end_to_end(cli, questions, checker, args.seconds, Path(tmp), report)
    metrics, records, verdicts, causes, units = result
    failed = sum(v is not None for v in verdicts)
    correct = not any(c in WRONG_OUTPUT for c in causes)
    for metric, value in metrics.items():
        report(f"{metric} = {value:.6g} {units[metric]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": failed,
                "metrics": {
                    metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
