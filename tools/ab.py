"""Alternating before/after runs of the benchmark, written as one BENCH file.

    python3 tools/ab.py --parent REV --workload W [W ...] --pairs N --seconds S \\
        --seed N|A-B --out BENCH_<name>.json [--claim W:METRIC] [--what TEXT]

Run it from anywhere inside a checkout.  The change side is that
checkout's working tree, as it stands; the parent side is REV's committed
files, written by `git archive` into a temporary directory that is
removed afterwards.  For each workload it runs `bench/run.py --trace 0` of
each side from that side's root in N pairs, one process at a time, with
the side that runs first alternating from pair to pair (the parent first
in pair 1).  Both runs of a pair answer the pool of one seed, so the two
sides answer the same questions: `--seed N` gives every pair seed N, and
`--seed A-B` gives pair i seed A + i - 1, one seed per pair, so it must
name N seeds.

For each end-to-end metric of `BENCHMARK.json` it writes each side's
median and quartiles over the pairs, the pairs in which the change was
better, the change of the median in percent, and whether the change's
median is worse than the parent's by more than the metric's bound (taken
relative to the parent's median).  Next to them it writes both sides'
`tools/answer_digest.py` lines, one for each seed, and `tools/pm_stages.py`
table for the first seed, both run with this checkout's tools.  `--claim`
names a metric whose gain the BENCH file claims: it is met when the change
is better in at least nine of every ten pairs and its median is better
than the parent's by more than the parent's interquartile range.

It changes nothing under `bench/`.  The exit status is 1 when a run
reports a wrong answer, a bound is crossed, the digests differ or the
claim is not met, and 0 otherwise; the BENCH file is written either way.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def last_json(cmd: list[str], cwd: Path) -> dict:
    """The JSON object on the last line of stdout of cmd, run in cwd."""
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    return last_json(cmd + ["--seconds", str(seconds), "--trace", "0"], root)


def digest_lines(src: Path, workload: str, seeds: list[int]) -> list[str]:
    cmd = [sys.executable, str(TOOLS / "answer_digest.py"), "--src", str(src)]
    cmd += ["--workload", workload, "--seed", *map(str, seeds)]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return done.stdout.strip().splitlines()


def stage_table(src: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(TOOLS / "pm_stages.py"), "--src", str(src)]
    return last_json(cmd + ["--workload", workload, "--seed", str(seed)], ROOT)


def export(rev: str, root: Path) -> None:
    """Write the files that REV commits into root."""
    done = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(root)


def seed_range(text: str) -> list[int]:
    """The seeds of `--seed`: N, or A-B for A, A + 1, ..., B."""
    first, dash, last = text.partition("-")
    try:
        seeds = [int(text)] if not dash else list(range(int(first), int(last) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not N or A-B: {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"an empty range of seeds: {text!r}")
    return seeds


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3 of values (inclusive method)."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        p, c = quartiles(parent), quartiles(change)
        sign = 1 if higher else -1
        won = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
        worse = -sign * (c[1] - p[1]) / p[1] if p[1] else 0.0
        out[name] = {
            "parent_q1_median_q3": p,
            "change_q1_median_q3": c,
            "change_better_in": won,
            "median_change_pct": round(100 * (c[1] - p[1]) / p[1], 1) if p[1] else None,
            "bound": spec["bound"],
            "bound_crossed": worse > spec["bound"],
        }
    return out


def claim_verdict(summary: dict, metric: str, spec: dict, pairs: int) -> dict:
    s = summary[metric]
    p, c = s["parent_q1_median_q3"], s["change_q1_median_q3"]
    gain = c[1] - p[1] if spec["better"] == "higher" else p[1] - c[1]
    iqr = p[2] - p[0]
    return {
        "metric": metric,
        "parent_median": p[1],
        "change_median": c[1],
        "change_better_in": s["change_better_in"],
        "pairs": pairs,
        "parent_iqr": round(iqr, 4),
        "met": 10 * s["change_better_in"] >= 9 * pairs and gain > iqr,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workload", nargs="+", required=True, help="workloads of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="--seconds of each run")
    parser.add_argument(
        "--seed", type=seed_range, required=True, help="the pools' seed N, or A-B, one per pair"
    )
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<name>.json to write")
    parser.add_argument("--claim", help="W:METRIC, a metric whose gain on W is claimed")
    parser.add_argument("--what", default="", help="one line on what the change does")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    specs = {spec["name"]: spec for spec in metrics}
    listed = {w["name"] for w in benchmark["workloads"]}
    unknown = [w for w in args.workload if w not in listed]
    claim = args.claim.split(":", 1) if args.claim else None
    if unknown:
        parser.error(f"not a workload of BENCHMARK.json: {', '.join(unknown)}")
    if claim and (len(claim) != 2 or claim[0] not in args.workload or claim[1] not in specs):
        parser.error("--claim takes W:METRIC, with W among --workload and METRIC end to end")
    seeds = args.seed
    if len(seeds) > 1 and len(seeds) != args.pairs:
        parser.error(f"--seed names {len(seeds)} seeds for {args.pairs} pairs")
    pair_seeds = seeds if len(seeds) > 1 else seeds * args.pairs
    seeds_shown = str(seeds[0]) if len(seeds) == 1 else f"{seeds[0]}-{seeds[-1]}"
    parent_rev = git("rev-parse", "--short", args.parent)
    change_rev = git("rev-parse", "--short", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))

    result = {
        "what": args.what,
        "parent": parent_rev,
        "change": change_rev + (" plus uncommitted changes" if dirty else ""),
        "command": f"python3 bench/run.py --workload W --seed {seeds_shown} "
        f"--seconds {args.seconds:g} --trace 0",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
        f"{platform.python_implementation()} {platform.python_version()}; end-to-end "
        "metrics are scaled to the benchmark's nominal speed",
        "order": f"{args.pairs} pairs per workload, one run at a time; the side that runs "
        "first alternates, the parent first in pair 1"
        + ("" if len(seeds) == 1 else f"; pair i answers seed {seeds[0]} + i - 1"),
        "workloads": {},
    }
    failures = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        parent_root = Path(tmp) / "parent"
        export(parent_rev, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for workload in args.workload:
            runs = []
            for i, seed in enumerate(pair_seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"pair": i + 1, "seed": seed, "first": order[0]}
                for side in order:
                    got = bench_run(roots[side], workload, seed, args.seconds)
                    if not got["correct"]:
                        failures.append(f"{workload} pair {i + 1}: {side} answered wrongly")
                    run[side] = {k: v["value"] for k, v in got["metrics"].items()}
                    run[side]["failed"] = got["failed"]
                runs.append(run)
                print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
            summary = summarise(runs, metrics)
            digests = {s: digest_lines(r / "src", workload, seeds) for s, r in roots.items()}
            stages = {s: stage_table(r / "src", workload, seeds[0]) for s, r in roots.items()}
            for name, s in summary.items():
                if s["bound_crossed"]:
                    failures.append(f"{workload}: {name} crossed its bound")
            if digests["parent"] != digests["change"]:
                failures.append(f"{workload}: the answer digests differ")
            result["workloads"][workload] = {
                "pairs": args.pairs,
                "seeds": seeds_shown,
                "summary": summary,
                "digests": digests,
                "stages": stages,
                "runs": runs,
            }
    if claim:
        verdict = claim_verdict(
            result["workloads"][claim[0]]["summary"], claim[1], specs[claim[1]], args.pairs
        )
        result["claim"] = {"workload": claim[0], **verdict}
        if not verdict["met"]:
            failures.append(f"claim on {claim[0]} {claim[1]} not met")
    result["failures"] = failures
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
