"""One-line digest of every answer the `matchwidth` CLI gives on a benchmark
pool, for checking that a change leaves the answers byte-identical.

    python3 tools/answer_digest.py --src <checkout>/src --workload W --seed N [N ...]

For each seed, in order, it builds the workload's seeded pool with
`bench/workloads.py`, asks `matchwidth.cli.main(argv)` from the package
under `--src` each question in-process, and prints one line: the
exit-code counts and a sha256 over each question's exit code, stdout and
stderr.  The pool directory is a fresh
temporary directory, so its path is replaced by a fixed token before
hashing.  Run it on two checkouts and compare the lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
POOL_TOKEN = "<pool>"


def ask(cli, argv: list[str]) -> tuple[str, str, str]:
    """Exit code, stdout and stderr of one CLI call; a raising call reports
    the exception class in place of an exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception as exc:
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def digest(cli, workload: str, seed: int) -> str:
    import workloads

    questions = workloads.build_questions(workload, seed)
    codes: Counter[str] = Counter()
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        workloads.write_pool(questions, Path(tmp))
        for q in questions:
            answer = ask(cli, q.argv)
            codes[answer[0]] += 1
            for part in answer:
                sha.update(part.replace(tmp, POOL_TOKEN).encode())
                sha.update(b"\0")
    counts = ", ".join(f"exit {code}: {n}" for code, n in sorted(codes.items()))
    return f"{workload} seed {seed}: {len(questions)} questions, {counts}, sha256 {sha.hexdigest()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="the checkout's src directory")
    parser.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    parser.add_argument("--seed", type=int, nargs="+", required=True, help="one line per seed")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    import program

    cli = program.load(args.src)
    for seed in args.seed:
        print(digest(cli, args.workload, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
