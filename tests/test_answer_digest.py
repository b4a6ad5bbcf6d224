import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_answer_digest_repeats_on_the_minor_pool():
    # two runs over the same pools, each in a fresh interpreter and its own
    # temporary pool directories, print the same lines: one per seed, in order
    argv = [
        sys.executable,
        str(ROOT / "tools" / "answer_digest.py"),
        "--src", str(ROOT / "src"),
        "--workload", "minor",
        "--seed", "1", "2",
    ]
    runs = [subprocess.run(argv, capture_output=True, text=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert len(lines) == 2
    for seed, line in zip((1, 2), lines):
        assert line.startswith(f"minor seed {seed}: 1120 questions, exit 0: ")
        assert len(line.split("sha256 ")[1]) == 64
