import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_answer_digest_repeats_on_the_minor_pool():
    # two runs over the same pool, each in a fresh interpreter and its own
    # temporary pool directory, print the same line
    argv = [
        sys.executable,
        str(ROOT / "tools" / "answer_digest.py"),
        "--src", str(ROOT / "src"),
        "--workload", "minor",
        "--seed", "1",
    ]
    lines = [subprocess.run(argv, capture_output=True, text=True, check=True).stdout for _ in range(2)]
    assert lines[0] == lines[1]
    assert lines[0].startswith("minor seed 1: 1120 questions, exit 0: ")
    assert len(lines[0].split("sha256 ")[1].strip()) == 64
