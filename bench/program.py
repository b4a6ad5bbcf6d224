"""Loads the program under test from a source tree.

Run as a script, it is one set-up sample: a fresh interpreter imports
`matchwidth.cli` and every module the CLI imports lazily, parses every
graph file of a workload, and prints the seconds that took, scaled to the
nominal machine speed by speed probes taken just before and after.

    python3 bench/program.py <src dir> <graph dir>
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

# Modules that `matchwidth.cli` imports inside its command functions.
LAZY_MODULES = ("counting", "decomp", "direction", "grids", "linkage", "minors", "porosity")


def load(src: Path):
    """Import the CLI and its lazily imported modules from `src`; returns the
    CLI module.  Raises ImportError if `src` does not hold the package."""
    if not (src / "matchwidth" / "cli.py").is_file():
        raise ImportError(f"no matchwidth package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("matchwidth.cli")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"matchwidth was imported from {cli.__file__}, not {src}")
    for name in LAZY_MODULES:
        try:
            importlib.import_module(f"matchwidth.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"matchwidth.{name}":
                raise
            print(f"note: matchwidth.{name} is gone; not imported", file=sys.stderr)
    return cli


def main(argv: list[str]) -> int:
    import speed

    # the fastest of three probes, as the first one or two in a fresh
    # interpreter run slower than later ones
    before = min(speed.probe_seconds() for _ in range(3))
    start = time.perf_counter()
    load(Path(argv[0]))
    from matchwidth.io import parse_graph_file

    for path in sorted(Path(argv[1]).glob("*.txt")):
        parse_graph_file(str(path))
    took = time.perf_counter() - start
    after = min(speed.probe_seconds() for _ in range(3))
    print(repr(took * speed.NOMINAL_S / ((before + after) / 2)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
