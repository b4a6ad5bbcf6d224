"""Speed probe: how fast the machine runs the program's kind of work now.

The machine is shared and its speed drifts within a run.  The benchmark
times `probe()`, a fixed piece of work of its own, between questions and
scales each question's wall time to the speed at which the probe takes
`NOMINAL_S`.  The probe does what the package does most, on a working set
of a few MB: it fills a dict keyed by small frozensets and looks half of
them up again, so slowdowns from sharing the processor and its caches
reach both alike.  It is the benchmark's own code, so no change to the
program moves it.
"""

from __future__ import annotations

import statistics
import time

# The probe's time on the 2-vCPU VM the benchmark was tuned on, when that
# VM was quiet, so that there and then scaled and wall-clock times agree.
NOMINAL_S = 0.0024
# Probe again once this much question time has passed since the last probe.
EVERY_S = 0.05
# Probes on either side of a question's last probe whose median sets its scale.
WINDOW = 7

_N = 4000


def probe() -> int:
    table = {}
    for i in range(_N):
        table[frozenset((i, i * 7919 % 20011 + _N))] = i
    total = 0
    for i in range(0, _N, 2):
        total += table[frozenset((i, i * 7919 % 20011 + _N))]
    return total


def probe_seconds() -> float:
    """Wall time of one probe."""
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def factors(times: list[float]) -> list[float]:
    """Per probe time, NOMINAL_S over the median of the WINDOW probe times
    on either side of it: the factor that scales a time measured there to
    the nominal speed."""
    return [
        NOMINAL_S / statistics.median(times[max(0, i - WINDOW) : i + WINDOW + 1])
        for i in range(len(times))
    ]
