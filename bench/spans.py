"""Span tracer for the traced benchmark run.

`Tracer` wraps named `matchwidth` functions from the outside.  The package
binds functions by name across modules (`from .decomp import
dtw_exact_small` in `linkage`, for instance), so every `matchwidth.*`
module attribute that is the same function object is rebound, and all of
them are restored on exit.  A target that no longer exists is listed in
`missing` instead of failing the run.

Spans (name, start, end, parent) are kept in memory and folded into
per-name totals by `flush`, which the benchmark calls between questions,
outside the timed region.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "matchwidth"


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0


def self_times(spans: list[tuple[str, float, float, int]]) -> dict[str, Totals]:
    """Per-name call counts and self time.

    Spans must be in start order, each naming its parent's index (-1 for a
    root).  Calls are synchronous and in one thread, so child spans lie
    inside their parent and do not overlap; a span's self time is its
    duration minus the durations of its children.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, Totals] = {}
    for (name, start, end, _), cov in zip(spans, covered):
        t = out.setdefault(name, Totals())
        t.calls += 1
        t.self_s += (end - start) - cov
    return out


class Tracer:
    """Wraps each `module.function` target while active (a context manager).

    `counters` holds values read at call boundaries by the hooks below;
    `totals` holds calls and self time per target after `flush`.
    """

    def __init__(self, targets: list[str]):
        self.targets = list(targets)
        self.missing: list[str] = []
        self.totals: dict[str, Totals] = {t: Totals() for t in self.targets}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                fn = self._resolve(target)
                if fn is None:
                    self.missing.append(target)
                    self.totals.pop(target, None)
                    continue
                self._rebind(fn, self._wrap(target, fn))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    @staticmethod
    def _resolve(target: str):
        mod_name, _, fn_name = target.rpartition(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ModuleNotFoundError:
            return None
        fn = getattr(module, fn_name, None)
        return fn if inspect.isfunction(fn) else None

    def _rebind(self, fn, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    # -- spans --------------------------------------------------------------

    def _wrap(self, target: str, fn):
        hook = _HOOKS.get(target)
        prepare = hook(self, fn) if hook else None
        if inspect.isgeneratorfunction(fn):
            # a generator's body runs in its consumer's span; count calls only
            totals = self.totals[target]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                totals.calls += 1
                return fn(*args, **kwargs)

            return counted

        spans = self.spans
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = prepare(args, kwargs) if prepare else None
            parent = stack[-1][0] if stack else -1
            span = [len(spans), 0.0]
            stack.append(span)
            spans.append(None)  # placeholder keeps start order
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span[0]] = (target, span[1], end, parent)
            if after:
                after(result)
            return result

        return traced

    def flush(self) -> None:
        """Fold the recorded spans into `totals` and drop them."""
        for name, t in self_times(self.spans).items():
            acc = self.totals.setdefault(name, Totals())
            acc.calls += t.calls
            acc.self_s += t.self_s
        self.spans.clear()

    def bump(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)


# -- hooks: counts read at call boundaries ------------------------------------
#
# A hook receives the tracer and the original function, starts its
# counters at 0 and returns `prepare(args, kwargs) -> after(result) | None`;
# it returns None, starting no counter, when the program no longer offers
# what it reads, so its counts are reported missing.


def _cop_number(tracer: Tracer, fn):
    tracer.peak("decomp.cop_number_max", 0)

    def prepare(args, kwargs):
        return lambda result: tracer.peak("decomp.cop_number_max", result[0])

    return prepare


def _nice_width(tracer: Tracer, fn):
    tracer.peak("decomp.width_max", 0)
    tracer.bump("decomp.width_sum", 0)

    def after(result):
        width = getattr(result, "width", None)
        if isinstance(width, int):
            tracer.peak("decomp.width_max", width)
            tracer.bump("decomp.width_sum", width)

    return lambda args, kwargs: after


def _count_stats(tracer: Tracer, fn):
    """Pass a fresh `CountStats` when the caller passes none, and read its
    table entries and boundary sets after the call."""
    stats_type = getattr(sys.modules.get(f"{PACKAGE}.counting"), "CountStats", None)
    sig = inspect.signature(fn)
    if stats_type is None or "stats" not in sig.parameters:
        return None
    tracer.bump("counting.table_entries", 0)
    tracer.bump("counting.boundary_sets", 0)

    def prepare(args, kwargs):
        stats = sig.bind_partial(*args, **kwargs).arguments.get("stats")
        if stats is None:
            stats = kwargs["stats"] = stats_type()
        before = stats.table_entries, stats.boundary_sets

        def after(result):
            tracer.bump("counting.table_entries", stats.table_entries - before[0])
            tracer.bump("counting.boundary_sets", stats.boundary_sets - before[1])

        return after

    return prepare


_HOOKS = {
    "decomp.dtw_exact_small": _cop_number,
    "decomp.dtd_to_nice_pmd": _nice_width,
    "counting.count_pm_decomp": _count_stats,
}
