"""Tracing for the cmreg benchmark, from outside the program.

The tracer replaces module attributes that cmreg's own code looks up at
call time (``cmreg.regularity.buchberger``, ``cmreg.groebner.reduce`` and
so on) with timing wrappers, and puts the originals back afterwards.  Each
call records a span (id, name, start, end, parent span id, ideal id) and
may bump counters at the same boundary.  Spans stay in memory until the
run writes them out.

Targets are keyed by module-qualified name.  A target that no longer
exists is skipped and listed in ``absent``; metrics fed only by absent
targets are reported as absent instead of crashing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

CountHook = Callable[["Tracer", tuple, Any], None]


def _count_terms(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["ring.input_terms"] += len(result.terms)


def _basis_stats(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["groebner.buchberger_calls"] += 1
    tracer.raise_max("groebner.basis_size_max", len(result))
    tracer.raise_max("groebner.max_degree", max(g.degree() for g in result))


def _mark_spoly(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["groebner.spairs_reduced"] += 1
    tracer.last_spoly = result


def _count_reduce(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["groebner.reduce_calls"] += 1
    if args and args[0] is tracer.last_spoly:
        tracer.last_spoly = None
        if result.is_zero:
            tracer.counts["groebner.zero_reductions"] += 1


def _count_initial(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["monideal.initial_gens"] += len(result.gens)


def _count_certificate(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["staircase.certificate_checks"] += 1
    if not result:
        tracer.counts["staircase.certificate_failures"] += 1


def _count_corners(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["staircase.corner_count"] += len(getattr(result, "elements", result))


def _count_retries(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["regularity.retries"] += len(result.retries)


def _count_levels(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["oracle.levels_checked"] += 1


# (module, attribute, span name, count hook).  Both import sites of a
# function are patched where cmreg imports it into two modules.
TARGETS: tuple[tuple[str, str, str, CountHook | None], ...] = (
    ("cmreg", "parse_polynomial", "ring.parse", _count_terms),
    ("cmreg.regularity", "buchberger", "groebner.buchberger", _basis_stats),
    ("cmreg.oracle", "buchberger", "groebner.buchberger", _basis_stats),
    ("cmreg.groebner", "s_polynomial", "groebner.s_polynomial", _mark_spoly),
    ("cmreg.groebner", "reduce", "groebner.reduce", _count_reduce),
    ("cmreg.regularity", "initial_ideal", "groebner.initial_ideal", _count_initial),
    ("cmreg.oracle", "initial_ideal", "groebner.initial_ideal", _count_initial),
    ("cmreg.regularity", "random_linear_change", "groebner.linear_change", None),
    ("cmreg.oracle", "random_linear_change", "groebner.linear_change", None),
    ("cmreg.regularity", "krull_dim", "monideal.krull_dim", None),
    ("cmreg.regularity", "evaluate_zero", "monideal.evaluate_zero", None),
    ("cmreg.regularity", "is_c_finite", "staircase.certificate", _count_certificate),
    ("cmreg.regularity", "is_artinian", "staircase.certificate", _count_certificate),
    ("cmreg.regularity", "corners", "staircase.corners", _count_corners),
    ("cmreg", "compute_report", "regularity.compute_report", _count_retries),
    ("cmreg.oracle", "compute_report", "regularity.compute_report", _count_retries),
    ("cmreg", "cross_check", "oracle.cross_check", None),
    ("cmreg.oracle", "a_def_with_trace", "oracle.a_def", _count_levels),
    ("cmreg.oracle", "r_def", "oracle.r_def", None),
)

# Per-layer metric -> (unit, better, span names whose wrappers feed it).  Time metrics are sums of span durations ("_s") or of
# self times ("self_s": duration minus the time covered by child spans).
LAYER_METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "ring.parse_s": ("s", "lower", ("ring.parse",)),
    "ring.input_terms": ("count", "lower", ("ring.parse",)),
    "groebner.buchberger_s": ("s", "lower", ("groebner.buchberger",)),
    "groebner.buchberger_calls": ("count", "lower", ("groebner.buchberger",)),
    "groebner.buchberger_self_s": ("s", "lower", ("groebner.buchberger",)),
    "groebner.reduce_s": ("s", "lower", ("groebner.reduce",)),
    "groebner.reduce_calls": ("count", "lower", ("groebner.reduce",)),
    "groebner.spairs_reduced": ("count", "lower", ("groebner.s_polynomial",)),
    "groebner.zero_reductions": ("count", "lower", ("groebner.s_polynomial", "groebner.reduce")),
    "groebner.useful_reduction_ratio": ("ratio", "higher", ("groebner.s_polynomial", "groebner.reduce")),
    "groebner.basis_size_max": ("count", "lower", ("groebner.buchberger",)),
    "groebner.max_degree": ("count", "lower", ("groebner.buchberger",)),
    "groebner.initial_ideal_s": ("s", "lower", ("groebner.initial_ideal",)),
    "groebner.linear_change_s": ("s", "lower", ("groebner.linear_change",)),
    "monideal.initial_gens": ("count", "lower", ("groebner.initial_ideal",)),
    "monideal.krull_dim_s": ("s", "lower", ("monideal.krull_dim",)),
    "monideal.evaluate_zero_s": ("s", "lower", ("monideal.evaluate_zero",)),
    "staircase.certificate_s": ("s", "lower", ("staircase.certificate",)),
    "staircase.certificate_checks": ("count", "lower", ("staircase.certificate",)),
    "staircase.certificate_failures": ("count", "lower", ("staircase.certificate",)),
    "staircase.corners_s": ("s", "lower", ("staircase.corners",)),
    "staircase.corner_count": ("count", "lower", ("staircase.corners",)),
    "regularity.compute_report_s": ("s", "lower", ("regularity.compute_report",)),
    "regularity.self_s": ("s", "lower", ("regularity.compute_report",)),
    "regularity.retries": ("count", "lower", ("regularity.compute_report",)),
    "oracle.cross_check_s": ("s", "lower", ("oracle.cross_check",)),
    "oracle.replay_buchberger_s": ("s", "lower", ("oracle.cross_check", "groebner.buchberger")),
    "oracle.a_def_s": ("s", "lower", ("oracle.a_def",)),
    "oracle.r_def_s": ("s", "lower", ("oracle.r_def",)),
    "oracle.levels_checked": ("count", "lower", ("oracle.a_def",)),
}

# Counts that must repeat exactly for the same seed.
EXACT_COUNTS = (
    "groebner.buchberger_calls",
    "groebner.spairs_reduced",
    "groebner.zero_reductions",
    "groebner.reduce_calls",
    "regularity.retries",
    "staircase.certificate_failures",
    "staircase.corner_count",
    "monideal.initial_gens",
)

# A span named X adds its duration to metric "X_s"; these spans also add
# their self time to the metric named here.
_SELF = {
    "groebner.buchberger": "groebner.buchberger_self_s",
    "regularity.compute_report": "regularity.self_s",
}
_MAXIMA = ("groebner.basis_size_max", "groebner.max_degree")


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self) -> None:
        # (span id, name, start, end, parent span id or -1, ideal id)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.ideal = -1
        self.last_spoly: Any = None
        self.present: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0

    def raise_max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value)

    def _wrap(self, name: str, fn: Callable, hook: CountHook | None) -> Callable:
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.ideal))
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every target that exists; restore all of them on exit."""
        saved = []
        self.absent = []
        try:
            for module_name, attr, span, hook in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original, hook))
                self.present.add(span)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, passes: int) -> dict[str, float | None]:
        """Per-layer metrics per traced pass; None marks a metric whose
        spans were never installed.  Counters are totals over all passes
        divided by the pass count (each pass does identical work), maxima
        are taken over all passes."""
        by_id = {s[0]: s for s in self.spans}
        child_time: Counter[int] = Counter()
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        sums: Counter[str] = Counter()
        for sid, name, start, end, parent, _ in self.spans:
            dur = end - start
            sums[name + "_s"] += dur
            if name in _SELF:
                sums[_SELF[name]] += dur - child_time[sid]
            if name == "groebner.buchberger" and parent >= 0:
                if by_id[parent][1] == "oracle.cross_check":
                    sums["oracle.replay_buchberger_s"] += dur
        spairs = self.counts["groebner.spairs_reduced"]
        zero = self.counts["groebner.zero_reductions"]
        out: dict[str, float | None] = {}
        for metric, (_, _, sources) in LAYER_METRICS.items():
            if not all(src in self.present for src in sources):
                out[metric] = None
            elif metric == "groebner.useful_reduction_ratio":
                out[metric] = (spairs - zero) / spairs if spairs else 0.0
            elif metric in _MAXIMA:
                out[metric] = self.counts[metric]
            elif metric.endswith("_s"):
                out[metric] = sums[metric] / passes
            else:
                out[metric] = self.counts[metric] / passes
        return out
