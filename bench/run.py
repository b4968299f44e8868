"""cmreg benchmark: one closed-loop caller, whole cycles of seeded ideals.

Usage (from the repository root):

    python3 bench/run.py --workload generic --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures end-to-end metrics with nothing
patched.  With ``--trace 1`` it alternates an untraced and a traced pass
over the workload's first cycle and reports per-layer metrics (see
bench/README.md).  Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 0
only when every answer was right.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 5  # set-up samples per run, at least
# Reported times are wall times rescaled to a reference speed.  Before each
# cycle the run times a fixed pure-Python calibration loop twice; every time
# measured in that cycle is multiplied by CALIBRATION_S / (median of the
# two).  Load from other tenants of a shared host drifts by a quarter or
# more within minutes and slows the loop and cmreg alike, so the rescaled
# times stay comparable between runs where raw ones do not.  Raw wall-clock
# values are printed above the JSON line.
CALIBRATION_ROUNDS = 20_000
CALIBRATION_S = 0.030  # the loop's time at the reference speed
CALIBRATION_SAMPLES = 2  # per cycle
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
END_TO_END_UNITS = {
    "ideals_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_cmreg():
    """Import cmreg from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cmreg" / "__init__.py").is_file():
        raise SystemExit(f"cmreg sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "cmreg" or m.startswith("cmreg.")]:
        del sys.modules[name]
    module = importlib.import_module("cmreg")
    if Path(module.__file__).resolve().parent != (src / "cmreg").resolve():
        raise SystemExit(f"imported cmreg from {module.__file__}, not from {src}")
    return module


def parse_case(cmreg, case: workloads.Case) -> list:
    ring = cmreg.Ring(case.names, case.p)
    return [cmreg.parse_polynomial(text, ring) for text in case.gens]


def timed_setup(cases: list[workloads.Case]):
    """One fresh import of cmreg plus parsing the given generator text;
    returns the time taken and the imported module."""
    start = time.perf_counter()
    cmreg = load_cmreg()
    for case in cases:
        parse_case(cmreg, case)
    return time.perf_counter() - start, cmreg


def calibration_sample() -> float:
    """Time one fixed loop of the operations cmreg's hot paths are made of:
    tuple building, dict lookups and updates, modular arithmetic."""
    start = time.perf_counter()
    table: dict[tuple[int, ...], int] = {}
    for i in range(CALIBRATION_ROUNDS):
        key = tuple(a + b for a, b in zip((i % 7, i % 11, i % 13, i % 17), (1, 2, 3, 4)))
        table[key] = (table.get(key, 0) + i * 31) % 32003
    return time.perf_counter() - start


def solve(cmreg, case: workloads.Case, gens: list) -> bool:
    """Run the case's entry point and compare with the independent answer."""
    if case.call == "compute_report":
        ok, report = True, cmreg.compute_report(gens)
    else:
        record = cmreg.cross_check(gens)
        ok, report = record.ok, record.report
    return (
        ok
        and (case.reg is None or report.reg == case.reg)
        and (case.d is None or report.d == case.d)
    )


class Tally:
    """Latencies and failures of the ideals attempted so far."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.errors_shown = 0

    def run(self, cmreg, case: workloads.Case, gens: list) -> None:
        start = time.perf_counter()
        try:
            ok = solve(cmreg, case, gens)
        except Exception:  # a raising ideal is a failed ideal, never dropped
            ok = False
            if self.errors_shown < 3:
                self.errors_shown += 1
                print(f"{case.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
        self.latencies.append(time.perf_counter() - start)
        if not ok:
            self.failed += 1
            print(f"wrong answer on {case.kind}: {case.gens}", file=sys.stderr)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def speed_scale() -> float:
    """Factor that turns wall time measured now into reference time."""
    samples = [calibration_sample() for _ in range(CALIBRATION_SAMPLES)]
    return CALIBRATION_S / statistics.median(samples)


def run_untraced(args, first: list[workloads.Case]) -> tuple[Tally, dict]:
    """Whole cycles until the calls have taken --seconds and there are
    enough samples for the tail percentile.

    Set-up (fresh import plus parsing the first cycle) and calibration run
    before every cycle, so that their samples spread over the run like the
    calls'.  Throughput is correct ideals over the summed call time.
    """
    tally = Tally()
    setups: list[float] = []  # rescaled
    scaled: list[float] = []  # rescaled call latencies
    scales: list[float] = []
    index = 0
    while (
        index == 0
        or tally.busy < args.seconds
        or len(tally.latencies) <= TAIL_BEYOND
        or len(setups) < MIN_SETUPS
    ):
        seconds, cmreg = timed_setup(first)
        scale = speed_scale()
        scales.append(scale)
        setups.append(seconds * scale)
        cases = first if index == 0 else workloads.cycle(args.workload, args.seed, index)
        mark = len(tally.latencies)
        for case in cases:
            tally.run(cmreg, case, parse_case(cmreg, case))
        scaled += [t * scale for t in tally.latencies[mark:]]
        index += 1
    count = len(scaled)
    tail_rank = count - TAIL_BEYOND - 1
    correct = count - tally.failed
    metrics = {
        "ideals_per_s": correct / sum(scaled),
        "latency_p50_ms": 1000.0 * statistics.median(scaled),
        "latency_tail_ms": 1000.0 * sorted(scaled)[tail_rank],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = sorted(tally.latencies)
    info = {
        "cycles": index,
        "samples": count,
        "tail_percentile": 100.0 * (tail_rank + 1) / count,
        "median_speed_scale": statistics.median(scales),
        "wall_clock": {
            "ideals_per_s": round(correct / tally.busy, 6),
            "latency_p50_ms": round(1000.0 * statistics.median(wall), 6),
            "latency_tail_ms": round(1000.0 * wall[tail_rank], 6),
        },
    }
    return tally, {"metrics": metrics, "info": info}


def run_traced(args, cmreg, batch: list[workloads.Case]) -> tuple[Tally, dict]:
    """Alternate an untraced and a traced pass over one fixed batch until
    --seconds have passed.  Every traced pass must repeat the first one's
    exact work counts."""
    tally = Tally()
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    passes = 0
    first_counts = None
    scales: list[float] = []
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        scales.append(speed_scale())
        mark = time.perf_counter()
        for case in batch:
            tally.run(cmreg, case, parse_case(cmreg, case))
        untraced += time.perf_counter() - mark
        before = {k: tracer.counts[k] for k in tracing.EXACT_COUNTS}
        mark = time.perf_counter()
        with tracer.installed():
            for ideal, case in enumerate(batch):
                tracer.ideal = ideal
                tally.run(cmreg, case, parse_case(cmreg, case))
        traced += time.perf_counter() - mark
        counts = {k: tracer.counts[k] - before[k] for k in tracing.EXACT_COUNTS}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            raise RuntimeError(f"work counts changed between passes: {first_counts} vs {counts}")
        passes += 1
    scale = statistics.median(scales)
    layers = {
        name: value * scale if value is not None and name.endswith("_s") else value
        for name, value in tracer.layer_metrics(passes).items()
    }
    layers["trace.overhead_s"] = (traced - untraced) / passes * scale
    layers["trace.overhead_share"] = traced / untraced - 1.0
    write_spans(args, tracer, passes)
    info = {
        "passes": passes,
        "batch": len(batch),
        "absent": tracer.absent,
        "median_speed_scale": scale,
    }
    return tally, {"metrics": layers, "info": info}


def write_spans(args, tracer: tracing.Tracer, passes: int) -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans_{args.workload}_seed{args.seed}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "fields": ["id", "name", "start", "end", "parent", "ideal"],
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "absent": tracer.absent,
    }
    path.write_text(json.dumps(payload))


def layer_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    first = workloads.cycle(args.workload, args.seed, 0)
    if args.trace:
        tally, result = run_traced(args, load_cmreg(), first)
        units = layer_units()
    else:
        tally, result = run_untraced(args, first)
        units = END_TO_END_UNITS

    attempted = len(tally.latencies)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in result["info"].items():
        print(f"  {key}: {value}")
    # failed_share is printed but kept out of the JSON metrics: it is 0 on a
    # correct run, and the JSON carries attempted and failed instead.
    print(f"  failed_share: {tally.failed / attempted:.6g} ratio")
    metrics = {}
    for name, value in result["metrics"].items():
        shown = "absent" if value is None else f"{value:.6g} {units[name]}"
        print(f"  {name}: {shown}")
        metrics[name] = {"value": 0 if value is None else value, "unit": units[name]}
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
