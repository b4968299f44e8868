"""Checks of the benchmark itself: run with ``python3 -m pytest bench``.

Not part of the library's test suite (pytest's testpaths is ``tests``).
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", "1"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_work_counts_repeat_exactly(workload):
    first, second = traced_run(workload, 5), traced_run(workload, 5)
    assert first["correct"] and second["correct"]
    for name in tracing.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["groebner.buchberger_calls"]["value"] > 0


def test_inputs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.cycle(workload, 3, 1) == workloads.cycle(workload, 3, 1)
    assert workloads.cycle("generic", 3, 0) != workloads.cycle("generic", 4, 0)


def test_missing_target_is_reported_absent(monkeypatch):
    cmreg = run.load_cmreg()
    kept = [t for t in tracing.TARGETS if t[2] != "oracle.r_def"]
    monkeypatch.setattr(
        tracing, "TARGETS",
        (*kept, ("cmreg.oracle", "r_def_renamed", "oracle.r_def", None)),
    )
    tracer = tracing.Tracer()
    tally = run.Tally()
    case = workloads.curve_case(5, 2, None, "cross_check")
    with tracer.installed():
        tally.run(cmreg, case, run.parse_case(cmreg, case))
    assert tally.failed == 0
    assert tracer.absent == ["cmreg.oracle.r_def_renamed"]
    metrics = tracer.layer_metrics(1)
    assert metrics["oracle.r_def_s"] is None
    assert metrics["oracle.a_def_s"] > 0
    assert cmreg.oracle.a_def_with_trace.__name__ == "a_def_with_trace"  # restored


def test_wrong_answers_and_errors_count_as_failures():
    cmreg = run.load_cmreg()
    tally = run.Tally()
    good = workloads.monomial_ci_case(3, (2, 3))
    wrong = dataclasses.replace(good, reg=good.reg + 1)
    unit = dataclasses.replace(good, gens=("1",))
    for case in (good, wrong, unit):
        tally.run(cmreg, case, run.parse_case(cmreg, case))
    assert len(tally.latencies) == 3
    assert tally.failed == 2


def test_closed_forms_match_the_library():
    cmreg = run.load_cmreg()
    rng = random.Random(0)
    cases = [
        workloads.curve_case(4, 1, rng, "compute_report"),
        workloads.dense_ci_case(4, (2, 2), rng),
        workloads.strongly_stable_case(3, 8, (3, 5), rng),
        workloads.random_monomial_case(3, (2, 3), rng),
    ]
    tally = run.Tally()
    for case in cases:
        tally.run(cmreg, case, run.parse_case(cmreg, case))
    assert tally.failed == 0
