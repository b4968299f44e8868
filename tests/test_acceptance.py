"""Acceptance gate: one test per criterion, each with its time budget.

Every test prints one PASS line (visible with -s or in failure output);
under -v the per-test PASSED/FAILED line serves the same purpose.
"""

from __future__ import annotations

import json
import random
import time
from itertools import product
from pathlib import Path

from cmreg import (
    NEG_INF,
    Polynomial,
    Ring,
    a_def,
    compute_report,
    corners,
    curve_report,
    evaluate_zero,
    is_c_finite,
    krull_dim,
    max_degree,
    r_def,
)
from cmreg.cli import main
from cmreg.groebner import buchberger, initial_ideal, is_groebner_basis
from cmreg.staircase import is_artinian
from conftest import (
    corners_reference,
    monomial_curve,
    monomial_gens,
    random_monomial_ideal,
    random_strongly_stable_ideal,
    twisted_cubic,
)

GOLDEN = Path(__file__).parent / "golden"


def expected_curve_initial(alpha: int, beta: int) -> frozenset:
    exps = {(1, 1, 0, 0), (0, alpha, 0, 0)}
    for j in range(alpha - beta):
        exps.add((beta + 1 + j, 0, alpha - beta - 1 - j, 0))
    return frozenset(exps)


def test_criterion_1_monomial_curve_family():
    for alpha, beta in [(3, 2), (4, 3), (5, 2), (7, 3)]:
        start = time.monotonic()
        gens = monomial_curve(alpha, beta)
        basis = buchberger(gens)
        assert initial_ideal(basis).gens == expected_curve_initial(alpha, beta)
        report = compute_report(gens)
        cr = curve_report(gens)
        assert report.r == alpha - 1
        assert report.reg == alpha - 1
        if alpha - beta >= 2:
            assert report.c[1] == alpha - 1
            assert cr.H_Re == alpha - 1
            expected_f1 = tuple(
                sorted(
                    (beta + j, 0, alpha - beta - 1 - j)
                    for j in range(1, alpha - beta)
                )
            )
        else:
            assert report.c[1] == NEG_INF
            assert cr.H_Re == 0
            expected_f1 = ()
        assert report.corners[1] == expected_f1
        assert report.corners[2] == ((0, alpha - 1), (alpha - 1, 0))
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"({alpha},{beta}) took {elapsed:.2f}s"
    print("CRITERION 1: PASS (4 curve-family instances, exact values)")


def test_criterion_2_twisted_cubic():
    start = time.monotonic()
    gens = twisted_cubic()
    assert initial_ideal(buchberger(gens)).gens == frozenset(
        {(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)}
    )
    report = compute_report(gens)
    cr = curve_report(gens)
    assert cr.noether_ok
    assert report.c[0] == NEG_INF and report.c[1] == NEG_INF
    assert report.r == 1 and report.reg == 1
    assert cr.H_E == 2
    assert report.reg == cr.H_E - 1
    assert time.monotonic() - start < 1.0
    print("CRITERION 2: PASS (twisted cubic exact report)")


def test_criterion_3_monomial_complete_intersections():
    start = time.monotonic()
    cases = 0
    for k in range(1, 5):
        for powers in product((1, 2, 3, 4), repeat=k):
            for n in range(k, 6):
                ring = Ring.make(n, 32003)
                gens = [
                    Polynomial.monomial(
                        ring, tuple(a if idx == j else 0 for idx in range(n))
                    )
                    for j, a in enumerate(powers)
                ]
                report = compute_report(gens)
                assert report.reg == sum(a - 1 for a in powers), (powers, n)
                cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"
    print(f"CRITERION 3: PASS ({cases} complete intersections, {elapsed:.2f}s)")


def test_criterion_4_strongly_stable_ideals():
    start = time.monotonic()
    for seed in range(100):
        n = 2 + seed % 3
        dmax = 1 + seed % 6
        J = random_strongly_stable_ideal(seed, n, dmax)
        report = compute_report(monomial_gens(J))
        expected = max(sum(g) for g in J.gens) - 1
        assert report.reg == expected, (seed, sorted(J.gens))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.2f}s"
    print(f"CRITERION 4: PASS (100 strongly stable ideals, {elapsed:.2f}s)")


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    level_checks = r_checks = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        J = random_monomial_ideal(rng, n, 6, 8)
        for i in range(J.s):
            level = evaluate_zero(J, i)
            nxt = evaluate_zero(J, i + 1)
            if not is_c_finite(level, nxt):
                continue
            assert max_degree(corners(level)) == a_def(J, i), (seed, i)
            level_checks += 1
        top = evaluate_zero(J, krull_dim(J))
        if not top.is_unit and is_artinian(top):
            assert max_degree(corners(top)) == r_def(top), seed
            r_checks += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.2f}s"
    assert level_checks > 300 and r_checks > 10
    print(
        f"CRITERION 5: PASS ({level_checks} level checks, "
        f"{r_checks} top-degree checks, {elapsed:.2f}s)"
    )


def test_criterion_6_corner_construction_equivalence():
    checked = 0
    for seed in range(100):
        rng = random.Random(seed)
        J = random_monomial_ideal(rng, 1 + seed % 4, 5, 8)
        assert corners(J) == corners_reference(J), seed
        checked += 1
    assert checked == 100
    print("CRITERION 6: PASS (100 corner-set equivalences)")


def test_criterion_7_lcm_degree_bound_everywhere():
    # compute_report revalidates reg_t <= bound on construction, so any
    # violation anywhere in the suite already fails; this re-asserts it
    # across a fresh mix of instances
    reports = [compute_report(twisted_cubic())]
    for alpha, beta in [(3, 2), (4, 3), (5, 2), (7, 3)]:
        reports.append(compute_report(monomial_curve(alpha, beta)))
    for seed in range(40):
        J = random_strongly_stable_ideal(seed, 2 + seed % 3, 1 + seed % 5)
        reports.append(compute_report(monomial_gens(J)))
    for powers in [(2, 3), (2, 2, 2), (4, 4, 4, 4)]:
        ring = Ring.make(4, 32003)
        gens = [
            Polynomial.monomial(ring, tuple(a if i == j else 0 for i in range(4)))
            for j, a in enumerate(powers)
        ]
        reports.append(compute_report(gens))
    for report in reports:
        for t in range(report.d + 1):
            assert report.reg_t[t] <= report.bound[t]
    print(f"CRITERION 7: PASS (bound holds on {len(reports)} reports)")


def test_criterion_8_groebner_correctness():
    rng = random.Random(123)
    fixtures = [twisted_cubic(), monomial_curve(5, 2), monomial_curve(7, 3)]
    for gens in fixtures:
        assert is_groebner_basis(buchberger(gens))
    gens = monomial_curve(5, 2)
    expected = set(buchberger(gens))
    for _ in range(20):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert set(buchberger(shuffled)) == expected
    print("CRITERION 8: PASS (S-polynomial checks and 20 permutations)")


def test_criterion_9_retry_transcript(tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text("ring 32003 x1 x2\nx1*x2\n")
    assert main(["compute", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "retry_compute.json").read_text()
    data = json.loads(out)
    assert len(data["retries"]) == 1
    assert data["retries"][0]["level"] == 0
    assert data["reg"] == 1
    print("CRITERION 9: PASS (deterministic retry transcript matches golden)")
