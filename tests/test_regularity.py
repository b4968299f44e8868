"""End-to-end regularity reports: fixtures, retries, bounds, curve mode."""

from __future__ import annotations

import dataclasses

import pytest

from cmreg import (
    NEG_INF,
    MonomialIdeal,
    Polynomial,
    RegularityReport,
    Ring,
    compute_report,
    corners,
    curve_report,
    evaluate_zero,
    max_degree,
    parse_polynomial,
    reg_bound,
    zerodivisor_flags,
)
from cmreg.groebner import (
    apply_linear_change,
    buchberger,
    initial_ideal,
    matrix_digest,
    sample_change_matrix,
)
from cmreg.regularity import derive_matrix_seed
from conftest import (
    monomial_curve,
    monomial_gens,
    random_strongly_stable_ideal,
    twisted_cubic,
)

CURVE_INITIAL = MonomialIdeal(
    4, frozenset({(1, 1, 0, 0), (0, 5, 0, 0), (3, 0, 2, 0), (4, 0, 1, 0), (5, 0, 0, 0)})
)


def test_twisted_cubic_report():
    report = compute_report(twisted_cubic())
    assert report.n == 4 and report.p == 32003
    assert report.d == 2
    assert report.c == (NEG_INF, NEG_INF, 1)
    assert report.r == 1
    assert report.reg == 1
    assert report.reg_t == (NEG_INF, NEG_INF, 1)
    assert report.bound == (0, 1, 2)
    assert report.attained_t == 2
    assert report.retries == ()
    assert report.corners == ((), (), ((0, 1), (1, 0)))


def test_curve_family_reports():
    # reg = alpha - 1; the next-to-last level value is alpha - 1 when
    # alpha - beta >= 2 and vanishes when alpha - beta = 1
    for alpha, beta in [(3, 2), (4, 3), (5, 2), (7, 3)]:
        report = compute_report(monomial_curve(alpha, beta))
        assert report.d == 2
        assert report.r == alpha - 1
        assert report.reg == alpha - 1
        assert report.c[0] == NEG_INF
        if alpha - beta >= 2:
            assert report.c[1] == alpha - 1
        else:
            assert report.c[1] == NEG_INF
        assert not report.retries


def test_curve_family_corner_sets():
    report = compute_report(monomial_curve(5, 2))
    assert report.corners[1] == ((3, 0, 1), (4, 0, 0))
    assert report.corners[2] == ((0, 4), (4, 0))
    assert report.bound == (8, 9, 9)
    assert report.attained_t == 1


def test_artinian_complete_intersection_report():
    ring = Ring.make(3, 32003)
    gens = [parse_polynomial(t, ring) for t in ["x1^2", "x2^3", "x3^4"]]
    report = compute_report(gens)
    assert report.d == 0
    assert report.c == (6,)
    assert report.r == 6 and report.reg == 6
    assert report.reg_t == (6,)
    assert report.attained_t == 0


def test_positive_dimensional_complete_intersection_report():
    ring = Ring.make(4, 32003)
    gens = [parse_polynomial(t, ring) for t in ["x1^2", "x2^3"]]
    report = compute_report(gens)
    assert report.d == 2
    assert report.c == (NEG_INF, NEG_INF, 3)
    assert report.reg == 3
    assert not report.retries


def test_hypersurface_report():
    ring = Ring.make(3, 32003)
    report = compute_report([parse_polynomial("x1^2 - x2*x3", ring)])
    assert report.d == 2
    assert report.c == (NEG_INF, NEG_INF, 1)
    assert report.reg == 1


def test_retry_transcript_is_deterministic():
    report = compute_report(monomial_gens(MonomialIdeal(2, frozenset({(1, 1)}))))
    assert report.d == 1
    assert report.c == (NEG_INF, 1)
    assert report.r == 1 and report.reg == 1
    assert report.reg_t == (NEG_INF, 1)
    assert report.bound == (0, 1)
    assert report.attained_t == 1
    assert report.corners == ((), ((1,),))
    assert len(report.retries) == 1
    rec = report.retries[0]
    assert rec.level == 0 and rec.attempt == 1
    assert rec.seed == derive_matrix_seed(0, 0, 1) == 1000004
    assert rec.matrix_digest == "39edcae324d4"


def test_retry_seed_changes_with_top_level_seed():
    gens = monomial_gens(MonomialIdeal(2, frozenset({(1, 1)})))
    a = compute_report(gens, seed=0)
    b = compute_report(gens, seed=1)
    assert a.retries[0].seed != b.retries[0].seed
    assert a.reg == b.reg == 1


def test_retry_transform_is_sound():
    """Recreate the logged coordinate change and verify the transformed
    input no longer needs retries and has the same regularity."""
    gens = monomial_gens(MonomialIdeal(2, frozenset({(1, 1)})))
    report = compute_report(gens)
    rec = report.retries[0]
    matrix = sample_change_matrix(32003, 2, rec.seed)
    assert matrix_digest(matrix) == rec.matrix_digest
    transformed = apply_linear_change(gens, matrix)
    replay = compute_report(transformed)
    assert replay.retries == ()
    assert replay.reg == report.reg
    assert replay.c == report.c


def test_retry_transcript_above_level_zero():
    """The ideal (x2) needs a coordinate change at level 1.  Each record
    must name the seed of the retry chain and the digest of the matrix that
    seed draws for the coordinates still live at its level, and the level
    ideals kept in the report must carry the reported corners."""
    n, p = 3, 32003
    report = compute_report(monomial_gens(MonomialIdeal(n, frozenset({(0, 1, 0)})), p))
    assert [(rec.level, rec.attempt) for rec in report.retries] == [(1, 1)]
    for rec in report.retries:
        assert rec.seed == derive_matrix_seed(0, rec.level, rec.attempt)
        matrix = sample_change_matrix(p, n - rec.level, rec.seed)
        assert rec.matrix_digest == matrix_digest(matrix)
    assert len(report.levels) == report.d + 1
    for i, level in enumerate(report.levels):
        assert level.s == n - i
        assert tuple(sorted(corners(level))) == report.corners[i]
        assert max_degree(corners(level)) == report.c[i]


def test_levels_are_evaluations_of_the_initial_ideal_without_retries():
    gens = twisted_cubic()
    report = compute_report(gens)
    assert report.retries == ()
    full = initial_ideal(buchberger(gens))
    assert report.levels == tuple(evaluate_zero(full, i) for i in range(report.d + 1))
    for i, level in enumerate(report.levels):
        assert tuple(sorted(corners(level))) == report.corners[i]
        assert max_degree(corners(level)) == report.c[i]


def test_retries_exhausted_is_reported():
    from cmreg import RetriesExhaustedError

    gens = monomial_gens(MonomialIdeal(2, frozenset({(1, 1)})))
    with pytest.raises(RetriesExhaustedError) as info:
        compute_report(gens, max_retries=0)
    assert info.value.level == 0


def test_derive_matrix_seed_injective_on_small_grid():
    seen = {}
    for seed in range(3):
        for level in range(4):
            for attempt in range(1, 4):
                key = derive_matrix_seed(seed, level, attempt)
                assert key not in seen
                seen[key] = (seed, level, attempt)


def test_input_validation():
    ring = Ring.make(2, 32003)
    with pytest.raises(ValueError):
        compute_report([])
    with pytest.raises(ValueError):
        compute_report([parse_polynomial("5", ring)])
    with pytest.raises(ValueError):
        compute_report([Polynomial.zero(ring)])
    with pytest.raises(ValueError):
        compute_report([parse_polynomial("x1^2 + x2", ring)])


def test_negative_max_retries_is_rejected():
    # rejected up front, whether or not the input would need a retry
    for gens in [twisted_cubic(), monomial_gens(MonomialIdeal(2, frozenset({(1, 1)})))]:
        with pytest.raises(ValueError, match="max_retries"):
            compute_report(gens, max_retries=-1)


def test_validate_rejects_doctored_reports():
    report = compute_report(twisted_cubic())
    report.validate()
    for field in ("levels", "corners"):
        truncated = dataclasses.replace(report, **{field: getattr(report, field)[:-1]})
        with pytest.raises(RuntimeError, match="d \\+ 1 entries"):
            truncated.validate()
    # bound is (0, 1, 2); a level value of 5 at level 1 lifts reg_1 above it
    inflated = dataclasses.replace(report, c=(NEG_INF, 5, 1))
    with pytest.raises(RuntimeError, match="lcm degree bound violated at t=1"):
        inflated.validate()


def test_report_stores_only_what_the_walk_certified():
    names = [f.name for f in dataclasses.fields(RegularityReport)]
    assert names == ["n", "p", "d", "c", "corners", "retries", "levels"]
    report = compute_report(monomial_curve(5, 2))
    assert report.c == (NEG_INF, 4, 4)
    assert (report.r, report.reg, report.attained_t) == (4, 4, 1)
    assert report.reg_t == (NEG_INF, 4, 4)
    doctored = dataclasses.replace(report, c=(NEG_INF, 3, 5))
    assert (doctored.r, doctored.reg, doctored.attained_t) == (5, 5, 2)
    assert doctored.reg_t == (NEG_INF, 3, 5)
    assert doctored.bound == report.bound == (8, 9, 9)


def test_reg_bound_levels():
    assert reg_bound(CURVE_INITIAL, 0) == 8
    assert reg_bound(CURVE_INITIAL, 1) == 9
    assert reg_bound(CURVE_INITIAL, 2) == 9
    with pytest.raises(ValueError):
        reg_bound(CURVE_INITIAL, 5)
    assert reg_bound(MonomialIdeal(2, frozenset({(1, 1)})), 1) == 0


def test_report_bound_equals_reg_bound_of_the_initial_ideal():
    # without retries every level ideal is an evaluation of In(I), so the
    # report's bound and reg_bound on In(I) are the same numbers
    inputs = [twisted_cubic()]
    inputs += [monomial_curve(a, b) for a, b in [(3, 2), (4, 3), (5, 2), (7, 3)]]
    inputs += [
        monomial_gens(random_strongly_stable_ideal(seed, 2 + seed % 3, 1 + seed % 5))
        for seed in range(20)
    ]
    for gens in inputs:
        report = compute_report(gens)
        assert report.retries == ()
        J = initial_ideal(buchberger(gens))
        assert report.bound == tuple(reg_bound(J, t) for t in range(report.d + 1))


def test_zerodivisor_flags():
    assert zerodivisor_flags(compute_report(twisted_cubic())) == [True, True]
    assert zerodivisor_flags(compute_report(monomial_curve(5, 2))) == [True, False]
    ring = Ring.make(3, 32003)
    artinian = compute_report(
        [parse_polynomial(t, ring) for t in ["x1^2", "x2^3", "x3^4"]]
    )
    assert zerodivisor_flags(artinian) == []


def test_partial_values_monotone_and_bounded():
    for gens in [twisted_cubic(), monomial_curve(5, 2), monomial_curve(7, 3)]:
        report = compute_report(gens)
        for t in range(report.d):
            assert report.reg_t[t] <= report.reg_t[t + 1]
            assert report.reg_t[t] <= report.bound[t]
        assert report.reg_t[report.d] == report.reg


# ---------------------------------------------------------------------------
# curve mode


def test_curve_report_on_twisted_cubic():
    cr = curve_report(twisted_cubic())
    assert cr.noether_ok
    assert cr.c1 == NEG_INF
    assert cr.r == 1 and cr.reg == 1
    assert cr.H_E == 2
    assert cr.H_Re == 0
    assert cr.last_shift is None


def test_curve_report_family_values():
    for alpha, beta, c1_finite in [(3, 2, False), (4, 3, False), (5, 2, True), (7, 3, True)]:
        cr = curve_report(monomial_curve(alpha, beta))
        assert cr.noether_ok
        assert cr.r == alpha - 1
        assert cr.reg == alpha - 1
        if c1_finite:
            assert cr.c1 == alpha - 1
            assert cr.H_Re == alpha - 1
            assert cr.H_E is None
            assert cr.last_shift == alpha - 1 + 3
        else:
            assert cr.c1 == NEG_INF
            assert cr.H_Re == 0
            assert cr.H_E == alpha
            assert cr.last_shift is None


def test_curve_report_agrees_with_full_pipeline():
    for gens in [twisted_cubic(), monomial_curve(5, 2), monomial_curve(4, 3)]:
        cr = curve_report(gens)
        report = compute_report(gens)
        assert cr.reg == report.reg
        assert cr.c1 == report.c[1]
        assert cr.r == report.r


def test_curve_report_rejects_bad_positions():
    # wrong dimension: a surface, not a curve
    ring = Ring.make(4, 32003)
    cr = curve_report([parse_polynomial("x1^2", ring)])
    assert not cr.noether_ok
    assert cr.reg is None
    # dimension two but the top evaluation is not Artinian
    cr = curve_report(
        [parse_polynomial("x1^2", ring), parse_polynomial("x2*x4", ring)]
    )
    assert not cr.noether_ok
    # dimension two in three variables: x2, x3 is not a system of parameters
    ring = Ring.make(3, 32003)
    cr = curve_report([parse_polynomial(t, ring) for t in ["x1*x2", "x1*x3"]])
    assert not cr.noether_ok


def test_curve_report_reads_the_level_walk(monkeypatch):
    """Curve mode certifies and reads its levels through the same walk as
    compute_report: the same certificate and corner calls, on the same
    level ideals."""
    import cmreg.regularity as regmod

    def recorded(name, calls):
        original = getattr(regmod, name)

        def wrapper(*args):
            calls.append((name, args))
            return original(*args)

        monkeypatch.setattr(regmod, name, wrapper)

    gens = monomial_curve(5, 2)
    walks = []
    for run in (curve_report, compute_report):
        calls = []
        for name in ("is_c_finite", "corners"):
            recorded(name, calls)
        run(gens)
        walks.append(calls)
        monkeypatch.undo()
    assert walks[0] == walks[1]
    assert [name for name, _ in walks[0]].count("corners") == 3


def test_curve_report_flags_unsaturated_input():
    ring = Ring.make(4, 32003)
    gens = [parse_polynomial(t, ring) for t in ["x1^2", "x2^2*x4", "x2^3"]]
    with pytest.raises(ValueError):
        curve_report(gens)


def test_curve_report_on_monomial_input_in_certified_position():
    # the pure powers in the top evaluation satisfy the finiteness
    # certificate automatically, so no retry can be needed here
    ring = Ring.make(4, 32003)
    gens = [parse_polynomial(t, ring) for t in ["x1*x3", "x1^2", "x2^2"]]
    cr = curve_report(gens)
    assert cr.noether_ok
    assert cr.c1 == 2 and cr.r == 2 and cr.reg == 2
    assert cr.H_Re == 2 and cr.H_E is None and cr.last_shift == 5
    report = compute_report(gens)
    assert report.c == (NEG_INF, 2, 2)
    assert not report.retries
