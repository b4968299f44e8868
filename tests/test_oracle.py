"""Definitional values, the pipeline cross-check, and stable ideal inputs."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmreg import (
    NEG_INF,
    MonomialIdeal,
    a_def,
    colon_by_var,
    compute_report,
    cross_check,
    evaluate_zero,
    minimalize,
    r_def,
    saturate_by_var,
)
from cmreg.monideal import difference_degree_counts, gap_search_ceiling
from cmreg.oracle import a_def_with_trace
from conftest import (
    borel_closure,
    is_strongly_stable,
    monomial_curve,
    monomial_gens,
    random_monomial_ideal,
    random_strongly_stable_ideal,
    twisted_cubic,
)

CURVE_INITIAL = MonomialIdeal(
    4, frozenset({(1, 1, 0, 0), (0, 5, 0, 0), (3, 0, 2, 0), (4, 0, 1, 0), (5, 0, 0, 0)})
)

ideals = st.integers(0, 10_000).map(
    lambda seed: random_monomial_ideal(random.Random(seed), 1 + seed % 4, 4, 6)
)


def test_a_def_fixtures():
    assert a_def(CURVE_INITIAL, 0) == NEG_INF
    assert a_def(CURVE_INITIAL, 1) == 4
    assert a_def(MonomialIdeal(2, frozenset({(1, 1)})), 0) == float("inf")
    # Artinian evaluation: the saturation is the unit ideal, so the value
    # counts all standard monomials and tops out at their last degree
    assert a_def(MonomialIdeal(2, frozenset({(2, 0), (0, 3)})), 0) == 3


def test_a_def_trace_reports_counts_and_ceiling():
    value, counts, ceiling = a_def_with_trace(CURVE_INITIAL, 1)
    assert value == 4
    assert counts[3] == 1 and counts[4] == 2
    assert all(counts[r] == 0 for r in range(5, ceiling + 1))


def test_a_def_level_range_checked():
    with pytest.raises(ValueError):
        a_def(CURVE_INITIAL, 4)
    with pytest.raises(ValueError):
        a_def(CURVE_INITIAL, -1)


def test_a_def_low_ceiling_flags_infinity():
    assert a_def(CURVE_INITIAL, 1, ceiling=3) == float("inf")
    assert a_def(CURVE_INITIAL, 1) == 4


def test_r_def_fixtures():
    assert r_def(MonomialIdeal(2, frozenset({(1, 1), (0, 5), (5, 0)}))) == 4
    assert r_def(MonomialIdeal(2, frozenset({(2, 0), (0, 3)}))) == 3
    assert r_def(MonomialIdeal(0, frozenset()), ceiling=1) == 0
    # the zero ideal in no variables: the quotient is F_p, top degree 0
    assert r_def(MonomialIdeal(0, frozenset())) == 0
    with pytest.raises(ValueError):
        r_def(MonomialIdeal(2, frozenset({(2, 0)})))
    with pytest.raises(ValueError):
        r_def(MonomialIdeal(2, frozenset({(0, 0)})))
    with pytest.raises(ValueError, match="not Artinian"):
        r_def(MonomialIdeal(2, frozenset()))
    with pytest.raises(ValueError, match="not Artinian"):
        r_def(MonomialIdeal(1, frozenset()))
    with pytest.raises(ValueError):
        # a ceiling below the true top degree cannot certify termination
        r_def(MonomialIdeal(2, frozenset({(2, 0), (0, 3)})), ceiling=2)


@given(ideals)
def test_saturation_and_single_colon_stop_at_the_same_degree(J):
    """The saturation by the last variable and the single colon add
    monomials up to the same top degree whenever either gap is finite."""
    ceiling = gap_search_ceiling(J)
    sat_counts = difference_degree_counts(J, saturate_by_var(J, J.s), ceiling)
    colon_counts = difference_degree_counts(J, colon_by_var(J, J.s), ceiling)
    if sat_counts.get(ceiling, 0) > 0:
        return
    sat_top = max((r for r, c in sat_counts.items() if c), default=None)
    colon_top = max((r for r, c in colon_counts.items() if c), default=None)
    assert sat_top == colon_top


def test_borel_closure_examples():
    assert borel_closure(2, {(0, 2)}) == frozenset({(0, 2), (1, 1), (2, 0)})
    assert borel_closure(3, {(1, 1, 0)}) == frozenset({(1, 1, 0), (2, 0, 0)})
    assert borel_closure(2, {(1, 0)}) == frozenset({(1, 0)})


def test_borel_closure_validates_length():
    with pytest.raises(ValueError):
        borel_closure(2, {(1, 0, 0)})


def test_is_strongly_stable():
    assert is_strongly_stable(minimalize(2, borel_closure(2, {(0, 2)})))
    assert not is_strongly_stable(MonomialIdeal(2, frozenset({(0, 2)})))
    assert is_strongly_stable(MonomialIdeal(2, frozenset({(1, 0)})))


@given(st.integers(0, 500))
def test_random_strongly_stable_ideal_is_stable(seed):
    rng = random.Random(seed)
    J = random_strongly_stable_ideal(seed, 1 + rng.randrange(4), 1 + rng.randrange(5))
    assert is_strongly_stable(J)
    assert not J.is_zero


def test_random_strongly_stable_ideal_deterministic():
    assert random_strongly_stable_ideal(3, 3, 4) == random_strongly_stable_ideal(3, 3, 4)


def test_cross_check_on_curated_inputs():
    for gens in [twisted_cubic(), monomial_curve(5, 2), monomial_curve(4, 3)]:
        record = cross_check(gens)
        assert record.ok
        assert record.r_match
        assert all(ch.match for ch in record.levels)
        assert len(record.levels) == record.report.d + 1


def test_cross_check_replays_retries():
    ring_gens = monomial_gens(MonomialIdeal(2, frozenset({(1, 1)})))
    record = cross_check(ring_gens)
    assert record.ok
    assert len(record.report.retries) == 1
    assert record.levels[0].a_definition == NEG_INF
    assert record.levels[1].a_definition == 1
    # (x2) retries at level 1, so levels 1 and 2 are read after the change
    record = cross_check(monomial_gens(MonomialIdeal(3, frozenset({(0, 1, 0)}))))
    assert record.ok
    assert [rec.level for rec in record.report.retries] == [1]
    assert [ch.a_definition for ch in record.levels] == [NEG_INF, NEG_INF, 0]
    assert record.r_definition == 0


def test_cross_check_flags_a_wrong_level_value(monkeypatch):
    import cmreg.oracle

    def doctored(gens, **kwargs):
        report = compute_report(gens, **kwargs)
        return dataclasses.replace(report, c=(report.c[0], 7, *report.c[2:]))

    monkeypatch.setattr(cmreg.oracle, "compute_report", doctored)
    record = cross_check(twisted_cubic())
    assert not record.ok
    assert [ch.match for ch in record.levels] == [True, False, True]
    assert record.r_match


def test_cross_check_matches_compute_report():
    gens = twisted_cubic()
    record = cross_check(gens)
    report = compute_report(gens)
    assert record.report == report
    assert record.r_reported == report.r == record.r_definition


def test_eliahou_kervaire_regularity_on_stable_ideals():
    """For a strongly stable ideal the regularity equals the top minimal
    generator degree minus one (classical fact, used as ground truth)."""
    for seed in range(12):
        J = random_strongly_stable_ideal(seed, 2 + seed % 3, 1 + seed % 5)
        report = compute_report(monomial_gens(J))
        expected = max(sum(g) for g in J.gens) - 1
        assert report.reg == expected


def test_koszul_regularity_on_complete_intersections():
    """For monomial complete intersections the regularity is the sum of
    (a_j - 1) (classical fact, used as ground truth)."""
    cases = [
        (3, (2, 3, 4), 6),
        (4, (2, 3), 3),
        (5, (2, 2, 2, 2), 4),
        (3, (4,), 3),
    ]
    for n, powers, expected in cases:
        J = minimalize(
            n,
            {
                tuple(a if k == j else 0 for k in range(n))
                for j, a in enumerate(powers)
            },
        )
        report = compute_report(monomial_gens(J))
        assert report.reg == expected
        assert not report.retries


@given(ideals)
def test_a_def_agrees_with_corners_on_certified_levels(J):
    from cmreg import corners, is_c_finite, max_degree

    for i in range(J.s):
        level = evaluate_zero(J, i)
        nxt = evaluate_zero(J, i + 1)
        if not is_c_finite(level, nxt):
            continue
        assert max_degree(corners(level)) == a_def(J, i)
