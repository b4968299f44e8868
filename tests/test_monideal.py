"""Monomial ideal operations: evaluation, saturation, colon, dimensions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmreg import (
    MonomialIdeal,
    colon_by_var,
    evaluate_zero,
    graded_dim_quotient,
    krull_dim,
    minimalize,
    saturate_by_var,
)
from cmreg.monideal import (
    contains,
    difference_degree_counts,
    gap_search_ceiling,
    lcm_degree,
)
from conftest import random_monomial_ideal

CURVE_INITIAL = MonomialIdeal(
    4, frozenset({(1, 1, 0, 0), (0, 5, 0, 0), (3, 0, 2, 0), (4, 0, 1, 0), (5, 0, 0, 0)})
)

ideals = st.integers(0, 10_000).map(
    lambda seed: random_monomial_ideal(random.Random(seed), 1 + seed % 4, 4, 6)
)


def test_minimalize_drops_multiples():
    J = minimalize(2, {(1, 0), (2, 0), (1, 3), (0, 2)})
    assert J.gens == frozenset({(1, 0), (0, 2)})


def test_constructor_requires_antichain():
    with pytest.raises(ValueError):
        MonomialIdeal(2, frozenset({(1, 0), (2, 0)}))
    with pytest.raises(ValueError):
        MonomialIdeal(2, frozenset({(1,)}))
    with pytest.raises(ValueError):
        MonomialIdeal(2, frozenset({(-1, 0)}))


def test_zero_and_unit():
    zero = MonomialIdeal(3, frozenset())
    unit = MonomialIdeal(3, frozenset({(0, 0, 0)}))
    assert zero.is_zero and not zero.is_unit
    assert unit.is_unit and not unit.is_zero
    assert not contains(zero, (1, 0, 0))
    assert contains(unit, (0, 0, 0))


def test_contains():
    J = MonomialIdeal(2, frozenset({(1, 1), (0, 3)}))
    assert contains(J, (1, 1))
    assert contains(J, (2, 5))
    assert contains(J, (0, 4))
    assert not contains(J, (2, 0))
    assert not contains(J, (0, 2))


def test_evaluate_zero_keeps_untouched_generators():
    level1 = evaluate_zero(CURVE_INITIAL, 1)
    assert level1.s == 3
    assert level1.gens == frozenset(
        {(1, 1, 0), (0, 5, 0), (3, 0, 2), (4, 0, 1), (5, 0, 0)}
    )
    level2 = evaluate_zero(CURVE_INITIAL, 2)
    assert level2.gens == frozenset({(1, 1), (0, 5), (5, 0)})
    assert evaluate_zero(CURVE_INITIAL, 0) == CURVE_INITIAL


def test_evaluate_zero_drops_dying_generators():
    J = MonomialIdeal(3, frozenset({(1, 0, 1), (0, 2, 0)}))
    assert evaluate_zero(J, 1).gens == frozenset({(0, 2)})
    J = MonomialIdeal(2, frozenset({(1, 1)}))
    assert evaluate_zero(J, 1).is_zero


def test_saturate_by_var():
    level1 = evaluate_zero(CURVE_INITIAL, 1)
    sat = saturate_by_var(level1, 3)
    assert sat.gens == frozenset({(1, 1, 0), (0, 5, 0), (3, 0, 0)})


def test_saturate_unit_and_zero():
    assert saturate_by_var(MonomialIdeal(2, frozenset()), 2).is_zero
    assert saturate_by_var(MonomialIdeal(2, frozenset({(0, 2)})), 2).is_unit


def test_colon_by_var_single_step():
    J = MonomialIdeal(2, frozenset({(2, 0), (1, 2), (0, 5)}))
    C = colon_by_var(J, 2)
    assert C.gens == frozenset({(2, 0), (1, 1), (0, 4)})


@given(ideals)
def test_colon_iterates_to_saturation(J):
    cur = J
    for _ in range(20):
        nxt = colon_by_var(cur, J.s)
        if nxt == cur:
            break
        cur = nxt
    assert cur == saturate_by_var(J, J.s)


@given(ideals)
def test_saturation_contains_ideal(J):
    sat = saturate_by_var(J, J.s)
    for g in J.gens:
        assert contains(sat, g)


def test_krull_dim():
    assert krull_dim(MonomialIdeal(3, frozenset())) == 3
    assert krull_dim(MonomialIdeal(3, frozenset({(0, 0, 0)}))) == -1
    assert krull_dim(MonomialIdeal(2, frozenset({(1, 1)}))) == 1
    assert krull_dim(CURVE_INITIAL) == 2
    artinian = MonomialIdeal(2, frozenset({(2, 0), (0, 3)}))
    assert krull_dim(artinian) == 0
    # twisted cubic initial ideal: minimal cover is {y1, y2}
    J = MonomialIdeal(4, frozenset({(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)}))
    assert krull_dim(J) == 2


@given(ideals)
def test_krull_dim_drops_under_evaluation(J):
    d = krull_dim(J)
    e = krull_dim(evaluate_zero(J, 1))
    assert e <= d
    assert e >= d - 1 or e == -1


def test_graded_dim_quotient_examples():
    J = MonomialIdeal(2, frozenset({(1, 1), (0, 5), (5, 0)}))
    assert graded_dim_quotient(J, 4) == 2  # the two pure fourth powers
    assert graded_dim_quotient(J, 5) == 0
    zero = MonomialIdeal(2, frozenset())
    assert graded_dim_quotient(zero, 3) == 4
    unit = MonomialIdeal(2, frozenset({(0, 0)}))
    assert graded_dim_quotient(unit, 0) == 0
    artinian = MonomialIdeal(2, frozenset({(2, 0), (0, 3)}))
    assert [graded_dim_quotient(artinian, r) for r in range(5)] == [1, 2, 2, 1, 0]


@given(ideals, st.integers(0, 6))
def test_graded_dim_counts_standard_monomials(J, r):
    from itertools import product

    box = product(*(range(r + 1) for _ in range(J.s)))
    expected = sum(1 for a in box if sum(a) == r and not contains(J, a))
    assert graded_dim_quotient(J, r) == expected


def test_lcm_degree():
    assert CURVE_INITIAL.max_exponents() == (5, 5, 2, 0)
    assert lcm_degree(CURVE_INITIAL) == 12
    assert lcm_degree(evaluate_zero(CURVE_INITIAL, 2)) == 10
    assert lcm_degree(evaluate_zero(MonomialIdeal(2, frozenset({(1, 1)})), 1)) is None
    assert lcm_degree(MonomialIdeal(2, frozenset())) is None


def test_difference_degree_counts_finite_gap():
    level1 = evaluate_zero(CURVE_INITIAL, 1)
    sat = saturate_by_var(level1, 3)
    counts = difference_degree_counts(level1, sat, 10)
    assert counts[3] == 1  # the pure cube of the first variable
    assert counts[4] > 0
    assert all(counts[r] == 0 for r in range(5, 11))
    assert max(r for r, c in counts.items() if c) == 4


def test_difference_degree_counts_infinite_tail():
    J = MonomialIdeal(2, frozenset({(1, 1)}))
    sat = saturate_by_var(J, 2)
    counts = difference_degree_counts(J, sat, 6)
    assert all(counts[r] == 1 for r in range(1, 7))


def test_difference_degree_counts_requires_containment():
    small = MonomialIdeal(2, frozenset({(2, 0)}))
    big = MonomialIdeal(2, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        difference_degree_counts(small, big, 4)


def test_gap_search_ceiling():
    assert gap_search_ceiling(MonomialIdeal(2, frozenset({(1, 1)}))) == 4
    assert gap_search_ceiling(MonomialIdeal(2, frozenset())) == 2
    # one generator of high degree: the ceiling sees past the lcm bound
    J = MonomialIdeal(5, frozenset({(1, 1, 1, 1, 1)}))
    assert gap_search_ceiling(J) == 10


@given(ideals)
def test_gap_counts_vanish_when_saturation_equals_ideal(J):
    sat = saturate_by_var(J, J.s)
    if sat != J:
        return
    counts = difference_degree_counts(J, sat, gap_search_ceiling(J))
    assert all(c == 0 for c in counts.values())
