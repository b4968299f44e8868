"""Staircase corners, finiteness certificates, and the values they carry."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmreg import (
    NEG_INF,
    MonomialIdeal,
    corners,
    evaluate_zero,
    is_c_finite,
    max_degree,
)
from cmreg.monideal import contains
from cmreg.ring import exp_add
from cmreg.staircase import is_artinian
from conftest import corners_reference, random_monomial_ideal

CURVE_INITIAL = MonomialIdeal(
    4, frozenset({(1, 1, 0, 0), (0, 5, 0, 0), (3, 0, 2, 0), (4, 0, 1, 0), (5, 0, 0, 0)})
)

ideals = st.integers(0, 10_000).map(
    lambda seed: random_monomial_ideal(random.Random(seed), 1 + seed % 4, 5, 8)
)


def test_corner_fixtures_for_the_curve_levels():
    level1 = evaluate_zero(CURVE_INITIAL, 1)
    assert corners(level1) == frozenset({(3, 0, 1), (4, 0, 0)})
    level2 = evaluate_zero(CURVE_INITIAL, 2)
    assert corners(level2) == frozenset({(0, 4), (4, 0)})
    assert max_degree(corners(level2)) == 4


def test_corners_of_simple_artinian_ideal():
    J = MonomialIdeal(2, frozenset({(2, 0), (0, 3)}))
    assert corners(J) == frozenset({(1, 2)})
    assert max_degree(corners(J)) == 3


def test_corners_edge_cases():
    assert corners(MonomialIdeal(2, frozenset({(0, 0)}))) == frozenset()
    assert corners(MonomialIdeal(0, frozenset())) == frozenset({()})
    assert corners(MonomialIdeal(2, frozenset())) == frozenset()
    assert max_degree(corners(MonomialIdeal(2, frozenset()))) == NEG_INF


def test_corners_require_every_step_up_to_land_inside():
    J = MonomialIdeal(2, frozenset({(1, 1), (0, 5), (5, 0)}))
    F = corners(J)
    assert F == frozenset({(0, 4), (4, 0)})
    for a in F:
        assert not contains(J, a)
        for j in range(J.s):
            step = tuple(1 if k == j else 0 for k in range(J.s))
            assert contains(J, exp_add(a, step))


@given(ideals)
def test_corner_enumeration_matches_reference_construction(J):
    assert corners(J) == corners_reference(J)


def test_is_c_finite_certificate():
    J1 = evaluate_zero(CURVE_INITIAL, 1)
    J2 = evaluate_zero(CURVE_INITIAL, 2)
    assert is_c_finite(J1, J2)


def test_is_c_finite_fails_on_vanishing_next_level():
    J = MonomialIdeal(2, frozenset({(1, 1)}))
    empty = MonomialIdeal(1, frozenset())
    assert not is_c_finite(J, empty)


def test_is_c_finite_vacuous_in_one_variable():
    J = MonomialIdeal(1, frozenset({(3,)}))
    nxt = MonomialIdeal(0, frozenset())
    assert is_c_finite(J, nxt)


def test_is_c_finite_checks_shapes():
    J1 = MonomialIdeal(3, frozenset({(1, 0, 0)}))
    bad = MonomialIdeal(3, frozenset({(1, 0, 0)}))
    with pytest.raises(ValueError):
        is_c_finite(J1, bad)


def test_is_artinian():
    assert is_artinian(MonomialIdeal(2, frozenset({(2, 0), (0, 3)})))
    assert not is_artinian(MonomialIdeal(2, frozenset({(2, 0)})))
    assert not is_artinian(MonomialIdeal(2, frozenset({(1, 1)})))
    assert is_artinian(MonomialIdeal(0, frozenset()))
    assert is_artinian(MonomialIdeal(2, frozenset({(0, 0)})))
    assert not is_artinian(MonomialIdeal(2, frozenset()))


def test_max_degree_of_certified_curve_level():
    J = evaluate_zero(CURVE_INITIAL, 1)
    assert is_c_finite(J, evaluate_zero(CURVE_INITIAL, 2))
    assert max_degree(corners(J)) == 4


def test_max_degree_negative_infinity_when_no_corners():
    J = MonomialIdeal(2, frozenset({(2, 0)}))
    assert corners(J) == frozenset()
    assert max_degree(corners(J)) == NEG_INF
    assert max_degree(frozenset()) == NEG_INF


def test_top_corner_degree_gates():
    # r is read as max_degree(corners(J)) only behind is_artinian on a
    # proper ideal; the two gated cases are the ones r_def rejects
    assert not is_artinian(MonomialIdeal(2, frozenset({(2, 0)})))
    assert MonomialIdeal(2, frozenset({(0, 0)})).is_unit
    assert max_degree(corners(MonomialIdeal(2, frozenset({(0, 0)})))) == NEG_INF
    J = MonomialIdeal(2, frozenset({(1, 1), (0, 5), (5, 0)}))
    assert is_artinian(J) and max_degree(corners(J)) == 4
    empty = MonomialIdeal(0, frozenset())
    assert is_artinian(empty) and max_degree(corners(empty)) == 0


@given(ideals)
def test_corner_degree_bounded_by_lcm(J):
    from cmreg.monideal import lcm_degree

    F = corners(J)
    if not F:
        return
    bound = lcm_degree(J) - J.s
    assert max_degree(F) <= bound


@given(ideals)
def test_artinian_top_corner_matches_last_nonzero_piece(J):
    from cmreg import graded_dim_quotient

    if not is_artinian(J) or J.is_unit:
        return
    r = max_degree(corners(J))
    assert graded_dim_quotient(J, r) > 0
    assert graded_dim_quotient(J, r + 1) == 0
