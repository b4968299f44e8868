"""Polynomial values, the term order, and the text format."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmreg import ParseError, Polynomial, Ring, parse_polynomial
from cmreg.groebner import s_polynomial
from cmreg.ring import format_polynomial, revlex_key
from conftest import parse_exponent, revlex_compare

R3 = Ring(("x1", "x2", "x3"), 101)


def poly(text: str, ring: Ring = R3) -> Polynomial:
    return parse_polynomial(text, ring)


# ---------------------------------------------------------------------------
# term order


def test_degree_dominates():
    assert revlex_compare((2, 0, 3, 0), (0, 5, 0, 0)) < 0
    assert revlex_compare((0, 0, 0, 6), (5, 0, 0, 0)) > 0


def test_ties_broken_by_trailing_exponents():
    # at equal degree the monomial less divisible by late variables wins
    assert revlex_compare((2, 0, 0), (0, 1, 1)) > 0
    assert revlex_compare((1, 1, 0), (2, 0, 0)) < 0
    assert revlex_compare((0, 2, 0), (1, 0, 1)) > 0


def test_leading_exponent_examples():
    # the monomial with less weight on trailing variables leads
    f = poly("x1^3*x3^2 - x2^5")
    assert f.leading_exponent() == (0, 5, 0)
    g = poly("x1*x2 - x3*x3")
    assert g.leading_exponent() == (1, 1, 0)
    four = Ring(("x1", "x2", "x3", "x4"), 101)
    h = parse_polynomial("x1^3*x3^2 - x2^4*x4", four)
    assert h.leading_exponent() == (3, 0, 2, 0)


def test_revlex_total_order_on_grid():
    grid = list(product(range(3), repeat=3))
    for a in grid:
        for b in grid:
            c = revlex_compare(a, b)
            assert c == -revlex_compare(b, a)
            if a == b:
                assert c == 0
            if sum(a) < sum(b):
                assert c < 0
            # keys induce the same order
            assert c == (revlex_key(a) > revlex_key(b)) - (revlex_key(a) < revlex_key(b))


def test_revlex_multiplicative_on_grid():
    grid = list(product(range(3), repeat=3))
    shift = (1, 0, 2)
    for a in grid:
        for b in grid:
            moved = revlex_compare(
                tuple(x + y for x, y in zip(a, shift)),
                tuple(x + y for x, y in zip(b, shift)),
            )
            assert moved == revlex_compare(a, b)


# ---------------------------------------------------------------------------
# polynomial values

exponents3 = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
)
polys3 = st.dictionaries(exponents3, st.integers(0, 100), max_size=6).map(
    lambda m: Polynomial.from_dict(R3, m)
)


@given(polys3)
def test_monic_normalizes_leading_coefficient(f):
    if f.is_zero:
        return
    m = f.monic()
    assert m.leading_term()[1] == 1
    assert m.leading_exponent() == f.leading_exponent()
    assert m == Polynomial.from_dict(R3, dict(m.terms))  # still sorted
    c = f.leading_term()[1]
    assert Polynomial.from_dict(R3, {e: c0 * c for e, c0 in m.terms}) == f


def test_coefficients_reduced_mod_p():
    f = poly("103*x1 + x1")
    assert f == poly("3*x1")
    assert poly("101*x1").is_zero


def test_degree_and_homogeneity():
    assert poly("x1^2*x2 - x3^3").degree() == 3
    assert poly("x1^2*x2 - x3^3").is_homogeneous()
    assert not poly("x1^2 + x3^3").is_homogeneous()
    assert Polynomial.zero(R3).degree() == -1


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_basic_forms():
    assert poly("2*x1^2*x3").terms == (((2, 0, 1), 2),)
    assert dict(poly("x1 - x2").terms)[(0, 1, 0)] == 100
    assert poly("-x1 + 3") == poly("3 - x1")
    assert poly("x1*x1") == poly("x1^2")
    assert poly("+x2") == poly("x2")


def test_parse_exponent_single_monomial():
    assert parse_exponent("x1^2*x3", R3) == (2, 0, 1)
    with pytest.raises(ParseError):
        parse_exponent("x1 + x2", R3)


@pytest.mark.parametrize(
    "text",
    ["", "bogus", "x1 $ x2", "x1^", "x1 +", "x1 * ", "x1 x2", "^2", "x1 2"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        poly(text)


def test_format_round_trip_fixed():
    for text in ["x1^2 - x2*x3", "x1*x2 + 2*x3^2", "-x1^3 + x2^2*x3", "5"]:
        f = poly(text)
        assert parse_polynomial(format_polynomial(f), R3) == f


@given(polys3)
def test_format_round_trip(f):
    if f.is_zero:
        assert format_polynomial(f) == "0"
        return
    assert parse_polynomial(format_polynomial(f), R3) == f


def test_format_prefers_small_magnitudes():
    assert format_polynomial(poly("x1 - x2")) == "x1 - x2"
    assert format_polynomial(poly("-2*x1^2")) == "-2*x1^2"


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(("x", "x"), 101)
    with pytest.raises(ValueError):
        Ring(("x", "y"), 100)
    with pytest.raises(ValueError):
        Ring(("2x", "y"), 101)
    with pytest.raises(ValueError):
        Ring((), 101)


def test_mixed_ring_arithmetic_rejected():
    other = Ring(("x1", "x2", "x3"), 7)
    with pytest.raises(ValueError, match="different rings"):
        s_polynomial(poly("x1"), parse_polynomial("x1", other))
