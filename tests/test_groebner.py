"""Buchberger, reduction, initial ideals, and seeded coordinate changes."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cmreg import MonomialIdeal, Polynomial, Ring, parse_polynomial
from cmreg.groebner import (
    apply_linear_change,
    buchberger,
    initial_ideal,
    is_groebner_basis,
    matrix_digest,
    random_linear_change,
    reduce,
    s_polynomial,
    sample_change_matrix,
)
from conftest import (
    macaulay_basis,
    monomial_curve,
    monomial_gens,
    random_strongly_stable_ideal,
    reduce_reference,
    twisted_cubic,
)


def test_twisted_cubic_is_its_own_reduced_basis():
    gens = twisted_cubic()
    basis = buchberger(gens)
    assert set(basis) == {g.monic() for g in gens}
    assert initial_ideal(basis).gens == frozenset(
        {(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)}
    )


def test_s_polynomial_of_disjoint_heads():
    gens = twisted_cubic()
    f1, f2, _ = gens
    ring = f1.ring
    s = s_polynomial(f1, f2)
    # heads y1^2 and y2^2 are coprime, so the S-polynomial is the cross term
    assert s == parse_polynomial("y1^3*y4 - y2^3*y3", ring)
    assert reduce(s, gens).is_zero


def test_reduce_detects_non_members():
    gens = twisted_cubic()
    ring = gens[0].ring
    outside = parse_polynomial("y2^3*y3 + y1^3*y4", ring)
    remainder = reduce(outside, gens)
    assert not remainder.is_zero
    assert remainder == parse_polynomial("2*y3^2*y4^2", ring)


def test_reduce_full_normal_form():
    ring = Ring(("x1", "x2", "x3"), 32003)
    f = parse_polynomial("x2^2 - x1*x3", ring)
    g = parse_polynomial("x2*x3 - x1*x2", ring)
    basis = buchberger([f, g])
    assert is_groebner_basis(basis)
    for b in basis:
        square: dict = {}
        for (e1, c1), (e2, c2) in product(b.terms, repeat=2):
            e = tuple(x + y for x, y in zip(e1, e2))
            square[e] = square.get(e, 0) + c1 * c2
        assert reduce(Polynomial.from_dict(ring, square), basis).is_zero


R7 = Ring(("x1", "x2", "x3"), 7)


def homogeneous(degree: int):
    """Nonzero homogeneous polynomials of the given degree over F_7."""
    mons = [e for e in product(range(degree + 1), repeat=3) if sum(e) == degree]
    return st.dictionaries(
        st.sampled_from(mons), st.integers(1, 6), min_size=1
    ).map(lambda terms: Polynomial.from_dict(R7, terms))


@given(
    f=st.integers(2, 5).flatmap(homogeneous),
    basis=st.lists(st.integers(1, 3).flatmap(homogeneous), min_size=1, max_size=4),
)
def test_reduce_matches_linear_scan_reference(f, basis):
    # over F_7 terms cancel often, which leaves stale entries in the heap
    assert reduce(f, basis) == reduce_reference(f, basis)


def test_reduce_term_cancelled_and_created_again():
    # x2*x3 cancels when x1^2 is divided out and comes back when x1*x2 is;
    # its stale heap entry is popped while x3^2 is still to be processed
    f = parse_polynomial("x1^2 + x1*x2 + x2*x3 + x3^2", R7)
    basis = [
        parse_polynomial("x1^2 + x2*x3", R7),
        parse_polynomial("x1*x2 - x2*x3", R7),
    ]
    expected = parse_polynomial("x2*x3 + x3^2", R7)
    assert reduce(f, basis) == expected
    assert reduce_reference(f, basis) == expected


def evaluate(f: Polynomial, v: tuple[int, ...]) -> int:
    """f(v) in F_p."""
    p = f.ring.p
    total = 0
    for e, c in f.terms:
        term = c
        for x, k in zip(v, e):
            term = term * pow(x, k, p) % p
        total += term
    return total % p


P = 32003
R_BIG = Ring(("x1", "x2", "x3"), P)
nonzero_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.integers(1, P - 1),
    min_size=1,
    max_size=5,
).map(lambda terms: Polynomial.from_dict(R_BIG, terms))
points = st.tuples(*[st.integers(0, P - 1)] * 3)


@given(nonzero_polys, nonzero_polys, points)
def test_s_polynomial_at_a_point(f, g, v):
    ef, cf = f.leading_term()
    eg, cg = g.leading_term()
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))

    def shifted(h: Polynomial, head: tuple[int, ...], c: int) -> int:
        shift = Polynomial.monomial(R_BIG, tuple(a - b for a, b in zip(lcm, head)))
        return evaluate(shift, v) * pow(c, -1, P) * evaluate(h, v)

    expected = (shifted(f, ef, cf) - shifted(g, eg, cg)) % P
    assert evaluate(s_polynomial(f, g), v) == expected


def test_reduction_to_zero_with_three_element_basis():
    ring = Ring(("x1", "x2", "x3", "x4"), 32003)
    f = parse_polynomial("x2^2 - x1*x3", ring)
    g = parse_polynomial("x2*x3 - x1*x4", ring)
    h = parse_polynomial("x3^2 - x2*x4", ring)
    assert reduce(s_polynomial(f, g), [f, g, h]).is_zero


@st.composite
def small_homogeneous_ideals(draw):
    """Up to three homogeneous generators of degree <= 3 in n <= 4
    variables over F_7 or F_32003."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from([7, 32003]))
    ring = Ring.make(n, p)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        mons = [e for e in product(range(degree + 1), repeat=n) if sum(e) == degree]
        coefficients = st.integers(1, p - 1)
        terms = draw(
            st.dictionaries(st.sampled_from(mons), coefficients, min_size=1, max_size=4)
        )
        gens.append(Polynomial.from_dict(ring, terms))
    return gens


@given(small_homogeneous_ideals())
@example(twisted_cubic())
@example(monomial_curve(5, 2))
@example(monomial_curve(7, 3))
def test_buchberger_matches_macaulay_basis(gens):
    basis = buchberger(gens)
    top = max(g.degree() for g in basis)
    assert macaulay_basis(gens, top + 1) == set(basis)


def test_curve_initial_ideal():
    basis = buchberger(monomial_curve(5, 2))
    assert initial_ideal(basis).gens == frozenset(
        {(1, 1, 0, 0), (0, 5, 0, 0), (3, 0, 2, 0), (4, 0, 1, 0), (5, 0, 0, 0)}
    )


def test_every_computed_basis_passes_the_s_polynomial_check():
    for gens in [twisted_cubic(), monomial_curve(3, 2), monomial_curve(5, 2)]:
        assert is_groebner_basis(buchberger(gens))


def test_incomplete_set_is_not_a_basis():
    f1, _, f3 = twisted_cubic()
    assert not is_groebner_basis([f1, f3])


def test_basis_invariant_under_permutation_and_scaling():
    gens = monomial_curve(5, 2)
    expected = set(buchberger(gens))
    rng = random.Random(7)
    for _ in range(20):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = []
        for g in shuffled:
            k = rng.randrange(1, g.ring.p)
            scaled.append(Polynomial.from_dict(g.ring, {e: c * k for e, c in g.terms}))
        assert set(buchberger(scaled)) == expected


def test_basis_is_groebner_and_independent_of_generator_order():
    rng = random.Random(3)
    for gens in [twisted_cubic(), monomial_curve(5, 2), monomial_curve(7, 3)]:
        basis = buchberger(gens)
        assert is_groebner_basis(basis)
        for _ in range(3):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            assert buchberger(shuffled) == basis


def test_strongly_stable_monomial_input_keeps_its_ideal():
    # 89 monomial generators: about 3,900 pairs in the queue
    J = random_strongly_stable_ideal(11, 5, 8)
    assert len(J.gens) == 89
    assert initial_ideal(buchberger(monomial_gens(J))) == J


def test_buchberger_rejects_bad_input():
    ring = Ring(("x1", "x2"), 32003)
    with pytest.raises(ValueError):
        buchberger([])
    with pytest.raises(ValueError):
        buchberger([Polynomial.zero(ring)])
    with pytest.raises(ValueError):
        buchberger([parse_polynomial("x1^2 + x2", ring)])


def test_initial_ideal_of_monomial_input_is_itself():
    ring = Ring.make(3, 32003)
    gens = [
        Polynomial.monomial(ring, (2, 0, 0)),
        Polynomial.monomial(ring, (1, 1, 0)),
        Polynomial.monomial(ring, (0, 3, 1)),
    ]
    basis = buchberger(gens)
    assert initial_ideal(basis) == MonomialIdeal(
        3, frozenset({(2, 0, 0), (1, 1, 0), (0, 3, 1)})
    )


# ---------------------------------------------------------------------------
# seeded coordinate changes


def test_sample_change_matrix_is_lower_triangular_and_invertible():
    m = sample_change_matrix(32003, 4, 11)
    for i in range(4):
        assert m[i][i] != 0
        for j in range(i + 1, 4):
            assert m[i][j] == 0


def test_sample_change_matrix_deterministic():
    assert sample_change_matrix(101, 3, 5) == sample_change_matrix(101, 3, 5)
    assert matrix_digest(sample_change_matrix(32003, 2, 1000004)) == "39edcae324d4"


def test_identity_change_fixes_polynomials():
    gens = twisted_cubic()
    identity = tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    )
    assert apply_linear_change(gens, identity) == gens


def test_change_preserves_degree_and_homogeneity():
    gens = monomial_curve(5, 2)
    changed, matrix = random_linear_change(gens, 9)
    assert matrix_digest(matrix)
    for before, after in zip(gens, changed):
        assert after.degree() == before.degree()
        assert after.is_homogeneous()


def test_change_substitutes_lower_variables():
    # x2 maps to m[1][0] x1 + m[1][1] x2
    ring = Ring(("x1", "x2"), 7)
    g = parse_polynomial("x2", ring)
    matrix = ((1, 0), (3, 2))
    assert apply_linear_change([g], matrix) == [parse_polynomial("3*x1 + 2*x2", ring)]


@given(
    nonzero_polys,
    st.tuples(*[st.tuples(*[st.integers(0, P - 1)] * 3)] * 3),
    points,
)
def test_linear_change_at_a_point(g, matrix, v):
    image = tuple(sum(a * x for a, x in zip(row, v)) % P for row in matrix)
    assert evaluate(apply_linear_change([g], matrix)[0], v) == evaluate(g, image)


@pytest.mark.parametrize(
    "matrix",
    [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),  # square, but 3 x 3 for 4 variables
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),  # 3 rows of 4
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)),  # 4 rows of 3
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 1)),  # 5 x 4
    ],
)
def test_change_matrix_must_be_square_of_ring_size(matrix):
    with pytest.raises(ValueError, match="4 x 4"):
        apply_linear_change(twisted_cubic(), matrix)
