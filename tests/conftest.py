"""Shared helpers: deterministic random ideals, curated fixture ideals and
reference implementations."""

from __future__ import annotations

import random

from hypothesis import HealthCheck, settings

from cmreg import (
    DEFAULT_CHAR,
    MonomialIdeal,
    Polynomial,
    Ring,
    minimalize,
    parse_polynomial,
    revlex_key,
)
from cmreg.ring import Exponent, exp_divides, exp_sub

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_monomial_ideal(
    rng: random.Random, s: int, max_entry: int, max_gens: int
) -> MonomialIdeal:
    """Minimalized ideal from up to max_gens random nonzero exponents."""
    count = rng.randint(1, max_gens)
    mons = set()
    for _ in range(count):
        exp = tuple(rng.randint(0, max_entry) for _ in range(s))
        if any(exp):
            mons.add(exp)
    if not mons:
        mons.add(tuple([1] + [0] * (s - 1)))
    return minimalize(s, mons)


def monomial_gens(J: MonomialIdeal, p: int = DEFAULT_CHAR) -> list[Polynomial]:
    """The generators of J as polynomials, in a fresh ring."""
    ring = Ring.make(J.s, p)
    return [Polynomial.monomial(ring, e) for e in J.sorted_gens()]


def twisted_cubic(p: int = DEFAULT_CHAR) -> list[Polynomial]:
    """Ideal of the rational normal curve of degree 3 in coordinates where
    the three quadrics below are already a reduced basis."""
    ring = Ring(("y1", "y2", "y3", "y4"), p)
    return [
        parse_polynomial("y1^2 - y2*y3", ring),
        parse_polynomial("y2^2 - y1*y4", ring),
        parse_polynomial("y1*y2 - y3*y4", ring),
    ]


def monomial_curve(alpha: int, beta: int, p: int = DEFAULT_CHAR) -> list[Polynomial]:
    """Defining ideal of a monomial space curve, alpha > beta >= 1.

    Generated by x1*x2 - x3*x4 together with
    x1^(beta+j) * x3^(alpha-beta-j) - x2^(alpha-j) * x4^j for
    j = 0..alpha-beta.  Its initial ideal is
    (x1*x2, x2^alpha, x1^(beta+1)*x3^(alpha-beta-1), ..., x1^alpha) and
    reg(S/I) = alpha - 1.
    """
    ring = Ring(("x1", "x2", "x3", "x4"), p)
    gens = [parse_polynomial("x1*x2 - x3*x4", ring)]
    for j in range(alpha - beta + 1):
        lhs = f"x1^{beta + j}"
        if alpha - beta - j:
            lhs += f"*x3^{alpha - beta - j}"
        rhs = f"x2^{alpha - j}"
        if j:
            rhs += f"*x4^{j}"
        gens.append(parse_polynomial(f"{lhs} - {rhs}", ring))
    return gens


def reduce_reference(f: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Normal form of f by a linear scan for the largest remaining term.

    The same division steps as cmreg.reduce, without its heap: at every step
    the largest term left is divided by the first basis element whose
    leading exponent divides it.
    """
    ring = f.ring
    p = ring.p
    heads = []
    for g in basis:
        e, c = g.leading_term()
        heads.append((e, pow(c, -1, p), g))
    work = dict(f.terms)
    out: dict[Exponent, int] = {}
    while work:
        exp = max(work, key=revlex_key)
        coeff = work.pop(exp)
        for e, cinv, g in heads:
            if exp_divides(e, exp):
                shift = exp_sub(exp, e)
                scale = coeff * cinv % p
                for e2, c2 in g.terms:
                    if e2 == e:
                        continue
                    target = tuple(a + b for a, b in zip(e2, shift))
                    c = (work.get(target, 0) - scale * c2) % p
                    if c:
                        work[target] = c
                    else:
                        work.pop(target, None)
                break
        else:
            out[exp] = coeff
    return Polynomial.from_dict(ring, out)
