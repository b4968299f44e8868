"""Shared helpers: deterministic random ideals, curated fixture ideals and
reference implementations."""

from __future__ import annotations

import itertools
import random
from collections import deque

from hypothesis import HealthCheck, settings

from cmreg import (
    DEFAULT_CHAR,
    MonomialIdeal,
    ParseError,
    Polynomial,
    Ring,
    minimalize,
    parse_polynomial,
)
from cmreg.monideal import contains
from cmreg.ring import Exponent, exp_divides, exp_sub, revlex_key

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
    return [Polynomial.monomial(ring, e) for e in sorted(J.gens)]


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


def macaulay_basis(gens: list[Polynomial], top: int) -> set[Polynomial]:
    """Reduced Groebner basis elements of degree <= top of the homogeneous
    ideal generated by gens, by row reduction of Macaulay matrices over F_p
    (Lazard 1983); kept only to cross-check cmreg.buchberger.

    In degree t the rows are the products m*f with deg m = t - deg f, and
    the columns are the degree-t monomials in descending revlex.  Each row
    of the reduced echelon form is its pivot minus a combination of
    standard monomials, so the rows whose pivot no pivot of lower degree
    divides are exactly the reduced basis elements of degree t.
    """
    ring = gens[0].ring
    n, p = ring.n, ring.p
    # all exponent vectors of each degree, in descending revlex: at equal
    # degree x^a > x^b when the last nonzero entry of a - b is negative,
    # which is ascending order of the reversed tuples
    by_degree: dict[int, list[Exponent]] = {t: [] for t in range(top + 1)}
    for a in itertools.product(range(top + 1), repeat=n):
        if sum(a) <= top:
            by_degree[sum(a)].append(a)
    for mons in by_degree.values():
        mons.sort(key=lambda a: a[::-1])

    def subtract(row: dict[int, int], factor: int, other: dict[int, int]) -> None:
        for k, c in other.items():
            v = (row.get(k, 0) - factor * c) % p
            if v:
                row[k] = v
            else:
                row.pop(k, None)

    lower_pivots: list[Exponent] = []
    found: set[Polynomial] = set()
    for t in range(top + 1):
        columns = by_degree[t]
        index = {a: k for k, a in enumerate(columns)}
        echelon: dict[int, dict[int, int]] = {}  # pivot column -> row, pivot 1
        for f in gens:
            shift_degree = t - sum(f.terms[0][0])
            for m in by_degree.get(shift_degree, ()):
                row = {index[tuple(x + y for x, y in zip(e, m))]: c for e, c in f.terms}
                while row:
                    lead = min(row)
                    if lead not in echelon:
                        inv = pow(row[lead], -1, p)
                        echelon[lead] = {k: c * inv % p for k, c in row.items()}
                        break
                    subtract(row, row[lead], echelon[lead])
        # back substitution, smallest pivot monomials first: each row then
        # meets only rows that are already reduced
        for lead in sorted(echelon, reverse=True):
            row = echelon[lead]
            for k in sorted(k for k in row if k != lead and k in echelon):
                subtract(row, row[k], echelon[k])
        for lead, row in echelon.items():
            if not any(exp_divides(q, columns[lead]) for q in lower_pivots):
                terms = {columns[k]: c for k, c in row.items()}
                found.add(Polynomial.from_dict(ring, terms))
        lower_pivots.extend(columns[lead] for lead in echelon)
    return found


def revlex_compare(a: Exponent, b: Exponent) -> int:
    """Return -1, 0 or 1 as x^a <, = or > x^b in graded revlex.

    At equal total degree x^a > x^b exactly when the last nonzero entry
    of a - b is negative.
    """
    if len(a) != len(b):
        raise ValueError(f"exponent lengths differ: {len(a)} vs {len(b)}")
    ka, kb = revlex_key(a), revlex_key(b)
    return (ka > kb) - (ka < kb)


def parse_exponent(text: str, ring: Ring) -> Exponent:
    """Parse a single monomial (one term, coefficient 1 mod scaling ignored)."""
    f = parse_polynomial(text, ring)
    if len(f.terms) != 1:
        raise ParseError(f"expected a single monomial, got {len(f.terms)} terms")
    return f.terms[0][0]


def corners_reference(J: MonomialIdeal) -> frozenset[Exponent]:
    """Reference construction of the corner set, kept only to cross-check
    cmreg.corners: enumerate families (v_1..v_s) of generators whose j-th
    member strictly dominates the others in coordinate j, form the
    componentwise maximum minus (1,..,1), and keep vectors outside J."""
    s = J.s
    if J.is_unit:
        return frozenset()
    if s == 0:
        return frozenset({()})
    gens = sorted(J.gens)
    found: set[Exponent] = set()
    for family in itertools.product(gens, repeat=s):
        if not all(
            all(family[j][j] > family[h][j] for h in range(s) if h != j)
            for j in range(s)
        ):
            continue
        a = tuple(max(v[k] for v in family) - 1 for k in range(s))
        if not contains(J, a):
            found.add(a)
    return frozenset(found)


def borel_closure(s: int, monomials: frozenset[Exponent] | set[Exponent]) -> frozenset[Exponent]:
    """Close a set of exponents under moving one unit of any exponent to an
    earlier position (x_j -> x_h with h < j)."""
    seen: set[Exponent] = set()
    queue = deque(tuple(m) for m in monomials)
    while queue:
        a = queue.popleft()
        if a in seen:
            continue
        if len(a) != s:
            raise ValueError(f"exponent {a} does not have {s} entries")
        seen.add(a)
        for j in range(s):
            if a[j] == 0:
                continue
            for h in range(j):
                b = list(a)
                b[j] -= 1
                b[h] += 1
                queue.append(tuple(b))
    return frozenset(seen)


def is_strongly_stable(J: MonomialIdeal) -> bool:
    """True when every one-unit move toward an earlier variable keeps each
    generator inside the ideal."""
    for g in J.gens:
        for j in range(J.s):
            if g[j] == 0:
                continue
            for h in range(j):
                b = list(g)
                b[j] -= 1
                b[h] += 1
                if not contains(J, tuple(b)):
                    return False
    return True


def random_strongly_stable_ideal(rng_seed: int, n: int, dmax: int) -> MonomialIdeal:
    """Strongly stable monomial ideal generated by the closure of one to
    three random monomials of positive degree."""
    if n < 1 or dmax < 1:
        raise ValueError("need at least one variable and positive degrees")
    rng = random.Random(rng_seed)
    seeds: set[Exponent] = set()
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(1, dmax)
        exp = [0] * n
        for _ in range(degree):
            exp[rng.randrange(n)] += 1
        seeds.add(tuple(exp))
    return minimalize(n, borel_closure(n, seeds))
