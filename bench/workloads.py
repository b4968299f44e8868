"""Seeded input generators for the cmreg benchmark.

Every generator here is independent of the library: polynomials are plain
``{exponent tuple: coefficient}`` dicts, coordinate changes and Borel
closures are computed with this module's own arithmetic, and the library
only ever sees the generator text.  Each case carries its expected answer
from a closed form that does not depend on the pipeline:

* monomial space curves: reg(S/I) = alpha - 1, dim S/I = 2;
* complete intersections of degrees d_1..d_k: reg = sum(d_i - 1)
  (Koszul), dim S/I = n - k;
* strongly stable monomial ideals: reg = max generator degree - 1
  (Eliahou-Kervaire).

Oracle cases that have no closed form (random monomial ideals) carry
``reg=None``; their only check is the definitional oracle's verdict.

A workload is a cycle of case kinds.  ``cycle(name, seed, index)`` builds
the index-th cycle of a workload; the same (name, seed, index) always
gives the same text.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

P = 32003

Exp = tuple[int, ...]
Poly = dict[Exp, int]


@dataclass(frozen=True)
class Case:
    """One ideal as text, with the answer it must produce."""

    kind: str
    names: tuple[str, ...]
    p: int
    gens: tuple[str, ...]
    reg: int | None  # expected reg(S/I); None when only the oracle decides
    d: int | None  # expected dim S/I; None when not known in closed form
    call: str  # "compute_report" or "cross_check"


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p on exponent dicts


def _unit(n: int, j: int) -> Exp:
    return tuple(1 if t == j else 0 for t in range(n))


def _mul(f: Poly, g: Poly, p: int) -> Poly:
    out: Poly = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def _det_nonzero(matrix: list[list[int]], p: int) -> bool:
    """Gaussian elimination mod p; True when the matrix is invertible."""
    m = [row[:] for row in matrix]
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            factor = m[r][col] * inv % p
            if factor:
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[col])]
    return True


def dense_change(polys: list[Poly], n: int, p: int, rng: random.Random) -> list[Poly]:
    """Substitute x_j -> sum_h M[j][h] x_h for a seeded dense invertible M
    acting on all n coordinates."""
    while True:
        matrix = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _det_nonzero(matrix, p):
            break
    images = [{_unit(n, h): c for h, c in enumerate(row) if c} for row in matrix]
    powers: dict[tuple[int, int], Poly] = {}

    def power(j: int, e: int) -> Poly:
        if (j, e) not in powers:
            powers[(j, e)] = (
                {(0,) * n: 1} if e == 0 else _mul(power(j, e - 1), images[j], p)
            )
        return powers[(j, e)]

    out = []
    for f in polys:
        acc: Poly = {}
        for exp, c in f.items():
            piece: Poly = {(0,) * n: c}
            for j, e in enumerate(exp):
                if e:
                    piece = _mul(piece, power(j, e), p)
            for e2, c2 in piece.items():
                acc[e2] = (acc.get(e2, 0) + c2) % p
        out.append({e: c for e, c in acc.items() if c})
    return out


def format_poly(f: Poly, names: tuple[str, ...]) -> str:
    """Text in the library's input syntax, terms in a fixed order."""
    terms = []
    for exp in sorted(f, reverse=True):
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e
        ]
        c = f[exp]
        if c != 1 or not factors:
            factors.insert(0, str(c))
        terms.append("*".join(factors))
    return " + ".join(terms)


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"x{j}" for j in range(1, n + 1))


def _monomials(n: int, degree: int) -> list[Exp]:
    """All exponent vectors of the given degree in n variables."""
    out = []
    for cut in itertools.combinations(range(degree + n - 1), n - 1):
        bounds = (-1, *cut, degree + n - 1)
        out.append(tuple(bounds[k + 1] - bounds[k] - 1 for k in range(n)))
    return out


# ---------------------------------------------------------------------------
# families with closed-form answers


def curve_polys(alpha: int, beta: int) -> list[Poly]:
    """Monomial space curve (s^a, s^(a-b) t^b, s^b t^(a-b), t^a) in the
    binomial presentation x1*x2 - x3*x4,
    x1^(beta+j) x3^(alpha-beta-j) - x2^(alpha-j) x4^j (j = 0..alpha-beta);
    reg(S/I) = alpha - 1."""
    m = P - 1  # -1 mod p
    gens: list[Poly] = [{(1, 1, 0, 0): 1, (0, 0, 1, 1): m}]
    for j in range(alpha - beta + 1):
        gens.append({(beta + j, 0, alpha - beta - j, 0): 1, (0, alpha - j, 0, j): m})
    return gens


def curve_case(alpha: int, beta: int, rng: random.Random | None, call: str) -> Case:
    """A curve, after a dense change of all four coordinates when rng is
    given, else in the coordinates above."""
    polys = curve_polys(alpha, beta)
    if rng is not None:
        polys = dense_change(polys, 4, P, rng)
    names = _names(4)
    return Case(
        kind=f"curve_{alpha}_{beta}" + ("_dense" if rng is not None else ""),
        names=names,
        p=P,
        gens=tuple(format_poly(f, names) for f in polys),
        reg=alpha - 1,
        d=2,
        call=call,
    )


def dense_ci_case(n: int, degrees: tuple[int, ...], rng: random.Random) -> Case:
    """Complete intersection with dense coefficients.

    f_i = x_i^(d_i) + (random combination of the other degree-d_i monomials
    in x_i..x_n).  Under lex order the leading terms are the coprime powers
    x_i^(d_i), so the f_i are a regular sequence by construction; a dense
    invertible change of all coordinates keeps that and spreads the
    coefficients over every monomial.
    """
    polys = []
    for i, d in enumerate(degrees):
        f: Poly = {}
        for exp in _monomials(n - i, d):
            full = (0,) * i + exp
            f[full] = 1 if exp[0] == d else rng.randrange(P)
        polys.append({e: c for e, c in f.items() if c})
    polys = dense_change(polys, n, P, rng)
    names = _names(n)
    return Case(
        kind="ci_" + "".join(map(str, degrees)),
        names=names,
        p=P,
        gens=tuple(format_poly(f, names) for f in polys),
        reg=sum(d - 1 for d in degrees),
        d=n - len(degrees),
        call="compute_report",
    )


def monomial_ci_case(n: int, degrees: tuple[int, ...]) -> Case:
    """Pure powers x_1^(d_1), ..., x_k^(d_k): a regular sequence with
    reg = sum(d_i - 1) and dim = n - k.  Powers of the first variables keep
    every evaluation level certified, so no coordinate change is needed."""
    names = _names(n)
    gens = []
    for i, d in enumerate(degrees):
        exp = [0] * n
        exp[i] = d
        gens.append(format_poly({tuple(exp): 1}, names))
    return Case(
        kind="monomial_ci_" + "".join(map(str, degrees)),
        names=names,
        p=P,
        gens=tuple(gens),
        reg=sum(d - 1 for d in degrees),
        d=n - len(degrees),
        call="compute_report",
    )


def _divides(a: Exp, b: Exp) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimal(mons: set[Exp]) -> set[Exp]:
    """Minimal generators of the ideal generated by mons."""
    memo: dict[Exp, bool] = {}

    def inside(u: Exp) -> bool:
        if u in mons:
            return True
        if u not in memo:
            memo[u] = any(inside(v) for v in _lowered(u))
        return memo[u]

    return {m for m in mons if not any(inside(v) for v in _lowered(m))}


def _lowered(u: Exp) -> list[Exp]:
    """u divided by each variable it contains."""
    return [u[:j] + (e - 1,) + u[j + 1 :] for j, e in enumerate(u) if e]


def borel_closure(mons: set[Exp]) -> set[Exp]:
    """Close under moving one unit of x_j to an earlier x_h (h < j)."""
    seen: set[Exp] = set()
    stack = list(mons)
    while stack:
        a = stack.pop()
        if a in seen:
            continue
        seen.add(a)
        stack.extend(_moves(a))
    return seen


def _moves(a: Exp) -> list[Exp]:
    """Monomials one Borel move above a."""
    out = []
    for j, e in enumerate(a):
        for h in range(j) if e else ():
            b = list(a)
            b[j] -= 1
            b[h] += 1
            out.append(tuple(b))
    return out


def strongly_stable_case(
    n: int, gens: int, degrees: tuple[int, int], rng: random.Random
) -> Case:
    """Strongly stable ideal with exactly `gens` minimal generators.

    Random monomials with degree in the closed range `degrees` are
    Borel-closed and minimalized until there are at least `gens`
    generators (starting over if twenty monomials do not get there).
    Then generators of top degree that no other generator reaches by one
    Borel move are dropped one at a time; each drop removes exactly one
    generator and keeps the ideal strongly stable.
    reg = max generator degree - 1 (Eliahou-Kervaire).
    """
    seeds: set[Exp] = set()
    minimal: set[Exp] = set()
    while len(minimal) < gens:
        if len(seeds) == 20:
            seeds = set()
        exp = [0] * n
        for _ in range(rng.randint(*degrees)):
            exp[rng.randrange(n)] += 1
        seeds.add(tuple(exp))
        minimal = _minimal(borel_closure(seeds))
    while len(minimal) > gens:
        top = max(sum(m) for m in minimal)
        reached = {b for m in minimal if sum(m) == top for b in _moves(m)}
        droppable = sorted(m for m in minimal if sum(m) == top and m not in reached)
        minimal.remove(rng.choice(droppable))
    if not _strongly_stable(minimal):
        raise RuntimeError(f"generator bug: {sorted(minimal)} is not strongly stable")
    names = _names(n)
    return Case(
        kind=f"borel_{n}_{gens}",
        names=names,
        p=P,
        gens=tuple(format_poly({m: 1}, names) for m in sorted(minimal)),
        reg=max(sum(m) for m in minimal) - 1,
        d=None,
        call="compute_report",
    )


def _strongly_stable(gens: set[Exp]) -> bool:
    return all(
        any(_divides(o, b) for o in gens) for g in gens for b in _moves(g)
    )


def random_monomial_case(n: int, degrees: tuple[int, ...], rng: random.Random) -> Case:
    """Random monomial ideal in n variables with minimal generators of the
    given degrees that is not strongly stable, so the pipeline usually
    needs a coordinate change; checked by the oracle.  Fixing the degrees
    per case keeps the cost spread of the family narrow."""
    while True:
        mons = set()
        for d in degrees:
            exp = [0] * n
            for _ in range(d):
                exp[rng.randrange(n)] += 1
            mons.add(tuple(exp))
        if len(_minimal(mons)) == len(degrees) and not _strongly_stable(mons):
            break
    names = _names(n)
    return Case(
        kind=f"random_monomial_{n}_" + "".join(map(str, degrees)),
        names=names,
        p=P,
        gens=tuple(format_poly({m: 1}, names) for m in sorted(mons)),
        reg=None,
        d=None,
        call="cross_check",
    )


# ---------------------------------------------------------------------------
# workloads


def cycle(workload: str, seed: int, index: int) -> list[Case]:
    """The index-th cycle of cases of a workload; a pure function of its
    arguments.  Every cycle holds the same case kinds in the same numbers,
    so any run of whole cycles has the same mix of kinds."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "generic":
        # (5, 3) three times and (6, 2) twice per cycle, so that the median
        # and the tail percentile each fall inside a block of equal-cost calls
        shapes = ((5, 2), (5, 3), (5, 3), (5, 3), (6, 2), (6, 2), (6, 3))
        curves = [curve_case(a, b, rng, "compute_report") for a, b in shapes]
        cis = [dense_ci_case(5, degs, rng) for degs in ((2, 2, 2), (2, 2, 3), (3, 3))]
        return curves + cis
    if workload == "monomial":
        borel = [
            strongly_stable_case(n, gens, degrees, rng)
            for n, gens, degrees in (
                (3, 15, (5, 7)),
                (4, 20, (3, 6)),
                (4, 25, (3, 6)),
                (5, 25, (3, 5)),
                (5, 35, (3, 5)),
            )
        ]
        cis = [
            monomial_ci_case(5, tuple(rng.randint(2, 5) for _ in range(3))),
            monomial_ci_case(4, tuple(rng.randint(2, 6) for _ in range(2))),
        ]
        return borel + cis
    if workload == "oracle":
        small = [
            random_monomial_case(n, degrees, rng)
            for _ in range(12)
            for n, degrees in ORACLE_SHAPES
        ]
        return [curve_case(22, 1, None, "cross_check"), *small]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("generic", "monomial", "oracle")

# (variables, generator degrees) of the oracle's random monomial ideals
ORACLE_SHAPES = (
    (3, (2, 3)),
    (4, (2, 2)),
    (3, (2, 2, 3)),
    (3, (2, 3, 4)),
    (3, (3, 3, 3)),
    (4, (2, 2, 3)),
    (4, (2, 2, 2, 2)),
)
