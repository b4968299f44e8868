"""Staircase combinatorics for evaluation levels.

For a monomial ideal J in s variables the corner set F(J) collects the
exponent vectors a with x^a outside J but x_j * x^a inside J for every j.
Corners of the successive evaluations J_i of an initial ideal carry the
level values c_i and the top value r used by the regularity formula:

  c_i = max degree of a corner of J_i   (-infinity when there is none),
  r   = max degree of a corner of J_d   (J_d Artinian).

The finiteness test below certifies c_i < infinity before the corner
maximum may be read as c_i; without the certificate the corner maximum of
a badly positioned ideal underestimates an infinite value.
"""

from __future__ import annotations

from collections import defaultdict

from .monideal import MonomialIdeal, contains
from .ring import Exponent, exp_degree, exp_divides

NEG_INF = float("-inf")


def max_degree(exps: frozenset[Exponent]) -> int | float:
    """Largest total degree in a set of exponents; -infinity when empty."""
    return max((exp_degree(a) for a in exps), default=NEG_INF)


def _delete(v: Exponent, j: int) -> Exponent:
    """Remove the j-th coordinate, 1-based."""
    return v[: j - 1] + v[j:]


def is_c_finite(level: MonomialIdeal, nxt: MonomialIdeal) -> bool:
    """Certify that inverting the last live variable adds only finitely
    many monomials at this level.

    level is the level ideal (s variables), nxt the next evaluation
    (s - 1 variables).  The level value is finite exactly when every
    projected generator a outside nxt's generators is, for each coordinate
    j of the smaller space, dominated by some generator of nxt once
    coordinate j is deleted from both.
    """
    s = level.s
    if s < 1:
        raise ValueError("level ideal needs at least one variable")
    if nxt.s != s - 1:
        raise ValueError(f"next evaluation must have {s - 1} variables, got {nxt.s}")
    difference = {_delete(a, s) for a in level.gens} - nxt.gens
    for a in difference:
        for j in range(1, s):
            pa = _delete(a, j)
            if not any(exp_divides(_delete(b, j), pa) for b in nxt.gens):
                return False
    return True


def corners(J: MonomialIdeal) -> frozenset[Exponent]:
    """All socle exponents of J: a with x^a not in J, x_j * x^a in J for
    every j.

    Every corner coordinate a_j equals v_j - 1 for some generator v with
    v_j >= 1, so the search walks the grid of those candidate values,
    pruning a prefix as soon as a generator supported on the processed
    coordinates divides it.
    """
    s = J.s
    if J.is_unit:
        return frozenset()
    if s == 0:
        return frozenset({()})
    candidates = [sorted({g[j] - 1 for g in J.gens if g[j] >= 1}) for j in range(s)]
    if any(not c for c in candidates):
        return frozenset()
    by_last: dict[int, list[Exponent]] = defaultdict(list)
    for g in J.gens:
        by_last[max(k for k in range(s) if g[k])].append(g)

    found: set[Exponent] = set()
    prefix = [0] * s

    def blocked(pos: int) -> bool:
        return any(
            all(prefix[k] >= g[k] for k in range(pos + 1)) for g in by_last.get(pos, ())
        )

    def walk(pos: int) -> None:
        for e in candidates[pos]:
            prefix[pos] = e
            if blocked(pos):
                break  # divisibility is monotone in the candidate value
            if pos == s - 1:
                a = tuple(prefix)
                if all(
                    contains(J, a[:j] + (a[j] + 1,) + a[j + 1 :]) for j in range(s)
                ):
                    found.add(a)
            else:
                walk(pos + 1)
        prefix[pos] = 0

    walk(0)
    return frozenset(found)


def is_artinian(J: MonomialIdeal) -> bool:
    """Finite-dimensional quotient: a pure-power generator in every
    variable (vacuously true with no variables)."""
    for j in range(J.s):
        if not any(all(g[k] == 0 for k in range(J.s) if k != j) for g in J.gens):
            return False
    return True

