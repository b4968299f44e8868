"""Buchberger's algorithm under graded revlex, plus seeded linear
coordinate changes.

The basis returned by buchberger() is the reduced Groebner basis: monic,
interreduced, sorted by leading exponent.  It is therefore a canonical
function of the input ideal, independent of generator order or scaling.
"""

from __future__ import annotations

import hashlib
import heapq
import random

from .monideal import MonomialIdeal
from .ring import (
    Exponent,
    Polynomial,
    Ring,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    revlex_key,
)


def _validate_input(gens: list[Polynomial]) -> Ring:
    if not gens:
        raise ValueError("no generators given")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
        if g.is_zero:
            raise ValueError("zero polynomial among the generators")
        if not g.is_homogeneous():
            raise ValueError(f"generator {g} is not homogeneous")
    return ring


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """(lcm/lt(f)) * f - (lcm/lt(g)) * g, with both heads scaled to 1."""
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of a zero polynomial")
    if f.ring != g.ring:
        raise ValueError("polynomials live in different rings")
    p = f.ring.p
    lcm = exp_lcm(f.leading_exponent(), g.leading_exponent())
    acc: dict[Exponent, int] = {}
    for h, sign in ((f, 1), (g, -1)):
        head, c = h.leading_term()
        shift = exp_sub(lcm, head)
        scale = sign * pow(c, -1, p)
        for e, c2 in h.terms:
            target = exp_add(e, shift)
            acc[target] = acc.get(target, 0) + scale * c2
    return Polynomial.from_dict(f.ring, acc)


def reduce(f: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Full normal form of f: no term of the result is divisible by any
    leading exponent of the basis."""
    ring = f.ring
    p = ring.p
    heads = []
    for g in basis:
        if g.is_zero:
            raise ValueError("zero polynomial in reducing basis")
        e, c = g.leading_term()
        heads.append((e, pow(c, -1, p), g))
    # Terms are taken largest first.  The heap, keyed on descending graded
    # revlex, holds an entry for every exponent in work; an entry whose
    # exponent has since left work (cancelled, or already taken) is stale.
    work = dict(f.terms)
    heap = [(-sum(e), e[::-1], e) for e in work]
    heapq.heapify(heap)
    out: dict[Exponent, int] = {}
    while work:
        exp = heapq.heappop(heap)[2]
        coeff = work.pop(exp, 0)
        if not coeff:
            continue
        for e, cinv, g in heads:
            if exp_divides(e, exp):
                shift = exp_sub(exp, e)
                scale = coeff * cinv % p
                for e2, c2 in g.terms:
                    if e2 == e:
                        continue
                    target = tuple(a + b for a, b in zip(e2, shift))
                    old = work.get(target, 0)
                    c = (old - scale * c2) % p
                    if c:
                        if not old:
                            heapq.heappush(heap, (-sum(target), target[::-1], target))
                        work[target] = c
                    else:
                        del work[target]
                break
        else:
            out[exp] = coeff
    return Polynomial.from_dict(ring, out)


def _pair_key(basis: list[Polynomial], i: int, j: int) -> tuple:
    lcm = exp_lcm(basis[i].leading_exponent(), basis[j].leading_exponent())
    return (*revlex_key(lcm), i, j)


def buchberger(gens: list[Polynomial]) -> list[Polynomial]:
    """Reduced Groebner basis of the homogeneous ideal generated by gens.

    Pair selection is the normal strategy: smallest lcm degree first, ties
    broken by revlex on the lcm, then by index, which makes the run fully
    deterministic.  Pairs with coprime leading terms are skipped.
    """
    _validate_input(gens)
    basis = [g.monic() for g in gens]
    pairs = [_pair_key(basis, i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(pairs)
    while pairs:
        *_, i, j = heapq.heappop(pairs)
        ei = basis[i].leading_exponent()
        ej = basis[j].leading_exponent()
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue  # coprime heads: S-polynomial always reduces to zero
        h = reduce(s_polynomial(basis[i], basis[j]), basis)
        if not h.is_zero:
            basis.append(h.monic())
            new = len(basis) - 1
            for k in range(new):
                heapq.heappush(pairs, _pair_key(basis, k, new))
    return _interreduce(basis)


def _interreduce(basis: list[Polynomial]) -> list[Polynomial]:
    basis = sorted(basis, key=lambda g: revlex_key(g.leading_exponent()))
    minimal: list[Polynomial] = []
    for g in basis:
        lt = g.leading_exponent()
        if any(exp_divides(h.leading_exponent(), lt) for h in minimal):
            continue
        minimal.append(g)
    return [
        reduce(g, minimal[:k] + minimal[k + 1 :]).monic()
        for k, g in enumerate(minimal)
    ]


def is_groebner_basis(basis: list[Polynomial]) -> bool:
    """Buchberger criterion: every S-polynomial reduces to zero."""
    for j in range(len(basis)):
        for i in range(j):
            if not reduce(s_polynomial(basis[i], basis[j]), basis).is_zero:
                return False
    return True


def initial_ideal(basis: list[Polynomial]) -> MonomialIdeal:
    """Ideal of leading exponents of a reduced basis (an antichain)."""
    if not basis:
        raise ValueError("no basis elements")
    n = basis[0].ring.n
    return MonomialIdeal(n, frozenset(g.leading_exponent() for g in basis))


# ---------------------------------------------------------------------------
# seeded linear coordinate changes


Matrix = tuple[tuple[int, ...], ...]


def sample_change_matrix(p: int, k: int, rng_seed: int) -> Matrix:
    """Lower-triangular k x k matrix over F_p with nonzero diagonal, hence
    always invertible.  Entries are drawn row by row: first the strictly
    lower part of the row, then its diagonal entry."""
    if k < 1:
        raise ValueError("matrix size must be at least 1")
    rng = random.Random(rng_seed)
    rows = []
    for j in range(k):
        row = [rng.randrange(p) for _ in range(j)]
        row.append(rng.randrange(1, p))
        row.extend(0 for _ in range(k - j - 1))
        rows.append(tuple(row))
    return tuple(rows)


def matrix_digest(matrix: Matrix) -> str:
    body = ";".join(",".join(str(e) for e in row) for row in matrix)
    return hashlib.sha256(body.encode()).hexdigest()[:12]


def apply_linear_change(gens: list[Polynomial], matrix: Matrix) -> list[Polynomial]:
    """Substitute x_j -> sum_h matrix[j][h] * x_h for every variable; the
    matrix must be square of the ring's size."""
    if not gens:
        return []
    ring = gens[0].ring
    n, p = ring.n, ring.p
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"change matrix must be {n} x {n}")
    out = []
    for g in gens:
        total: dict[Exponent, int] = {}
        for exp, c in g.terms:
            piece = {(0,) * n: c}
            for j, e in enumerate(exp):
                for _ in range(e):
                    piece = _times_row(piece, matrix[j], p)
            for e2, c2 in piece.items():
                total[e2] = total.get(e2, 0) + c2
        out.append(Polynomial.from_dict(ring, total))
    return out


def _times_row(
    piece: dict[Exponent, int], row: tuple[int, ...], p: int
) -> dict[Exponent, int]:
    """Multiply a term dict by the linear form sum_h row[h] * x_h."""
    acc: dict[Exponent, int] = {}
    for e, c in piece.items():
        for h, a in enumerate(row):
            if a:
                target = e[:h] + (e[h] + 1,) + e[h + 1 :]
                acc[target] = (acc.get(target, 0) + c * a) % p
    return acc


def random_linear_change(
    gens: list[Polynomial], rng_seed: int
) -> tuple[list[Polynomial], Matrix]:
    """Apply a seeded invertible change of all the variables."""
    if not gens:
        raise ValueError("no generators given")
    ring = gens[0].ring
    matrix = sample_change_matrix(ring.p, ring.n, rng_seed)
    return apply_linear_change(gens, matrix), matrix
