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
    f._check(g)
    p = f.ring.p
    ef, cf = f.leading_term()
    eg, cg = g.leading_term()
    lcm = exp_lcm(ef, eg)
    left = f.term_mul(exp_sub(lcm, ef), pow(cf, -1, p))
    right = g.term_mul(exp_sub(lcm, eg), pow(cg, -1, p))
    return left - right


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
    """Substitute x_j -> sum_h matrix[j][h] * x_h for j below the matrix
    size; later variables are untouched."""
    if not gens:
        return []
    ring = gens[0].ring
    k = len(matrix)
    if not 1 <= k <= ring.n:
        raise ValueError(f"matrix size {k} out of range for {ring.n} variables")
    images = []
    for j in range(1, ring.n + 1):
        if j <= k:
            acc: dict[Exponent, int] = {}
            for h in range(1, j + 1):
                c = matrix[j - 1][h - 1]
                if c:
                    exp = tuple(1 if t == h - 1 else 0 for t in range(ring.n))
                    acc[exp] = c
            images.append(Polynomial.from_dict(ring, acc))
        else:
            images.append(Polynomial.variable(ring, j))
    out = []
    for g in gens:
        total = Polynomial.zero(ring)
        for exp, c in g.terms:
            piece = Polynomial.constant(ring, c)
            for j, e in enumerate(exp):
                for _ in range(e):
                    piece = piece * images[j]
            total = total + piece
        out.append(total)
    return out


def random_linear_change(
    gens: list[Polynomial], k: int, rng_seed: int
) -> tuple[list[Polynomial], Matrix]:
    """Apply a seeded invertible change touching only x_1..x_k."""
    if not gens:
        raise ValueError("no generators given")
    ring = gens[0].ring
    if not 1 <= k <= ring.n:
        raise ValueError(f"change size {k} out of range for {ring.n} variables")
    matrix = sample_change_matrix(ring.p, k, rng_seed)
    return apply_linear_change(gens, matrix), matrix
