"""Monomial ideals as antichains of exponent vectors.

An ideal in s variables is stored by its minimal generators.  The unit
ideal (generated by the zero vector) and the zero ideal (no generators)
are both first-class values.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from .ring import Exponent, exp_degree, exp_divides


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal; gens must already be the minimal generating set."""

    s: int
    gens: frozenset[Exponent]

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError("negative ambient variable count")
        for g in self.gens:
            if len(g) != self.s:
                raise ValueError(f"generator {g} does not have {self.s} entries")
            if any(e < 0 for e in g):
                raise ValueError(f"negative exponent in {g}")
        for a, b in itertools.combinations(self.gens, 2):
            if exp_divides(a, b) or exp_divides(b, a):
                raise ValueError(f"generators {a}, {b} are not an antichain")

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return (0,) * self.s in self.gens

    def max_exponents(self) -> Exponent:
        """Componentwise maximum over the generators (the lcm exponent)."""
        if not self.gens:
            raise ValueError("zero ideal has no generators")
        return tuple(max(g[k] for g in self.gens) for k in range(self.s))


def minimalize(s: int, monomials) -> MonomialIdeal:
    """Ideal minimally generated by the given exponent vectors."""
    mons = set(monomials)
    minimal = {m for m in mons if not any(o != m and exp_divides(o, m) for o in mons)}
    return MonomialIdeal(s, frozenset(minimal))


def contains(J: MonomialIdeal, m: Exponent) -> bool:
    """Membership x^m in J."""
    if len(m) != J.s:
        raise ValueError(f"vector {m} does not have {J.s} entries")
    return any(exp_divides(g, m) for g in J.gens)


def evaluate_zero(J: MonomialIdeal, i: int) -> MonomialIdeal:
    """Set the last i variables to zero: keep generators not involving them,
    truncated to the first s - i entries."""
    if not 0 <= i <= J.s:
        raise ValueError(f"cannot evaluate {i} of {J.s} variables to zero")
    if i == 0:
        return J
    kept = {g[: J.s - i] for g in J.gens if all(e == 0 for e in g[J.s - i :])}
    return MonomialIdeal(J.s - i, frozenset(kept))


def saturate_by_var(J: MonomialIdeal, j: int) -> MonomialIdeal:
    """J : x_j^infinity (1-based j): erase the j-th exponent of every
    generator, then minimalize.  Ambient variable count is unchanged."""
    if not 1 <= j <= J.s:
        raise ValueError(f"variable index {j} out of range for {J.s} variables")
    erased = {g[: j - 1] + (0,) + g[j:] for g in J.gens}
    return minimalize(J.s, erased)


def colon_by_var(J: MonomialIdeal, j: int) -> MonomialIdeal:
    """J : x_j (1-based j): decrement the j-th exponent, floored at zero."""
    if not 1 <= j <= J.s:
        raise ValueError(f"variable index {j} out of range for {J.s} variables")
    shifted = {g[: j - 1] + (max(g[j - 1] - 1, 0),) + g[j:] for g in J.gens}
    return minimalize(J.s, shifted)


def graded_dim_quotient(J: MonomialIdeal, r: int) -> int:
    """Number of degree-r monomials outside J (the Hilbert function of the
    quotient).  Enumerates exponent vectors of degree r, pruning a prefix as
    soon as a generator supported on the processed variables divides it."""
    if r < 0:
        raise ValueError("degree must be nonnegative")
    if J.is_unit:
        return 0
    s = J.s
    if s == 0:
        return 1 if r == 0 else 0
    by_last: dict[int, list[Exponent]] = defaultdict(list)
    for g in J.gens:
        last = max(k for k in range(s) if g[k])
        by_last[last].append(g)

    prefix = [0] * s
    count = 0

    def blocked(pos: int) -> bool:
        return any(
            all(prefix[k] >= g[k] for k in range(pos + 1)) for g in by_last.get(pos, ())
        )

    def walk(pos: int, remaining: int) -> None:
        nonlocal count
        if pos == s - 1:
            prefix[pos] = remaining
            if not blocked(pos):
                count += 1
            return
        for e in range(remaining + 1):
            prefix[pos] = e
            if not blocked(pos):
                walk(pos + 1, remaining - e)
        prefix[pos] = 0

    walk(0, r)
    return count


def krull_dim(J: MonomialIdeal) -> int:
    """Dimension of the quotient: s minus the smallest set of variables
    meeting the support of every generator.  Zero ideal gives s, unit
    ideal gives -1 (zero ring)."""
    if J.is_unit:
        return -1
    supports = [frozenset(k for k in range(J.s) if g[k]) for g in J.gens]
    if not supports:
        return J.s
    universe = sorted(frozenset.union(*supports))
    for size in range(len(universe) + 1):
        for cover in itertools.combinations(universe, size):
            chosen = set(cover)
            if all(chosen & sup for sup in supports):
                return J.s - size
    raise AssertionError("unreachable: full variable set always covers")


def lcm_degree(J: MonomialIdeal) -> int | None:
    """Degree of the lcm of the generators, or None for the zero ideal."""
    return None if J.is_zero else exp_degree(J.max_exponents())


def difference_degree_counts(
    small: MonomialIdeal, big: MonomialIdeal, ceiling: int
) -> dict[int, int]:
    """Per-degree counts of monomials in big but not in small, for degrees
    0..ceiling.  Requires small to be contained in big.

    Every such monomial of positive degree is a variable multiple of a
    smaller one or a minimal generator of big, so a breadth-first walk by
    degree enumerates the difference exactly.
    """
    if small.s != big.s:
        raise ValueError("ambient variable counts differ")
    if ceiling < 0:
        raise ValueError("ceiling must be nonnegative")
    for g in small.gens:
        if not contains(big, g):
            raise ValueError("small ideal is not contained in big ideal")
    s = big.s
    seeds: dict[int, set[Exponent]] = defaultdict(set)
    for g in big.gens:
        if not contains(small, g):
            seeds[exp_degree(g)].add(g)
    counts: dict[int, int] = {}
    current: set[Exponent] = set()
    for degree in range(ceiling + 1):
        layer = set(seeds.get(degree, ()))
        for m in current:
            for j in range(s):
                cand = m[:j] + (m[j] + 1,) + m[j + 1 :]
                if cand not in layer and not contains(small, cand):
                    layer.add(cand)
        counts[degree] = len(layer)
        current = layer
    return counts


def gap_search_ceiling(J: MonomialIdeal) -> int:
    """Degree beyond every possible finite saturation gap of J.

    A finite gap tops out at deg(lcm) - s, while an infinite one is already
    visible at the largest generator degree; the maximum of the two bounds
    is doubled for slack."""
    if J.is_zero:
        return 2
    lcm_deg = exp_degree(J.max_exponents())
    max_gen_deg = max(exp_degree(g) for g in J.gens)
    return 2 * max(1, lcm_deg - J.s + 1, max_gen_deg)
