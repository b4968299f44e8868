"""Castelnuovo-Mumford regularity from evaluations of the initial ideal.

Pipeline for a homogeneous proper ideal I over F_p:

1. reduced Groebner basis under graded revlex, initial ideal J = In(I),
   d = dim S/I read off J;
2. for each level i = 0..d, evaluate the last i variables of J to zero,
   certify that the level value c_i is finite (for the top level: that the
   evaluation is Artinian), and read c_i from the staircase corners;
3. when a certificate fails, apply a seeded invertible change of the first
   n - i coordinates and recompute the initial ideal of the evaluated
   ideal, which is all that levels >= i depend on; values already
   certified at lower levels are unaffected by such a change;
4. r = top corner degree of the Artinian evaluation at level d, and
   reg(S/I) = max(c_0..c_{d-1}, r).

Partial values reg_t = max(c_0..c_t) and the lcm degree bound
max(deg g_i - n + i, i <= t) are reported per level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import buchberger, initial_ideal, matrix_digest, random_linear_change
from .monideal import (
    MonomialIdeal,
    difference_degree_counts,
    evaluate_zero,
    gap_search_ceiling,
    krull_dim,
    lcm_degree,
    saturate_by_var,
)
from .ring import Exponent, Polynomial, Ring, exp_degree
from .staircase import (
    NEG_INF,
    corners,
    is_artinian,
    is_c_finite,
    max_degree,
)

Value = int | float  # a level value: a natural number or -infinity


class RetriesExhaustedError(RuntimeError):
    """Finiteness kept failing at one level through every allowed retry."""

    def __init__(self, level: int, detail: str):
        super().__init__(f"level {level}: {detail}")
        self.level = level


@dataclass(frozen=True)
class RetryRecord:
    level: int
    attempt: int
    seed: int
    matrix_digest: str


@dataclass(frozen=True)
class RegularityReport:
    n: int
    p: int
    d: int
    c: tuple[Value, ...]
    corners: tuple[tuple[Exponent, ...], ...]
    r: int
    reg: int
    reg_t: tuple[Value, ...]
    bound: tuple[int, ...]
    attained_t: int
    retries: tuple[RetryRecord, ...]
    levels: tuple[MonomialIdeal, ...]  # the certified level ideal J_i per level

    def validate(self) -> None:
        d = self.d
        arrays = (self.c, self.reg_t, self.bound, self.levels)
        if any(len(a) != d + 1 for a in arrays):
            raise RuntimeError("report arrays must have d + 1 entries")
        expected = self.r if d == 0 else max([*self.c[:d], self.r])
        if self.reg != expected:
            raise RuntimeError(f"reg {self.reg} != max of level values {expected}")
        if self.c[d] != self.r:
            raise RuntimeError("top level value must equal r")
        for t in range(d):
            if self.reg_t[t] > self.reg_t[t + 1]:
                raise RuntimeError("partial values must be nondecreasing")
        if self.reg_t[d] != self.reg:
            raise RuntimeError("last partial value must equal reg")
        for t in range(d + 1):
            if self.reg_t[t] > self.bound[t]:
                raise RuntimeError(
                    f"lcm degree bound violated at t={t}: "
                    f"{self.reg_t[t]} > {self.bound[t]}"
                )

    @property
    def ell_reg(self) -> dict[int, Value]:
        """The same partial values indexed by n - t."""
        return {self.n - t: self.reg_t[t] for t in range(self.d + 1)}


@dataclass(frozen=True)
class CurveReport:
    noether_ok: bool
    c1: Value | None = None
    r: int | None = None
    reg: int | None = None
    H_E: int | None = None
    H_Re: int | None = None
    last_shift: int | None = None


def derive_matrix_seed(seed: int, level: int, attempt: int) -> int:
    """Deterministic seed chain for retry matrices."""
    return (seed * 1_000_003 + level + 1) * 1_000_003 + attempt


def _validated_basis(gens: list[Polynomial]) -> list[Polynomial]:
    if not gens:
        raise ValueError("no generators given")
    for g in gens:
        if not g.is_zero and g.degree() == 0:
            raise ValueError("constant generator: the ideal must be proper")
    basis = buchberger(gens)
    if any(g.degree() == 0 for g in basis):
        raise ValueError("generators span the unit ideal")
    return basis


def _evaluate_polys(gens: list[Polynomial], drop: int) -> list[Polynomial]:
    """Set the last `drop` variables to zero and shrink the ring; zero
    images are discarded."""
    if drop == 0:
        return list(gens)
    ring = gens[0].ring
    keep = ring.n - drop
    small = Ring(ring.names[:keep], ring.p)
    out = []
    for g in gens:
        acc = {
            exp[:keep]: c for exp, c in g.terms if all(e == 0 for e in exp[keep:])
        }
        f = Polynomial.from_dict(small, acc)
        if not f.is_zero:
            out.append(f)
    return out


def compute_report(
    gens: list[Polynomial], *, seed: int = 0, max_retries: int = 10
) -> RegularityReport:
    """Full regularity report for the ideal generated by gens."""
    basis = _validated_basis(gens)
    ring = gens[0].ring
    n = ring.n
    full = initial_ideal(basis)
    d = krull_dim(full)

    cur = full  # initial ideal of the current evaluated (and transformed) ideal
    cur_gens = basis
    base = 0  # how many trailing variables the current data already drops
    c_values: list[Value] = []
    corner_rows: list[tuple[Exponent, ...]] = []
    level_bounds: list[int] = []
    retries: list[RetryRecord] = []
    levels: list[MonomialIdeal] = []

    for i in range(d + 1):
        attempt = 0
        while True:
            level_ideal = evaluate_zero(cur, i - base)
            if i < d:
                ok = is_c_finite(level_ideal, evaluate_zero(cur, i + 1 - base))
            else:
                ok = is_artinian(level_ideal)
            if ok:
                break
            attempt += 1
            if attempt > max_retries:
                raise RetriesExhaustedError(
                    i,
                    f"finiteness still failing after {max_retries} retries; "
                    f"level generators {sorted(level_ideal.gens)}",
                )
            mseed = derive_matrix_seed(seed, i, attempt)
            evaluated = _evaluate_polys(cur_gens, i - base)
            if not evaluated:
                raise RetriesExhaustedError(
                    i, "level ideal is zero; no coordinate change can repair it"
                )
            transformed, matrix = random_linear_change(
                evaluated, evaluated[0].ring.n, mseed
            )
            cur_gens = buchberger(transformed)
            cur = initial_ideal(cur_gens)
            base = i
            retries.append(RetryRecord(i, attempt, mseed, matrix_digest(matrix)))
            if krull_dim(cur) != d - i:
                raise RuntimeError(
                    "dimension drifted after a coordinate change; "
                    "lower-level certificates must be wrong"
                )
        # a passed level always has surviving generators: a zero level ideal
        # would have failed either the previous finiteness check or the
        # Artinian check here
        F = corners(level_ideal)
        c_values.append(max_degree(F))
        corner_rows.append(tuple(sorted(F)))
        levels.append(level_ideal)
        level_bounds.append(exp_degree(level_ideal.max_exponents()) - n + i)

    r = int(c_values[d])
    reg = int(max([*c_values[:d], r]))
    reg_t = tuple(max(c_values[: t + 1]) for t in range(d + 1))
    bound = tuple(max(level_bounds[: t + 1]) for t in range(d + 1))
    top = max(c_values)
    attained_t = min(t for t in range(d + 1) if c_values[t] == top)
    report = RegularityReport(
        n=n,
        p=ring.p,
        d=d,
        c=tuple(c_values),
        corners=tuple(corner_rows),
        r=r,
        reg=reg,
        reg_t=reg_t,
        bound=bound,
        attained_t=attained_t,
        retries=tuple(retries),
        levels=tuple(levels),
    )
    report.validate()
    return report


def reg_bound(J: MonomialIdeal, t: int) -> Value:
    """Lcm degree bound max(deg g_i - s + i, i <= t) over the levels of J
    with surviving generators; -infinity when none survive."""
    if not 0 <= t <= J.s:
        raise ValueError(f"partial index {t} out of range")
    values = []
    for i in range(t + 1):
        deg = lcm_degree(J, i)
        if deg is not None:
            values.append(deg - J.s + i)
    return max(values) if values else NEG_INF


def zerodivisor_flags(report: RegularityReport) -> list[bool]:
    """Per level i < d: True when the next variable to be evaluated is a
    nonzerodivisor on the corresponding quotient (level value -infinity)."""
    return [report.c[i] == NEG_INF for i in range(report.d)]


def curve_report(gens: list[Polynomial]) -> CurveReport:
    """Specialized report for saturated height-(n-2) ideals in Noether
    position with respect to the last two variables (space curves).

    No coordinate changes are attempted: either the position is certified
    (noether_ok) and the closed formulas apply, or the report carries
    noether_ok = False and no values.
    """
    basis = _validated_basis(gens)
    ring = gens[0].ring
    n = ring.n
    full = initial_ideal(basis)
    d = krull_dim(full)
    if d != 2 or n < 2 or not is_artinian(evaluate_zero(full, 2)):
        return CurveReport(noether_ok=False)
    if any(g[n - 1] > 0 for g in full.gens):
        raise ValueError(
            "an initial generator involves the last variable; "
            "the input is not a saturated ideal in this position"
        )
    level_one = evaluate_zero(full, 1)
    level_two = evaluate_zero(full, 2)
    if not is_c_finite(level_one, level_two):
        raise ValueError(
            "level-1 value is infinite despite Noether position; "
            "the input is not a saturated curve ideal"
        )
    c1 = max_degree(corners(level_one))
    r = int(max_degree(corners(level_two)))
    reg = int(max(c1, r))

    # the counting function of the added monomials must stabilize at the
    # same degree the corner route produced
    ceiling = gap_search_ceiling(level_one)
    counts = difference_degree_counts(
        level_one, saturate_by_var(level_one, level_one.s), ceiling
    )
    if counts.get(ceiling, 0) > 0:
        raise RuntimeError("saturation gap persists beyond the certified ceiling")
    positive = [deg for deg, cnt in counts.items() if cnt > 0]
    h_re_direct = max(positive) if positive else 0
    h_re_formula = 0 if c1 == NEG_INF else int(c1)
    if h_re_direct != h_re_formula:
        raise RuntimeError(
            f"stabilization degree {h_re_direct} disagrees with corner value "
            f"{h_re_formula}"
        )

    acm = c1 == NEG_INF
    return CurveReport(
        noether_ok=True,
        c1=c1,
        r=r,
        reg=reg,
        H_E=r + 1 if acm else None,
        H_Re=h_re_direct,
        last_shift=None if acm else int(c1) + n - 1,
    )
