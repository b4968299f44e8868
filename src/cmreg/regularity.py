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

The report stores only what the walk certified: the level values, their
corners and the level ideals.  r, reg, the partial values
reg_t = max(c_0..c_t) and the lcm degree bound max(deg g_i - n + i, i <= t)
are computed from those.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .groebner import buchberger, initial_ideal, matrix_digest, random_linear_change
from .monideal import MonomialIdeal, evaluate_zero, krull_dim, lcm_degree
from .ring import Exponent, Polynomial, Ring
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
    """What the level walk certified; every other reported number is
    computed from c and levels."""

    n: int
    p: int
    d: int
    c: tuple[Value, ...]
    corners: tuple[tuple[Exponent, ...], ...]
    retries: tuple[RetryRecord, ...]
    levels: tuple[MonomialIdeal, ...]  # the certified level ideal J_i per level

    @property
    def r(self) -> int:
        return int(self.c[self.d])

    @property
    def reg(self) -> int:
        return int(max(self.c))

    @property
    def reg_t(self) -> tuple[Value, ...]:
        return tuple(accumulate(self.c, max))

    @property
    def bound(self) -> tuple[Value, ...]:
        per_level = (_level_bound(J, self.n, i) for i, J in enumerate(self.levels))
        return tuple(accumulate(per_level, max))

    @property
    def attained_t(self) -> int:
        return self.c.index(max(self.c))

    def validate(self) -> None:
        if any(len(a) != self.d + 1 for a in (self.c, self.corners, self.levels)):
            raise RuntimeError("report arrays must have d + 1 entries")
        for t, (value, bound) in enumerate(zip(self.reg_t, self.bound)):
            if value > bound:
                raise RuntimeError(
                    f"lcm degree bound violated at t={t}: {value} > {bound}"
                )


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
    if max_retries < 0:
        raise ValueError(f"max_retries must be nonnegative, got {max_retries}")
    basis = _validated_basis(gens)
    full = initial_ideal(basis)
    return _walk(basis, full, krull_dim(full), seed, max_retries)


def _walk(
    basis: list[Polynomial], full: MonomialIdeal, d: int, seed: int, max_retries: int
) -> RegularityReport:
    """Certify and read the level values c_0..c_d of the ideal with reduced
    Groebner basis `basis`, initial ideal `full` and dimension d."""
    cur = full  # initial ideal of the current evaluated (and transformed) ideal
    cur_gens = basis
    base = 0  # how many trailing variables the current data already drops
    c_values: list[Value] = []
    corner_rows: list[tuple[Exponent, ...]] = []
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
            transformed, matrix = random_linear_change(evaluated, mseed)
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

    ring = basis[0].ring
    report = RegularityReport(
        n=ring.n,
        p=ring.p,
        d=d,
        c=tuple(c_values),
        corners=tuple(corner_rows),
        retries=tuple(retries),
        levels=tuple(levels),
    )
    report.validate()
    return report


def _level_bound(level: MonomialIdeal, n: int, i: int) -> Value:
    """Lcm degree bound of level i, read off its level ideal J_i:
    deg lcm(gens of J_i) - n + i; -infinity when no generator survives."""
    deg = lcm_degree(level)
    return NEG_INF if deg is None else deg - n + i


def reg_bound(J: MonomialIdeal, t: int) -> Value:
    """Lcm degree bound max(deg g_i - s + i, i <= t) over the levels of J
    with surviving generators; -infinity when none survive."""
    if not 0 <= t <= J.s:
        raise ValueError(f"partial index {t} out of range")
    return max(_level_bound(evaluate_zero(J, i), J.s, i) for i in range(t + 1))


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
    full = initial_ideal(basis)
    d = krull_dim(full)
    if d != 2 or not is_artinian(evaluate_zero(full, 2)):
        return CurveReport(noether_ok=False)
    n = full.s
    if any(g[n - 1] > 0 for g in full.gens):
        raise ValueError(
            "an initial generator involves the last variable; "
            "the input is not a saturated ideal in this position"
        )
    # level 0 passes (no generator involves x_n) and level 2 is Artinian,
    # so only the level-1 certificate can fail
    try:
        report = _walk(basis, full, d, 0, 0)
    except RetriesExhaustedError:
        raise ValueError(
            "level-1 value is infinite despite Noether position; "
            "the input is not a saturated curve ideal"
        ) from None
    c1, r, reg = report.c[1], report.r, report.reg

    # the counting function of the added monomials must stabilize at the
    # same degree the corner route produced
    from .oracle import POS_INF, a_def  # oracle imports this module

    gap = a_def(report.levels[1], 0)
    if gap == POS_INF:
        raise RuntimeError("saturation gap persists beyond the certified ceiling")
    h_re_direct = 0 if gap == NEG_INF else int(gap)
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
