"""Definitional cross-checks for the staircase pipeline.

The fast pipeline reads level values off staircase corners.  This module
recomputes the same quantities straight from their definitions:

* a_def: the top degree in which the saturation by the last variable
  differs from the evaluated ideal, found by counting the added monomials
  degree by degree;
* r_def: the top degree of a nonzero graded piece of an Artinian quotient,
  found by counting standard monomials degree by degree.

Both searches run up to a certified ceiling, so a persistent difference is
reported as infinite rather than silently truncated.  cross_check takes
the level ideals the pipeline certified from its report and compares every
reported level value against its definitional counterpart on exactly the
ideal it was read from.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monideal import (
    MonomialIdeal,
    difference_degree_counts,
    evaluate_zero,
    gap_search_ceiling,
    graded_dim_quotient,
    lcm_degree,
    saturate_by_var,
)
from .regularity import RegularityReport, Value, compute_report
from .ring import Polynomial
from .staircase import NEG_INF

POS_INF = float("inf")


def a_def(J: MonomialIdeal, i: int, ceiling: int | None = None) -> Value:
    """Level value at level i of J, straight from the definition.

    Evaluates the last i variables to zero, saturates the result by its
    last variable, and returns the top degree in which the two ideals
    differ: -infinity when they agree, +infinity when the difference
    persists at the search ceiling.  The default ceiling is certified
    (a finite difference is exhausted below it and an infinite one is
    still visible at it); an explicit lower ceiling may flag a large
    finite value as infinite.
    """
    value, _, _ = a_def_with_trace(J, i, ceiling)
    return value


def a_def_with_trace(
    J: MonomialIdeal, i: int, ceiling: int | None = None
) -> tuple[Value, dict[int, int], int]:
    """a_def along with the per-degree counts and the ceiling used."""
    if not 0 <= i <= J.s - 1:
        raise ValueError(f"level {i} out of range for {J.s} variables")
    level = evaluate_zero(J, i)
    saturated = saturate_by_var(level, level.s)
    if ceiling is None:
        ceiling = gap_search_ceiling(level)
    elif ceiling < 1:
        raise ValueError("ceiling must be positive")
    counts = difference_degree_counts(level, saturated, ceiling)
    if counts.get(ceiling, 0) > 0:
        return POS_INF, counts, ceiling
    positive = [deg for deg, cnt in counts.items() if cnt > 0]
    return (max(positive) if positive else NEG_INF), counts, ceiling


def r_def(J: MonomialIdeal, ceiling: int | None = None) -> int:
    """Top degree of a nonzero graded piece of the quotient by J, straight
    from the definition: count standard monomials degree by degree until
    they vanish.  Raises when the quotient is not Artinian."""
    if J.is_unit:
        raise ValueError("unit ideal: the quotient is zero and has no top degree")
    if ceiling is None:
        deg = lcm_degree(J)
        if deg is None:
            if J.s > 0:
                raise ValueError(
                    "quotient is not Artinian: the zero ideal has infinite dimension"
                )
            deg = 0  # no variables: the quotient is F_p, top degree 0
        ceiling = deg + 1
    for r in range(ceiling + 1):
        if graded_dim_quotient(J, r) == 0:
            return r - 1
    raise ValueError(
        "quotient is not Artinian: graded pieces stay nonzero through the ceiling"
    )


@dataclass(frozen=True)
class LevelCheck:
    level: int
    c_reported: Value
    a_definition: Value
    ceiling: int

    @property
    def match(self) -> bool:
        return self.a_definition == self.c_reported


@dataclass(frozen=True)
class CrossCheckRecord:
    levels: tuple[LevelCheck, ...]
    r_definition: int
    report: RegularityReport

    @property
    def r_reported(self) -> int:
        return self.report.r

    @property
    def r_match(self) -> bool:
        return self.r_definition == self.r_reported

    @property
    def ok(self) -> bool:
        return self.r_match and all(ch.match for ch in self.levels)


def cross_check(
    gens: list[Polynomial], *, seed: int = 0, max_retries: int = 10
) -> CrossCheckRecord:
    """Run the pipeline, then recompute every level value definitionally.

    Each reported value is compared against the definitional value of the
    level ideal it was read from, as recorded in report.levels (after any
    coordinate changes the pipeline made).
    """
    report = compute_report(gens, seed=seed, max_retries=max_retries)
    checks = []
    for i, level in enumerate(report.levels):
        value, _, ceiling = a_def_with_trace(level, 0)
        checks.append(LevelCheck(i, report.c[i], value, ceiling))
    return CrossCheckRecord(tuple(checks), r_def(report.levels[report.d]), report)
