"""Exact Castelnuovo-Mumford regularity over prime fields.

Computes reg(S/I) and its partial values for a homogeneous ideal I in
S = F_p[x_1..x_n] by reading staircase corners off evaluations of the
reverse-lex initial ideal, with seeded coordinate changes when an
evaluation is not in general position and a definitional oracle that
recomputes every reported value independently.

The names below are the entry points the README documents; everything
else is imported from its submodule.
"""

from .monideal import (
    MonomialIdeal,
    colon_by_var,
    evaluate_zero,
    graded_dim_quotient,
    krull_dim,
    minimalize,
    saturate_by_var,
)
from .oracle import CrossCheckRecord, a_def, cross_check, r_def
from .regularity import (
    CurveReport,
    RegularityReport,
    RetriesExhaustedError,
    compute_report,
    curve_report,
    reg_bound,
    zerodivisor_flags,
)
from .ring import DEFAULT_CHAR, ParseError, Polynomial, Ring, parse_polynomial
from .staircase import NEG_INF, corners, is_c_finite, max_degree

__version__ = "0.1.0"

__all__ = [
    "Ring",
    "Polynomial",
    "parse_polynomial",
    "ParseError",
    "DEFAULT_CHAR",
    "NEG_INF",
    "compute_report",
    "RegularityReport",
    "RetriesExhaustedError",
    "curve_report",
    "CurveReport",
    "cross_check",
    "CrossCheckRecord",
    "reg_bound",
    "zerodivisor_flags",
    "MonomialIdeal",
    "minimalize",
    "evaluate_zero",
    "saturate_by_var",
    "colon_by_var",
    "krull_dim",
    "graded_dim_quotient",
    "corners",
    "max_degree",
    "is_c_finite",
    "a_def",
    "r_def",
]
