"""Command line interface.

Input files describe a homogeneous ideal over a prime field:

    ring <p> <name_1> ... <name_n>   # header: characteristic and variables
    mode monomial                    # optional: require single-term lines
    <generator>                      # one polynomial per line
    # comments and blank lines are ignored

Subcommands:

* compute: full regularity report (level values, r, reg, partial values,
  lcm degree bounds, retry transcript);
* curve: closed-formula report for saturated space-curve ideals in Noether
  position, with the stabilized counting function cross-checked;
* oracle: recompute every reported value definitionally and compare.

Exit codes: 0 success, 2 usage or input error, 3 retries exhausted,
4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .oracle import POS_INF, CrossCheckRecord, cross_check
from .regularity import (
    CurveReport,
    RegularityReport,
    RetriesExhaustedError,
    Value,
    compute_report,
    curve_report,
)
from .ring import ParseError, Polynomial, Ring, parse_polynomial
from .staircase import NEG_INF


def parse_input(
    text: str, *, char_override: int | None = None, force_monomial: bool = False
) -> tuple[Ring, list[Polynomial], bool]:
    """Parse an input file into a ring and its generator list."""
    ring: Ring | None = None
    gens: list[Polynomial] = []
    monomial_mode = force_monomial
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if ring is None:
            if parts[0] != "ring" or len(parts) < 3:
                raise ParseError(
                    f"line {lineno}: expected 'ring <p> <name_1> ... <name_n>'"
                )
            try:
                p = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: characteristic must be an integer")
            if char_override is not None:
                p = char_override
            try:
                ring = Ring(tuple(parts[2:]), p)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}")
            continue
        if parts[0] == "mode":
            if parts != ["mode", "monomial"]:
                raise ParseError(f"line {lineno}: unknown mode {' '.join(parts[1:])!r}")
            if gens:
                raise ParseError(f"line {lineno}: mode line must precede generators")
            monomial_mode = True
            continue
        try:
            f = parse_polynomial(line, ring)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}")
        if f.is_zero:
            raise ParseError(f"line {lineno}: zero generator")
        if monomial_mode and len(f.terms) != 1:
            raise ParseError(
                f"line {lineno}: monomial mode requires single-term generators"
            )
        gens.append(f)
    if ring is None:
        raise ParseError("missing 'ring <p> <names...>' header line")
    if not gens:
        raise ParseError("no generators given")
    return ring, gens, monomial_mode


def _jval(v: Value) -> int | str:
    if v == NEG_INF:
        return "-infinity"
    if v == POS_INF:
        return "infinity"
    return int(v)


def _text(v: bool | int | str | list | None) -> str:
    """A JSON value as the text output shows it."""
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "none"
    if isinstance(v, list):
        return "[{}]".format(", ".join(map(_text, v)))
    return str(v)


def report_to_json(report: RegularityReport) -> dict:
    return {
        "n": report.n,
        "p": report.p,
        "d": report.d,
        "c": [_jval(v) for v in report.c],
        "r": report.r,
        "reg": report.reg,
        "reg_t": [_jval(v) for v in report.reg_t],
        "bound": [int(b) for b in report.bound],
        "attained_t": report.attained_t,
        "retries": [
            {
                "level": rec.level,
                "attempt": rec.attempt,
                "seed": rec.seed,
                "matrix_digest": rec.matrix_digest,
            }
            for rec in report.retries
        ],
        "corners": {
            str(i): [list(e) for e in row] for i, row in enumerate(report.corners)
        },
    }


def curve_to_json(cr: CurveReport) -> dict:
    return {
        "noether_ok": cr.noether_ok,
        "c1": None if cr.c1 is None else _jval(cr.c1),
        "r": cr.r,
        "reg": cr.reg,
        "H_E": cr.H_E,
        "H_Re": cr.H_Re,
        "last_shift": cr.last_shift,
    }


def oracle_to_json(record: CrossCheckRecord) -> dict:
    return {
        "ok": record.ok,
        "levels": [
            {
                "level": ch.level,
                "c_reported": _jval(ch.c_reported),
                "a_definition": _jval(ch.a_definition),
                "ceiling": ch.ceiling,
                "match": ch.match,
            }
            for ch in record.levels
        ],
        "r_reported": record.r_reported,
        "r_definition": record.r_definition,
        "r_match": record.r_match,
    }


def _print_report(report: RegularityReport, *, verbose: bool, partial: int | None) -> None:
    if partial is not None:
        print(f"reg_{partial} = {_jval(report.reg_t[partial])}")
        return
    for key, value in report_to_json(report).items():
        if key not in ("retries", "corners"):
            print(f"{key} = {_text(value)}")
    print(f"retries = {len(report.retries)}")
    if verbose:
        for rec in report.retries:
            print(
                f"  retry level={rec.level} attempt={rec.attempt} "
                f"seed={rec.seed} matrix={rec.matrix_digest}"
            )
        for i, row in enumerate(report.corners):
            cells = " ".join("(" + ",".join(map(str, e)) + ")" for e in row)
            print(f"corners[{i}] = {cells}")


def _print_curve(cr: CurveReport) -> None:
    data = curve_to_json(cr) if cr.noether_ok else {"noether_ok": False}
    for key, value in data.items():
        print(f"{key} = {_text(value)}")


def _print_oracle(record: CrossCheckRecord) -> None:
    for ch in record.levels:
        print(
            f"level {ch.level}: c={_jval(ch.c_reported)} "
            f"a_def={_jval(ch.a_definition)} ceiling={ch.ceiling} "
            f"match={_text(ch.match)}"
        )
    print(
        f"r: reported={record.r_reported} definition={record.r_definition} "
        f"match={_text(record.r_match)}"
    )
    print(f"ok = {_text(record.ok)}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmreg",
        description="Castelnuovo-Mumford regularity of graded quotients over F_p",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("path", help="input file, or - for stdin")
    common.add_argument(
        "--char",
        type=int,
        default=None,
        help="override the characteristic given in the input header",
    )
    common.add_argument("--seed", type=int, default=0, help="retry seed (default 0)")
    common.add_argument(
        "--max-retries",
        type=int,
        default=10,
        help="coordinate changes allowed per level (default 10)",
    )
    common.add_argument(
        "--monomial",
        action="store_true",
        help="require every generator to be a single monomial",
    )
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--verbose", action="store_true", help="more detail")

    sub = parser.add_subparsers(dest="command", required=True)
    compute = sub.add_parser(
        "compute", parents=[common], help="full regularity report"
    )
    compute.add_argument(
        "--partial",
        type=int,
        default=None,
        metavar="T",
        help="print only the partial value reg_T",
    )
    sub.add_parser("curve", parents=[common], help="space-curve closed formulas")
    sub.add_parser("oracle", parents=[common], help="definitional cross-check")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _, gens, _ = parse_input(
            _read_text(args.path),
            char_override=args.char,
            force_monomial=args.monomial,
        )
        if args.command == "compute":
            report = compute_report(
                gens, seed=args.seed, max_retries=args.max_retries
            )
            if args.partial is not None and not 0 <= args.partial <= report.d:
                print(
                    f"error: --partial must be between 0 and d={report.d}",
                    file=sys.stderr,
                )
                return 2
            if args.json:
                print(json.dumps(report_to_json(report), indent=2))
            else:
                _print_report(report, verbose=args.verbose, partial=args.partial)
            return 0
        if args.command == "curve":
            cr = curve_report(gens)
            if args.json:
                print(json.dumps(curve_to_json(cr), indent=2))
            else:
                _print_curve(cr)
            return 0
        record = cross_check(gens, seed=args.seed, max_retries=args.max_retries)
        if args.json:
            print(json.dumps(oracle_to_json(record), indent=2))
        else:
            _print_oracle(record)
        return 0 if record.ok else 4
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RetriesExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
