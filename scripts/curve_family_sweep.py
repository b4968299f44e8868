"""Sweep the monomial space-curve family and tabulate its regularity data.

For each pair alpha > beta >= 1 up to a configurable bound, runs both the
full pipeline and the curve-mode closed formulas on the binomial ideal

    (x1*x2 - x3*x4,
     x1^(beta+j) * x3^(alpha-beta-j) - x2^(alpha-j) * x4^j, j = 0..alpha-beta)

and checks reg = alpha - 1 against the corner route, the top-degree route,
and the stabilized counting function.

Usage: python3 scripts/curve_family_sweep.py --max-alpha 9 [--json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from cmreg import DEFAULT_CHAR, NEG_INF, Ring, compute_report, curve_report, parse_polynomial


def family(alpha: int, beta: int, p: int):
    ring = Ring(("x1", "x2", "x3", "x4"), p)
    gens = [parse_polynomial("x1*x2 - x3*x4", ring)]
    for j in range(alpha - beta + 1):
        lhs = f"x1^{beta + j}"
        if alpha - beta - j:
            lhs += f"*x3^{alpha - beta - j}"
        rhs = f"x2^{alpha - j}"
        if j:
            rhs += f"*x4^{j}"
        gens.append(parse_polynomial(f"{lhs} - {rhs}", ring))
    return gens


def run(args: argparse.Namespace) -> int:
    rows = []
    start = time.monotonic()
    for alpha in range(2, args.max_alpha + 1):
        for beta in range(1, alpha):
            gens = family(alpha, beta, args.char)
            report = compute_report(gens)
            cr = curve_report(gens)
            ok = (
                report.reg == alpha - 1
                and cr.noether_ok
                and cr.reg == alpha - 1
                and cr.r == alpha - 1
            )
            rows.append(
                {
                    "alpha": alpha,
                    "beta": beta,
                    "c1": "-infinity" if cr.c1 == NEG_INF else cr.c1,
                    "r": cr.r,
                    "reg": cr.reg,
                    "H_Re": cr.H_Re,
                    "H_E": cr.H_E,
                    "last_shift": cr.last_shift,
                    "ok": ok,
                }
            )
    elapsed = time.monotonic() - start
    if args.json:
        print(json.dumps({"rows": rows, "seconds": round(elapsed, 3)}, indent=2))
    else:
        print(f"{'alpha':>5} {'beta':>5} {'c1':>10} {'r':>4} {'reg':>4} "
              f"{'H_Re':>5} {'H_E':>5} {'shift':>6} ok")
        for row in rows:
            print(
                f"{row['alpha']:>5} {row['beta']:>5} {str(row['c1']):>10} "
                f"{row['r']:>4} {row['reg']:>4} {str(row['H_Re']):>5} "
                f"{str(row['H_E']):>5} {str(row['last_shift']):>6} "
                f"{'yes' if row['ok'] else 'NO'}"
            )
        print(f"{len(rows)} instances in {elapsed:.2f}s")
    return 0 if all(row["ok"] for row in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-alpha", type=int, default=9)
    parser.add_argument("--char", type=int, default=DEFAULT_CHAR)
    parser.add_argument("--json", action="store_true")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
