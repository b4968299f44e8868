"""Cross-check corner readings against the definitional count on random ideals.

Draws seeded random monomial ideals, and at every evaluation level whose
staircase passes the finiteness certificate compares the corner-based top
degree with the saturation/difference count. When the deepest evaluation is
Artinian it also compares the two top-degree-of-quotient routes. Any mismatch
is a bug; the script exits nonzero if one is found.

Usage: python3 scripts/oracle_sweep.py --count 200 [--json]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from cmreg import (
    MonomialIdeal,
    a_def,
    corners,
    evaluate_zero,
    is_c_finite,
    krull_dim,
    max_degree,
    minimalize,
    r_def,
)
from cmreg.staircase import is_artinian


def random_ideal(rng: random.Random, args: argparse.Namespace) -> MonomialIdeal:
    s = rng.randint(2, args.max_vars)
    k = rng.randint(1, args.max_gens)
    monomials = []
    for _ in range(k):
        exps = tuple(rng.randint(0, args.max_entry) for _ in range(s))
        if any(exps):
            monomials.append(exps)
    if not monomials:
        monomials = [tuple(1 for _ in range(s))]
    return minimalize(s, monomials)


def run(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    level_checks = 0
    r_checks = 0
    mismatches = []
    start = time.monotonic()
    for index in range(args.count):
        ideal = random_ideal(rng, args)
        for i in range(ideal.s):
            level = evaluate_zero(ideal, i)
            nxt = evaluate_zero(ideal, i + 1)
            if not is_c_finite(level, nxt):
                continue
            level_checks += 1
            from_corners = max_degree(corners(level))
            from_definition = a_def(ideal, i)
            if from_corners != from_definition:
                mismatches.append(
                    {"index": index, "level": i,
                     "corners": str(from_corners), "definition": str(from_definition)}
                )
        top = evaluate_zero(ideal, krull_dim(ideal))
        if not top.is_unit and is_artinian(top):
            r_checks += 1
            via_corners = max_degree(corners(top))
            via_definition = r_def(top)
            if via_corners != via_definition:
                mismatches.append(
                    {"index": index, "level": "top",
                     "corners": str(via_corners), "definition": str(via_definition)}
                )
    elapsed = time.monotonic() - start
    summary = {
        "ideals": args.count,
        "level_checks": level_checks,
        "top_degree_checks": r_checks,
        "mismatches": mismatches,
        "seconds": round(elapsed, 3),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"{args.count} ideals: {level_checks} certified level checks, "
              f"{r_checks} top-degree checks, {len(mismatches)} mismatches, "
              f"{elapsed:.2f}s")
        for bad in mismatches:
            print(f"  MISMATCH {bad}")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--max-vars", type=int, default=5)
    parser.add_argument("--max-entry", type=int, default=6)
    parser.add_argument("--max-gens", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
