#!/usr/bin/env python3
"""Scan minimum |norm det(M(a) - M(a'))| over growing coefficient boxes.

Compares the division quaternion configuration against the u = 1 sabotage,
where 1 + e is a zero divisor and the minimum collapses to zero.

    python scripts/mindet_scan.py [--max-bound 2] [--samples 4000]
"""

import argparse
import sys

from skewlat import ConstacyclicCode, QuotientRing, SkewPoly, min_det_sample
from skewlat.cli import _stdout_closed
from skewlat.fixtures import GAUSSIAN_P3_U1, fixture_code
from skewlat.spacetime import exhaustive_sweep

SWEEP_BOUND = 10**4

CASES = {
    "division (e^2 = -1), ideal lattice": lambda: fixture_code("gaussian-p3-inert"),
    "sabotage (e^2 = +1), full lattice": lambda: ConstacyclicCode.from_generator(
        SkewPoly.one(QuotientRing(GAUSSIAN_P3_U1))
    ),
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-bound", type=int, default=2)
    parser.add_argument("--samples", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for label, build in CASES.items():
        code = build()
        print(f"== {label} ==")
        for bound in range(1, args.max_bound + 1):
            value = min_det_sample(
                code,
                bound,
                seed=args.seed,
                samples=args.samples,
                enumeration_bound=SWEEP_BOUND,
            )
            # min_det_sample picks the mode; the same rule only names it here.
            exhaustive = exhaustive_sweep(code, bound, SWEEP_BOUND)
            mode = "exhaustive" if exhaustive else f"sampled x{args.samples}"
            print(f"   box {bound} ({mode}): min |norm det| = {value}")
        print()


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        raise SystemExit(_stdout_closed())
