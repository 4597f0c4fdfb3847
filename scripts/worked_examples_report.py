#!/usr/bin/env python3
"""Full walkthrough of every bundled fixture: ring structure, whether the
algebra is proven a division algebra, divisors, code, dual, and Construction
A lattice.  Run from the repository root:

    python scripts/worked_examples_report.py
"""

import sys

from skewlat import (
    brute_force_dual,
    construction_a_basis,
    dual_lattice_basis,
    monic_right_divisors,
)
from skewlat.cli import _stdout_closed
from skewlat.fixtures import FIXTURE_NAMES, FIXTURE_SPECS, fixture_code, fixture_ring
from skewlat.invariants import division_proven


def report(name):
    spec = FIXTURE_SPECS[name]
    ring = fixture_ring(name)
    code = fixture_code(name)
    print(f"== {name} ==")
    print(f"   m = {list(spec.min_poly)}, sigma: y -> {list(spec.sigma_image)}, "
          f"u = {spec.u}, p = {spec.p}")
    dec = ring.decompose()
    print(f"   ring: {ring.size} elements, p is {dec.ramification()}")
    proven = "proven" if division_proven(*spec.algebra) else "not proven"
    print(f"   division algebra: {proven} by a local invariant")
    divisors = monic_right_divisors(ring, ring.n, spec.u, 1)
    print(f"   monic degree-1 right divisors of x^{ring.n} - u: "
          + ", ".join(str(d) for d in divisors))
    print(f"   code: n = {code.n}, k = {code.k}, g = {code.g}, h = {code.h}")
    print(f"   |C| = {len(list(code.codewords()))}, |C_dual| = {len(brute_force_dual(code))}, "
          f"self-dual: {code.is_self_dual()}")
    lat = construction_a_basis(code)
    print(f"   lattice: index {lat.index}, gram det {lat.det}")
    for row in lat.basis:
        print("      " + " ".join(f"{v:>3}" for v in row))
    same = lat.basis == dual_lattice_basis(code).basis
    print(f"   lattice equals dual-code lattice: {same}")
    print()


def main():
    for name in FIXTURE_NAMES:
        report(name)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        raise SystemExit(_stdout_closed())
