#!/usr/bin/env python3
"""Sweep every catalog solution with both derivative backends, and the
helicoid/catenoid soliton family as a complex Born-Infeld graph, and print a
residual table; nonzero exit if any entry misses its tolerance."""

import cmath
import math
import sys

import numpy as np

from solitonlab.cli import Parser, build_parser, positive, tolerance
from solitonlab.core import CentralDiff, with_backend
from solitonlab.family import complex_bi_residual_on_family, helicoid_catenoid_pair
from solitonlab.pde import DEFAULT_GRIDS, catalog_names, residual_sweep, solution

# The family's annulus 0.5 <= |zeta| <= 2, |arg zeta| <= 0.85 pi, with radii
# on both sides of the unit circle, where the graph Jacobian vanishes; never
# on it, where the residual raises JacobianSingular.
FAMILY_RADII = (*np.linspace(0.5, 2.0, 15), 1 - 1e-4, 1 + 1e-4, 1 - 1e-6, 1 + 1e-6)
FAMILY_ANGLES = np.linspace(-0.85 * math.pi, 0.85 * math.pi, 15)


def main(argv=None) -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--h", type=positive, default=1e-4)
    ap.add_argument("--tol-exact", type=tolerance, default=1e-6)
    ap.add_argument("--tol-central", type=tolerance, default=1e-5)
    args = ap.parse_args(argv)

    failures = 0
    print(f"{'solution':34s} {'equation':12s} {'exact':>10s} {'central':>10s}")
    for name in catalog_names():
        e = solution(name)
        grid = DEFAULT_GRIDS[name]
        exact = residual_sweep(e.field, e.equation, grid, name=name).max_abs
        central = residual_sweep(with_backend(e.field, CentralDiff(args.h)),
                                 e.equation, grid, name=name).max_abs
        flag = ""
        if exact > args.tol_exact or central > args.tol_central:
            failures += 1
            flag = "  <-- FAIL"
        print(f"{name:34s} {e.equation.value:12s} {exact:10.2e} {central:10.2e}{flag}")

    # the exact jets only: the family row has no central column
    pair = helicoid_catenoid_pair()
    zetas = [r * cmath.exp(1j * a) for r in FAMILY_RADII for a in FAMILY_ANGLES]
    thetas = build_parser().parse_args(["family"]).theta_list
    exact = max(complex_bi_residual_on_family(pair, theta, zetas).max_abs for theta in thetas)
    flag = ""
    if exact > args.tol_exact:
        failures += 1
        flag = "  <-- FAIL"
    name = f"{pair.name} soliton family"
    print(f"{name:34s} {'born_infeld':12s} {exact:10.2e} {'-':>10s}{flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
