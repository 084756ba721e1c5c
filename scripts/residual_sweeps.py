#!/usr/bin/env python3
"""Sweep every catalog solution with both derivative backends and print a
residual table; nonzero exit if any entry misses its tolerance."""

import sys

from solitonlab.cli import Parser, positive, tolerance
from solitonlab.core import CentralDiff, with_backend
from solitonlab.pde import DEFAULT_GRIDS, catalog_names, residual_sweep, solution


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
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
