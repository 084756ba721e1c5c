#!/usr/bin/env python3
"""Convergence tables for the five identities at their reference arguments;
nonzero exit if a table stops converging or the tail correction does not help."""

import sys

from solitonlab.cli import Parser
from solitonlab.identities import RAM_ARCTAN_SUM, REGISTRY, convergence_order, increasing

CASES = [
    ("ram_cos_product", (0.3 + 0j, 0.2 + 0j)),
    ("ram_arctan_sum", (1.0, 0.7)),
    ("scherk_identity", (2 + 0j,)),
    ("helicoid2_identity", (1 + 1j,)),
    ("lorentz_helicoid_identity", (1 + 1j,)),
]
# Each row after the first must reach this order and lower the error.
MIN_ORDER = 0.9


def main(argv=None) -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--K", type=increasing, default="100,1000,10000",
                    help="comma-separated K list, strictly increasing")
    args = ap.parse_args(argv)
    K_list = args.K

    failures = 0
    tables = {}
    for name, ident_args in CASES:
        print(f"\n== {name}  args={ident_args}")
        print(f"{'K':>8s} {'partial':>24s} {'abs_err':>12s} {'order':>7s}")
        tables[name] = convergence_order(REGISTRY[name], ident_args, K_list)
        for prev, r in zip([None, *tables[name]], tables[name]):
            bad = prev is not None and not (r.est_order >= MIN_ORDER
                                            and r.abs_err < prev.abs_err)
            failures += bad
            p = r.partial
            ps = f"{p.real:.10f}" if abs(p.imag) < 1e-12 else f"{p:.8f}"
            print(f"{r.K:8d} {ps:>24s} {r.abs_err:12.3e} {r.est_order:7.3f}"
                  + ("  <-- FAIL" if bad else ""))

    print("\n== ram_arctan_sum with closed-form tail correction")
    corrected = convergence_order(RAM_ARCTAN_SUM, dict(CASES)["ram_arctan_sum"], K_list,
                                  RAM_ARCTAN_SUM.tail)
    for raw, cor in zip(tables["ram_arctan_sum"], corrected):
        bad = not cor.abs_err < raw.abs_err
        failures += bad
        print(f"K={raw.K:7d}  raw={raw.abs_err:.3e}  corrected={cor.abs_err:.3e}"
              + ("  <-- FAIL" if bad else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
