"""Command-line front end.

Commands: ``catalog list``, ``residual``, ``surface sample``, ``family``,
``identity``, ``geometry classify``.  Exit code 0 when all checks pass the
tolerance, 1 on a violation, 2 on usage errors.  Given the same arguments and
seed, output files are byte-identical across runs.

A command pays only for what it runs: of the package, this module imports
only ``errors`` and ``reportio``; a subcommand's arguments are added when that
subcommand is parsed (their choices and defaults read the catalogs), and each
command imports the modules it runs when it runs.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import itertools
import math
import re
import sys

import numpy as np

from .errors import SolitonLabError
# ``obj_mesh_text`` stays bound here: the benchmark's tracer wraps it by this name
from .reportio import csv_text, fmt, json_text, obj_mesh_blocks, obj_mesh_text

# The conjugate pairs ``family --pair`` accepts.
PAIR_NAMES = ("helicoid-catenoid",)
# The identity arguments, each an ``identity`` option; an identity reads those
# in its ``IdentitySpec.params``.
IDENTITY_PARAMS = ("X", "A", "zeta")


class Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line, and whose
    ``add_arguments(parser)``, when given, adds its arguments at the start of
    its first parse (argparse parses a subcommand with the subcommand's own
    ``parse_known_args``)."""

    def __init__(self, *a, add_arguments=None, **kw):
        super().__init__(*a, **kw)
        # accept grid specs and complex literals that start with a minus sign
        # (e.g. --grid -1:1:-1:1:21:21) as option values, not option names
        self._negative_number_matcher = re.compile(r"^-\d[\d.:eEjJ+-]*$")
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        add, self._add_arguments = self._add_arguments, None
        if add is not None:
            add(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # single-line machine-parsable usage error
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def count(text: str) -> int:
    """Argument type of a count: an int of at least 1 (argparse names it in errors)."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def seed(text: str) -> int:
    """Argument type of a random seed: an int of at least 0, as numpy requires."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def finite(text: str) -> float:
    """Argument type of a finite float: NaN would pass every tolerance test."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def positive(text: str) -> float:
    """Argument type of a step: a finite float greater than 0."""
    x = finite(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be greater than 0, got {text}")
    return x


def tolerance(text: str) -> float:
    """Argument type of a tolerance: a finite float of at least 0."""
    x = finite(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return x


def finite_complex(text: str) -> complex:
    """Argument type of a complex number with finite parts."""
    z = complex(text)
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return z


def finite_list(text: str) -> list:
    """Argument type of a comma-separated list of finite floats."""
    return [finite(t) for t in text.split(",")]


def _write(path, blocks) -> None:
    """Write the strings ``blocks`` one at a time to ``path``, or to stdout for None or "-"."""
    to_file = path is not None and path != "-"
    with open(path, "w", newline="") if to_file else contextlib.nullcontext(sys.stdout) as out:
        for block in blocks:
            out.write(block)


def _cmd_catalog(args) -> int:
    from . import identities, pde, weierstrass

    lines = ["# pde solutions"]
    for e in pde.catalog():
        lines.append(f"{e.name}  [{e.equation.value}]  domain: {e.domain_note}")
    lines.append("# surfaces")
    lines.extend(weierstrass.SURFACE_NAMES)
    lines.append("# weierstrass data")
    lines.extend(weierstrass.SURFACE_NAMES)
    lines.append("# identities")
    lines.extend(sorted(identities.REGISTRY))
    lines.append("# conjugate pairs")
    lines.extend(PAIR_NAMES)
    _write(args.out, ["\n".join(lines) + "\n"])
    return 0


def _cmd_residual(args) -> int:
    from . import pde
    from .core import CentralDiff, with_backend
    from .pde import GridSpec

    entry = pde.solution(args.solution, k=args.k, margin=args.margin)
    fld = entry.field
    if args.backend == "central":
        fld = with_backend(fld, CentralDiff(args.h))
    grid = GridSpec.parse(args.grid) if args.grid else pde.DEFAULT_GRIDS[args.solution]
    report = pde.residual_sweep(fld, entry.equation, grid, name=entry.name)
    _write(args.out, [json_text(report.to_json_dict())])
    if not len(report.points):
        print(f"FAIL no point evaluated: all {report.excluded_count} grid points are excluded",
              file=sys.stderr)
        return 1
    if report.max_abs > args.tolerance:
        print(f"FAIL max_abs={fmt(report.max_abs)} > tolerance={fmt(args.tolerance)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_surface(args) -> int:
    from . import weierstrass
    from .pde import GridSpec

    surf = weierstrass.catalog_surface(args.name)
    grid = GridSpec.parse(args.grid) if args.grid else GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)
    a, b = grid.axes()
    values, excluded = surf.sample(a, b)
    kind = args.format or ("obj" if args.out and args.out.endswith(".obj") else "csv")
    if kind == "obj":
        blocks = obj_mesh_blocks(values, excluded, grid.na, grid.nb)
    else:
        pts = itertools.product(a.tolist(), b.tolist())
        rows = [(u, v, *val) for (u, v), val, ex in zip(pts, values.tolist(), excluded) if not ex]
        blocks = [csv_text(("u", "v", "x", "y", "z"), rows)]
    _write(args.out, blocks)
    return 0


def _cmd_geometry(args) -> int:
    from . import geometry, pde
    from .pde import GridSpec

    if args.solution == "example1":
        fld = geometry.example1_graph()
    else:
        fld = pde.solution(args.solution, k=args.k, margin=args.margin).field
    grid = GridSpec.parse(args.grid) if args.grid else GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)
    rows = geometry.classify_grid(fld, grid)
    _write(args.out, [csv_text(("y", "z", "class", "H"), rows)])
    return 0


def _cmd_family(args) -> int:
    from . import geometry
    from .family import (associate_family, calibrate_offsets, catalog_whitham,
                         conjugacy_check, helicoid_catenoid_pair, soliton_family,
                         whitham_constraint_defect, whitham_verify)
    from .pde import worst

    pair = helicoid_catenoid_pair()
    thetas = args.theta_list
    rng = np.random.default_rng(args.seed)
    # sample points in an annulus avoiding the puncture and the branch cut
    radii = rng.uniform(0.5, 2.0, args.num_points)
    angles = rng.uniform(-0.85 * math.pi, 0.85 * math.pi, args.num_points)
    zetas = [r * complex(math.cos(a), math.sin(a)) for r, a in zip(radii, angles)]
    cauchy_riemann = worst([conjugacy_check(pair, z) for z in zetas])  # independent of theta
    out = []
    defect = 0.0
    for theta in thetas:
        surf = associate_family(pair, theta)
        conformal, cross, harmonic = zip(*(geometry.isothermal_check(surf, z) for z in zetas))
        wp = calibrate_offsets(catalog_whitham(theta), pair)
        d1, d2, d3 = zip(*(whitham_verify(wp, soliton_family(pair, theta, z)) for z in zetas))
        con = [whitham_constraint_defect(wp, z) for z in zetas]
        rec = {
            "theta": theta,
            "max_defects": {"conformal": worst(conformal), "cross": worst(cross),
                            "harmonic": worst(harmonic), "cauchy_riemann": cauchy_riemann},
            "whitham_defects": {"d1": worst(d1), "d2": worst(d2), "d3": worst(d3),
                                "constraint": worst(con)},
        }
        defect = worst([defect, *rec["max_defects"].values(),
                        *rec["whitham_defects"].values()])
        out.append(rec)
    _write(args.out, [json_text({"pair": args.pair, "seed": args.seed, "results": out})])
    if defect > args.tolerance:
        print(f"FAIL max defect={fmt(defect)} > tolerance={fmt(args.tolerance)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_identity(args) -> int:
    from . import identities

    spec = identities.REGISTRY[args.name]
    ignored = [f"--{p}" for p in IDENTITY_PARAMS
               if getattr(args, p) is not None and p not in spec.params]
    if args.tail_correction and spec.tail is None:
        ignored.append("--tail-correction")
    if ignored:
        raise ValueError(f"argument {ignored[0]}: not used by {spec.name}")
    values = [getattr(args, p) for p in spec.params]
    missing = [p for p, value in zip(spec.params, values) if value is None]
    if missing:
        raise ValueError(f"argument --{missing[0]}: required by {spec.name}")
    if spec.real:
        if any(v.imag for v in values):
            raise ValueError(f"{spec.name} needs real "
                             + " and ".join(f"--{p}" for p in spec.params))
        values = [v.real for v in values]
    results = identities.convergence_order(spec, tuple(values), args.K,
                                           spec.tail if args.tail_correction else None)
    table = [{
        "K": r.K,
        "partial_re": r.partial.real,
        "partial_im": r.partial.imag,
        "lhs": [r.lhs.real, r.lhs.imag],
        "abs_err": r.abs_err,
        "est_order": r.est_order,
    } for r in results]
    _write(args.out, [json_text({"name": args.name, "table": table})])
    return 0


def _catalog_arguments(cl) -> None:
    cl.add_argument("--out", default=None)
    cl.set_defaults(fn=_cmd_catalog)


def _residual_arguments(r) -> None:
    from . import pde

    r.add_argument("--solution", required=True, choices=pde.catalog_names())
    r.add_argument("--grid", default=None,
                   help="a_min:a_max:b_min:b_max:na:nb (default: per solution)")
    r.add_argument("--backend", choices=("exact", "central"), default="exact")
    r.add_argument("--h", type=positive, default=1e-4, help="central-difference step")
    r.add_argument("--k", type=finite, default=1.0, help="helicoid family parameter")
    r.add_argument("--margin", type=finite, default=pde.DEFAULT_MARGIN)
    r.add_argument("--tolerance", type=tolerance, default=1e-6)
    r.add_argument("--out", default=None)
    r.set_defaults(fn=_cmd_residual)


def _surface_arguments(sp) -> None:
    from .weierstrass import SURFACE_NAMES

    sp.add_argument("--name", required=True, choices=SURFACE_NAMES)
    sp.add_argument("--grid", default=None)
    sp.add_argument("--format", choices=("csv", "obj"), default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_surface)


def _geometry_arguments(gc) -> None:
    from . import pde

    gc.add_argument("--solution", default="example1",
                    choices=("example1", *pde.catalog_names()))
    gc.add_argument("--grid", default=None)
    gc.add_argument("--k", type=finite, default=1.0)
    gc.add_argument("--margin", type=finite, default=pde.DEFAULT_MARGIN)
    gc.add_argument("--out", default=None)
    gc.set_defaults(fn=_cmd_geometry)


def _family_arguments(f) -> None:
    f.add_argument("--pair", choices=PAIR_NAMES, default=PAIR_NAMES[0])
    f.add_argument("--theta-list", type=finite_list,
                   default="0,0.5235987755982988,0.7853981633974483,"
                           "1.0471975511965976,1.5707963267948966")
    f.add_argument("--num-points", type=count, default=20)
    f.add_argument("--seed", type=seed, default=0)
    f.add_argument("--tolerance", type=tolerance, default=1e-6)
    f.add_argument("--out", default=None)
    f.set_defaults(fn=_cmd_family)


def _identity_arguments(i) -> None:
    from . import identities

    i.add_argument("--name", required=True, choices=sorted(identities.REGISTRY))
    for param in IDENTITY_PARAMS:
        i.add_argument(f"--{param}", type=finite_complex, default=None)
    i.add_argument("--K", type=identities.increasing, default="100,1000,10000",
                   help="comma-separated K list, strictly increasing")
    i.add_argument("--tail-correction", action="store_true")
    i.add_argument("--out", default=None)
    i.set_defaults(fn=_cmd_identity)


def build_parser() -> Parser:
    """The CLI's parser.  Each subcommand's arguments are added by its
    ``_<command>_arguments`` when that subcommand is parsed."""
    p = Parser(prog="solitonlab",
               description="Born-Infeld solitons and maximal surfaces: "
                           "residual sweeps, surface export, family and "
                           "identity verification")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("catalog", parents=[], description="list catalog content")
    csub = c.add_subparsers(dest="subcommand", required=True)
    csub.add_parser("list", add_arguments=_catalog_arguments)

    sub.add_parser("residual", description="residual sweep of a catalog solution",
                   add_arguments=_residual_arguments)

    s = sub.add_parser("surface", description="sample catalog surfaces")
    ssub = s.add_subparsers(dest="subcommand", required=True)
    ssub.add_parser("sample", add_arguments=_surface_arguments)

    g = sub.add_parser("geometry", description="causal classification sweeps")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    gsub.add_parser("classify", add_arguments=_geometry_arguments)

    sub.add_parser("family", description="associate family and Whitham checks",
                   add_arguments=_family_arguments)
    sub.add_parser("identity", description="identity convergence tables",
                   add_arguments=_identity_arguments)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SolitonLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
