"""Seeded inputs and correctness gates of the three benchmark workloads.

A workload is a list of ``Check`` objects.  ``Check.run`` does one unit of
work through solitonlab's public API and is the part that is timed;
``Check.judge`` turns its result into an ``Outcome``: a fingerprint of what
was computed (compared between passes and between traced and untraced
runs), the gate violations found, and the number of field points evaluated.

The seed moves sample points and grid origins only.  Point counts, grid
sizes and the share of detour paths are the same for every seed, and the
sample points are stratified (one per row and column of an n x n grid over
their region, as in Latin hypercube sampling), so seeds differ in values
and hardly in cost.  Every tolerance below is the one that
``tests/test_acceptance.py`` or ``tests/test_family.py`` pins for the same
check; counts and digests were recorded on the code the benchmark was
written against.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from solitonlab import family, geometry, pde, weierstrass
from solitonlab.core import CentralDiff, with_backend

WORKLOADS = ("grid_sweep", "pointwise_quad", "cli_session")

# -- tolerances (tests/test_acceptance.py criteria 1, 2, 4, 5; tests/test_family.py)
EXACT_TOL = 1e-6
CENTRAL_TOL = 1e-5
CENTRAL_H = 1e-4
ISOTHERMAL_TOL = 1e-6
CAUCHY_RIEMANN_TOL = 1e-6
WHITHAM_TOL = 1e-8
CONSTRAINT_TOL = 1e-12
FAMILY_BI_TOL = 1e-6
ROUND_TRIP_TOL = 1e-8
SURFACE_RATIO_TOL = 1e-10
IDENTITY_MIN_ORDER = 0.9

# -- counts recorded at the seed commit --------------------------------------
# Every residual sweep grid stays clear of its entry's exclusions for every
# seeded origin, so each sweep evaluates na * nb points and excludes none.
SWEEP_EXCLUDED = 0
# classify_grid(example1_graph()) on the fixed 101 x 101 grid over [-2, 2]^2.
CLASSIFY_GRID = pde.GridSpec(-2.0, 2.0, -2.0, 2.0, 101, 101)
CLASSIFY_COUNTS = {"points": 5179, "timelike": 5008, "lightlike": 166, "spacelike": 5}

# sha256 of the stdout of the seed-independent cli_session commands.
CLI_DIGESTS = {
    "catalog": "3beb41ed4801021bb2505773ff8796ba2a1fcc17f7bc051dd1f1d0ad498afb31",
    "residual": "b38f0425640c8cdb1e5c75b9916de1434c5b6a095cb4dd82ed8cd20abd8972f6",
    "geometry": "2c4fb1b769e719734dbd29344764b9e095e43ce0057b0e24199ec829d85fa763",
    "surface": "30b668a05fe73023d58662da3331bac84803f0965157444f5b82dce03695ee1a",
}

# -- sizes (never depend on the seed) ----------------------------------------
GRID_SHIFT = 0.02          # largest origin move, as a share of each axis span
SCHERK_GRID = pde.GridSpec(-1.0, 1.0, -1.0, 1.0, 201, 201)
THETAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
FAMILY_POINTS_PER_THETA = 18
ROUND_TRIPS_PER_DATUM = 28
DETOURS_PER_DETOUR_DATUM = 14   # Scherk and catenoid: half of their targets
DETOUR_DATA = ("scherk_first_kind", "lorentzian_catenoid")
IDENTITY_K = "1000,10000,100000,1000000"
FAMILY_POINTS = 4
SURFACE_GRID = "-2:2:-2:2:201:201"


@dataclass
class Outcome:
    fingerprint: tuple
    failures: list = field(default_factory=list)
    points: int = 1


@dataclass
class Check:
    """One unit of work.  ``key`` names the check and all its inputs;
    ``run(ctx)`` executes it (``ctx`` spawns processes for cli_session) and
    ``judge(result)`` applies the gates to what it returned."""

    key: str
    run: Callable
    judge: Callable


# -- gates ---------------------------------------------------------------------

def bound_failures(values: dict) -> list:
    """Violations among named ``(value, tolerance)`` pairs: a value that is
    not finite or exceeds its tolerance."""
    out = []
    for name, (value, tol) in values.items():
        if not math.isfinite(value):
            out.append(f"{name} is not finite ({value})")
        elif value > tol:
            out.append(f"{name}={value:.3e} exceeds {tol:g}")
    return out


def report_failures(rep, tol: float, evaluated: int, excluded: int) -> list:
    """Gates on a ``ResidualReport``: tolerance, finiteness of every residual,
    a worst point whenever points were evaluated, and the recorded counts."""
    out = bound_failures({"max_abs": (rep.max_abs, tol)})
    residuals = getattr(rep, "residuals", None)
    if residuals is not None:
        got = len(residuals)
        if any(not cmath.isfinite(r) for r in residuals):
            out.append("non-finite residual")
    else:
        got = evaluated + excluded - rep.excluded_count
    if got > 0 and rep.worst_point is None:
        out.append("worst_point is None although points were evaluated")
    if got != evaluated:
        out.append(f"evaluated {got} points, recorded {evaluated}")
    if rep.excluded_count != excluded:
        out.append(f"excluded {rep.excluded_count} points, recorded {excluded}")
    return out


def classify_failures(rows) -> list:
    """Gates on ``classify_grid`` rows: the recorded point and class counts,
    and a finite mean curvature at every non-lightlike point."""
    counts = {"points": len(rows), "timelike": 0, "lightlike": 0, "spacelike": 0}
    out = []
    for (_y, _z, cls, H) in rows:
        counts[cls] = counts.get(cls, 0) + 1
        if cls != "lightlike" and not math.isfinite(H):
            out.append(f"non-finite H at a {cls} point")
    for name, want in CLASSIFY_COUNTS.items():
        if counts.get(name) != want:
            out.append(f"{name} count {counts.get(name)}, recorded {want}")
    return out[:4]


def digest_failures(data: bytes, want: str) -> list:
    got = hashlib.sha256(data).hexdigest()
    return [] if got == want else [f"output digest {got[:12]} differs from recorded {want[:12]}"]


def exit_failures(rc: int) -> list:
    return [] if rc == 0 else [f"exit code {rc}"]


# -- grid_sweep ----------------------------------------------------------------

def _seeded(grid, rng: random.Random):
    """The grid with its origin moved inward and its far corner kept, so it
    lies inside the original grid's rectangle, where the pinned tolerances
    were established (central differences lose accuracy quickly outside it,
    e.g. towards the light cone of wick_lorentzian_catenoid)."""
    da = rng.uniform(0.0, GRID_SHIFT) * (grid.a_max - grid.a_min)
    db = rng.uniform(0.0, GRID_SHIFT) * (grid.b_max - grid.b_min)
    return pde.GridSpec(grid.a_min + da, grid.a_max, grid.b_min + db, grid.b_max,
                        grid.na, grid.nb)


def _grid_text(g) -> str:
    return f"{g.a_min!r}:{g.a_max!r}:{g.b_min!r}:{g.b_max!r}:{g.na}:{g.nb}"


def _sweep_check(label, fld, equation, grid, tol) -> Check:
    def judge(rep):
        n = grid.na * grid.nb
        fails = report_failures(rep, tol, n - SWEEP_EXCLUDED, SWEEP_EXCLUDED)
        fp = (rep.max_abs, rep.worst_point, rep.excluded_count)
        return Outcome(fp, fails, n - rep.excluded_count)
    return Check(f"sweep {label} {_grid_text(grid)}",
                 lambda _ctx: pde.residual_sweep(fld, equation, grid, name=label), judge)


def _classify_check() -> Check:
    fld = geometry.example1_graph()

    def judge(rows):
        fp = tuple((cls, H) for (_y, _z, cls, H) in rows)
        return Outcome(fp, classify_failures(rows), len(rows))
    return Check(f"classify example1 {_grid_text(CLASSIFY_GRID)}",
                 lambda _ctx: geometry.classify_grid(fld, CLASSIFY_GRID), judge)


def grid_sweep_checks(seed: int) -> list:
    rng = random.Random(f"grid_sweep:{seed}")
    central = CentralDiff(CENTRAL_H)
    checks = []
    for name in pde.catalog_names():
        e = pde.solution(name)
        grid = _seeded(pde.DEFAULT_GRIDS[name], rng)
        checks.append(_sweep_check(f"{name}/exact", e.field, e.equation, grid, EXACT_TOL))
        checks.append(_sweep_check(f"{name}/central", with_backend(e.field, central),
                                   e.equation, grid, CENTRAL_TOL))
    for name, base in pde.WICK_GRIDS.items():
        rot = pde.wick_rotate_x(pde.solution(name).field)
        checks.append(_sweep_check(f"{name}/wick_x", rot, pde.Equation.BORN_INFELD,
                                   _seeded(base, rng), EXACT_TOL))
    e = pde.solution("scherk_first_kind")
    grid = _seeded(SCHERK_GRID, rng)
    checks.append(_sweep_check("scherk_first_kind/exact", e.field, e.equation, grid, EXACT_TOL))
    checks.append(_sweep_check("scherk_first_kind/central", with_backend(e.field, central),
                               e.equation, grid, CENTRAL_TOL))
    # The classify grid does not move: its lightlike and excluded sets sit on
    # the diagonals |y| = |z|, so moving it would change the recorded counts.
    checks.append(_classify_check())
    return checks


# -- pointwise_quad --------------------------------------------------------------

def _family_check(pair, surf, wp, theta: float, z: complex) -> Check:
    def run(_ctx):
        return (geometry.isothermal_check(surf, z),
                family.conjugacy_check(pair, z),
                family.whitham_verify(wp, family.soliton_family(pair, theta, z)),
                family.whitham_constraint_defect(wp, z),
                family.complex_bi_residual_on_family(pair, theta, [z]))

    def judge(result):
        iso, cr, wh, con, rep = result
        fails = bound_failures({
            "conformal": (iso[0], ISOTHERMAL_TOL), "cross": (iso[1], ISOTHERMAL_TOL),
            "harmonic": (iso[2], ISOTHERMAL_TOL), "cauchy_riemann": (cr, CAUCHY_RIEMANN_TOL),
            "whitham_d1": (wh[0], WHITHAM_TOL), "whitham_d2": (wh[1], WHITHAM_TOL),
            "whitham_d3": (wh[2], WHITHAM_TOL), "constraint": (con, CONSTRAINT_TOL),
        })
        fails += report_failures(rep, FAMILY_BI_TOL, 1, 0)
        return Outcome((*iso, cr, *wh, con, rep.max_abs), fails)
    return Check(f"family theta={theta!r} zeta={z!r}", run, judge)


def _round_trip_check(datum, z: complex, detour: bool) -> Check:
    def run(_ctx):
        return weierstrass.we_integrate(datum, z), weierstrass.closed_form_point(datum, z)

    def judge(result):
        num, cf = result
        err = max(abs(num.x - cf.x), abs(num.y - cf.y), abs(num.z - cf.z))
        return Outcome((num.x, num.y, num.z), bound_failures({"round_trip": (err, ROUND_TRIP_TOL)}))
    return Check(f"round_trip {datum.name} zeta={z!r} detour={detour}", run, judge)


def _stratified(rng: random.Random, n: int) -> list:
    """n points of the unit square, one in each row and each column of its
    n x n grid."""
    cols = list(range(n))
    rng.shuffle(cols)
    return [((i + rng.random()) / n, (c + rng.random()) / n) for i, c in enumerate(cols)]


def _straight_targets(datum, rng: random.Random, n: int) -> list:
    # A disk around the base point that keeps clear of every pole (Scherk's
    # nearest pole is 1 from its base, the others' is 1 from theirs).
    radius = 0.8 if datum.name == "scherk_first_kind" else 0.7
    return [complex(datum.base) + (0.1 + u * (radius - 0.1)) * cmath.exp(1j * math.pi * (2 * v - 1))
            for u, v in _stratified(rng, n)]


def _detour_targets(datum, rng: random.Random, n: int) -> list:
    # Just off the real axis on the far side of a pole: the straight segment
    # from the base passes within the pole margin, so build_path detours.
    # Re of these antiderivatives is single-valued, so the detour's side does
    # not change the closed-form value.
    lo, hi = (0.3, 0.6) if datum.name == "scherk_first_kind" else (-1.2, -0.4)
    return [complex(lo + u * (hi - lo), (-1) ** i * (0.001 + 0.003 * v))
            for i, (u, v) in enumerate(_stratified(rng, n))]


def pointwise_quad_checks(seed: int) -> list:
    rng = random.Random(f"pointwise_quad:{seed}")
    pair = family.helicoid_catenoid_pair()
    checks = []
    for theta in THETAS:
        surf = family.associate_family(pair, theta)
        wp = family.calibrate_offsets(family.catalog_whitham(theta), pair)
        for u, v in _stratified(rng, FAMILY_POINTS_PER_THETA):
            # The family annulus of tests/test_acceptance.py criterion 5 less
            # the band 0.95 < |zeta| < 1.05: the family's graph projection
            # degenerates on |zeta| = 1, and its chain-rule Born-Infeld
            # residual loses accuracy like a power of 1/det there (1.5e-5 at
            # |zeta| = 0.9998); tests/test_family.py keeps off that circle too.
            r = 0.5 + 1.4 * u
            r += 0.1 if r > 0.95 else 0.0
            z = r * cmath.exp(0.85j * math.pi * (2 * v - 1))
            checks.append(_family_check(pair, surf, wp, theta, z))
    for name in weierstrass.SURFACE_NAMES:
        datum = weierstrass.we_catalog(name)
        n_detour = DETOURS_PER_DETOUR_DATUM if name in DETOUR_DATA else 0
        checks += [_round_trip_check(datum, z, True)
                   for z in _detour_targets(datum, rng, n_detour)]
        checks += [_round_trip_check(datum, z, False)
                   for z in _straight_targets(datum, rng, ROUND_TRIPS_PER_DATUM - n_detour)]
    return checks


# -- cli_session -------------------------------------------------------------------

def _identity_failures(out: bytes, zeta: complex) -> list:
    table = json.loads(out)["table"]
    if [r["K"] for r in table] != [int(k) for k in IDENTITY_K.split(",")]:
        return ["identity table has the wrong K list"]
    lhs = (zeta + 1 / zeta).imag / (zeta - 1 / zeta).imag
    fails = []
    for i, r in enumerate(table):
        got_lhs = complex(*r["lhs"])
        err = abs(complex(r["partial_re"], r["partial_im"]) - got_lhs)
        fails += bound_failures({
            f"K={r['K']} lhs": (abs(got_lhs - lhs), SURFACE_RATIO_TOL),
            f"K={r['K']} abs_err": (abs(err - r["abs_err"]), 1e-15 + 1e-12 * err),
        })
        if i > 0 and not (r["est_order"] >= IDENTITY_MIN_ORDER and r["abs_err"] < table[i - 1]["abs_err"]):
            fails.append(f"K={r['K']}: no first-order convergence")
    return fails


def _family_failures(out: bytes, seed: int) -> list:
    doc = json.loads(out)
    if doc["seed"] != seed or [r["theta"] for r in doc["results"]] != list(THETAS):
        return ["family report has the wrong seed or theta list"]
    fails = []
    for r in doc["results"]:
        for k, v in r["max_defects"].items():
            fails += bound_failures({f"theta={r['theta']:.4f} {k}": (v, ISOTHERMAL_TOL)})
        for k, v in r["whitham_defects"].items():
            tol = CONSTRAINT_TOL if k == "constraint" else WHITHAM_TOL
            fails += bound_failures({f"theta={r['theta']:.4f} {k}": (v, tol)})
    return fails


def _cli_points(command: str, out: bytes) -> int:
    """Field points a command evaluated, read from its output."""
    if command == "residual":
        return 21 * 21 - json.loads(out)["excluded_count"]
    if command == "geometry":
        return out.count(b"\n") - 1   # CSV rows after the header
    if command == "surface":
        return out.count(b"\nv ") + out.startswith(b"v ")   # OBJ vertices kept
    if command == "family":
        return FAMILY_POINTS * len(THETAS)
    return 0


def _cli_check(command: str, argv: list, verify: Callable) -> Check:
    def judge(result):
        rc, out = result
        fails = exit_failures(rc)
        points = 0
        if not fails:
            try:
                fails = verify(out)
                points = _cli_points(command, out)
            except (ValueError, KeyError, TypeError) as exc:
                fails = [f"unreadable output: {exc!r}"]
        return Outcome((rc, hashlib.sha256(out).hexdigest()), fails, points)
    return Check(f"cli {' '.join(argv)}", lambda ctx: ctx.spawn(command, argv), judge)


def cli_session_checks(seed: int) -> list:
    rng = random.Random(f"cli_session:{seed}")
    # helicoid2_identity needs |zeta| away from 0 and 1 and Im(zeta - 1/zeta)
    # away from 0; this sector keeps all three far from their limits.
    z = rng.uniform(1.3, 2.0) * cmath.exp(1j * rng.uniform(0.3, 1.2))
    zeta_text = f"{z.real!r}{z.imag:+.17g}j"
    family_seed = seed % 2 ** 31

    def digest(name):
        return lambda out: digest_failures(out, CLI_DIGESTS[name])

    return [
        _cli_check("catalog", ["catalog", "list"], digest("catalog")),
        _cli_check("residual", ["residual", "--solution", "wick_scherk",
                                "--grid", "-1:1:-1:1:21:21"], digest("residual")),
        _cli_check("geometry", ["geometry", "classify", "--solution", "example1"],
                   digest("geometry")),
        _cli_check("identity", ["identity", "--name", "helicoid2_identity",
                                "--zeta", zeta_text, "--K", IDENTITY_K],
                   lambda out: _identity_failures(out, complex(zeta_text))),
        _cli_check("family", ["family", "--num-points", str(FAMILY_POINTS),
                              "--seed", str(family_seed)],
                   lambda out: _family_failures(out, family_seed)),
        _cli_check("surface", ["surface", "sample", "--name", "scherk_first_kind",
                               "--grid", SURFACE_GRID, "--format", "obj"], digest("surface")),
    ]


def build_checks(workload: str, seed: int) -> list:
    builders = {"grid_sweep": grid_sweep_checks, "pointwise_quad": pointwise_quad_checks,
                "cli_session": cli_session_checks}
    return builders[workload](seed)


def inputs_digest(checks) -> str:
    """Digest of every check's inputs: equal for equal seeds."""
    return hashlib.sha256("\n".join(c.key for c in checks).encode()).hexdigest()
