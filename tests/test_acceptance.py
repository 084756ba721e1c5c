"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import cmath
import math

import numpy as np

import grid_points
from solitonlab import jetmath as jm
from solitonlab.cli import main as cli_main
from solitonlab.core import CentralDiff, ScalarField2, with_backend
from solitonlab.family import (
    associate_family,
    calibrate_offsets,
    catalog_whitham,
    conjugacy_check,
    helicoid_catenoid_pair,
    soliton_family,
    whitham_constraint_defect,
    whitham_verify,
)
from solitonlab.geometry import (
    CausalClass,
    causal_classify,
    example1_graph,
    isothermal_check,
    mean_curvature,
    unit_normal,
)
from solitonlab.core import lorentz_inner
from solitonlab.identities import (
    HELICOID2_IDENTITY,
    LORENTZ_HELICOID_IDENTITY,
    RAM_ARCTAN_SUM,
    SCHERK_IDENTITY,
    evaluate,
    quadrant_constant,
)
from solitonlab.pde import (
    DEFAULT_GRIDS,
    WICK_GRIDS,
    Equation,
    GridSpec,
    catalog_names,
    equation_residual,
    residual_sweep,
    solution,
    wick_rotate_x,
    worst,
)
from solitonlab.weierstrass import (
    SURFACE_NAMES,
    catalog_surface,
    closed_form_point,
    nonparametric_check,
    we_catalog,
    we_integrate,
)

THETAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)


def _report(n, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {n} ({label}): {status} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_pde_catalog_residuals():
    worst_exact, worst_central = 0.0, 0.0
    for name in catalog_names():
        e = solution(name)
        grid = DEFAULT_GRIDS[name]
        rep = residual_sweep(e.field, e.equation, grid, name=name)
        worst_exact = worst([worst_exact, rep.max_abs])
        repc = residual_sweep(with_backend(e.field, CentralDiff(1e-4)),
                              e.equation, grid, name=name)
        worst_central = worst([worst_central, repc.max_abs])
    ok = worst_exact <= 1e-6 and worst_central <= 1e-5
    _report(1, "pde catalog", ok,
            f"max exact residual {worst_exact:.2e} (tol 1e-6), "
            f"max central residual {worst_central:.2e} (tol 1e-5)")


def test_criterion_2_wick_involution():
    worst_rot = 0.0
    for name, grid in WICK_GRIDS.items():
        rot = wick_rotate_x(solution(name).field)
        rep = residual_sweep(rot, Equation.BORN_INFELD, grid, name=name)
        worst_rot = worst([worst_rot, rep.max_abs])
    ok = worst_rot <= 1e-6
    _report(2, "wick involution", ok,
            f"max Born-Infeld residual of rotated maximal entries {worst_rot:.2e} (tol 1e-6)")


def test_criterion_3_proposition_1_suite():
    g = example1_graph()
    # |H| and numerator off the degenerate set
    worst_h = worst_num = 0.0
    for (y, z) in grid_points.points(GridSpec(-1.0, 1.0, 1.3, 3.0, 21, 21)):
        worst_h = worst([worst_h, mean_curvature(g, y, z)])
        worst_num = worst([worst_num, equation_residual(g, Equation.BORN_INFELD, y, z)])
    ok_h = worst_h <= 1e-6 and worst_num <= 1e-6

    # lightlike detection within one grid step of y = +-z, nowhere else
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 17, 17)  # step 0.25, exact floats
    step = grid.step()
    ok_light = True
    fired = 0
    for (y, z) in grid_points.points(grid):
        if g.excluded(y, z):
            continue
        light = causal_classify(g, y, z) is CausalClass.LIGHTLIKE
        near = abs(abs(y) - abs(z)) <= step + 1e-12
        on_line = abs(y) == abs(z)
        if light:
            fired += 1
            ok_light = ok_light and near
        if on_line and not light:
            ok_light = False
    ok_light = ok_light and fired >= 10

    # <N,N> = +-1 matches the causal class at 500 random points
    steep = ScalarField2(lambda y, z: 2 * z + 0.1 * jm.sin(y + z))
    rng = np.random.default_rng(1)
    worst_nn = 0.0
    done = 0
    while done < 500:
        if rng.uniform() < 0.5:
            fld, y, z = g, rng.uniform(-1.5, 1.5), rng.uniform(1.6, 3.0)
        else:
            fld, y, z = steep, rng.uniform(-2, 2), rng.uniform(-2, 2)
        if fld.excluded(y, z):
            continue
        cls = causal_classify(fld, y, z)
        if cls is CausalClass.LIGHTLIKE:
            continue
        done += 1
        nn = lorentz_inner(unit_normal(fld, y, z), unit_normal(fld, y, z))
        expect = 1.0 if cls is CausalClass.TIMELIKE else -1.0
        worst_nn = worst([worst_nn, nn - expect])
    ok_nn = worst_nn <= 1e-10

    ok = ok_h and ok_light and ok_nn
    _report(3, "proposition-1 suite", ok,
            f"|H| max {worst_h:.2e}, numerator max {worst_num:.2e} (tol 1e-6); "
            f"lightlike set on the diagonals ({fired} hits): {ok_light}; "
            f"<N,N> match defect {worst_nn:.2e} (tol 1e-10)")


def test_criterion_4_weierstrass_round_trip():
    rng = np.random.default_rng(2)
    sectors = {
        "scherk_first_kind": (0.4, 2.6, 0.75 * math.pi, (1, -1, 1j, -1j)),
        "helicoid_second_kind": (0.3, 2.5, 0.95 * math.pi, (0j,)),
        "lorentzian_helicoid": (0.3, 2.5, 0.75 * math.pi, (0j,)),
        "lorentzian_catenoid": (0.3, 2.5, 0.95 * math.pi, (0j,)),
    }
    worst_quad = 0.0
    for name in SURFACE_NAMES:
        d = we_catalog(name)
        r_lo, r_hi, a_max, avoid = sectors[name]
        done = 0
        while done < 50:
            r = rng.uniform(r_lo, r_hi)
            a = rng.uniform(-a_max, a_max)
            z = r * cmath.exp(1j * a)
            if min(abs(z - p) for p in avoid) < 0.15:
                continue
            done += 1
            num = we_integrate(d, z)
            cf = closed_form_point(d, z)
            worst_quad = worst([worst_quad, num.x - cf.x, num.y - cf.y, num.z - cf.z])
    ok_quad = worst_quad <= 1e-8

    sch = catalog_surface("scherk_first_kind")
    h2 = catalog_surface("helicoid_second_kind")
    worst_sch = worst_h2 = 0.0
    done = 0
    while done < 40:
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if sch.excluded(z) or h2.excluded(z) or abs(z) < 0.3:
            continue
        done += 1
        worst_sch = worst([worst_sch, nonparametric_check(sch, "scherk_first_kind", z)])
        worst_h2 = worst([worst_h2, nonparametric_check(h2, "helicoid_second_kind", z)])
    ok_rel = worst_sch <= 1e-10 and worst_h2 <= 1e-10

    ok = ok_quad and ok_rel
    _report(4, "weierstrass round trip", ok,
            f"quadrature vs closed forms {worst_quad:.2e} (tol 1e-8); "
            f"scherk relation {worst_sch:.2e}, helicoid-2 relation {worst_h2:.2e} (tol 1e-10)")


def test_criterion_5_family_suite():
    pair = helicoid_catenoid_pair()
    rng = np.random.default_rng(3)
    pts = []
    while len(pts) < 20:
        r = rng.uniform(0.5, 2.0)
        a = rng.uniform(-0.85 * math.pi, 0.85 * math.pi)
        pts.append(r * cmath.exp(1j * a))

    worst_cr = worst([conjugacy_check(pair, z) for z in pts])
    ok_cr = worst_cr <= 1e-6

    worst_iso = 0.0
    for theta in THETAS:
        surf = associate_family(pair, theta)
        for z in pts:
            worst_iso = worst([worst_iso, *isothermal_check(surf, z)])
    ok_iso = worst_iso <= 1e-6

    worst_wh = 0.0
    for theta in THETAS:
        wp = calibrate_offsets(catalog_whitham(theta), pair)
        for z in pts:
            worst_wh = worst([worst_wh, *whitham_verify(wp, soliton_family(pair, theta, z))])
    ok_wh = worst_wh <= 1e-8

    worst_con = 0.0
    wp = catalog_whitham(math.pi / 7)
    done = 0
    while done < 100:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 0.1:
            continue
        done += 1
        worst_con = worst([worst_con, whitham_constraint_defect(wp, z)])
    ok_con = worst_con <= 1e-12

    ok = ok_cr and ok_iso and ok_wh and ok_con
    _report(5, "family suite", ok,
            f"CR defect {worst_cr:.2e} (tol 1e-6); isothermal {worst_iso:.2e} (tol 1e-6); "
            f"whitham {worst_wh:.2e} (tol 1e-8); constraint {worst_con:.2e} (tol 1e-12)")


def test_criterion_6_identities():
    r3 = evaluate(SCHERK_IDENTITY, (2 + 0j,), 10 ** 3)
    r4 = evaluate(SCHERK_IDENTITY, (2 + 0j,), 10 ** 4)
    ok_scherk = (abs(r4.lhs - math.log(3 / 5)) <= 1e-15
                 and r4.abs_err < r3.abs_err and r4.est_order >= 0.9)

    raw = evaluate(RAM_ARCTAN_SUM, (1.0, 0.7), 10 ** 4)
    cor = evaluate(RAM_ARCTAN_SUM, (1.0, 0.7), 10 ** 4, RAM_ARCTAN_SUM.tail)
    ok_arctan = raw.abs_err <= 1e-4 and cor.abs_err * 10 <= raw.abs_err

    eighth = [(1.2, 0.9), (-1.2, 0.9), (-1.2, -0.9), (1.2, -0.9),
              (2.0, 0.05), (-2.0, 0.05), (0.05, 2.0), (-0.05, 2.0)]
    ok_quadrants = all(
        quadrant_constant(u, v) == (0.5 * math.pi if u * v >= 0 else -0.5 * math.pi)
        for (u, v) in eighth)
    # the constant actually used by the evaluation matches the table
    for (u, v) in eighth:
        r = evaluate(LORENTZ_HELICOID_IDENTITY, (complex(u, v),), 10)
        k = np.arange(1, 11)
        z = complex(u, v)
        R = (z + 1 / z).real
        I = (z - 1 / z).imag
        series = float(np.sum(np.arctan(R / (I - 2 * k * math.pi))
                              + np.arctan(R / (I + 2 * k * math.pi))))
        ok_quadrants = ok_quadrants and abs(
            (r.partial.real - series) - quadrant_constant(u, v)) <= 1e-12

    surf = catalog_surface("helicoid_second_kind")
    rng = np.random.default_rng(4)
    worst_ratio = 0.0
    done = 0
    while done < 20:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 0.3 or abs(abs(z) - 1) < 0.05 or abs((z - 1 / z).imag) < 0.1:
            continue
        done += 1
        p = surf.eval(z)
        r = evaluate(HELICOID2_IDENTITY, (z,), 10)
        worst_ratio = worst([worst_ratio, r.lhs - p.z / p.x])
    ok_ratio = worst_ratio <= 1e-10

    ok = ok_scherk and ok_arctan and ok_quadrants and ok_ratio
    _report(6, "identities", ok,
            f"scherk: lhs=ln(3/5), err(1e4)={r4.abs_err:.2e} < err(1e3)={r3.abs_err:.2e}, "
            f"order {r4.est_order:.2f}; arctan err {raw.abs_err:.2e} (tol 1e-4), "
            f"tail gain {raw.abs_err / cor.abs_err:.0f}x; quadrant table: {ok_quadrants}; "
            f"surface-ratio defect {worst_ratio:.2e} (tol 1e-10)")


def test_criterion_7_cli_determinism(tmp_path):
    cases = [
        ["residual", "--solution", "wick_scherk", "--grid", "-1:1:-1:1:21:21"],
        ["identity", "--name", "ram_arctan_sum", "--X", "1", "--A", "0.7",
         "--K", "100,1000,10000"],
        ["family", "--theta-list", "0,0.7853981633974483", "--num-points", "10",
         "--seed", "7"],
    ]
    ok = True
    for i, argv in enumerate(cases):
        a = tmp_path / f"a{i}.json"
        b = tmp_path / f"b{i}.json"
        ok = ok and cli_main(argv + ["--out", str(a)]) == 0
        ok = ok and cli_main(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    _report(7, "cli determinism", ok,
            f"{len(cases)} commands re-run with fixed seeds, byte-identical reports")
