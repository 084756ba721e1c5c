import math
import struct

import numpy as np
import pytest

from solitonlab import geometry, pde
from solitonlab import jetmath as jm
from solitonlab.core import (DEFAULT_CENTRAL_H, CentralDiff, LVec3, ScalarField2, jet,
                             lorentz_inner, with_backend)
from solitonlab.errors import DegenerateError, DomainError
from solitonlab.geometry import (
    CausalClass,
    causal_classify,
    classify_grid,
    example1_graph,
    fundamental_forms,
    isothermal_check,
    mean_curvature,
    unit_normal,
)
from solitonlab.pde import DEFAULT_GRIDS, GridSpec, catalog_names, solution
from solitonlab.weierstrass import SurfaceMap, catalog_surface


def test_flat_timelike_plane():
    flat = ScalarField2(lambda y, z: 0.0 * y)
    ff = fundamental_forms(flat, 0.7, -0.4)
    assert (ff.E, ff.F, ff.G, ff.disc) == (1.0, 0.0, -1.0, -1.0)
    assert (ff.e, ff.f2, ff.g) == (0.0, 0.0, 0.0)
    n = unit_normal(flat, 0.7, -0.4)
    assert (n.x, n.y, n.z) == (1.0, 0.0, 0.0)
    assert lorentz_inner(n, n) == 1.0
    assert mean_curvature(flat, 0.7, -0.4) == 0.0
    assert causal_classify(flat, 0.7, -0.4) is CausalClass.TIMELIKE


def test_example1_disc_two_ways():
    g = example1_graph()
    ff = fundamental_forms(g, 0.5, 1.5)
    j, _ = jet(g, 0.5, 1.5)
    formula = -j.fx.real ** 2 + j.ft.real ** 2 - 1.0
    assert abs(ff.disc - formula) <= 1e-10


def test_example1_degenerate_point():
    g = example1_graph()
    with pytest.raises(DegenerateError):
        fundamental_forms(g, 1.0, 1.0)
    assert causal_classify(g, 1.0, 1.0) is CausalClass.LIGHTLIKE
    with pytest.raises(DegenerateError):
        unit_normal(g, 1.0, 1.0)
    with pytest.raises(DegenerateError):
        mean_curvature(g, 1.0, 1.0)


def test_example1_classification_matches_sign_oracle():
    g = example1_graph()
    for (y, z) in [(0.0, 1.5), (0.3, 1.2), (-0.7, 2.0), (0.5, -1.1)]:
        j, _ = jet(g, y, z)
        w = 1 + j.fx.real ** 2 - j.ft.real ** 2
        expect = CausalClass.TIMELIKE if w > 0 else (
            CausalClass.SPACELIKE if w < 0 else CausalClass.LIGHTLIKE)
        assert causal_classify(g, y, z) is expect


def test_normal_is_orthogonal_to_tangents():
    g = example1_graph()
    rng = np.random.default_rng(3)
    done = 0
    while done < 50:
        y = rng.uniform(-1.5, 1.5)
        z = rng.uniform(1.6, 3.0) * rng.choice([-1.0, 1.0])
        if g.excluded(y, z):
            continue
        done += 1
        j, _ = jet(g, y, z)
        n = unit_normal(g, y, z)
        xy = LVec3(j.fx.real, 1.0, 0.0)  # d/dy of (phi, y, z)
        xz = LVec3(j.ft.real, 0.0, 1.0)
        assert abs(lorentz_inner(n, xy)) <= 1e-8
        assert abs(lorentz_inner(n, xz)) <= 1e-8


def test_normal_norm_is_plus_one_on_timelike_graph():
    g = example1_graph()
    n = unit_normal(g, 0.5, 1.5)
    assert abs(lorentz_inner(n, n) - 1.0) <= 1e-10


def test_mean_curvature_closed_form_oracle():
    # phi = z^2/2 at (0, 0.5): W = 1 - z^2, numerator = 1, both timelike
    fld = ScalarField2(lambda y, z: z * z / 2)
    expect = -0.5 * 1.0 / (1.0 - 0.25) ** 1.5
    assert abs(mean_curvature(fld, 0.0, 0.5) - expect) <= 1e-8


def test_printed_mean_curvature_forms():
    # the two closed forms of the proof, kept as oracles
    def timelike_H(fld, y, z):
        j, _ = jet(fld, y, z)
        py, pz = j.fx.real, j.ft.real
        num = ((1 + py * py) * j.ftt.real - 2 * py * pz * j.fxt.real
               + (pz * pz - 1) * j.fxx.real)
        return -0.5 * num / (1 + py * py - pz * pz) ** 1.5

    def spacelike_H(fld, y, z):
        j, _ = jet(fld, y, z)
        py, pz = j.fx.real, j.ft.real
        num = ((1 + py * py) * j.ftt.real - 2 * py * pz * j.fxt.real
               + (pz * pz - 1) * j.fxx.real)
        return -0.5 * num / (-1 - py * py + pz * pz) ** 1.5

    bowl = ScalarField2(lambda y, z: 0.1 * jm.sin(y) + z * z / 4)  # timelike at origin-ish
    assert causal_classify(bowl, 0.2, 0.3) is CausalClass.TIMELIKE
    assert abs(mean_curvature(bowl, 0.2, 0.3) - timelike_H(bowl, 0.2, 0.3)) <= 1e-10

    steep = ScalarField2(lambda y, z: 2 * z + 0.05 * y * y * z)  # spacelike
    assert causal_classify(steep, 0.4, 0.1) is CausalClass.SPACELIKE
    assert abs(mean_curvature(steep, 0.4, 0.1) - spacelike_H(steep, 0.4, 0.1)) <= 1e-10


def test_numerator_vanishes_for_affine_and_relates_to_H():
    aff = ScalarField2(lambda y, z: 2 * y - 3 * z + 1)
    assert pde.equation_residual(aff, pde.Equation.BORN_INFELD, 0.3, 0.4) == 0
    g = example1_graph()
    rng = np.random.default_rng(11)
    for _ in range(20):
        y = rng.uniform(-1.0, 1.0)
        z = rng.uniform(1.5, 3.0)
        ff = fundamental_forms(g, y, z)
        h = mean_curvature(g, y, z)
        num = pde.equation_residual(g, pde.Equation.BORN_INFELD, y, z)
        assert abs(num - (-2.0 * h * abs(ff.disc) ** 1.5)) <= 1e-8


def test_example1_satisfies_born_infeld_off_degenerate_set():
    g = example1_graph()
    worst_h, worst_num = 0.0, 0.0
    for (y, z) in GridSpec(-1.0, 1.0, 1.3, 3.0, 21, 21).points():
        worst_h = pde.worst([worst_h, mean_curvature(g, y, z)])
        worst_num = pde.worst([worst_num, pde.equation_residual(g, pde.Equation.BORN_INFELD, y, z)])
    assert worst_h <= 1e-6
    assert worst_num <= 1e-6


def test_normal_norm_matches_class_on_500_random_points():
    g = example1_graph()
    steep = ScalarField2(lambda y, z: 2 * z + 0.1 * jm.sin(y + z))
    rng = np.random.default_rng(5)
    done = 0
    while done < 500:
        if rng.uniform() < 0.5:
            fld = g
            y = rng.uniform(-1.5, 1.5)
            z = rng.uniform(1.6, 3.0)
        else:
            fld = steep
            y = rng.uniform(-2.0, 2.0)
            z = rng.uniform(-2.0, 2.0)
        if fld.excluded(y, z):
            continue
        cls = causal_classify(fld, y, z)
        if cls is CausalClass.LIGHTLIKE:
            continue
        done += 1
        n = unit_normal(fld, y, z)
        nn = lorentz_inner(n, n)
        expect = 1.0 if cls is CausalClass.TIMELIKE else -1.0
        assert abs(nn - expect) <= 1e-10
        ff = fundamental_forms(fld, y, z)
        # paper's first-form sign convention: disc < 0 iff timelike
        assert (ff.disc < 0) == (cls is CausalClass.TIMELIKE)


def test_lightlike_set_detected_exactly_on_diagonals():
    # step 0.25 is exactly representable, so the grid hits y = +-z exactly
    g = example1_graph()
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 17, 17)
    step = grid.step()
    hits = []
    for (y, z) in grid.points():
        if g.excluded(y, z):
            continue
        if causal_classify(g, y, z) is CausalClass.LIGHTLIKE:
            hits.append((y, z))
            assert abs(abs(y) - abs(z)) <= step + 1e-12
        else:
            assert abs(abs(y) - abs(z)) >= step - 1e-12
    on_lines = [(y, z) for (y, z) in grid.points() if abs(y) == abs(z)]
    assert set(hits) == set(on_lines)


def test_classify_grid_rows():
    g = example1_graph()
    rows = classify_grid(g, GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5))
    assert all(len(r) == 4 for r in rows)
    classes = {r[2] for r in rows}
    assert "lightlike" in classes and "timelike" in classes


def test_isothermal_check_on_catalog_surfaces():
    cat = catalog_surface("lorentzian_catenoid")
    assert max(isothermal_check(cat, 1 + 1j)) <= 1e-6
    heli = catalog_surface("lorentzian_helicoid")
    assert max(isothermal_check(heli, 2 + 0j)) <= 1e-6


def test_isothermal_check_affine_surface():
    affine = SurfaceMap(lambda u, v: (u, v, 0.0 * u))
    assert isothermal_check(affine, 0.3 + 0.8j) == (0.0, 0.0, 0.0)


def _stencil_kept(fld, y, z):
    """Whether fld keeps (y, z) and, for a central backend with step h, the
    3 x 3 square of points (y + i h, z + k h), i, k in {-1, 0, 1}."""
    h = fld.backend.h if isinstance(fld.backend, CentralDiff) else 0.0
    return not any(fld.excluded(y + dy, z + dz) for dy in (-h, 0.0, h) for dz in (-h, 0.0, h))


def _point_rows(fld, grid):
    """classify_grid computed one point at a time through the public point
    functions: the reference."""
    rows = []
    for (y, z) in grid.points():
        if not _stencil_kept(fld, y, z):
            continue
        causal = causal_classify(fld, y, z)
        h = math.nan if causal is CausalClass.LIGHTLIKE else mean_curvature(fld, y, z)
        rows.append((y, z, causal.value, h))
    return rows


def _row_bits(rows):
    return [(y, z, c, "nan" if math.isnan(h) else struct.pack("<d", h)) for (y, z, c, h) in rows]


@pytest.mark.parametrize("grid", [
    GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21),
    GridSpec(-2.0, 2.0, -2.0, 2.0, 101, 101),
    GridSpec(-2.0, 2.0, -2.0, 2.0, 201, 201),
    GridSpec(-1.37, 2.11, -1.93, 1.71, 157, 143),
])
def test_classify_grid_is_bit_identical_to_point_by_point(grid):
    g = example1_graph()
    assert _row_bits(classify_grid(g, grid)) == _row_bits(_point_rows(g, grid))


def _rows_or_error(fn):
    try:
        return fn()
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("name", catalog_names())
def test_classify_grid_agrees_with_point_by_point_on_the_catalog(name):
    fld = solution(name).field
    for grid, tol in ((DEFAULT_GRIDS[name], 1e-12), (GridSpec(-2.0, 2.0, -2.0, 2.0, 41, 41), None)):
        got = _rows_or_error(lambda: classify_grid(fld, grid))
        want = _rows_or_error(lambda: _point_rows(fld, grid))
        if isinstance(want, str):
            # a non-real field value: the same error, at the same point
            assert got == want
            continue
        assert [r[:3] for r in got] == [r[:3] for r in want]
        for g, w in zip(got, want):
            bound = 1e-12 * (1 + abs(w[3])) if tol is None else tol
            assert math.isnan(g[3]) == math.isnan(w[3])
            assert not abs(g[3] - w[3]) > bound, (g, w)
        if name != "helicoid_second_kind":  # numpy's tanh is not cmath's
            assert _row_bits(got) == _row_bits(want)


def test_classify_grid_raises_at_the_first_non_real_point():
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 41, 41)
    for name, g in (("scherk_minimal", grid), ("wick_scherk", grid),
                    ("wick_helicoid_first_kind", DEFAULT_GRIDS["wick_helicoid_first_kind"]),
                    ("wick_helicoid_second_kind", DEFAULT_GRIDS["wick_helicoid_second_kind"])):
        fld = solution(name).field
        with pytest.raises(DomainError) as want:
            _point_rows(fld, g)
        with pytest.raises(DomainError) as got:
            classify_grid(fld, g)
        assert str(got.value) == str(want.value) and "not real-valued" in str(got.value)


def test_classify_grid_takes_the_point_path_for_math_evaluators():
    seen = set()

    def ev(y, z):
        seen.add(type(y))
        return 0.1 * math.sin(y) + z * z / 4

    fld = ScalarField2(ev)
    grid = GridSpec(-1.0, 1.0, -2.5, 2.5, 15, 17)
    rows = classify_grid(fld, grid)
    assert float in seen
    assert _row_bits(rows) == _row_bits(_point_rows(fld, grid))
    assert {r[2] for r in rows} == {"timelike", "spacelike"}


def test_classify_grid_skips_central_stencils_that_reach_an_exclusion():
    fld = ScalarField2(lambda y, z: 0.3 * y * y + 0.2 * z * z, backend=CentralDiff(0.05),
                       domain_exclusions=lambda y, z: y < 0.0)
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21)
    rows = classify_grid(fld, grid)
    want = _point_rows(fld, grid)
    # the array stencil scales by the step's reciprocal, a point's divides: roundoff apart
    assert [r[:3] for r in rows] == [r[:3] for r in want]
    assert all(abs(g[3] - w[3]) <= 1e-12 * abs(w[3]) for g, w in zip(rows, want))
    # the kept column y = 0 has stencils at y = -0.05: no jet exists there
    assert {r[0] for r in rows} == {y for (y, _) in grid.points() if y > 0.0}
    assert all(r[2] == "timelike" for r in rows)
    for y, z in ((0.0, 0.3), (-0.5, 0.3)):
        for part in (causal_classify, fundamental_forms, unit_normal, mean_curvature):
            with pytest.raises(DomainError):
                part(fld, y, z)


@pytest.mark.parametrize("cos", [math.cos, np.cos], ids=["math.cos", "np.cos"])
def test_classify_grid_skips_stencils_of_a_central_fallback_field(cos):
    # cos rejects jets, so core.jet falls back to central differences, point
    # by point for math.cos and on arrays for np.cos; the stencils of the
    # kept column y = 0 reach y < 0 and are skipped, as for a central field
    fld = ScalarField2(lambda y, z: 0.1 * cos(y) + z * z / 4,
                       domain_exclusions=lambda y, z: y < 0.0)
    grid = GridSpec.parse("-1:1:-1:1:5:5")
    rows = classify_grid(fld, grid)
    want = classify_grid(with_backend(fld, CentralDiff(DEFAULT_CENTRAL_H)), grid)
    assert _row_bits(rows) == _row_bits(want)
    assert [r[:2] for r in rows] == [(y, z) for (y, z) in grid.points() if y > 0.0]
    with pytest.raises(DomainError, match=r"^stencil point \(-0\.0001, -1\.0\) is excluded$"):
        causal_classify(fld, 0.0, -1.0)


def test_central_classify_of_example1_agrees_with_the_exact_rows():
    # 179 of the kept points have a stencil that reaches z^2 < y^2
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 101, 101)
    exact = {(y, z): c for (y, z, c, _) in classify_grid(example1_graph(), grid)}
    central = with_backend(example1_graph(), CentralDiff())
    rows = classify_grid(central, grid)
    kept = [(y, z) for (y, z) in exact if _stencil_kept(central, y, z)]
    assert len(exact) == 5179 and len(kept) == 5000
    assert [(y, z) for (y, z, _, _) in rows] == kept
    assert all(c == exact[y, z] == "timelike" for (y, z, c, _) in rows)
    blocked = next(p for p in exact if not _stencil_kept(central, *p))
    for part in (causal_classify, fundamental_forms, unit_normal, mean_curvature):
        for y, z in ((1.0, 0.5), blocked):
            with pytest.raises(DomainError):
                part(central, y, z)


@pytest.mark.parametrize("fld,points", [
    # an infinite value with finite slopes (W = 1.24)
    (ScalarField2(lambda y, z: 0.5 * y + 0.1 * z + math.inf), [(0.2, 0.3)]),
    # slopes that overflow to inf
    (ScalarField2(lambda y, z: z * z * 1e300 * 1e10), [(0.1, 0.5)]),
    # a real value with a non-real W = 1 - 0.5i
    (ScalarField2(lambda y, z: (1 + 1j) * y * z), [(0.5, 0.0)]),
    # the degenerate diagonals and the points around them
    (example1_graph(), [(1.0, 1.0), (0.5, 1.5), (0.3, -1.2),
                        *GridSpec(-2.0, 2.0, -2.0, 2.0, 17, 17).points()]),
], ids=["inf", "overflow", "non_real_W", "example1"])
def test_degenerate_error_exactly_where_lightlike(fld, points, monkeypatch):
    calls = []
    monkeypatch.setattr(geometry, "jet", lambda *a: calls.append(a) or jet(*a))
    lightlike = 0
    for (y, z) in points:
        if fld.excluded(y, z):
            continue
        calls.clear()
        light = causal_classify(fld, y, z) is CausalClass.LIGHTLIKE
        assert len(calls) == 1
        lightlike += light
        for part in (fundamental_forms, unit_normal, mean_curvature):
            calls.clear()
            try:
                part(fld, y, z)
            except DegenerateError:
                raised = True
            else:
                raised = False
            assert raised == light, (part.__name__, y, z)
            assert len(calls) == 1  # one jet per point
    assert lightlike


def test_non_real_value_or_numerator_raises_domain_error():
    scherk = solution("scherk_minimal").field
    for part in (fundamental_forms, unit_normal, mean_curvature):
        with pytest.raises(DomainError, match="field value"):
            part(scherk, 0.3, 2.0)
    with pytest.raises(DomainError, match="Born-Infeld numerator"):
        mean_curvature(ScalarField2(lambda y, z: y + 0.01j * z * z), 0.2, 0.0)


def test_non_finite_jet_is_lightlike():
    # finite slopes, so W = 1.24 > 0, but an infinite value
    fld = ScalarField2(lambda y, z: 0.5 * y + 0.1 * z + math.inf)
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
    rows = classify_grid(fld, grid)
    assert _row_bits(rows) == _row_bits(_point_rows(fld, grid))
    assert all(r[2] == "lightlike" and math.isnan(r[3]) for r in rows)
    assert causal_classify(fld, 0.2, 0.3) is CausalClass.LIGHTLIKE
    with pytest.raises(DegenerateError):
        mean_curvature(fld, 0.2, 0.3)


@pytest.mark.parametrize("backend", [None, CentralDiff(1e-4)], ids=["exact", "central"])
def test_classify_grid_does_not_depend_on_the_block_size(backend, monkeypatch):
    fld = example1_graph() if backend is None else with_backend(example1_graph(), backend)
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 101, 101)
    want = _row_bits(classify_grid(fld, grid))
    # one row's worth per block, and the whole grid in one block
    for block in (grid.nb, grid.na * grid.nb + 1):
        monkeypatch.setattr(pde, "_BLOCK", block)
        monkeypatch.setattr(geometry, "_BLOCK", block)
        assert _row_bits(classify_grid(fld, grid)) == want


def _counting(fld):
    """The field with an exclusion predicate that counts its calls."""
    calls = []

    def predicate(y, z):
        calls.append(1)
        return fld.domain_exclusions(y, z)
    return ScalarField2(fld.evaluator, fld.backend, predicate), calls


def _blocks(fld, grid):
    """The number of blocks that ``pde.sweep_blocks`` evaluates on ``grid``:
    runs of whole rows, each packed while its kept points fit in ``_BLOCK``."""
    a, b = grid.axes()
    sizes = []
    for n in np.count_nonzero(~fld.excluded_mask(a[:, None], b[None, :]), axis=1).tolist():
        if sizes and sizes[-1] + n <= pde._BLOCK:
            sizes[-1] += n
        else:
            sizes.append(n)
    return sum(n > 0 for n in sizes)


def test_classify_grid_tests_exclusions_once_per_block():
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 101, 101)
    blocks = _blocks(example1_graph(), grid)
    fld, calls = _counting(example1_graph())
    rows = classify_grid(fld, grid)
    # one call for the grid, and one in core.jet per block
    assert len(rows) == 5179 and blocks == -(-5179 // pde._BLOCK)
    assert len(calls) == 1 + blocks
    # a central-difference sweep tests all nine stencil points of a block at once
    fld = with_backend(solution("wick_lorentzian_catenoid").field, CentralDiff(1e-4))
    grid = GridSpec(-0.8, 0.8, 1.0, 3.0, 81, 81)
    blocks = _blocks(fld, grid)
    fld, calls = _counting(fld)
    rep = pde.residual_sweep(fld, pde.Equation.BORN_INFELD, grid)
    assert len(rep.residuals) == 81 * 81 and blocks == -(-81 * 81 // pde._BLOCK)
    assert len(calls) == 1 + blocks
