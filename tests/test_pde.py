import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grid_points
from solitonlab import jetmath as jm
from solitonlab import pde
from solitonlab.core import CentralDiff, ScalarField2, jet, with_backend
from solitonlab.errors import DomainError, UnsupportedEvaluator
from solitonlab.geometry import classify_grid, example1_graph
from solitonlab.pde import (
    DEFAULT_GRIDS,
    WICK_GRIDS,
    Equation,
    GridSpec,
    catalog_names,
    equation_residual,
    residual_sweep,
    solution,
    summarize,
    wick_rotate_t,
    wick_rotate_x,
    worst,
)


def test_affine_fields_solve_all_three_equations_exactly():
    fld = ScalarField2(lambda a, b: 3 * a + 2 * b - 1)
    for equation in Equation:
        assert equation_residual(fld, equation, 0.3, -0.8) == 0


def test_born_infeld_wick_scherk_point():
    fld = solution("wick_scherk").field
    assert abs(equation_residual(fld, Equation.BORN_INFELD, 0.3, 0.5)) <= 1e-6


def test_born_infeld_wick_helicoid2_point():
    fld = ScalarField2(lambda a, b: 1j * a * jm.tanh(b))
    assert abs(equation_residual(fld, Equation.BORN_INFELD, 0.7, 0.2)) <= 1e-6


def test_maximal_catenoid_and_helicoid_points():
    cat = solution("lorentzian_catenoid").field
    assert abs(equation_residual(cat, Equation.MAXIMAL, 1.0, 1.0)) <= 1e-6
    heli = solution("helicoid_first_kind", k=2.0).field
    assert abs(equation_residual(heli, Equation.MAXIMAL, 1.0, 0.5)) <= 1e-6


def _helicoid_partials(a, b):
    # hand-derived partials of atan(b/a), independent of the jet machinery
    r2 = a * a + b * b
    return {
        "vx": -b / r2, "vt": a / r2,
        "vxx": 2 * a * b / r2 ** 2,
        "vxt": (b * b - a * a) / r2 ** 2,
        "vtt": -2 * a * b / r2 ** 2,
    }


def _scherk_minimal_partials(a, b):
    # partials of ln(cos b) - ln(cos a)
    return {
        "vx": math.tan(a), "vt": -math.tan(b),
        "vxx": 1 / math.cos(a) ** 2,
        "vxt": 0.0,
        "vtt": -1 / math.cos(b) ** 2,
    }


@pytest.mark.parametrize("name,point,partials", [
    ("helicoid_minimal", (1.0, 1.0), _helicoid_partials),
    ("scherk_minimal", (0.2, 0.3), _scherk_minimal_partials),
])
def test_minimal_solutions_against_substitution_oracle(name, point, partials):
    # oracle: plug closed-form partials into the minimal-graph equation directly
    p = partials(*point)
    oracle = ((1 + p["vx"] ** 2) * p["vtt"]
              - 2 * p["vx"] * p["vt"] * p["vxt"]
              + (1 + p["vt"] ** 2) * p["vxx"])
    assert abs(oracle) <= 1e-12
    assert abs(equation_residual(solution(name).field, Equation.MINIMAL, *point)) <= 1e-6


def test_wick_x_helicoid_first_kind_closed_form():
    k = 2.0
    rot = wick_rotate_x(solution("helicoid_first_kind", k=k).field)
    for (a, b) in [(1.5, 0.4), (2.0, -0.7), (1.2, 0.0)]:
        expect = -1j / k * cmath.atanh(b / a)
        assert abs(rot.evaluator(a, b) - expect) < 1e-12


def test_wick_x_helicoid_second_kind_closed_form():
    k = 1.5
    rot = wick_rotate_x(solution("helicoid_second_kind", k=k).field)
    for (a, b) in [(0.5, 0.4), (-1.0, 0.7)]:
        expect = 1j * a * cmath.tanh(k * b)
        assert abs(rot.evaluator(a, b) - expect) < 1e-12


def test_wick_x_scherk_closed_form():
    rot = wick_rotate_x(solution("scherk_first_kind").field)
    for (a, b) in [(0.3, 0.5), (-0.9, 1.1)]:
        expect = cmath.log(math.cosh(b) / math.cos(a))
        assert abs(rot.evaluator(a, b) - expect) < 1e-12


def test_wick_t_scherk_minimal_gives_born_infeld_soliton():
    rot = wick_rotate_t(solution("scherk_minimal").field)
    # value check: ln(cos(ib)/cos(a)) = ln(cosh b / cos a)
    assert abs(rot.evaluator(0.2, 0.3) - cmath.log(math.cosh(0.3) / math.cos(0.2))) < 1e-12
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 11, 11)
    rep = residual_sweep(rot, Equation.BORN_INFELD, grid)
    assert rep.max_abs <= 1e-6


def test_wick_t_twice_negates_second_argument():
    fld = solution("scherk_minimal").field
    twice = wick_rotate_t(wick_rotate_t(fld))
    for (a, b) in [(0.1, 0.2), (0.4, -0.3), (-0.2, 0.5)]:
        assert abs(complex(twice.evaluator(a, b)) - complex(fld.evaluator(a, -b))) < 1e-14


def test_wick_rotation_requires_exact_backend():
    fld = with_backend(solution("scherk_minimal").field, CentralDiff())
    with pytest.raises(UnsupportedEvaluator):
        wick_rotate_x(fld)


def test_full_catalog_residuals_exact_backend():
    for name in catalog_names():
        e = solution(name)
        rep = residual_sweep(e.field, e.equation, DEFAULT_GRIDS[name], name=name)
        assert rep.max_abs <= 1e-6, (name, rep.max_abs)
        grid = DEFAULT_GRIDS[name]
        assert len(rep.residuals) + rep.excluded_count == grid.na * grid.nb


def test_wick_closure_of_maximal_entries():
    for name, grid in WICK_GRIDS.items():
        rot = wick_rotate_x(solution(name).field)
        rep = residual_sweep(rot, Equation.BORN_INFELD, grid, name=name)
        assert rep.max_abs <= 1e-6, (name, rep.max_abs)


@pytest.mark.parametrize("bounds", [(-1e308, 1e308, -1.0, 1.0), (-1.0, 1.0, 1e308, -1e308)])
def test_grid_spans_must_be_finite(bounds):
    # each bound is finite, but its axis's span overflows to inf
    with pytest.raises(ValueError, match="^grid spans must be finite$"):
        GridSpec(*bounds, 3, 3)
    a, _b = GridSpec(-8e307, 8e307, -1.0, 1.0, 3, 3).axes()
    assert a.tolist() == [-8e307, 0.0, 8e307]


def test_grid_tables_are_read_off_the_catalog():
    assert sorted(DEFAULT_GRIDS) == catalog_names()
    assert list(WICK_GRIDS) == ["helicoid_first_kind", "helicoid_second_kind",
                                "lorentzian_catenoid", "scherk_first_kind"]
    assert list(DEFAULT_GRIDS.items()) == [
        ("helicoid_first_kind", GridSpec(0.5, 2.5, -1.0, 1.0, 41, 41)),
        ("helicoid_second_kind", GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41)),
        ("lorentzian_catenoid", GridSpec(0.5, 2.0, -1.0, 1.0, 41, 41)),
        ("scherk_first_kind", GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41)),
        ("wick_helicoid_first_kind", GridSpec(1.0, 3.0, -0.6, 0.6, 41, 41)),
        ("wick_helicoid_second_kind", GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41)),
        ("wick_scherk", GridSpec(-1.2, 1.2, -1.0, 1.0, 41, 41)),
        ("wick_lorentzian_catenoid", GridSpec(-0.8, 0.8, 1.0, 3.0, 41, 41)),
        ("helicoid_minimal", GridSpec(0.5, 2.5, -1.0, 1.0, 41, 41)),
        ("scherk_minimal", GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41)),
    ]
    assert WICK_GRIDS == {
        "helicoid_first_kind": GridSpec(1.0, 3.0, -0.8, 0.8, 21, 21),
        "helicoid_second_kind": GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21),
        "lorentzian_catenoid": GridSpec(-0.8, 0.8, 1.0, 3.0, 21, 21),
        "scherk_first_kind": GridSpec(-1.2, 1.2, -1.0, 1.0, 21, 21),
    }
    assert all(solution(name).equation is Equation.MAXIMAL for name in WICK_GRIDS)


def _rotations():
    """(entry, k, the field it must equal): each hand-written Born-Infeld and
    minimal entry against the Wick rotation of the entry it comes from."""
    for k in (1.0, 2.0):
        for kind in ("helicoid_first_kind", "helicoid_second_kind"):
            yield f"wick_{kind}", k, wick_rotate_x(solution(kind, k=k).field)
    yield "wick_scherk", 1.0, wick_rotate_x(solution("scherk_first_kind").field)
    yield ("wick_lorentzian_catenoid", 1.0,
           wick_rotate_x(solution("lorentzian_catenoid").field))
    yield "scherk_minimal", 1.0, wick_rotate_t(solution("wick_scherk").field)
    yield "helicoid_minimal", 1.0, solution("helicoid_first_kind").field


@pytest.mark.parametrize("name,k,rotated",
                         [pytest.param(*r, id=f"{r[0]}-k{r[1]:g}") for r in _rotations()])
def test_catalog_entries_are_the_rotations_of_their_graphs(name, k, rotated):
    fld = solution(name, k=k).field
    a, b = grid_points.coords(DEFAULT_GRIDS[name])
    kept = ~fld.excluded_mask(a, b)
    a, b = a[kept], b[kept]
    want, got = jet(fld, a, b)[0], jet(rotated, a, b)[0]
    for slot in ("f", "fx", "ft", "fxx", "fxt", "ftt"):
        c = np.broadcast_to(getattr(want, slot), a.shape)
        err = np.abs(np.broadcast_to(getattr(got, slot), a.shape) - c)
        assert np.all(err <= 1e-12 * (1 + np.abs(c))), (slot, float(err.max()))


def test_wick_scherk_conditionally_real():
    # real exactly where cos a > 0
    e = solution("wick_scherk")
    grid = GridSpec(-2.5, 2.5, -1.0, 1.0, 41, 41)
    for (a, b) in grid_points.points(grid):
        if e.field.excluded(a, b):
            continue
        v = complex(e.field.evaluator(a, b))
        if np.cos(a) > 0:
            assert abs(v.imag) <= 1e-12
        else:
            assert abs(v.imag) > 0.1  # the constant i*pi branch


_BOUND = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(_BOUND, _BOUND, _BOUND, _BOUND, st.integers(2, 500), st.integers(2, 500))
def test_grid_spec_text_names_the_grid_it_was_made_from(a_min, a_max, b_min, b_max, na, nb):
    g = GridSpec(a_min, a_max, b_min, b_max, na, nb)
    back = GridSpec.parse(g.as_text())
    assert [float(x).hex() for x in (back.a_min, back.a_max, back.b_min, back.b_max)] == \
        [x.hex() for x in (a_min, a_max, b_min, b_max)]
    assert (back.na, back.nb) == (na, nb)


def test_grid_spec_roundtrip_and_validation():
    g = GridSpec.parse("-1:1:-2:2:21:11")
    assert (g.a_min, g.a_max, g.b_min, g.b_max, g.na, g.nb) == (-1, 1, -2, 2, 21, 11)
    assert GridSpec.parse(g.as_text()) == g
    # a bound that :g would shorten keeps every digit; the others print as :g
    assert GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21).as_text() == "-1:1:-1:1:21:21"
    seeded = GridSpec(-0.962637061362311, 1.0, -0.9717598222437912, 1.0, 201, 201)
    assert seeded.as_text() == "-0.962637061362311:1:-0.9717598222437912:1:201:201"
    assert GridSpec(123456789.0, 1e-5, 0.5, 2e300, 2, 2).as_text() == \
        "123456789.0:1e-05:0.5:2e+300:2:2"
    with pytest.raises(ValueError):
        GridSpec.parse("1:2:3")
    with pytest.raises(ValueError):
        GridSpec(0, 1, 0, 1, 1, 5)


def test_report_json_fields():
    e = solution("scherk_first_kind")
    rep = residual_sweep(e.field, e.equation, GridSpec(-1, 1, -1, 1, 5, 5), name=e.name)
    d = rep.to_json_dict()
    assert set(d) == {"name", "equation", "backend", "grid_spec", "max_abs",
                      "worst_point", "excluded_count"}
    assert d["equation"] == "maximal"


# -- array sweeps against the per-point scalar path ---------------------------

def _sweep_cases():
    for name in catalog_names():
        e = solution(name)
        yield name, e.field, e.equation, DEFAULT_GRIDS[name]
    for name, grid in WICK_GRIDS.items():
        yield f"wick_x {name}", wick_rotate_x(solution(name).field), Equation.BORN_INFELD, grid


_BIT_IDENTICAL = {"scherk_first_kind", "scherk_minimal", "wick_scherk"}


@pytest.mark.parametrize("backend,tol", [(None, 1e-13), (CentralDiff(1e-4), 1e-6)],
                         ids=["exact", "central"])
@pytest.mark.parametrize("label,fld,equation,grid",
                         [pytest.param(*case, id=case[0]) for case in _sweep_cases()])
def test_array_sweep_matches_per_point_residuals(label, fld, equation, grid, backend, tol):
    if backend is not None:
        fld = with_backend(fld, backend)
    rep = residual_sweep(fld, equation, grid)
    want = np.array([equation_residual(fld, equation, a, b) for (a, b) in rep.points.tolist()])
    assert isinstance(rep.residuals, np.ndarray)
    if backend is None and label in _BIT_IDENTICAL:
        assert np.array_equal(rep.residuals, want)
    else:
        # numpy's ufuncs and complex products differ from cmath in the last
        # ulp; central differences amplify that by about eps/h^2
        assert np.max(np.abs(rep.residuals - want)) <= tol


# -- row blocks on the grid's axes ----------------------------------------------

_SCHERK_201 = GridSpec(-1.0, 1.0, -1.0, 1.0, 201, 201)


def _flat_residuals(fld, equation, grid, chunk=pde._BLOCK):
    """The residuals of one ``core.jet`` call on each ``chunk`` kept points
    of ``grid`` as flat arrays, in grid order."""
    a, b = grid_points.coords(grid)
    kept = ~fld.excluded_mask(a, b)
    a, b = a[kept], b[kept]
    out = []
    with np.errstate(all="ignore"):
        for s in range(0, len(a), chunk):
            j, _ = jet(fld, a[s:s + chunk], b[s:s + chunk])
            res = pde._residual_from_jet(j, equation)
            out.append(np.broadcast_to(res, a[s:s + chunk].shape))
    # complex as the sweep stores them: a real field's central residuals are real
    return np.concatenate(out).astype(complex)


def _row_block_cases():
    yield from _sweep_cases()
    e = solution("scherk_first_kind")
    yield "scherk_first_kind 201x201", e.field, e.equation, _SCHERK_201


@pytest.mark.parametrize("backend", [None, CentralDiff(1e-4)], ids=["exact", "central"])
@pytest.mark.parametrize("label,fld,equation,grid",
                         [pytest.param(*case, id=case[0]) for case in _row_block_cases()])
def test_row_blocks_match_flat_array_jets_bit_for_bit(label, fld, equation, grid, backend):
    if backend is not None:
        fld = with_backend(fld, backend)
    got = residual_sweep(fld, equation, grid).residuals
    assert got.tobytes() == _flat_residuals(fld, equation, grid).tobytes()


@pytest.mark.parametrize("backend", [None, CentralDiff(1e-4)], ids=["exact", "central"])
@pytest.mark.parametrize("label,fld,equation,grid",
                         [pytest.param(*case, id=case[0]) for case in _row_block_cases()])
def test_sweeps_do_not_depend_on_the_block_size(label, fld, equation, grid, backend,
                                                monkeypatch):
    if backend is not None:
        fld = with_backend(fld, backend)

    def sweep(block):
        monkeypatch.setattr(pde, "_BLOCK", block)
        rep = residual_sweep(fld, equation, grid)
        return rep.residuals.tobytes(), rep.max_abs, rep.worst_point, rep.excluded_count
    want = sweep(pde._BLOCK)
    # one row's worth per block, and the whole grid in one block
    for block in (grid.nb, grid.na * grid.nb + 1):
        assert sweep(block) == want


def _recording(fld):
    """The field with an evaluator that records the shapes of the values of
    its two arguments, jets or arrays."""
    shapes = []

    def ev(a, b):
        shapes.append(tuple(np.shape(getattr(x, "f", x)) for x in (a, b)))
        return fld.evaluator(a, b)
    return ScalarField2(ev, fld.backend, fld.domain_exclusions), shapes


@pytest.mark.parametrize("backend", [None, CentralDiff(1e-4)], ids=["exact", "central"])
def test_fully_kept_blocks_run_on_a_column_of_a_and_a_row_of_b(backend):
    e = solution("scherk_first_kind")
    fld, shapes = _recording(e.field if backend is None else with_backend(e.field, backend))
    residual_sweep(fld, e.equation, _SCHERK_201)
    # a block is as many whole rows of 201 points as fit in _BLOCK;
    # a central block is one call with the stencil's shifts on two leading axes
    per = pde._BLOCK // 201
    rows = [per] * (201 // per) + [201 % per] * (201 % per > 0)
    if backend is None:
        assert shapes == [((r, 1), (1, 201)) for r in rows]
    else:
        assert shapes == [((3, 1, r, 1), (1, 3, 1, 201)) for r in rows]


def test_blocks_with_an_excluded_point_run_on_flat_arrays():
    # the four rows with |cos a| <= 0.1 are excluded; the grid is one block,
    # whose kept points are 37 whole rows: it runs on their a and all b
    grid = GridSpec.parse("-1.6:1.6:-1:1:41:41")
    fld, shapes = _recording(solution("wick_scherk", margin=0.1).field)
    rep = residual_sweep(fld, Equation.BORN_INFELD, grid)
    assert rep.excluded_count == 4 * 41
    assert shapes == [((37, 1), (1, 41))]
    points = [(a, b) for a, b in grid_points.points(grid) if not fld.excluded(a, b)]
    want = summarize(points, [equation_residual(fld, Equation.BORN_INFELD, a, b)
                              for a, b in points], "exact", 41 * 41 - len(points))
    assert rep.residuals.tobytes() == want.residuals.tobytes()
    assert (rep.max_abs, rep.worst_point, rep.excluded_count) == \
        (want.max_abs, want.worst_point, want.excluded_count)
    # on 161 rows of 101 points every block is (kept rows) x (all columns),
    # as many kept rows as fit in _BLOCK; excluded rows take no room
    grid = GridSpec.parse("-1.6:1.6:-1:1:161:101")
    shapes.clear()
    rep = residual_sweep(fld, Equation.BORN_INFELD, grid)
    kept_rows = 161 - rep.excluded_count // 101
    assert [(sa[1], sb) for sa, sb in shapes] == \
        [(1, (1, 101))] * -(-kept_rows // (pde._BLOCK // 101))
    assert sum(sa[0] for sa, sb in shapes) == kept_rows
    assert rep.residuals.tobytes() == _flat_residuals(fld, Equation.BORN_INFELD, grid).tobytes()
    # the disk a^2 + b^2 <= 0.3^2 is no set of rows and columns: flat arrays
    e = solution("lorentzian_catenoid", margin=0.3)
    fld, shapes = _recording(e.field)
    grid = GridSpec.parse("-1:1:-1:1:41:41")
    rep = residual_sweep(fld, e.equation, grid)
    n = 41 * 41 - rep.excluded_count
    assert rep.excluded_count > 0 and shapes == [((n,), (n,))]
    assert rep.residuals.tobytes() == _flat_residuals(fld, e.equation, grid).tobytes()


def test_kept_rows_and_columns_run_on_the_axes():
    # scherk_minimal excludes two whole columns, cos b ~ 0, of this grid: each
    # block runs on its rows' a and the 199 kept b, as flat arrays would give
    grid = GridSpec.parse("-1:1:-2:2:201:201")
    e = solution("scherk_minimal")
    for backend in (None, CentralDiff(1e-4)):
        fld, shapes = _recording(e.field if backend is None else with_backend(e.field, backend))
        rep = residual_sweep(fld, e.equation, grid)
        assert rep.excluded_count == 2 * 201
        b = [sb for sa, sb in shapes]
        blocks = -(-201 // (pde._BLOCK // 199))  # whole rows of 199 kept points
        assert b == [(1, 199) if backend is None else (1, 3, 1, 199)] * blocks
        assert rep.residuals.tobytes() == _flat_residuals(fld, e.equation, grid).tobytes()


# -- the reducer's values, in the shape of their block ---------------------------

# Fields whose Born-Infeld residual over a block of a column of a and a row of
# b is a Python number (the plane), an (r, 1) column (a field of a alone) and
# a (1, c) row (a field of b alone); on a flat block each is a number or (n,).
_SHAPED_FIELDS = {
    "plane": (lambda a, b: 0.5 * a + 0.25 * b, lambda s: s == ()),
    "of_a": (lambda a, b: jm.log(jm.cosh(a)), lambda s: len(s) == 2 and s[1] == 1),
    "of_b": (lambda a, b: jm.log(jm.cosh(b)), lambda s: len(s) == 2 and s[0] == 1),
}
# No exclusion, whole rows (|a| <= 0.25), whole columns (|b| <= 0.2), and a
# disk, which is no set of rows and columns (flat blocks), on _SHAPED_GRID.
_SHAPED_EXCLUSIONS = {
    "none": None,
    "rows": lambda a, b: abs(a) <= 0.25,
    "columns": lambda a, b: abs(b) <= 0.2,
    "disk": lambda a, b: a * a + b * b <= 0.25,
}
_SHAPED_GRID = GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 17)


@pytest.mark.parametrize("exclusion", list(_SHAPED_EXCLUSIONS))
@pytest.mark.parametrize("field", list(_SHAPED_FIELDS))
def test_reducer_values_of_every_shape_give_the_point_residuals(field, exclusion, monkeypatch):
    ev, block_shape = _SHAPED_FIELDS[field]
    fld = ScalarField2(ev, domain_exclusions=_SHAPED_EXCLUSIONS[exclusion])
    grid = _SHAPED_GRID
    a, b = grid.axes()
    keep = ~fld.excluded_mask(a[:, None], b[None, :])
    points = np.column_stack(pde.kept_points(a, b, keep))
    want = np.array([equation_residual(fld, Equation.BORN_INFELD, pa, pb)
                     for pa, pb in points.tolist()], dtype=complex)
    shapes, residual_from_jet = [], pde._residual_from_jet

    def reducer(j, equation):
        value = residual_from_jet(j, equation)
        shapes.append(np.shape(value))
        return value
    monkeypatch.setattr(pde, "_residual_from_jet", reducer)
    # one row per block, the default, and the whole grid in one block
    for block in (grid.nb, pde._BLOCK, grid.na * grid.nb + 1):
        monkeypatch.setattr(pde, "_BLOCK", block)
        shapes.clear()
        rep = residual_sweep(fld, Equation.BORN_INFELD, grid)
        assert rep.excluded_count == keep.size - len(want)
        assert rep.residuals.tobytes() == want.tobytes()
        assert rep.points.tobytes() == points.tobytes()
        assert rep.points.shape == (len(want), 2)
        flat = [s for s in shapes if len(s) == 1]
        assert shapes and all(map(block_shape, set(shapes) - set(flat)))
        # a block of one row is its row times its kept columns, even on the disk
        assert bool(flat) == (exclusion == "disk" and field != "plane" and block > grid.nb)
    assert (exclusion == "none") == (len(want) == keep.size)


@pytest.mark.parametrize("name", catalog_names())
def test_report_points_are_the_kept_points_in_grid_order(name):
    e = solution(name)
    grid = DEFAULT_GRIDS[name]
    a, b = grid.axes()
    keep = ~e.field.excluded_mask(a[:, None], b[None, :])
    rep = residual_sweep(e.field, e.equation, grid)
    assert rep.points.tobytes() == np.column_stack(pde.kept_points(a, b, keep)).tobytes()
    assert rep.points.shape == (len(rep.residuals), 2)


def test_central_residuals_do_not_depend_on_the_points_that_share_an_array():
    # log cos a leaves the real domain past |a| = pi/2, at some stencil points
    # of a block only; each entry is evaluated in its own domain, so every
    # chunking of the kept points gives the same residual bytes
    e = solution("wick_scherk")
    fld = with_backend(e.field, CentralDiff(1e-4))
    grid = GridSpec.parse("-1.6:1.6:-1:1:161:101")
    assert (np.cos(grid.axes()[0]) < 0).any()
    got = residual_sweep(fld, e.equation, grid).residuals
    for chunk in (13, 101, 1000, len(got)):
        assert _flat_residuals(fld, e.equation, grid, chunk).tobytes() == got.tobytes()


def test_an_evaluator_that_rejects_broadcasting_is_evaluated_point_by_point():
    e = solution("scherk_first_kind")

    def ev(a, b):
        if np.shape(getattr(a, "f", a)) != np.shape(getattr(b, "f", b)):
            raise ValueError("operands of different shapes")
        return e.field.evaluator(a, b)
    fld = ScalarField2(ev)
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 11, 11)
    rep = residual_sweep(fld, e.equation, grid)
    want = [equation_residual(fld, e.equation, a, b) for a, b in grid_points.points(grid)]
    assert rep.residuals.tobytes() == np.array(want, dtype=complex).tobytes()
    assert rep.backend == "exact"


def test_worst_point_is_last_maximum_in_grid_order():
    rep = summarize([(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)],
                    [1.0, -3.0, 3j, 2.0, 0.5], "exact", 0)
    assert (rep.max_abs, rep.worst_point) == (3.0, (1, 0))
    # u = a^2 has maximal residual 2 everywhere: every point ties
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 4, 3)
    rep = residual_sweep(ScalarField2(lambda a, b: a * a), Equation.MAXIMAL, grid)
    assert rep.max_abs == 2.0
    assert rep.worst_point == grid_points.points(grid)[-1]


def test_nan_residual_fails_the_sweep():
    rep = summarize([(0, 0), (0, 1), (1, 0)], [1.0, complex(math.nan, 0), 2.0], "exact", 0)
    assert (rep.max_abs, rep.worst_point) == (math.inf, (0, 1))
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
    rep = residual_sweep(ScalarField2(lambda a, b: math.nan * a * b), Equation.MAXIMAL, grid)
    assert rep.max_abs == math.inf
    assert rep.worst_point == grid_points.points(grid)[-1]
    assert rep.to_json_dict()["max_abs"] == math.inf


_MAGNITUDE = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]))


@given(st.lists(_MAGNITUDE, max_size=6))
def test_worst_is_the_numpy_rule_bit_for_bit(mags):
    # the numpy form that worst replaced, on every float it can be handed
    want = float(pde._nan_as_inf(mags).max(initial=0.0))
    got = worst(mags)
    assert type(got) is float and got.hex() == want.hex()


def test_worst_counts_nan_as_inf_as_summarize_does():
    assert worst(()) == 0.0
    assert worst([math.nan]) == math.inf
    assert worst([1.0, math.nan, 2.0]) == math.inf
    assert worst((1.0, 3.0, 2.0)) == 3.0 and type(worst([1.0])) is float
    mags = [1.0, math.nan, 2.0]
    assert summarize([(0, 0), (0, 1), (1, 0)], mags, "exact", 0).max_abs == worst(mags)


def test_division_by_zero_fails_the_sweep():
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
    # a = 0 is not excluded: the three points on it are singular
    rep = residual_sweep(ScalarField2(lambda a, b: b / a), Equation.MAXIMAL, grid)
    assert rep.max_abs == math.inf
    assert rep.worst_point == (0.0, 1.0)
    assert len(rep.residuals) == 9 and rep.excluded_count == 0
    # the same through the per-point path of an evaluator that rejects arrays
    fld = ScalarField2(lambda a, b: math.cos(a) + b / a)
    rep = residual_sweep(fld, Equation.MAXIMAL, grid)
    assert rep.max_abs == math.inf
    assert rep.worst_point == (0.0, 1.0)
    # a scalar zero divisor fails every point, whether or not the evaluator
    # takes arrays: the block that raises is evaluated point by point
    for ev in (lambda a, b: a * a / 0.0, lambda a, b: math.cos(a) / 0.0):
        rep = residual_sweep(ScalarField2(ev), Equation.MAXIMAL, grid)
        assert rep.max_abs == math.inf
        assert rep.worst_point == (1.0, 1.0)
        rows = classify_grid(ScalarField2(ev), grid)
        assert [r[2] for r in rows] == ["lightlike"] * 9
        assert all(math.isnan(r[3]) for r in rows)


def test_backend_label_names_the_central_fallback():
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 11, 11)
    with_math = ScalarField2(lambda a, b: math.log(math.cosh(b)) - math.log(math.cos(a)))
    rep = residual_sweep(with_math, Equation.BORN_INFELD, grid)
    assert rep.backend == "exact+central-fallback"
    assert rep.to_json_dict()["backend"] == "exact+central-fallback"
    assert rep.max_abs <= 1e-5
    # branching on the argument fails on jets and on arrays, but not on numbers
    branching = ScalarField2(lambda a, b: a * a if a > 0 else -a * a)
    rep = residual_sweep(branching, Equation.MAXIMAL, GridSpec(0.5, 1.0, 0.5, 1.0, 3, 3))
    assert rep.backend == "exact+central-fallback"
    assert rep.max_abs == pytest.approx(2.0, abs=1e-5)
    fld = solution("wick_scherk").field
    assert residual_sweep(fld, Equation.BORN_INFELD, grid).backend == "exact"


def test_sweep_stencil_on_an_exclusion_raises_at_the_first_such_point():
    # the block's stencils touch the excluded half-plane, so the block is
    # evaluated point by point and the first such point in grid order raises
    fld = ScalarField2(lambda a, b: a * a + b, backend=CentralDiff(0.05),
                       domain_exclusions=lambda a, b: a < 0.0)
    with pytest.raises(DomainError) as want:
        jet(fld, 0.0, -1.0)
    with pytest.raises(DomainError) as got:
        residual_sweep(fld, Equation.MAXIMAL, GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21))
    assert str(got.value) == str(want.value) == "stencil point (-0.05, -1.0) is excluded"
    # no point of this grid is excluded, so its block runs on the axes: the
    # stencils of a column of a and a row of b raise at the same point
    grid = GridSpec(0.0, 1.0, -1.0, 1.0, 21, 21)
    a, b = grid.axes()
    for sweep in (lambda: jet(fld, a[:, None], b[None, :]),
                  lambda: residual_sweep(fld, Equation.MAXIMAL, grid)):
        with pytest.raises(DomainError) as got:
            sweep()
        assert str(got.value) == str(want.value)


# -- exclusion predicates on arrays ---------------------------------------------

def _predicates():
    """(label, predicate, margin) of every exclusion predicate the package
    defines, with the margin its boundary points are drawn around."""
    for margin in (1e-2, 0.3):
        for name in catalog_names():
            pred = solution(name, margin=margin).field.domain_exclusions
            if pred is not None:
                yield f"{name}(margin={margin})", pred, margin
    yield "example1_graph", example1_graph().domain_exclusions, 0.0


def _coordinates(margin):
    # random values, signed zeros and the values the boundaries pass through:
    # |a| = margin, |cos a| = margin, a^2 + b^2 = margin^2 (with 0)
    edges = [0.0, -0.0, margin, -margin, 2.0 * margin, math.pi / 2, -math.pi / 2]
    if margin <= 1.0:
        edges += [math.acos(margin), -math.acos(margin), math.acos(-margin)]
    x = st.floats(-4.0, 4.0) | st.sampled_from(edges)
    return st.one_of(
        st.tuples(x, x),
        x.map(lambda a: (a, a)), x.map(lambda a: (a, -a)),    # z^2 = y^2
        x.map(lambda a: (a, abs(a) + margin)),                # |b| - |a| = margin
        x.map(lambda a: (a, -(abs(a) + margin))),
        x.map(lambda a: (a, abs(a) * (1 - margin))),          # |b| = |a| (1 - margin)
    )


def _boundary_points(margin):
    """Points on every boundary: signed zeros, |a| = margin, a^2 + b^2 =
    margin^2, |b| - |a| = margin, z^2 = y^2, and the floats nearest to
    |cos a| = margin and |cos b| = margin."""
    pts = [(0.0, -0.0), (-0.0, 0.0), (margin, 0.0), (-margin, -0.0), (0.0, margin),
           (-0.0, -margin), (0.5, 0.5 + margin), (-1.25, -1.25), (1.25, -1.25)]
    if margin <= 1.0:
        for x in (math.acos(margin), math.acos(-margin)):
            for k in range(-2, 3):
                c = x + k * math.ulp(x)
                pts += [(c, 0.25), (-c, -0.0), (0.25, c), (c, -c)]
    return pts


@pytest.mark.parametrize("label,predicate,margin",
                         [pytest.param(*p, id=p[0]) for p in _predicates()])
def test_array_predicates_match_their_scalar_calls(label, predicate, margin):
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_coordinates(margin), max_size=40))
    def check(points):
        points = _boundary_points(margin) + points
        a, b = (np.array(c, dtype=float) for c in zip(*points))
        got = predicate(a, b)
        assert isinstance(got, np.ndarray) and got.dtype == bool and got.shape == a.shape
        assert got.tolist() == [bool(predicate(pa, pb)) for pa, pb in points]
    check()


_MASK_GRIDS = (*DEFAULT_GRIDS.values(), *WICK_GRIDS.values(),
               GridSpec(-2.0, 2.0, -2.0, 2.0, 81, 81), GridSpec.parse("-1.6:1.6:-2:2:161:101"))


@pytest.mark.parametrize("label,predicate", [pytest.param(*p[:2], id=p[0]) for p in (
    *_predicates(), ("one bool True", lambda a, b: True), ("one bool False", lambda a, b: False))])
def test_masks_on_the_axes_match_masks_on_flat_coordinates(label, predicate):
    # a sweep calls the predicate once, on a column of a and a row of b
    fld = ScalarField2(lambda a, b: a * b, domain_exclusions=predicate)
    for grid in _MASK_GRIDS:
        a, b = grid.axes()
        flat_a, flat_b = grid_points.coords(grid)
        flat = fld.excluded_mask(flat_a, flat_b)
        got = fld.excluded_mask(a[:, None], b[None, :])
        assert got.shape == (grid.na, grid.nb)
        assert np.array_equal(got.ravel(), flat)
        rep = residual_sweep(fld, Equation.MAXIMAL, grid)
        want = np.column_stack((flat_a[~flat], flat_b[~flat]))
        assert rep.points.tobytes() == want.tobytes()
        assert rep.excluded_count == np.count_nonzero(flat)


def test_grid_coords_are_the_python_expression():
    g = GridSpec(-1.3, 2.7, 0.1, 0.9, 37, 11)
    da, db = (g.a_max - g.a_min) / (g.na - 1), (g.b_max - g.b_min) / (g.nb - 1)
    want = [(g.a_min + i * da, g.b_min + j * db) for i in range(g.na) for j in range(g.nb)]
    a, b = g.axes()
    assert list(itertools.product(a.tolist(), b.tolist())) == want
    a, b = grid_points.coords(g)
    assert list(zip(a.tolist(), b.tolist())) == want


def _fallback_cases():
    # (predicate, another that gives the same mask, field, equation, grid)
    margin = 0.1
    yield ("bare False", None, lambda a, b: False, solution("wick_scherk", margin=margin).field,
           Equation.BORN_INFELD, GridSpec(-1.0, 1.0, -1.0, 1.0, 11, 11))


@pytest.mark.parametrize("backend", [None, CentralDiff(1e-4)], ids=["exact", "central"])
@pytest.mark.parametrize("label,array_pred,scalar_pred,fld,equation,grid",
                         [pytest.param(*c, id=c[0]) for c in _fallback_cases()])
def test_predicates_that_reject_arrays_sweep_like_array_predicates(
        label, array_pred, scalar_pred, fld, equation, grid, backend):
    if backend is not None:
        fld = with_backend(fld, backend)
    fields = [ScalarField2(fld.evaluator, fld.backend, p) for p in (array_pred, scalar_pred)]
    m1, m2 = (f.excluded_mask(*grid_points.coords(grid)) for f in fields)
    assert np.array_equal(m1, m2)
    assert m1.any() or label == "bare False"
    r1, r2 = (residual_sweep(f, equation, grid) for f in fields)
    assert np.array_equal(r1.residuals, r2.residuals)
    assert (r1.max_abs, r1.worst_point, r1.excluded_count, r1.backend) == \
        (r2.max_abs, r2.worst_point, r2.excluded_count, r2.backend)


# -- structural zeros: a term in one variable keeps that variable's shape ---------

@pytest.mark.parametrize("name", ["scherk_first_kind", "scherk_minimal", "wick_scherk"])
def test_separable_jets_stay_on_the_axes(name):
    # a guard on the fast path that does not time anything: the partials of a
    # term in a alone are computed once per row, those of b once per column,
    # and the mixed partial of a sum of the two is a structural zero
    a, b = np.linspace(-0.5, 0.5, 7)[:, None], np.linspace(-0.4, 0.4, 5)[None, :]
    j, backend = jet(solution(name).field, a, b)
    assert backend == "exact" and j.f.shape == (7, 5)
    assert j.fx.shape == j.fxx.shape == (7, 1)
    assert j.ft.shape == j.ftt.shape == (1, 5)
    assert type(j.fxt) is complex and j.fxt == 0


def test_an_infinite_one_variable_derivative_fails_both_paths():
    # d/da sqrt(cosh a - 1) is infinite at a = 0, where the b partials of that
    # term are structural zeros: the sweep still reads a non-finite residual
    # at every point of the row a = 0, and the point path raises there
    fld = ScalarField2(lambda a, b: jm.sqrt(jm.cosh(a) - 1) + jm.log(jm.cosh(b)))
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 11)
    a, b = grid.axes()
    assert a[10] == 0.0
    rep = residual_sweep(fld, Equation.MAXIMAL, grid)
    assert rep.max_abs == math.inf and rep.worst_point == (0.0, 1.0)
    bad = ~np.isfinite(rep.residuals)
    assert rep.points[bad].tolist() == [[0.0, pb] for pb in b.tolist()]
    for pb in b.tolist():
        with pytest.raises(pde.SINGULAR):
            equation_residual(fld, Equation.MAXIMAL, 0.0, pb)
    want = [equation_residual(fld, Equation.MAXIMAL, pa, pb) for pa, pb in rep.points[~bad].tolist()]
    assert np.allclose(rep.residuals[~bad], want, rtol=1e-12, atol=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the array chain rule keeps the zero partials of a constant term "
                          "(jetmath module notes), the scalar one divides by them")
def test_a_primitive_of_a_constant_term_reads_the_same_on_both_paths():
    # a - a is the constant 0, so sqrt(a - a) + b is b; sqrt' is infinite at 0.
    # The array jet of a - a holds the structural zeros 0j, so the sweep reads
    # the exact derivative of the constant and a finite residual; the scalar
    # jet divides 0.5 by sqrt(0) and raises ZeroDivisionError.  The two paths
    # agree when each point the point path finds singular the sweep reads
    # non-finite, and the others alike.
    fld = ScalarField2(lambda a, b: jm.sqrt(a - a) + b)
    rep = residual_sweep(fld, Equation.MAXIMAL, GridSpec(0.0, 1.0, 0.0, 1.0, 5, 5))
    assert [0.5, 0.5] in rep.points.tolist()
    for (pa, pb), r in zip(rep.points.tolist(), rep.residuals.tolist()):
        try:
            want = equation_residual(fld, Equation.MAXIMAL, pa, pb)
        except pde.SINGULAR:
            assert not np.isfinite(r), (pa, pb, r)
        else:
            assert r == want, (pa, pb)
