import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grid_points
import surface_reference
from solitonlab.core import LVec3
from solitonlab.errors import DomainError, PathError, UnknownSurface
from solitonlab.family import helicoid_catenoid_pair
from solitonlab.geometry import isothermal_check
from solitonlab.pde import (
    WICK_GRIDS,
    Equation,
    GridSpec,
    equation_residual,
    residual_sweep,
    solution,
    wick_rotate_x,
)
from solitonlab.quadrature import DEFAULT_POLE_MARGIN, build_path, integrate_segments
from solitonlab.weierstrass import (
    GRAPHS,
    SURFACE_NAMES,
    SurfaceMap,
    Variant,
    WEData,
    catalog_surface,
    closed_form_point,
    integrand,
    nonparametric_check,
    we_catalog,
    we_data_rotation,
    we_integrate,
)

# sampling sectors that stay inside each datum's simply-connected region
# (away from poles, and for the helicoid away from the branch cut of arg)
_SAMPLERS = {
    "scherk_first_kind": (0.4, 2.6, -0.75 * math.pi, 0.75 * math.pi,
                          (1, -1, 1j, -1j)),
    "helicoid_second_kind": (0.3, 2.5, -0.95 * math.pi, 0.95 * math.pi, (0j,)),
    "lorentzian_helicoid": (0.3, 2.5, -0.75 * math.pi, 0.75 * math.pi, (0j,)),
    "lorentzian_catenoid": (0.3, 2.5, -0.95 * math.pi, 0.95 * math.pi, (0j,)),
}


def _sample_points(name, n, seed=0):
    r_lo, r_hi, a_lo, a_hi, avoid = _SAMPLERS[name]
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        r = rng.uniform(r_lo, r_hi)
        a = rng.uniform(a_lo, a_hi)
        z = r * complex(math.cos(a), math.sin(a))
        if min(abs(z - p) for p in avoid) < 0.15:
            continue
        out.append(z)
    return out


def test_scherk_standard_x_at_two_is_ln3():
    d = we_catalog("scherk_first_kind")
    assert d.variant is Variant.STANDARD
    p = we_integrate(d, 2.0 + 0j)
    assert abs(p.x - math.log(3.0)) <= 1e-10
    assert abs(p.z - math.log(3.0 / 5.0)) <= 1e-10


def test_helicoid2_alternate_y_at_two_is_minus_ln2():
    d = we_catalog("helicoid_second_kind")
    assert d.variant is Variant.ALTERNATE
    p = we_integrate(d, 2.0 + 0j)
    assert abs(p.y - (-math.log(2.0))) <= 1e-10


def test_zero_data_integrates_to_origin():
    d = WEData(M=lambda w: 0j, variant=Variant.STANDARD, base=0j)
    for z in (1 + 1j, -2 + 0.3j, 0.5j):
        p = we_integrate(d, z)
        assert abs(p.x) + abs(p.y) + abs(p.z) <= 1e-14


def _integrals(data, z):
    """The real parts of the three integrals from the base point to z, as
    numpy floats."""
    path = build_path(complex(data.base), complex(z), data.pole_set)
    return integrate_segments(integrand(data), path).real


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_we_integrate_returns_python_floats_of_the_base_value_plus_the_integrals(name):
    d = we_catalog(name)
    base = closed_form_point(d, d.base)
    for z in _sample_points(name, 5, seed=1):
        p, cf = we_integrate(d, z), closed_form_point(d, z)
        assert all(type(v) is float for v in dataclasses.astuple(p) + dataclasses.astuple(cf))
        # the bits of base + integral in numpy floats
        vec = _integrals(d, z)
        want = (base.x + vec[0], base.y + vec[1], base.z + vec[2])
        assert [v.hex() for v in dataclasses.astuple(p)] == [float(v).hex() for v in want]
        assert "np.float64" not in repr(p)


def _counting(data):
    """``data`` with antiderivatives that record each point they are called at."""
    calls = []

    def counted(anti):
        def f(w):
            calls.append(w)
            return anti(w)
        return f
    return dataclasses.replace(data, antiderivatives=tuple(map(counted, data.antiderivatives))), calls


def test_base_value_is_computed_once_per_datum():
    d, calls = _counting(we_catalog("scherk_first_kind"))
    we_integrate(d, 2.3 + 0.5j)
    we_integrate(d, 1.5 - 0.4j)
    assert calls == [2.0 + 0j] * 3
    assert d.base_value == closed_form_point(we_catalog("scherk_first_kind"), 2.0)


def test_rotated_datum_reads_its_own_base_value():
    d = we_catalog("helicoid_second_kind")
    assert d.base_value == closed_form_point(d, d.base)  # cached before the rotation
    rot = we_data_rotation(d, 0.7)
    assert rot.base_value == closed_form_point(rot, rot.base) != d.base_value
    z = 1.4 - 0.6j
    vec = _integrals(rot, z)
    b = rot.base_value
    assert we_integrate(rot, z) == LVec3(b.x + vec[0], b.y + vec[1], b.z + vec[2])


def test_data_without_antiderivatives_start_from_the_origin():
    d = WEData(M=lambda w: 1 / (w * w + 4), variant=Variant.ALTERNATE, base=0.5 + 0j,
               pole_set=(2j, -2j))
    assert d.base_value == LVec3(0.0, 0.0, 0.0)
    for z in (1 + 1j, -1.5 + 0.3j, 0.4 + 2.5j):
        p = we_integrate(d, z)
        assert [v.hex() for v in dataclasses.astuple(p)] == [(0.0 + v).hex() for v in _integrals(d, z)]


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_quadrature_matches_closed_forms_at_50_points(name):
    d = we_catalog(name)
    for z in _sample_points(name, 50):
        num = we_integrate(d, z)
        cf = closed_form_point(d, z)
        err = max(abs(num.x - cf.x), abs(num.y - cf.y), abs(num.z - cf.z))
        assert err <= 1e-8, (name, z, err)


def test_catalog_surface_values():
    cat = catalog_surface("lorentzian_catenoid")
    assert abs(cat.eval(1 + 1j).z - (-0.5 * math.log(2.0))) <= 1e-12
    sch = catalog_surface("scherk_first_kind")
    assert abs(sch.eval(2 + 0j).z - math.log(3.0 / 5.0)) <= 1e-12
    hel = catalog_surface("lorentzian_helicoid")
    p = hel.eval(1j)
    assert abs(p.x - 1.0) <= 1e-12 and abs(p.y) <= 1e-12
    assert abs(p.z - math.pi / 2) <= 1e-12


def test_unknown_surface_raises():
    with pytest.raises(UnknownSurface):
        catalog_surface("klein_bottle")
    with pytest.raises(UnknownSurface):
        we_catalog("klein_bottle")


def test_pole_evaluation_is_domain_error():
    d = we_catalog("helicoid_second_kind")
    with pytest.raises(DomainError):
        we_integrate(d, 0j)


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_catalog_surfaces_are_isothermal(name):
    surf = catalog_surface(name)
    for z in _sample_points(name, 40, seed=3):
        if surf.excluded(z):
            continue
        c, f, h = isothermal_check(surf, z)
        assert max(c, f, h) <= 1e-6, (name, z)


def test_path_independence_of_real_parts():
    # two homotopic polylines (straight vs forced detour) agree
    d = we_catalog("scherk_first_kind")
    base = complex(d.base)
    for z in (2.5 + 0.8j, 1.4 - 0.9j):
        mid = 0.5 * (base + z)
        perp = 1j * (z - base) / abs(z - base)
        straight = integrate_segments(integrand(d), [base, z])
        bent = integrate_segments(integrand(d), [base, mid + 0.35 * perp, z])
        err = max(abs(straight[k].real - bent[k].real) for k in range(3))
        assert err <= 1e-8


def test_scherk_domain_condition_on_samples():
    # the parametrization lands where sech^2 x + sech^2 y > 1
    surf = catalog_surface("scherk_first_kind")
    for z in _sample_points("scherk_first_kind", 60, seed=5):
        p = surf.eval(z)
        assert 1.0 / math.cosh(p.x) ** 2 + 1.0 / math.cosh(p.y) ** 2 > 1.0


def test_nonparametric_relations():
    sch = catalog_surface("scherk_first_kind")
    assert nonparametric_check(sch, "scherk_first_kind", 2 + 0j) <= 1e-10
    h2 = catalog_surface("helicoid_second_kind")
    assert nonparametric_check(h2, "helicoid_second_kind", 1 + 0.5j) <= 1e-10
    cat = catalog_surface("lorentzian_catenoid")
    assert nonparametric_check(cat, "lorentzian_catenoid", 2 + 0j) <= 1e-10
    hel = catalog_surface("lorentzian_helicoid")
    assert nonparametric_check(hel, "lorentzian_helicoid", 1 + 1j) <= 1e-10


def test_nonparametric_relation_domain_errors():
    # a point with x^2 > cosh^2 y is outside the helicoid-2 graph
    off_surface = SurfaceMap(lambda u, v: (3.0 + 0 * u, 0.0 * v, 0.0 * u))
    with pytest.raises(DomainError):
        nonparametric_check(off_surface, "helicoid_second_kind", 0j)
    on_axis = SurfaceMap(lambda u, v: (0.0 * u, 1.0 + 0 * v, 0.0 * u))
    with pytest.raises(DomainError):
        nonparametric_check(on_axis, "lorentzian_helicoid", 0j)


def test_nonparametric_relation_over_grids():
    for name, rel in (("scherk_first_kind", "scherk_first_kind"),
                      ("helicoid_second_kind", "helicoid_second_kind")):
        surf = catalog_surface(name)
        for z in _sample_points(name, 30, seed=9):
            assert nonparametric_check(surf, rel, z) <= 1e-10
    # the Lorentzian surfaces over [-2.5, 2.5]^2, both half planes: the
    # helicoid's height arg spans two sheets of atan(y/x), so its relation
    # holds modulo pi
    zetas = [complex(*p) for p in np.random.default_rng(9).uniform(-2.5, 2.5, (400, 2))]
    assert min(z.imag for z in zetas) < 0.0 < max(z.imag for z in zetas)
    for name in ("lorentzian_helicoid", "lorentzian_catenoid"):
        surf = catalog_surface(name)
        for z in zetas:
            if not surf.excluded(z):
                assert nonparametric_check(surf, name, z) <= 1e-10


def test_catenoid_relation_raises_at_its_cone_point():
    # (0, 0) is the image of |tau| = 1, where the graph's field is excluded
    cone = SurfaceMap(lambda u, v: (0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="off the graph of lorentzian_catenoid"):
        nonparametric_check(cone, "lorentzian_catenoid", 0j)


# The Lorentz isometry that carries each datum's surface onto the catalog
# parametrization (``we_catalog``): z -> -z for the helicoid, a half-turn about
# the z axis for the catenoid.
_ISOMETRIES = {
    "scherk_first_kind": lambda p: p,
    "helicoid_second_kind": lambda p: p,
    "lorentzian_helicoid": lambda p: LVec3(p.x, p.y, -p.z),
    "lorentzian_catenoid": lambda p: LVec3(-p.x, -p.y, p.z),
}


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_weierstrass_datum_lies_on_its_catalog_graph(name):
    # datum -> we_integrate -> surface point -> nonparametric relation and the
    # maximal residual of its graph -> x-Wick rotation -> Born-Infeld residual
    entry = solution(GRAPHS[name][0], margin=0.0)
    assert entry.equation is Equation.MAXIMAL
    data, surf = we_catalog(name), catalog_surface(name)
    for z in _sample_points(name, 12, seed=4):
        p = _ISOMETRIES[name](we_integrate(data, z))
        q = surf.eval(z)
        assert max(abs(p.x - q.x), abs(p.y - q.y), abs(p.z - q.z)) <= 1e-12, z
        on_point = SurfaceMap(lambda u, v, p=p: (p.x, p.y, p.z))
        assert nonparametric_check(on_point, name, z) <= 1e-12, z
        assert abs(equation_residual(entry.field, Equation.MAXIMAL, p.x, p.y)) <= 1e-10, z
    rot = wick_rotate_x(entry.field)
    rep = residual_sweep(rot, Equation.BORN_INFELD, WICK_GRIDS[entry.name])
    assert len(rep.residuals) and rep.max_abs <= 1e-6, rep.max_abs


# surface -> (slot of its ``GRAPHS`` row, a wrong value for it)
_MUTANTS = {
    "helicoid_second_kind": (1, 1.0),  # flipped sign
    "lorentzian_helicoid": (2, 0.5 * math.pi + 1e-6),  # shifted offset
    "scherk_first_kind": (0, "scherk_minimal"),  # wrong entry
    "lorentzian_catenoid": (3, None),  # no |z| rule
}


@pytest.mark.parametrize("name", _MUTANTS)
def test_a_changed_graph_row_fails_the_relation(name, monkeypatch):
    surf = catalog_surface(name)
    zetas = [z for z in _sample_points(name, 30, seed=9) if not surf.excluded(z)]
    assert all(nonparametric_check(surf, name, z) <= 1e-10 for z in zetas)
    slot, value = _MUTANTS[name]
    row = list(GRAPHS[name])
    row[slot] = value
    monkeypatch.setitem(GRAPHS, name, tuple(row))
    defects = []
    for z in zetas:
        try:
            defects.append(nonparametric_check(surf, name, z))
        except DomainError:
            defects.append(math.inf)
    assert max(defects) > 1e-10


def test_rotation_theta_zero_and_pi():
    d = we_catalog("scherk_first_kind")
    r0 = we_data_rotation(d, 0.0)
    rpi = we_data_rotation(d, math.pi)
    for w in (0.3 + 0.2j, 2 - 1j):
        assert abs(r0.M(w) - d.M(w)) <= 1e-15
        assert abs(rpi.M(w) + d.M(w)) <= 1e-12


def test_rotation_matches_conjugate_combination():
    # Re(e^{-i theta} A) = cos theta Re A + sin theta Im A: the rotated datum
    # integrates to cos theta X1 + sin theta X2 with X2 = Im of the
    # antiderivatives (the conjugate surface)
    theta = math.pi / 3
    d = we_catalog("scherk_first_kind")
    rot = we_data_rotation(d, theta)
    a1, a2, a3 = d.antiderivatives
    for z in (2.4 + 0.4j, 1.8 - 0.5j, 2.1 + 0.6j):
        p = we_integrate(rot, z)
        for got, anti in ((p.x, a1), (p.y, a2), (p.z, a3)):
            w = anti(z)
            expect = math.cos(theta) * w.real + math.sin(theta) * w.imag
            assert abs(got - expect) <= 1e-6


def test_build_path_detours_and_fails():
    path = build_path(0j, 2 + 0j, poles=(1 + 0j,))
    assert path == [0j, 1 + 0.5j, 2 + 0j]  # a quarter chord off, left of the chord
    # poles on both quarter-chord waypoints: twice the margin clears
    assert build_path(0j, 2 + 0j, poles=(1, 1 + 0.5j, 1 - 0.5j)) == [0j, 1 + 0.02j, 2 + 0j]
    wall = tuple(1 + 0.005j * k for k in range(-540, 541))
    with pytest.raises(PathError):
        build_path(0j, 2 + 0j, poles=wall)


def test_contour_integral_residue():
    # closed-ish rectangle around 0 picks up 2 pi i for dz/z
    corners = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    total = 0j
    for a, b in zip(corners[:-1], corners[1:]):
        total += integrate_segments(lambda w: [1 / w], [a, b])[0]
    assert abs(total - 2j * math.pi) <= 1e-10


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_sample_evaluates_each_kept_point_as_a_scalar(name):
    surf = catalog_surface(name)
    # a grid through the origin, both axes and the points +-1, +-i
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 9)
    values, excluded = surf.sample(*grid.axes())
    pts = grid_points.points(grid)
    assert values.shape == (81, 3) and excluded.any()
    for (u, v), row, ex in zip(pts, values.tolist(), excluded):
        assert ex == bool(surf.domain_exclusions(complex(u, v)))
        if ex:
            assert all(math.isnan(x) for x in row)
        else:
            assert row == [complex(c).real for c in surf.components(u, v)]
            assert row == list(dataclasses.astuple(surf.eval(complex(u, v))))


def test_sample_and_eval_reject_a_non_real_component():
    surf = SurfaceMap(lambda u, v: (u, v, 1j if u > 0.5 else 0.0),
                      lambda z: abs(z) < 0.1)
    for call in (lambda: surf.sample([0.0, 0.3, 0.7, 0.9], [0.0]), lambda: surf.eval(0.7 + 0j)):
        with pytest.raises(DomainError, match=r"^surface component not real at "
                                              r"\(0\.7\+0j\): 1j$"):
            call()
    with pytest.raises(DomainError, match="outside the surface domain"):
        surf.eval(0j)
    values, excluded = surf.sample([0.0, 0.3], [0.0])
    assert excluded.tolist() == [True, False]
    assert values[1].tolist() == [0.3, 0.0, 0.0]
    assert surf.eval(0.3 + 0j) == LVec3(0.3, 0.0, 0.0)


# Parameters on and next to every margin of the catalog predicates (the
# punctures 0, +-1, +-i and the negative real axis), with signed zeros.
_M = DEFAULT_POLE_MARGIN
_EDGE_PARTS = (0.0, -0.0, _M, -_M, 1.0, -1.0, 1.0 + _M, 1.0 - _M, -1.0 + _M, -1.0 - _M,
               np.nextafter(_M, 1.0), np.nextafter(-_M, -1.0), 0.5, -2.0)
_part = st.one_of(st.sampled_from(_EDGE_PARTS),
                  st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))


_PREDICATES = dict({name: catalog_surface(name).domain_exclusions for name in SURFACE_NAMES},
                   helicoid_catenoid_pair=helicoid_catenoid_pair().exclusions)


@pytest.mark.parametrize("name,predicate", _PREDICATES.items(), ids=list(_PREDICATES))
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_part, _part), min_size=1, max_size=30))
def test_surface_predicates_on_arrays_match_scalars(name, predicate, parts):
    zetas = np.empty(len(parts), dtype=complex)
    zetas.real, zetas.imag = [p[0] for p in parts], [p[1] for p in parts]
    want = [bool(predicate(complex(u, v))) for u, v in parts]
    got = predicate(zetas)
    assert got.dtype == bool and got.tolist() == want


def test_helicoid_pair_and_catalog_helicoid_share_one_predicate():
    parts = [(u, v) for u in _EDGE_PARTS for v in _EDGE_PARTS]
    zetas = np.empty(len(parts), dtype=complex)
    zetas.real, zetas.imag = [p[0] for p in parts], [p[1] for p in parts]
    pair = helicoid_catenoid_pair()
    catalog = catalog_surface("lorentzian_helicoid").domain_exclusions
    want = catalog(zetas)
    assert pair.exclusions(zetas).tolist() == want.tolist()
    assert want.any() and not want.all()


def test_sample_tests_exclusions_in_one_call():
    surf = catalog_surface("scherk_first_kind")
    calls = []

    def predicate(z):
        calls.append(z)
        return surf.domain_exclusions(z)

    counted = SurfaceMap(surf.components, predicate)
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)
    values, excluded = counted.sample(*grid.axes())
    assert len(calls) == 1 and np.count_nonzero(excluded) == 4
    # one call on the complex grid of the axes, each entry complex(u, v)
    assert calls[0].tolist() == [complex(u, v) for u, v in grid_points.points(grid)]
    assert np.array_equal(values, surf.sample(*grid.axes())[0], equal_nan=True)
    excluded[0] = not excluded[0]  # the mask is the caller's to keep


def test_sample_calls_the_predicate_on_complex_u_v_bit_for_bit():
    # signed zeros and infinities, which u + 1j * v would not keep
    a, b = [-0.0, 0.0, 1.5, -math.inf], [-0.0, math.inf, -2.0]
    calls = []
    surf = SurfaceMap(lambda u, v: (u, v, 0.0), lambda z: calls.append(z) or z.real > 1.0)
    values, excluded = surf.sample(a, b)
    want = np.array([complex(u, v) for u, v in itertools.product(a, b)])
    assert len(calls) == 1 and calls[0].tobytes() == want.tobytes()
    assert excluded.tolist() == (want.real > 1.0).tolist()
    assert values[~excluded].tobytes() == np.array(
        [(u, v, 0.0) for u, v in itertools.product(a, b) if u <= 1.0]).tobytes()


@pytest.mark.parametrize("predicate", [
    lambda z: z.real < 0.0 or abs(z) > 1.5,   # ValueError on arrays
    lambda z: math.hypot(z.real, z.imag) < 0.5,  # TypeError on arrays
], ids=["or", "math.hypot"])
def test_sample_of_a_predicate_that_rejects_arrays_raises_after_one_call(predicate):
    calls, evaluated = [], []

    def counted(z):
        calls.append(z)
        return predicate(z)

    surf = SurfaceMap(lambda u, v: evaluated.append((u, v)) or (u, v, 0.0), counted)
    with pytest.raises((TypeError, ValueError)):
        surf.sample(*GridSpec(-2.0, 2.0, -2.0, 2.0, 5, 5).axes())
    # one call on the array of all 25 parameters, and no point is evaluated
    assert len(calls) == 1 and np.shape(calls[0]) == (25,) and not evaluated


def _outcome(call):
    """The values' bytes and the excluded mask of ``call()``, or the type and
    message of what it raised."""
    try:
        values, excluded = call()
    except (DomainError, ValueError) as exc:
        return type(exc), str(exc)
    return values.tobytes(), excluded.tolist()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(SURFACE_NAMES),
       corners=st.tuples(_part, _part, _part, _part),
       shape=st.tuples(st.integers(2, 12), st.integers(2, 12)))
def test_sample_matches_the_point_by_point_loop(name, corners, shape):
    surf = catalog_surface(name)
    a, b = GridSpec(*corners, *shape).axes()
    got = _outcome(lambda: surf.sample(a, b))
    pts = list(itertools.product(a.tolist(), b.tolist()))
    assert got == _outcome(lambda: surface_reference.sample(surf, pts))
    assert isinstance(got[0], bytes)


_DRAW = st.tuples(st.sampled_from([0.0, -0.0, 1e-20, 1j, 1e-3j, 2.0]),
                  st.sampled_from([3, 3, 3, 2, 4]))


@settings(max_examples=60, deadline=None)
@given(st.lists(_part, min_size=0, max_size=4), st.lists(_part, min_size=1, max_size=4),
       st.data(), st.floats(-3.0, 3.0))
def test_sample_raises_where_the_point_by_point_loop_raises(a, b, data, cut):
    # each point's third component and row length are drawn; points with
    # u < cut are excluded.  A point drawn twice keeps its last draw.
    pts = list(itertools.product(a, b))
    drawn = dict(zip(pts, data.draw(st.lists(_DRAW, min_size=len(pts), max_size=len(pts)))))

    def components(u, v):
        z, n = drawn[u, v]
        return (u, v, z, 0.5)[:n]

    surf = SurfaceMap(components, lambda zeta: zeta.real < cut)
    assert _outcome(lambda: surf.sample(a, b)) == _outcome(
        lambda: surface_reference.sample(surf, pts))


@pytest.mark.parametrize("n", [2, 4])
def test_sample_of_a_row_of_the_wrong_length_raises(n):
    surf = SurfaceMap(lambda u, v: (u, v, 0.0, 1.0)[:n] if u > 0.5 else (u, v, 0.0))
    with pytest.raises(ValueError, match=rf"shape \({n},\) into shape \(3,\)"):
        surf.sample([0.0, 0.7, 0.9], [0.0])
