import cmath
import math
import operator
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from solitonlab import jetmath as jm
from solitonlab.core import (
    CentralDiff,
    LVec3,
    ScalarField2,
    jet,
    lorentz_inner,
    with_backend,
)
from solitonlab.errors import DomainError
from solitonlab.geometry import _classify_block, classify_grid, example1_graph
from solitonlab.pde import (
    _BLOCK,
    DEFAULT_GRIDS,
    WICK_GRIDS,
    Equation,
    GridSpec,
    _residual_from_jet,
    catalog_names,
    residual_sweep,
    solution,
    wick_rotate_x,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def test_lorentz_inner_signature():
    assert lorentz_inner(LVec3(1, 0, 0), LVec3(1, 0, 0)) == 1
    assert lorentz_inner(LVec3(0, 0, 1), LVec3(0, 0, 1)) == -1
    assert lorentz_inner(LVec3(1, 0, 1), LVec3(1, 0, 1)) == 0


@given(finite, finite, finite, finite, finite, finite)
def test_lorentz_inner_symmetric(ax, ay, az, bx, by, bz):
    a, b = LVec3(ax, ay, az), LVec3(bx, by, bz)
    assert lorentz_inner(a, b) == lorentz_inner(b, a)


@given(finite, finite, finite, finite, finite, finite, finite)
def test_lorentz_inner_linear_in_first_slot(ax, ay, az, bx, by, bz, c):
    a, b = LVec3(ax, ay, az), LVec3(bx, by, bz)
    lhs = lorentz_inner(LVec3(c * ax, c * ay, c * az), b)
    assert lhs == pytest.approx(c * lorentz_inner(a, b), abs=1e-6, rel=1e-9)


@given(st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_unit_timelike_plane_vector(s):
    v = LVec3(math.cosh(s), 0.0, math.sinh(s))
    assert lorentz_inner(v, v) == pytest.approx(1.0, abs=1e-9)


@given(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
def test_conjugation_involution(z):
    assert jm.conj(jm.conj(z)) == z


def test_complex_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        (1 + 2j) / (0 + 0j)


def test_jet_bilinear_field():
    fld = ScalarField2(lambda a, b: a * b)
    j, _ = jet(fld, 2.0, 3.0)
    assert j.f == 6 and j.fx == 3 and j.ft == 2
    assert j.fxt == 1 and j.fxx == 0 and j.ftt == 0


def test_jet_constant_field():
    fld = ScalarField2(lambda a, b: 4.25)
    j, _ = jet(fld, 0.3, -1.2)
    assert j.f == 4.25
    assert j.fx == j.ft == j.fxx == j.fxt == j.ftt == 0


def test_jet_quadratic_exact():
    # degree <= 2 polynomials are exact under the jet backend
    fld = ScalarField2(lambda a, b: 3 * a * a - 2 * a * b + 5 * b * b + a - 7)
    j, _ = jet(fld, 1.5, -0.5)
    assert j.f == 3 * 2.25 - 2 * 1.5 * -0.5 + 5 * 0.25 + 1.5 - 7
    assert j.fx == 6 * 1.5 - 2 * -0.5 + 1
    assert j.ft == -2 * 1.5 + 10 * -0.5
    assert (j.fxx, j.fxt, j.ftt) == (6, -2, 10)


def test_jet_backends_agree_on_catenoid_profile():
    fld = ScalarField2(lambda a, b: jm.asinh(jm.sqrt(a * a + b * b)))
    je, _ = jet(fld, 1.0, 1.0)
    jc, _ = jet(with_backend(fld, CentralDiff(1e-4)), 1.0, 1.0)
    assert abs(je.fx - jc.fx) <= 1e-6


def test_backends_agree_on_all_catalog_fields():
    rng = np.random.default_rng(7)
    for name in catalog_names():
        fld = solution(name).field
        g = DEFAULT_GRIDS[name]
        pts = 0
        while pts < 100:
            a = rng.uniform(g.a_min, g.a_max)
            b = rng.uniform(g.b_min, g.b_max)
            if fld.excluded(a, b):
                continue
            pts += 1
            je, _ = jet(fld, a, b)
            jc, _ = jet(with_backend(fld, CentralDiff(1e-4)), a, b)
            for attr in ("f", "fx", "ft", "fxx", "fxt", "ftt"):
                assert abs(getattr(je, attr) - getattr(jc, attr)) <= 1e-6, (name, attr, a, b)


def test_central_diff_second_order_convergence():
    fld = ScalarField2(lambda a, b: jm.exp(a + b))
    exact, _ = jet(fld, 0.3, 0.4)

    def err(h):
        j, _ = jet(with_backend(fld, CentralDiff(h)), 0.3, 0.4)
        return max(abs(getattr(j, k) - getattr(exact, k))
                   for k in ("fx", "ft", "fxx", "fxt", "ftt"))

    e1, e2, e3 = err(1e-2), err(5e-3), err(2.5e-3)
    assert math.log2(e1 / e2) >= 1.9
    assert math.log2(e2 / e3) >= 1.9


def test_domain_error_when_stencil_touches_exclusion():
    fld = ScalarField2(lambda a, b: 1.0 / a,
                       backend=CentralDiff(1e-2),
                       domain_exclusions=lambda a, b: abs(a) < 5e-3)
    with pytest.raises(DomainError):
        jet(fld, 0.008, 0.0)  # stencil reaches a - h = -0.002
    jet(fld, 0.5, 0.0)  # interior point is fine


def test_exact_jet_fallback_for_foreign_primitives():
    fld = ScalarField2(lambda a, b: math.sin(a) + b)
    j, backend = jet(fld, 0.3, 0.1)
    assert backend == "central-fallback"
    assert abs(j.fx - math.cos(0.3)) <= 1e-8
    # the backend is named for jetmath primitives, stencils and array blocks too
    native = ScalarField2(lambda a, b: jm.sin(a) + b)
    assert jet(native, 0.3, 0.1)[1] == "exact"
    assert jet(with_backend(native, CentralDiff(1e-4)), 0.3, 0.1)[1] == "central"
    pts = np.array([0.3, 0.5])
    assert jet(native, pts, pts)[1] == "exact"
    assert jet(with_backend(native, CentralDiff(1e-4)), pts, pts)[1] == "central"


def test_tjet_lift():
    j = jm.TJet.seed_a(0.5)
    assert jm.TJet.lift(j) is j
    c = jm.TJet.lift(2)
    assert c == jm.TJet(2 + 0j) and type(c.f) is complex
    assert (c.fx, c.ft, c.fxx, c.fxt, c.ftt) == (0j,) * 5
    arr = jm.TJet.lift(np.array([1.0, -0.5]))
    assert arr.f.dtype == complex and list(arr.f) == [1.0, -0.5]
    assert (arr.fx, arr.ft, arr.fxx, arr.fxt, arr.ftt) == (0j,) * 5


# -- TJet subtraction and jets as values ---------------------------------------

_SPECIALS = (0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, math.nan)
_SPECIAL_Z = np.array([complex(p, q) for p in _SPECIALS for q in _SPECIALS])


def _coef_bits(c):
    """The bits of a coefficient's parts, with every NaN read as one NaN.
    IEEE a - b is a + (-b) bit for bit except for the sign of a NaN result
    when b is a NaN; printing, ``float.hex`` and comparisons do not see it."""
    parts = np.asarray(c, dtype=complex).reshape(-1).view(float)
    return np.where(np.isnan(parts), math.nan, parts).tobytes()


def _jet_bits(j):
    return tuple(_coef_bits(c) for c in (j.f, j.fx, j.ft, j.fxx, j.fxt, j.ftt))


def _special_jets(n_shift):
    """Two jets whose coefficients run over every pair of special parts
    (0, -0, +-inf, nan and two finite ones), one coefficient slot rolled
    against the next."""
    a_vals = np.repeat(_SPECIAL_Z, len(_SPECIAL_Z))
    b_vals = np.tile(_SPECIAL_Z, len(_SPECIAL_Z))
    a = jm.TJet(*(np.roll(a_vals, k * n_shift) for k in range(6)))
    b = jm.TJet(*(np.roll(b_vals, k * n_shift) for k in range(6)))
    return a, b


@pytest.mark.parametrize("n_shift", [0, 1, 7])
def test_tjet_subtraction_is_bit_equal_to_adding_the_negation(n_shift):
    a, b = _special_jets(n_shift)
    numbers = (0, 3, -0.0, 0.0, 2.5, math.inf, -math.inf, math.nan,
               complex(-0.0, 0.0), complex(0.0, -0.0), complex(1.5, math.nan))
    with np.errstate(all="ignore"):
        assert _jet_bits(a - b) == _jet_bits(a + (-b))
        for c in numbers:
            assert _jet_bits(a - c) == _jet_bits(a + (-complex(c))), c
            assert _jet_bits(c - a) == _jet_bits((-a) + complex(c)), c
        # scalar coefficients: one jet per entry, against the same pairs
        for k in range(0, a.f.size, 11):
            sa = jm.TJet(*(complex(c[k]) for c in (a.f, a.fx, a.ft, a.fxx, a.fxt, a.ftt)))
            sb = jm.TJet(*(complex(c[k]) for c in (b.f, b.fx, b.ft, b.fxx, b.fxt, b.ftt)))
            assert _jet_bits(sa - sb) == _jet_bits(sa + (-sb))
            for c in numbers:
                assert _jet_bits(sa - c) == _jet_bits(sa + (-complex(c)))
                assert _jet_bits(c - sa) == _jet_bits((-sa) + complex(c))
        # a scalar jet minus an array jet, and the other way round
        assert _jet_bits(sa - b) == _jet_bits(sa + (-b))
        assert _jet_bits(a - sb) == _jet_bits(a + (-sb))


def _jet_operations(a, b):
    yield from (a + b, a - b, a * b, a / b, -a, a ** 2, a ** -1, a ** 0.5)
    yield from (a + 2, 2 + a, a - 2j, 2j - a, a * 1.5, 1.5 * a, a / 3, 3 / a)
    yield from (a.conjugate(), a.real_part(), a.imag_part(), jm.TJet.lift(a))
    for fn in (jm.exp, jm.log, jm.sqrt, jm.sin, jm.cos, jm.tan, jm.sinh, jm.cosh,
               jm.tanh, jm.atan, jm.atanh, jm.asinh, jm.conj, jm.re, jm.im):
        yield fn(a)
    yield jm.power(a, 1.5)


@pytest.mark.parametrize("arrays", [False, True], ids=["scalar", "array"])
def test_jet_operations_leave_their_operands_unchanged(arrays):
    u = np.array([0.3, -1.2, 2.0])
    v = np.array([0.7, 0.4, -0.9])
    if not arrays:
        u, v = u[0], v[0]
    a = jm.cosh(jm.TJet.seed_a(u) + 1j * jm.TJet.seed_b(v))
    b = jm.TJet.seed_a(u) * jm.TJet.seed_b(v) + 0.5
    before = (_jet_bits(a), _jet_bits(b))
    results = list(_jet_operations(a, b)) + list(_jet_operations(b, a))
    assert (_jet_bits(a), _jet_bits(b)) == before
    assert all(isinstance(r, jm.TJet) for r in results)
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_jetmath_primitives_against_cmath():
    # spot-check first/second derivative rules on a nontrivial composite
    fld = ScalarField2(
        lambda a, b: jm.tan(a) * jm.atanh(b) + jm.power(jm.cosh(a), 3) - jm.atan(a * b))
    je, _ = jet(fld, 0.4, 0.3)
    jc, _ = jet(with_backend(fld, CentralDiff(1e-4)), 0.4, 0.3)
    for attr in ("f", "fx", "ft", "fxx", "fxt", "ftt"):
        assert abs(getattr(je, attr) - getattr(jc, attr)) <= 1e-6


def test_complex_valued_field_is_first_class():
    fld = ScalarField2(lambda a, b: 1j * a * jm.tanh(b))
    j, _ = jet(fld, 0.7, 0.2)
    assert abs(j.fx - 1j * math.tanh(0.2)) < 1e-14


# Points on and next to the branch cuts, with both signs of a zero part: the
# cuts of log and sqrt lie on the negative real axis, those of atanh on the
# real axis beyond +-1, and those of atan and asinh on the imaginary axis
# beyond +-i.
_CUT_POINTS = [complex(x, y) for x in (-2.0, -0.5, 0.0, -0.0, 0.5, 2.0)
               for y in (-2.0, -0.5, 0.0, -0.0, 0.5, 2.0) if x or y]


@pytest.mark.parametrize("name,ref", [
    ("log", cmath.log), ("sqrt", cmath.sqrt), ("atan", cmath.atan),
    ("atanh", cmath.atanh), ("asinh", cmath.asinh),
])
def test_array_branch_cuts_match_cmath(name, ref):
    fn = getattr(jm, name)
    z = np.array(_CUT_POINTS)
    want = [ref(p) for p in _CUT_POINTS]
    for got in (fn(z), fn(jm.TJet(z)).f):
        for p, g, w in zip(_CUT_POINTS, got, want):
            # a wrong branch is off by O(1), an ulp difference is not
            assert abs(g - w) <= 1e-15 * (1 + abs(w)), (name, p, g, w)


def test_array_jet_matches_scalar_jets():
    fld = ScalarField2(
        lambda a, b: jm.tan(a) * jm.atanh(b) + jm.power(jm.cosh(a), 3) - jm.atan(a * b)
        + jm.re(jm.log(a + 1j * b)) - 2j * jm.im(jm.sqrt(b - 1j * a)))
    a = np.array([0.4, -0.7, 1.1])
    b = np.array([0.3, 0.2, -0.6])
    ja, _ = jet(fld, a, b)
    for i in range(len(a)):
        js, _ = jet(fld, float(a[i]), float(b[i]))
        for attr in ("f", "fx", "ft", "fxx", "fxt", "ftt"):
            want = getattr(js, attr)
            assert abs(getattr(ja, attr)[i] - want) <= 1e-14 * (1 + abs(want))


def test_array_jets_check_every_point_and_stencil():
    fld = ScalarField2(lambda a, b: a * b, domain_exclusions=lambda a, b: a > 1.0)
    with pytest.raises(DomainError):
        jet(fld, np.array([0.0, 1.5]), np.array([0.0, 0.0]))
    with pytest.raises(DomainError):
        jet(with_backend(fld, CentralDiff(0.1)), np.array([0.0, 0.95]), np.array([0.0, 0.0]))


_PRIMITIVES = ("exp", "log", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh",
               "atan", "atanh", "asinh")
_SCALARS = ([0, 1, -2, 3, True, 0.0, -0.0, 0.5, -2.0, 1.0, -1.0, 710.0,
             complex(0.0, -0.0), complex(-0.0, -0.0), 1j, -1j]
            + _CUT_POINTS)


def _outcome(fn, z):
    """fn(z) as the bytes of its value, or the type of the exception it raised."""
    try:
        w = complex(fn(z))
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc)
    return struct.pack("<dd", w.real, w.imag)


@pytest.mark.parametrize("name", _PRIMITIVES)
def test_scalar_primitives_are_bit_identical_to_cmath(name):
    fn, ref = getattr(jm, name), getattr(cmath, name)
    for z in _SCALARS:
        want = _outcome(ref, z)
        assert _outcome(fn, z) == want, (name, z)
        if isinstance(want, bytes):
            assert type(fn(z)) is complex
    # arrays go through numpy, jets through the chain rule with cmath or numpy
    z = np.array(_CUT_POINTS)
    ufunc = {"atan": np.arctan, "atanh": np.arctanh,
             "asinh": np.arcsinh}.get(name) or getattr(np, name)
    assert np.array_equal(fn(z), ufunc(z), equal_nan=True)
    assert np.array_equal(fn(jm.TJet(z)).f, ufunc(z), equal_nan=True)
    for p in _CUT_POINTS:
        assert _outcome(lambda q: fn(jm.TJet(q)).f, p) == _outcome(ref, p), (name, p)


def test_re_im_of_numbers_are_bit_identical():
    for z in _SCALARS:
        for fn, want in ((jm.re, complex(z).real), (jm.im, complex(z).imag)):
            got = fn(z)
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", want), (fn, z)
    z = np.array(_CUT_POINTS)
    assert np.array_equal(jm.re(z), z.real) and np.array_equal(jm.im(z), z.imag)
    j = jm.re(jm.TJet(z, 2j * z))
    assert np.array_equal(j.f, z.real.astype(complex)) and np.array_equal(j.fx, -2 * z.imag)
    assert np.array_equal(jm.im(jm.TJet(z, 2j * z)).fx, 2 * z.real)
    # an array jet keeps complex128 coefficients; a number beside an array
    # coefficient becomes a complex number
    for part in (jm.re(jm.TJet(z, 2j * z)), jm.im(jm.TJet(z, 2j * z, 1j, None, None, None))):
        assert part.f.dtype == complex and part.fx.dtype == complex
    mixed = jm.im(jm.TJet(z, 1j, -0.0 + 0j, None, None, None))
    assert mixed.f.dtype == complex and mixed.fxx is None
    assert _hex_parts(mixed.fx) == _hex_parts(1 + 0j) and _hex_parts(mixed.ft) == _hex_parts(0j)


def _hex_parts(c):
    return c.real.hex(), c.imag.hex()


_SPECIAL = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(math.nan, -0.0),
            complex(-0.0, math.nan), complex(math.inf, -math.inf),
            complex(-math.inf, math.nan), complex(1.5, -2.5), complex(-0.0, -0.0)]


@pytest.mark.parametrize("order", [1, 2])
def test_re_im_of_scalar_jets_are_bit_identical(order):
    # each coefficient of a scalar jet's parts must be complex(c.real) or
    # complex(c.imag), signed zeros, NaN and infinities included
    for shift in range(len(_SPECIAL)):
        coefs = (_SPECIAL[shift:] + _SPECIAL[:shift])[:6]
        j = jm.TJet(*coefs) if order == 2 else jm.TJet(*coefs[:3], None, None, None)
        for fn, part in ((jm.re, lambda c: complex(c.real)), (jm.im, lambda c: complex(c.imag))):
            got = fn(j)
            for name in ("f", "fx", "ft", "fxx", "fxt", "ftt"):
                c, g = getattr(j, name), getattr(got, name)
                if c is None:
                    assert g is None
                    continue
                assert type(g) is complex
                assert _hex_parts(g) == _hex_parts(part(c)), (fn, name, c)


def test_primitives_reject_other_types():
    for name in _PRIMITIVES:
        with pytest.raises(TypeError):
            getattr(jm, name)("1.0")


# Closed-form first and second derivatives of each primitive.
_DERIVATIVES = {
    "exp": (cmath.exp, cmath.exp),
    "log": (lambda u: 1 / u, lambda u: -1 / u ** 2),
    "sqrt": (lambda u: 0.5 / cmath.sqrt(u), lambda u: -0.25 / cmath.sqrt(u) ** 3),
    "sin": (cmath.cos, lambda u: -cmath.sin(u)),
    "cos": (lambda u: -cmath.sin(u), lambda u: -cmath.cos(u)),
    "tan": (lambda u: 1 / cmath.cos(u) ** 2, lambda u: 2 * cmath.sin(u) / cmath.cos(u) ** 3),
    "sinh": (cmath.cosh, cmath.sinh),
    "cosh": (cmath.sinh, cmath.cosh),
    "tanh": (lambda u: 1 / cmath.cosh(u) ** 2,
             lambda u: -2 * cmath.sinh(u) / cmath.cosh(u) ** 3),
    "atan": (lambda u: 1 / (1 + u * u), lambda u: -2 * u / (1 + u * u) ** 2),
    "atanh": (lambda u: 1 / (1 - u * u), lambda u: 2 * u / (1 - u * u) ** 2),
    "asinh": (lambda u: (1 + u * u) ** -0.5, lambda u: -u * (1 + u * u) ** -1.5),
}


@pytest.mark.parametrize("name", _PRIMITIVES)
def test_chain_rule_of_every_primitive(name):
    # g(0.7a + 0.3b + c): the derivatives are g' and g'' times those of the
    # linear argument
    fn = getattr(jm, name)
    assert fn.__name__ == name and fn.__module__ == jm.__name__
    d1, d2 = _DERIVATIVES[name]
    c = 0.2 + 0.1j
    fld = ScalarField2(lambda a, b: fn(0.7 * a + 0.3 * b + c))
    a = np.array([0.4, -0.5, 0.9])
    b = np.array([-0.3, 0.6, 0.1])
    ja, _ = jet(fld, a, b)
    for i in range(len(a)):
        js, _ = jet(fld, float(a[i]), float(b[i]))
        u = 0.7 * float(a[i]) + 0.3 * float(b[i]) + c
        g1, g2 = d1(u), d2(u)
        want = {"fx": 0.7 * g1, "ft": 0.3 * g1,
                "fxx": 0.49 * g2, "fxt": 0.21 * g2, "ftt": 0.09 * g2}
        for attr, w in want.items():
            for got in (getattr(js, attr), getattr(ja, attr)[i]):
                assert abs(got - w) <= 1e-14 * (1 + abs(w)), (name, attr, i, got, w)


# Parts of dividends and divisors: signed zeros, both orders of magnitude of
# the real and imaginary parts (the two branches of Smith's algorithm), real
# and imaginary divisors, infinities and nan.
_DIV_PARTS = (0.0, -0.0, 1.5, -2.0, 3e-300, -7e300, math.inf, -math.inf, math.nan)
_DIV_VALUES = [complex(x, y) for x in _DIV_PARTS for y in _DIV_PARTS]


def _bits(z):
    """The bytes of each part of z; nan parts compare equal whatever their sign."""
    z = complex(z)
    return tuple("nan" if math.isnan(p) else struct.pack("<d", p) for p in (z.real, z.imag))


def _python_quotients(a, d):
    """a / q for each q of d as Python divides complex numbers; None where it raises."""
    out = []
    for q in d.tolist():
        try:
            out.append(a / q)
        except ZeroDivisionError:
            out.append(None)
    return out


def test_array_division_is_bit_identical_to_python():
    # A number over fewer divisors than _SMALL is divided in Python, unless a
    # divisor is zero; over more, and an array over any, take the vector form.
    nonzero = [v for v in _DIV_VALUES if v != 0]
    assert len(nonzero) < jm._SMALL < 2 * len(_DIV_VALUES)
    for d in (np.array(nonzero), np.array(_DIV_VALUES), np.array(_DIV_VALUES * 2)):
        with np.errstate(all="ignore"):
            for a in _DIV_VALUES + [1, 1.0, -0.25]:
                want = _python_quotients(a, d)
                for got in (jm._cdiv(a, d), jm._cdiv(np.full(d.shape, complex(a)), d)):
                    for q, g, w in zip(d.tolist(), got.tolist(), want):
                        if w is None:
                            assert not cmath.isfinite(g), (a, q, g)
                        else:
                            assert _bits(g) == _bits(w), (a, q, g, w)
    rng = np.random.default_rng(12)
    scale = 10.0 ** rng.integers(-5, 6, (4, 2000))
    a = rng.normal(size=2000) * scale[0] + 1j * rng.normal(size=2000) * scale[1]
    d = rng.normal(size=2000) * scale[2] + 1j * rng.normal(size=2000) * scale[3]
    want = np.array([x / y for x, y in zip(a.tolist(), d.tolist())])
    assert np.array_equal(jm._cdiv(a, d).view(float), want.view(float))
    assert jm._cdiv(a[:5, None], d[:3]).shape == (5, 3)
    # numpy's own division rounds differently, so the comparison has teeth
    assert not np.array_equal((a / d).view(float), want.view(float))


def test_array_jet_divisions_match_scalar_jets():
    # Each coefficient real or imaginary: divisors take both branches, and
    # every product has a factor with a zero part, so numpy's complex multiply
    # (a fused multiply-add on CPUs that have one) rounds as CPython's does.
    rng = np.random.default_rng(8)
    unit = np.where(rng.uniform(size=(6, 300)) < 0.5, 1.0, 1j)
    coefs = list(rng.normal(size=(6, 300)) * 10.0 ** rng.integers(-3, 4, (6, 300)) * unit)
    coefs[0][:4] = [complex(0.0, 3.0), complex(-0.0, -0.5), complex(2.0, -0.0), -0.25]
    arr = jm.TJet(*coefs)
    names = ("f", "fx", "ft", "fxx", "fxt", "ftt")
    for i in range(300):
        one = jm.TJet(*(complex(c[i]) for c in coefs))
        got, want = arr._reciprocal(), one._reciprocal()
        for name in names:
            assert _bits(getattr(got, name)[i]) == _bits(getattr(want, name)), (i, name)
        # the rules that divide by a function of the value; their values come
        # from numpy's ufuncs, their derivatives only from jet arithmetic
        for fn in (jm.log, jm.atan, jm.atanh):
            got, want = fn(arr), fn(one)
            for name in names[1:]:
                assert _bits(getattr(got, name)[i]) == _bits(getattr(want, name)), (fn, i, name)
    # General complex coefficients: the value of the reciprocal is one division
    # and is bit-identical; products of two non-real numbers may differ from
    # CPython's in the last ulp.
    z = [rng.normal(size=300) + 1j * rng.normal(size=300) for _ in range(6)]
    got = jm.TJet(*z)._reciprocal()
    for i in range(300):
        want = jm.TJet(*(complex(c[i]) for c in z))._reciprocal()
        assert _bits(got.f[i]) == _bits(want.f)
        for name in names[1:]:
            w = getattr(want, name)
            assert abs(getattr(got, name)[i] - w) <= 1e-14 * abs(w), (i, name)


# -- exclusion masks on arrays ------------------------------------------------

def test_array_stencil_names_the_first_excluded_point_point_by_point():
    # Point 0's stencil is excluded only at its 4th offset, (a, b + h); point
    # 1's already at its 2nd, (a + h, b).  The first excluded stencil point
    # is point 0's: points first, then offsets in stencil order.
    fld = ScalarField2(lambda a, b: a * b, backend=CentralDiff(0.1),
                       domain_exclusions=lambda a, b: ((b > 0.05) & (a < 0.25)) | (a > 0.55))
    a, b = np.array([0.0, 0.5, 0.9]), np.array([0.0, 0.0, 0.0])
    with pytest.raises(DomainError) as got:
        jet(fld, a, b)
    with pytest.raises(DomainError) as want:
        jet(fld, 0.0, 0.0)
    assert str(got.value) == str(want.value) == "stencil point (0.0, 0.1) is excluded"
    with pytest.raises(DomainError, match=r"^stencil point \(0\.6, 0\.0\) is excluded$"):
        jet(fld, a[1:], b[1:])


def test_array_jet_names_the_first_excluded_point():
    fld = ScalarField2(lambda a, b: a * b, domain_exclusions=lambda a, b: a > 0.55)
    a, b = np.array([0.0, 0.7, 0.3, 0.9]), np.array([0.25, -0.5, 0.0, 1.0])
    with pytest.raises(DomainError) as got:
        jet(fld, a, b)
    assert str(got.value) == "point (0.7, -0.5) is outside the field domain"
    with pytest.raises(DomainError, match=r"^point \(0\.9, 1\.0\) is outside"):
        jet(fld, a[2:], b[2:])


_A = np.array([-1.5, -0.0, 0.0, 0.4, 1.2])
_B = np.array([0.3, 0.0, -0.0, -0.9, 2.0])


@pytest.mark.parametrize("predicate", [
    lambda a, b: abs(math.cos(a)) <= 0.4,          # TypeError on arrays
    lambda a, b: a < 0.0 or b > 1.0,               # ValueError on arrays
    lambda a, b: np.cos(a) + b if a > 0 else 0.0,  # ValueError, non-bool values
], ids=["math.cos", "or", "branch"])
def test_mask_of_a_predicate_that_rejects_arrays_raises_after_one_call(predicate):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return predicate(a, b)

    fld = ScalarField2(lambda a, b: a + b, domain_exclusions=counted)
    with pytest.raises((TypeError, ValueError)):
        fld.excluded_mask(_A, _B)
    # one call on the arrays, never a retry point by point
    assert len(calls) == 1 and calls[0][0] is _A and calls[0][1] is _B


@pytest.mark.parametrize("value", [False, True, np.False_])
def test_mask_of_a_single_bool_is_broadcast(value):
    fld = ScalarField2(lambda a, b: a + b, domain_exclusions=lambda a, b: value)
    mask = fld.excluded_mask(_A, _B)
    assert mask.dtype == bool and mask.tolist() == [bool(value)] * len(_A)
    assert ScalarField2(lambda a, b: a).excluded_mask(_A, _B).tolist() == [False] * len(_A)


# Real arrays: every primitive and power in real arithmetic while the result
# stays real, else the complex ufunc on the whole array (numpy.emath's rule).
_UFUNCS = {"atan": np.arctan, "atanh": np.arctanh, "asinh": np.arcsinh}
_IN_DOMAIN = np.array([0.0, -0.0, 0.25, -0.5, 0.75, 1e-300, -3e-5])
_OUT_OF_DOMAIN = {
    # 1.0638... and -0.2568... are in the domain, where the complex ufunc on
    # x + 0j differs from the real one in the last ulp
    "log": np.array([0.5, -1.0, -0.25, 2.0, -3e-300, 1.063897842906593]),
    "sqrt": np.array([0.5, -1.0, 0.0, 2.0, -4.0]),
    "atanh": np.array([0.5, -2.0, 0.0, 1.5, -0.25, -0.2568677479422091]),
}


def _ufunc(name):
    return _UFUNCS.get(name) or getattr(np, name)


def _domain(name):
    # log and sqrt take the magnitudes of _IN_DOMAIN, zero excepted for log
    if name == "log":
        return np.abs(_IN_DOMAIN[2:])
    return np.abs(_IN_DOMAIN) if name == "sqrt" else _IN_DOMAIN


@pytest.mark.parametrize("name", _PRIMITIVES)
def test_real_array_stays_real_and_bit_equal_to_the_real_ufunc(name):
    x = _domain(name)
    got = getattr(jm, name)(x)
    assert got.dtype == np.float64
    assert got.tobytes() == _ufunc(name)(x).tobytes()
    # an integer array is a float array of the same values
    n = np.array([0] if name == "atanh" else [1, 2, 3])
    got = getattr(jm, name)(n)
    assert got.dtype == np.float64
    assert got.tobytes() == getattr(jm, name)(n.astype(float)).tobytes()


def _entry_by_entry(name, x):
    """The primitive ``name`` of the float array ``x`` as numpy.emath decides
    per entry: the real ufunc, and the complex one on x + 0j where the real
    one leaves the domain (NaN from a number); complex if any entry does."""
    with np.errstate(invalid="ignore"):
        w = _ufunc(name)(x)
    out = np.isnan(w) & ~np.isnan(x)
    if not out.any():
        return w
    w = w.astype(complex)
    w[out] = _ufunc(name)(x[out].astype(complex))
    return w


@pytest.mark.parametrize("name", sorted(_OUT_OF_DOMAIN))
def test_real_array_out_of_the_real_domain_is_evaluated_complex(name):
    x = _OUT_OF_DOMAIN[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = getattr(jm, name)(x)
        from_int = getattr(jm, name)(np.array([-2, 3]))
    # only the entries that leave the real domain are evaluated complex; the
    # others are the real ufunc's values plus 0j, whatever shares the array
    assert got.dtype == np.complex128
    assert got.tobytes() == _entry_by_entry(name, x).tobytes()
    assert got.tobytes() == np.concatenate([getattr(jm, name)(x[i:i + 1]).astype(complex)
                                            for i in range(len(x))]).tobytes()
    if name != "sqrt":
        assert got.tobytes() != _ufunc(name)(x.astype(complex)).tobytes()
    assert from_int.tobytes() == _entry_by_entry(name, np.array([-2.0, 3.0])).tobytes()
    if name == "log":
        # no -0j imaginary part is carried: the principal value, as cmath
        assert got[1] == cmath.log(-1.0) == complex(0.0, math.pi)


def test_real_array_nan_input_stays_real():
    x = np.array([math.nan, 0.5])
    assert jm.log(x).dtype == np.float64 and jm.sqrt(x).dtype == np.float64
    with np.errstate(invalid="ignore"):
        # sin(inf) is nan: the array leaves the real domain
        got = jm.sin(np.array([math.inf, 0.5]))
        want = np.sin(np.array([math.inf + 0j, 0.5 + 0j]))
    assert got.dtype == np.complex128
    assert np.array_equal(got, want, equal_nan=True)


def test_power_of_real_arrays():
    x = np.array([0.5, 2.0, 0.0, 3.0])
    for p in (2, 3, -1, 0.5, 1.5, -2.5):
        with np.errstate(divide="ignore"):
            got, want = jm.power(x, p), x ** p
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert jm.power(np.array([1, 2]), -1).tolist() == [1.0, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = jm.power(np.array([4.0, -4.0]), 0.5)
    assert got.tobytes() == (np.array([4 + 0j, -4 + 0j]) ** 0.5).tobytes()
    # complex arrays, complex exponents and numbers are as before
    z = np.array([1 + 1j, -2 + 0j])
    assert jm.power(z, 0.5).tobytes() == (z ** 0.5).tobytes()
    assert jm.power(x[:2], 1j).tobytes() == (x[:2].astype(complex) ** 1j).tobytes()
    assert jm.power(-4.0, 0.5) == complex(-4.0) ** 0.5


def test_array_jets_keep_complex_coefficients():
    a = np.array([0.5, -1.0, 2.0])
    j = jm.log(jm.cosh(jm.TJet.seed_a(a)))
    for c in (j.f, j.fx, j.fxx):
        assert c.dtype == np.complex128
    assert j.f.tobytes() == np.log(np.cosh(a.astype(complex))).tobytes()


def test_central_sweep_evaluates_real_arrays():
    # a guard on the fast path that does not time anything: the stencil of a
    # block is evaluated in one call, on float arrays, to float arrays, and
    # the jet's coefficients stay real
    e = solution("scherk_first_kind")
    dtypes = []

    def ev(a, b):
        out = e.field.evaluator(a, b)
        dtypes.append(out.dtype)
        return out

    fld = ScalarField2(ev, CentralDiff(1e-4), e.field.domain_exclusions)
    rep = residual_sweep(fld, e.equation, GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21))
    assert rep.max_abs < 1e-5
    assert dtypes == [np.dtype(np.float64)]
    j, _ = jet(fld, np.array([0.1, 0.2]), np.array([0.3, -0.4]))
    assert {c.dtype for c in (j.f, j.fx, j.ft, j.fxx, j.fxt, j.ftt)} == {np.dtype(np.float64)}


# -- the central stencil in one call ------------------------------------------------

def _nine_call_jet(fld, a, b, h):
    """The central-difference jet as it was computed with nine evaluator
    calls, one per stencil point, whose values were cast to complex and
    divided by numpy (arrays) or CPython (numbers): the oracle."""
    sa = (a, a + h, a - h, a, a, a + h, a + h, a - h, a - h)
    sb = (b, b, b, b + h, b - h, b + h, b - h, b + h, b - h)
    f00, fp0, fm0, f0p, f0m, fpp, fpm, fmp, fmm = (
        jm.TJet.coef(fld.evaluator(pa, pb)) for pa, pb in zip(sa, sb))
    return jm.TJet(f00, (fp0 - fm0) / (2 * h), (f0p - f0m) / (2 * h),
                   (fp0 - 2 * f00 + fm0) / (h * h), (fpp - fpm - fmp + fmm) / (4 * h * h),
                   (f0p - 2 * f00 + f0m) / (h * h))


def _complex_bits(j):
    coefs = (j.f, j.fx, j.ft, j.fxx, j.fxt, j.ftt)
    return [np.asarray(c, dtype=complex).tobytes() for c in coefs]


def _one_call_cases():
    for name, grid in DEFAULT_GRIDS.items():
        for h in (1e-3, 1e-4, 1e-5):
            yield f"{name} h={h:g}", name, grid, h
    yield ("scherk_first_kind 201x201", "scherk_first_kind",
           GridSpec(-1.0, 1.0, -1.0, 1.0, 201, 201), 1e-4)
    # rows of 9000 points, wider than pde._BLOCK: one block per row
    yield ("wick_lorentzian_catenoid 81x9000", "wick_lorentzian_catenoid",
           GridSpec.parse("-0.8:0.8:1:3:81:9000"), 1e-4)


@pytest.mark.parametrize("label,name,grid,h",
                         [pytest.param(*c, id=c[0]) for c in _one_call_cases()])
def test_one_call_stencil_matches_the_nine_call_oracle_bit_for_bit(label, name, grid, h):
    e = solution(name)
    fld = with_backend(e.field, CentralDiff(h))
    calls = []

    def ev(a, b):
        calls.append(1)
        return e.field.evaluator(a, b)

    counted = ScalarField2(ev, fld.backend, fld.domain_exclusions)
    rep = residual_sweep(counted, e.equation, grid)
    # one evaluator call per block of whole rows (at most pde._BLOCK points, or one row)
    rows = max(1, _BLOCK // grid.nb)
    assert len(calls) == -(-grid.na // rows)
    a, b = rep.points[:, 0], rep.points[:, 1]
    want = []
    with np.errstate(all="ignore"):
        for s in range(0, len(a), grid.nb):  # the oracle on grid.nb points at a time
            j = _nine_call_jet(fld, a[s:s + grid.nb], b[s:s + grid.nb], h)
            want.append(np.asarray(_residual_from_jet(j, e.equation), dtype=complex))
        assert rep.residuals.tobytes() == np.concatenate(want).tobytes()  # signed zeros too
        # the jet's coefficients, on a column of two rows' a and a row of b
        ax, bx = grid.axes()
        assert _complex_bits(jet(fld, ax[:2, None], bx[None, :])[0]) == \
            _complex_bits(_nine_call_jet(fld, ax[:2, None], bx[None, :], h))


def test_one_call_stencil_keeps_the_signed_zeros_of_the_oracle():
    # -0.0 * a is -0 at a + h > 0 and +0 at a - h < 0, so fx's difference is
    # -0, which the oracle's complex division by 2h turns into +0
    fld = ScalarField2(lambda a, b: -0.0 * a + 0.0 * b, CentralDiff(0.1))
    a, b = np.array([0.05, -0.05, 0.5, -0.0]), np.array([0.05, -0.0, 0.5, -0.05])
    j = jet(fld, a, b)[0]
    assert math.copysign(1.0, j.fx[0]) == 1.0
    assert _complex_bits(j) == _complex_bits(_nine_call_jet(fld, a, b, 0.1))


@pytest.mark.parametrize("name", catalog_names())
def test_central_jet_at_numbers_is_the_nine_call_oracle(name):
    e = solution(name)
    grid = DEFAULT_GRIDS[name]
    for h in (1e-3, 1e-4):
        fld = with_backend(e.field, CentralDiff(h))
        for a, b in grid.points()[::97]:
            j, backend = jet(fld, a, b)
            assert backend == "central" and type(j.f) is complex
            assert _complex_bits(j) == _complex_bits(_nine_call_jet(fld, a, b, h))


# -- order-1 jets ----------------------------------------------------------------

def _order1(j):
    """The order-1 jet of ``j``: its value and gradient, no second-order slots."""
    return jm.TJet(j.f, j.fx, j.ft, None, None, None)


_UNARY = {
    "neg": lambda a: -a,
    "a+2.5": lambda a: a + 2.5, "2.5+a": lambda a: 2.5 + a,
    "a-2j": lambda a: a - 2j, "2j-a": lambda a: 2j - a,
    "a*1.5": lambda a: a * 1.5, "(0.5-1j)*a": lambda a: (0.5 - 1j) * a,
    "a/3": lambda a: a / 3, "3/a": lambda a: 3 / a,
    "a**0": lambda a: a ** 0, "a**1": lambda a: a ** 1, "a**3": lambda a: a ** 3,
    "a**2.0": lambda a: a ** 2.0, "a**-2": lambda a: a ** -2,
    "a**0.5": lambda a: a ** 0.5, "a**-1.5": lambda a: a ** -1.5,
    "power(a, 2.5)": lambda a: jm.power(a, 2.5), "power(a, -1)": lambda a: jm.power(a, -1),
    "conj": jm.conj, "re": jm.re, "im": jm.im,
    **{name: getattr(jm, name) for name in _PRIMITIVES},
}
_BINARY = {
    "a+b": lambda a, b: a + b, "a-b": lambda a, b: a - b,
    "a*b": lambda a, b: a * b, "a/b": lambda a, b: a / b,
}


def _first_order_bits(op, *jets):
    """The bytes of f, fx and ft of ``op(*jets)`` with the result, or the type
    of the exception it raised and None."""
    try:
        with np.errstate(all="ignore"):
            r = op(*jets)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), None
    return tuple(np.asarray(c, dtype=complex).tobytes() for c in (r.f, r.fx, r.ft)), r


def _check_order1_matches_order2(name, op, jets):
    """``op`` on every mix of order-1 and order-2 operands: the result has
    order 2 only when every operand does, and its f, fx and ft are the bits
    of the all-order-2 result."""
    want, full = _first_order_bits(op, *jets)
    if full is None:
        return  # order 2 raised; order 1 may not need the term that did
    assert all(c is not None for c in (full.fxx, full.fxt, full.ftt))
    for mask in range(1, 2 ** len(jets)):
        mixed = [_order1(j) if mask >> k & 1 else j for k, j in enumerate(jets)]
        got, r = _first_order_bits(op, *mixed)
        assert got == want, (name, mask)
        assert all(c is None for c in (r.fxx, r.fxt, r.ftt)), (name, mask)


_COEF = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


def _jets_from(values, n):
    return [jm.TJet(*values[6 * k:6 * k + 6]) for k in range(n)]


@given(st.lists(_COEF, min_size=12, max_size=12))
def test_order1_scalar_jets_match_order2_bit_for_bit(values):
    a, b = _jets_from(values, 2)
    for name, op in _UNARY.items():
        _check_order1_matches_order2(name, op, [a])
    for name, op in _BINARY.items():
        _check_order1_matches_order2(name, op, [a, b])


@given(st.lists(st.lists(_COEF, min_size=3, max_size=3), min_size=12, max_size=12))
def test_order1_array_jets_match_order2_bit_for_bit(rows):
    a, b = _jets_from([np.array(r) for r in rows], 2)
    for name, op in _UNARY.items():
        _check_order1_matches_order2(name, op, [a])
    scalar = jm.TJet(*(complex(c[0]) for c in rows[:6]))
    for name, op in _BINARY.items():
        _check_order1_matches_order2(name, op, [a, b])
        # a scalar jet with an array jet
        _check_order1_matches_order2(name, op, [scalar, b])


def test_order1_jet_never_reads_second_order_terms():
    # g'' of x**1.5 at 0 is infinite, and a scalar 0j ** -0.5 raises; the
    # order-1 jet does not form it
    z = jm.TJet(0j, 1.0 + 0j, 2j)
    with pytest.raises(ZeroDivisionError):
        z ** 1.5
    r = _order1(z) ** 1.5
    assert (r.f, r.fx, r.ft, r.fxx) == (0j, 0j, 0j, None)
    # a consumer that reads second order gets an error, never a zero
    j = jm.sin(jm.TJet(0.3 + 0j, 1.0 + 0j, 0j, None, None, None))
    with pytest.raises(TypeError):
        j.fxx * j.fx
    with pytest.raises(TypeError):
        _residual_from_jet(j, Equation.BORN_INFELD)


# -- structural zeros of array jets ---------------------------------------------

def _dense_compose(self, g0, g1, g2):
    """``TJet._compose`` with every slot multiplied through by g' and g'', as
    scalar jets do: the oracle of the array chain rule, which turns a
    structural zero into an array of zeros, NaN where g' is not finite."""
    if self.fxx is None:
        return jm.TJet(g0, g1 * self.fx, g1 * self.ft, None, None, None)
    return jm.TJet(g0, g1 * self.fx, g1 * self.ft,
                   g2 * self.fx * self.fx + g1 * self.fxx,
                   g2 * self.fx * self.ft + g1 * self.fxt,
                   g2 * self.ft * self.ft + g1 * self.ftt)


def _dense(fn, *args):
    """``fn(*args)`` with the dense chain rule, numpy's warnings off."""
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(jm.TJet, "_compose", _dense_compose)
        return fn(*args)


_COEFS = ("f", "fx", "ft", "fxx", "fxt", "ftt")
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}
# real constants keep the numbers in an array jet's slots exact, so no
# product in them rounds as numpy's (a fused multiply-add) and CPython's differ
_CONST = st.sampled_from([0.5, -1.25, 2.0])


def _terms(leaves):
    """Expression trees over the variables ``leaves``: the 12 primitives of a
    term, and +, - and * of two terms or of a term and a constant."""
    op = st.sampled_from(sorted(_OPS))
    return st.recursive(st.sampled_from(leaves), lambda kids: st.one_of(
        st.tuples(st.sampled_from(_PRIMITIVES), kids), st.tuples(op, kids, kids),
        st.tuples(op, kids, _CONST), st.tuples(op, _CONST, kids)), max_leaves=4)


# a term in a alone (``ia`` is i a, as in the Wick-rotated fields) with one
# in b alone, then with a mixed term
_FIELDS = st.tuples(st.sampled_from(sorted(_OPS)),
                    st.tuples(st.sampled_from(sorted(_OPS)), _terms(("a", "ia")), _terms(("b",))),
                    _terms(("a", "ia", "b")))


def _evaluate(tree, a, b, constant_args):
    """The field ``tree`` at the jets (or arrays) a and b; appends to
    ``constant_args`` each primitive applied to a jet whose gradient is two
    structural zeros (a constant term such as a - a)."""
    if isinstance(tree, str):
        return {"a": a, "ia": 1j * a, "b": b}[tree]
    if isinstance(tree, float):
        return tree
    if len(tree) == 2:
        x = _evaluate(tree[1], a, b, constant_args)
        if isinstance(x, jm.TJet) and all(type(c) is complex and c == 0 for c in (x.fx, x.ft)):
            constant_args.append(tree[0])
        return getattr(jm, tree[0])(x)
    return _OPS[tree[0]](*(_evaluate(t, a, b, constant_args) for t in tree[1:]))


def _canonical(x, shape):
    """The parts of ``x`` broadcast to ``shape``, a last axis of two floats,
    with -0.0 as +0.0 and every NaN the same NaN: bytes up to signs of zero."""
    x = np.broadcast_to(np.asarray(x, dtype=complex), shape)
    parts = np.stack([x.real + 0.0, x.imag + 0.0], axis=-1)
    parts[np.isnan(parts)] = math.nan
    return parts


def _finite(j, shape):
    """Where every coefficient of the jet ``j`` is finite, a bool array of ``shape``."""
    return np.logical_and.reduce([np.broadcast_to(np.isfinite(getattr(j, c)), shape)
                                  for c in _COEFS])


def _classified(j, shape):
    try:
        return _classify_block(j, shape)
    except DomainError as exc:
        return str(exc)


def _check_against_the_dense_oracle(got, want, shape, constant_args=()):
    """``got``, an array jet of points of ``shape``, against ``want``, the
    dense oracle's: the same value f, bit for bit, and where ``want`` is
    finite, every coefficient and residual with the bytes of ``want`` up to
    signs of zero.  Unless a primitive took a constant term, the jets are
    finite at the same points, so residuals and ``_classify_block`` agree at
    every point.  Returns the points where ``want`` is finite."""
    assert np.broadcast_to(got.f, shape).tobytes() == np.broadcast_to(want.f, shape).tobytes()
    ok = _finite(want, shape)
    pairs = [(getattr(got, c), getattr(want, c)) for c in _COEFS]
    with np.errstate(all="ignore"):
        pairs += [(_residual_from_jet(got, e), _residual_from_jet(want, e)) for e in Equation]
    for x, y in pairs:
        assert _canonical(x, shape)[ok].tobytes() == _canonical(y, shape)[ok].tobytes()
    if not constant_args:
        # a structural zero is dropped only beside a live slot, which is not
        # finite where g' is not: no point turns finite
        assert np.array_equal(_finite(got, shape), ok)
        with np.errstate(all="ignore"):
            x, y = _classified(got, shape), _classified(want, shape)
        assert type(x) is type(y)
        assert x == y if isinstance(x, str) else _canonical(x, x.shape).tobytes() == \
            _canonical(y, y.shape).tobytes()
    return ok


_COLUMN = np.array([-1.0, -0.5, 0.0, 0.3, 1.0, 2.0])[:, None]
_ROW = np.array([-0.7, 0.0, 0.25, 1.5, -2.0])[None, :]


@given(_FIELDS)
def test_structural_zeros_match_the_dense_chain_rule(tree):
    # g' is not finite at some points (sqrt and log at 0, atanh at 1, ...)
    flat = tuple(x.ravel() for x in np.broadcast_arrays(_COLUMN, _ROW))
    for a, b in ((_COLUMN, _ROW), flat):
        seeds = (jm.TJet.seed_a(a), jm.TJet.seed_b(b))
        constant_args = []
        with np.errstate(all="ignore"):
            got = jm.TJet.lift(_evaluate(tree, *seeds, constant_args))
        want = jm.TJet.lift(_dense(_evaluate, tree, *seeds, []))
        _check_against_the_dense_oracle(got, want, np.broadcast(a, b).shape, constant_args)


# name -> (field, whether g' is not finite in a term in one variable, whose
# structural zeros the dense oracle turns into NaN; in the catalog entries the
# singular term is mixed, and both sides read NaN in every slot)
_SINGULAR_FIELDS = {
    "sqrt(a) + cosh(b)": (lambda a, b: jm.sqrt(a) + jm.cosh(b), True),
    "sqrt(cosh(a) - 1) + log(cosh(b))": (
        lambda a, b: jm.sqrt(jm.cosh(a) - 1) + jm.log(jm.cosh(b)), True),
    "log(a) - log(cosh(b))": (lambda a, b: jm.log(a) - jm.log(jm.cosh(b)), True),
    "cosh(a) * sqrt(b)": (lambda a, b: jm.cosh(a) * jm.sqrt(b), True),
    "helicoid_first_kind, margin 0": (
        solution("helicoid_first_kind", margin=0.0).field.evaluator, False),
    "lorentzian_catenoid, margin 0": (
        solution("lorentzian_catenoid", margin=0.0).field.evaluator, False),
}


@pytest.mark.parametrize("name", sorted(_SINGULAR_FIELDS))
def test_structural_zeros_where_g_prime_is_not_finite(name):
    ev, one_variable = _SINGULAR_FIELDS[name]
    a, b = np.array([-1.0, 0.0, 0.5])[:, None], np.array([-0.5, 0.0, 1.0, 2.0])[None, :]
    with np.errstate(all="ignore"):
        got = ev(jm.TJet.seed_a(a), jm.TJet.seed_b(b))
    want = _dense(ev, jm.TJet.seed_a(a), jm.TJet.seed_b(b))
    ok = _check_against_the_dense_oracle(got, want, (3, 4))
    assert not ok.all()
    # the oracle's product of a structural zero and the infinite g' is NaN
    # where the array jet keeps the zero
    assert one_variable == any(
        (np.isnan(_canonical(getattr(want, c), (3, 4)))
         & np.isfinite(_canonical(getattr(got, c), (3, 4))))[~ok].any() for c in _COEFS)
    # and the residual fails on both sides
    with np.errstate(all="ignore"):
        for e in Equation:
            for j in (got, want):
                assert not np.isfinite(np.broadcast_to(_residual_from_jet(j, e), (3, 4))[~ok]).any()


@pytest.mark.parametrize("name", catalog_names())
def test_sweeps_match_the_dense_chain_rule_bit_for_bit(name):
    e = solution(name)
    g = DEFAULT_GRIDS[name]
    grids = [g, GridSpec(g.a_min, g.a_max, g.b_min, g.b_max, 201, 157)]
    for grid in grids:
        got = residual_sweep(e.field, e.equation, grid)
        want = _dense(residual_sweep, e.field, e.equation, grid)
        assert got.residuals.tobytes() == want.residuals.tobytes()  # signed zeros too
    if name in WICK_GRIDS:
        fld = wick_rotate_x(e.field)
        got = residual_sweep(fld, Equation.BORN_INFELD, WICK_GRIDS[name])
        want = _dense(residual_sweep, fld, Equation.BORN_INFELD, WICK_GRIDS[name])
        assert got.residuals.tobytes() == want.residuals.tobytes()


def test_classify_grid_matches_the_dense_chain_rule():
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 101, 101)
    got = classify_grid(example1_graph(), grid)
    want = _dense(classify_grid, example1_graph(), grid)
    assert repr(got) == repr(want)
