import cmath
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab.errors import ExcludedPoint
from solitonlab.identities import (
    _CHUNK,
    HELICOID2_IDENTITY,
    LORENTZ_HELICOID_IDENTITY,
    RAM_ARCTAN_SUM,
    RAM_COS_PRODUCT,
    REGISTRY,
    SCHERK_IDENTITY,
    _accumulate,
    _trigamma,
    arctan_tail,
    convergence_order,
    evaluate,
    quadrant_constant,
)
from solitonlab.weierstrass import catalog_surface


# -- Ramanujan cosine product -------------------------------------------------

def test_cos_product_trivial_x_zero():
    for K in (1, 7, 100):
        r = evaluate(RAM_COS_PRODUCT, (0.0, 0.4), K)
        assert r.partial == 1.0 and r.abs_err == 0.0


def test_cos_product_convergence_and_halving():
    r1 = evaluate(RAM_COS_PRODUCT, (0.3, 0.2), 10 ** 4)
    r2 = evaluate(RAM_COS_PRODUCT, (0.3, 0.2), 2 * 10 ** 4)
    assert r1.abs_err <= 5e-3
    ratio = r1.abs_err / r2.abs_err
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2  # halves within +-20%
    assert abs(r1.lhs - cmath.cos(0.5) / cmath.cos(0.2)) <= 1e-15


def test_cos_product_x_equals_a():
    r = evaluate(RAM_COS_PRODUCT, (0.5, 0.5), 10 ** 4)
    assert abs(r.lhs - cmath.cos(1.0) / cmath.cos(0.5)) <= 1e-15
    assert r.abs_err <= 5e-3
    r2 = evaluate(RAM_COS_PRODUCT, (0.5, 0.5), 2 * 10 ** 4)
    assert 1.6 <= r.abs_err / r2.abs_err <= 2.4


def test_cos_product_complex_arguments():
    X, A = 0.3 + 0.2j, 0.1 - 0.4j
    r = evaluate(RAM_COS_PRODUCT, (X, A), 10 ** 4)
    assert r.abs_err <= 1e-4
    assert r.est_order >= 0.9


def test_cos_product_error_model_on_random_arguments():
    # empirical 1/K model: err(2K) stays within 2x of err(K)/2
    rng = np.random.default_rng(21)
    for _ in range(50):
        X = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        A = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r1 = evaluate(RAM_COS_PRODUCT, (X, A), 10 ** 4)
        r2 = evaluate(RAM_COS_PRODUCT, (X, A), 2 * 10 ** 4)
        if r1.abs_err < 1e-12:
            continue  # degenerate cancellation, nothing to model
        predicted = r1.abs_err / 2
        assert r2.abs_err <= 2 * predicted


def test_cos_product_excluded_near_half_odd_pi():
    with pytest.raises(ExcludedPoint):
        evaluate(RAM_COS_PRODUCT, (0.3, math.pi / 2 + 1e-9), 10)
    with pytest.raises(ExcludedPoint):
        evaluate(RAM_COS_PRODUCT, (0.3, -3 * math.pi / 2), 10)


# -- Ramanujan arctangent sum -------------------------------------------------

def test_arctan_sum_trivial_x_zero():
    for K in (1, 10, 1000):
        r = evaluate(RAM_ARCTAN_SUM, (0.0, 0.7), K)
        assert r.partial == 0.0 and r.lhs == 0.0 and r.abs_err == 0.0


def test_arctan_sum_convergence_and_tail_correction():
    raw = evaluate(RAM_ARCTAN_SUM, (1.0, 0.7), 10 ** 4)
    assert raw.abs_err <= 1e-4
    corrected = evaluate(RAM_ARCTAN_SUM, (1.0, 0.7), 10 ** 4, RAM_ARCTAN_SUM.tail)
    assert corrected.abs_err * 10 <= raw.abs_err
    # the paired terms decay like 1/k^2, so the raw error tracks the
    # closed-form tail estimate
    assert raw.abs_err == pytest.approx(abs(arctan_tail((1.0, 0.7), 10 ** 4)), rel=0.05)


def test_trigamma_matches_scipy():
    polygamma = pytest.importorskip("scipy.special").polygamma
    xs = np.concatenate([np.linspace(1.0, 30.0, 581), np.logspace(0.0, 9.0, 181)])
    for x in xs:
        ref = float(polygamma(1, x))
        assert abs(_trigamma(x) - ref) <= 1e-15 * ref, x


def test_arctan_sum_against_high_K_oracle():
    # reference partial at K = 10^7 pins the limit far below the K = 10^4 error
    ref = evaluate(RAM_ARCTAN_SUM, (1.0, 0.7), 10 ** 7)
    assert ref.abs_err <= 2e-8
    r = evaluate(RAM_ARCTAN_SUM, (1.0, 0.7), 10 ** 4)
    assert abs(r.partial - ref.partial) == pytest.approx(r.abs_err, rel=1e-2)


def test_arctan_sum_order_without_tail():
    r = evaluate(RAM_ARCTAN_SUM, (0.5, 1.2), 10 ** 4)
    assert r.est_order >= 0.9


def test_arctan_sum_excluded_near_pi_multiples():
    with pytest.raises(ExcludedPoint):
        evaluate(RAM_ARCTAN_SUM, (1.0, math.pi), 10)
    with pytest.raises(ExcludedPoint):
        evaluate(RAM_ARCTAN_SUM, (1.0, 1e-9), 10)


# -- Scherk identity ----------------------------------------------------------

def test_scherk_identity_at_two():
    r3 = evaluate(SCHERK_IDENTITY, (2 + 0j,), 10 ** 3)
    r4 = evaluate(SCHERK_IDENTITY, (2 + 0j,), 10 ** 4)
    assert abs(r3.lhs - math.log(3 / 5)) <= 1e-15
    assert r4.abs_err < r3.abs_err
    assert r4.est_order >= 0.9


def test_scherk_identity_imaginary_axis_reduction():
    # x(i s) = 0, so the identity reduces to the pure cosh-ratio series
    s = 2.0
    r = evaluate(SCHERK_IDENTITY, (1j * s,), 10 ** 4)
    y = math.log(abs((s - 1) / (s + 1)))
    assert abs(r.lhs - math.log(math.cosh(y))) <= 1e-12  # cosh(0) = 1
    assert r.abs_err <= 1e-3


def test_scherk_identity_symmetric_ray_terms_vanish():
    # on arg zeta = pi/4 the x and y coordinates are opposite, every paired
    # term cancels and the lhs is 0
    for s in (0.5, 1.7, 3.0):
        z = s * cmath.exp(1j * math.pi / 4)
        r = evaluate(SCHERK_IDENTITY, (z,), 50)
        assert abs(r.lhs) <= 1e-14
        assert abs(r.partial) <= 1e-13


@given(st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=60, deadline=None)
def test_scherk_identity_symmetry_under_negation(r, a):
    z = r * cmath.exp(1j * a)
    if min(abs(z - p) for p in (1, -1, 1j, -1j)) <= 2e-2:
        return
    p1 = evaluate(SCHERK_IDENTITY, (z,), 200)
    p2 = evaluate(SCHERK_IDENTITY, (-z,), 200)
    assert abs(p1.partial - p2.partial) <= 1e-12
    assert abs(p1.lhs - p2.lhs) <= 1e-12


def test_scherk_identity_excluded_points():
    for p in (1 + 0j, -1 + 0j, 1j, -1j, 1.005 + 0j):
        with pytest.raises(ExcludedPoint):
            evaluate(SCHERK_IDENTITY, (p,), 10)


# -- helicoid-of-second-kind identity ----------------------------------------

def test_helicoid2_closed_form_values():
    r = evaluate(HELICOID2_IDENTITY, (1 + 1j,), 10 ** 4)
    assert abs(r.lhs - (1 / 3)) <= 1e-15
    assert r.abs_err <= 1e-4
    r = evaluate(HELICOID2_IDENTITY, (2j,), 10 ** 4)
    assert abs(r.lhs - 0.6) <= 1e-15
    assert r.abs_err <= 1e-4


def test_helicoid2_imaginary_residue_vanishes():
    for K in (10 ** 2, 10 ** 3, 10 ** 4):
        r = evaluate(HELICOID2_IDENTITY, (1.3 + 0.6j,), K)
        assert abs(r.partial.imag) <= 10 * r.abs_err


def test_helicoid2_unit_circle_excluded():
    with pytest.raises(ExcludedPoint):
        evaluate(HELICOID2_IDENTITY, (cmath.exp(0.7j),), 10)
    with pytest.raises(ExcludedPoint):
        evaluate(HELICOID2_IDENTITY, (1.5 + 0j,), 10)  # real axis: lhs undefined


def test_helicoid2_matches_catalog_surface_ratio():
    surf = catalog_surface("helicoid_second_kind")
    rng = np.random.default_rng(17)
    done = 0
    while done < 20:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 0.3 or abs(abs(z) - 1) < 0.05 or abs((z - 1 / z).imag) < 0.1:
            continue
        done += 1
        p = surf.eval(z)
        r = evaluate(HELICOID2_IDENTITY, (z,), 10)
        assert abs(r.lhs - p.z / p.x) <= 1e-10


# -- Lorentzian helicoid identity --------------------------------------------

def test_quadrant_constant_table():
    half = math.pi / 2
    # 4 open quadrants
    assert quadrant_constant(1.0, 1.0) == half
    assert quadrant_constant(-1.0, 1.0) == -half
    assert quadrant_constant(-1.0, -1.0) == half
    assert quadrant_constant(1.0, -1.0) == -half
    # both axes
    assert quadrant_constant(0.0, 2.0) == half
    assert quadrant_constant(0.0, -2.0) == half
    assert quadrant_constant(1.5, 0.0) == half
    assert quadrant_constant(-1.5, 0.0) == half


def test_lorentz_identity_first_quadrant_convergence():
    r = evaluate(LORENTZ_HELICOID_IDENTITY, (1 + 1j,), 10 ** 4)
    assert r.abs_err <= 1e-3
    r2 = evaluate(LORENTZ_HELICOID_IDENTITY, (1 + 1j,), 10 ** 5)
    assert r2.abs_err < r.abs_err


def test_lorentz_identity_on_upper_imaginary_axis():
    # u = 0: both sides are finite and equal (pi/2 exactly)
    r = evaluate(LORENTZ_HELICOID_IDENTITY, (1j,), 10 ** 4)
    assert abs(r.lhs - math.pi / 2) <= 1e-12
    assert r.abs_err <= 1e-12


def test_lorentz_identity_fourth_quadrant_convergence():
    r = evaluate(LORENTZ_HELICOID_IDENTITY, (1.2 - 0.8j,), 10 ** 4)
    assert r.abs_err <= 1e-3


def test_lorentz_identity_left_half_plane_agrees_mod_pi():
    # with lhs read as the principal argument, the left half-plane defect
    # converges to pi (the proof's arctan branch); mod pi it vanishes
    for z in (-1 + 1j, -1 - 1j, -0.7 + 1.4j):
        r = evaluate(LORENTZ_HELICOID_IDENTITY, (z,), 10 ** 4)
        mod = min(abs(r.abs_err - k * math.pi) for k in (0, 1))
        assert mod <= 1e-3
        assert abs(r.abs_err - math.pi) <= 1e-3


def test_lorentz_identity_excluded_points():
    with pytest.raises(ExcludedPoint):
        evaluate(LORENTZ_HELICOID_IDENTITY, (0.001 + 0j,), 10)
    with pytest.raises(ExcludedPoint):
        evaluate(LORENTZ_HELICOID_IDENTITY, (-1 + 0.001j,), 10)  # principal-arg cut


# -- convergence order machinery ----------------------------------------------

def test_convergence_order_monotone_errors():
    rs = convergence_order(REGISTRY["ram_arctan_sum"], (1.0, 0.7), [100, 1000, 10000])
    errs = [r.abs_err for r in rs]
    assert errs[0] > errs[1] > errs[2]
    assert all(r.est_order >= 0.9 for r in rs[1:])

    rs = convergence_order(REGISTRY["scherk_identity"], (2 + 0j,), [100, 1000, 10000])
    errs = [r.abs_err for r in rs]
    assert errs[0] > errs[1] > errs[2]


def test_convergence_order_rejects_excluded_and_unsorted():
    with pytest.raises(ExcludedPoint):
        convergence_order(REGISTRY["scherk_identity"], (1j,), [10, 100])
    # a repeated K would divide by log(K / K) = 0
    for K_list in ([100, 10], [10, 10], [100, 1000, 1000]):
        with pytest.raises(ValueError, match="K_list must be increasing"):
            convergence_order(REGISTRY["ram_arctan_sum"], (1.0, 0.7), K_list)


# The reference arguments of scripts/identity_tables.py.
_REFERENCE_ARGS = {
    "ram_cos_product": (0.3 + 0j, 0.2 + 0j),
    "ram_arctan_sum": (1.0, 0.7),
    "scherk_identity": (2 + 0j,),
    "helicoid2_identity": (1 + 1j,),
    "lorentz_helicoid_identity": (1 + 1j,),
}


def _bits(r):
    """The row's K, partial, lhs and abs_err, exactly."""
    return (r.K, r.partial.real.hex(), r.partial.imag.hex(), r.lhs.real.hex(),
            r.lhs.imag.hex(), r.abs_err.hex())


@pytest.mark.parametrize("name", sorted(_REFERENCE_ARGS))
def test_convergence_order_rows_are_single_evaluations(name):
    # K lists that cross the accumulation chunk boundary both ways
    spec, args = REGISTRY[name], _REFERENCE_ARGS[name]
    Ks = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]
    rows = convergence_order(spec, args, Ks)
    assert [_bits(r) for r in rows] == [_bits(evaluate(spec, args, K)) for K in Ks]
    assert rows[0].est_order == evaluate(spec, args, Ks[0]).est_order
    for prev, r in zip(rows, rows[1:]):
        expected = (math.log(prev.abs_err / r.abs_err) / math.log(r.K / prev.K)
                    if prev.abs_err > 0 and r.abs_err > 0 else math.inf)
        assert r.est_order == expected


def test_corrected_table_rows_are_corrected_evaluations():
    # every row of a corrected table fits its order from K and 2K
    args, Ks = _REFERENCE_ARGS["ram_arctan_sum"], [1, 100, _CHUNK + 1]
    rows = convergence_order(RAM_ARCTAN_SUM, args, Ks, RAM_ARCTAN_SUM.tail)
    expected = [evaluate(RAM_ARCTAN_SUM, args, K, RAM_ARCTAN_SUM.tail) for K in Ks]
    assert [(*_bits(r), r.est_order.hex()) for r in rows] == \
        [(*_bits(r), r.est_order.hex()) for r in expected]


def _typings(x, real):
    """``x`` as each number type that holds it exactly: int, Fraction, float
    and, unless ``real``, complex."""
    z = complex(x)
    forms = [z] if not real else []
    if z.imag == 0:
        forms += [z.real, Fraction(z.real)]
        if z.real.is_integer():
            forms.append(int(z.real))
    return forms


@pytest.mark.parametrize("name", sorted(_REFERENCE_ARGS))
def test_evaluate_is_the_one_row_table_whatever_the_argument_types(name):
    # the arguments are typed once, on entry, so numbers of the same value
    # give the same bits whatever their type
    spec = REGISTRY[name]
    typed = list(itertools.product(*(_typings(x, spec.real) for x in _REFERENCE_ARGS[name])))
    for K in (1, 100, 1000):
        row, = convergence_order(spec, _REFERENCE_ARGS[name], [K])
        for args in typed:
            got = evaluate(spec, args, K)
            assert (*_bits(got), got.est_order.hex()) == (*_bits(row), row.est_order.hex()), \
                (args, K)


def test_real_identity_rejects_a_non_real_argument():
    for args in ((1 + 2j, 0.7), (1.0, 0.7 + 1e-3j)):
        with pytest.raises(TypeError):
            evaluate(RAM_ARCTAN_SUM, args, 10)


def test_tail_corrected_row_adds_the_spec_tail():
    assert RAM_ARCTAN_SUM.tail is arctan_tail
    args, K = _REFERENCE_ARGS["ram_arctan_sum"], 10 ** 4
    raw = evaluate(RAM_ARCTAN_SUM, args, K)
    cor = evaluate(RAM_ARCTAN_SUM, args, K, RAM_ARCTAN_SUM.tail)
    assert cor.partial == raw.partial  # the reported partial stays uncorrected
    assert cor.abs_err == abs(raw.partial + arctan_tail(args, K) - raw.lhs)


def test_convergence_order_sums_the_2K_half_only_where_it_is_read():
    # each row sums k = 1..K once; only the first row also sums K+1..2K
    counted = []

    def counting_term(k, args):
        counted.append(len(k))
        return HELICOID2_IDENTITY.rhs_term(k, args)

    spec = dataclasses.replace(HELICOID2_IDENTITY, rhs_term=counting_term)
    Ks, args = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6], _REFERENCE_ARGS["helicoid2_identity"]
    rows = convergence_order(spec, args, Ks)
    assert sum(counted) == sum(Ks) + Ks[0] == 1_112_000
    assert rows == convergence_order(HELICOID2_IDENTITY, args, Ks)


# -- product-log accumulation -------------------------------------------------

def _complex_log_sum(spec, args, K):
    """Reference: the sum of numpy's complex log over all K factors."""
    factors = np.asarray(spec.rhs_term(np.arange(1, K + 1), args), dtype=complex)
    return complex(np.sum(np.log(factors)))


@pytest.mark.parametrize("spec,args", [
    (HELICOID2_IDENTITY, (1.2 + 0.9j,)),
    (HELICOID2_IDENTITY, (0.3 - 0.2j,)),
    (HELICOID2_IDENTITY, (5 + 1j,)),
    # early factors far from 1
    (RAM_COS_PRODUCT, (0.7 + 0.2j, 0.3 + 0.1j)),
    (RAM_COS_PRODUCT, (20 + 5j, 0.4 - 1j)),
])
def test_product_log_accumulation_matches_complex_log(spec, args):
    assert 10 ** 6 >= 3 * _CHUNK  # the largest K spans several chunks
    for K in (10, 10 ** 3, 10 ** 6):
        got = _accumulate(spec, args, 1, K)
        assert abs(got - _complex_log_sum(spec, args, K)) <= 1e-13, K


def test_product_with_a_zero_factor_is_zero():
    # X = pi/2 - A makes the k = 1 factor 1 - X/(pi/2 - A) exactly 0
    A = 0.2 + 0j
    X = complex(0.5 * math.pi - 0.2)
    assert RAM_COS_PRODUCT.rhs_term(np.arange(1, 2), (X, A))[0] == 0
    for K in (1, 10, 3 * _CHUNK):
        r = evaluate(RAM_COS_PRODUCT, (X, A), K)
        assert r.partial == 0
        assert r.abs_err == abs(r.lhs)
