import cmath
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab import family
from solitonlab import jetmath as jm
from solitonlab.core import ScalarField2, jet
from solitonlab.errors import JacobianSingular
from solitonlab.family import (
    ConjugatePair,
    WhithamPair,
    associate_family,
    calibrate_offsets,
    catalog_whitham,
    complex_bi_residual_on_family,
    conjugacy_check,
    graph_residual_from_jets,
    helicoid_catenoid_pair,
    SolitonFamilyPoint,
    soliton_family,
    whitham_constraint_defect,
    whitham_verify,
)
from solitonlab.geometry import isothermal_check
from solitonlab.jetmath import TJet
from solitonlab.pde import Equation, _residual_from_jet, equation_residual
from solitonlab.quadrature import _EPSABS, _EPSREL, build_path, integrate_segments
from solitonlab.weierstrass import SurfaceMap, catalog_surface

THETAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)


def _annulus(n, seed=0, a_max=0.85 * math.pi):
    rng = np.random.default_rng(seed)
    rs = rng.uniform(0.5, 2.0, n)
    angs = rng.uniform(-a_max, a_max, n)
    return [r * cmath.exp(1j * a) for r, a in zip(rs, angs)]


def test_associate_family_endpoints_are_the_pair():
    pair = helicoid_catenoid_pair()
    s0 = associate_family(pair, 0.0)
    s1 = associate_family(pair, math.pi / 2)
    x1 = catalog_surface("lorentzian_helicoid")
    x2 = catalog_surface("lorentzian_catenoid")
    for z in (1 + 1j, 2 - 0.5j, 0.7 + 0.1j):
        for got, want in ((s0, x1), (s1, x2)):
            a, b = got.eval(z), want.eval(z)
            assert abs(a.x - b.x) + abs(a.y - b.y) + abs(a.z - b.z) <= 1e-14


def test_associate_family_is_isothermal_for_all_theta():
    pair = helicoid_catenoid_pair()
    pts = _annulus(15, seed=2)
    for theta in THETAS:
        surf = associate_family(pair, theta)
        for z in pts:
            assert max(isothermal_check(surf, z)) <= 1e-6


def test_conjugacy_of_helicoid_catenoid():
    pair = helicoid_catenoid_pair()
    assert conjugacy_check(pair, 2 + 0j) <= 1e-6
    for z in _annulus(20, seed=4):
        assert conjugacy_check(pair, z) <= 1e-6


def test_conjugacy_check_reads_only_first_order_slots():
    # the defect of a seed whose second-order slots are NaN has the bits of
    # conjugacy_check, so no second-order term reaches the defect
    nan = complex(math.nan, math.nan)
    for pair in (helicoid_catenoid_pair(), _affine_pair(0.3 - 0.2j, 0.8 + 0.5j)):
        for z in _annulus(10, seed=5):
            zj = TJet.seed_a(z.real) + 1j * TJet.seed_b(z.imag)
            zj = TJet(zj.f, zj.fx, zj.ft, nan, nan, nan)
            phi = [TJet.lift(w) for w in pair.phi(zj)]
            want = max(0.5 * abs(w.fx + 1j * w.ft) for w in phi)
            assert not math.isnan(want)
            assert conjugacy_check(pair, z).hex() == want.hex(), (pair.name, z)


def test_conjugacy_negative_control():
    # Phi's first component x becomes x + conj(x) = 2 Re x, which is not
    # holomorphic
    pair = helicoid_catenoid_pair()

    def phi(tau):
        x, t, f = pair.phi(tau)
        return x + jm.conj(x), t, f

    fake = ConjugatePair("not-conjugate", phi, phi, pair.exclusions)
    assert conjugacy_check(fake, 1.3 + 0.4j) > 0.1


def test_conjugacy_constant_pair_is_zero():
    phi = lambda t: (1.0 + 4.0j, 2.0 + 5.0j, 3.0 + 6.0j)
    const = ConjugatePair("const", phi, phi)
    assert conjugacy_check(const, 0.3 + 0.9j) == 0.0


def test_nan_defects_are_infinite():
    # a check that went wrong fails every tolerance: NaN never reads as a pass
    phi = lambda t: (t, t, math.nan * t)
    nan_pair = ConjugatePair("nan", phi, phi)
    assert conjugacy_check(nan_pair, 0.3 + 0.9j) == math.inf
    nan_surface = SurfaceMap(lambda u, v: (u, v, math.nan * u * v))
    assert isothermal_check(nan_surface, 0.3 + 0.9j)[2] == math.inf


def test_soliton_family_closed_form_points():
    pair = helicoid_catenoid_pair()
    p = soliton_family(pair, 0.0, 1.0 + 0j)
    assert abs((p.xs - p.ts) - 1j) <= 1e-14
    p = soliton_family(pair, math.pi / 2, 1.0 + 0j)
    assert abs(p.xs - p.ts) <= 1e-14
    for theta in THETAS:
        p = soliton_family(pair, theta, 1.0 + 0j)
        assert abs(p.phis) <= 1e-14  # log 1 = 0


def test_soliton_family_matches_paper_closed_forms():
    pair = helicoid_catenoid_pair()
    for theta in THETAS:
        for z in _annulus(10, seed=6):
            p = soliton_family(pair, theta, z)
            zb = z.conjugate()
            minus = 0.5j / zb * cmath.exp(1j * theta) + 0.5j * z * cmath.exp(-1j * theta)
            plus = 0.5j / z * cmath.exp(-1j * theta) + 0.5j * zb * cmath.exp(1j * theta)
            phis = (-0.5j * cmath.log(z) * cmath.exp(-1j * theta)
                    + 0.5j * cmath.log(zb) * cmath.exp(1j * theta))
            assert abs((p.xs - p.ts) - minus) <= 1e-12
            assert abs((p.xs + p.ts) - plus) <= 1e-12
            assert abs(p.phis - phis) <= 1e-12


def test_whitham_constraint_for_catalog_data():
    rng = np.random.default_rng(9)
    for theta in np.linspace(0.0, math.pi, 7):
        wp = catalog_whitham(float(theta))
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) < 0.1:
                continue
            assert whitham_constraint_defect(wp, z) <= 1e-12


def test_whitham_verify_section5_family():
    pair = helicoid_catenoid_pair()
    wp = calibrate_offsets(catalog_whitham(math.pi / 3), pair)
    p = soliton_family(pair, math.pi / 3, 1 + 1j)
    assert max(whitham_verify(wp, p)) <= 1e-8


def test_whitham_verify_across_thetas():
    pair = helicoid_catenoid_pair()
    pts = _annulus(20, seed=12)
    for theta in THETAS:
        wp = calibrate_offsets(catalog_whitham(theta), pair)
        for z in pts:
            p = soliton_family(pair, theta, z)
            assert max(whitham_verify(wp, p)) <= 1e-8, (theta, z)


def test_whitham_trivial_pair():
    wp = WhithamPair(lambda xb: 0j, lambda z: 0j, theta=0.0, pole_set=())
    from solitonlab.family import SolitonFamilyPoint
    p = SolitonFamilyPoint(0.0, 1.5 + 0.5j, 0j, 0j, 0j)
    assert whitham_verify(wp, p) == (0.0, 0.0, 0.0)


def holomorphic_derivative(fn, z):
    """f'(z) by propagating a jet; ``z`` may be a complex number or an array
    of them.  ``fn`` must take jets: one that rejects them raises
    ``TypeError``, as a jet bug would, rather than being differenced.  The
    oracle of the derivative moments of the Whitham form."""
    d = TJet.lift(fn(TJet.seed_a(z))).fx
    if isinstance(z, np.ndarray) and not isinstance(d, np.ndarray):
        return np.broadcast_to(d, z.shape)
    return d


def test_holomorphic_derivative_jet_and_stencil():
    assert abs(holomorphic_derivative(lambda w: w * w * w, 1 + 1j) - 3 * (1 + 1j) ** 2) <= 1e-12
    # a cmath-based closure rejects jets: that is an error, never a stencil
    with pytest.raises(TypeError):
        holomorphic_derivative(lambda w: cmath.exp(w), 0.3 + 0.2j)


# Compositions that use each jetmath primitive, the ring operations, integer
# and real powers, and conj/re/im.  A chain rule that mishandled one would
# raise TypeError, or return a wrong first or second derivative.
_COMPOSITIONS = {
    **{name: (lambda w, fn=getattr(jm, name): fn(0.3 * w + 0.2j) * w - 1 / (w + 2))
       for name in ("exp", "log", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "tanh",
                    "atan", "atanh", "asinh")},
    "ring": lambda w: (w * w - 2j * w + 1) / (w - 3) - (1 - w) / w + (-w) * 0.5,
    "powers": lambda w: w ** 3 + w ** -2 + w ** 0 * w + w ** 2.0 + w ** 1.5
    + jm.power(w, -0.5),
    "conj_re_im": lambda w: jm.conj(w) * w + jm.re(w) - 2 * jm.im(w * w),
}


@pytest.mark.parametrize("name", sorted(_COMPOSITIONS))
def test_jet_derivatives_of_compositions_match_central_differences(name):
    # d/dx and d2/dx2 along the real direction, which conj/re/im also have;
    # the stencils evaluate the composition on numbers and arrays, not jets
    fn = _COMPOSITIONS[name]
    for z in (0.4 + 0.3j, np.array([0.4 + 0.3j, -0.7 + 1.1j, 1.6 - 0.2j])):
        j = TJet.lift(fn(TJet.seed_a(z)))
        d1 = holomorphic_derivative(fn, z)
        assert np.asarray(d1).tobytes() == np.asarray(j.fx).tobytes(), name
        h1, h2 = 1e-6, 1e-4
        s1 = (fn(z + h1) - fn(z - h1)) / (2 * h1)
        s2 = (fn(z + h2) - 2 * fn(z) + fn(z - h2)) / (h2 * h2)
        assert np.all(np.abs(d1 - s1) <= 1e-8 * np.maximum(1, np.abs(s1))), (name, z)
        assert np.all(np.abs(j.fxx - s2) <= 1e-5 * np.maximum(1, np.abs(s2))), (name, z)


def test_holomorphic_derivative_on_arrays_matches_points():
    rng = np.random.default_rng(4)
    z = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
    wp = catalog_whitham(0.7)
    for fn in (wp.Hfun, wp.Gfun, lambda w: w ** 3 - 2 * w, lambda w: 0j):
        arr = holomorphic_derivative(fn, z)
        assert arr.shape == z.shape
        pts = np.array([holomorphic_derivative(fn, complex(p)) for p in z])
        assert np.max(np.abs(arr - pts)) <= 1e-14


def test_holomorphic_derivative_keeps_ft_a_structural_zero():
    wp = family.catalog_whitham(0.3)
    jets = []

    def h(w):
        jets.append(wp.Hfun(w))
        return jets[-1]
    z = np.array([0.5 + 0.2j, -1.0 + 0.7j, 2.0 - 0.1j])
    d = holomorphic_derivative(h, z)
    assert d.shape == z.shape
    assert type(jets[0].ft) is complex and jets[0].ft == 0


def test_whitham_check_builds_no_jets(monkeypatch):
    # The Whitham check integrates G and H by parts, so it calls them on
    # numbers and node arrays only.
    pair = helicoid_catenoid_pair()
    theta = 0.7
    wp = calibrate_offsets(catalog_whitham(theta), pair)
    points = [soliton_family(pair, theta, z) for z in _POINTWISE_ZETAS]
    built = []
    init = TJet.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(TJet, "__init__", recording_init)
    for p in points:
        whitham_verify(wp, p)
    assert built == []


def test_graph_residual_machinery_against_direct_residual():
    # N / det^3 must reproduce the plain Born-Infeld residual of any field,
    # solution or not: on the trivial chart xs = u, ts = v (det = 1), and on
    # x = u + 0.3 v^2, t = 0.5 u - v, where det = -1 - 0.3 v is not +-1, so a
    # wrong power of det or a wrong sign in the form would show
    flds = [
        ScalarField2(lambda a, b: 1j * a * jm.tanh(b)),        # a solution
        ScalarField2(lambda a, b: a * a * b + jm.sin(a + b)),  # not a solution
    ]
    for fld in flds:
        for (u, v) in [(0.7, 0.2), (-0.4, 1.1)]:
            ps, _ = jet(fld, u, v)
            xs = TJet.seed_a(u)
            ts = TJet.seed_b(v)
            got = graph_residual_from_jets(xs, ts, ps)
            want = equation_residual(fld, Equation.BORN_INFELD, u, v)
            assert abs(got - want) <= 1e-10
    fld = flds[1]
    for (u, v) in [(0.7, 0.2), (-0.4, 1.1)]:
        ju, jv = TJet.seed_a(u), TJet.seed_b(v)
        xs, ts = ju + 0.3 * jv * jv, 0.5 * ju - jv
        got = graph_residual_from_jets(xs, ts, fld.evaluator(xs, ts))
        want = equation_residual(fld, Equation.BORN_INFELD, xs.f.real, ts.f.real)
        assert abs(abs(xs.fx * ts.ft - xs.ft * ts.fx) - 1) > 0.05
        assert abs(got - want) <= 1e-12 * abs(want), (u, v)


def test_graph_residual_singular_jacobian():
    xs = TJet.seed_a(0.5)
    with pytest.raises(JacobianSingular):
        graph_residual_from_jets(xs, xs, xs)


def test_complex_bi_residual_wick_helicoid_and_catenoid():
    # the annulus and the band around |zeta| = 1, where det J -> 0: radii
    # within 1e-4 and 1e-6 of the circle, never on it (JacobianSingular)
    pair = helicoid_catenoid_pair()
    grid = []
    for r in (*np.linspace(0.5, 2.0, 15), 1 - 1e-4, 1 + 1e-4, 1 - 1e-6, 1 + 1e-6):
        for a in np.linspace(-0.85 * math.pi, 0.85 * math.pi, 15):
            grid.append(r * cmath.exp(1j * a))
    for theta in (0.0, math.pi / 2, 2.0, -2.5):
        rep = complex_bi_residual_on_family(pair, theta, grid)
        assert rep.max_abs <= 1e-6, theta
        assert len(rep.residuals) + rep.excluded_count == len(grid)


def _family_jets(pair, theta, zeta, dphi=0.0):
    """The jets of (xs, ts, phis) in (u, v) at zeta = u + iv, as
    complex_bi_residual_on_family builds them; dphi != 0 rotates phi alone
    by theta + dphi, which is no soliton family."""
    zj = TJet.seed_a(zeta.real) + 1j * TJet.seed_b(zeta.imag)
    x, t, f = (TJet.lift(w) for w in pair.phi_zeta(zj))
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(theta + dphi), math.sin(theta + dphi)
    return 1j * family._rotated(x, ct, st), family._rotated(t, ct, st), family._rotated(f, cp, sp)


def _chain_rule_residual(xs, ts, ps):
    """The Born-Infeld residual of phi in the graph variables (xs, ts) by the
    chain rule through B = J^-1, the inverse Jacobian of (u, v) -> (xs, ts):
    an oracle for N / det^3 where det J is not small."""
    det = xs.fx * ts.ft - xs.ft * ts.fx
    # B = J^{-1}; columns (u_x, v_x) and (u_t, v_t)
    b11, b12 = ts.ft / det, -xs.ft / det
    b21, b22 = -ts.fx / det, xs.fx / det

    # dB/du = -B (dJ/du) B, dB/dv = -B (dJ/dv) B
    def dB(j11, j12, j21, j22):
        m11 = b11 * j11 + b12 * j21
        m12 = b11 * j12 + b12 * j22
        m21 = b21 * j11 + b22 * j21
        m22 = b21 * j12 + b22 * j22
        return (-(m11 * b11 + m12 * b21), -(m11 * b12 + m12 * b22),
                -(m21 * b11 + m22 * b21), -(m21 * b12 + m22 * b22))

    du11, du12, du21, du22 = dB(xs.fxx, xs.fxt, ts.fxx, ts.fxt)
    dv11, dv12, dv21, dv22 = dB(xs.fxt, xs.ftt, ts.fxt, ts.ftt)
    px = ps.fx * b11 + ps.ft * b21
    pt = ps.fx * b12 + ps.ft * b22
    px_u = ps.fxx * b11 + ps.fxt * b21 + ps.fx * du11 + ps.ft * du21
    px_v = ps.fxt * b11 + ps.ftt * b21 + ps.fx * dv11 + ps.ft * dv21
    pt_u = ps.fxx * b12 + ps.fxt * b22 + ps.fx * du12 + ps.ft * du22
    pt_v = ps.fxt * b12 + ps.ftt * b22 + ps.fx * dv12 + ps.ft * dv22
    pxx = px_u * b11 + px_v * b21
    pxt = px_u * b12 + px_v * b22
    ptt = pt_u * b12 + pt_v * b22
    return _residual_from_jet(TJet(ps.f, px, pt, pxx, pxt, ptt), Equation.BORN_INFELD)


def _samples(n, seed, r_lo, r_hi):
    rng = np.random.default_rng(seed)
    return [(float(th), complex(r * cmath.exp(1j * a))) for th, r, a in
            zip(rng.uniform(-3, 3, n), rng.uniform(r_lo, r_hi, n),
                rng.uniform(-0.85 * math.pi, 0.85 * math.pi, n))]


def test_wrong_family_fails_everywhere_the_band_included():
    # phi rotated by theta + 0.1, x and t by theta: |R| > 1e-6 at every
    # sample of the annulus and of the band 0.95 < |zeta| < 1.05
    pair = helicoid_catenoid_pair()
    for r_lo, r_hi in ((0.5, 2.0), (0.95, 1.05)):
        for theta, zeta in _samples(300, 31, r_lo, r_hi):
            r = graph_residual_from_jets(*_family_jets(pair, theta, zeta, dphi=0.1))
            assert abs(r) > 1e-6, (theta, zeta)


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(-3.0, 3.0),
       log_d=st.floats(math.log(1e-6), math.log(0.05)),
       side=st.sampled_from((-1.0, 1.0)),
       arg=st.floats(-0.85 * math.pi, 0.85 * math.pi))
def test_band_solves_born_infeld_and_the_wrong_family_fails_there(theta, log_d, side, arg):
    # |zeta| = 1 +- d with d log-uniform in [1e-6, 0.05], where det J -> 0;
    # points nearer the circle wait for a verdict on N itself
    zeta = (1.0 + side * math.exp(log_d)) * cmath.exp(1j * arg)
    pair = helicoid_catenoid_pair()
    rep = complex_bi_residual_on_family(pair, theta, [zeta])
    assert rep.excluded_count == 0 and rep.max_abs <= 1e-6
    assert abs(graph_residual_from_jets(*_family_jets(pair, theta, zeta, dphi=0.1))) > 1e-6


# Unit roundoff of binary64.
_U = 2.0 ** -53


def _gamma(n):
    """gamma_n = n u / (1 - n u), the bound on |theta_n| of Lemma 3.1 in
    Higham, Accuracy and Stability of Numerical Algorithms (2nd ed., 2002)."""
    return n * _U / (1 - n * _U)


# jet coefficients: zero, or 1e-20 <= |c| <= 1e3, so no product underflows
_COEF = st.sampled_from((0.0,)) | st.floats(1e-20, 1e3) | st.floats(-1e3, -1e-20)


@settings(max_examples=300, deadline=None)
@given(st.lists(_COEF, min_size=10, max_size=10), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_graph_chart_residual_is_the_pde_residual_up_to_summation_order(c, a, b):
    # On X = (a, b, phi), det J = 1, n0 = -p and n1 = -q exactly, so N sums
    # the three products of pde._residual_from_jet, A = (q^2 - 1) r,
    # B = 2 (p q) s = ((2 p) q) s and C = (1 + p^2) t, bit for bit the same,
    # as (A - B) + C where the residual sums (C - B) + A.  Recursive summation
    # of three terms is within gamma_2 (|A| + |B| + |C|) of their exact sum
    # (Higham, (4.4)) in each of the real and imaginary parts, which complex
    # addition sums apart; so the two differ by at most twice that.
    p, q, r, s, t = (complex(x, y) for x, y in zip(c[::2], c[1::2]))
    phi = TJet(0j, p, q, r, s, t)
    got = graph_residual_from_jets(TJet.seed_a(a), TJet.seed_b(b), phi)
    want = _residual_from_jet(phi, Equation.BORN_INFELD)
    terms = ((q * q - 1) * r, 2 * (p * q) * s, (1 + p * p) * t)
    for part in (lambda z: z.real, lambda z: z.imag):
        bound = 2 * _gamma(2) * sum(abs(part(x)) for x in terms)
        assert abs(part(got) - part(want)) <= bound


def test_graph_residual_agrees_with_the_chain_rule_off_the_band():
    pair = helicoid_catenoid_pair()
    checked = 0
    for theta, zeta in _samples(2000, 32, 0.5, 2.0):
        if 0.95 < abs(zeta) < 1.05:
            continue
        jets = _family_jets(pair, theta, zeta, dphi=0.1)
        got, want = graph_residual_from_jets(*jets), _chain_rule_residual(*jets)
        assert abs(got - want) <= 1e-10 * abs(got), (theta, zeta)
        checked += 1
    assert checked > 1500


# sha256 of the residual bytes of complex_bi_residual_on_family over THETAS,
# recorded for R = N / det^3; the same at numpy's baseline SIMD level, since
# the residual runs on scalar jets.  The zeta points stay off the band
# 0.95 < |zeta| < 1.05 around the unit circle.
_FAMILY_DIGEST = "bebddac7b185c6a04c5b570fd453a1ad958ee7e062b58801c60d0e3d049dcad3"


def test_complex_bi_residual_is_bit_identical_to_the_recorded_digest():
    pair = helicoid_catenoid_pair()
    zetas = [r * cmath.exp(1j * a) for r in (0.5, 0.7, 0.9, 1.1, 1.4, 2.0)
             for a in (-2.6, -1.3, -0.4, 0.3, 1.2, 2.5)]
    h = hashlib.sha256()
    for theta in THETAS:
        rep = complex_bi_residual_on_family(pair, theta, zetas)
        assert rep.excluded_count == 0 and np.isfinite(rep.residuals).all()
        h.update(rep.residuals.tobytes())
    assert h.hexdigest() == _FAMILY_DIGEST


# sha256 of the float.hex values of isothermal_check, conjugacy_check and
# whitham_verify at every theta in THETAS and four zeta points off the band
# around |zeta| = 1: it pins the scalar-jet rounding and the quadrature
# subdivision of the pointwise checks.
_POINTWISE_ZETAS = (0.6 * cmath.exp(0.4j), 1.3 * cmath.exp(-2.1j),
                    1.8 * cmath.exp(1.7j), 0.8 * cmath.exp(-0.9j))
# Keyed by numpy's active dispatch targets (conftest.py).
_POINTWISE_DIGEST = {
    "X86_V3 X86_V4 AVX512_ICL AVX512_SPR":
        "20711d78553e53746f6478523357473fa11e653d55217bf008967a279fd6ed91",
    "X86_V3": "20711d78553e53746f6478523357473fa11e653d55217bf008967a279fd6ed91",
    "none": "12247be289d06ccb1c26d6edbaec60820ebd46c646f2e6ac89345cec9ae57237",
}


def _pointwise_values():
    """The seven check values at each theta and zeta, one row each."""
    pair = helicoid_catenoid_pair()
    rows = []
    for theta in THETAS:
        surf = associate_family(pair, theta)
        wp = calibrate_offsets(catalog_whitham(theta), pair)
        for z in _POINTWISE_ZETAS:
            rows.append([float(v) for v in (*isothermal_check(surf, z), conjugacy_check(pair, z),
                                            *whitham_verify(wp, soliton_family(pair, theta, z)))])
    return rows


def test_pointwise_checks_are_bit_identical_to_the_recorded_digest(recorded_digest):
    rows = _pointwise_values()
    h = hashlib.sha256()
    for row in rows:
        h.update(" ".join(v.hex() for v in row).encode() + b"\n")
    recorded_digest(_POINTWISE_DIGEST, h.hexdigest(), [v for row in rows for v in row],
                    "pointwise")


def test_whitham_integrals_off_the_band_take_one_gk21_round(monkeypatch):
    # from four subintervals per segment, whitham_verify's one integral (the
    # H moments and the mirrored G moments) at each pointwise point is
    # accepted in its first round
    pair = helicoid_catenoid_pair()
    points = [(calibrate_offsets(catalog_whitham(theta), pair), soliton_family(pair, theta, z))
              for theta in THETAS for z in _POINTWISE_ZETAS]
    integrate, rounds = family.integrate_segments, []

    def counted(fvec, path):
        n = len(rounds)
        rounds.append(0)

        def f(w):
            rounds[n] += 1
            return fvec(w)
        return integrate(f, path)

    monkeypatch.setattr(family, "integrate_segments", counted)
    for wp, point in points:
        whitham_verify(wp, point)
    assert rounds == [1] * len(points)


def _two_path_whitham_verify(wp, point):
    """``whitham_verify`` as two integrals, each by parts: the H moments
    (w H, H) along the path from the base point b to zeta, the G moments
    along a path built from the conjugates of b, of zeta and of the poles."""
    z, b = complex(point.zeta), complex(wp.base)
    zb, bb = z.conjugate(), b.conjugate()
    path_h = build_path(b, z, wp.pole_set)
    path_g = build_path(bb, zb, [complex(p).conjugate() for p in wp.pole_set])

    def moments(fn):
        def fvec(w):
            f = fn(w)
            return w * f, f
        return fvec

    p1, p3h = integrate_segments(moments(wp.Hfun), path_h)
    p2, p3g = integrate_segments(moments(wp.Gfun), path_g)
    gz, hz = complex(wp.Gfun(zb)), complex(wp.Hfun(z))
    gb, hb = complex(wp.Gfun(bb)), complex(wp.Hfun(b))
    q1 = z * z * hz - b * b * hb - 2 * p1
    q2 = zb * zb * gz - bb * bb * gb - 2 * p2
    q3 = (z * hz - b * hb - p3h) - (zb * gz - bb * gb - p3g)
    c1, c2, c3 = wp.offsets
    d1 = abs((point.xs - point.ts) - (gz - q1) - c1)
    d2 = abs((point.xs + point.ts) - (hz - q2) - c2)
    d3 = abs(point.phis - q3 - c3)
    return d1, d2, d3


@pytest.mark.parametrize("r_lo, r_hi", [(0.5, 2.0), (0.02, 0.4), (3.0, 30.0)])
def test_mirrored_g_integral_is_the_two_path_oracle_bit_for_bit(r_lo, r_hi):
    # on straight paths the mirror image of the H path is the G path, node
    # for node, so the defects keep their bits
    pair = helicoid_catenoid_pair()
    for theta, zeta in _samples(110, 30, r_lo, r_hi):
        wp = calibrate_offsets(catalog_whitham(theta), pair)
        point = soliton_family(pair, theta, zeta)
        assert len(build_path(wp.base, zeta, wp.pole_set)) == 2
        assert ([d.hex() for d in whitham_verify(wp, point)]
                == [d.hex() for d in _two_path_whitham_verify(wp, point)]), (theta, zeta)


def _derivative_moment_whitham_verify(wp, point):
    """``whitham_verify`` with the derivative moments, in one integral on the
    same path: (w^2 H'(w), w H'(w)) and, conjugated, (wb^2 G'(wb), wb G'(wb))
    at wb = conj(w), with H' and G' from jets.  Returns the defects
    and the four integrals."""
    z = complex(point.zeta)

    def moments(w):
        dh = holomorphic_derivative(wp.Hfun, w)
        wb = w.conjugate()
        dg = holomorphic_derivative(wp.Gfun, wb)
        return w * w * dh, w * dh, (wb * wb * dg).conjugate(), (wb * dg).conjugate()

    q = integrate_segments(moments, build_path(complex(wp.base), z, wp.pole_set))
    q1, q3h, q2b, q3gb = q
    c1, c2, c3 = wp.offsets
    d1 = abs((point.xs - point.ts) - (complex(wp.Gfun(z.conjugate())) - q1) - c1)
    d2 = abs((point.xs + point.ts) - (complex(wp.Hfun(z)) - q2b.conjugate()) - c2)
    d3 = abs(point.phis - (q3h - q3gb.conjugate()) - c3)
    return (d1, d2, d3), q


def _by_parts_bound(wp, point, q):
    """How far the by-parts defects may lie from the derivative-moment ones,
    whose integrals are ``q``.

    Each defect reads at most two components of an integral vector, and an
    accepted GK21 integral is within its tolerance max(_EPSABS, _EPSREL |I|)
    of the exact one in every component, the 2-norm |I| over the vector
    (``integrate_segments``).  The by-parts vector is the derivative-moment
    one less the boundary terms z^2 H(z), b^2 H(b), z H(z), b H(b) and their
    G mirrors (and halved), so S, the sum of the magnitudes of q, of those
    terms and of the point values and offsets, bounds both norms: two
    tolerances on each side, 4 max(_EPSABS, _EPSREL S).  The rounding of
    each form (two complex products per boundary term, sqrt(2) gamma_2 each
    in Higham's Lemma 3.5, and at most six sums, u each) is within
    gamma_12 S.  Assumes, as the quadrature does, that the Kronrod-Gauss
    difference bounds the error and that the integrands do not cancel, so
    the rounding of a GK21 sum lies far below _EPSREL |I|."""
    z, b = complex(point.zeta), complex(wp.base)
    hz, hb = abs(complex(wp.Hfun(z))), abs(complex(wp.Hfun(b)))
    gz, gb = (abs(complex(wp.Gfun(w.conjugate()))) for w in (z, b))
    boundary = (abs(z) ** 2 + abs(z)) * (hz + gz) + (abs(b) ** 2 + abs(b)) * (hb + gb)
    values = abs(point.xs) + abs(point.ts) + abs(point.phis) + sum(map(abs, wp.offsets))
    size = float(np.abs(q).sum()) + boundary + values + hz + gz
    return 4 * max(_EPSABS, _EPSREL * size) + _gamma(12) * size


def _assert_by_parts_is_the_derivative_form(wp, point):
    got = whitham_verify(wp, point)
    want, q = _derivative_moment_whitham_verify(wp, point)
    bound = _by_parts_bound(wp, point, q)
    assert all(abs(g - w) <= bound for g, w in zip(got, want)), (point.zeta, got, want, bound)
    return got


# just off the negative real axis, where the straight path from the base
# point 1 passes the pole 0 within the margin
_DETOUR_ZETAS = [complex(x, s * y) for x in (-0.5, -2.0, -5.0) for y in (0.012, 0.02)
                 for s in (1, -1)]


@pytest.mark.parametrize("theta", THETAS + (2.0, 3.5, -2.5))
def test_by_parts_is_the_derivative_moment_form_on_the_catalog_pair(theta):
    # the annulus, radii from 0.02 to 30, and detours round the pole 0
    pair = helicoid_catenoid_pair()
    wp = calibrate_offsets(catalog_whitham(theta), pair)
    zetas = _annulus(12, seed=40) + [r * cmath.exp(1j * a) for r in (0.02, 0.1, 3.0, 30.0)
                                     for a in (-2.5, -0.7, 0.4, 2.2)]
    for zeta in zetas + _DETOUR_ZETAS:
        _assert_by_parts_is_the_derivative_form(wp, soliton_family(pair, theta, zeta))
    assert any(len(build_path(wp.base, z, wp.pole_set)) == 3 for z in _DETOUR_ZETAS)


def _power_pair(alpha: complex, beta: complex) -> WhithamPair:
    """H(z) = alpha z^2 + beta / z and G(xi) = -conj(H(conj xi)): admissible,
    and w H(w) = alpha w^3 + beta is not constant, so every boundary term
    counts."""
    ab, bb = alpha.conjugate(), beta.conjugate()
    return WhithamPair(lambda xi: -ab * xi * xi - bb / xi,
                       lambda z: alpha * z * z + beta / z, theta=0.0)


def _power_pair_point(alpha, beta, z):
    """The point whose exact Whitham defects, zero offsets and base 1, are
    zero for ``_power_pair(alpha, beta)``: the integrals in closed form, on a
    straight path, where the principal log continues."""
    ab, bb = alpha.conjugate(), beta.conjugate()
    zb = z.conjugate()
    h = alpha * z * z + beta / z
    g = -ab * zb * zb - bb / zb
    i_h2 = alpha * (z ** 4 - 1) / 2 - beta * (z - 1)            # Int w^2 H'
    i_g2 = -ab * (zb ** 4 - 1) / 2 + bb * (zb - 1)              # Int xi^2 G'
    i_h1 = 2 * alpha * (z ** 3 - 1) / 3 - beta * cmath.log(z)   # Int w H'
    i_g1 = -2 * ab * (zb ** 3 - 1) / 3 + bb * cmath.log(zb)     # Int xi G'
    minus, plus = g - i_h2, h - i_g2
    return SolitonFamilyPoint(0.0, z, (plus + minus) / 2, (plus - minus) / 2, i_h1 - i_g1)


def test_by_parts_is_the_derivative_moment_form_on_a_power_pair():
    alpha, beta = 0.3 - 0.7j, -0.4 + 0.9j
    wp = _power_pair(alpha, beta)
    for z in (0.7 + 0.4j, -1.1 + 0.6j, 2.5 - 1.5j):
        assert whitham_constraint_defect(wp, z) <= 1e-15
    zetas = _annulus(12, seed=41) + [r * cmath.exp(1j * a) for r in (0.02, 0.1, 3.0, 30.0)
                                     for a in (-2.5, -0.7, 0.4, 2.2)]
    for zeta in zetas:
        point = _power_pair_point(alpha, beta, zeta)
        assert len(build_path(wp.base, zeta, wp.pole_set)) == 2
        got = _assert_by_parts_is_the_derivative_form(wp, point)
        _, q = _derivative_moment_whitham_verify(wp, point)
        bound = _by_parts_bound(wp, point, q)
        assert max(got) <= bound, zeta
        # each pair of boundary terms is far above the bound, so a wrong
        # one shows; on the catalog pair w H(w) is constant and z H(z) -
        # b H(b) vanishes
        zb = zeta.conjugate()
        for k in (1, 2):
            assert abs(zeta ** k * wp.Hfun(zeta) - wp.Hfun(1.0)) > 1e3 * bound, zeta
            assert abs(zb ** k * wp.Gfun(zb) - wp.Gfun(1.0)) > 1e3 * bound, zeta
    for zeta in _DETOUR_ZETAS:
        _assert_by_parts_is_the_derivative_form(wp, SolitonFamilyPoint(0.0, zeta, 0j, 0j, 0j))


def _scaled(wp, name):
    fn = getattr(wp, name)
    return replace(wp, **{name: lambda w: 1.01 * fn(w)})


@pytest.mark.parametrize("mutant, integral_only", [
    (lambda theta: _scaled(catalog_whitham(theta), "Gfun"), 1),
    (lambda theta: _scaled(catalog_whitham(theta), "Hfun"), 0),
    (lambda theta: replace(catalog_whitham(theta + 0.1), theta=theta), None),
], ids=["G*1.01", "H*1.01", "theta+0.1"])
def test_whitham_mutants_fail_at_every_pointwise_point(mutant, integral_only):
    # each mutant, calibrated against the theta family, misses at every
    # point.  d2 reads G, and d1 reads H, only through its integral (the
    # calibration absorbs the constants), so a scaled G fails d2 only if the
    # mirrored integral reads G, and a scaled H fails d1 only if the other
    # integral reads H.
    pair = helicoid_catenoid_pair()
    for theta in THETAS:
        wp = calibrate_offsets(mutant(theta), pair)
        for z in _POINTWISE_ZETAS:
            d = whitham_verify(wp, soliton_family(pair, theta, z))
            assert max(d) > 1e-8, (theta, z)
            if integral_only is not None:
                assert d[integral_only] > 1e-8, (theta, z)


@pytest.mark.parametrize("theta", [0.0, 1.2])
@pytest.mark.parametrize("zeta", [-0.5 + 0.012j, -0.5 - 0.012j, -5 + 0.02j, -5 - 0.02j])
def test_whitham_verify_on_a_detour(theta, zeta):
    # the straight path passes the pole 0 within the margin, so the H path
    # detours below 0 and the G integral runs on its mirror image.  That
    # continues the principal log of phi_zeta below the negative real axis;
    # above it d3 reads the log's winding, 2 pi |cos theta|.
    pair = helicoid_catenoid_pair()
    wp = calibrate_offsets(catalog_whitham(theta), pair)
    path = build_path(wp.base, zeta, wp.pole_set)
    assert len(path) == 3 and path[1].imag < 0
    d1, d2, d3 = whitham_verify(wp, soliton_family(pair, theta, zeta))
    assert d1 <= 1e-14 and d2 <= 1e-14
    if zeta.imag < 0:
        assert d3 <= 1e-14
    else:
        assert d3 == pytest.approx(2 * math.pi * abs(math.cos(theta)), rel=1e-12)


def _affine_pair(alpha: complex, beta: complex) -> ConjugatePair:
    """Pair generated by the affine holomorphic datum F(tau) = alpha+beta tau:
    Phi = (F + beta tau^3 / 3, i (F - beta tau^3 / 3), beta tau^2), polynomial,
    so phi_zeta is phi(i zeta) itself."""
    def phi(t):
        F, c = alpha + beta * t, beta * t ** 3 / 3
        return F + c, 1j * (F - c), beta * t * t

    return ConjugatePair("affine", phi, lambda z: phi(1j * z))


def test_affine_pair_is_conjugate_and_solves_born_infeld():
    alpha, beta = 0.3 - 0.2j, 0.8 + 0.5j
    pair = _affine_pair(alpha, beta)
    for z in (1 + 0.5j, -0.4 + 1.2j, 0.9 - 0.8j):
        assert conjugacy_check(pair, z) <= 1e-12
    # the affine family's graph Jacobian vanishes exactly on |zeta| = 1,
    # so sample strictly outside the unit circle
    grid = [complex(u, v) for u in np.linspace(1.1, 2.0, 7)
            for v in np.linspace(0.3, 1.2, 7)]
    rep = complex_bi_residual_on_family(pair, math.pi / 6, grid)
    assert rep.max_abs <= 1e-10
    with pytest.raises(JacobianSingular):
        complex_bi_residual_on_family(pair, math.pi / 6, [0.6 + 0.8j])


def test_affine_pair_whitham_form():
    # G_j, H_j derived from F: H_1 = i alpha - beta z, G_1 = i conj(alpha) + conj(beta) xb,
    # H_2 = alpha + i beta z, G_2 = -conj(alpha) + i conj(beta) xb
    alpha, beta = 0.3 - 0.2j, 0.8 + 0.5j
    ab, bb = alpha.conjugate(), beta.conjugate()
    pair = _affine_pair(alpha, beta)
    theta = math.pi / 5
    ct, st = math.cos(theta), math.sin(theta)
    G = lambda xb: (1j * ab + bb * xb) * ct + (-ab + 1j * bb * xb) * st
    H = lambda z: (1j * alpha - beta * z) * ct + (alpha + 1j * beta * z) * st
    wp = WhithamPair(G, H, theta, pole_set=())
    for z in (0.7 + 0.4j, -1.1 + 0.6j):
        assert whitham_constraint_defect(wp, z) <= 1e-12
    wp = calibrate_offsets(wp, pair)
    for z in (0.7 + 0.4j, 1.4 - 0.2j, -0.5 + 1.0j):
        p = soliton_family(pair, theta, z)
        assert max(whitham_verify(wp, p)) <= 1e-8


def test_data_rotation_matches_associate_family():
    # rotating the helicoid's Weierstrass datum by e^{-i theta} integrates to
    # the associate family of the conjugate pair, here up to the datum's
    # z -> -z isometry and with constants matched at the base point; at
    # theta = 0 and pi/2 it checks X1 = Re Phi and X2 = Im Phi on their own
    # against quadrature of the datum
    from solitonlab.weierstrass import we_catalog, we_data_rotation, we_integrate

    pair = helicoid_catenoid_pair()
    datum = we_catalog("lorentzian_helicoid")
    for theta in (0.0, math.pi / 6, math.pi / 3, math.pi / 2):
        surf = associate_family(pair, theta)
        rot = we_data_rotation(datum, theta)
        for z in (1.4 + 0.3j, 0.8 + 0.7j, 1.1 - 0.6j):
            got = we_integrate(rot, z)
            want = surf.eval(z)
            assert abs(got.x - want.x) <= 1e-6
            assert abs(got.y - want.y) <= 1e-6
            assert abs(got.z + want.z) <= 1e-6


def test_phi_zeta_is_phi_of_i_zeta_less_the_log_constant():
    # phi(1j * zeta) adds -i log(i) = pi/2 to the third component where
    # arg zeta <= pi/2 (beyond, log(i zeta) wraps); phi_zeta drops it and
    # keeps the cut of log on the negative real zeta axis
    pair = helicoid_catenoid_pair()
    for z in (1.2 + 0.4j, 0.8 + 0.9j, 1.5 - 0.3j, -0.7 - 1.1j, 1j):
        a, b = pair.phi(1j * z), pair.phi_zeta(z)
        assert abs(complex(a[0]) - complex(b[0])) <= 1e-14
        assert abs(complex(a[1]) - complex(b[1])) <= 1e-14
        assert abs(complex(a[2]) - complex(b[2]) - math.pi / 2) <= 1e-14


# Coefficients with signed zeros, negative and infinite parts and NaN: every
# (real, imag) pair of these values, 49 in all, and five more to fill the
# last of nine jets of six.
_EDGE_PARTS = (0.0, -0.0, -1.5, 2.25, math.inf, -math.inf, math.nan)
_EDGE_COEFS = [complex(a, b) for a in _EDGE_PARTS for b in _EDGE_PARTS]
_EDGE_COEFS += _EDGE_COEFS[:5]
_COEFS = ("f", "fx", "ft", "fxx", "fxt", "ftt")


@pytest.mark.parametrize("theta", [0.0, -0.0, 0.7, math.pi / 2, 2.0, math.pi, 3.5, 5.0,
                                   -0.3, -2.5])
def test_rotated_jet_has_the_real_parts_of_the_five_jet_form(theta):
    # the oracle is the five-jet form ct * re(w) + st * im(w): the one-jet
    # rotation keeps its real parts bit for bit and makes every imaginary
    # part +0.0; the scalar branch and _map agree point by point
    ct, st = math.cos(theta), math.sin(theta)
    scalars = [TJet(*_EDGE_COEFS[i:i + 6]) for i in range(0, len(_EDGE_COEFS), 6)]
    stacked = TJet(*(np.array([getattr(w, c) for w in scalars]) for c in _COEFS))
    with np.errstate(all="ignore"):
        cases = [(w, family._rotated(w, ct, st), ct * jm.re(w) + st * jm.im(w))
                 for w in scalars + [stacked]]
    for w, got, oracle in cases:
        for c in _COEFS:
            a, b = getattr(got, c), getattr(oracle, c)
            if isinstance(w.f, np.ndarray):
                assert a.dtype == np.complex128 and a.shape == w.f.shape
            else:
                assert type(a) is complex
            assert [float(x).hex() for x in np.ravel(a.real)] == \
                   [float(x).hex() for x in np.ravel(b.real)], (c, w)
            assert all(float(x).hex() == "0x0.0p+0" for x in np.ravel(a.imag)), (c, w)
    # the array jet goes through _map; each of its points is the scalar
    # branch's rotation of that point's jet
    rotated = cases[-1][1]
    for k, w in enumerate(scalars):
        point = family._rotated(w, ct, st)
        for c in _COEFS:
            x, y = getattr(rotated, c)[k], getattr(point, c)
            assert (float(x.real).hex(), float(x.imag).hex()) == \
                   (y.real.hex(), y.imag.hex()), (c, k)


def test_rotated_number_is_the_five_jet_form():
    # numbers keep ct * re(w) + st * im(w), a float
    for theta in (0.0, 2.0, -2.5):
        ct, st = math.cos(theta), math.sin(theta)
        for z in _EDGE_COEFS:
            got = family._rotated(z, ct, st)
            want = ct * jm.re(z) + st * jm.im(z)
            assert type(got) is float and got.hex() == want.hex()
