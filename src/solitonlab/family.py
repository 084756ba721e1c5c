"""Conjugate maximal surfaces, the associate family, the one-parameter family
of complex Born-Infeld solitons derived from it, and verification of the
Whitham general-solution form.

A conjugate pair is stored as its holomorphic map Phi = X1 + i X2: X1 = Re Phi
and X2 = Im Phi, taken coefficient by coefficient (``jetmath.re``,
``jetmath.im``), which is valid on jets because the jet variables are real.
The soliton family and the Whitham data G, H live in the isothermal
coordinate zeta = tau / i, where the pair gives Phi as a second map.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from . import jetmath as jm
from .errors import DomainError, JacobianSingular
from .jetmath import TJet
from .pde import ResidualReport, summarize, worst
from .quadrature import build_path, integrate_segments
from .weierstrass import SurfaceMap, lorentzian_helicoid_exclusions


@dataclass(frozen=True)
class ConjugatePair:
    """Conjugate isothermal maximal surfaces X1 = Re Phi and X2 = Im Phi, held
    as the holomorphic map Phi.

    ``phi(tau)`` returns the three components of Phi; ``phi_zeta(zeta)`` is
    the same map in zeta = tau / i, normalized for the soliton family.  It may
    differ from ``phi(1j * zeta)`` by a constant, and it must keep any cut of
    a logarithm off the family's annulus.  Both take numbers or jets.
    ``exclusions`` is the domain predicate of both coordinates, taking a
    number or a complex array as ``SurfaceMap`` describes."""

    name: str
    phi: Callable
    phi_zeta: Callable
    exclusions: Optional[Callable] = None

    def excluded(self, z: complex) -> bool:
        return self.exclusions is not None and bool(self.exclusions(z))


def helicoid_catenoid_pair() -> ConjugatePair:
    """The Lorentzian helicoid X1 and the Lorentzian catenoid X2, conjugate
    through Phi(tau) = (-(i/2)(tau - 1/tau), -(1/2)(tau + 1/tau), -i log tau).

    In zeta, Phi = ((zeta + 1/zeta)/2, -(i/2)(zeta - 1/zeta), -i log zeta):
    ``phi(1j * zeta)`` less the constant pi/2 that log(i) adds to the third
    component, with the cut of log on the negative real zeta axis, where
    ``phi(1j * zeta)`` would put it on the positive imaginary one.
    """
    # Each reciprocal is taken once and shared by the sum and the difference.
    def phi(tau):
        r = 1 / tau
        return -0.5j * (tau - r), -0.5 * (tau + r), -1j * jm.log(tau)

    def phi_zeta(zeta):
        r = 1 / zeta
        return 0.5 * (zeta + r), -0.5j * (zeta - r), -1j * jm.log(zeta)

    return ConjugatePair("helicoid_catenoid", phi, phi_zeta, lorentzian_helicoid_exclusions)


def _rotated(w, ct: float, st: float):
    """cos(theta) Re w + sin(theta) Im w for a component w of Phi: the
    associate-family combination cos(theta) X1 + sin(theta) X2.

    A jet is rotated coefficient by coefficient into one jet, as
    ``complex(ct * c.real + st * c.imag)``: a second-order jet of Python
    ``complex`` coefficients directly, any other through ``_map``, with the
    same bits.  Numbers keep ``ct * re(w) + st * im(w)``.  On a jet, that
    form builds five jets; for a coefficient a + ib its real part is
    (a ct - 0 0) + (b st - 0 0), the same float as here.  Its imaginary parts
    could be -0.0 where cos and sin are both negative, and NaN beside an
    infinite coefficient; here they are +0.0.  Only those zero signs moved:
    on the helicoid/catenoid family at theta = 3.5 and -2.5, in the jets of
    the family and of the associate surface, and in one of 192 sampled
    Born-Infeld residuals (8 theta, 24 zeta)."""
    if not isinstance(w, TJet):
        return ct * jm.re(w) + st * jm.im(w)
    f, fx, ft, fxx, fxt, ftt = w.f, w.fx, w.ft, w.fxx, w.fxt, w.ftt
    if type(f) is type(fx) is type(ft) is type(fxx) is type(fxt) is type(ftt) is complex:
        return TJet(complex(ct * f.real + st * f.imag), complex(ct * fx.real + st * fx.imag),
                    complex(ct * ft.real + st * ft.imag), complex(ct * fxx.real + st * fxx.imag),
                    complex(ct * fxt.real + st * fxt.imag), complex(ct * ftt.real + st * ftt.imag))
    return w._map(lambda c: TJet.coef(ct * c.real + st * c.imag))


# -- associate family and conjugacy ----------------------------------------

def associate_family(pair: ConjugatePair, theta: float) -> SurfaceMap:
    """cos(theta) X1 + sin(theta) X2, an isothermal maximal immersion for
    every real theta."""
    ct, st = math.cos(theta), math.sin(theta)

    def components(u, v):
        return tuple(_rotated(w, ct, st) for w in pair.phi(u + 1j * v))

    return SurfaceMap(components, pair.exclusions)


def conjugacy_check(pair: ConjugatePair, zeta: complex) -> float:
    """Max over the three components of the Cauchy-Riemann defect of Phi at
    tau = zeta = u + iv, a point of the pair's tau domain:
    |(d/du + i d/dv) Phi| / 2, zero where Phi = X1 + i X2 is holomorphic, and
    inf where one is NaN (``pde.worst``).  The derivatives come from order-1
    jets in (u, v), exact up to roundoff."""
    zeta = complex(zeta)
    if pair.excluded(zeta):
        raise DomainError(f"{zeta} is outside the pair's common domain")
    ju = TJet(complex(zeta.real), 1.0 + 0j, 0j, None, None, None)
    jv = TJet(complex(zeta.imag), 0j, 1.0 + 0j, None, None, None)
    return worst([0.5 * abs(w.fx + 1j * w.ft)
                  for w in map(TJet.lift, pair.phi(ju + 1j * jv))])


# -- soliton family ----------------------------------------------------------

@dataclass(frozen=True)
class SolitonFamilyPoint:
    theta: float
    zeta: complex
    xs: complex
    ts: complex
    phis: complex


def soliton_family(pair: ConjugatePair, theta: float, zeta: complex) -> SolitonFamilyPoint:
    """The complex soliton X_theta^s = (i(x1 c + x2 s), t1 c + t2 s, f1 c + f2 s)
    evaluated in the zeta coordinates (c = cos theta, s = sin theta), where
    (x1, t1, f1) = Re Phi and (x2, t2, f2) = Im Phi of ``pair.phi_zeta``."""
    zeta = complex(zeta)
    if pair.excluded(zeta):
        raise DomainError(f"{zeta} is outside the family's zeta domain")
    ct, st = math.cos(theta), math.sin(theta)
    xs, ts, phis = (_rotated(complex(w), ct, st) for w in pair.phi_zeta(zeta))
    return SolitonFamilyPoint(theta, zeta, xs=1j * xs, ts=complex(ts), phis=complex(phis))


# -- Whitham form ------------------------------------------------------------

@dataclass(frozen=True)
class WhithamPair:
    """Data (G, H) of the general Born-Infeld solution, constrained by
    conj(G(conj zeta)) = -H(zeta).  G and H take numbers and complex
    arrays, entry by entry, and are never called with jets."""

    Gfun: Callable
    Hfun: Callable
    theta: float
    base: complex = 1.0 + 0j
    pole_set: tuple = (0j,)
    offsets: tuple = (0j, 0j, 0j)


def catalog_whitham(theta: float) -> WhithamPair:
    """G(xb) = (i/(2 xb)) e^{i theta}, H(z) = (i/(2 z)) e^{-i theta}: the data
    of the helicoid/catenoid soliton family."""
    gp = 0.5j * cmath.exp(1j * theta)
    hp = 0.5j * cmath.exp(-1j * theta)
    return WhithamPair(lambda xb: gp / xb, lambda z: hp / z, theta)


def whitham_constraint_defect(wp: WhithamPair, zeta: complex) -> float:
    """|conj(G(conj zeta)) + H(zeta)|; zero characterizes admissible data."""
    g = complex(wp.Gfun(complex(zeta).conjugate()))
    h = complex(wp.Hfun(complex(zeta)))
    return abs(g.conjugate() + h)


def calibrate_offsets(wp: WhithamPair, pair: ConjugatePair) -> WhithamPair:
    """Solve the three integration constants at the base point so the family
    and the (G, H) integral form coincide there."""
    p0 = soliton_family(pair, wp.theta, wp.base)
    c1 = (p0.xs - p0.ts) - complex(wp.Gfun(complex(wp.base).conjugate()))
    c2 = (p0.xs + p0.ts) - complex(wp.Hfun(complex(wp.base)))
    c3 = p0.phis
    return replace(wp, offsets=(c1, c2, c3))


def whitham_verify(wp: WhithamPair, point: SolitonFamilyPoint):
    """Defects (d1, d2, d3) of the three Whitham equations at the point:

        d1 = |xs - ts - (G(zb) - Int z^2 H' dz)       - c1|
        d2 = |xs + ts - (H(z)  - Int zb^2 G' dzb)     - c2|
        d3 = |phis    - (Int z H' dz + Int zb (-G') dzb) - c3|

    The c_j are the calibrated offsets.  The z integrals run from the base
    point b along ``build_path``, the zb integrals along its mirror image, as
    Int_conj(path) f(w) dw = conj(Int_path conj(f(conj u)) du), in one
    ``integrate_segments`` call.  Each is integrated by parts,

        Int w^2 H' dw = z^2 H(z) - b^2 H(b) - 2 Int w H dw
        Int w H' dw   = z H(z)   - b H(b)   - Int H dw

    and the same for G from conj(b) to zb, so the integrand is
    (w H, H, w conj G(wb), conj G(wb)) at wb = conj(w), the conjugates of
    the G moments: plain calls of G and H on the nodes.  A straight path's mirror image is the
    ``build_path`` from conj(base) to zb, with nodes that are the exact
    conjugates of the path's, so each G value and sum is that path's, bit
    for bit; for admissible data, conj G(conj w) = -H(w) leaves the
    subdivision to H.  A detour (near the negative real axis, for the pole
    0) is mirrored too, so both integrals wind the same way round the pole:
    d3 reads round-off below the axis, where that continues the principal
    log of ``phi_zeta``, and 2 pi |cos theta| (helicoid/catenoid family)
    just above it, whose detour, left of the chord first, passes below 0."""
    z, b = complex(point.zeta), complex(wp.base)
    zb, bb = z.conjugate(), b.conjugate()

    def moments(w):
        h, gc = wp.Hfun(w), wp.Gfun(w.conjugate()).conjugate()
        return w * h, h, w * gc, gc

    p1, p3h, p2b, p3gb = integrate_segments(moments, build_path(b, z, wp.pole_set))
    gz, hz = complex(wp.Gfun(zb)), complex(wp.Hfun(z))
    gb, hb = complex(wp.Gfun(bb)), complex(wp.Hfun(b))
    q1 = z * z * hz - b * b * hb - 2 * p1
    q2 = zb * zb * gz - bb * bb * gb - 2 * p2b.conjugate()
    q3 = (z * hz - b * hb - p3h) - (zb * gz - bb * gb - p3gb.conjugate())
    c1, c2, c3 = wp.offsets
    d1 = abs((point.xs - point.ts) - (gz - q1) - c1)
    d2 = abs((point.xs + point.ts) - (hz - q2) - c2)
    d3 = abs(point.phis - q3 - c3)
    return d1, d2, d3


# -- Born-Infeld residual of the family as a complex graph ------------------

# |det J| at or below which the graph projection (u, v) -> (xs, ts) counts
# as singular.
_DET_TOL = 1e-10


def graph_residual_from_jets(xs: TJet, ts: TJet, ps: TJet) -> complex:
    """Born-Infeld residual R of phi as a function of the graph variables
    (x, t) = (xs, ts), from the surface X = (xs, ts, ps) in its (u, v)
    parametrization: R = N / det J^3, with J the Jacobian of
    (u, v) -> (xs, ts) and N = G L - 2 F M + E N' the zero-mean-curvature
    numerator of X.  Here E, F, G are <X_u, X_u>, <X_u, X_v>, <X_v, X_v> in
    the bilinear form <p, q> = p0 q0 - p1 q1 + p2 q2 (no complex conjugate),
    and L, M, N' are det[X_uu, X_u, X_v], det[X_uv, X_u, X_v] and
    det[X_vv, X_u, X_v].  On the graph chart X = (a, b, phi), N is term for
    term the Born-Infeld expression of ``pde._residual_from_jet``.  N has no
    division, so R keeps its digits as det J -> 0 (on |zeta| = 1 for the
    helicoid/catenoid family).  Raises ``JacobianSingular`` where
    |det J| <= ``_DET_TOL``."""
    det = xs.fx * ts.ft - xs.ft * ts.fx
    if abs(det) <= _DET_TOL:
        raise JacobianSingular(f"graph projection degenerates (|det| = {abs(det):g})")
    # X_u x X_v, whose last component is det J
    n0 = ts.fx * ps.ft - ps.fx * ts.ft
    n1 = ps.fx * xs.ft - xs.fx * ps.ft
    e = xs.fx * xs.fx - ts.fx * ts.fx + ps.fx * ps.fx
    f = xs.fx * xs.ft - ts.fx * ts.ft + ps.fx * ps.ft
    g = xs.ft * xs.ft - ts.ft * ts.ft + ps.ft * ps.ft
    # L, M, N'
    h11 = xs.fxx * n0 + ts.fxx * n1 + ps.fxx * det
    h12 = xs.fxt * n0 + ts.fxt * n1 + ps.fxt * det
    h22 = xs.ftt * n0 + ts.ftt * n1 + ps.ftt * det
    return (g * h11 - 2 * f * h12 + e * h22) / det ** 3


def complex_bi_residual_on_family(pair: ConjugatePair, theta: float,
                                  grid) -> ResidualReport:
    """Born-Infeld residual of phi_theta^s as a function of its complex graph
    variables (x, t) = (xs, ts), over a list of zeta points: at each, the
    family's jets in (u, v), zeta = u + iv, go through
    ``graph_residual_from_jets`` as R = N / det J^3.  Excluded points are
    counted, not evaluated; a point where |det J| <= ``_DET_TOL`` (on
    |zeta| = 1 for the helicoid/catenoid family) raises ``JacobianSingular``."""
    ct, st = math.cos(theta), math.sin(theta)
    kept, residuals = [], []
    excluded = 0
    for zeta in grid:
        zeta = complex(zeta)
        if pair.excluded(zeta):
            excluded += 1
            continue
        zj = TJet.seed_a(zeta.real) + 1j * TJet.seed_b(zeta.imag)
        xs, ts, ps = (_rotated(TJet.lift(w), ct, st) for w in pair.phi_zeta(zj))
        residuals.append(graph_residual_from_jets(1j * xs, ts, ps))
        kept.append((zeta.real, zeta.imag))
    return summarize(kept, residuals, "exact", excluded,
                     name=f"{pair.name} soliton family",
                     equation="born_infeld", grid_spec=f"{len(grid)} points")
