"""Conjugate maximal surfaces, the associate family, the one-parameter family
of complex Born-Infeld solitons derived from it, and verification of the
Whitham general-solution form.

Surface components are stored in split form: functions of (tau, sigma) where
sigma is an independent stand-in for the conjugate variable.  Evaluating at
sigma = conj(tau) recovers the real surface; substituting tau = i zeta,
sigma = -i conj(zeta) performs the isothermal change of coordinates in which
the soliton family and the Whitham data G, H live.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import jetmath as jm
from .errors import DomainError, JacobianSingular
from .jetmath import TJet
from .pde import Equation, ResidualReport, _residual_from_jet, summarize, worst
from .quadrature import build_path, integrate_segments
from .weierstrass import SurfaceMap, lorentzian_helicoid_exclusions

Comps = Callable  # (tau, sigma) -> (x, t, f), jet-friendly


@dataclass(frozen=True)
class ConjugatePair:
    """Isothermal parametrizations X1, X2 with X1 + i X2 holomorphic."""

    name: str
    comps1: Comps
    comps2: Comps
    comps1_zeta: Optional[Comps] = None
    comps2_zeta: Optional[Comps] = None
    tau_exclusions: Optional[Callable[[complex], bool]] = None
    zeta_exclusions: Optional[Callable[[complex], bool]] = None

    def zeta_comps(self):
        c1 = self.comps1_zeta or isothermal_substitution(self.comps1)
        c2 = self.comps2_zeta or isothermal_substitution(self.comps2)
        return c1, c2

    def surface1(self) -> SurfaceMap:
        return _surface_from_comps(self.comps1, self.tau_exclusions)

    def surface2(self) -> SurfaceMap:
        return _surface_from_comps(self.comps2, self.tau_exclusions)

    def zeta_excluded(self, zeta: complex) -> bool:
        return self.zeta_exclusions is not None and bool(self.zeta_exclusions(zeta))


def isothermal_substitution(comps: Comps) -> Comps:
    """The reparametrization tau = i zeta, sigma = -i xi applied to split-form
    components (xi standing in for conj(zeta))."""
    return lambda zeta, xi: comps(1j * zeta, -1j * xi)


def _surface_from_comps(comps: Comps, exclusions) -> SurfaceMap:
    def components(u, v):
        tau = u + 1j * v
        sigma = u - 1j * v
        return comps(tau, sigma)
    return SurfaceMap(components, exclusions)


def helicoid_catenoid_pair() -> ConjugatePair:
    """The Lorentzian helicoid and Lorentzian catenoid, which are conjugate:
    X1 + i X2 = (-(i/2)(tau - 1/tau), -(1/2)(tau + 1/tau), -i log tau).

    The zeta-space components are the normalized closed forms of the soliton
    construction (f1 = -(i/2)(log zeta - log xi), f2 = -(1/2)(log zeta + log xi));
    they absorb the constant that a raw substitution into the tau forms picks
    up from log(i).
    """
    # Each reciprocal is taken once and shared by the sum and the difference.
    def comps1(tau, sigma):
        it, i_s = 1 / tau, 1 / sigma
        p, q = tau - it, sigma - i_s
        r, s = tau + it, sigma + i_s
        return (-0.25j * (p - q), -0.25 * (r + s), -0.5j * (jm.log(tau) - jm.log(sigma)))

    def comps2(tau, sigma):
        it, i_s = 1 / tau, 1 / sigma
        p, q = tau - it, sigma - i_s
        r, s = tau + it, sigma + i_s
        return (-0.25 * (p + q), 0.25j * (r - s), -0.5 * (jm.log(tau) + jm.log(sigma)))

    def comps1_zeta(zeta, xi):
        iz, ix = 1 / zeta, 1 / xi
        A, Ab = zeta + iz, xi + ix
        B, Bb = zeta - iz, xi - ix
        return (0.25 * (A + Ab), -0.25j * (B - Bb),
                -0.5j * (jm.log(zeta) - jm.log(xi)))

    def comps2_zeta(zeta, xi):
        iz, ix = 1 / zeta, 1 / xi
        A, Ab = zeta + iz, xi + ix
        B, Bb = zeta - iz, xi - ix
        return (-0.25j * (A - Ab), -0.25 * (B + Bb),
                -0.5 * (jm.log(zeta) + jm.log(xi)))

    return ConjugatePair("helicoid_catenoid", comps1, comps2, comps1_zeta, comps2_zeta,
                         tau_exclusions=lorentzian_helicoid_exclusions,
                         zeta_exclusions=lorentzian_helicoid_exclusions)


# -- associate family and conjugacy ----------------------------------------

def associate_family(pair: ConjugatePair, theta: float) -> SurfaceMap:
    """cos(theta) X1 + sin(theta) X2, an isothermal maximal immersion for
    every real theta."""
    ct, st = math.cos(theta), math.sin(theta)

    def comps(tau, sigma):
        a = pair.comps1(tau, sigma)
        b = pair.comps2(tau, sigma)
        return tuple(ct * ai + st * bi for ai, bi in zip(a, b))

    return _surface_from_comps(comps, pair.tau_exclusions)


def conjugacy_check(pair: ConjugatePair, zeta: complex) -> float:
    """Max over the three components of the Cauchy-Riemann defect of
    X1 + i X2 at tau = zeta = u + iv, a point of the pair's tau domain:
    |(d/du + i d/dv)(X1 + i X2)| / 2, zero where X1 + i X2 is holomorphic,
    and inf where one is NaN (``pde.worst``).  The derivatives come from
    order-1 jets in (u, v), exact up to roundoff."""
    zeta = complex(zeta)
    if pair.tau_exclusions is not None and pair.tau_exclusions(zeta):
        raise DomainError(f"{zeta} is outside the pair's common domain")
    ju = TJet(complex(zeta.real), 1.0 + 0j, 0j, None, None, None)
    jv = TJet(complex(zeta.imag), 0j, 1.0 + 0j, None, None, None)
    tau = ju + 1j * jv
    sigma = ju - 1j * jv
    a = pair.comps1(tau, sigma)
    b = pair.comps2(tau, sigma)
    return worst([0.5 * abs(w.fx + 1j * w.ft)
                  for w in (TJet.lift(ai + 1j * bi) for ai, bi in zip(a, b))])


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
    evaluated in the zeta coordinates (c = cos theta, s = sin theta)."""
    zeta = complex(zeta)
    if pair.zeta_excluded(zeta):
        raise DomainError(f"{zeta} is outside the family's zeta domain")
    c1, c2 = pair.zeta_comps()
    xi = zeta.conjugate()
    x1, t1, f1 = (complex(w) for w in c1(zeta, xi))
    x2, t2, f2 = (complex(w) for w in c2(zeta, xi))
    ct, st = math.cos(theta), math.sin(theta)
    return SolitonFamilyPoint(
        theta, zeta,
        xs=1j * (x1 * ct + x2 * st),
        ts=t1 * ct + t2 * st,
        phis=f1 * ct + f2 * st,
    )


# -- Whitham form ------------------------------------------------------------

@dataclass(frozen=True)
class WhithamPair:
    """Data (G, H) of the general Born-Infeld solution, constrained by
    conj(G(conj zeta)) = -H(zeta)."""

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


def holomorphic_derivative(fn: Callable, z):
    """f'(z) by propagating an order-1 jet; ``z`` may be a complex number or
    an array of them.  ``fn`` must take jets: one that rejects them raises
    ``TypeError``, as a jet bug would, rather than being differenced."""
    d = TJet.lift(fn(TJet(TJet.coef(z), 1.0 + 0j, 0j, None, None, None))).fx
    if isinstance(z, np.ndarray) and not isinstance(d, np.ndarray):
        return np.broadcast_to(d, z.shape)
    return d


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

    Integrals run from the base point along pole-avoiding paths; the c_j are
    the pair's calibrated offsets.
    """
    z = complex(point.zeta)
    zb = z.conjugate()
    base = complex(wp.base)
    baseb = base.conjugate()
    poles = wp.pole_set
    polesb = tuple(complex(p).conjugate() for p in poles)

    path_h = build_path(base, z, poles)
    path_g = build_path(baseb, zb, polesb)

    def moments(fn):
        # (w^2 f'(w), w f'(w)), with f' computed once per array of nodes
        def fvec(w):
            d = holomorphic_derivative(fn, w)
            return w * w * d, w * d
        return fvec

    q1, q3h = integrate_segments(moments(wp.Hfun), path_h)
    q2, q3g = integrate_segments(moments(wp.Gfun), path_g)

    c1, c2, c3 = wp.offsets
    d1 = abs((point.xs - point.ts) - (complex(wp.Gfun(zb)) - q1) - c1)
    d2 = abs((point.xs + point.ts) - (complex(wp.Hfun(z)) - q2) - c2)
    d3 = abs(point.phis - (q3h - q3g) - c3)
    return d1, d2, d3


# -- Born-Infeld residual of the family as a complex graph ------------------

def _family_jets(pair: ConjugatePair, theta: float, zeta: complex):
    ju = TJet.seed_a(zeta.real)
    jv = TJet.seed_b(zeta.imag)
    zj = ju + 1j * jv
    xij = ju - 1j * jv
    c1, c2 = pair.zeta_comps()
    x1, t1, f1 = map(TJet.lift, c1(zj, xij))
    x2, t2, f2 = map(TJet.lift, c2(zj, xij))
    ct, st = math.cos(theta), math.sin(theta)
    xs = 1j * (x1 * ct + x2 * st)
    ts = t1 * ct + t2 * st
    ps = f1 * ct + f2 * st
    return xs, ts, ps


# |det J| at or below which the graph projection (u, v) -> (xs, ts) counts
# as singular.
_DET_TOL = 1e-10


def graph_residual_from_jets(xs: TJet, ts: TJet, ps: TJet) -> complex:
    """Born-Infeld residual of phi as a function of the graph variables
    (x, t) = (xs, ts), via the chain rule through the (u, v) parametrization.
    Raises ``JacobianSingular`` where |det J| <= ``_DET_TOL``."""
    det = xs.fx * ts.ft - xs.ft * ts.fx
    if abs(det) <= _DET_TOL:
        raise JacobianSingular(f"graph projection degenerates (|det| = {abs(det):g})")
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
    # du/dv of px and pt
    px_u = ps.fxx * b11 + ps.fxt * b21 + ps.fx * du11 + ps.ft * du21
    px_v = ps.fxt * b11 + ps.ftt * b21 + ps.fx * dv11 + ps.ft * dv21
    pt_u = ps.fxx * b12 + ps.fxt * b22 + ps.fx * du12 + ps.ft * du22
    pt_v = ps.fxt * b12 + ps.ftt * b22 + ps.fx * dv12 + ps.ft * dv22

    pxx = px_u * b11 + px_v * b21
    pxt = px_u * b12 + px_v * b22
    ptt = pt_u * b12 + pt_v * b22
    return _residual_from_jet(TJet(ps.f, px, pt, pxx, pxt, ptt), Equation.BORN_INFELD)


def complex_bi_residual_on_family(pair: ConjugatePair, theta: float,
                                  grid) -> ResidualReport:
    """Born-Infeld residual of phi_theta^s as a function of its complex graph
    variables, over a list of zeta points."""
    kept, residuals = [], []
    excluded = 0
    for zeta in grid:
        zeta = complex(zeta)
        if pair.zeta_excluded(zeta):
            excluded += 1
            continue
        xs, ts, ps = _family_jets(pair, theta, zeta)
        residuals.append(graph_residual_from_jets(xs, ts, ps))
        kept.append((zeta.real, zeta.imag))
    return summarize(kept, residuals, "exact", excluded,
                     name=f"{pair.name} soliton family",
                     equation="born_infeld", grid_spec=f"{len(grid)} points")
