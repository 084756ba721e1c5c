"""Lorentzian geometry of graphs X(y, z) = (phi(y, z), y, z) over the
timelike plane {x = 0} of L^3, plus isothermal-immersion checks for
parametrized surfaces.

With W := 1 + phi_y^2 - phi_z^2 the graph is timelike where W > 0, spacelike
where W < 0, and its tangent plane degenerates (lightlike) where W = 0.  The
first-form determinant is EG - F^2 = -W.  Wherever W != 0 the mean curvature
reduces to a single formula

    H = -(1/2) * N_BI / |W|^(3/2),

where N_BI = (1 + phi_y^2) phi_zz - 2 phi_y phi_z phi_yz + (phi_z^2 - 1) phi_yy
is the Born-Infeld numerator; H = 0 is exactly the Born-Infeld equation in
the graph variables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_CENTRAL_H, CentralDiff, ExactJet, LVec3, ScalarField2, jet,
                   lorentz_inner, nonreal, stencil_blocked, with_backend)
from .errors import DegenerateError, DomainError, StencilExcluded
from .jetmath import TJet
from .pde import (_BLOCK, SINGULAR, Equation, GridSpec, _residual_from_jet, kept_points,
                  sweep_blocks, wick_lorentzian_catenoid_field, worst)

TOL_DEGENERATE = 1e-9  # far above roundoff, far below grid-scale variation


class CausalClass(enum.Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


@dataclass(frozen=True)
class FundForms:
    E: float
    F: float
    G: float
    e: float
    f2: float
    g: float
    disc: float  # EG - F^2


def _indicator(j: TJet):
    """W = 1 + phi_y^2 - phi_z^2 of a jet, complex."""
    return 1 + j.fx ** 2 - j.ft ** 2


def _real(v: complex, what: str) -> float:
    if nonreal(v):
        raise DomainError(f"{what} is not real-valued here (imag={v.imag:g})")
    return v.real


def _causal_rule(j: TJet, w) -> tuple:
    """(timelike, spacelike) of a jet and its W = 1 + phi_y^2 - phi_z^2,
    numbers or arrays (entry by entry): W > tol or W < -tol, with tol =
    ``TOL_DEGENERATE``.  Neither holds (the point is lightlike) where a
    coefficient or W is not finite, W is not real or |W| <= tol."""
    # 0 * c is 0 where c is finite and NaN where it is not: one isfinite call
    # (numpy warns of 0 * inf in an array outside sweep_blocks' errstate)
    probe = sum(0 * c for c in (w, j.f, j.fx, j.ft, j.fxx, j.fxt, j.ftt))
    ok = np.isfinite(probe) & np.logical_not(nonreal(w))
    return ok & (w.real > TOL_DEGENERATE), ok & (w.real < -TOL_DEGENERATE)


def _point(fld: ScalarField2, y: float, z: float) -> tuple:
    """(class, jet, W) at (y, z) from one ``core.jet`` call, by
    ``_causal_rule``: the path of every point function.  The jet and W are
    None at a lightlike point, also where the jet is singular (on a graph the
    gradient blows up exactly where the tangent plane degenerates).
    DomainError at an excluded point, at a point whose central stencil
    reaches one, and at a timelike or spacelike point with a non-real field
    value."""
    try:
        j, _ = jet(fld, y, z)
        w = _indicator(j)
    except SINGULAR:
        return CausalClass.LIGHTLIKE, None, None
    timelike, spacelike = _causal_rule(j, w)
    if not (timelike or spacelike):
        return CausalClass.LIGHTLIKE, None, None
    _real(j.f, "field value")
    return (CausalClass.TIMELIKE if timelike else CausalClass.SPACELIKE), j, w.real


def _live_point(fld: ScalarField2, y: float, z: float) -> tuple:
    """(jet, W) of ``_point`` at a timelike or spacelike point;
    DegenerateError where it is lightlike."""
    _, j, w = _point(fld, y, z)
    if j is None:
        raise DegenerateError(f"tangent plane is lightlike at ({y}, {z}), or the jet "
                              "there is singular or not finite")
    return j, w


def causal_classify(fld: ScalarField2, y: float, z: float) -> CausalClass:
    """Timelike if W > tol, spacelike if W < -tol, else lightlike, with tol
    = ``TOL_DEGENERATE`` (``_causal_rule``).

    Points where the jet cannot be computed as finite numbers with a real W
    (the gradient of a graph blows up exactly where its tangent plane
    degenerates) classify as lightlike rather than raising, so
    ``fundamental_forms``, ``unit_normal`` and ``mean_curvature`` raise
    ``DegenerateError`` exactly where this returns LIGHTLIKE.  All four raise
    ``DomainError`` at an excluded point, at a point whose central stencil
    reaches one, and at a timelike or spacelike point with a non-real value.
    """
    return _point(fld, y, z)[0]


def fundamental_forms(fld: ScalarField2, y: float, z: float) -> FundForms:
    j, w = _live_point(fld, y, z)
    py, pz = j.fx.real, j.ft.real
    s = math.sqrt(abs(w))
    E = py * py + 1.0
    G = pz * pz - 1.0
    F = py * pz
    return FundForms(E=E, F=F, G=G,
                     e=j.fxx.real / s, f2=j.fxt.real / s, g=j.ftt.real / s,
                     disc=E * G - F * F)


def unit_normal(fld: ScalarField2, y: float, z: float) -> LVec3:
    """N = (1, -phi_y, phi_z)/sqrt|W|; <N,N> = +1 on timelike points, -1 on
    spacelike ones."""
    j, w = _live_point(fld, y, z)
    s = math.sqrt(abs(w))
    return LVec3(1.0 / s, -j.fx.real / s, j.ft.real / s)


def _mean_curvature_from_jet(j: TJet, w: float) -> float:
    num = _real(_residual_from_jet(j, Equation.BORN_INFELD), "Born-Infeld numerator")
    return -0.5 * num / abs(w) ** 1.5


def mean_curvature(fld: ScalarField2, y: float, z: float) -> float:
    """H = (eps/2)(eG - 2 f F + g E)/(EG - F^2) with eps = +1 timelike,
    -1 spacelike; algebraically equal to -(1/2) N_BI / |W|^(3/2)."""
    return _mean_curvature_from_jet(*_live_point(fld, y, z))


# Class codes of classify_grid's blocks: indexes into _CLASSES.
_CLASSES = tuple(CausalClass)
_CODE = {c: i for i, c in enumerate(_CLASSES)}


def _classify_block(j: TJet, shape: tuple) -> np.ndarray:
    """(class code, H) pairs, of shape ``shape + (2,)``, for the array jet of
    a block of points of ``shape`` (``pde.sweep_blocks``), by ``_causal_rule``
    and with the rounding of ``_mean_curvature_from_jet`` at each point."""
    def flat(x):
        return np.broadcast_to(x, shape).ravel()
    w = _indicator(j)
    timelike, spacelike = map(flat, _causal_rule(j, w))
    w, num = flat(w), flat(_residual_from_jet(j, Equation.BORN_INFELD))
    live = np.flatnonzero(timelike | spacelike)
    bad = nonreal(flat(j.f)[live]) | nonreal(num[live])
    if bad.any():
        # the error of the point path (``_point``, then the numerator) at the first such point
        i = live[np.argmax(bad)]
        coefs = [complex(flat(c)[i]) for c in (j.f, j.fx, j.ft, j.fxx, j.fxt, j.ftt)]
        _real(coefs[0], "field value")
        _mean_curvature_from_jet(TJet(*coefs), float(w.real[i]))
    out = np.empty((len(w), 2))
    out[:, 0] = _CODE[CausalClass.LIGHTLIKE]
    out[timelike, 0] = _CODE[CausalClass.TIMELIKE]
    out[spacelike, 0] = _CODE[CausalClass.SPACELIKE]
    out[:, 1] = math.nan
    # |W| ** 1.5 with Python floats: libm's pow, as at a single point
    scale = [x ** 1.5 for x in np.abs(w.real[live]).tolist()]
    out[live, 1] = -0.5 * num.real[live] / np.array(scale, dtype=float)
    return out.reshape(shape + (2,))


def classify_grid(fld: ScalarField2, grid: GridSpec) -> list:
    """Rows (y, z, class, H) for a grid sweep; H is NaN off non-degenerate
    points.  Excluded points are skipped entirely, and so are the points whose
    central stencil reaches an exclusion (``core.stencil_blocked``, one
    predicate call per ``pde._BLOCK`` kept points), where no jet exists.

    The other points are evaluated in array blocks of whole rows
    (``pde.sweep_blocks``), each reduced by ``_classify_block``, also where
    the block's jet is stacked from single points; a point whose jet raises a
    ``pde.SINGULAR`` error is lightlike.  Exact-jet rows are bit-identical to
    the point-by-point ones (``causal_classify``, then ``mean_curvature`` off
    lightlike points) where the jet arithmetic is real, as for
    ``example1_graph``: ``jetmath`` divides arrays as CPython divides complex
    numbers, and |W| ** 1.5 is taken with Python floats, because numpy's
    ``** 1.5`` is not libm's ``pow``.  numpy's ufuncs (``tanh``) and its
    product of two non-real numbers (a fused multiply-add on CPUs that have
    one) may still differ from cmath in the last ulp, and so may a
    central-difference block, which scales its differences by the step's
    reciprocal.  A non-real field value or numerator at a timelike or
    spacelike point raises ``DomainError``, at the first such point in grid
    order.  An ``ExactJet`` field whose evaluator rejects jets is classified
    as ``core.jet`` evaluates it, by central differences with step
    ``DEFAULT_CENTRAL_H``; once such a stencil reaches an exclusion, the
    points whose stencils do are skipped as for a ``CentralDiff`` field."""
    a, b = grid.axes()
    keep = ~fld.excluded_mask(a[:, None], b[None, :])
    ys, zs = kept_points(a, b, keep)
    blocked = np.zeros(len(ys), dtype=bool)
    for s in range(0, len(ys), _BLOCK):
        blocked[s:s + _BLOCK] = stencil_blocked(fld, ys[s:s + _BLOCK], zs[s:s + _BLOCK])
    keep[keep] = ~blocked
    ys, zs = ys[~blocked], zs[~blocked]
    out = np.empty((len(ys), 2))
    try:
        sweep_blocks(fld, a, b, keep, np.count_nonzero(keep, axis=1).tolist(), out,
                     _classify_block)
    except StencilExcluded:
        if not isinstance(fld.backend, ExactJet):
            raise
        # the evaluator rejects jets and core.jet falls back to central
        # differences: classify as that backend, which skips such points
        return classify_grid(with_backend(fld, CentralDiff(DEFAULT_CENTRAL_H)), grid)
    names = [c.value for c in _CLASSES]
    classes = map(names.__getitem__, out[:, 0].astype(int).tolist())
    return list(zip(ys.tolist(), zs.tolist(), classes, out[:, 1].tolist()))


# -- Example-1 graph: x = asinh(sqrt(z^2 - y^2)) ---------------------------

def example1_graph() -> ScalarField2:
    """The Born-Infeld soliton graph whose tangent planes degenerate exactly
    on {y = +-z}.  The open region z^2 < y^2 (complex values) is excluded;
    the degenerate lines themselves are kept so they can be classified."""
    base = wick_lorentzian_catenoid_field(margin=0.0)
    return ScalarField2(base.evaluator, base.backend,
                        domain_exclusions=lambda y, z: z * z - y * y < 0.0)


# -- isothermal immersion check --------------------------------------------

def surface_jets(surface, zeta: complex):
    """Order-2 jets of the three components of a parametrized surface in the
    real parameters (u, v) of zeta = u + iv."""
    if surface.excluded(zeta):
        raise DomainError(f"parameter {zeta} is outside the surface domain")
    ju = TJet.seed_a(zeta.real)
    jv = TJet.seed_b(zeta.imag)
    return tuple(map(TJet.lift, surface.components(ju, jv)))


def isothermal_check(surface, zeta: complex):
    """(conformal_defect, cross_defect, harmonic_defect) at zeta.

    conformal = |<X_u,X_u> - <X_v,X_v>|, cross = |<X_u,X_v>|, harmonic =
    max component of |X_uu + X_vv| (``pde.worst``: inf when one is NaN).  All
    three below tolerance certifies an isothermal maximal immersion at the
    point.
    """
    jx, jy, jz = surface_jets(surface, zeta)
    xu = LVec3(jx.fx, jy.fx, jz.fx)
    xv = LVec3(jx.ft, jy.ft, jz.ft)
    conformal = abs(lorentz_inner(xu, xu) - lorentz_inner(xv, xv))
    cross = abs(lorentz_inner(xu, xv))
    harmonic = worst([abs(c.fxx + c.ftt) for c in (jx, jy, jz)])
    return conformal, cross, harmonic
