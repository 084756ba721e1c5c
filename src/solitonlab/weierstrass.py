"""Weierstrass-Enneper integration of maximal surfaces from data M(omega),
plus the catalog of closed-form parametrized surfaces and their
nonparametric relations, read off the graphs of the ``pde`` catalog.

Two integral representations are supported.  Writing X = (x, y, z) with z on
the timelike axis:

* standard:   x = Re Int M (1 + w^2),  y = Re Int i M (1 - w^2),  z = Re Int -2 M w
* alternate:  x = Re Int M (1 + w^2),  y = Re Int 2 i M w,        z = Re Int M (w^2 - 1)

Integration constants are fixed so that the catalog closed forms are matched
exactly at each datum's base point.
"""

from __future__ import annotations

import cmath
import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jetmath as jm
from . import pde
from .core import LVec3, exclusion_mask, nonreal
from .errors import DomainError, UnknownSurface
from .quadrature import DEFAULT_POLE_MARGIN, build_path, integrate_segments


class Variant(enum.Enum):
    STANDARD = "standard"
    ALTERNATE = "alternate"


@dataclass(frozen=True)
class WEData:
    """Weierstrass-Enneper input: M, representation variant, base point and,
    when known, closed-form antiderivatives of the three integrands."""

    M: Callable
    variant: Variant
    base: complex
    antiderivatives: Optional[tuple] = None
    pole_set: tuple = ()
    name: str = ""

    @functools.cached_property
    def base_value(self) -> LVec3:
        """The surface point at the base point, as Python floats: the closed
        forms' value there, or the origin for data without antiderivatives.
        It is computed once per datum and added to every ``we_integrate``
        integral."""
        if self.antiderivatives is None:
            return LVec3(0.0, 0.0, 0.0)
        p = closed_form_point(self, complex(self.base))
        return LVec3(float(p.x), float(p.y), float(p.z))


@dataclass(frozen=True)
class SurfaceMap:
    """Parametrized surface zeta = u + iv -> L^3.

    ``components(u, v)`` accepts numbers or Taylor jets and returns the three
    coordinates; ``eval`` wraps it for plain complex parameters and checks
    the result is real, and ``sample`` does the same over many parameters.
    ``domain_exclusions(zeta)`` is True at parameters that must not be
    evaluated; it is called with a complex array and returns a bool array, so
    write it with ``|`` and ``&``, not ``or`` and ``and``, or the call raises
    numpy's ``TypeError`` or ``ValueError``.
    """

    components: Callable
    domain_exclusions: Optional[Callable] = None

    def excluded(self, zeta: complex) -> bool:
        return self.domain_exclusions is not None and bool(self.domain_exclusions(zeta))

    def eval(self, zeta: complex) -> LVec3:
        zeta = complex(zeta)
        values, excluded = self.sample([(zeta.real, zeta.imag)])
        if excluded[0]:
            raise DomainError(f"parameter {zeta} is outside the surface domain")
        return LVec3(*values[0].tolist())

    def sample(self, points):
        """Surface points over a sequence of (u, v) parameters, as an (n, 3)
        float array with NaN rows at excluded parameters, and the excluded
        mask.  All parameters are tested for exclusion in one predicate call
        (``core.exclusion_mask``); the kept ones are evaluated as scalars in
        grid order, in one pass that streams their rows into one complex
        array (a row of the wrong length raises numpy's ``ValueError``, as
        assigning it to a row does).  The realness check runs once over all
        rows, and the first point with a non-real component raises
        ``DomainError``."""
        # (u, v) pairs of float64 read as complex128: zetas[k] == complex(u, v)
        zetas = np.fromiter(itertools.chain.from_iterable(points), float,
                            2 * len(points)).view(complex)
        excluded = np.array(exclusion_mask(self.domain_exclusions, zetas))  # writable
        kept = np.flatnonzero(~excluded)
        rows = np.fromiter(
            itertools.starmap(self.components, itertools.compress(points, (~excluded).tolist())),
            np.dtype((complex, 3)), len(kept))
        not_real = nonreal(rows)
        if not_real.any():
            k, i = np.argwhere(not_real)[0]
            raise DomainError(f"surface component not real at {complex(*points[kept[k]])}: "
                              f"{complex(rows[k, i])}")
        values = np.full((len(points), 3), math.nan)
        values[kept] = rows.real
        return values, excluded


def integrand(data: WEData) -> Callable:
    """The three holomorphic integrands of the representation, as a vector."""
    M = data.M
    # M and w * w are evaluated once per call and shared by the components.
    if data.variant is Variant.STANDARD:
        def standard(w):
            m, w2 = M(w), w * w
            return m * (1 + w2), 1j * m * (1 - w2), -2 * m * w
        return standard

    def alternate(w):
        m, w2 = M(w), w * w
        return m * (1 + w2), 2j * m * w, m * (w2 - 1)
    return alternate


def closed_form_point(data: WEData, zeta: complex) -> LVec3:
    """Surface point from the closed-form antiderivatives (real parts)."""
    if data.antiderivatives is None:
        raise ValueError("datum has no closed-form antiderivatives")
    a1, a2, a3 = data.antiderivatives
    return LVec3(a1(zeta).real, a2(zeta).real, a3(zeta).real)


def we_integrate(data: WEData, zeta: complex) -> LVec3:
    """Surface point at zeta by numeric quadrature from the base point, as
    Python floats: ``data.base_value`` plus the real parts of the integrals.

    A straight base->zeta segment is used when it clears the poles by
    ``DEFAULT_POLE_MARGIN``; otherwise a polyline detour.  A pole at zeta
    raises ``DomainError``.
    """
    path = build_path(complex(data.base), complex(zeta), data.pole_set)
    x, y, z = integrate_segments(integrand(data), path).real.tolist()
    b = data.base_value
    return LVec3(b.x + x, b.y + y, b.z + z)


def we_data_rotation(data: WEData, theta: float) -> WEData:
    """Associate-family rotation of the data: M -> e^{-i theta} M.

    The integrands are linear in M, so closed-form antiderivatives rotate by
    the same factor.
    """
    phase = cmath.exp(-1j * theta)
    M = data.M
    antis = None
    if data.antiderivatives is not None:
        a1, a2, a3 = data.antiderivatives
        antis = (lambda w: phase * a1(w), lambda w: phase * a2(w), lambda w: phase * a3(w))
    return WEData(lambda w: phase * M(w), data.variant, data.base, antis,
                  data.pole_set, name=data.name)


# -- catalog surfaces -------------------------------------------------------

def _near(z, centre: complex, margin: float):
    """|z - centre| <= margin for a number or a complex array, by the sum of
    squares: numpy's complex abs (hypot) is not libm's, so abs would let a
    point and an array that holds it disagree at the margin."""
    d = z - centre
    return d.real * d.real + d.imag * d.imag <= margin * margin


def lorentzian_helicoid_exclusions(z):
    """The domain predicate of the Lorentzian helicoid's principal branch,
    shared with the helicoid/catenoid pair of ``family``: the puncture at 0
    and the negative real axis (the cut of arg), each within
    ``DEFAULT_POLE_MARGIN``.  It takes a number or a complex array, as
    ``SurfaceMap`` describes."""
    margin = DEFAULT_POLE_MARGIN
    return _near(z, 0, margin) | ((z.real <= 0.0) & (abs(z.imag) <= margin))


def catalog_surface(name: str) -> SurfaceMap:
    """Closed-form parametrizations used throughout the catalog; punctures
    and the helicoid's cut of arg are excluded within ``DEFAULT_POLE_MARGIN``.

    * lorentzian_helicoid:   (Im(t - 1/t)/2, -Re(t + 1/t)/2, arg t)
    * lorentzian_catenoid:   (-Re(t - 1/t)/2, -Im(t + 1/t)/2, -ln|t|)
    * scherk_first_kind:     (ln|(z+1)/(z-1)|, ln|(z-i)/(z+i)|, ln|(z^2-1)/(z^2+1)|)
    * helicoid_second_kind:  (-Im(z - 1/z)/2, -ln|z|, -Im(z + 1/z)/2)
    """
    margin = DEFAULT_POLE_MARGIN
    if name == "lorentzian_helicoid":
        def comps(u, v):
            tau = u + 1j * v
            w = jm.log(tau)
            return (0.5 * jm.im(tau - 1 / tau), -0.5 * jm.re(tau + 1 / tau), jm.im(w))
        return SurfaceMap(comps, lorentzian_helicoid_exclusions)
    if name == "lorentzian_catenoid":
        def comps(u, v):
            tau = u + 1j * v
            return (-0.5 * jm.re(tau - 1 / tau), -0.5 * jm.im(tau + 1 / tau),
                    -jm.re(jm.log(tau)))
        return SurfaceMap(comps, lambda z: _near(z, 0, margin))
    if name == "scherk_first_kind":
        def comps(u, v):
            z = u + 1j * v
            return (jm.re(jm.log((z + 1) / (z - 1))),
                    jm.re(jm.log((z - 1j) / (z + 1j))),
                    jm.re(jm.log((z * z - 1) / (z * z + 1))))
        return SurfaceMap(comps, lambda z: (_near(z, 1, margin) | _near(z, -1, margin)
                                            | _near(z, 1j, margin) | _near(z, -1j, margin)))
    if name == "helicoid_second_kind":
        def comps(u, v):
            z = u + 1j * v
            return (-0.5 * jm.im(z - 1 / z), -jm.re(jm.log(z)), -0.5 * jm.im(z + 1 / z))
        return SurfaceMap(comps, lambda z: _near(z, 0, margin))
    raise UnknownSurface(f"no catalog surface named {name!r}")


SURFACE_NAMES = ("lorentzian_helicoid", "lorentzian_catenoid",
                 "scherk_first_kind", "helicoid_second_kind")


def we_catalog(name: str) -> WEData:
    """Weierstrass data, with closed-form antiderivatives, for the catalog.

    The helicoid/catenoid data reproduce those surfaces up to a Lorentz
    isometry (z -> -z for the helicoid, a half-turn about the z axis for the
    catenoid): the standard representation fixes the component signs and the
    catalog closed forms were chosen to match the parametrizations above.
    """
    if name == "scherk_first_kind":
        return WEData(
            M=lambda w: 2.0 / (1 - w ** 4),
            variant=Variant.STANDARD,
            base=2.0 + 0j,
            antiderivatives=(
                lambda w: cmath.log((w + 1) / (w - 1)),
                lambda w: cmath.log((w - 1j) / (w + 1j)),
                lambda w: cmath.log((w * w - 1) / (w * w + 1)),
            ),
            pole_set=(1, -1, 1j, -1j),
            name=name,
        )
    if name == "helicoid_second_kind":
        return WEData(
            M=lambda w: 0.5j / (w * w),
            variant=Variant.ALTERNATE,
            base=1.0 + 0j,
            antiderivatives=(
                lambda w: 0.5j * (w - 1 / w),
                lambda w: -cmath.log(w),
                lambda w: 0.5j * (w + 1 / w),
            ),
            pole_set=(0j,),
            name=name,
        )
    if name == "lorentzian_helicoid":
        return WEData(
            M=lambda w: -0.5j / (w * w),
            variant=Variant.STANDARD,
            base=1.0 + 0j,
            antiderivatives=(
                lambda w: -0.5j * (w - 1 / w),
                lambda w: -0.5 * (w + 1 / w),
                lambda w: 1j * cmath.log(w),
            ),
            pole_set=(0j,),
            name=name,
        )
    if name == "lorentzian_catenoid":
        return WEData(
            M=lambda w: 0.5 / (w * w),
            variant=Variant.STANDARD,
            base=1.0 + 0j,
            antiderivatives=(
                lambda w: 0.5 * (w - 1 / w),
                lambda w: -0.5j * (w + 1 / w),
                lambda w: -cmath.log(w),
            ),
            pole_set=(0j,),
            name=name,
        )
    raise UnknownSurface(f"no Weierstrass datum named {name!r}")


# -- nonparametric relations ------------------------------------------------

# surface -> (``pde`` catalog entry, sign, offset, sheet rule, outside): the
# surface is the graph z = sign * entry(x, y) + offset, modulo pi for the
# helicoid (its height arg spans two sheets of atan(y/x)) and in |z| for the
# catenoid (x^2 + y^2 = sinh^2 z is symmetric under z -> -z); ``outside(x,
# y)``, where given, holds off the image of the parametrization.
GRAPHS = {
    "scherk_first_kind": ("scherk_first_kind", 1.0, 0.0, None, None),
    "helicoid_second_kind": ("helicoid_second_kind", -1.0, 0.0, None,
                             lambda x, y: x * x > math.cosh(y) ** 2 * (1 + 1e-12)),
    "lorentzian_helicoid": ("helicoid_first_kind", 1.0, 0.5 * math.pi, "mod pi", None),
    "lorentzian_catenoid": ("lorentzian_catenoid", 1.0, 0.0, "|z|", None),
}


def nonparametric_check(surface: SurfaceMap, relation: str, zeta: complex) -> float:
    """|defining relation| at the surface point over parameter zeta, against
    the graph ``GRAPHS[relation]``.  The entry's field is built with margin
    0, so ``DomainError`` is raised exactly where it excludes (x, y), and
    where ``outside`` holds."""
    try:
        entry, sign, offset, sheet, outside = GRAPHS[relation]
    except KeyError:
        raise UnknownSurface(f"no nonparametric relation named {relation!r}") from None
    p = surface.eval(zeta)
    fld = pde.solution(entry, margin=0.0).field
    if fld.excluded(p.x, p.y) or (outside is not None and outside(p.x, p.y)):
        raise DomainError(f"({p.x}, {p.y}) is off the graph of {entry}")
    height = sign * complex(fld.evaluator(p.x, p.y)).real + offset
    d = (abs(p.z) if sheet == "|z|" else p.z) - height
    if sheet == "mod pi":
        d -= math.pi * round(d / math.pi)
    return abs(d)
