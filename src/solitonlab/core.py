"""Lorentzian linear algebra and second-order differentiation of scalar fields.

Conventions used throughout the package:

* ``LVec3`` lives in R^3 with the inner product ``a.x b.x + a.y b.y - a.z b.z``
  (signature +, +, -; the third slot is the timelike axis).
* A ``ScalarField2`` is a complex-valued function of two *real* variables
  (a, b).  "Vanishes" for any residual built from one always means modulus
  below tolerance.
* ``Jet2`` holds the value and the five partials up to order 2; ``vx`` and
  ``vxx`` differentiate with respect to the first variable, ``vt``/``vtt``
  with respect to the second.  ``jet`` takes one point as two numbers or many
  points as two arrays; each entry of the result is then a number or an
  array (or a number that holds for every point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError
from .jetmath import TJet

DEFAULT_CENTRAL_H = 1e-4  # balances O(h^2) truncation vs O(eps/h^2) roundoff


@dataclass(frozen=True, slots=True)
class ExactJet:
    """Propagate truncated second-order Taylor arithmetic through the evaluator."""


@dataclass(frozen=True, slots=True)
class CentralDiff:
    """Second-order central-difference stencils with step h."""

    h: float = DEFAULT_CENTRAL_H

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("central-difference step h must be positive")


Backend = Union[ExactJet, CentralDiff]


@dataclass(frozen=True, slots=True)
class LVec3:
    """Point or vector of Lorentz-Minkowski 3-space; components may be complex."""

    x: complex
    y: complex
    z: complex

    def __add__(self, other: "LVec3") -> "LVec3":
        return LVec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "LVec3") -> "LVec3":
        return LVec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __rmul__(self, c) -> "LVec3":
        return LVec3(c * self.x, c * self.y, c * self.z)

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z


def lorentz_inner(a: LVec3, b: LVec3):
    """Inner product of signature (+, +, -): a.x b.x + a.y b.y - a.z b.z."""
    return a.x * b.x + a.y * b.y - a.z * b.z


@dataclass(frozen=True, slots=True)
class Jet2:
    """Value and partials to order 2 of a field at a point."""

    v: complex
    vx: complex
    vt: complex
    vxx: complex
    vxt: complex
    vtt: complex
    backend_used: str = "exact"


@dataclass(frozen=True)
class ScalarField2:
    """A function of two real variables with a derivative backend.

    ``evaluator`` must accept plain numbers; evaluators composed from the
    :mod:`solitonlab.jetmath` primitives additionally accept jets, numpy
    arrays, jets with array coefficients and complex substitutions, which is
    what the ``ExactJet`` backend, vectorized sweeps and the Wick rotations
    rely on.  ``domain_exclusions(a, b)`` returns True at points that must
    not be evaluated; it is called with one point (two floats) at a time.
    """

    evaluator: Callable
    backend: Backend = field(default_factory=ExactJet)
    domain_exclusions: Optional[Callable[[float, float], bool]] = None

    def excluded(self, a: float, b: float) -> bool:
        return self.domain_exclusions is not None and bool(self.domain_exclusions(a, b))

    def value(self, a: float, b: float) -> complex:
        if self.excluded(a, b):
            raise DomainError(f"point ({a}, {b}) is outside the field domain")
        return complex(self.evaluator(a, b))


def _points(a, b):
    """The (a, b) points of scalar or array coordinates, as Python floats."""
    if isinstance(a, np.ndarray):
        return zip(a.tolist(), b.tolist())
    return ((a, b),)


def _require_kept(fld: ScalarField2, points, message: str) -> None:
    """DomainError naming the first of ``points`` that ``fld`` excludes."""
    excluded = fld.domain_exclusions
    if excluded is not None:
        for (pa, pb) in points:
            if excluded(pa, pb):
                raise DomainError(message.format(pa, pb))


def _stencil(a, b, h):
    return [(a, b), (a + h, b), (a - h, b), (a, b + h), (a, b - h),
            (a + h, b + h), (a + h, b - h), (a - h, b + h), (a - h, b - h)]


def _central_jet(fld: ScalarField2, a, b, h: float, tag: str) -> Jet2:
    _require_kept(fld, (s for p in _points(a, b) for s in _stencil(*p, h)),
                  "stencil point ({}, {}) is excluded")
    ev = fld.evaluator
    f00, fp0, fm0, f0p, f0m, fpp, fpm, fmp, fmm = (
        TJet.coef(ev(sa, sb)) for (sa, sb) in _stencil(a, b, h))
    return Jet2(
        v=f00,
        vx=(fp0 - fm0) / (2 * h),
        vt=(f0p - f0m) / (2 * h),
        vxx=(fp0 - 2 * f00 + fm0) / (h * h),
        vxt=(fpp - fpm - fmp + fmm) / (4 * h * h),
        vtt=(f0p - 2 * f00 + f0m) / (h * h),
        backend_used=tag,
    )


def jet(fld: ScalarField2, a, b) -> Jet2:
    """Value and all partials to order 2 of ``fld`` at (a, b).

    ``a`` and ``b`` are numbers, or float arrays of equal shape for many
    points at once; the evaluator then runs on arrays.  With the
    ``ExactJet`` backend the evaluator is run on Taylor jets; if it uses
    primitives outside the supported set (raising ``TypeError``) the
    computation falls back to central differences and the returned jet is
    flagged ``backend_used="central-fallback"``.
    """
    if isinstance(fld.backend, ExactJet):
        _require_kept(fld, _points(a, b), "point ({}, {}) is outside the field domain")
        try:
            out = fld.evaluator(TJet.seed_a(a), TJet.seed_b(b))
        except TypeError:
            return _central_jet(fld, a, b, DEFAULT_CENTRAL_H, "central-fallback")
        if isinstance(out, TJet):
            return Jet2(out.f, out.fx, out.ft, out.fxx, out.fxt, out.ftt)
        return Jet2(TJet.coef(out), 0j, 0j, 0j, 0j, 0j)
    return _central_jet(fld, a, b, fld.backend.h, "central")


def with_backend(fld: ScalarField2, backend: Backend) -> ScalarField2:
    """Same field, different derivative backend."""
    return ScalarField2(fld.evaluator, backend, fld.domain_exclusions)
