"""Lorentzian linear algebra and second-order differentiation of scalar fields.

Conventions used throughout the package:

* ``LVec3`` lives in R^3 with the inner product ``a.x b.x + a.y b.y - a.z b.z``
  (signature +, +, -; the third slot is the timelike axis).
* A ``ScalarField2`` is a complex-valued function of two *real* variables
  (a, b).  "Vanishes" for any residual built from one always means modulus
  below tolerance.  Its exclusion predicate is called with coordinate arrays,
  a whole block or stencil at once, never point by point, and returns a bool
  array or one bool for all points.
* ``jet`` returns the value and the five partials up to order 2 as a
  :class:`~solitonlab.jetmath.TJet` (``fx`` and ``fxx`` differentiate with
  respect to the first variable, ``ft``/``ftt`` with respect to the second),
  together with the name of the backend that computed them.  It takes one
  point as two numbers or many as broadcastable arrays, e.g. a column of a
  and a row of b; each coefficient is a number or broadcasts to the points.
* The central-difference backend calls the evaluator on the nine shifted
  float arrays of its stencil.  The :mod:`~solitonlab.jetmath` primitives keep
  real arrays real until they leave the real domain, so a real field's stencil
  runs in real arithmetic; the jet's coefficients are complex all the same.
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


# Imaginary parts at or below this share of 1 + |real part| count as roundoff.
_REAL_TOL = 1e-9


def nonreal(v):
    """Whether ``v``, a complex number or array (entry by entry), has an
    imaginary part above ``_REAL_TOL`` relative to its real part."""
    return abs(v.imag) > _REAL_TOL * (1.0 + abs(v.real))


def lorentz_inner(a: LVec3, b: LVec3):
    """Inner product of signature (+, +, -): a.x b.x + a.y b.y - a.z b.z."""
    return a.x * b.x + a.y * b.y - a.z * b.z


@dataclass(frozen=True)
class ScalarField2:
    """A function of two real variables with a derivative backend.

    ``evaluator`` must accept plain numbers; evaluators composed from the
    :mod:`solitonlab.jetmath` primitives additionally accept jets, numpy
    arrays, jets with array coefficients and complex substitutions, which is
    what the ``ExactJet`` backend, vectorized sweeps and the Wick rotations
    rely on.  On float arrays (the ``CentralDiff`` stencils) the primitives
    return float arrays while the values stay real, and complex ones where
    they do not.  ``domain_exclusions(a, b)`` is True at points that must not be
    evaluated.  It is called with float arrays and returns a bool array, or
    one bool for all points; write ``|`` and ``np.cos``, not ``or`` and
    ``math.cos``, or the call raises numpy's ``TypeError`` or ``ValueError``.
    """

    evaluator: Callable
    backend: Backend = field(default_factory=ExactJet)
    domain_exclusions: Optional[Callable] = None

    def excluded(self, a: float, b: float) -> bool:
        return self.domain_exclusions is not None and bool(self.domain_exclusions(a, b))

    def excluded_mask(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bool array of ``a.shape``, True where the points (a, b) are excluded."""
        return exclusion_mask(self.domain_exclusions, a, b)


def exclusion_mask(is_excluded: Optional[Callable], *coords: np.ndarray) -> np.ndarray:
    """Bool array of ``coords[0].shape``, True where ``is_excluded`` holds at
    the points given by the arrays ``coords`` (none where it is ``None``),
    from one call on the arrays; a single bool holds for every point."""
    shape = coords[0].shape
    if is_excluded is None:
        return np.zeros(shape, dtype=bool)
    mask = np.asarray(is_excluded(*coords), dtype=bool)
    return mask if mask.shape == shape else np.broadcast_to(mask, shape)


def _require_kept(fld: ScalarField2, a, b, message: str) -> None:
    """DomainError naming the first point that ``fld`` excludes among (a, b),
    two numbers or two broadcastable arrays read in C order; the predicate
    gets them broadcast to one shape."""
    if fld.domain_exclusions is None:
        return
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        a, b = np.array(np.broadcast_arrays(a, b))
    mask = fld.excluded_mask(a, b).ravel()
    if mask.any():
        i = int(np.argmax(mask))
        raise DomainError(message.format(a.flat[i].item(), b.flat[i].item()))


def _stencil(a, b, h: float) -> tuple:
    """The a and b coordinates of the nine points of the central-difference
    stencil with step h at (a, b): the point, then its eight neighbours on
    the 3 x 3 square of side 2h; the one place the stencil's shape is written."""
    return ((a, a + h, a - h, a, a, a + h, a + h, a - h, a - h),
            (b, b, b, b + h, b - h, b + h, b - h, b + h, b - h))


def stencil_blocked(fld: ScalarField2, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bool array of ``a.shape``, True where the central-difference stencil of
    ``fld``'s backend at the points (a, b) reaches a point that ``fld``
    excludes, from one predicate call; all False, without a call, for the
    ``ExactJet`` backend or a field without exclusions."""
    if not isinstance(fld.backend, CentralDiff) or fld.domain_exclusions is None:
        return np.zeros(a.shape, dtype=bool)
    sa, sb = _stencil(a, b, fld.backend.h)
    return fld.excluded_mask(np.stack(sa, axis=-1), np.stack(sb, axis=-1)).any(axis=-1)


def _central_jet(fld: ScalarField2, a, b, h: float) -> TJet:
    sa, sb = _stencil(a, b, h)
    if fld.domain_exclusions is not None:
        # stencil on the last axis: the first hit lies in the first (a, b) that has one
        _require_kept(fld, np.stack(sa, axis=-1), np.stack(sb, axis=-1),
                      "stencil point ({}, {}) is excluded")
    f00, fp0, fm0, f0p, f0m, fpp, fpm, fmp, fmm = (
        TJet.coef(fld.evaluator(pa, pb)) for pa, pb in zip(sa, sb))
    return TJet(
        f=f00,
        fx=(fp0 - fm0) / (2 * h),
        ft=(f0p - f0m) / (2 * h),
        fxx=(fp0 - 2 * f00 + fm0) / (h * h),
        fxt=(fpp - fpm - fmp + fmm) / (4 * h * h),
        ftt=(f0p - 2 * f00 + f0m) / (h * h),
    )


def jet(fld: ScalarField2, a, b) -> tuple:
    """``(j, backend)``: the value and all partials to order 2 of ``fld`` at
    (a, b) as a ``TJet`` ``j``, and the backend that computed them, one of
    ``"exact"``, ``"central"`` and ``"central-fallback"``.

    ``a`` and ``b`` are numbers, or broadcastable float arrays for many
    points at once, e.g. a column of a and a row of b; the evaluator then
    runs on those arrays.  With the ``ExactJet`` backend it runs on Taylor
    jets; if it uses primitives outside the supported set (raising
    ``TypeError``) the computation falls back to central differences with
    step ``DEFAULT_CENTRAL_H`` and the backend is ``"central-fallback"``.
    """
    if isinstance(fld.backend, ExactJet):
        _require_kept(fld, a, b, "point ({}, {}) is outside the field domain")
        try:
            out = fld.evaluator(TJet.seed_a(a), TJet.seed_b(b))
        except TypeError:
            return _central_jet(fld, a, b, DEFAULT_CENTRAL_H), "central-fallback"
        return TJet.lift(out), "exact"
    return _central_jet(fld, a, b, fld.backend.h), "central"


def with_backend(fld: ScalarField2, backend: Backend) -> ScalarField2:
    """Same field, different derivative backend."""
    return ScalarField2(fld.evaluator, backend, fld.domain_exclusions)
