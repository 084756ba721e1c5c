"""Lorentzian linear algebra and second-order differentiation of scalar fields.

Conventions used throughout the package:

* ``LVec3`` lives in R^3 with the inner product ``a.x b.x + a.y b.y - a.z b.z``
  (signature +, +, -; the third slot is the timelike axis).
* A ``ScalarField2`` is a complex-valued function of two *real* variables
  (a, b).  "Vanishes" for any residual built from one always means modulus
  below tolerance.
* ``jet`` returns the value and the five partials up to order 2 as a
  :class:`~solitonlab.jetmath.TJet` (``fx`` and ``fxx`` differentiate with
  respect to the first variable, ``ft``/``ftt`` with respect to the second),
  together with the name of the backend that computed them.  It takes one
  point as two numbers or many as broadcastable arrays, e.g. a column of a
  and a row of b; each coefficient is a number or broadcasts to the points.
* The central-difference backend evaluates the stencils of array points in
  one call, a's shifts on a new first axis and b's on a second, and keeps the
  dtype of the values: a real field gives a real jet and a real residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, StencilExcluded
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
    return float arrays while the values stay real.  ``domain_exclusions(a,
    b)`` is True at points that must not be evaluated.  It is called with
    broadcastable float arrays, a whole grid or stencil at once, and returns
    a bool array, or one bool for all points; write ``|`` and ``np.cos``, not
    ``or`` and ``math.cos``, or the call raises ``TypeError`` or ``ValueError``.
    """

    evaluator: Callable
    backend: Backend = field(default_factory=ExactJet)
    domain_exclusions: Optional[Callable] = None

    def excluded(self, a: float, b: float) -> bool:
        return self.domain_exclusions is not None and bool(self.domain_exclusions(a, b))

    def excluded_mask(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bool array of the shape a and b broadcast to, True where the points
        (a, b) are excluded."""
        return exclusion_mask(self.domain_exclusions, a, b)


def exclusion_mask(is_excluded: Optional[Callable], *coords: np.ndarray) -> np.ndarray:
    """Bool array of the shape the arrays ``coords`` broadcast to, True where
    ``is_excluded`` holds at the points they give (none where it is ``None``),
    from one call on the arrays (a sweep's column of a and row of b); a
    smaller result, or one bool for every point, is broadcast."""
    shape = np.broadcast(*coords).shape
    if is_excluded is None:
        return np.zeros(shape, dtype=bool)
    mask = np.asarray(is_excluded(*coords), dtype=bool)
    return mask if mask.shape == shape else np.broadcast_to(mask, shape)


def _require_kept(fld: ScalarField2, a, b, message: str, error=DomainError) -> None:
    """``error`` naming the first point that ``fld`` excludes among (a, b),
    two numbers or two broadcastable arrays read in C order."""
    if fld.domain_exclusions is None:
        return
    mask = fld.excluded_mask(np.asarray(a), np.asarray(b))
    if mask.any():
        i, (a, b) = int(np.argmax(mask)), np.broadcast_arrays(a, b)
        raise error(message.format(a.flat[i].item(), b.flat[i].item()))


def _stencil(a, b, h: float) -> tuple:
    """The central-difference stencils with step h at the points (a, b),
    numbers or broadcastable arrays: a, a + h and a - h on a new first axis,
    b's shifts on a new second; the one place the stencil's shape is written."""
    a, b = np.asarray(a), np.asarray(b)
    a, b = a[(None,) * (b.ndim - a.ndim)], b[(None,) * (a.ndim - b.ndim)]  # align axes
    return np.array((a, a + h, a - h))[:, None], np.array((b, b + h, b - h))[None]


# The stencil's a shifts and b shifts, in the order its exclusions are searched.
_NINE = ((0, 1, 2, 0, 0, 1, 1, 2, 2), (0, 0, 0, 1, 2, 1, 2, 1, 2))


def stencil_blocked(fld: ScalarField2, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bool array of ``a.shape``, True where the central-difference stencil of
    ``fld``'s backend at the points (a, b) reaches a point that ``fld``
    excludes, from one predicate call; all False, without a call, for the
    ``ExactJet`` backend or a field without exclusions."""
    if not isinstance(fld.backend, CentralDiff) or fld.domain_exclusions is None:
        return np.zeros(a.shape, dtype=bool)
    return fld.excluded_mask(*_stencil(a, b, fld.backend.h)).any(axis=(0, 1))


def _central_jet(fld: ScalarField2, a, b, h: float) -> TJet:
    """Central differences with step h: one evaluator call on the arrays of
    ``_stencil``, differenced in the dtype it returns, or nine at numbers."""
    sa, sb = _stencil(a, b, h)
    # the nine points on a last axis: the first hit lies in the first (a, b) that has one
    na, nb = (x.transpose(*range(1, x.ndim), 0) for x in (sa[_NINE[0], 0], sb[0, _NINE[1]]))
    _require_kept(fld, na, nb, "stencil point ({}, {}) is excluded", StencilExcluded)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        F = np.broadcast_to(fld.evaluator(sa, sb), np.broadcast(sa, sb).shape)
    else:  # nine calls on numbers, in stencil order
        values = [TJet.coef(fld.evaluator(x, y)) for x, y in zip(na.tolist(), nb.tolist())]
        F = dict(zip(zip(*_NINE), values))
    f00, real = F[0, 0], np.isrealobj(F[0, 0])
    # a real x / d as numpy divides x as complex, (x + 0*0) * (1/d), signed zeros too
    return TJet(f00, *((x + 0.0) * (1.0 / d) if real else x / d for x, d in (
        (F[1, 0] - F[2, 0], 2 * h), (F[0, 1] - F[0, 2], 2 * h),
        (F[1, 0] - 2 * f00 + F[2, 0], h * h), (F[1, 1] - F[1, 2] - F[2, 1] + F[2, 2], 4 * h * h),
        (F[0, 1] - 2 * f00 + F[0, 2], h * h))))


def jet(fld: ScalarField2, a, b) -> tuple:
    """``(j, backend)``: the value and all partials to order 2 of ``fld`` at
    (a, b) as a ``TJet`` ``j``, and the backend that computed them, one of
    ``"exact"``, ``"central"`` and ``"central-fallback"``.

    ``a`` and ``b`` are numbers, or broadcastable float arrays for many
    points at once, e.g. a column of a and a row of b.  With the ``ExactJet``
    backend the evaluator runs on Taylor jets; if it uses primitives outside
    the supported set (raising ``TypeError``) the computation falls back to
    central differences with step ``DEFAULT_CENTRAL_H``: ``"central-fallback"``.
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
