"""Numerical verification of the two Ramanujan identities and the three
surface-derived identities, with truncation control, tail estimation and
convergence-order measurement.

Every evaluation reports a ``TruncationResult`` carrying the partial
sum/product at K, the closed-form left-hand side, the absolute error and the
observed convergence order (fitted from the errors at K and 2K, or at the
previous K of a table).  ``convergence_order`` builds every table, and
``evaluate`` is its one-row case; an identity is run as
``evaluate(REGISTRY[name], args, K)``.  Products
are accumulated in log space to avoid underflow at large K, in real
arithmetic: log|v| and arg v of the factors are summed separately, with
log|v| taken as log1p(|v|^2 - 1)/2 near |v| = 1, where the factors of a
convergent product lie (Kahan's form, as in ``cmath.log``).  Terms and
factors are evaluated in chunks of ``_CHUNK`` = 2^16, so very large K stay
memory-bounded.

Identity arguments are validity-gated: evaluation at an excluded point raises
``ExcludedPoint`` rather than returning NaN.
"""

from __future__ import annotations

import argparse
import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ExcludedPoint

EXCLUSION_RADIUS = 1e-2
_CHUNK = 1 << 16


class Kind(enum.Enum):
    SUM = "sum"
    PRODUCT = "product"


@dataclass(frozen=True)
class TruncationResult:
    K: int
    partial: complex
    lhs: complex
    abs_err: float
    est_order: float


@dataclass(frozen=True)
class IdentitySpec:
    """One identity: closed-form lhs, the k-th series term (or product
    factor), the k-independent lead term/factor, a validity predicate, the
    names of its arguments (the ``identity`` command's options), whether they
    are real, and an optional closed-form tail estimate."""

    name: str
    lhs: Callable
    rhs_term: Callable  # (k array, args) -> term/factor values
    lead: Callable      # args -> additive lead (SUM) or scalar factor (PRODUCT)
    kind: Kind
    validity: Callable  # args -> bool
    params: tuple = ("zeta",)
    real: bool = False
    tail: Optional[Callable] = None  # (args, K) -> additive estimate of the omitted tail


def _log_sum(v) -> complex:
    """Sum of the principal logs of the factors ``v``: log|v| + i arg v in
    real arithmetic, which is several times cheaper than a complex log.

    log|v| = log1p((x - 1)(x + 1) + y^2)/2 for 1/2 < |v| < 2 keeps the
    digits that log(hypot(x, y)) loses as |v| -> 1: the plain form drifts by
    up to 3e-12 over 10^6 factors.  A zero factor gives -inf."""
    v = np.asarray(v, dtype=complex)
    x, y = v.real, v.imag
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = (x - 1) * (x + 1) + y * y  # |v|^2 - 1
        log_abs = 0.5 * np.log1p(s)
        far = ~((s > -0.75) & (s < 3.0))
        if far.any():
            log_abs[far] = np.log(np.hypot(x[far], y[far]))
    return complex(np.sum(log_abs), np.sum(np.arctan2(y, x)))


def _accumulate(spec: IdentitySpec, args, k_lo: int, k_hi: int) -> complex:
    """Sum of terms (SUM) or of log factors (PRODUCT) for k in [k_lo, k_hi]."""
    total = 0j
    for k in range(k_lo, k_hi + 1, _CHUNK):
        vals = spec.rhs_term(np.arange(k, min(k + _CHUNK - 1, k_hi) + 1), args)
        if spec.kind is Kind.PRODUCT:
            total += _log_sum(vals)
        else:
            total += complex(np.sum(vals))
    return total


def _finish(spec: IdentitySpec, args, acc: complex) -> complex:
    if spec.kind is Kind.PRODUCT:
        return complex(spec.lead(args)) * cmath.exp(acc)
    return complex(spec.lead(args)) + acc


def evaluate(spec: IdentitySpec, args, K: int,
             correction: Optional[Callable] = None) -> TruncationResult:
    """Run the identity at K, the one-row case of ``convergence_order``:
    est_order is fitted from the errors at K and 2K."""
    return convergence_order(spec, args, [K], correction)[0]


# -- the five identities ------------------------------------------------------

def _half_odd_distance(A: complex) -> float:
    """Distance from A to the nearest odd multiple of pi/2."""
    m = round(A.real / math.pi - 0.5)
    return min(abs(A - (2 * m + 1) * math.pi / 2), abs(A - (2 * m + 3) * math.pi / 2),
               abs(A - (2 * m - 1) * math.pi / 2))


def _cos_lhs(args):
    X, A = args
    return cmath.cos(X + A) / cmath.cos(A)


def _cos_term(k, args):
    X, A = args
    c = (k - 0.5) * math.pi
    return (1 - X / (c - A)) * (1 + X / (c + A))


RAM_COS_PRODUCT = IdentitySpec(
    "ram_cos_product", _cos_lhs, _cos_term, lambda args: 1.0, Kind.PRODUCT,
    validity=lambda args: _half_odd_distance(args[1]) > 1e-6,
    params=("X", "A"),
)


def _atan_lhs(args):
    X, A = args
    return math.atan(math.tanh(X) / math.tan(A))


def _atan_term(k, args):
    X, A = args
    return np.arctan(X / (k * math.pi + A)) - np.arctan(X / (k * math.pi - A))


def _pi_multiple_distance(A: float) -> float:
    return abs(A - round(A / math.pi) * math.pi)


def arctan_tail(args, K: int) -> float:
    """Closed-form estimate of the omitted tail: the paired terms behave like
    -2XA/(pi^2 k^2), and sum_{k>K} 1/k^2 = psi'(K + 1)."""
    X, A = args
    return -2.0 * X * A / math.pi ** 2 * _trigamma(K + 1)


def _trigamma(x: float) -> float:
    """psi'(x) for x > 0: the recurrence psi'(x) = psi'(x + 1) + 1/x^2 up to
    x >= 20, then the asymptotic series
    1/x + 1/(2x^2) + 1/(6x^3) - 1/(30x^5) + 1/(42x^7) - 1/(30x^9) + 5/(66x^11)."""
    x = float(x)
    head = 0.0
    while x < 20.0:
        head += 1.0 / (x * x)
        x += 1.0
    y = 1.0 / (x * x)
    tail = y * (1 / 6 - y * (1 / 30 - y * (1 / 42 - y * (1 / 30 - y * 5 / 66))))
    return head + (1.0 + 0.5 / x + tail) / x


RAM_ARCTAN_SUM = IdentitySpec(
    "ram_arctan_sum", _atan_lhs, _atan_term,
    lambda args: math.atan(args[0] / args[1]), Kind.SUM,
    validity=lambda args: _pi_multiple_distance(args[1]) > 1e-6,
    params=("X", "A"), real=True, tail=arctan_tail,
)


def _scherk_xy(zeta: complex):
    x = math.log(abs((zeta + 1) / (zeta - 1)))
    y = math.log(abs((zeta - 1j) / (zeta + 1j)))
    return x, y


def _scherk_lhs(args):
    zeta, = args
    return math.log(abs((zeta * zeta - 1) / (zeta * zeta + 1)))


def _scherk_term(k, args):
    # the two log series of the identity, paired per k: each pair collapses
    # to a real log of a positive ratio
    x, y = _scherk_xy(args[0])
    c2 = ((k - 0.5) * math.pi) ** 2
    return np.log((c2 + y * y) / (c2 + x * x))


SCHERK_IDENTITY = IdentitySpec(
    "scherk_identity", _scherk_lhs, _scherk_term, lambda args: 0.0, Kind.SUM,
    validity=lambda args: min(abs(args[0] - p) for p in (1, -1, 1j, -1j)) > EXCLUSION_RADIUS,
)


def _heli2_lhs(args):
    zeta, = args
    return (zeta + 1 / zeta).imag / (zeta - 1 / zeta).imag


def _heli2_term(k, args):
    L = math.log(abs(args[0]))
    num = ((k - 1) * math.pi + 1j * L) * (k * math.pi - 1j * L)
    den = ((k - 0.5) * math.pi + 1j * L) * ((k - 0.5) * math.pi - 1j * L)
    return num / den


def _heli2_valid(args) -> bool:
    zeta, = args
    if abs(zeta) <= EXCLUSION_RADIUS:
        return False
    if abs(abs(zeta) - 1.0) <= EXCLUSION_RADIUS:
        return False  # ln|zeta| = 0 collapses the k = 1 factor
    return abs((zeta - 1 / zeta).imag) > EXCLUSION_RADIUS


HELICOID2_IDENTITY = IdentitySpec(
    "helicoid2_identity", _heli2_lhs, _heli2_term,
    lambda args: 1 / 1j, Kind.PRODUCT, _heli2_valid,
)


def quadrant_constant(u: float, v: float) -> float:
    """+pi/2 when u and v share a sign or either vanishes, else -pi/2."""
    return 0.5 * math.pi if u * v >= 0 else -0.5 * math.pi


def _lorentz_lhs(args):
    zeta, = args
    R = (zeta + 1 / zeta).real
    I = (zeta - 1 / zeta).imag
    y, x = -0.5 * R, 0.5 * I
    t = math.tanh(y)
    inner = 0.0 if t == 0.0 else math.atan(t / math.tan(x))
    return cmath.log(zeta).imag - inner


def _lorentz_term(k, args):
    zeta, = args
    R = (zeta + 1 / zeta).real
    I = (zeta - 1 / zeta).imag
    return np.arctan(R / (I - 2 * k * math.pi)) + np.arctan(R / (I + 2 * k * math.pi))


def _lorentz_valid(args) -> bool:
    zeta, = args
    if abs(zeta) <= EXCLUSION_RADIUS:
        return False
    if zeta.real <= 0.0 and abs(zeta.imag) <= EXCLUSION_RADIUS:
        return False  # principal-arg branch cut
    return abs((zeta - 1 / zeta).imag) > 1e-9  # cot argument x != 0


# The literal form of the third identity: the lhs uses the principal argument
# Im(log zeta) and the constant follows the quadrant rule.  The defect
# converges to 0 for Re zeta > 0 (and on the upper imaginary axis); in the left
# half-plane the two sides agree modulo pi (the proof's arctan branch), which
# ``convergence mod pi`` tests can assert.
LORENTZ_HELICOID_IDENTITY = IdentitySpec(
    "lorentz_helicoid_identity", _lorentz_lhs, _lorentz_term,
    lambda args: quadrant_constant(args[0].real, args[0].imag),
    Kind.SUM, _lorentz_valid,
)

REGISTRY = {s.name: s for s in (
    RAM_COS_PRODUCT, RAM_ARCTAN_SUM, SCHERK_IDENTITY,
    HELICOID2_IDENTITY, LORENTZ_HELICOID_IDENTITY,
)}


# -- tables -------------------------------------------------------------------

class KListError(ValueError, argparse.ArgumentTypeError):
    """A K list that ``increasing`` rejects; argparse reports its message
    under the option's name."""


def increasing(K_list) -> list:
    """``K_list`` (ints, or their comma-separated text) as a list of ints;
    ``KListError`` unless each K is at least 1 and they strictly increase.
    It is also the argparse type of ``--K``."""
    if isinstance(K_list, str):
        K_list = K_list.split(",")
    Ks = [int(K) for K in K_list]
    if any(K < 1 for K in Ks):
        raise KListError(f"K must be >= 1, got {min(Ks)}")
    if any(k >= nxt for k, nxt in zip(Ks, Ks[1:])):
        raise KListError("K_list must be increasing")
    return Ks


def convergence_order(spec: IdentitySpec, args, K_list,
                      correction: Optional[Callable] = None) -> list:
    """One row per K (strictly increasing), each with the partial sum or
    product S(K), accumulated from k = 1, and its error against the lhs.
    ``args`` become floats for a real identity and complex numbers otherwise,
    so a non-real argument to a real identity raises ``TypeError``.

    ``correction(args, K)`` is an optional additive tail estimate applied
    before measuring the error (the reported partial stays uncorrected), such
    as the spec's ``tail``.
    est_order is fitted from the errors at K and 2K in the first row and in
    every row of a corrected table, and from the previous row's error in the
    other rows; so S(2K) is summed only where it is read."""
    Ks = increasing(K_list)
    args = tuple(map(float if spec.real else complex, args))
    if not spec.validity(args):
        raise ExcludedPoint(f"{spec.name}: arguments {args!r} violate the "
                            "identity's hypotheses")
    lhs = complex(spec.lhs(args))

    def err(acc, K):
        p = _finish(spec, args, acc)
        if correction is not None:
            p = p + correction(args, K)
        return abs(p - lhs)

    out = []
    for K in Ks:
        acc = _accumulate(spec, args, 1, K)
        e = err(acc, K)
        if not out or correction is not None:
            e2 = err(acc + _accumulate(spec, args, K + 1, 2 * K), 2 * K)
            order = math.log2(e / e2) if e > 0 and e2 > 0 else math.inf
        else:
            prev = out[-1]
            order = (math.log(prev.abs_err / e) / math.log(K / prev.K)
                     if prev.abs_err > 0 and e > 0 else math.inf)
        out.append(TruncationResult(K, _finish(spec, args, acc), lhs, e, order))
    return out
