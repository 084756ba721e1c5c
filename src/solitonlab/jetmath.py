"""Taylor-jet arithmetic of order 2 for complex-valued functions of two real
variables.

A ``TJet`` carries the value and all partial derivatives up to order 2 of a
function f(a, b) at a point, with complex coefficients.  Propagating jets
through an expression built from the primitives below yields derivatives
that are exact up to roundoff (no truncation error).

Jet coefficients are either Python ``complex`` numbers (one point) or numpy
``complex128`` arrays (one entry per point, as in Taylor-mode propagation
over a whole grid); the arithmetic below broadcasts, and a jet may mix
scalar and array coefficients.  The one exception is the central-difference
jet that :mod:`~solitonlab.core` differences from a real field's ``float64``
stencil values: its coefficients are ``float64`` arrays, which the residual
and classification formulas read and no primitive propagates.

A Python-number coefficient of an array jet holds at every point (only seeds,
constants and their sums and products with numbers put numbers there), so a
zero there is a *structural zero*, as ``ft`` of ``TJet.seed_a(a)``.  The chain
rule keeps it ``0j`` instead of multiplying it by g' or g'' into an array, so
the partials of a term in a alone keep the shape of a's column; that is exact
also where g' is not finite.  A scalar jet's ``0j`` may be a numerical zero, so
scalar jets, the reference the array path is tested against, multiply every
slot through, as ``__mul__`` does for both.  So the paths part at a primitive
singular on a constant term: for sqrt(a - a) + b a sweep reads a finite
residual where the point path raises ``ZeroDivisionError`` (a strict xfail).

Jets are values.  Every operation returns a new jet and leaves its operands
as they were; a result may share a coefficient, array or number, with an
operand, so code never assigns to a coefficient or writes into its array.
``TJet`` is a plain slots class rather than a frozen dataclass because a
check at one point builds thousands of scalar jets, and a frozen
``__init__``, which sets each of the six slots through
``object.__setattr__``, costs about four times a plain one.  Jets compare
coefficient by coefficient and are not hashable.

Each primitive (``exp``, ``log``, ``atan``, ...) is made by ``_primitive``,
the one place the dispatch order is written: a plain number (``int``,
``float``, ``complex``) goes straight to :mod:`cmath`, a ``TJet`` through the
chain rule, which evaluates with :mod:`cmath` or numpy to match its
coefficients, and an array through the numpy ufunc of the same function.
The number test comes first, so a scalar call costs one ``isinstance`` test
on top of :mod:`cmath`; ``re`` and ``im`` of a Python ``complex`` return its
``.real``/``.imag`` at once.  Field evaluators written against these
functions can therefore be called with numbers, complex numbers, arrays or
jets interchangeably.

Arrays follow :mod:`numpy.emath`, entry by entry.  An integer or float array
goes through the real ufunc (``power`` too); only the entries where that
gives NaN and the input has none (log or sqrt of a negative, atanh beyond
+-1) are evaluated again, by the complex ufunc on the entry as ``complex128``,
and the result is then complex, the other entries their real values plus 0j.
So an entry's value does not depend on the entries that share its array, as
a block's stencil of a central-difference sweep.  Real ufuncs cost a fraction
of complex ones, which is what makes the stencil evaluations of a
central-difference jet cheap.  One consequence: a real intermediate carries
no ``-0j`` imaginary part, so ``log`` of a negative entry is the principal
``+i pi``, as ``cmath.log(-1.0)`` gives; derivatives do not change.  Complex
arrays go straight to the complex ufunc, and jets seeded by ``TJet.coef``
have complex coefficients, so the chain rules never take the real path.

Divisions in the chain rules and in ``TJet`` reciprocals go through the
coefficient's library: Python's ``/`` for numbers, and for arrays ``_cdiv``,
which rounds each entry as CPython's complex division does (Smith's
algorithm, R. L. Smith, CACM 5(8), 1962, as in ``_Py_c_quot``), signed zeros
included.  numpy divides by scaling with the divisor's reciprocal, which
differs in the last ulp.  With ``_cdiv``, an array jet rounds as the scalar
jets of its points wherever numpy's ufuncs agree with cmath and no product
has two non-real factors: numpy fuses that product into a multiply-add on
CPUs that have one, CPython does not.

``conj``, ``re`` and ``im`` act coefficient-wise; this is valid because the
jet variables are real, so conjugation commutes with differentiation.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

_NUMBER = (complex, float, int)  # complex first: the commonest at the primitives' dispatch

# Below this many divisors, dividing a number by each of them in Python is
# faster than the dozen array operations of _cdiv's vector form.
_SMALL = 100


def _cdiv(a, d):
    """``a / d`` for a complex array ``d`` (``a`` a number or an array), rounded
    entry by entry as CPython divides two complex numbers (``_Py_c_quot``:
    Smith's algorithm, including its signed zeros).  numpy scales by the
    reciprocal of the divisor instead, which differs in the last ulp.  A zero
    divisor gives nan where CPython raises ``ZeroDivisionError``."""
    if isinstance(a, np.ndarray):
        ar, ai = a.real, a.imag
    else:
        a = complex(a)
        if d.size < _SMALL:
            try:
                return np.array([a / x for x in d.ravel().tolist()], dtype=complex).reshape(d.shape)
            except ZeroDivisionError:
                pass
        ar, ai = a.real, a.imag
    p, q = d.real, d.imag
    swap = np.abs(q) > np.abs(p)  # CPython's second branch
    if np.count_nonzero(swap):
        # a / d = (a / i) / (d / i) takes the second branch to the first,
        # exactly: dividing by i swaps the parts and negates one.
        p, q = np.where(swap, q, p), np.where(swap, -p, q)
        ar, ai = np.where(swap, ai, ar), np.where(swap, -ar, ai)
    ratio = q / p
    denom = p + q * ratio
    re_ = (ar + ai * ratio) / denom
    out = np.empty(re_.shape, dtype=complex)
    out.real = re_
    out.imag = (ai - ar * ratio) / denom
    return out


# The function library of a coefficient, under cmath's names: cmath and
# Python's division for numbers, numpy's ufuncs and _cdiv for arrays.
# ``_primitive`` enters each primitive's pair; only the division is set here.
_CM = SimpleNamespace(div=operator.truediv)
_NP = SimpleNamespace(div=_cdiv)


def _math(c):
    """The function library for a coefficient: numpy for arrays, else cmath
    (each with its division)."""
    return _NP if isinstance(c, np.ndarray) else _CM


def _real_coef(x):
    """A real coefficient as a complex one, keeping the sign of zero."""
    return x.astype(complex) if isinstance(x, np.ndarray) else complex(x)


def _chain(*terms):
    """The sum, left to right, of the products g * c * ... of ``terms``, each
    (g, c, ...), that have no structural-zero factor c; ``0j`` if none is left."""
    out = 0j
    for g, *cs in terms:
        for c in cs:
            if type(c) is complex and not c:
                break
            g = g * c
        else:
            out = g if type(out) is complex and not out else out + g
    return out


@dataclass(slots=True)
class TJet:
    """Taylor jet of f(a, b): value, gradient and Hessian entries.

    Each coefficient is a ``complex`` or a ``complex128`` array, or, in a
    central-difference jet of a real field, a ``float64`` array.  A jet is a
    value (see the module notes): never assign to a coefficient.  Jets are
    not hashable."""

    f: complex
    fx: complex = 0j  # d/da
    ft: complex = 0j  # d/db
    fxx: complex = 0j
    fxt: complex = 0j
    ftt: complex = 0j

    @staticmethod
    def coef(x):
        """``x`` as a jet coefficient: an array becomes ``complex128``, anything
        else a Python ``complex``."""
        return np.asarray(x, dtype=complex) if isinstance(x, np.ndarray) else complex(x)

    @staticmethod
    def lift(x) -> "TJet":
        """``x`` if it is a jet, else the constant jet of ``x``."""
        return x if isinstance(x, TJet) else TJet(TJet.coef(x))

    @staticmethod
    def seed_a(a) -> "TJet":
        """Jet of the coordinate function (a, b) -> a; ``a`` may be an array."""
        return TJet(TJet.coef(a), 1.0 + 0j)

    @staticmethod
    def seed_b(b) -> "TJet":
        """Jet of the coordinate function (a, b) -> b; ``b`` may be an array."""
        return TJet(TJet.coef(b), 0j, 1.0 + 0j)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TJet):
            return TJet(self.f + other.f, self.fx + other.fx, self.ft + other.ft,
                        self.fxx + other.fxx, self.fxt + other.fxt, self.ftt + other.ftt)
        if isinstance(other, _NUMBER):
            return TJet(self.f + other, self.fx, self.ft, self.fxx, self.fxt, self.ftt)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._map(operator.neg)

    # Subtraction builds its jet directly: IEEE a - b is a + (-b), bit for
    # bit, so these round as adding the negation does.
    def __sub__(self, other):
        if isinstance(other, TJet):
            return TJet(self.f - other.f, self.fx - other.fx, self.ft - other.ft,
                        self.fxx - other.fxx, self.fxt - other.fxt, self.ftt - other.ftt)
        if isinstance(other, _NUMBER):
            return TJet(self.f - complex(other), self.fx, self.ft, self.fxx, self.fxt, self.ftt)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return TJet(complex(other) - self.f, -self.fx, -self.ft,
                        -self.fxx, -self.fxt, -self.ftt)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, TJet):
            s, o = self, other
            return TJet(
                s.f * o.f,
                s.fx * o.f + s.f * o.fx,
                s.ft * o.f + s.f * o.ft,
                s.fxx * o.f + 2 * s.fx * o.fx + s.f * o.fxx,
                s.fxt * o.f + s.fx * o.ft + s.ft * o.fx + s.f * o.fxt,
                s.ftt * o.f + 2 * s.ft * o.ft + s.f * o.ftt,
            )
        if isinstance(other, _NUMBER):
            c = complex(other)
            return TJet(self.f * c, self.fx * c, self.ft * c,
                        self.fxx * c, self.fxt * c, self.ftt * c)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TJet):
            return self * other._reciprocal()
        if isinstance(other, _NUMBER):
            return self * (1.0 / complex(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            return self._reciprocal() * complex(other)
        return NotImplemented

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            return self._int_pow(int(p))
        if isinstance(p, _NUMBER):
            w = self.f ** p
            return self._compose(w, p * self.f ** (p - 1), p * (p - 1) * self.f ** (p - 2))
        return NotImplemented

    # -- composition helpers ----------------------------------------------

    def _compose(self, g0, g1, g2) -> "TJet":
        """Chain rule for g(self) given g, g', g'' at self.f; an array jet's
        structural zeros (module notes) stay ``0j``, their terms dropped."""
        x, t = self.fx, self.ft
        if isinstance(self.f, np.ndarray):
            return TJet(g0, _chain((g1, x)), _chain((g1, t)), _chain((g2, x, x), (g1, self.fxx)),
                        _chain((g2, x, t), (g1, self.fxt)), _chain((g2, t, t), (g1, self.ftt)))
        return TJet(g0, g1 * x, g1 * t, g2 * x * x + g1 * self.fxx,
                    g2 * x * t + g1 * self.fxt, g2 * t * t + g1 * self.ftt)

    def _reciprocal(self) -> "TJet":
        # A scalar 1/0 raises ZeroDivisionError, by design; an array entry
        # becomes inf/nan and is caught by the finiteness check of the caller.
        w = _math(self.f).div(1.0, self.f)
        return self._compose(w, -w * w, 2 * w * w * w)

    def _int_pow(self, n: int) -> "TJet":
        if n == 0:
            return TJet(1.0 + 0j)
        if n < 0:
            return self._int_pow(-n)._reciprocal()
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # -- coefficient-wise maps (valid for real jet variables) -------------

    def _map(self, g) -> "TJet":
        """``g`` of each coefficient."""
        return TJet(g(self.f), g(self.fx), g(self.ft), g(self.fxx), g(self.fxt), g(self.ftt))

    def conjugate(self) -> "TJet":
        return self._map(lambda c: c.conjugate())

    def real_part(self) -> "TJet":
        return self._map(lambda c: _real_coef(c.real))

    def imag_part(self) -> "TJet":
        return self._map(lambda c: _real_coef(c.imag))


def _real_first(array_fn, z, *args):
    """``array_fn(z, *args)`` for an array ``z`` and numbers ``args``, entry by
    entry as :mod:`numpy.emath` decides: for an integer or float ``z`` by the
    real ufunc, except where that gives NaN and ``z`` is not NaN, which are
    evaluated again by the complex ufunc on ``z + 0j`` (the result is then
    complex, its other entries the real values plus 0j); for any other array
    by the complex ufunc on ``z`` as ``complex128``."""
    if z.dtype.kind not in "iuf":
        return array_fn(np.asarray(z, dtype=complex), *args)
    x = z.astype(float) if z.dtype.kind != "f" else z
    with np.errstate(invalid="ignore"):
        w = array_fn(x, *args)
    out = np.isnan(w) & ~np.isnan(x)
    if not out.any():
        return w
    w = w.astype(complex)
    w[out] = array_fn(x[out].astype(complex), *args)
    return w


def _primitive(name, number_fn, array_fn, rule):
    """The primitive ``name``, the one place the dispatch order is written: a
    plain number goes to ``number_fn`` (from :mod:`cmath`), a ``TJet`` to
    ``rule(jet, library)`` with the library of its coefficients, an array to
    the ufunc ``array_fn`` through ``_real_first``.  Enters ``number_fn`` and
    ``array_fn`` into ``_CM`` and ``_NP`` under ``name``."""
    setattr(_CM, name, number_fn)
    setattr(_NP, name, array_fn)

    def primitive(z):
        if isinstance(z, _NUMBER):
            return number_fn(z)
        if isinstance(z, TJet):
            return rule(z, _math(z.f))
        if isinstance(z, np.ndarray):
            return _real_first(array_fn, z)
        raise TypeError(f"unsupported operand type {type(z).__name__!r}")

    primitive.__name__ = primitive.__qualname__ = name
    return primitive


# Chain rules, rule(jet, library): g(jet) from g, g' and g'' at jet.f, with
# the library (cmath or the numpy names in _NP) that matches jet.f.

def _exp_rule(j, m):
    w = m.exp(j.f)
    return j._compose(w, w, w)


def _log_rule(j, m):
    w = m.div(1.0, j.f)
    return j._compose(m.log(j.f), w, -w * w)


def _sqrt_rule(j, m):
    r = m.sqrt(j.f)
    return j._compose(r, m.div(0.5, r), m.div(-0.25, j.f * r))


def _sin_rule(j, m):
    s, c = m.sin(j.f), m.cos(j.f)
    return j._compose(s, c, -s)


def _cos_rule(j, m):
    s, c = m.sin(j.f), m.cos(j.f)
    return j._compose(c, -s, -c)


def _tan_rule(j, m):
    t = m.tan(j.f)
    sec2 = 1 + t * t
    return j._compose(t, sec2, 2 * t * sec2)


def _sinh_rule(j, m):
    s, c = m.sinh(j.f), m.cosh(j.f)
    return j._compose(s, c, s)


def _cosh_rule(j, m):
    s, c = m.sinh(j.f), m.cosh(j.f)
    return j._compose(c, s, c)


def _tanh_rule(j, m):
    t = m.tanh(j.f)
    sech2 = 1 - t * t
    return j._compose(t, sech2, -2 * t * sech2)


def _atan_rule(j, m):
    d = 1 + j.f * j.f
    return j._compose(m.atan(j.f), m.div(1, d), m.div(-2 * j.f, d * d))


def _atanh_rule(j, m):
    d = 1 - j.f * j.f
    return j._compose(m.atanh(j.f), m.div(1, d), m.div(2 * j.f, d * d))


def _asinh_rule(j, m):
    d = 1 + j.f * j.f
    r = m.sqrt(d)
    return j._compose(m.asinh(j.f), m.div(1, r), m.div(-j.f, d * r))


exp = _primitive("exp", cmath.exp, np.exp, _exp_rule)
log = _primitive("log", cmath.log, np.log, _log_rule)
sqrt = _primitive("sqrt", cmath.sqrt, np.sqrt, _sqrt_rule)
sin = _primitive("sin", cmath.sin, np.sin, _sin_rule)
cos = _primitive("cos", cmath.cos, np.cos, _cos_rule)
tan = _primitive("tan", cmath.tan, np.tan, _tan_rule)
sinh = _primitive("sinh", cmath.sinh, np.sinh, _sinh_rule)
cosh = _primitive("cosh", cmath.cosh, np.cosh, _cosh_rule)
tanh = _primitive("tanh", cmath.tanh, np.tanh, _tanh_rule)
atan = _primitive("atan", cmath.atan, np.arctan, _atan_rule)
atanh = _primitive("atanh", cmath.atanh, np.arctanh, _atanh_rule)
asinh = _primitive("asinh", cmath.asinh, np.arcsinh, _asinh_rule)


def power(z, p):
    if isinstance(z, TJet):
        return z ** p
    if isinstance(z, np.ndarray):
        return _real_first(operator.pow, z, p)
    return complex(z) ** p


def conj(z):
    return z.conjugate()


def re(z):
    if type(z) is complex:
        return z.real
    if isinstance(z, TJet):
        return z.real_part()
    if isinstance(z, np.ndarray):
        return z.real
    return complex(z).real


def im(z):
    if type(z) is complex:
        return z.imag
    if isinstance(z, TJet):
        return z.imag_part()
    if isinstance(z, np.ndarray):
        return z.imag
    return complex(z).imag
