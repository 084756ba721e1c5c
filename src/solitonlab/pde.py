"""Residual evaluators for the three graph PDEs, the Wick-rotation operators
connecting their solution sets, and the catalog of exact solutions.

The three equations, for a field u(a, b) with jets taken in (a, b):

* Born-Infeld:  (1 + u_a^2) u_bb - 2 u_a u_b u_ab + (u_b^2 - 1) u_aa = 0
* maximal:      (1 - u_a^2) u_bb + 2 u_a u_b u_ab + (1 - u_b^2) u_aa = 0
* minimal:      (1 + u_a^2) u_bb - 2 u_a u_b u_ab + (1 + u_b^2) u_aa = 0

Substituting a -> i a carries maximal solutions to Born-Infeld solutions and
back; substituting b -> i b does the same for minimal solutions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jetmath as jm
from .core import ExactJet, ScalarField2, jet
from .errors import DomainError, UnknownSurface, UnsupportedEvaluator

DEFAULT_MARGIN = 1e-2


class Equation(enum.Enum):
    BORN_INFELD = "born_infeld"
    MAXIMAL = "maximal"
    MINIMAL = "minimal"


@dataclass(frozen=True)
class SolutionEntry:
    name: str
    field: ScalarField2
    equation: Equation
    domain_note: str


def _residual_from_jet(j: jm.TJet, equation: Equation) -> complex:
    """The residual of ``equation`` from the coefficients of ``j``, the jet
    of u in (a, b); the one formula behind every residual in the package."""
    if equation is Equation.BORN_INFELD:
        return (1 + j.fx ** 2) * j.ftt - 2 * j.fx * j.ft * j.fxt + (j.ft ** 2 - 1) * j.fxx
    if equation is Equation.MAXIMAL:
        return (1 - j.fx ** 2) * j.ftt + 2 * j.fx * j.ft * j.fxt + (1 - j.ft ** 2) * j.fxx
    return (1 + j.fx ** 2) * j.ftt - 2 * j.fx * j.ft * j.fxt + (1 + j.ft ** 2) * j.fxx


def equation_residual(fld: ScalarField2, equation: Equation, a: float, b: float) -> complex:
    """The residual of ``equation`` for ``fld`` at the point (a, b)."""
    return _residual_from_jet(jet(fld, a, b)[0], equation)


# -- Wick rotations -------------------------------------------------------

def _require_exact(fld: ScalarField2, what: str) -> None:
    if not isinstance(fld.backend, ExactJet):
        raise UnsupportedEvaluator(
            f"{what} needs an ExactJet-backed evaluator so the complex "
            "substitution is well-defined"
        )


def wick_rotate_x(fld: ScalarField2) -> ScalarField2:
    """The field (a, b) -> fld(i a, b).  Maps maximal solutions to Born-Infeld
    solutions and conversely."""
    _require_exact(fld, "wick_rotate_x")
    ev = fld.evaluator
    return ScalarField2(lambda a, b: ev(1j * a, b), fld.backend)


def wick_rotate_t(fld: ScalarField2) -> ScalarField2:
    """The field (a, b) -> fld(a, i b).  Maps Born-Infeld solutions to minimal
    solutions and conversely."""
    _require_exact(fld, "wick_rotate_t")
    ev = fld.evaluator
    return ScalarField2(lambda a, b: ev(a, 1j * b), fld.backend)


# -- grids and reports -----------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    a_min: float
    a_max: float
    b_min: float
    b_max: float
    na: int
    nb: int

    def __post_init__(self):
        if self.na < 2 or self.nb < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if not all(map(math.isfinite, (self.a_min, self.a_max, self.b_min, self.b_max))):
            raise ValueError("grid bounds must be finite")

    def axes(self) -> tuple:
        """The a of each row and the b of each column, float arrays."""
        da = (self.a_max - self.a_min) / (self.na - 1)
        db = (self.b_max - self.b_min) / (self.nb - 1)
        return self.a_min + np.arange(self.na) * da, self.b_min + np.arange(self.nb) * db

    def step(self) -> float:
        return max((self.a_max - self.a_min) / (self.na - 1),
                   (self.b_max - self.b_min) / (self.nb - 1))

    def as_text(self) -> str:
        """The spec for ``parse``: each bound in ``:g``, or in ``repr`` where
        ``:g`` would lose digits."""
        texts = []
        for x in (self.a_min, self.a_max, self.b_min, self.b_max):
            short = f"{x:g}"
            texts.append(short if float(short) == x else repr(float(x)))
        return ":".join(texts) + f":{self.na}:{self.nb}"

    @staticmethod
    def parse(text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError("grid spec must be a_min:a_max:b_min:b_max:na:nb")
        return GridSpec(float(parts[0]), float(parts[1]), float(parts[2]),
                        float(parts[3]), int(parts[4]), int(parts[5]))


@dataclass
class ResidualReport:
    points: np.ndarray  # (n, 2): the evaluated (a, b) points, in order
    residuals: np.ndarray
    max_abs: float
    backend: str
    excluded_count: int
    name: str = ""
    equation: str = ""
    grid_spec: str = ""
    worst_point: Optional[tuple] = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "equation": self.equation,
            "backend": self.backend,
            "grid_spec": self.grid_spec,
            "max_abs": self.max_abs,
            "worst_point": list(self.worst_point) if self.worst_point else None,
            "excluded_count": self.excluded_count,
        }


def summarize(points, residuals, backend: str, excluded_count: int,
              name: str = "", equation: str = "", grid_spec: str = "") -> ResidualReport:
    """The report of residuals evaluated at ``points``, (a, b) pairs.  A
    non-finite residual counts as infinitely large, so it fails every
    tolerance; the worst point is the last maximum in the order of ``points``."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    residuals = np.asarray(residuals, dtype=complex)
    max_abs, at = 0.0, None
    if len(points):
        mags = _nan_as_inf(residuals)
        last = len(mags) - 1 - int(np.argmax(mags[::-1]))
        max_abs, at = float(mags[last]), tuple(points[last].tolist())
    return ResidualReport(points, residuals, max_abs, backend, excluded_count,
                          name=name, equation=equation, grid_spec=grid_spec,
                          worst_point=at)


def _nan_as_inf(values) -> np.ndarray:
    """|values| as a float array, with NaN counted as infinitely large."""
    mags = np.abs(np.asarray(values, dtype=complex))
    mags[np.isnan(mags)] = np.inf
    return mags


def worst(mags) -> float:
    """The largest of the magnitudes ``mags`` by the rule of ``summarize``:
    NaN counts as infinitely large, so a check that went wrong fails every
    tolerance.  0.0 for no magnitudes.  Taken on Python numbers: for float
    magnitudes this is ``float(_nan_as_inf(mags).max(initial=0.0))`` bit for
    bit, without numpy's call cost on a handful of values."""
    return float(max([0.0, *(math.inf if m != m else abs(m) for m in mags)]))


# Kept points per array pass of a sweep: bounds the memory its temporaries take.
_BLOCK = 8192
# Errors that make a point singular (its jet NaN), not the sweep wrong.
SINGULAR = (ZeroDivisionError, OverflowError, ValueError)


def _point_jets(fld: ScalarField2, a, b) -> tuple:
    """(j, backends): the array jet of the points (a, b), stacked from one
    ``core.jet`` call per point with Python floats, NaN where that call raises
    one of ``SINGULAR``, and the backends that computed the other points."""
    coefs = np.full((6, len(a)), complex(math.nan, math.nan))
    backends = set()
    for i, (pa, pb) in enumerate(zip(a.tolist(), b.tolist())):
        try:
            j, backend = jet(fld, pa, pb)
        except SINGULAR:
            continue
        coefs[:, i] = (j.f, j.fx, j.ft, j.fxx, j.fxt, j.ftt)
        backends.add(backend)
    return jm.TJet(*coefs), backends


def kept_points(a: np.ndarray, b: np.ndarray, keep: np.ndarray) -> tuple:
    """The a and b of the points that the (len(a), len(b)) mask keeps, in grid order."""
    return np.repeat(a, np.count_nonzero(keep, axis=1)), np.broadcast_to(b, keep.shape)[keep]


def sweep_blocks(fld: ScalarField2, a: np.ndarray, b: np.ndarray, keep: np.ndarray,
                 counts: list, out: np.ndarray, from_jet) -> set:
    """Fill ``out`` with ``from_jet(j, shape)`` for the array jet ``j`` of
    each block of the points (a[i], b[k]) of a grid that ``keep``, a bool
    array of shape (len(a), len(b)) with ``counts`` kept points per row,
    keeps, under ``np.errstate(all="ignore")``; return the names of the
    backends ``core.jet`` used.

    A block is a run of whole rows with at most ``_BLOCK`` kept points, or
    one row wider than that.  A block whose kept points are all the points of
    its kept rows and kept columns (it drops whole rows or columns, or none)
    is evaluated on a column of those rows' a and a row of those columns' b,
    views of the axes when it drops nothing, so a term in a alone is computed
    once per row and one in b alone once per column: ``shape`` is (r, c),
    and ``j``'s coefficients keep the shapes they were evaluated in, (r, 1),
    (1, c), (r, c) or none.  Other blocks run on their kept points as flat
    arrays, ``shape`` (n,).  The elementwise ``from_jet`` returns values that
    broadcast to ``shape + out.shape[1:]``; they are written into the block's
    n entries of ``out`` through a view of that shape, in grid order.
    When the evaluator rejects arrays, a stencil touches an excluded point,
    or the block raises ``ZeroDivisionError`` or ``OverflowError``, ``j`` is
    stacked from its kept points one at a time (``_point_jets``, ``shape``
    (n,)): NaN where a point raises one of ``SINGULAR``; any other error
    raises.  So ``from_jet`` is the sweep's one reducer, and the first point
    that raises is the first in grid order."""
    used, r1, s = set(), 0, 0
    while r1 < len(counts):
        r0, n, r1 = r1, counts[r1], r1 + 1
        while r1 < len(counts) and n + counts[r1] <= _BLOCK:
            r1, n = r1 + 1, n + counts[r1]
        if n == 0:
            continue
        if n == (r1 - r0) * len(b):  # every point of its rows
            ba, bb, shape = a[r0:r1, None], b[None, :], (r1 - r0, len(b))
        else:
            rows, cols = keep[r0:r1].any(axis=1), keep[r0:r1].any(axis=0)
            if n == np.count_nonzero(rows) * np.count_nonzero(cols):  # (kept rows) x (kept columns)
                ba, bb = a[r0:r1][rows, None], b[None, cols]
                shape = (len(ba), bb.shape[1])
            else:
                (ba, bb), shape = kept_points(a[r0:r1], b, keep[r0:r1]), (n,)
        with np.errstate(all="ignore"):
            try:
                j, backend = jet(fld, ba, bb)
                backends = {backend}
            except (TypeError, ValueError, DomainError, ZeroDivisionError, OverflowError):
                # math.cos or the truth of an array, a stencil on an excluded
                # point, or a scalar zero divisor or overflow (fails each point too)
                j, backends = _point_jets(fld, *kept_points(a[r0:r1], b, keep[r0:r1]))
                shape = (n,)
            out[s:s + n].reshape(shape + out.shape[1:])[...] = from_jet(j, shape)
        used |= backends
        s += n
    return used


def residual_sweep(fld: ScalarField2, equation: Equation, grid: GridSpec,
                   name: str = "") -> ResidualReport:
    """Evaluate the residual of ``equation`` over the grid, skipping the
    points that the exclusion predicate, called once on a column of a and a
    row of b, excludes.  Kept points are evaluated in array blocks of whole
    rows (``sweep_blocks``, reduced by ``_residual_from_jet`` itself); the
    residuals and their (n, 2) points come back in grid order, NaN at a
    singular point.  A stencil that reaches an excluded point raises."""
    a, b = grid.axes()
    keep = ~fld.excluded_mask(a[:, None], b[None, :])
    counts = np.count_nonzero(keep, axis=1).tolist()
    residuals = np.empty(sum(counts), dtype=complex)
    used = sweep_blocks(fld, a, b, keep, counts, residuals,
                        lambda j, shape: _residual_from_jet(j, equation))
    if isinstance(fld.backend, ExactJet):
        backend = "exact+central-fallback" if "central-fallback" in used else "exact"
    else:
        backend = f"central(h={fld.backend.h:g})"
    points = np.empty((len(residuals), 2))
    if len(points) == keep.size:  # every point: the axes broadcast into a view
        grid_points = points.reshape(len(a), len(b), 2)
        grid_points[..., 0], grid_points[..., 1] = a[:, None], b
    else:
        points[:, 0], points[:, 1] = kept_points(a, b, keep)
    return summarize(points, residuals, backend, keep.size - len(residuals), name=name,
                     equation=equation.value, grid_spec=grid.as_text())


# -- catalog ---------------------------------------------------------------

def _field(ev, exclusions=None) -> ScalarField2:
    return ScalarField2(ev, ExactJet(), exclusions)


def _nonzero_k(k: float, name: str) -> None:
    if k == 0:
        raise ValueError(f"{name} needs k != 0")


def helicoid_first_kind_field(k: float = 1.0, margin: float = DEFAULT_MARGIN) -> ScalarField2:
    _nonzero_k(k, "helicoid_first_kind")
    return _field(lambda a, b: jm.atan(b / a) / k,
                  lambda a, b: abs(a) <= margin)


def helicoid_second_kind_field(k: float = 1.0) -> ScalarField2:
    return _field(lambda a, b: a * jm.tanh(k * b))


def lorentzian_catenoid_field(margin: float = DEFAULT_MARGIN) -> ScalarField2:
    return _field(lambda a, b: jm.asinh(jm.sqrt(a * a + b * b)),
                  lambda a, b: a * a + b * b <= margin * margin)


def scherk_first_kind_field() -> ScalarField2:
    return _field(lambda a, b: jm.log(jm.cosh(b)) - jm.log(jm.cosh(a)))


def wick_helicoid_first_kind_field(k: float = 1.0, margin: float = DEFAULT_MARGIN) -> ScalarField2:
    _nonzero_k(k, "wick_helicoid_first_kind")
    return _field(lambda a, b: -1j / k * jm.atanh(b / a),
                  lambda a, b: (abs(a) <= margin) | (abs(b) >= abs(a) * (1 - margin)))


def wick_helicoid_second_kind_field(k: float = 1.0) -> ScalarField2:
    return _field(lambda a, b: 1j * a * jm.tanh(k * b))


def wick_scherk_field(margin: float = DEFAULT_MARGIN) -> ScalarField2:
    return _field(lambda a, b: jm.log(jm.cosh(b)) - jm.log(jm.cos(a)),
                  lambda a, b: abs(np.cos(a)) <= margin)


def wick_lorentzian_catenoid_field(margin: float = DEFAULT_MARGIN) -> ScalarField2:
    # Wick rotation of the Lorentzian catenoid; real where |b| > |a|.
    return _field(lambda a, b: jm.asinh(jm.sqrt(b * b - a * a)),
                  lambda a, b: abs(b) - abs(a) <= margin)


def helicoid_minimal_field(margin: float = DEFAULT_MARGIN) -> ScalarField2:
    return _field(lambda a, b: jm.atan(b / a),
                  lambda a, b: abs(a) <= margin)


def scherk_minimal_field(margin: float = DEFAULT_MARGIN) -> ScalarField2:
    return _field(lambda a, b: jm.log(jm.cos(b)) - jm.log(jm.cos(a)),
                  lambda a, b: (abs(np.cos(a)) <= margin) | (abs(np.cos(b)) <= margin))


# name -> (builder, the arguments of ``solution`` it takes, equation, domain)
_CATALOG_BUILDERS = {
    "helicoid_first_kind": (
        helicoid_first_kind_field, ("k", "margin"), Equation.MAXIMAL,
        "a != 0; k != 0 (default 1)"),
    "helicoid_second_kind": (
        helicoid_second_kind_field, ("k",), Equation.MAXIMAL, "entire plane"),
    "lorentzian_catenoid": (
        lorentzian_catenoid_field, ("margin",), Equation.MAXIMAL, "(a, b) != (0, 0)"),
    "scherk_first_kind": (scherk_first_kind_field, (), Equation.MAXIMAL, "entire plane"),
    "wick_helicoid_first_kind": (
        wick_helicoid_first_kind_field, ("k", "margin"), Equation.BORN_INFELD,
        "|b| < |a| (conservative implementation choice)"),
    "wick_helicoid_second_kind": (
        wick_helicoid_second_kind_field, ("k",), Equation.BORN_INFELD, "entire plane"),
    "wick_scherk": (wick_scherk_field, ("margin",), Equation.BORN_INFELD, "cos a != 0"),
    "wick_lorentzian_catenoid": (
        wick_lorentzian_catenoid_field, ("margin",), Equation.BORN_INFELD, "|b| > |a|"),
    "helicoid_minimal": (helicoid_minimal_field, ("margin",), Equation.MINIMAL, "a != 0"),
    "scherk_minimal": (
        scherk_minimal_field, ("margin",), Equation.MINIMAL, "cos a != 0, cos b != 0"),
}

# Default sweep grids keep a safe distance from each entry's singular locus.
DEFAULT_GRIDS = {
    "helicoid_first_kind": GridSpec(0.5, 2.5, -1.0, 1.0, 41, 41),
    "helicoid_second_kind": GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41),
    "lorentzian_catenoid": GridSpec(0.5, 2.0, -1.0, 1.0, 41, 41),
    "scherk_first_kind": GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41),
    "wick_helicoid_first_kind": GridSpec(1.0, 3.0, -0.6, 0.6, 41, 41),
    "wick_helicoid_second_kind": GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41),
    "wick_scherk": GridSpec(-1.2, 1.2, -1.0, 1.0, 41, 41),
    "wick_lorentzian_catenoid": GridSpec(-0.8, 0.8, 1.0, 3.0, 41, 41),
    "helicoid_minimal": GridSpec(0.5, 2.5, -1.0, 1.0, 41, 41),
    "scherk_minimal": GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41),
}

# Grids on which the x-Wick rotation of each maximal entry stays finite.
WICK_GRIDS = {
    "helicoid_first_kind": GridSpec(1.0, 3.0, -0.8, 0.8, 21, 21),
    "helicoid_second_kind": GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21),
    "lorentzian_catenoid": GridSpec(-0.8, 0.8, 1.0, 3.0, 21, 21),
    "scherk_first_kind": GridSpec(-1.2, 1.2, -1.0, 1.0, 21, 21),
}


def catalog_names() -> list:
    return sorted(_CATALOG_BUILDERS)


def solution(name: str, k: float = 1.0, margin: float = DEFAULT_MARGIN) -> SolutionEntry:
    """Build a catalog entry; ``k`` feeds the helicoid families and ``margin``
    the entries with exclusions, others ignore them."""
    try:
        builder, takes, eqn, note = _CATALOG_BUILDERS[name]
    except KeyError:
        raise UnknownSurface(f"no catalog solution named {name!r}") from None
    params = {"k": k, "margin": margin}
    return SolutionEntry(name, builder(**{p: params[p] for p in takes}), eqn, note)


def catalog() -> list:
    return [solution(n) for n in catalog_names()]
