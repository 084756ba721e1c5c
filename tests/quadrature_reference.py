"""The contour quadrature as it was before the first GK21 round was built off
the shared start layout and ``build_path`` computed each pole's distances
once: ``integrate_segments`` and ``build_path`` verbatim, with the helpers
they call.  ``test_quadrature.py`` holds the package's versions to these bit
for bit, exceptions and integrand calls included."""

import functools
import math

import numpy as np

from solitonlab.errors import DomainError, PathError, QuadratureError
from solitonlab.quadrature import (_EPSABS, _EPSREL, _MAX_DOUBLINGS, _MAX_INTERVALS,
                                   _MAX_NO_GAIN, _ROUNDOFF, _RULES, _SIDES, _SPLIT, _WK,
                                   _XK, DEFAULT_POLE_MARGIN)


def _seg_distance(a: complex, b: complex, p: complex) -> float:
    """Distance from point p to the segment [a, b]."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(p - a)
    t = ((p - a) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def _segment_ok(a: complex, b: complex, needs) -> bool:
    for p, need in needs:
        if _seg_distance(a, b, p) < need:
            return False
    return True


def build_path(start: complex, end: complex, poles) -> list:
    """Waypoints of a polyline from start to end that clears every pole by
    ``DEFAULT_POLE_MARGIN``.

    The straight segment when it clears every pole; otherwise start, one
    waypoint and end.  The waypoint lies on the perpendicular through the
    chord's midpoint, first a quarter of the chord away: far enough from the
    poles the chord passed that each detour segment converges in a few GK21
    rounds.  When neither side of that clears every pole, the offsets 2, 4,
    8, ... times the margin are tried.  At each offset the side to the left
    of the chord (``+1j * (end - start)``) is tried first.  Raises
    ``PathError`` when no offset within ``_MAX_DOUBLINGS`` doublings clears
    every pole."""
    poles = [complex(p) for p in poles]
    for p in poles:
        if abs(end - p) < 1e-12 or abs(start - p) < 1e-12:
            raise DomainError(f"integration endpoint coincides with pole {p}")
    # the clearance requirement relaxes per pole only when one of the *true*
    # endpoints sits close to it, keeping near-pole targets reachable
    needs = [(p, min(DEFAULT_POLE_MARGIN, 0.45 * abs(start - p), 0.45 * abs(end - p)))
             for p in poles]
    if _segment_ok(start, end, needs):
        return [start, end]
    d = end - start
    if abs(d) == 0.0:
        return [start, end]
    perp = 1j * d / abs(d)
    mid = 0.5 * (start + end)
    offsets = [0.25 * abs(d)] + [DEFAULT_POLE_MARGIN * 2.0 ** (k + 1)
                                  for k in range(_MAX_DOUBLINGS)]
    for off in offsets:
        for sgn in (+1.0, -1.0):
            w = mid + sgn * off * perp
            if _segment_ok(start, w, needs) and _segment_ok(w, end, needs):
                return [start, w, end]
    raise PathError(f"no pole-avoiding path from {start} to {end} within "
                    f"the detour budget (margin {DEFAULT_POLE_MARGIN:g})")


def _norm(v: np.ndarray):
    """2-norm over the first (component) axis."""
    return np.hypot.reduce(np.abs(v), axis=0)


# A path's segment count comes from ``build_path`` (1 or 2) or from a direct
# caller of ``integrate_segments``, so the layouts kept are bounded.
@functools.lru_cache(maxsize=32)
def _start_layout(n_seg: int):
    """The starting subintervals of ``n_seg`` segments, ``_SPLIT`` to each:
    their segment index, and their centre, half-width and 21 node offsets
    ``mid + half * _XK`` in s, as columns.  The arrays are shared by every
    integral over that many segments, so they are read-only."""
    k = np.arange(n_seg * _SPLIT)
    seg = k // _SPLIT
    mid = ((k % _SPLIT + 0.5) / _SPLIT)[:, None]
    half = np.full_like(mid, 0.5 / _SPLIT)
    layout = seg, mid, half, mid + half * _XK
    for a in layout:
        a.flags.writeable = False
    return layout


def _raise_non_finite(kronrod, seg, path):
    """Raise ``QuadratureError`` for a round whose sum is not finite, naming
    the segment of the first subinterval whose Kronrod sum is not finite, or
    the whole path when each is finite and only their sum overflowed."""
    bad = ~np.isfinite(kronrod).all(axis=0)
    if bad.any():
        i = seg[np.argmax(bad)]
        where = f"on the segment {path[i]} -> {path[i + 1]}"
    else:
        where = f"on the path from {path[0]} to {path[-1]}"
    raise QuadratureError(f"non-finite integrand value or Kronrod sum {where}")


def integrate_segments(fvec, path):
    """Integrate the complex-vector integrand ``fvec`` along the polyline.

    ``fvec(w)`` is called with a 1-D complex array of nodes and returns one
    value per component, each an array over the nodes or a scalar (which is
    broadcast); one written for numbers (``cmath``, ``if``) raises numpy's
    ``TypeError`` or ``ValueError`` on the first call.  The result is the
    componentwise contour integral.
    Floating-point warnings are off for the whole integral (the integrand
    included): non-finite values are caught by the finiteness test instead.
    That test reads the norm of each round's running integral, which the
    tolerance needs anyway: every Kronrod weight is nonzero, so a NaN or
    infinite node value makes its subinterval's Kronrod sum, and so the
    integral, non-finite, as does an integral that overflows.

    Each segment is parametrized over s in [0, 1] and starts as ``_SPLIT``
    equal subintervals.  A subinterval of width ``ds`` is accepted when its
    Kronrod-Gauss difference (2-norm over the components) is at most ``tol *
    ds / n_segments``, with ``tol = max(_EPSABS, _EPSREL * |integral|)``, or
    is at round-off level; the others are bisected.  Raises ``PathError``
    for a path of fewer than two waypoints, and ``QuadratureError`` on a
    non-finite integrand value or integral (naming the segment of the first
    subinterval whose Kronrod sum is non-finite, or the path when only the
    sum of finite ones overflows), when ``_MAX_NO_GAIN`` bisections have left
    the error estimate larger than before (QUADPACK's round-off test), or
    when the subintervals would exceed ``_MAX_INTERVALS``.

    The four-subinterval start trades nodes for rounds, which cost more (see
    the module docstring).  A round that accepts every subinterval returns
    at once.
    """
    n_seg = len(path) - 1
    if n_seg < 1:
        raise PathError(f"a contour path needs at least two waypoints, got {len(path)}")
    ends = np.array(path, dtype=complex)
    # unfinished subintervals, as columns: the segment's start and step, and
    # the subinterval's centre, half-width and node offsets in s; and each
    # one's segment
    seg, mid, half, offs = _start_layout(n_seg)
    start = ends[seg, None]
    step = (ends[1:] - ends[:-1])[seg, None]
    n_start = n_intervals = n_seg * _SPLIT
    done = 0j
    parent_err, no_gain = None, 0
    with np.errstate(all="ignore"):
        while True:
            nodes = start + offs * step
            out = fvec(nodes.ravel())
            vals = np.empty((len(out), nodes.size), dtype=complex)
            for row, v in zip(vals, out):
                row[...] = v  # a scalar component is broadcast
            vals = vals.reshape(-1, *nodes.shape) * (half * step)
            rules = vals @ _RULES
            kronrod = rules[..., 0]
            err = _norm(rules[..., 1])
            total = done + kronrod.sum(axis=1)
            size = float(_norm(total))
            if not math.isfinite(size):
                _raise_non_finite(kronrod, seg, path)
            tol = max(_EPSABS, _EPSREL * size)
            ok = err <= tol * 2 / n_seg * half[:, 0]
            if ok.all():
                return total
            # the round-off guard, for the subintervals above their tolerance
            above = ~ok
            ok[above] = err[above] <= _ROUNDOFF * _norm(np.abs(vals[:, above]) @ _WK)
            done = done + kronrod[:, ok].sum(axis=1)
            if ok.all():
                return done
            split = ~ok
            if parent_err is not None:
                # the subintervals are the halves of last round's, side by side
                no_gain += int(np.count_nonzero(err[0::2] + err[1::2] > parent_err))
                if no_gain >= _MAX_NO_GAIN:
                    raise QuadratureError(f"bisecting the subintervals no longer reduces the error "
                                          f"on the path from {path[0]} to {path[-1]}: the "
                                          "integrand is singular or too noisy there")
            n_intervals += int(split.sum())
            if n_intervals > _MAX_INTERVALS:
                raise QuadratureError(f"quadrature needs more than {_MAX_INTERVALS} subintervals "
                                      f"on the path from {path[0]} to {path[-1]}")
            parent_err = err[split] if n_intervals > n_start + 10 else None
            child_half = half[split] / 2
            mid = (mid[split] + child_half * _SIDES).reshape(-1, 1)
            half = np.repeat(child_half, 2, axis=0)
            seg = np.repeat(seg[split], 2)
            start = np.repeat(start[split], 2, axis=0)
            step = np.repeat(step[split], 2, axis=0)
            # the nodes round as start + (mid + half * _XK) * step in every
            # round: the no-gain stop is sensitive to that rounding next to a
            # singular point
            offs = mid + half * _XK
