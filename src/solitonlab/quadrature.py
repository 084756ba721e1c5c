"""Contour integration of holomorphic integrands along pole-avoiding
polylines.

Paths are straight segments by default.  When a segment passes a pole closer
than the margin, a two-segment detour through a perpendicular offset of the
midpoint is tried instead.  The first offset is a quarter of the chord.
Gauss-Kronrod quadrature converges at a rate set by a pole's distance from
the segment relative to the segment's length (Trefethen, *Is Gauss quadrature
better than Clenshaw-Curtis?*, SIAM Review 50(1), 2008): an offset delta
leaves the pole the chord passed about delta from segments of length about
L/2, and the adaptive rule bisects about log2(L / delta) times next to it.
A quarter chord keeps that ratio fixed, so a detour takes a few rounds at any
L.  When that offset does not clear every pole, offsets of twice the margin,
doubling, are tried until every segment clears every pole (or the budget runs
out).

Segment integrals use adaptive 21-point Gauss-Kronrod quadrature (QUADPACK's
qk21 rule; Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, *QUADPACK*,
Springer 1983) on the pulled-back integrand, vectorized with numpy.  Each
segment starts as four equal subintervals.  Each round evaluates the
integrand once, on one array holding the 21 nodes of every unfinished
subinterval of every segment, and bisects the subintervals whose
Kronrod-Gauss difference is above their share of the tolerance.  QUADPACK's
round-off guard (the difference against the Kronrod integral of |f|) is
evaluated only for the subintervals that fail that test, so a round in which
every subinterval converges pays for none of it.

The rounds, not the nodes, set the cost.  Measured with ``timeit`` on a
2-CPU Xeon (numpy 2.4.6; medians of 7 processes), a call that converges in
its first round, on one segment with four components that return the nodes
themselves, takes about 24 us: about 21 us of the round's small numpy calls
(the nodes, the copy into one array, the scaling, the rule product and the
norms; the acceptance test reads the errors as Python floats) and about 3 us
of per-call glue (the path as an array, the steps, the layout lookup and
``np.errstate``).  A first round on four segments, four times the nodes,
takes about 31 us.  A round that bisects costs more than twice a first
round: it adds the round-off guard and the bisection's bookkeeping, and the
next round gathers the ends of each subinterval's segment, so a call that
bisects once takes about 85 us.  A start of four subintervals per
segment, which lets most contour integrals converge in the first round, is
therefore cheaper than a start of one that is bisected a round at a time.

With one round per integral, a call's fixed cost counts as much as a
round's.  The start layout (each starting subinterval's segment, centre,
half-width and 21 node offsets) depends only on the number of segments, so
it is built once per segment count and shared, read-only, by every integral
over that many segments.  The first round's nodes and scale factors are the
segments' ends and steps broadcast against it, one row per segment; only a
round that bisects gathers them per subinterval.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DomainError, PathError, QuadratureError

DEFAULT_POLE_MARGIN = 1e-2
_MAX_DOUBLINGS = 7

# 21-point Kronrod nodes on [-1, 1] in decreasing order, with their weights;
# the 10 Gauss nodes are the odd-indexed ones.
_X_HALF = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
           0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
           0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
           0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
           0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WK_HALF = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
            0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
            0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
            0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
            0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WK_MID = 0.149445554002916905664936468389821
_WG_HALF = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
            0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
            0.295524224714752870173892994651338)
_XK = np.array(_X_HALF + (0.0,) + tuple(-x for x in reversed(_X_HALF)))
_WK = np.array(_WK_HALF + (_WK_MID,) + _WK_HALF[::-1])
_WG = np.zeros(21)
_WG[1::2] = _WG_HALF + _WG_HALF[::-1]
# columns: the Kronrod rule and the Kronrod-minus-Gauss difference rule,
# stored as the complex128 that numpy would cast them to for each round
_RULES = np.stack([_WK, _WK - _WG], axis=1).astype(complex)
_SIDES = np.array([-1.0, 1.0])

# Absolute and relative tolerance of every contour integral.
_EPSABS = _EPSREL = 1e-12
# QUADPACK's round-off level: a Kronrod-Gauss difference below this share of
# the integral of |f| over the subinterval cannot be reduced by bisecting.
_ROUNDOFF = 50 * np.finfo(float).eps
# Equal subintervals that each segment starts as.
_SPLIT = 4
# Subintervals, over all segments, before the quadrature gives up.
_MAX_INTERVALS = 10_000
# QUADPACK's round-off test (qagse, ier = 2): bisections after which the two
# halves of a subinterval have a larger error estimate than the whole, counted
# once more than 10 subintervals have been added to the starting ones.  After
# this many, bisection is stuck on the round-off of the integrand or of the
# nodes next to a singular point.
_MAX_NO_GAIN = 20


def _segment_ok(a: complex, b: complex, needs) -> bool:
    """Whether every pole p of ``needs`` is at least its need from the
    segment [a, b].  The segment's d, |d|^2 and conj(d) are computed once for
    all poles."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return not any(abs(p - a) < need for p, need in needs)
    dc = d.conjugate()
    for p, need in needs:
        t = ((p - a) * dc).real / L2
        # min(1.0, max(0.0, t)) without the calls; a NaN t becomes 0.0 there too
        t = t if t > 0.0 else 0.0
        t = t if t < 1.0 else 1.0
        if abs(p - (a + t * d)) < need:
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
    needs = []
    for p in map(complex, poles):
        to_end = abs(end - p)
        if to_end < 1e-12:
            raise DomainError(f"integration endpoint coincides with pole {p}")
        to_start = abs(start - p)
        if to_start < 1e-12:
            raise DomainError(f"integration endpoint coincides with pole {p}")
        # the clearance requirement relaxes per pole only when one of the
        # *true* endpoints sits close to it, keeping near-pole targets reachable;
        # min(margin, 0.45 * to_start, 0.45 * to_end) left to right, as min takes it
        need = DEFAULT_POLE_MARGIN
        if 0.45 * to_start < need:
            need = 0.45 * to_start
        if 0.45 * to_end < need:
            need = 0.45 * to_end
        needs.append((p, need))
    if _segment_ok(start, end, needs):
        return [start, end]
    d = end - start
    chord = abs(d)
    if chord == 0.0:
        return [start, end]
    perp = 1j * d / chord
    mid = 0.5 * (start + end)
    offsets = itertools.chain((0.25 * chord,), (DEFAULT_POLE_MARGIN * 2.0 ** (k + 1)
                                                for k in range(_MAX_DOUBLINGS)))
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
    their segment index, centre (a column) and half-width in s; and the 21
    node offsets ``mid + half * _XK`` of each segment's subintervals, one row
    per segment, so that the first round's nodes broadcast against the
    segments' ends.  The offsets are stored as the complex128 ``o + 0j`` that
    numpy casts them to for the product with the steps.  The arrays are
    shared by every integral over that many segments, so they are
    read-only."""
    k = np.arange(n_seg * _SPLIT)
    seg = k // _SPLIT
    mid = ((k % _SPLIT + 0.5) / _SPLIT)[:, None]
    half = np.full(len(k), 0.5 / _SPLIT)
    offs = (mid + half[:, None] * _XK).reshape(n_seg, -1).astype(complex)
    layout = seg, mid, half, offs
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
    # the waypoints and the segments' steps, as columns; the unfinished
    # subintervals' segments, centres (a column) and half-widths in s.  The
    # first round's nodes start + (mid + half * _XK) * step and scale factors
    # half * step broadcast the columns against the shared start layout, one
    # row per segment; only a round that bisects gathers them per subinterval
    ends = np.array(path, dtype=complex)[:, None]
    steps = ends[1:] - ends[:-1]
    seg, mid, half, offs = _start_layout(n_seg)
    nodes = ends[:-1] + offs * steps
    scale = half[0] * steps
    n_start = n_intervals = n_seg * _SPLIT
    done = 0j
    parent_err, no_gain = None, 0
    with np.errstate(all="ignore"):
        while True:
            out = fvec(nodes.ravel())
            vals = np.empty((len(out), nodes.size), dtype=complex)
            for i, v in enumerate(out):
                vals[i] = v  # a scalar component is broadcast
            scaled = vals.reshape(len(out), *nodes.shape)
            scaled *= scale
            vals = vals.reshape(len(out), -1, 21)
            rules = vals @ _RULES
            kronrod = rules[..., 0]
            err = _norm(rules[..., 1])
            total = done + kronrod.sum(axis=1)
            size = float(_norm(total))
            if not math.isfinite(size):
                _raise_non_finite(kronrod, seg, path)
            tol = max(_EPSABS, _EPSREL * size)
            # err <= thr * half on Python floats: the same IEEE products and
            # comparisons, without numpy's call cost on a few values
            thr = tol * 2 / n_seg
            if all(e <= thr * h for e, h in zip(err.tolist(), half.tolist())):
                return total
            ok = err <= thr * half
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
            mid = (mid[split] + child_half[:, None] * _SIDES).reshape(-1, 1)
            half = np.repeat(child_half, 2)
            seg = np.repeat(seg[split], 2)
            step = steps[seg]
            scale = half[:, None] * step
            # the nodes round as start + (mid + half * _XK) * step in every
            # round: the no-gain stop is sensitive to that rounding next to a
            # singular point
            nodes = ends[seg] + (mid + half[:, None] * _XK) * step
