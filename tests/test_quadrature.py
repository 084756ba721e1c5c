import cmath
import hashlib
import math
import re

import numpy as np
import pytest
import quadrature_reference as reference
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solitonlab.errors import DomainError, PathError, QuadratureError
from solitonlab.quadrature import (_SPLIT, _XK, DEFAULT_POLE_MARGIN, _start_layout, build_path,
                                   integrate_segments)
from solitonlab.weierstrass import closed_form_point, integrand, we_catalog, we_integrate

# A catenoid detour target just across the negative real axis: next to the
# pole at 0 the per-length share of the tolerance is below round-off, so
# only the round-off guard lets the bisection stop.
CATENOID_DETOUR = -1.1870758570702595 + 0.003661878734459316j

# (datum, target, expected path length): straight, detour and near-pole paths
_PATHS = [
    ("scherk_first_kind", 2.0 + 0.7j, 2),
    ("scherk_first_kind", 1.4 - 0.5j, 2),
    ("scherk_first_kind", 0.5 + 0.001j, 3),
    ("scherk_first_kind", 0.35 - 0.003j, 3),
    ("scherk_first_kind", 1.001 + 0.0005j, 2),
    ("lorentzian_catenoid", 1.0 + 0.6j, 2),
    ("lorentzian_catenoid", 0.5 - 0.3j, 2),
    ("lorentzian_catenoid", CATENOID_DETOUR, 3),
    ("lorentzian_catenoid", -0.5 - 0.002j, 3),
    ("lorentzian_catenoid", 0.02 + 0.01j, 2),
]


def _counted(fvec):
    calls = []

    def f(w):
        calls.append(np.size(w))
        return fvec(w)
    return f, calls


def _quad_vec_reference(fvec, path):
    quad_vec = pytest.importorskip("scipy.integrate").quad_vec
    total = 0j
    for a, b in zip(path[:-1], path[1:]):
        d = b - a
        val, _err = quad_vec(lambda s: np.asarray(fvec(a + s * d), dtype=complex) * d,
                             0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        total = total + val
    return total


@pytest.mark.parametrize("name,target,n_points", _PATHS)
def test_gk21_matches_quad_vec_on_catalog_paths(name, target, n_points):
    datum = we_catalog(name)
    path = build_path(complex(datum.base), target, datum.pole_set)
    assert len(path) == n_points
    ours = integrate_segments(integrand(datum), path)
    ref = _quad_vec_reference(integrand(datum), path)
    assert np.max(np.abs(ours - ref)) <= 1e-13


# sha256 of the integrals on the ten _PATHS as complex128 bytes: it pins
# the subdivision and the order of the sums.  Keyed by numpy's active dispatch
# targets (conftest.py): numpy's SIMD exp and complex products move the bits.
_PATHS_DIGEST = {
    "X86_V3 X86_V4 AVX512_ICL AVX512_SPR":
        "e28bc01fd2fff2252d3491aaf46cf455079b4dbbcd9836803baa25e560783982",
    "X86_V3": "e28bc01fd2fff2252d3491aaf46cf455079b4dbbcd9836803baa25e560783982",
    "none": "2e495b5924771215756abddc9fdeef5126f73678f3c824e805c8e27be71b27eb",
}


def _paths_integrals():
    """The three components of the integral on each of the ten _PATHS."""
    out = []
    for name, target, _n in _PATHS:
        datum = we_catalog(name)
        path = build_path(complex(datum.base), target, datum.pole_set)
        out.append(np.asarray(integrate_segments(integrand(datum), path), dtype=complex))
    return np.concatenate(out)


def test_gk21_integrals_are_bit_identical_to_the_recorded_digest(recorded_digest):
    values = _paths_integrals()
    recorded_digest(_PATHS_DIGEST, hashlib.sha256(values.tobytes()).hexdigest(),
                    values.view(float), "paths")


def test_unrecorded_dispatch_key_falls_back_to_the_reference_values(recorded_digest):
    # an AVX-512 runner without Sapphire Rapids has no recorded digest: its
    # values are compared with the committed references within the bound,
    # and one value moved by twice the bound fails
    key = "X86_V3 X86_V4 AVX512_ICL"
    assert key not in _PATHS_DIGEST
    values = _paths_integrals().view(float)
    recorded_digest(_PATHS_DIGEST, "no digest", values, "paths", key=key)
    for moved in (values[0] + 2 * 2.0 ** -48, math.nan):
        wrong = values.copy()
        wrong[0] = moved
        with pytest.raises(pytest.fail.Exception, match=re.escape(key)):
            recorded_digest(_PATHS_DIGEST, "no digest", wrong, "paths", key=key)
    # a recorded key keeps its strict digest
    with pytest.raises(AssertionError):
        recorded_digest(_PATHS_DIGEST, "no digest", values, "paths", key="X86_V3")


def test_scalar_only_integrand_raises_after_one_call():
    path = [0.3 + 0.1j, 1.2 - 0.4j, 2.0 + 0.5j]
    scal, scal_calls = _counted(lambda w: (cmath.exp(w), 1 / (w + 2), w * w))
    with pytest.raises(TypeError):
        integrate_segments(scal, path)
    # one call on the 21 nodes of the 4 starting subintervals of each of the
    # two segments, never node by node
    assert scal_calls == [2 * 4 * 21]
    arr, arr_calls = _counted(lambda w: (np.exp(w), 1 / (w + 2), w * w))
    exact = cmath.exp(path[-1]) - cmath.exp(path[0])
    assert abs(integrate_segments(arr, path)[0] - exact) <= 1e-13
    assert all(n > 1 for n in arr_calls)


def test_scalar_components_broadcast():
    a, b = 0.5 - 0.25j, 2.0 + 1.0j
    out = integrate_segments(lambda w: (0j, w, 2.0), [a, 0.1 + 0.3j, b])
    assert out.shape == (3,)
    assert out[0] == 0
    assert abs(out[1] - (b * b - a * a) / 2) <= 1e-14
    assert abs(out[2] - 2 * (b - a)) <= 1e-14


def test_near_pole_detour_stops_at_round_off():
    datum = we_catalog("lorentzian_catenoid")
    # a detour 0.02 off the chord's midpoint, so the segments pass the pole
    # at 0 at about the margin (build_path itself detours a quarter chord off)
    base = complex(datum.base)
    chord = CATENOID_DETOUR - base
    waypoint = 0.5 * (base + CATENOID_DETOUR) + 0.02 * (1j * chord / abs(chord))
    path = [base, waypoint, CATENOID_DETOUR]
    f, calls = _counted(integrand(datum))
    vec = integrate_segments(f, path)
    # with the round-off guard this takes 6 rounds of at most a few hundred
    # nodes; without it the subintervals next to the pole double each round
    assert len(calls) <= 12 and sum(calls) <= 10_000
    exact = closed_form_point(datum, CATENOID_DETOUR)
    assert abs(closed_form_point(datum, base).x + vec[0].real - exact.x) <= 1e-8
    assert we_integrate(datum, CATENOID_DETOUR).z == pytest.approx(exact.z, abs=1e-8)


@pytest.mark.parametrize("xs", [(0.1, -0.1), (0.5, 0.1, -0.1, -0.5),
                                (0.6, 0.3, 0.1, -0.1, -0.3, -0.6)])
def test_multi_segment_path_close_to_a_pole_converges(xs):
    # 3, 5 and 7 segments, one of them 0.001 from the pole at 0: the bisection
    # next to the pole must not count toward the no-gain stop, however many
    # subintervals the segments start as
    datum = we_catalog("lorentzian_catenoid")
    base = complex(datum.base)
    path = [base] + [complex(x, -0.001) for x in xs] + [CATENOID_DETOUR]
    f, calls = _counted(integrand(datum))
    vec = integrate_segments(f, path)
    assert len(calls) <= 12
    start, exact = closed_form_point(datum, base), closed_form_point(datum, CATENOID_DETOUR)
    assert max(abs(start.x + vec[0].real - exact.x), abs(start.y + vec[1].real - exact.y),
               abs(start.z + vec[2].real - exact.z)) <= 1e-11


@pytest.mark.parametrize("n_seg", [1, 2, 3, 7])
def test_first_round_nodes_follow_the_node_formula(n_seg):
    # the shared start layout must give the nodes that the formula
    # start + (mid + half * x) * step gives, bit for bit: the no-gain stop
    # depends on the rounding of the nodes next to a singular point
    rng = np.random.default_rng(n_seg)
    path = list(rng.uniform(-2, 2, n_seg + 1) + 1j * rng.uniform(-2, 2, n_seg + 1))
    seen = []

    def f(w):
        seen.append(w.copy())
        return (w,)
    integrate_segments(f, path)
    ends = np.array(path)
    start = np.repeat(ends[:-1], _SPLIT)[:, None]
    step = np.repeat(ends[1:] - ends[:-1], _SPLIT)[:, None]
    mid = np.tile((np.arange(_SPLIT) + 0.5) / _SPLIT, n_seg)[:, None]
    half = np.full_like(mid, 0.5 / _SPLIT)
    want = start + (mid + half * _XK) * step
    assert seen[0].tobytes() == want.ravel().tobytes()


def test_start_layout_is_shared_read_only_and_bounded():
    # the 7-segment path 0.001 from the pole bisects for several rounds; the
    # layout it started from must come out unchanged
    datum = we_catalog("lorentzian_catenoid")
    path = ([complex(datum.base)] + [complex(x, -0.001) for x in (0.6, 0.3, 0.1, -0.1, -0.3, -0.6)]
            + [CATENOID_DETOUR])
    layout = _start_layout(7)
    before = [a.copy() for a in layout]
    f, calls = _counted(integrand(datum))
    integrate_segments(f, path)
    assert len(calls) > 1
    assert _start_layout(7) is layout
    for a, b in zip(layout, before):
        assert not a.flags.writeable
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError):
        layout[1][0, 0] = 0.0
    # paths of many segment counts keep at most the cache's size of layouts
    for n in range(1, 80):
        integrate_segments(lambda w: (w,), [complex(k, 1) for k in range(n + 1)])
    info = _start_layout.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 79


@pytest.mark.parametrize("path", [[], [0.5 + 0.1j]])
def test_path_with_fewer_than_two_waypoints_raises(path):
    with pytest.raises(PathError, match="two waypoints"):
        integrate_segments(lambda w: (w,), path)


# Detour targets of the benchmark's two detour regions: just off the real axis
# on the far side of a pole from the base, |Im| from 0.001 to 0.004.
_DETOUR_TARGETS = [(name, complex(re, sign * im))
                   for name, res in (("scherk_first_kind", np.linspace(0.3, 0.6, 7)),
                                     ("lorentzian_catenoid", np.linspace(-1.2, -0.4, 9)))
                   for re in res for im in (0.001, 0.0025, 0.004) for sign in (1, -1)]


@pytest.mark.parametrize("name,target", _DETOUR_TARGETS)
def test_detour_a_quarter_chord_off_converges_in_a_few_rounds(name, target):
    datum = we_catalog(name)
    base = complex(datum.base)
    path = build_path(base, target, datum.pole_set)
    chord = target - base
    # the first offset, on the side left of the chord
    assert len(path) == 3 and (path[0], path[2]) == (base, target)
    assert abs(path[1] - (0.5 * (base + target) + 0.25j * chord)) <= 1e-15
    f, calls = _counted(integrand(datum))
    vec = integrate_segments(f, path)
    # a waypoint 0.02 off the chord takes 7-8 rounds on these targets; a
    # quarter chord off, 1-2 rounds from four subintervals per segment
    assert len(calls) <= 2
    start, exact = closed_form_point(datum, base), closed_form_point(datum, target)
    assert max(abs(start.x + vec[0].real - exact.x), abs(start.y + vec[1].real - exact.y),
               abs(start.z + vec[2].real - exact.z)) <= 1e-13


@pytest.mark.parametrize("fvec,path,message", [
    (lambda w: (w, np.nan * w), [0j, 1 + 1j], "non-finite"),
    (lambda w: (np.sqrt(w), math.nan), [0j, 1 + 1j], "non-finite"),
    # poles on the path, not declared to build_path: a node on the pole (at
    # s = 1/8, the centre node of the first of the four starting subintervals),
    # and a pole between nodes that bisection never isolates
    (lambda w: [1 / w], build_path(-1 + 0j, 7 + 0j, poles=()), "non-finite"),
    (lambda w: [1 / w], build_path(-1 + 0j, 1.3 + 0j, poles=()), "subintervals"),
    (lambda w: [1 / (w * w)], build_path(-1 + 0j, 1.3 + 0j, poles=()), "subintervals"),
])
def test_non_finite_or_unresolvable_integrand_raises(fvec, path, message):
    f, calls = _counted(fvec)
    with pytest.raises(QuadratureError, match=message):
        integrate_segments(f, path)
    # the subinterval cap bounds the work: at most 10,000 subintervals of
    # 21 nodes each are ever evaluated in one round
    assert max(calls) <= 21 * 10_000 and len(calls) <= 64


@pytest.mark.parametrize("fvec,max_calls,max_nodes", [
    # a singularity at 0 that is not integrable
    (lambda w: [1 / np.sqrt(w)], 24, 10_000),
    # a pole between the nodes: 28 rounds and 379,323 nodes under the cap alone
    (lambda w: [1 / w], 24, 10_000),
])
def test_singular_integrand_stops_when_bisection_no_longer_helps(fvec, max_calls, max_nodes):
    f, calls = _counted(fvec)
    with pytest.raises(QuadratureError, match="no longer reduces the error"):
        integrate_segments(f, build_path(-1 + 0j, 1.3 + 0j, poles=()))
    assert len(calls) <= max_calls and sum(calls) <= max_nodes


@pytest.mark.xfail(strict=True, raises=QuadratureError, reason=(
    "CHANGES.md FOUND line on the no-gain stop: it fires on analytic integrands "
    "whose pole is a little off the path"))
def test_pole_a_little_off_the_segment_converges():
    # the pole is about 2.9e-4 off the segment; 1/(w - p) is analytic on it
    a, b = 1.0370740021583198 + 0.7585206217883238j, 0.3879509220950257 + 0.0014257229474838873j
    p = 0.8992116441755775 + 0.5973984612606525j
    got = integrate_segments(lambda w: [1 / (w - p)], [a, b])[0]
    assert abs(got - cmath.log((b - p) / (a - p))) <= 1e-12


# Three segments on the real axis; a segment k's nodes have k < Re w < k + 1.
_REAL_AXIS = [0j, 1 + 0j, 2 + 0j, 3 + 0j]
_BAD_VALUES = [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, 0.0)]


def _segment_message(path, k):
    return re.escape(f"non-finite integrand value or Kronrod sum on the segment "
                     f"{path[k]} -> {path[k + 1]}")


@pytest.mark.parametrize("bad", _BAD_VALUES, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_non_finite_value_names_its_segment(k, bad):
    # one node of the first round is bad: the centre of the last starting
    # subinterval of segment k, at s = 0.625
    def f(w):
        return w, np.where(np.abs(w - (k + 0.625)) < 0.01, bad, w * w)
    with pytest.raises(QuadratureError, match=_segment_message(_REAL_AXIS, k)):
        integrate_segments(f, _REAL_AXIS)


@pytest.mark.parametrize("bad", _BAD_VALUES, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_non_finite_value_after_a_bisection_names_its_segment(k, bad):
    # the first round sees noise, so every subinterval is bisected; the
    # second round sees a bad value on the right half of segment k only
    rng = np.random.default_rng(k)
    calls = []

    def f(w):
        calls.append(w.size)
        if len(calls) == 1:
            return [rng.standard_normal(w.size)]
        return [np.where((w.real > k + 0.5) & (w.real < k + 1), bad, w)]
    with pytest.raises(QuadratureError, match=_segment_message(_REAL_AXIS, k)):
        integrate_segments(f, _REAL_AXIS)
    assert calls == [3 * 4 * 21, 3 * 8 * 21]


def test_overflowing_integral_raises():
    # every value is finite; the Kronrod sums overflow
    with pytest.raises(QuadratureError, match=_segment_message([0, 10], 0)):
        integrate_segments(lambda w: (np.full(w.shape, 1e308 + 0j),), [0, 10])
    # only the last segment overflows, so it is named, not segment 0
    path = [0j, 1 + 0j, 2 + 0j, 12 + 0j]
    with pytest.raises(QuadratureError, match=_segment_message(path, 2)):
        integrate_segments(lambda w: [np.where(w.real > 2, 1e308, 1.0)], path)
    # each segment's integral is finite, their sum is not: the path is named
    path = [0j, 1.6 + 0j, 3.2 + 0j]
    assert np.isfinite(integrate_segments(lambda w: [np.full(w.shape, 1e308)], path[:2])).all()
    with pytest.raises(QuadratureError, match=re.escape(
            f"non-finite integrand value or Kronrod sum on the path from {path[0]} to {path[-1]}")):
        integrate_segments(lambda w: [np.full(w.shape, 1e308)], path)


# -- the parent implementations as oracles ----------------------------------

_COORD = st.floats(-2.0, 2.0)
_POINT = st.builds(complex, _COORD, _COORD)


@st.composite
def _near_path(draw, path):
    """A point on a random segment of ``path``, moved off it by 10**-4 to
    10**-0.5, log-uniformly, in a random direction, or, one time in six, left
    on it."""
    k = draw(st.integers(0, len(path) - 2))
    on = path[k] + draw(st.floats(0.0, 1.0)) * (path[k + 1] - path[k])
    off = 0.0 if draw(st.integers(0, 5)) == 0 else 10 ** draw(st.floats(-4.0, -0.5))
    return on + off * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))


# Integrand components of every kind the write into the value rows accepts or
# rejects, by name, as functions of the nodes w: scalars and arrays that are
# broadcast or copied, None (a NaN row), and the wrong lengths, shapes and
# types that raise numpy's ValueError.
_COMPONENTS = [
    ("complex", lambda w: -1.5 + 0.5j), ("zero", lambda w: 0j), ("float", lambda w: 2.0),
    ("int", lambda w: 3), ("numpy complex", lambda w: np.complex128(1j)),
    ("0-d float array", lambda w: np.array(2.5)), ("0-d int array", lambda w: np.array(7)),
    ("list", lambda w: (0.5 * w).tolist()), ("int array", lambda w: np.arange(w.size)),
    ("float array", lambda w: w.real.copy()), ("complex array", lambda w: np.exp(w)),
    ("None", lambda w: None), ("one node too many", lambda w: np.ones(w.size + 1)),
    ("(n, 1) array", lambda w: w[:, None]), ("string", lambda w: "abc"),
    ("short list", lambda w: [1.0, 2.0]),
]


@st.composite
def _integrals(draw):
    """A polyline of 1-7 segments and an integrand on it: a pole next to the
    path (several rounds) or on it (the no-gain or subinterval stop), w * w,
    1-3 components of the kinds of ``_COMPONENTS`` and, one time in four,
    non-finite or overflowing values next to the path."""
    path = draw(st.lists(_POINT, min_size=2, max_size=8))
    pole = draw(_near_path(path))
    extra = draw(st.lists(st.sampled_from(_COMPONENTS), min_size=1, max_size=3))
    bad = None
    if draw(st.integers(0, 3)) == 0:
        bad = (draw(_near_path(path)), draw(st.floats(1e-3, 0.5)),
               draw(st.sampled_from([complex(math.nan, 0.0), complex(math.inf, 0.0), 1e308])))

    def fvec(w):
        first = 1 / (w - pole)
        if bad is not None:
            at, radius, value = bad
            first = np.where(np.abs(w - at) < radius, value, first)
        return (first, w * w, *(component(w) for _name, component in extra))
    return fvec, path


def _run(integrate, fvec, path):
    """The integral's bytes or the exception's type and message, and the bytes
    of the nodes of every integrand call."""
    seen = []

    def f(w):
        seen.append(w.tobytes())
        return fvec(w)
    try:
        result = integrate(f, path).tobytes()
    except (QuadratureError, ValueError) as exc:
        result = (type(exc), str(exc))
    return result, seen


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_integrals())
def test_integrate_segments_matches_the_reference_bit_for_bit(case):
    fvec, path = case
    assert _run(integrate_segments, fvec, path) == _run(reference.integrate_segments, fvec, path)


@st.composite
def _path_cases(draw):
    """A start, an end and 0-4 poles: near the chord or on it, at an endpoint
    or 10**-13 to 10**-1.5 from one (log-uniformly), or anywhere; or, one time
    in five, a fan of three poles close to the start, along the chord and 0.8
    rad to each side of it, which blocks every detour of a chord longer than
    about 0.8."""
    start, end = draw(_POINT), draw(_POINT)
    if draw(st.integers(0, 4)) == 0 and end != start:
        r = draw(st.floats(1e-4, 1e-2)) * (end - start) / abs(end - start)
        fan = [start + r * cmath.exp(1j * a) for a in (0.0, 0.8, -0.8)]
        return start, end, fan + draw(st.lists(_POINT, max_size=1))
    near_end = st.builds(lambda p, e, a: p + 10 ** e * cmath.exp(1j * a), st.sampled_from([start, end]),
                         st.floats(-13.0, -1.5), st.floats(-math.pi, math.pi))
    pole = st.one_of(_near_path([start, end]), st.sampled_from([start, end]), near_end, _POINT)
    return start, end, draw(st.lists(pole, max_size=4))


def _tie_distance() -> float:
    """The float d with 0.45 * d == DEFAULT_POLE_MARGIN, next to 0.01 / 0.45."""
    d = DEFAULT_POLE_MARGIN / 0.45
    while 0.45 * d != DEFAULT_POLE_MARGIN:
        d = math.nextafter(d, math.inf if 0.45 * d < DEFAULT_POLE_MARGIN else -math.inf)
    return d


@st.composite
def _tied_or_non_finite_path_cases(draw):
    """A start and end 2d apart with a pole halfway, at 0 (so that
    0.45 * |start - p| and 0.45 * |end - p| tie exactly), where d is the tie
    with the margin or a float of 1e-3 to 0.1; or a case of ``_path_cases``
    with its start, end or a pole replaced by a number with a NaN or infinite
    part or a part of 1e308 (whose distances to a pole overflow ``abs``;
    without poles such a chord is straight)."""
    if draw(st.booleans()):
        d = draw(st.one_of(st.just(_tie_distance()), st.floats(1e-3, 0.1)))
        unit = draw(st.sampled_from([1, -1, 1j, -1j]))
        return d * unit, -d * unit, [0j] + draw(st.lists(_POINT, max_size=2))
    start, end, poles = draw(_path_cases())
    where = draw(st.integers(0, 2 + len(poles) - 1))
    part = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e308]))
    value = complex(part, draw(_COORD))
    if draw(st.booleans()):
        value = complex(value.imag, value.real)
    if where == 0:
        start = value
    elif where == 1:
        end = value
    else:
        poles[where - 2] = value
    return start, end, poles


def _path_or_error(build, start, end, poles):
    try:
        return repr(build(start, end, poles))
    except (DomainError, PathError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_path_cases())
def test_build_path_matches_the_reference(case):
    assert _path_or_error(build_path, *case) == _path_or_error(reference.build_path, *case)


@settings(max_examples=300, deadline=None)
@given(_tied_or_non_finite_path_cases())
def test_build_path_matches_the_reference_on_ties_and_non_finite_values(case):
    # the need min(margin, 0.45 |start - p|, 0.45 |end - p|) and the clamp
    # of the nearest point to the segment are taken left to right, as
    # the builtins do: a tie keeps the earlier value and a NaN is passed over
    assert _path_or_error(build_path, *case) == _path_or_error(reference.build_path, *case)


@given(st.integers(1, 40))
def test_start_layout_offsets_are_the_float_offsets_as_complex(n_seg):
    seg, mid, half, offs = _start_layout(n_seg)
    want = reference._start_layout(n_seg)[3].reshape(n_seg, -1)
    assert want.dtype == np.float64 and offs.dtype == np.complex128
    assert offs.tobytes() == (want + 0j).tobytes()
    assert not any(a.flags.writeable for a in (seg, mid, half, offs))


def test_build_path_without_poles_on_a_huge_chord():
    assert build_path(1e200 + 0j, 0j, []) == [1e200 + 0j, 0j]
