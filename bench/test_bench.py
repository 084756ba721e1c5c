"""Self-tests of the benchmark: seeded generators, gates, and tracing.

    python3 -m pytest -q bench/test_bench.py

They run a few checks of each workload, not whole passes, and take about
ten seconds.
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from solitonlab import core, geometry, pde, quadrature, weierstrass  # noqa: E402
from tracer import Tracer  # noqa: E402


def _pass(checks, ctx=None, tracer=None, in_process=True):
    """One pass as run.py makes it; CLI commands install their own tracer."""
    ctx = ctx or run.Context(None)
    ctx.tracer = tracer
    if tracer is not None and in_process:
        tracer.install()
    try:
        return run.run_pass(checks, ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _shape(checks):
    """What must not depend on the seed: kinds, grid sizes, detour flags."""
    out = []
    for c in checks:
        words = c.key.split()
        if words[0] in ("sweep", "classify"):
            out.append((words[1], words[2].split(":")[-2:]))
        elif words[0] == "round_trip":
            out.append((words[1], words[-1]))
        else:
            out.append(tuple(w for w in words if "=" not in w and not w[0].isdigit()))
    return out


# -- generators ------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed_and_shape_stable(workload):
    a = workloads.build_checks(workload, 11)
    b = workloads.build_checks(workload, 11)
    c = workloads.build_checks(workload, 12)
    assert workloads.inputs_digest(a) == workloads.inputs_digest(b)
    assert workloads.inputs_digest(a) != workloads.inputs_digest(c)
    assert _shape(a) == _shape(c)


def test_detour_share_is_a_quarter_for_every_seed():
    for seed in range(6):
        trips = [c.key.split() for c in workloads.build_checks("pointwise_quad", seed)
                 if c.key.startswith("round_trip")]
        assert len(trips) == 112
        assert sum(k[-1] == "detour=True" for k in trips) == 28
        for _, name, zeta, detour in trips:
            datum = weierstrass.we_catalog(name)
            z = complex(zeta.removeprefix("zeta="))
            path = quadrature.build_path(complex(datum.base), z, datum.pole_set)
            assert (len(path) > 2) == (detour == "detour=True"), (seed, name, z)


# -- gates -------------------------------------------------------------------------

def _report(**kw):
    base = dict(max_abs=1e-15, residuals=[1e-15, 0j], worst_point=(0.0, 0.0), excluded_count=0)
    base.update(kw)
    return SimpleNamespace(**base)


def test_report_gate_accepts_a_good_sweep():
    assert workloads.report_failures(_report(), 1e-6, 2, 0) == []


@pytest.mark.parametrize("planted", [
    dict(worst_point=None),                                 # the NaN-passes symptom
    dict(residuals=[complex(math.nan, 0), 1e-15]),          # NaN skipped by the reducer
    dict(max_abs=math.inf),
    dict(max_abs=1e-3),
    dict(excluded_count=3),
    dict(residuals=[1e-15]),                                # one point fewer
])
def test_report_gate_flags_planted_results(planted):
    assert workloads.report_failures(_report(**planted), 1e-6, 2, 0)


def test_classify_gate_flags_changed_counts_and_nonfinite_h():
    rows = geometry.classify_grid(geometry.example1_graph(), workloads.CLASSIFY_GRID)
    assert workloads.classify_failures(rows) == []
    assert workloads.classify_failures(rows[1:])
    i = next(i for i, r in enumerate(rows) if r[2] == "timelike")
    bad = rows[:i] + [(rows[i][0], rows[i][1], "timelike", math.nan)] + rows[i + 1:]
    assert workloads.classify_failures(bad)


def test_digest_exit_and_bound_gates():
    assert workloads.digest_failures(b"x", workloads.CLI_DIGESTS["catalog"])
    assert workloads.exit_failures(1) and not workloads.exit_failures(0)
    assert workloads.bound_failures({"d": (math.nan, 1.0)})
    assert not workloads.bound_failures({"d": (0.5, 1.0)})


def test_identity_gate_flags_a_wrong_table():
    zeta = complex(1.5, 0.8)
    lhs = (zeta + 1 / zeta).imag / (zeta - 1 / zeta).imag
    rows, err = [], 1e-3
    for K in (1000, 10000, 100000, 1000000):
        rows.append({"K": K, "partial_re": lhs + err, "partial_im": 0.0, "lhs": [lhs, 0.0],
                     "abs_err": err, "est_order": 1.0})
        err /= 10
    good = json.dumps({"name": "helicoid2_identity", "table": rows}).encode()
    assert workloads._identity_failures(good, zeta) == []
    rows[2]["abs_err"] *= 2
    bad = json.dumps({"name": "helicoid2_identity", "table": rows}).encode()
    assert workloads._identity_failures(bad, zeta)


def test_a_planted_wrong_result_makes_the_pass_fail(monkeypatch):
    checks = [c for c in workloads.build_checks("grid_sweep", 3) if "/wick_x" in c.key]
    assert _pass(checks).failed == 0
    real = pde.residual_sweep

    def nan_at_first_point(fld, equation, grid, name=""):
        rep = real(fld, equation, grid, name=name)
        rep.residuals[0] = complex(math.nan, 0.0)
        return rep
    monkeypatch.setattr(pde, "residual_sweep", nan_at_first_point)
    p = _pass(checks)
    assert p.failed == len(checks)
    assert all("non-finite residual" in f for f in p.failures)


def test_an_exception_counts_as_a_failure(monkeypatch):
    checks = [c for c in workloads.build_checks("pointwise_quad", 3)
              if c.key.startswith("round_trip")][:2]

    def broken(*_a, **_kw):
        raise ZeroDivisionError("planted")
    monkeypatch.setattr(workloads.weierstrass, "we_integrate", broken)
    assert _pass(checks).failed == 2


# -- tracing -------------------------------------------------------------------------

def _few(workload, n):
    checks = workloads.build_checks(workload, 5)
    if workload == "pointwise_quad":   # family checks, straight and detour round trips
        return checks[:n] + [c for c in checks if "detour=" in c.key][-2 * n:]
    return [c for c in checks if "/wick_x" in c.key or "classify" in c.key][:n]


@pytest.mark.parametrize("workload", ["grid_sweep", "pointwise_quad"])
def test_traced_and_untraced_passes_compute_identical_results(workload):
    checks = _few(workload, 3)
    plain = _pass(checks)
    tracer = Tracer()
    traced = _pass(checks, tracer=tracer)
    assert plain.failed == traced.failed == 0
    assert plain.fingerprint == traced.fingerprint
    assert tracer.stats["jetmath.prim"][0] > 0
    assert pde.jet is core.jet and geometry.jet is core.jet  # wrappers removed


def test_tracer_reaches_names_bound_by_from_import():
    import solitonlab.cli as cli
    original = core.jet
    tracer = Tracer()
    tracer.install()
    try:
        assert pde.jet is geometry.jet is core.jet is not original
        assert pde.jet.__wrapped__ is original
        assert hasattr(cli.obj_mesh_text, "__wrapped__")
    finally:
        tracer.uninstall()
    assert pde.jet is geometry.jet is original


def test_self_time_excludes_nested_calls():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    calls, busy, self_s = tracer.stats["outer"]
    assert calls == 1 and 0.0 <= self_s < busy
    assert abs(busy - self_s - tracer.stats["inner"][1]) < 1e-9


def test_cli_commands_traced_and_untraced_agree(tmp_path):
    checks = [c for c in workloads.build_checks("cli_session", 5)
              if c.key.split()[1] in ("catalog", "residual")]
    ctx = run.Context(tmp_path)
    plain = _pass(checks, ctx)
    tracer = Tracer()
    traced = _pass(checks, ctx, tracer, in_process=False)
    assert plain.failed == traced.failed == 0
    assert plain.fingerprint == traced.fingerprint
    assert tracer.stats["cli.main"][0] == 2 and tracer.stats["pde.residual_sweep"][0] == 1
    assert len(ctx.import_s) == 2


# -- metric names ---------------------------------------------------------------------

def test_reported_metrics_match_benchmark_json():
    p = run.Pass(1.0, 1.1, [0.1, 0.2, 0.3], 10, "x")
    e2e = run.with_units(run.end_to_end([p, p], 3, [1.0, 1.2], 50.0), "end_to_end")
    assert all(v["value"] > 0 for v in e2e.values())
    ctx = run.Context(None)
    layers = run.with_units(run.per_layer(Tracer(), [p], [p], ctx, [0.9]), "per_layer")
    assert layers["cli.import_s"]["value"] == 0.9
