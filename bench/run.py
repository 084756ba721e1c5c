"""The solitonlab benchmark: one workload per run, checked and timed.

    python3 bench/run.py --workload grid_sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports solitonlab from ``src/``.
Workloads (see ``workloads.py`` and ``README.md``):

* ``grid_sweep``     residual sweeps and a causal classification, in process;
* ``pointwise_quad`` family/Whitham point checks and Weierstrass round trips;
* ``cli_session``    six documented CLI commands, each in a fresh interpreter.

A run first sets up ``SETUP_RUNS`` times, each in a fresh interpreter
(import solitonlab, build the seeded inputs), then repeats passes over the
workload for ``--seconds`` in a closed loop with one caller.  Every check's
output is gated; each pass must also compute exactly what the first did.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run (half
the time untraced, half traced) and the tracing overhead.  Full results,
the environment and the spans go to ``.bench_out/``.

Every end-to-end time is scaled to a reference host speed with the
calibration kernel of ``speed.py``, run in the process that does the work:
between in-process checks, and at the start and end of each set-up and CLI
command.  The record in ``.bench_out/`` keeps the raw times too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 60.0
CLI_COMMANDS = ("catalog", "residual", "geometry", "identity", "family", "surface")


# -- child processes ---------------------------------------------------------------

class _Timeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _Timeout


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SOLITON_LAB_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd, stdout_path: Path):
    """Run ``cmd`` to completion; returns (exit code, wall s, peak RSS MB,
    stdout bytes).  The child's own resource usage comes from wait4."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        old = signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        try:
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except _Timeout:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{cmd[1:4]} did not finish in {CHILD_TIMEOUT_S:g} s") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(stdout_path.with_suffix(".err").read_text()[-2000:])
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout_path.read_bytes()


class Context:
    """What a check may use besides the library: spawning CLI commands, and
    the tracer when the run is traced."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.speed = speed.Speed()
        self.tracer = None
        self.check_id = 0
        self.child_times = None
        self.child_rss_mb = 0.0
        self.command_walls = defaultdict(list)
        self.import_s = []

    def spawn(self, command: str, argv: list):
        """Run one CLI command through ``cli_shim.py``; its raw and scaled
        times, less the shim's two kernel runs, go to ``child_times``."""
        report_path = self.work_dir / f"{command}.json"
        flags = ["--trace"] if self.tracer is not None else []
        rc, wall, rss, data = run_child([sys.executable, str(BENCH_DIR / "cli_shim.py"),
                                         str(report_path), *flags, "--", *argv],
                                        self.work_dir / f"{command}.out")
        with open(report_path) as fh:
            report = json.load(fh)
        raw = wall - sum(report["kernel_s"])
        self.child_times = (raw, raw * speed.scale(*report["kernel_s"]))
        if self.tracer is None:
            self.command_walls[command].append(self.child_times[1])
            self.child_rss_mb = max(self.child_rss_mb, rss)
        else:
            self.tracer.merge(report, self.check_id, report["pid"])
            self.import_s.append(report["import_s"])
        return rc, data


# -- set-up ------------------------------------------------------------------------

def probe(workload: str, seed: int) -> int:
    """Set-up as a fresh interpreter does it, between two kernel runs;
    prints the inputs' digest."""
    kernel_before = speed.kernel()
    t0 = time.perf_counter()
    import solitonlab.cli  # noqa: F401  (the whole package)
    import_s = time.perf_counter() - t0
    import workloads
    digest = workloads.inputs_digest(workloads.build_checks(workload, seed))
    print(json.dumps({"import_s": import_s, "inputs": digest,
                      "kernel_s": [kernel_before, speed.kernel()]}))
    return 0


def measure_setup(workload: str, seed: int, digest: str, ctx: Context):
    """Raw and scaled wall times of SETUP_RUNS fresh set-ups, their import
    times, and the failures among them (an error, or inputs that differ from
    this process's)."""
    raw, walls, imports, failures = [], [], [], []
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_RUNS):
        rc, wall, _rss, out = run_child(cmd, ctx.work_dir / "probe.out")
        if rc != 0:
            failures.append(f"set-up exited with {rc}")
            continue
        doc = json.loads(out.decode().strip().splitlines()[-1])
        raw.append(wall - sum(doc["kernel_s"]))
        walls.append(raw[-1] * speed.scale(*doc["kernel_s"]))
        imports.append(doc["import_s"])
        if doc["inputs"] != digest:
            failures.append("set-up in a fresh interpreter built other inputs")
    return raw, walls, imports, failures


# -- passes ------------------------------------------------------------------------

@dataclass
class Pass:
    wall: float        # scaled to the reference speed, like latencies
    raw_wall: float
    latencies: list
    points: int
    fingerprint: str
    failed: int = 0
    failures: list = field(default_factory=list)


def run_pass(checks, ctx: Context) -> Pass:
    raw, latencies, outcomes = [], [], []
    in_process = []   # (index into latencies, raw time, kernel sample before)
    clock = time.perf_counter
    host = ctx.speed
    before = host.sample()
    for i, check in enumerate(checks):
        ctx.check_id = i
        if ctx.tracer is not None:
            ctx.tracer.check_id = i
        if host.due():
            before = host.sample()
        ctx.child_times = None
        t0 = clock()
        try:
            result, error = check.run(ctx), None
        except Exception as exc:  # a failing check is counted, the run goes on
            result, error = None, exc
        t = clock() - t0
        if ctx.child_times is None:
            in_process.append((i, t, before))
            latencies.append(None)
            raw.append(t)
        else:   # a CLI command, calibrated in its own process
            raw.append(ctx.child_times[0])
            latencies.append(ctx.child_times[1])
        outcomes.append((check, result, error))
    host.sample()
    # the sample after the one preceding a check is the first taken after it
    for i, t, b in in_process:
        latencies[i] = t * host.scale(b, b + 1)
    h = hashlib.sha256()
    points, failed, failures = 0, 0, []
    for check, result, error in outcomes:
        if error is None:
            try:
                o = check.judge(result)
            except Exception as exc:
                error = f"result could not be judged: {exc!r}"
        else:
            error = f"raised {error!r}"
        if error is not None:
            failed += 1
            failures.append(f"{check.key}: {error}")
            h.update(b"error\n")
            continue
        points += o.points
        failed += bool(o.failures)
        failures.extend(f"{check.key}: {f}" for f in o.failures)
        h.update(repr(o.fingerprint).encode() + b"\n")
    return Pass(sum(latencies), sum(raw), latencies, points, h.hexdigest(), failed, failures)


def run_passes(checks, ctx: Context, seconds: float) -> list:
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(checks, ctx))
    return passes


# -- metrics ---------------------------------------------------------------------

def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, n_checks: int, setup_walls, rss_mb: float) -> dict:
    # Each check's latency is its median over the passes, so that a burst of
    # host load in one pass does not move the percentiles over the checks.
    lat_ms = [1e3 * statistics.median(p.latencies[i] for p in passes) for i in range(n_checks)]
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(p.wall for p in passes),
        "points_per_s": statistics.median(p.points / p.wall for p in passes),
        "checks_per_s": statistics.median(n_checks / p.wall for p in passes),
        "check_p50_ms": percentile(lat_ms, 50),
        "check_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, traced, untraced, ctx: Context, setup_imports) -> dict:
    from tracer import layer_metrics
    out = layer_metrics(tracer, len(traced))
    imports = ctx.import_s or setup_imports
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for command in CLI_COMMANDS:
        walls = ctx.command_walls.get(command)
        out[f"cli.{command}.wall_s"] = statistics.median(walls) if walls else 0.0
    out["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                               - statistics.median(p.wall for p in untraced))
    return out


def with_units(values: dict, kind: str) -> dict:
    """``values`` in the order and with the units BENCHMARK.json gives for
    its ``kind`` metrics; every listed metric must have been measured."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)[kind]
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"measured {kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def environment(threads_removed: bool) -> dict:
    import numpy
    import scipy
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "SOLITON_LAB_THREADS": "unset",
            "SOLITON_LAB_THREADS_was_set": threads_removed}


# -- main ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("grid_sweep", "pointwise_quad", "cli_session"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "solitonlab" / "__init__.py").is_file():
        print(f"error: no solitonlab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    threads_removed = os.environ.pop("SOLITON_LAB_THREADS", None) is not None
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args.workload, args.seed)

    import solitonlab
    if Path(solitonlab.__file__).resolve().parent != (SRC / "solitonlab").resolve():
        print(f"error: imported solitonlab from {solitonlab.__file__}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    checks = workloads.build_checks(args.workload, args.seed)
    digest = workloads.inputs_digest(checks)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        ctx = Context(work_dir)
        raw_setup, setup_walls, setup_imports, setup_failures = measure_setup(
            args.workload, args.seed, digest, ctx)
        untraced = run_passes(checks, ctx, args.seconds / 2 if args.trace else args.seconds)
        traced, tracer = [], None
        if args.trace:
            tracer = Tracer()
            ctx.tracer = tracer
            if args.workload != "cli_session":
                tracer.install()
            try:
                traced = run_passes(checks, ctx, args.seconds / 2)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # Checks attempted: each set-up, each check of each pass, and the
    # comparison of each later pass's results with the first pass's.
    passes = untraced + traced
    failures = list(setup_failures)
    failed = len(setup_failures)
    for i, p in enumerate(passes):
        failures.extend(p.failures)
        failed += p.failed
        if p.fingerprint != passes[0].fingerprint:
            kind = "traced" if i >= len(untraced) else "untraced"
            failures.append(f"{kind} pass {i} computed other results than pass 0")
            failed += 1
    attempted = SETUP_RUNS + len(checks) * len(passes) + len(passes) - 1

    if args.trace:
        metrics = with_units(per_layer(tracer, traced, untraced, ctx, setup_imports), "per_layer")
    else:
        rss = (ctx.child_rss_mb if args.workload == "cli_session"
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = with_units(end_to_end(passes, len(checks), setup_walls, rss), "end_to_end")

    env = environment(threads_removed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "inputs_digest": digest,
              "passes": len(passes), "checks_per_pass": len(checks),
              "reference_kernel_s": speed.CAL_REF_S, "kernel_samples_s": ctx.speed.samples,
              "setup_walls_s": setup_walls, "raw_setup_walls_s": raw_setup,
              "pass_walls_s": [p.wall for p in passes],
              "raw_pass_walls_s": [p.raw_wall for p in passes],
              "failed_ratio": failed / attempted, "failures": failures[:200],
              "metrics": metrics}
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}-spans.json")

    for f in failures[:20]:
        print(f"FAIL {f}", file=sys.stderr)
    print("# env " + json.dumps(env))
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} checks/pass={len(checks)} "
          f"failed_ratio={failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
