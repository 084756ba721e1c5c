"""Per-layer tracing of solitonlab from outside the library.

``Tracer.install()`` replaces each traced public function with a timing
wrapper in every ``solitonlab`` module that holds it, including names bound
by ``from ... import`` (``pde.jet``, ``geometry.jet``, ``cli.obj_mesh_text``
and so on), and ``uninstall()`` puts the originals back.  The wrappers keep
a call stack, so each call's self time is its duration minus the time of
the traced calls nested in it.  Spans (id, parent id, name, start, end,
check id) are kept in memory and written out when the run ends; the hottest
leaf layers are aggregated only, so that a grid sweep does not keep
millions of spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# Leaf layers called per point or per quadrature node: counted, not spanned.
HOT = frozenset({"jetmath.prim", "core.jet", "family.holomorphic_derivative"})
MAX_SPANS = 500_000


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _set_arg(args, kwargs, index, name, value):
    if name in kwargs:
        return args, {**kwargs, name: value}
    return args[:index] + (value,) + args[index + 1:], kwargs


# -- hooks: pre(tracer, args, kwargs) -> (args, kwargs, state);
#          post(tracer, state, args, kwargs, result) -------------------------

def _jet_post(tr, _state, _args, _kwargs, out):
    if getattr(out, "backend_used", "") == "central-fallback":
        tr.counts["core.jet.fallback"] += 1


def _sweep_post(tr, _state, args, kwargs, rep):
    grid = _arg(args, kwargs, 2, "grid")
    tr.counts["pde.residual_sweep.points"] += grid.na * grid.nb - rep.excluded_count
    tr.counts["pde.residual_sweep.excluded"] += rep.excluded_count


def _classify_pre(tr, args, kwargs):
    return args, kwargs, tr.stats["core.jet"][0]


def _classify_post(tr, jets_before, _args, _kwargs, rows):
    tr.counts["geometry.classify_grid.points"] += len(rows)
    tr.counts["geometry.classify_grid.jets"] += tr.stats["core.jet"][0] - jets_before


def _path_post(tr, _state, _args, _kwargs, path):
    if len(path) > 2:
        tr.counts["quadrature.detours"] += 1


def _integrate_pre(tr, args, kwargs):
    fvec = _arg(args, kwargs, 0, "fvec")
    tr.counts["quadrature.segments"] += len(_arg(args, kwargs, 1, "path")) - 1
    counts = tr.counts

    def counted(w):
        counts["quadrature.integrand_calls"] += 1
        return fvec(w)
    args, kwargs = _set_arg(args, kwargs, 0, "fvec", counted)
    return args, kwargs, None


def _quad_vec_post(tr, _state, _args, _kwargs, out):
    tr.maxima["quadrature.err_max"] = max(tr.maxima.get("quadrature.err_max", 0.0), float(out[1]))


def _evaluate_pre(tr, args, kwargs):
    # evaluate(spec, args, K) accumulates the terms k = 1 .. 2K
    tr.counts["identities.terms"] += 2 * int(_arg(args, kwargs, 2, "K"))
    return args, kwargs, None


def _text_post(tr, _state, _args, _kwargs, text):
    tr.counts["reportio.bytes"] += len(text.encode())


def _jetmath_prims():
    jm = importlib.import_module("solitonlab.jetmath")
    return [n for n, v in vars(jm).items()
            if callable(v) and not n.startswith("_") and not isinstance(v, type)
            and getattr(v, "__module__", "") == jm.__name__]


# (layer name, module, attributes, pre hook, post hook)
LAYERS = [
    ("jetmath.prim", "solitonlab.jetmath", _jetmath_prims, None, None),
    ("core.jet", "solitonlab.core", ["jet"], None, _jet_post),
    ("pde.residual_sweep", "solitonlab.pde", ["residual_sweep"], None, _sweep_post),
    ("geometry.classify_grid", "solitonlab.geometry", ["classify_grid"], _classify_pre, _classify_post),
    ("geometry.isothermal_check", "solitonlab.geometry", ["isothermal_check"], None, None),
    ("quadrature.build_path", "solitonlab.quadrature", ["build_path"], None, _path_post),
    ("quadrature.integrate_segments", "solitonlab.quadrature", ["integrate_segments"], _integrate_pre, None),
    ("quadrature.quad_vec", "solitonlab.quadrature", ["quad_vec"], None, _quad_vec_post),
    ("weierstrass.we_integrate", "solitonlab.weierstrass", ["we_integrate"], None, None),
    ("family.whitham_verify", "solitonlab.family", ["whitham_verify"], None, None),
    ("family.holomorphic_derivative", "solitonlab.family", ["holomorphic_derivative"], None, None),
    ("family.conjugacy_check", "solitonlab.family", ["conjugacy_check"], None, None),
    ("family.complex_bi_residual_on_family", "solitonlab.family",
     ["complex_bi_residual_on_family"], None, None),
    ("identities.evaluate", "solitonlab.identities", ["evaluate"], _evaluate_pre, None),
    ("reportio.json_text", "solitonlab.reportio", ["json_text"], None, _text_post),
    ("reportio.csv_text", "solitonlab.reportio", ["csv_text"], None, _text_post),
    ("reportio.obj_mesh_text", "solitonlab.reportio", ["obj_mesh_text"], None, _text_post),
]


class Tracer:
    """Timing wrappers around solitonlab's layers, with their totals.

    ``stats[name]`` is ``[calls, busy_s, self_s]``; busy time counts only the
    outermost of nested calls of one name.  ``counts`` and ``maxima`` hold
    the work counters the hooks record.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self.maxima = {}
        self.spans = []
        self.dropped_spans = 0
        self.check_id = 0
        self._stack = []
        self._active = defaultdict(int)
        self._next_id = 1
        self._patched = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name, fn, pre=None, post=None):
        stack, active, stats, spans = self._stack, self._active, self.stats, self.spans
        keep = name not in HOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = None
            if pre is not None:
                args, kwargs, state = pre(self, args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                st = stats[name]
                st[0] += 1
                st[2] += dur - frame[1]
                if not active[name]:
                    st[1] += dur
                if stack:
                    stack[-1][1] += dur
                if keep:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, parent, name, t0, t1, self.check_id))
                    else:
                        self.dropped_spans += 1
            if post is not None:
                post(self, state, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every layer in every loaded solitonlab module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "solitonlab" or n.startswith("solitonlab."))]
        for name, module, attrs, pre, post in LAYERS:
            mod = importlib.import_module(module)
            for attr in (attrs() if callable(attrs) else attrs):
                original = getattr(mod, attr, None)
                if original is None:
                    continue  # layer absent from this version: its metrics read 0
                wrapper = self.wrap(name, original, pre, post)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            self._patched.append((m, key, original))

    def uninstall(self):
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts), "maxima": dict(self.maxima),
                "spans": self.spans, "dropped_spans": self.dropped_spans}

    def merge(self, snap: dict, check_id: int = 0, pid: int = 0):
        """Add a snapshot taken in another process (a traced CLI command)."""
        for k, (calls, busy, self_s) in snap["stats"].items():
            st = self.stats[k]
            st[0] += calls
            st[1] += busy
            st[2] += self_s
        for k, v in snap["counts"].items():
            self.counts[k] += v
        for k, v in snap["maxima"].items():
            self.maxima[k] = max(self.maxima.get(k, 0.0), v)
        self.dropped_spans += snap["dropped_spans"]
        room = MAX_SPANS - len(self.spans)
        self.spans.extend((f"{pid}:{s[0]}", f"{pid}:{s[1]}", s[2], s[3], s[4], check_id)
                          for s in snap["spans"][:room])
        self.dropped_spans += max(0, len(snap["spans"]) - room)

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s", "check"],
                       "dropped": self.dropped_spans, "spans": self.spans}, fh)
            fh.write("\n")


def layer_metrics(tr: Tracer, passes: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, per pass."""
    def stat(name, i):
        return tr.stats[name][i] / passes if name in tr.stats else 0.0

    def count(name):
        return tr.counts.get(name, 0) / passes

    out = {}
    fields = {
        "jetmath.prim": ("calls", "busy_s"),
        "core.jet": ("calls", "busy_s", "self_s"),
        "pde.residual_sweep": ("calls", "busy_s", "self_s"),
        "geometry.classify_grid": ("busy_s", "self_s"),
        "geometry.isothermal_check": ("calls", "busy_s"),
        "quadrature.build_path": ("calls",),
        "quadrature.integrate_segments": ("calls", "busy_s"),
        "quadrature.quad_vec": ("calls",),
        "weierstrass.we_integrate": ("calls", "busy_s", "self_s"),
        "family.whitham_verify": ("calls", "busy_s", "self_s"),
        "family.holomorphic_derivative": ("calls", "busy_s"),
        "family.conjugacy_check": ("busy_s",),
        "family.complex_bi_residual_on_family": ("busy_s",),
        "identities.evaluate": ("calls", "busy_s"),
        "reportio.json_text": ("busy_s",),
        "reportio.csv_text": ("busy_s",),
        "reportio.obj_mesh_text": ("busy_s",),
        "cli.main": ("busy_s", "self_s"),
    }
    index = {"calls": 0, "busy_s": 1, "self_s": 2}
    for name, whats in fields.items():
        for what in whats:
            out[f"{name}.{what}"] = stat(name, index[what])
    out["core.jet.fallback"] = count("core.jet.fallback")
    out["core.jet.errors"] = count("core.jet.errors")
    out["pde.residual_sweep.points"] = count("pde.residual_sweep.points")
    out["pde.residual_sweep.excluded"] = count("pde.residual_sweep.excluded")
    points = tr.counts.get("geometry.classify_grid.points", 0)
    out["geometry.classify_grid.points"] = count("geometry.classify_grid.points")
    out["geometry.classify_grid.jets_per_point"] = (
        tr.counts.get("geometry.classify_grid.jets", 0) / points if points else 0.0)
    for name in ("quadrature.detours", "quadrature.segments", "quadrature.integrand_calls",
                 "identities.terms", "reportio.bytes"):
        out[name] = count(name)
    out["quadrature.err_max"] = tr.maxima.get("quadrature.err_max", 0.0)
    return out
