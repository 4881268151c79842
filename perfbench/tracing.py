"""Layer tracing from outside the program: wrap conefix's public functions.

``Tracer.install`` replaces every public function of the traced modules with a
wrapper that records a span (calls, inclusive and self time) while the tracer
is active.  Functions are rebound in every ``conefix`` module that holds them,
because ``cli`` (and ``oracle``, ``solver``) import names by value.  A few
methods are wrapped too: hot ones (the metric, the relaxed cone test, the map
``__call__``s) only count calls, so tracing them does not swamp the spans.

Self time is a span's duration minus the time its child spans cover; spans
are nested on one thread, so children are disjoint and a running sum is exact.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cone_space", "contractions", "oracle", "solver", "cli", "instances")

# Public functions called per point or per cone test: counted, not timed.
COUNT_ONLY = {"cone_space.as_vector"}

# (module, class, method, span name, timed?)
METHODS = (
    ("cone_space", "ConeMetricSpace", "d", "cone_space.ConeMetricSpace.d", False),
    ("cone_space", "ConeSpec", "contains_relaxed", "cone_space.ConeSpec.contains_relaxed", False),
    ("contractions", "IdentityMap", "__call__", "contractions.map.IdentityMap", False),
    ("contractions", "AffineMap", "__call__", "contractions.map.AffineMap", False),
    ("contractions", "PowerMap", "__call__", "contractions.map.PowerMap", False),
    ("contractions", "TabulatedMap", "__call__", "contractions.map.TabulatedMap", False),
    ("oracle", "FiniteInstance", "__post_init__", "oracle.FiniteInstance", True),
)

# Oracle entry points that scan all n^2 ordered pairs once per call.
ORACLE_SCANS = (
    "exhaustive_condition_check", "exhaustive_reduction_check", "tightest_constants",
    "exhaustive_promotion_check",
)


def _bound(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    ba = sig.bind(*args, **kwargs)
    return ba.arguments


def _hooks() -> dict:
    """Work counters taken at a span's boundary: name -> f(tracer, fn, args, kwargs, result)."""

    def metric_axioms(tr, fn, a, k, res):
        tr.counts["cone_space.metric_axioms.checked"] += res.sample_count

    def condition(tr, fn, a, k, res):
        tr.counts["contractions.pairs_checked"] += res.pairs_checked

    def reduction(tr, fn, a, k, res):
        # the TZ pre-check is its own check_condition span; add the two forms
        if res.primary is not None:
            tr.counts["contractions.pairs_checked"] += res.primary.pairs_checked

    def fit(tr, fn, a, k, res):
        tr.counts["contractions.pairs_checked"] += len(_bound(fn, a, k)["pairs"])

    def oracle_scan(tr, fn, a, k, res):
        fin = _bound(fn, a, k)["fin"]
        n, m = fin.n, fin.metric_table.shape[-1]
        tr.counts["oracle.pairs_checked"] += n * n
        # five (n, n, m)-or-(n, m) float64 tensors per scan, from n and m
        tr.counts["oracle.bytes_computed"] += (4 * n * n + n) * m * 8

    def picard(tr, fn, a, k, res):
        tr.counts["solver.iterations"] += res.n_final
        tr.counts[f"solver.stop.{res.stop_reason}"] += 1

    def decay(tr, fn, a, k, res):
        tr.counts["solver.cauchy_pairs_checked"] += res.cauchy_pairs_checked

    def emit(tr, fn, a, k, res):
        tr.counts["cli.trace_rows"] += len(_bound(fn, a, k)["trace"].t_image_gaps)

    hooks = {
        "cone_space.verify_metric_axioms": metric_axioms,
        "contractions.check_condition": condition,
        "contractions.verify_zamfirescu_reduction": reduction,
        "contractions.fit_constants": fit,
        "solver.picard_iterate": picard,
        "solver.geometric_decay_check": decay,
        "cli.emit_trace": emit,
    }
    for name in ORACLE_SCANS:
        hooks[f"oracle.{name}"] = oracle_scan
    return hooks


class Tracer:
    """Span and counter recorder.  Inactive wrappers pass straight through."""

    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans = 0
        self._stack: list[list[float]] = []     # per open span: child time so far
        self._hooks = _hooks()

    def _span(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                self.calls[name] += 1
                self.spans += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[0]
            if hook is not None:
                try:
                    hook(self, fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    # a renamed field or parameter must not break the op
                    self.counts["trace.hook_errors"] += 1
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions and listed methods of every layer."""
        modules = {}
        for name in LAYERS:
            try:
                modules[name] = importlib.import_module(f"conefix.{name}")
            except ModuleNotFoundError:     # a module that is gone reads 0
                continue
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                make = self._counter if name in COUNT_ONLY else self._span
                wrapped[obj] = make(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "conefix" and not modname.startswith("conefix."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for layer, cls_name, method, name, timed in METHODS:
            fn = vars(getattr(modules.get(layer), cls_name, object)).get(method)
            if fn is not None:       # a class or method that is gone reads 0
                setattr(getattr(modules[layer], cls_name), method,
                        (self._span if timed else self._counter)(name, fn))

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures per pass of the op list (counts and ms)."""

        def per(v):
            return v / passes

        def ms(name):
            return per(self.self_s[name]) * 1e3

        def rate(count, names):
            busy = sum(self.self_s[n] for n in names)
            return count / busy if busy > 0 else 0.0

        out = {}
        spans = ("cone_space.verify_cone_axioms", "cone_space.verify_metric_axioms",
                 "contractions.check_condition", "contractions.verify_zamfirescu_reduction",
                 "contractions.fit_constants", "contractions.grid_pairs",
                 "contractions.sampled_pairs", "contractions.all_pairs",
                 "oracle.exhaustive_condition_check", "oracle.exhaustive_reduction_check",
                 "oracle.tightest_constants", "oracle.cross_validate",
                 "oracle.enumerate_fixed_points", "solver.picard_iterate",
                 "solver.geometric_decay_check", "solver.uniqueness_probe",
                 "solver.certify_fixed_point", "solver.diagnose_T", "cli.main",
                 "cli.parse_instance", "cli.run", "cli.emit_trace")
        for name in spans:
            out[f"{name}.calls"] = per(self.calls[name])
            out[f"{name}.self_ms"] = ms(name)
        out["cone_space.metric_axioms.checked"] = per(self.counts["cone_space.metric_axioms.checked"])
        out["cone_space.ConeMetricSpace.d.calls"] = per(self.calls["cone_space.ConeMetricSpace.d"])
        out["cone_space.ConeSpec.contains_relaxed.calls"] = per(
            self.calls["cone_space.ConeSpec.contains_relaxed"])
        out["contractions.zamfirescu_delta.calls"] = per(self.calls["contractions.zamfirescu_delta"])
        out["contractions.pairs_checked"] = per(self.counts["contractions.pairs_checked"])
        out["contractions.pairs_per_s"] = rate(
            self.counts["contractions.pairs_checked"],
            ("contractions.check_condition", "contractions.verify_zamfirescu_reduction",
             "contractions.fit_constants"))
        out["contractions.map_calls"] = per(sum(
            v for k, v in self.calls.items() if k.startswith("contractions.map.")))
        out["oracle.FiniteInstance.calls"] = per(self.calls["oracle.FiniteInstance"])
        out["oracle.FiniteInstance.build_ms"] = per(self.total_s["oracle.FiniteInstance"]) * 1e3
        out["oracle.pairs_checked"] = per(self.counts["oracle.pairs_checked"])
        out["oracle.pairs_per_s"] = rate(
            self.counts["oracle.pairs_checked"],
            [f"oracle.{n}" for n in ORACLE_SCANS] + ["oracle.cross_validate"])
        out["oracle.bytes_computed"] = per(self.counts["oracle.bytes_computed"])
        out["solver.iterations"] = per(self.counts["solver.iterations"])
        out["solver.iterations_per_s"] = rate(
            self.counts["solver.iterations"], ("solver.picard_iterate",))
        for reason in ("converged", "max_iter", "cycle_detected"):
            out[f"solver.stop.{reason}"] = per(self.counts[f"solver.stop.{reason}"])
        out["solver.cauchy_pairs_checked"] = per(self.counts["solver.cauchy_pairs_checked"])
        out["cli.trace_rows"] = per(self.counts["cli.trace_rows"])
        out["trace.spans"] = per(self.spans)
        out["trace.hook_errors"] = per(self.counts["trace.hook_errors"])
        return out


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "bytes"
    return "count"
