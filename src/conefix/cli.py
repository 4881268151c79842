"""Command-line entry point: parse JSON instance files and dispatch
verify / solve / oracle / fit, emitting machine-readable reports.

Exit statuses: 0 every requested check passed, 1 a check failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import solver
from .cone_space import (
    BoxCarrier, ConeMetricSpace, ConeSpec, ConfigError, DirectionMetric, DomainError,
    FinitePointsCarrier, IntervalCarrier, SamplingPlan, TabulatedMetric, point_key,
    verify_cone_axioms, verify_metric_axioms,
)
from .contractions import (
    CLASS_KINDS, TB, TC, TK, TW, TW_DUAL, TZ,
    AffineMap, ClassSpec, ConditionReport, DeclaredProperties, IdentityMap, MapPair,
    PowerMap, TabulatedMap, all_pairs, check_condition, constant_names, fit_constants, grid_pairs,
    rate_from_primary_form, sampled_pairs, verify_zamfirescu_reduction, zamfirescu_delta,
)
from .oracle import (
    FiniteInstance, cross_validate, enumerate_fixed_points, exhaustive_condition_check,
    exhaustive_reduction_check, tightest_constants,
)

SCHEMA_VERSION = "1"

CHECK_DESCRIPTIONS = {
    "P1-zero": "cone contains the zero vector",
    "P1-interior-nonempty": "declared interior of the cone is nonempty",
    "P2-combination": "closure under nonnegative combinations",
    "P3-pointed": "pointedness: only 0 lies in both P and -P",
    "d1-cone": "metric values lie in the cone",
    "d1-separation": "zero distance only between equal points",
    "d1-identity": "zero distance on the diagonal",
    "d2-symmetry": "metric symmetry",
    "d3-triangle": "triangle inequality in the cone order",
}


class InstanceValidationError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class RunDefaults:
    seed: int = 0
    samples: int = 10_000
    x0: object | None = None
    epsilon: float = 1e-12
    max_iter: int = 1_000_000
    rate_h: float | None = None
    normal_k: float = 1.0


@dataclass
class LoadedInstance:
    space: ConeMetricSpace
    maps: MapPair
    contraction: ClassSpec | None
    run: RunDefaults
    finite: FiniteInstance | None
    tw_delta_pinned: bool = False


# ---------------------------------------------------------------------------
# Parsing and validation (all errors accumulated, unknown keys rejected)
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, allowed: set[str], where: str, errors: list[str]):
    for key in obj:
        if key not in allowed:
            errors.append(f"{where}: unknown key {key!r}")


def _get(obj: dict, key: str, where: str, errors: list[str], default=None, required=False):
    if key not in obj:
        if required:
            errors.append(f"{where}: missing required key {key!r}")
        return default
    return obj[key]


def _parse_cone(section, errors: list[str]) -> ConeSpec | None:
    where = "cone"
    if not isinstance(section, dict):
        errors.append(f"{where}: must be an object")
        return None
    family = _get(section, "family", where, errors, default="orthant")
    allowed = {"family", "dimension", "norm", "interior_margin", "slack"}
    if family == "scaled_orthant":
        allowed.add("weights")
    elif family == "polyhedral":
        allowed.add("matrix")
    _check_keys(section, allowed, where, errors)
    dim = _get(section, "dimension", where, errors, required=True)
    kw = {}
    if "norm" in section:
        kw["norm_kind"] = section["norm"]
    if "interior_margin" in section:
        kw["interior_margin"] = section["interior_margin"]
    if "slack" in section:
        kw["slack"] = section["slack"]
    if dim is None:
        return None
    try:
        if family == "orthant":
            return ConeSpec.orthant(int(dim), **kw)
        if family == "scaled_orthant":
            weights = _get(section, "weights", where, errors, required=True)
            if weights is None:
                return None
            cone = ConeSpec.scaled_orthant(weights, **kw)
            if cone.dimension != int(dim):
                errors.append(f"{where}: weights length {cone.dimension} != dimension {dim}")
                return None
            return cone
        if family == "polyhedral":
            matrix = _get(section, "matrix", where, errors, required=True)
            if matrix is None:
                return None
            a = np.asarray(matrix, dtype=float)
            if a.ndim != 2 or a.shape[1] != int(dim):
                errors.append(
                    f"{where}: inequality matrix must have {dim} columns, got shape {a.shape}"
                )
                return None
            return ConeSpec.polyhedral(a, **kw)
        errors.append(f"{where}: unknown family {family!r}")
    except (ConfigError, TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
    return None


def _parse_carrier(section, errors: list[str]):
    where = "space.carrier"
    if not isinstance(section, dict):
        errors.append(f"{where}: must be an object")
        return None
    kind = _get(section, "kind", where, errors, required=True)
    try:
        if kind == "interval":
            _check_keys(section, {"kind", "lo", "hi", "grid"}, where, errors)
            return IntervalCarrier(
                float(_get(section, "lo", where, errors, required=True)),
                float(_get(section, "hi", where, errors, required=True)),
                int(section.get("grid", 101)),
            )
        if kind == "box":
            _check_keys(section, {"kind", "lows", "highs", "grid"}, where, errors)
            return BoxCarrier(
                np.asarray(_get(section, "lows", where, errors, required=True), dtype=float),
                np.asarray(_get(section, "highs", where, errors, required=True), dtype=float),
                int(section.get("grid", 11)),
            )
        if kind == "finite":
            _check_keys(section, {"kind", "points"}, where, errors)
            pts = _get(section, "points", where, errors, required=True)
            if pts is None:
                return None
            return FinitePointsCarrier(list(pts))
        errors.append(f"{where}: unknown carrier kind {kind!r}")
    except (ConfigError, TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
    return None


def _parse_metric(section, carrier, cone, errors: list[str]):
    where = "space.metric"
    if not isinstance(section, dict):
        errors.append(f"{where}: must be an object")
        return None
    kind = _get(section, "kind", where, errors, required=True)
    try:
        if kind == "direction":
            _check_keys(section, {"kind", "direction", "scalar"}, where, errors)
            u = np.asarray(_get(section, "direction", where, errors, required=True), dtype=float)
            if cone is not None:
                if len(u) != cone.dimension:
                    errors.append(f"{where}: direction length {len(u)} != cone dimension")
                    return None
                if not cone.contains(u, "interior"):
                    errors.append(f"{where}: direction vector must lie in the cone interior")
                    return None
            scalar = section.get("scalar", "absdiff")
            if isinstance(carrier, IntervalCarrier) and scalar != "absdiff":
                errors.append(f"{where}: interval carriers use the 'absdiff' scalar metric")
                return None
            return DirectionMetric(u, scalar)
        if kind == "tabulated":
            _check_keys(section, {"kind", "table"}, where, errors)
            table = _get(section, "table", where, errors, required=True)
            if table is None or carrier is None:
                return None
            if not isinstance(carrier, FinitePointsCarrier):
                errors.append(f"{where}: tabulated metrics require a finite carrier")
                return None
            return TabulatedMetric(list(carrier.points), np.asarray(table, dtype=float))
        errors.append(f"{where}: unknown metric kind {kind!r}")
    except (ConfigError, TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
    return None


def _parse_map(section, carrier, errors: list[str], where: str):
    if not isinstance(section, dict):
        errors.append(f"{where}: must be an object")
        return None
    family = _get(section, "family", where, errors, required=True)
    try:
        if family == "identity":
            _check_keys(section, {"family"}, where, errors)
            return IdentityMap()
        if family == "affine":
            _check_keys(section, {"family", "alpha", "beta"}, where, errors)
            return AffineMap(
                float(_get(section, "alpha", where, errors, required=True)),
                float(section.get("beta", 0.0)),
            )
        if family == "power":
            _check_keys(section, {"family", "exponent"}, where, errors)
            return PowerMap(float(_get(section, "exponent", where, errors, required=True)))
        if family == "tabulated":
            _check_keys(section, {"family", "images"}, where, errors)
            images = _get(section, "images", where, errors, required=True)
            if images is None or carrier is None:
                return None
            if not isinstance(carrier, FinitePointsCarrier):
                errors.append(f"{where}: tabulated maps require a finite carrier")
                return None
            pts = list(carrier.points)
            try:
                return TabulatedMap(pts, [pts[int(i)] for i in images])
            except (IndexError, ValueError):
                errors.append(f"{where}: images must be valid point indices")
                return None
        errors.append(f"{where}: unknown map family {family!r}")
    except (ConfigError, TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
    return None


def _parse_contraction(section, errors: list[str]) -> tuple[ClassSpec | None, bool]:
    """Returns (spec, tw_delta_pinned): a TW section carrying delta but no
    L pins delta for the fit command (L then fitted on that boundary)."""
    where = "contraction"
    if not isinstance(section, dict):
        errors.append(f"{where}: must be an object")
        return None, False
    kind = _get(section, "class", where, errors, required=True)
    if kind not in CLASS_KINDS:
        errors.append(f"{where}: unknown class {kind!r}")
        return None, False
    names = constant_names(kind)
    _check_keys(section, {"class", *names}, where, errors)
    constants = {k: section[k] for k in names if k in section}
    pinned = kind in (TW, TW_DUAL) and "delta" in constants and "L" not in constants
    if pinned:
        constants["L"] = 0.0
    try:
        return ClassSpec(kind, **{k: float(v) for k, v in constants.items()}), pinned
    except (ConfigError, TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
        return None, False


def _parse_run(section, errors: list[str]) -> RunDefaults:
    where = "run"
    run = RunDefaults()
    if section is None:
        return run
    if not isinstance(section, dict):
        errors.append(f"{where}: must be an object")
        return run
    allowed = {"seed", "samples", "x0", "epsilon", "max_iter", "rate_h", "normal_k"}
    _check_keys(section, allowed, where, errors)
    try:
        if "seed" in section:
            run.seed = int(section["seed"])
        if "samples" in section:
            run.samples = int(section["samples"])
            if run.samples < 1:
                errors.append(f"{where}: samples must be >= 1")
        if "x0" in section:
            run.x0 = section["x0"]
        if "epsilon" in section:
            run.epsilon = float(section["epsilon"])
            if run.epsilon <= 0:
                errors.append(f"{where}: epsilon must be > 0")
        if "max_iter" in section:
            run.max_iter = int(section["max_iter"])
            if run.max_iter < 1:
                errors.append(f"{where}: max_iter must be >= 1")
        if "rate_h" in section:
            run.rate_h = float(section["rate_h"])
            if not 0.0 <= run.rate_h < 1.0:
                errors.append(f"{where}: rate_h must be in [0, 1)")
        if "normal_k" in section:
            run.normal_k = float(section["normal_k"])
            if run.normal_k < 1.0:
                errors.append(f"{where}: normal_k must be >= 1")
    except (TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
    return run


def parse_instance(text: str) -> LoadedInstance:
    """Parse and fully validate an instance file, reporting every
    validation error at once (not just the first)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceValidationError(
            [f"syntax: {exc.msg} at line {exc.lineno} column {exc.colno}"]
        ) from exc
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise InstanceValidationError(["top level must be an object"])
    _check_keys(doc, {"schema_version", "cone", "space", "maps", "contraction", "run"}, "top", errors)

    version = _get(doc, "schema_version", "top", errors, required=True)
    if version is not None and str(version) != SCHEMA_VERSION:
        errors.append(f"top: unsupported schema_version {version!r}")

    cone = _parse_cone(_get(doc, "cone", "top", errors, required=True) or {}, errors)

    space_sec = _get(doc, "space", "top", errors, required=True) or {}
    if isinstance(space_sec, dict):
        _check_keys(space_sec, {"carrier", "metric"}, "space", errors)
        carrier = _parse_carrier(_get(space_sec, "carrier", "space", errors, required=True) or {}, errors)
        metric = _parse_metric(
            _get(space_sec, "metric", "space", errors, required=True) or {}, carrier, cone, errors
        )
    else:
        errors.append("space: must be an object")
        carrier = metric = None

    maps_sec = _get(doc, "maps", "top", errors, required=True) or {}
    t_map = s_map = None
    declared = DeclaredProperties()
    if isinstance(maps_sec, dict):
        _check_keys(maps_sec, {"T", "S", "declared"}, "maps", errors)
        t_map = _parse_map(_get(maps_sec, "T", "maps", errors, required=True) or {}, carrier, errors, "maps.T")
        s_map = _parse_map(_get(maps_sec, "S", "maps", errors, required=True) or {}, carrier, errors, "maps.S")
        if "declared" in maps_sec:
            dsec = maps_sec["declared"]
            flags = {
                "t_continuous", "t_injective", "t_sequentially_convergent",
                "t_subsequentially_convergent", "s_continuous",
            }
            _check_keys(dsec, flags, "maps.declared", errors)
            declared = DeclaredProperties(**{k: bool(v) for k, v in dsec.items() if k in flags})
    else:
        errors.append("maps: must be an object")

    contraction, tw_pinned = None, False
    if "contraction" in doc:
        contraction, tw_pinned = _parse_contraction(doc["contraction"], errors)

    run = _parse_run(doc.get("run"), errors)

    if errors or cone is None or carrier is None or metric is None or t_map is None or s_map is None:
        raise InstanceValidationError(errors or ["incomplete instance"])

    space = ConeMetricSpace(cone, carrier, metric)
    maps = MapPair(t_map, s_map, declared)

    finite = None
    if isinstance(carrier, FinitePointsCarrier) and isinstance(metric, TabulatedMetric):
        idx = {p: i for i, p in enumerate(carrier.points)}
        try:
            t_tab = np.asarray([idx[t_map(p)] for p in carrier.points])
            s_tab = np.asarray([idx[s_map(p)] for p in carrier.points])
            finite = FiniteInstance(list(carrier.points), metric.table, t_tab, s_tab, cone)
        except (ConfigError, DomainError, KeyError) as exc:
            raise InstanceValidationError([f"space: {exc}"]) from exc

    return LoadedInstance(space, maps, contraction, run, finite, tw_pinned)


def load_instance(path: str | Path) -> LoadedInstance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def _plain(value):
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # keep report files strict JSON
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def _axiom_report_dict(report) -> dict:
    return {
        "passed": report.passed,
        "axioms_checked": report.axioms_checked,
        "sample_count": report.sample_count,
        "violations": [
            {
                "check": v.axiom,
                "description": CHECK_DESCRIPTIONS.get(v.axiom, v.axiom),
                "witness": _plain(v.witness),
                "residual": _plain(v.residual),
            }
            for v in report.violations[:50]
        ],
        "violation_count": len(report.violations),
    }


def _condition_report_dict(report: ConditionReport) -> dict:
    return {
        "class": report.spec.kind,
        "constants": report.spec.constants(),
        "pairs_checked": report.pairs_checked,
        "holds": report.holds,
        "inconclusive": report.inconclusive,
        "branch_stats": report.branch_stats,
        "notes": list(report.notes),
        "violations": [
            {
                "x": _plain(v.x), "y": _plain(v.y),
                "lhs": _plain(v.lhs), "rhs": _plain(v.rhs), "residual": _plain(v.residual),
            }
            for v in report.violations[:50]
        ],
        "violation_count": len(report.violations),
    }


def _dump_json(obj, path: Path | None) -> str:
    text = json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"
    if path is not None:
        path.write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------

def _fmt17(v) -> str:
    return format(float(v), ".17g")


def _point_cell(x) -> str:
    if isinstance(x, np.ndarray):
        return ";".join(_fmt17(c) for c in x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _fmt17(x)


def emit_trace(
    trace: solver.IterationTrace,
    fmt: str = "csv",
    path: str | Path | None = None,
    *,
    h: float = 0.0,
    K: float = 1.0,
) -> str:
    """Serialize a trace with one row per monitored gap.  CSV columns:
    n, x_n, gap_vector, gap_norm, cumulative_bound (= K h^n ||d_0||);
    floats carry 17 significant digits so values round-trip exactly.
    """
    if not trace.t_image_gaps:
        raise ConfigError("refusing to emit an empty trace")
    d0 = trace.gap_norms[0]
    rows = []
    for n, gap in enumerate(trace.t_image_gaps):
        rows.append(
            {
                "n": n,
                "x_n": trace.x_sequence[n],
                "gap_vector": gap,
                "gap_norm": trace.gap_norms[n],
                "cumulative_bound": K * h ** n * d0,
            }
        )
    if fmt == "csv":
        lines = ["n,x_n,gap_vector,gap_norm,cumulative_bound"]
        for r in rows:
            lines.append(
                ",".join(
                    [
                        str(r["n"]),
                        _point_cell(r["x_n"]),
                        ";".join(_fmt17(c) for c in r["gap_vector"]),
                        _fmt17(r["gap_norm"]),
                        _fmt17(r["cumulative_bound"]),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "h": h,
            "K": K,
            "stop_reason": trace.stop_reason,
            "rows": [
                {
                    "n": r["n"],
                    "x_n": _plain(r["x_n"]),
                    "gap_vector": _plain(r["gap_vector"]),
                    "gap_norm": float(r["gap_norm"]),
                    "cumulative_bound": float(r["cumulative_bound"]),
                }
                for r in rows
            ],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown trace format {fmt!r}")
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@dataclass
class Options:
    seed: int | None = None
    samples: int | None = None
    x0: object | None = None
    epsilon: float | None = None
    out: Path | None = None
    fmt: str = "csv"


def _condition_pairs(inst: LoadedInstance, samples: int, seed: int):
    carrier = inst.space.carrier
    if carrier.finite:
        return all_pairs(list(carrier.points))
    pairs = grid_pairs(inst.space)
    if len(pairs) > samples:
        return sampled_pairs(inst.space, samples, seed)
    return pairs


def _default_starts(inst: LoadedInstance, x0) -> list:
    carrier = inst.space.carrier
    if carrier.finite:
        pts = list(carrier.points)
        starts = [pts[0], pts[len(pts) // 2], pts[-1]]
    elif isinstance(carrier, BoxCarrier):
        starts = [carrier.lows, 0.5 * (carrier.lows + carrier.highs), carrier.highs]
    else:
        starts = [carrier.lo, 0.5 * (carrier.lo + carrier.hi), carrier.hi]
    keyed = {point_key(s): s for s in starts}
    keyed.setdefault(point_key(x0), x0)
    return list(keyed.values())


def run(command: str, inst: LoadedInstance, options: Options) -> tuple[int, dict]:
    """Dispatch one command; returns (exit status, artifacts)."""
    seed = options.seed if options.seed is not None else inst.run.seed
    samples = options.samples if options.samples is not None else inst.run.samples
    epsilon = options.epsilon if options.epsilon is not None else inst.run.epsilon

    if command == "verify":
        plan = SamplingPlan(count=samples, seed=seed)
        cone_report = verify_cone_axioms(inst.space.cone, plan)
        metric_report = verify_metric_axioms(inst.space, plan)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "cone_axioms": _axiom_report_dict(cone_report),
            "metric_axioms": _axiom_report_dict(metric_report),
        }
        ok = cone_report.passed and metric_report.passed
        spec = inst.contraction
        if spec is not None:
            pairs = _condition_pairs(inst, samples, seed)
            red = None
            if spec.kind == TZ:   # the reduction check runs the TZ check first
                red = verify_zamfirescu_reduction(inst.space, inst.maps, spec.a, spec.b, spec.c, pairs)
            cond = red.tz_report if red else check_condition(inst.space, inst.maps, spec, pairs)
            report["condition"] = _condition_report_dict(cond)
            ok = ok and cond.holds and not cond.inconclusive
            if red is not None:
                report["reduction"] = {
                    "delta": red.delta,
                    "rate_h": red.delta,
                    "rate_h_primary_form": rate_from_primary_form(red.delta),
                    "applicable": red.applicable,
                    "holds": red.holds,
                    "primary": _condition_report_dict(red.primary) if red.primary else None,
                    "dual": _condition_report_dict(red.dual) if red.dual else None,
                }
                ok = ok and red.holds
        report["status"] = "pass" if ok else "fail"
        _dump_json(report, options.out)
        return (0 if ok else 1), {"report": report}

    if command == "solve":
        x0 = options.x0 if options.x0 is not None else inst.run.x0
        if x0 is None:
            raise UsageError("solve requires a start point (run.x0 or --x0)")
        if inst.space.carrier.finite and isinstance(x0, float) and x0.is_integer():
            x0 = int(x0)
        rule = solver.StoppingRule(epsilon=epsilon, max_iter=inst.run.max_iter)
        trace = solver.picard_iterate(inst.space, inst.maps, x0, rule)
        check = solver.certify_fixed_point(inst.space, inst.maps, trace.last, epsilon)
        measured = trace.max_step_ratio()

        delta = None
        if inst.contraction is not None and inst.contraction.kind == TZ:
            delta = zamfirescu_delta(inst.contraction.a, inst.contraction.b, inst.contraction.c)
        h = inst.run.rate_h if inst.run.rate_h is not None else delta
        if h is None:
            h = measured if (measured is not None and measured < 1.0) else 0.0
        decay = None
        if trace.t_image_gaps:
            decay = solver.geometric_decay_check(trace, h, inst.run.normal_k, seed=seed)

        probe = solver.uniqueness_probe(inst.space, inst.maps, _default_starts(inst, x0), rule)
        trace_text = emit_trace(trace, options.fmt, options.out, h=h, K=inst.run.normal_k)
        cert_dict = {
            "fixed_point": _plain(check.point if check.certified else None),
            "residual_norm": check.residual_norm,
            "rate_h": measured,
            "rate_h_primary_form": rate_from_primary_form(delta) if delta is not None else None,
            "bound_h": h,
            "decay_per_step_ok": decay.per_step_ok if decay else None,
            "cauchy_bound_ok": decay.cauchy_ok if decay else None,
            "uniqueness": probe.verdict,
            "witnesses": _plain(probe.witnesses),
            "stop_reason": trace.stop_reason,
            "iterations": trace.n_final,
        }
        ok = trace.stop_reason == solver.CONVERGED and check.certified
        return (0 if ok else 1), {"trace": trace, "trace_text": trace_text, "certificate": cert_dict}

    if command == "oracle":
        if inst.finite is None:
            raise UsageError("the oracle command requires a finite tabulated instance")
        fin = inst.finite
        out: dict = {
            "schema_version": SCHEMA_VERSION,
            "command": "oracle",
            "points": fin.n,
            "fixed_points": _plain(enumerate_fixed_points(fin)),
            "t_injective": fin.t_injective,
        }
        ok = True
        if inst.contraction is not None:
            cond = exhaustive_condition_check(fin, inst.contraction)
            out["condition"] = {
                "class": cond.spec.kind,
                "constants": cond.spec.constants(),
                "holds": cond.holds,
                "pairs_checked": cond.pairs_checked,
                "violating_pairs": _plain(cond.violating_pairs[:50]),
                "violation_count": len(cond.violating_pairs),
                "branch_stats": cond.branch_stats,
            }
            ok = ok and cond.holds
            if inst.contraction.kind == TZ:
                red = exhaustive_reduction_check(
                    fin, inst.contraction.a, inst.contraction.b, inst.contraction.c
                )
                out["reduction"] = {
                    "delta": red.delta,
                    "applicable": red.applicable,
                    "holds": red.holds,
                    "primary_ok": red.primary_ok,
                    "dual_ok": red.dual_ok,
                    "primary_violations": _plain(red.primary_violations[:50]),
                    "dual_violations": _plain(red.dual_violations[:50]),
                }
                ok = ok and red.holds
            if inst.contraction.kind in (TB, TK, TC, TW):
                tight = tightest_constants(fin, inst.contraction.kind)
                out["tightest"] = {
                    "kind": tight.kind,
                    "feasible": tight.feasible,
                    "constants": tight.constants,
                    "supremum": tight.supremum,
                    "infeasible_witnesses": _plain(tight.infeasible_witnesses[:50]),
                }
            cv = cross_validate(fin, inst.contraction)
            out["cross_validation"] = {
                "applicable": cv.applicable,
                "fixed_points": _plain(cv.fixed_points),
                "unique_expected": cv.unique_expected,
                "exists_ok": cv.exists_ok,
                "unique_ok": cv.unique_ok,
                "orbits_ok": cv.orbits_ok,
                "max_orbit_steps": max(cv.orbit_steps.values(), default=0),
                "multiplicity_allowed": cv.multiplicity_allowed,
                "passed": cv.passed,
            }
            ok = ok and cv.passed
        out["status"] = "pass" if ok else "fail"
        _dump_json(out, options.out)
        return (0 if ok else 1), {"report": out}

    if command == "fit":
        if inst.contraction is None:
            raise UsageError("fit requires a contraction section naming the class")
        kind = inst.contraction.kind
        if kind not in (TB, TK, TC, TW):
            raise UsageError(f"fit supports TB/TK/TC/TW, not {kind}")
        pairs = _condition_pairs(inst, samples, seed)
        pinned = {"delta": inst.contraction.delta} if (kind == TW and inst.tw_delta_pinned) else None
        result = fit_constants(inst.space, inst.maps, kind, pairs, pinned=pinned)
        out = {
            "schema_version": SCHEMA_VERSION,
            "command": "fit",
            "kind": result.kind,
            "feasible": result.feasible,
            "constants": result.spec.constants() if result.spec else None,
            "hard_witnesses": _plain(result.hard_witnesses[:50]),
            "status": "pass" if result.feasible else "fail",
        }
        _dump_json(out, options.out)
        return (0 if result.feasible else 1), {"report": out}

    raise UsageError(f"unknown command {command!r}")


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conefix",
        description="Cone metric spaces, contraction classes, and fixed-point certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "solve", "oracle", "fit"):
        p = sub.add_parser(name)
        p.add_argument("--instance", required=True, help="path to a JSON instance file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--x0", type=str, default=None, help="start point (JSON literal)")
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--out", type=str, default=None, help="artifact path (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        inst = load_instance(args.instance)
    except FileNotFoundError:
        print(f"error: instance file not found: {args.instance}", file=sys.stderr)
        return 2
    except InstanceValidationError as exc:
        print("instance rejected:", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return 2

    x0 = None
    if args.x0 is not None:
        try:
            x0 = json.loads(args.x0)
        except json.JSONDecodeError:
            print(f"error: --x0 must be a JSON literal, got {args.x0!r}", file=sys.stderr)
            return 2
        if isinstance(x0, list):
            x0 = np.asarray(x0, dtype=float)

    options = Options(
        seed=args.seed,
        samples=args.samples,
        x0=x0,
        epsilon=args.epsilon,
        out=Path(args.out) if args.out else None,
        fmt=args.fmt,
    )
    try:
        status, artifacts = run(args.command, inst, options)
    except (UsageError, ConfigError, InstanceValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1

    if args.command == "solve":
        if options.out is None:
            sys.stdout.write(artifacts["trace_text"])
        print(json.dumps(_plain(artifacts["certificate"]), sort_keys=True))
    elif options.out is None and "report" in artifacts:
        print(json.dumps(_plain(artifacts["report"]), sort_keys=True, indent=2))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
