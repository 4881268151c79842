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
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import solver
from .cone_space import (
    BoxCarrier, ConeMetricSpace, ConeSpec, ConfigError, DirectionMetric, DomainError,
    FinitePointsCarrier, IntervalCarrier, SamplingPlan, TabulatedMetric, point_key,
    verify_cone_axioms, verify_metric_axioms,
)
from .contractions import (
    CLASS_KINDS, TB, TC, TK, TW, TW_DUAL, TZ,
    AffineMap, ClassSpec, ConditionReport, DeclaredProperties, IdentityMap, MapPair, PairSet,
    PowerMap, TabulatedMap, all_pairs, check_condition, constant_names, fit_constants, grid_pairs,
    rate_from_primary_form, sampled_pairs, verify_zamfirescu_reduction, zamfirescu_delta,
)
from .oracle import (
    FiniteInstance, cross_validate, enumerate_fixed_points, exhaustive_reduction_check,
    tightest_constants,
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
# Instance schema: one table per section, read by one walker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Variant:
    """The keys one variant of a section takes, and how it is built.

    ``required`` and ``optional`` map each key to the coercion applied to
    its value, or to the ``Section`` that parses it; an absent optional key
    takes the constructor's default.  ``build`` receives the coerced keys,
    plus the sections named in ``needs`` (parsed earlier in the walk, None
    where they failed).
    """

    build: Callable
    required: dict = field(default_factory=dict)
    optional: dict = field(default_factory=dict)
    needs: tuple = ()


@dataclass(frozen=True)
class Section:
    """A section's variants, picked by the value of its ``tag`` key (the
    ``default`` variant when the key is absent and a default exists).  A
    section without a tag has the single variant ``None``; ``noun`` names
    the tag in errors."""

    variants: dict
    tag: str | None = None
    noun: str = ""
    default: str | None = None


_BUILD_ERRORS = (ConfigError, TypeError, ValueError, OverflowError)


def _walk(obj, where: str, section: Section, errors: list[str], built: dict):
    """Parse one section: pick its variant, report unknown and missing keys,
    coerce every present key (walking nested sections) and build it.  Every
    failure is appended to ``errors`` as "<where>: <message>"; the result
    is then None."""
    if not isinstance(obj, dict):
        errors.append(f"{where}: must be an object")
        return None
    name = None
    if section.tag is not None:
        if section.tag not in obj and section.default is None:
            errors.append(f"{where}: missing required key {section.tag!r}")
            return None
        name = obj.get(section.tag, section.default)
    variant = section.variants.get(name) if isinstance(name, (str, type(None))) else None
    if variant is None:
        errors.append(f"{where}: unknown {section.noun} {name!r}")
        return None
    keys = {**variant.required, **variant.optional}
    errors.extend(f"{where}: unknown key {k!r}" for k in obj if k != section.tag and k not in keys)
    missing = [k for k in variant.required if k not in obj]
    errors.extend(f"{where}: missing required key {k!r}" for k in missing)
    args, failed = {}, bool(missing)
    for key, parse in keys.items():
        if key not in obj:
            continue
        if isinstance(parse, Section):
            child = key if where == "top" else f"{where}.{key}"
            args[key] = built[key] = _walk(obj[key], child, parse, errors, built)
            failed |= args[key] is None
            continue
        try:
            args[key] = parse(obj[key])
        except _BUILD_ERRORS as exc:
            errors.append(f"{where}: {exc}")
            failed = True
    if failed:
        return None
    try:
        return variant.build(**args, **{n: built.get(n) for n in variant.needs})
    except _BUILD_ERRORS as exc:
        errors.append(f"{where}: {exc}")
        return None


def _as_is(value):
    return value


def _bounded(cast: Callable, ok: Callable, message: str) -> Callable:
    """Coerce with ``cast``, then reject a value that fails ``ok``."""
    def coerce(value):
        value = cast(value)
        if not ok(value):
            raise ConfigError(message)
        return value
    return coerce


def _integer(name: str) -> Callable:
    """int(value), refusing what int() would silently convert: booleans,
    strings and non-integral numbers."""
    def coerce(value):
        fraction = isinstance(value, float) and math.isfinite(value) and not value.is_integer()
        if isinstance(value, (bool, str)) or fraction:
            raise ConfigError(f"{name} must be an integer, got {json.dumps(value)}")
        return int(value)
    return coerce


def _finite_float(value) -> float:
    """float(value), refusing booleans and strings, which float() would
    convert, and inf: Python's json reads an overflowing literal such as
    1e400 as inf without calling ``parse_constant``."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"expected a number, got {json.dumps(value)}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {value} is not admitted")
    return value


def _numbers(value) -> np.ndarray:
    """A number or nested number list as a float array, refusing booleans and strings."""
    for leaf in np.asarray(value, dtype=object).flat:
        if isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise ConfigError(f"expected a number, got {json.dumps(leaf)}")
    return np.asarray(value, dtype=float)


def _start_point(value):
    """A JSON list is a box point: the float vector a box carrier takes."""
    return _numbers(value) if isinstance(value, list) else value


def _schema_version(value):
    if value is not None and str(value) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {value!r}")
    return value


def _cone(family: str, **keys) -> ConeSpec:
    if "norm" in keys:
        keys["norm_kind"] = keys.pop("norm")
    return ConeSpec(family=family, **keys)


def _direction_metric(direction, scalar="absdiff", *, cone, carrier) -> DirectionMetric:
    if cone is not None:
        if len(direction) != cone.dimension:
            raise ConfigError(f"direction length {len(direction)} != cone dimension")
        if not cone.contains(direction, "interior"):
            raise ConfigError("direction vector must lie in the cone interior")
    if isinstance(carrier, IntervalCarrier) and scalar != "absdiff":
        raise ConfigError("interval carriers use the 'absdiff' scalar metric")
    if isinstance(carrier, BoxCarrier) and scalar == "absdiff":
        raise ConfigError("box carriers use the 'euclidean' or 'max' scalar metric")
    if isinstance(carrier, FinitePointsCarrier):
        try:
            np.asarray(carrier.points, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("a direction metric needs numeric points") from None
    return DirectionMetric(direction, scalar)


def _tabulated_metric(table, *, carrier) -> TabulatedMetric | None:
    if carrier is None:         # the carrier's own error is already reported
        return None
    if not isinstance(carrier, FinitePointsCarrier):
        raise ConfigError("tabulated metrics require a finite carrier")
    return TabulatedMetric(list(carrier.points), np.asarray(table, dtype=float))


def _tabulated_map(images, *, carrier) -> TabulatedMap | None:
    if carrier is None:
        return None
    if not isinstance(carrier, FinitePointsCarrier):
        raise ConfigError("tabulated maps require a finite carrier")
    pts = list(carrier.points)
    try:
        if not all(type(i) is int and 0 <= i < len(pts) for i in images):
            raise IndexError
        return TabulatedMap(pts, [pts[i] for i in images])
    except (IndexError, ValueError):
        raise ConfigError("images must be valid point indices") from None


def _class_spec(kind: str, **constants) -> tuple[ClassSpec, bool]:
    """Returns (spec, tw_delta_pinned): a TW section carrying delta but no
    L pins delta for the fit command (L then fitted on that boundary)."""
    pinned = kind in (TW, TW_DUAL) and "delta" in constants and "L" not in constants
    if pinned:
        constants["L"] = 0.0
    return ClassSpec(kind, **constants), pinned


_CONE_KEYS = {"norm": _as_is, "interior_margin": _finite_float, "slack": _finite_float}
_DIMENSION = _integer("dimension")
CONE = Section({
    "orthant": Variant(partial(_cone, "orthant"), {"dimension": _DIMENSION}, _CONE_KEYS),
    "scaled_orthant": Variant(partial(_cone, "scaled_orthant"),
                              {"dimension": _DIMENSION, "weights": _numbers}, _CONE_KEYS),
    "polyhedral": Variant(partial(_cone, "polyhedral"),
                          {"dimension": _DIMENSION, "matrix": _numbers}, _CONE_KEYS),
}, "family", "family", default="orthant")

CARRIER = Section({
    "interval": Variant(IntervalCarrier, {"lo": _finite_float, "hi": _finite_float},
                        {"grid": _integer("grid")}),
    "box": Variant(BoxCarrier, {"lows": _numbers, "highs": _numbers}, {"grid": _integer("grid")}),
    "finite": Variant(FinitePointsCarrier, {"points": list}),
}, "kind", "carrier kind")

METRIC = Section({
    "direction": Variant(_direction_metric, {"direction": _numbers}, {"scalar": _as_is},
                         needs=("cone", "carrier")),
    "tabulated": Variant(_tabulated_metric, {"table": _as_is}, needs=("carrier",)),
}, "kind", "metric kind")

MAP = Section({
    "identity": Variant(IdentityMap),
    "affine": Variant(AffineMap, {"alpha": _finite_float}, {"beta": _finite_float}),
    "power": Variant(PowerMap, {"exponent": _finite_float}),
    "tabulated": Variant(_tabulated_map, {"images": _as_is}, needs=("carrier",)),
}, "family", "map family")

DECLARED = Section({None: Variant(DeclaredProperties, optional={
    name: _bounded(_as_is, lambda v: isinstance(v, bool), f"{name} must be true or false")
    for name in ("t_continuous", "t_injective", "t_sequentially_convergent",
                 "t_subsequentially_convergent", "s_continuous")
})})

CONTRACTION = Section({
    kind: Variant(partial(_class_spec, kind), optional={name: _finite_float for name in constant_names(kind)})
    for kind in CLASS_KINDS
}, "class", "class")

RUN = Section({None: Variant(RunDefaults, optional={
    "seed": _bounded(_integer("seed"), lambda v: v >= 0, "seed must be >= 0"),
    "samples": _bounded(_integer("samples"), lambda v: v >= 1, "samples must be >= 1"),
    "x0": _start_point,
    "epsilon": _bounded(_finite_float, lambda v: v > 0, "epsilon must be > 0"),
    "max_iter": _bounded(_integer("max_iter"), lambda v: v >= 1, "max_iter must be >= 1"),
    "rate_h": _bounded(_finite_float, lambda v: 0.0 <= v < 1.0, "rate_h must be in [0, 1)"),
    "normal_k": _bounded(_finite_float, lambda v: v >= 1.0, "normal_k must be >= 1"),
})})

INSTANCE = Section({None: Variant(
    dict,
    {"schema_version": _schema_version, "cone": CONE,
     "space": Section({None: Variant(lambda carrier, metric, cone: ConeMetricSpace(cone, carrier, metric),
                                     {"carrier": CARRIER, "metric": METRIC}, needs=("cone",))}),
     "maps": Section({None: Variant(MapPair, {"T": MAP, "S": MAP}, {"declared": DECLARED})})},
    {"contraction": CONTRACTION, "run": RUN},
)})


FLAGS = ("seed", "samples", "x0", "epsilon")     # run keys the CLI also takes as flags


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not admitted")


def _decode(text: str, where: str):
    """JSON text to a value, refusing Infinity and NaN; errors name ``where``."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        message = f"{exc.msg} at line {exc.lineno} column {exc.colno}"
    except ValueError as exc:
        message = str(exc)
    raise InstanceValidationError([f"{where}: {message}"])


def parse_instance(text: str, flags: dict | None = None) -> LoadedInstance:
    """Parse and fully validate an instance file, reporting every
    validation error at once (not just the first).  ``flags`` maps run
    keys to JSON texts; each one that is not null replaces the file's value
    before the run section is coerced, so both obey the same rows."""
    doc = _decode(text, "syntax")
    if not isinstance(doc, dict):
        raise InstanceValidationError(["top level must be an object"])
    if doc.get("run") is None:      # a null run section takes every default
        doc["run"] = {}
    given = {key: _decode(arg, f"--{key}") for key, arg in (flags or {}).items() if arg is not None}
    if isinstance(doc["run"], dict):
        doc["run"].update((key, value) for key, value in given.items() if value is not None)
    errors: list[str] = []
    parts = _walk(doc, "top", INSTANCE, errors, {})
    if errors:
        raise InstanceValidationError(errors)

    space, maps = parts["space"], parts["maps"]
    finite = None
    if isinstance(space.metric, TabulatedMetric):
        points = space.carrier.points
        idx = {p: i for i, p in enumerate(points)}
        try:
            t_tab = np.asarray([idx[maps.T(p)] for p in points])
            s_tab = np.asarray([idx[maps.S(p)] for p in points])
            finite = FiniteInstance(list(points), space.metric.table, t_tab, s_tab, space.cone)
        except (ConfigError, DomainError, KeyError) as exc:
            raise InstanceValidationError([f"space: {exc}"]) from exc
    contraction, pinned = parts.get("contraction", (None, False))
    return LoadedInstance(space, maps, contraction, parts["run"], finite, pinned)


def load_instance(path: str | Path, flags: dict | None = None) -> LoadedInstance:
    return parse_instance(Path(path).read_text(encoding="utf-8"), flags)


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
    out: Path | None = None
    fmt: str = "csv"


def _condition_pairs(inst: LoadedInstance) -> PairSet:
    """All pairs of a finite carrier; else the grid's pairs, or sampled
    pairs when the grid has more pairs than ``run.samples``."""
    space = inst.space
    if space.carrier.finite:
        return all_pairs(space)
    if len(space.carrier.grid_points()) ** 2 > inst.run.samples:
        return sampled_pairs(space, inst.run.samples, inst.run.seed)
    return grid_pairs(space)


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
    if command == "verify":
        plan = SamplingPlan(count=inst.run.samples, seed=inst.run.seed)
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
            pairs = _condition_pairs(inst)
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
        x0 = inst.run.x0
        if x0 is None:
            raise UsageError("solve requires a start point (run.x0 or --x0)")
        if inst.space.carrier.finite and isinstance(x0, float) and x0.is_integer():
            x0 = int(x0)
        rule = solver.StoppingRule(epsilon=inst.run.epsilon, max_iter=inst.run.max_iter)
        trace = solver.picard_iterate(inst.space, inst.maps, x0, rule)
        check = solver.certify_fixed_point(inst.space, inst.maps, trace.last, inst.run.epsilon)
        measured = trace.max_step_ratio()

        delta = None
        if inst.contraction is not None and inst.contraction.kind == TZ:
            delta = zamfirescu_delta(inst.contraction.a, inst.contraction.b, inst.contraction.c)
        h = inst.run.rate_h if inst.run.rate_h is not None else delta
        if h is None:
            h = measured if (measured is not None and measured < 1.0) else 0.0
        decay = None
        if trace.t_image_gaps:
            decay = solver.geometric_decay_check(trace, h, inst.run.normal_k, seed=inst.run.seed)

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
            cv = cross_validate(fin, inst.contraction)
            cond = cv.condition
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
        pairs = _condition_pairs(inst)
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
        for key in FLAGS:
            p.add_argument(f"--{key}", help=f"overrides run.{key} (JSON literal)")
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
        inst = load_instance(args.instance, {key: getattr(args, key) for key in FLAGS})
    except FileNotFoundError:
        print(f"error: instance file not found: {args.instance}", file=sys.stderr)
        return 2
    except InstanceValidationError as exc:
        print("instance rejected:", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return 2

    options = Options(out=Path(args.out) if args.out else None, fmt=args.fmt)
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
