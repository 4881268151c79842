"""Command-line entry point: parse JSON instance files and dispatch
verify / solve / oracle / fit, emitting machine-readable reports.

Exit statuses: 0 every requested check passed, 1 a check failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import Callable

import numpy as np

from . import solver
from .cone_space import (
    BoxCarrier, ConeMetricSpace, ConeSpec, ConfigError, DirectionMetric, DomainError,
    FinitePointsCarrier, IntervalCarrier, TabulatedMetric,
    verify_cone_axioms, verify_metric_axioms,
)
from .contractions import (
    CLASS_KINDS, TB, TC, TK, TW, TW_DUAL, TZ,
    AffineMap, ClassSpec, ConditionReport, IdentityMap, MapPair, PairSet,
    PowerMap, TabulatedMap, all_pairs, check_condition, constant_names, fit_constants,
    grid_pairs, map_points, rate_from_primary_form, sampled_pairs, verify_zamfirescu_reduction,
    zamfirescu_delta,
)
from .oracle import (
    FiniteInstance, cross_validate, enumerate_fixed_points, exhaustive_reduction_check,
    tightest_constants,
)

SCHEMA_VERSION = "1"

CHECK_DESCRIPTIONS = {
    "P1-interior-nonempty": "declared interior of the cone is nonempty",
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
        fraction = isinstance(value, float) and not value.is_integer()
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
    """A number or a rectangular nested number list as a float array.  The
    lists are flattened one nesting level at a time, and the leaves, once
    their types are checked, become one np.array (np.asarray on the nested
    lists would walk them all again).  A leaf that is not a number (a
    boolean, a string, null, an object) is refused first; then a level
    whose items differ in length or mix lists and numbers, by its depth
    (the items of the top list are at depth 1)."""
    level, shape, ragged = [value], [], None
    kinds = {type(value)}
    while kinds == {list}:
        lengths = set(map(len, level))
        if len(lengths) > 1 and ragged is None:
            ragged = len(shape)
        shape.append(max(lengths))
        level = list(chain.from_iterable(level))
        kinds = set(map(type, level))
    if not kinds <= {int, float}:
        leaves = [x for x in level if type(x) not in (int, float, list)]
        if leaves:
            raise ConfigError(f"expected a number, got {json.dumps(leaves[0])}")
        ragged = len(shape) if ragged is None else ragged
    if ragged is not None:
        raise ConfigError(f"ragged nested list: the items at depth {ragged} differ in length or nesting")
    return np.array(level, dtype=float).reshape(shape)


def _finite_numbers(value) -> np.ndarray:
    """``_numbers``, refusing inf as ``_finite_float`` does."""
    numbers = _numbers(value)
    if not np.isfinite(numbers).all():
        raise ConfigError(f"non-finite number {numbers[~np.isfinite(numbers)][0]} is not admitted")
    return numbers


def _json_list(name: str) -> Callable:
    """A JSON list as it is; list() would read a string or an object as a list."""
    def coerce(value) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {json.dumps(value)}")
        return value
    return coerce


def _labels(value) -> list:
    """The points of a finite carrier: a JSON list of numbers or strings.
    A boolean is not a label (a dict would find True under the label 1)."""
    bad = [x for x in _json_list("points")(value) if type(x) not in (int, float, str)]
    if bad:
        raise ConfigError(f"points must be numbers or strings, got {json.dumps(bad[0])}")
    _finite_numbers([x for x in value if type(x) is float])
    return value


def _start_point(value):
    """A JSON list is a box point: the float vector a box carrier takes.  A
    number or a label is kept as it is; no number may be inf."""
    if isinstance(value, list):
        return _finite_numbers(value)
    return _finite_float(value) if type(value) is float else value


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
    metric = TabulatedMetric(table)
    metric.check_carrier(carrier)
    return metric


def _tabulated_map(images, *, carrier) -> TabulatedMap | None:
    if carrier is None:
        return None
    if not isinstance(carrier, FinitePointsCarrier):
        raise ConfigError("tabulated maps require a finite carrier")
    pts = carrier.points
    if not all(type(i) is int and 0 <= i < len(pts) for i in images):
        raise ConfigError("images must be valid point indices")
    return TabulatedMap(pts, [pts[i] for i in images])


def _takes_numbers(name: str, carrier) -> None:
    """Refuse a map that computes on numbers (``name`` says which) on a
    finite carrier with a string label."""
    labels = carrier.points if isinstance(carrier, FinitePointsCarrier) else ()
    text = next((p for p in labels if type(p) is str), None)
    if text is not None:
        raise ConfigError(f"{name} takes numbers, not the label {json.dumps(text)}")


def _affine_map(alpha: float, beta: float = 0.0, *, carrier) -> AffineMap:
    _takes_numbers("an affine map", carrier)
    return AffineMap(alpha, beta)


def _power_map(exponent: float, *, carrier) -> PowerMap:
    if isinstance(carrier, BoxCarrier):
        raise ConfigError("a power map takes numbers, not the vectors of a box carrier")
    _takes_numbers("a power map", carrier)
    return PowerMap(exponent)


def _class_spec(kind: str, **constants) -> tuple[ClassSpec, bool]:
    """Returns (spec, tw_delta_pinned): a TW section carrying delta but no
    L pins delta for the fit command (L then fitted on that boundary)."""
    pinned = kind in (TW, TW_DUAL) and "delta" in constants and "L" not in constants
    if pinned:
        constants["L"] = 0.0
    return ClassSpec(kind, **constants), pinned


_CONE_KEYS = {"norm": _as_is, "slack": _finite_float}
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
    "finite": Variant(FinitePointsCarrier, {"points": _labels}),
}, "kind", "carrier kind")

METRIC = Section({
    "direction": Variant(_direction_metric, {"direction": _numbers}, {"scalar": _as_is},
                         needs=("cone", "carrier")),
    "tabulated": Variant(_tabulated_metric, {"table": _finite_numbers}, needs=("carrier",)),
}, "kind", "metric kind")

MAP = Section({
    "identity": Variant(IdentityMap),
    "affine": Variant(_affine_map, {"alpha": _finite_float}, {"beta": _finite_float}, needs=("carrier",)),
    "power": Variant(_power_map, {"exponent": _finite_float}, needs=("carrier",)),
    "tabulated": Variant(_tabulated_map, {"images": _json_list("images")}, needs=("carrier",)),
}, "family", "map family")

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
     "maps": Section({None: Variant(MapPair, {"T": MAP, "S": MAP})})},
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
    enabled = gc.isenabled()
    gc.disable()        # a JSON document holds no cycle; it is released before the collector resumes
    try:
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
        del doc, given
        if errors:
            raise InstanceValidationError(errors)

        space, maps = parts["space"], parts["maps"]
        finite = None
        if isinstance(space.metric, TabulatedMetric):
            try:
                finite = FiniteInstance(space, maps)
            except DomainError as exc:      # its text names the map
                raise InstanceValidationError([str(exc)]) from exc
            except ConfigError as exc:
                raise InstanceValidationError([f"space: {exc}"]) from exc
        contraction, pinned = parts.get("contraction", (None, False))
        return LoadedInstance(space, maps, contraction, parts["run"], finite, pinned)
    finally:
        if enabled:
            gc.enable()


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
                "witness": v.witness,
                "residual": v.residual,
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
        # the first 50 entries go to the record template as the view's columns
        "violations": Columns(dict(zip(("x", "y", "lhs", "rhs", "residual"), report.violations.head_columns(50))))
                      if report.violations else [],
        "violation_count": len(report.violations),
    }


_ascii = json.encoder.encode_basestring_ascii     # json's own string encoder (C when built)


def _json(value, nl: str, out: list[str]) -> None:
    """Append to ``out`` the text of ``value`` as ``json.dumps(_plain(value),
    sort_keys=True, indent=2)`` writes it, for the values reports hold:
    dicts, lists, tuples, strings, numbers, booleans, None, and numpy arrays
    and scalars, converted as ``_plain`` converts them.  A non-finite float
    becomes the string of its repr.  ``nl`` is the newline and indentation
    the value starts on."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    kind = type(value)
    if kind is str:
        out.append(_ascii(value))
    elif kind is float:
        text = float.__repr__(value)
        out.append(text if math.isfinite(value) else _ascii(text))
    elif kind is dict or kind is list or kind is tuple:
        if not value:
            out.append("{}" if kind is dict else "[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if kind is dict:
            head = "{" + inner
            for k, v in sorted({str(k): v for k, v in value.items()}.items()):    # keys are distinct
                out.append(head + _ascii(k) + ": ")
                head = sep
                _json(v, inner, out)
            out.append(nl + "}")
            return
        head = "[" + inner
        for v in value:
            out.append(head)
            head = sep
            _json(v, inner, out)
        out.append(nl + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int or isinstance(value, np.integer):
        out.append(int.__repr__(int(value)))
    elif isinstance(value, np.floating):
        _json(float(value), nl, out)
    elif kind is Columns:
        text = _columns(value.columns, nl)
        if text is None:
            _json(value.records(), nl, out)
        else:
            out.append(text)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


@dataclass
class Columns:
    """A nonempty list of records given by columns (a JSON trace's rows, a
    condition report's violations): record i holds ``columns[key][i]``
    under each key.  A column is a list, or a 2-D float64 array whose rows
    are the records' vectors.  ``_json`` writes it as the list of the
    records, and builds the records only when the template does not apply."""

    columns: dict

    def records(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in zip(*self.columns.values())]


def _vector_field(size: int, nl: str) -> str:
    """The template field of a vector of ``size`` floats starting on ``nl``."""
    element = "," + nl + "  "
    return "[" + element[1:] + element.join(["%r"] * size) + nl + "]" if size else "[]"


def _columns(columns: dict, nl: str) -> str | None:
    """The text ``_json`` writes for the nonempty list of records whose
    values are the ``str``-keyed ``columns`` (as ``Columns`` holds them),
    through one ``%`` template built for the whole list, or None when the
    template does not apply and each value must be walked.  It applies
    when each column is a 2-D float64 array of finite values (its rows are
    the records' vectors), a list of 1-D float64 arrays of one shape (a box
    carrier's points, stacked into such an array), or a list of strings,
    of ints that are not bools, or of finite floats (``%r`` is
    ``float.__repr__``).  Every other column is left to the walk."""
    inner, deep = nl + "  ", nl + "    "
    fields, cells = [], []
    for key in sorted(columns):
        column = columns[key]
        kinds = {np.ndarray} if type(column) is np.ndarray else set(map(type, column))
        if kinds == {np.ndarray}:
            if type(column) is list and len({(v.dtype, v.shape) for v in column}) == 1:
                column = np.stack(column)   # one dtype: np.stack upcasts a float32 vector beside float64 ones
            if type(column) is list or column.dtype != np.float64 or column.ndim != 2 or not np.isfinite(column).all():
                return None
            cols, field = column.T.tolist(), _vector_field(column.shape[1], deep)
        elif kinds == {str}:
            field, cols = "%s", [list(map(_ascii, column))]
        elif kinds == {int}:
            field, cols = "%d", [column]
        elif kinds == {float} and all(map(math.isfinite, column)):
            field, cols = "%r", [column]
        else:
            return None
        fields.append(_ascii(key).replace("%", "%%") + ": " + field)
        cells.extend(cols)
    template = "{" + deep + ("," + deep).join(fields) + inner + "}"
    rows = zip(*cells) if cells else repeat((), len(column))       # empty vectors only: no arguments
    return "[" + inner + ("," + inner).join(map(template.__mod__, rows)) + nl + "]"


def _dump_json(obj, path: Path | None) -> str:
    out: list[str] = []
    _json(obj, "\n", out)
    out.append("\n")
    text = "".join(out)
    if path is not None:
        path.write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------

def _point_cell(x) -> str:
    if isinstance(x, str):
        return '"' + x.replace('"', '""') + '"' if any(c in x for c in ',"\r\n') else x
    if isinstance(x, np.ndarray):
        return ";".join(["%.17g"] * len(x)) % tuple(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % x


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
    floats carry 17 significant digits so values round-trip exactly.  A
    string label is written as it is, quoted RFC 4180 style when it holds a
    comma, a double quote or a line break.
    """
    if not len(trace.norms):
        raise ConfigError("refusing to emit an empty trace")
    xs, norms = trace.x_sequence, trace.norms.tolist()
    bounds = [K * h ** n * norms[0] for n in range(len(norms))]
    if fmt == "csv":
        row = "%d,%s," + ";".join(["%.17g"] * trace.gaps.shape[1]) + ",%.17g,%.17g"
        gaps = trace.gaps.tolist()
        text = "\n".join(["n,x_n,gap_vector,gap_norm,cumulative_bound"] + [
            row % (n, _point_cell(xs[n]), *gap, norms[n], bounds[n]) for n, gap in enumerate(gaps)]) + "\n"
    elif fmt == "json":     # the rows go to the record template as the trace's columns
        rows = Columns({"n": list(range(len(norms))), "x_n": xs[:len(norms)], "gap_vector": trace.gaps,
                        "gap_norm": norms, "cumulative_bound": bounds})
        payload = {"schema_version": SCHEMA_VERSION, "h": h, "K": K, "stop_reason": trace.stop_reason, "rows": rows}
        text = _dump_json(payload, None)        # a non-finite number is written as a string
    else:
        raise ConfigError(f"unknown trace format {fmt!r}")
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _condition_pairs(inst: LoadedInstance) -> PairSet:
    """All pairs of a finite carrier; else the grid's pairs, or sampled
    pairs when the grid (sized, not built) has more pairs than ``run.samples``."""
    space, carrier = inst.space, inst.space.carrier
    if carrier.finite:
        return all_pairs(space)
    points = carrier.grid if isinstance(carrier, IntervalCarrier) else carrier.grid ** len(carrier.lows)
    if points ** 2 > inst.run.samples:
        return sampled_pairs(space, inst.run.samples, inst.run.seed)
    return grid_pairs(space)


def run(command: str, inst: LoadedInstance, path: Path | None = None, fmt: str = "csv") -> tuple[int, dict]:
    """Dispatch one command, also writing its artifact (a trace in ``fmt``)
    to ``path`` when one is given; returns (exit status, artifacts)."""
    if command == "verify":
        cone_report = verify_cone_axioms(inst.space.cone)
        metric_report = (inst.finite.metric_axioms if inst.finite else
                         verify_metric_axioms(inst.space, inst.run.samples, inst.run.seed))
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "cone_axioms": _axiom_report_dict(cone_report),
            "metric_axioms": _axiom_report_dict(metric_report),
        }
        ok = cone_report.passed and metric_report.passed
        spec, pairs = inst.contraction, _condition_pairs(inst)
        if spec is None:    # no class to check, but S, T and TS must map the checked points
            map_points(inst.space, inst.maps, pairs)
        else:
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
        return (0 if ok else 1), {"text": _dump_json(report, path)}

    if command == "solve":
        x0 = inst.run.x0
        if x0 is None:
            raise UsageError("solve requires a start point (run.x0 or --x0)")
        spec = inst.contraction
        delta = zamfirescu_delta(spec.a, spec.b, spec.c) if spec is not None and spec.kind == TZ else None
        rule = solver.StoppingRule(epsilon=inst.run.epsilon, max_iter=inst.run.max_iter)
        trace, check, decay, probe = solver.solve(
            inst.space, inst.maps, x0, rule, h=inst.run.rate_h if inst.run.rate_h is not None else delta,
            K=inst.run.normal_k, seed=inst.run.seed)
        trace_text = emit_trace(trace, fmt, path, h=decay.h, K=inst.run.normal_k)
        cert_dict = {
            "fixed_point": _plain(check.point if check.certified else None),
            "residual_norm": check.residual_norm,
            "rate_h": trace.max_step_ratio(),
            "rate_h_primary_form": rate_from_primary_form(delta) if delta is not None else None,
            "bound_h": decay.h,
            "decay_per_step_ok": decay.per_step_ok,
            "cauchy_bound_ok": decay.cauchy_ok,
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
            "fixed_points": enumerate_fixed_points(fin),
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
                "violating_pairs": cond.violating_pairs[:50],
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
                    "primary_violations": red.primary_violations[:50],
                    "dual_violations": red.dual_violations[:50],
                }
                ok = ok and red.holds
            if inst.contraction.kind in (TB, TK, TC, TW):
                tight = tightest_constants(fin, inst.contraction.kind)
                out["tightest"] = {
                    "kind": tight.kind,
                    "feasible": tight.feasible,
                    "constants": tight.constants,
                    "supremum": tight.supremum,
                    "infeasible_witnesses": tight.infeasible_witnesses[:50],
                }
            out["cross_validation"] = {
                "applicable": cv.applicable,
                "fixed_points": cv.fixed_points,
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
        return (0 if ok else 1), {"text": _dump_json(out, path)}

    if command == "fit":
        if inst.contraction is None:
            raise UsageError("fit requires a contraction section naming the class")
        kind = inst.contraction.kind
        if kind not in (TB, TK, TC, TW):
            raise UsageError(f"fit supports TB/TK/TC/TW, not {kind}")
        pairs = _condition_pairs(inst)
        pinned = inst.contraction.delta if (kind == TW and inst.tw_delta_pinned) else None
        result = fit_constants(inst.space, inst.maps, kind, pairs, pinned_delta=pinned)
        out = {
            "schema_version": SCHEMA_VERSION,
            "command": "fit",
            "kind": result.kind,
            "feasible": result.feasible,
            "constants": result.spec.constants() if result.spec else None,
            "hard_witnesses": result.hard_witnesses[:50],
            "status": "pass" if result.feasible else "fail",
        }
        return (0 if result.feasible else 1), {"text": _dump_json(out, path)}

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


# Built once: building it costs about 1.25 ms, a third of a short solve.
# parse_args keeps no state between calls, so every call parses as a fresh
# parser would.
_PARSER = _build_parser()


@np.errstate(over="ignore", invalid="ignore")     # a non-finite value goes to the artifacts, not stderr
def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        inst = load_instance(args.instance, {key: getattr(args, key) for key in FLAGS})
    except FileNotFoundError:
        print(f"error: instance file not found: {args.instance}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        reason = "not UTF-8 text" if isinstance(exc, UnicodeDecodeError) else exc.strerror
        print(f"error: cannot read instance file {args.instance}: {reason}", file=sys.stderr)
        return 2
    except InstanceValidationError as exc:
        print("instance rejected:", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return 2

    try:
        status, artifacts = run(args.command, inst, Path(args.out) if args.out else None, args.fmt)
    except (UsageError, ConfigError, InstanceValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2

    if args.command == "solve":
        if not args.out:
            sys.stdout.write(artifacts["trace_text"])
        print(json.dumps(_plain(artifacts["certificate"]), sort_keys=True))
    elif not args.out:
        sys.stdout.write(artifacts["text"])
    return status


if __name__ == "__main__":
    raise SystemExit(main())
