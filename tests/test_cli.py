import copy
import csv
import errno
import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conefix import cli, cone_space, oracle, solver
from conefix.cli import (
    SCHEMA_VERSION, InstanceValidationError, _condition_pairs, emit_trace, load_instance, main, parse_instance,
)
from conefix.cone_space import (
    BoxCarrier, ConeMetricSpace, ConeSpec, ConfigError, DirectionMetric, DomainError, FinitePointsCarrier,
    IntervalCarrier, verify_cone_axioms, verify_metric_axioms,
)
from conefix.contractions import (
    CLASS_KINDS, AffineMap, ClassSpec, ConditionReport, ConditionViolation, IdentityMap, MapPair, evaluate,
    grid_pairs, verify_zamfirescu_reduction, zamfirescu_delta,
)
from conefix.instances import instance_a
from conefix.solver import (
    StoppingRule, certify_fixed_point, geometric_decay_check, picard_iterate, uniqueness_probe,
)

from conftest import fixture_doc


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_canonical_instance():
    inst = parse_instance(json.dumps(fixture_doc("instance_a")))
    assert inst.space.cone.family == "orthant"
    assert inst.space.cone.dimension == 2
    assert isinstance(inst.space.carrier, IntervalCarrier)
    assert inst.maps.S == AffineMap(0.5, 0.0)
    assert inst.contraction.kind == "TB" and inst.contraction.a == 0.5
    assert inst.run.x0 == 1.0


def test_parse_rejects_out_of_range_constant():
    doc = fixture_doc("instance_a")
    doc["contraction"] = {"class": "TB", "a": 1.0}
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(json.dumps(doc))
    assert any("a must be in [0, 1)" in e for e in exc.value.errors)


def test_parse_accumulates_every_error():
    doc = fixture_doc("instance_a")
    doc["cone"] = {"family": "polyhedral", "dimension": 2, "matrix": [[1.0]]}
    doc["contraction"] = {"class": "TK", "b": 0.5}
    doc["run"] = {"samples": 0}
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(json.dumps(doc))
    text = "\n".join(exc.value.errors)
    assert "matrix" in text
    assert "b must be in [0, 0.5)" in text
    assert "samples" in text
    assert len(exc.value.errors) >= 3


def test_parse_rejects_unknown_keys():
    doc = fixture_doc("instance_a")
    doc["bogus"] = 1
    doc["cone"]["extra"] = True
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(json.dumps(doc))
    assert any("unknown key 'bogus'" in e for e in exc.value.errors)
    assert any("unknown key 'extra'" in e for e in exc.value.errors)


def test_parse_scaled_and_polyhedral_cones():
    doc = fixture_doc("instance_a")
    doc["cone"] = {"family": "scaled_orthant", "dimension": 2, "weights": [1.0, 2.0], "norm": "max"}
    inst = parse_instance(json.dumps(doc))
    assert inst.space.cone.family == "scaled_orthant"
    doc["cone"] = {
        "family": "polyhedral", "dimension": 2,
        "matrix": [[0.0, 1.0], [2.0, 1.0]], "norm": "euclidean",
    }
    doc["space"]["metric"]["direction"] = [1.0, 2.0]  # interior of that cone too
    inst = parse_instance(json.dumps(doc))
    assert inst.space.cone.family == "polyhedral"


def test_parse_rejects_direction_outside_interior():
    doc = fixture_doc("instance_a")
    doc["space"]["metric"]["direction"] = [1.0, 0.0]  # on the orthant boundary
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(json.dumps(doc))
    assert any("interior" in e for e in exc.value.errors)


def test_interior_margin_is_an_unknown_key():
    doc = fixture_doc("instance_a")
    doc["cone"]["interior_margin"] = 1e-9
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(json.dumps(doc))
    assert exc.value.errors == ["cone: unknown key 'interior_margin'"]


def test_zero_matrix_row_constrains_nothing(tmp_path):
    # the row [0, 0] used to fail P1 (0 . v >= 1) and refuse every direction
    matrix = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    assert verify_cone_axioms(ConeSpec.polyhedral(matrix)).passed
    doc = fixture_doc("instance_a")
    doc["cone"] = {"family": "polyhedral", "dimension": 2, "matrix": matrix}
    path = _write(tmp_path, "zero_row.json", doc)
    assert load_instance(path).space.cone.ineq_matrix.tolist() == matrix
    out = tmp_path / "report.json"
    assert main(["verify", "--instance", str(path), "--samples", "500", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["cone_axioms"]["violation_count"] == 0


def test_parse_reports_syntax_position():
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance("{\n  broken\n}")
    assert "line 2" in exc.value.errors[0]


@pytest.mark.parametrize("key", ["samples", "seed", "max_iter", "epsilon", "normal_k"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_numbers_are_usage_errors(tmp_path, key, value):
    doc = fixture_doc("instance_a")
    doc["run"].update({"rate_h": 0.1, key: value})
    path = _write(tmp_path, "a.json", doc)
    assert main(["solve", "--instance", str(path)]) == 2
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(path.read_text())
    assert exc.value.errors == [f"syntax: non-finite number {json.dumps(value)} is not admitted"]


INF = "non-finite number inf is not admitted"
BOX_INF = "space.carrier: box carrier bounds must be finite"


# Python's json reads an overflowing literal as +-inf without calling
# parse_constant; each edit writes one such literal (the quoted "1e400"
# and "-1e400" below are unquoted in the file text).
@pytest.mark.parametrize("name, path, value, error", [
    pytest.param("instance_a", ("run", "epsilon"), "1e400", f"run: {INF}", id="epsilon"),
    pytest.param("instance_a", ("run", "normal_k"), "1e400", f"run: {INF}", id="normal_k"),
    pytest.param("instance_c", ("contraction", "L"), "1e400", f"contraction: {INF}", id="L"),
    pytest.param("instance_d_twu", ("contraction", "L1"), "1e400", f"contraction: {INF}", id="L1"),
    pytest.param("instance_a", ("maps", "S", "alpha"), "1e400", f"maps.S: {INF}", id="alpha"),
    pytest.param("instance_a", ("maps", "S", "beta"), "-1e400",
                 "maps.S: non-finite number -inf is not admitted", id="beta"),
    pytest.param("instance_a", ("maps", "T"), {"family": "power", "exponent": "1e400"},
                 f"maps.T: {INF}", id="exponent"),
    pytest.param("instance_a", ("cone", "slack"), "1e400", f"cone: {INF}", id="slack"),
    pytest.param("instance_a", ("space", "carrier"),
                 {"kind": "box", "lows": ["-1e400", 0.0], "highs": [1.0, 1.0]}, BOX_INF, id="lows"),
    pytest.param("instance_a", ("space", "carrier"),
                 {"kind": "box", "lows": [0.0, 0.0], "highs": [1.0, "1e400"]}, BOX_INF, id="highs"),
    pytest.param("instance_d", ("space", "metric", "table", 0, 1, 0), "1e400", f"space.metric: {INF}",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning"), id="table"),
    pytest.param("instance_a", ("run", "x0"), "1e400", f"run: {INF}", id="x0"),
    pytest.param("instance_a", ("run", "x0"), ["1e400", 0.5], f"run: {INF}", id="box-x0"),
    pytest.param("instance_d", ("space", "carrier", "points", 0), "1e400", f"space.carrier: {INF}", id="label"),
    pytest.param("instance_a", ("run", "seed"), "1e400", "run: seed must be an integer, got Infinity", id="seed"),
    pytest.param("instance_a", ("run", "samples"), "1e400", "run: samples must be an integer, got Infinity",
                 id="samples"),
    pytest.param("instance_a", ("run", "max_iter"), "1e400", "run: max_iter must be an integer, got Infinity",
                 id="max_iter"),
    pytest.param("instance_a", ("cone", "dimension"), "1e400", "cone: dimension must be an integer, got Infinity",
                 id="dimension"),
    pytest.param("instance_a", ("space", "carrier", "grid"), "1e400",
                 "space.carrier: grid must be an integer, got Infinity", id="grid"),
])
def test_overflowing_literals_are_rejected(tmp_path, name, path, value, error):
    doc = fixture_doc(name)
    _lookup(doc, path[:-1])[path[-1]] = value
    text = json.dumps(doc).replace('"1e400"', "1e400").replace('"-1e400"', "-1e400")
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(text)
    assert exc.value.errors == [error]
    file = tmp_path / "overflow.json"
    file.write_text(text, encoding="utf-8")
    assert main(["solve", "--instance", str(file)]) == 2


def test_epsilon_flag_rejects_overflow(tmp_path):
    path = _write(tmp_path, "a.json", fixture_doc("instance_a"))
    assert main(["solve", "--instance", str(path), "--epsilon", "1e400"]) == 2


@pytest.mark.parametrize("flag, value, error", [
    pytest.param("--x0", "1e400", f"run: {INF}", id="x0"),
    pytest.param("--x0", "[1e400, 0.5]", f"run: {INF}", id="box-x0"),
    pytest.param("--seed", "1e400", "run: seed must be an integer, got Infinity", id="seed"),
    pytest.param("--samples", "1e400", "run: samples must be an integer, got Infinity", id="samples"),
])
def test_overflowing_flags_are_rejected(tmp_path, capsys, flag, value, error):
    path = _write(tmp_path, "a.json", fixture_doc("instance_a"))
    assert main(["solve", "--instance", str(path), flag, value]) == 2
    assert capsys.readouterr() == ("", f"instance rejected:\n  - {error}\n")


def _d3_failing_doc() -> dict:
    doc = fixture_doc("instance_d")
    table = doc["space"]["metric"]["table"]
    table[0][9] = table[9][0] = [64.0, 128.0]     # far beyond any detour through a third point
    return doc


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text, error", [
    pytest.param(json.dumps(fixture_doc("instance_d")), None, id="valid"),
    pytest.param('{"cone": ', "syntax: Expecting value at line 1 column 10", id="syntax"),
    pytest.param(json.dumps(_d3_failing_doc()), "space: metric table violates d3 at triple (0, 9, 1)", id="d3"),
])
def test_parse_instance_leaves_the_collector_as_it_found_it(monkeypatch, enabled, text, error):
    # the collector is paused while a file is parsed and restored after,
    # also when the parse raises
    seen, real = [], cli.FiniteInstance

    def build(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(cli, "FiniteInstance", build)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if error is None:
            assert parse_instance(text).finite is not None
        else:
            with pytest.raises(InstanceValidationError) as exc:
                parse_instance(text)
            assert exc.value.errors == [error]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([] if error and error.startswith("syntax") else [False])


def test_parse_instance_runs_no_collection_and_releases_the_document(monkeypatch):
    # a 60-point table decodes to about 3,700 lists, enough to start
    # several young collections; none runs, and the decoded document is
    # gone when the collector resumes, so it leaves no allocation debt
    n = 60
    doc = fixture_doc("instance_d")
    doc["space"]["carrier"]["points"] = list(range(n))
    gaps = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) / 8.0
    doc["space"]["metric"]["table"] = (gaps[:, :, None] * [1.0, 2.0]).tolist()
    doc["maps"] = {"T": {"family": "identity"}, "S": {"family": "tabulated", "images": [0] * n}}
    text = json.dumps(doc)
    starts, pending = [], []

    def callback(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    def resume():       # what the young generation still owes when parsing ends
        pending.append(gc.get_count()[0])
        gc.enable()

    monkeypatch.setattr(cli, "gc", SimpleNamespace(isenabled=gc.isenabled, disable=gc.disable, enable=resume))
    was = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(callback)
    try:
        inst = parse_instance(text)
    finally:
        gc.callbacks.remove(callback)
        (gc.enable if was else gc.disable)()
    assert inst.finite.n == n and starts == []
    assert len(pending) == 1 and pending[0] < n * n // 10, pending


# ---------------------------------------------------------------------------
# Flags override run keys and obey the same rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command, flag, value, error", [
    ("verify", "--samples", "-5", "run: samples must be >= 1"),
    ("verify", "--samples", "0", "run: samples must be >= 1"),
    ("verify", "--samples", "10.5", "run: samples must be an integer, got 10.5"),
    ("verify", "--seed", "-1", "run: seed must be >= 0"),
    ("verify", "--seed", "true", "run: seed must be an integer, got true"),
    ("solve", "--epsilon", "1e400", f"run: {INF}"),
    ("solve", "--epsilon", "0", "run: epsilon must be > 0"),
    ("solve", "--x0", "NaN", "--x0: non-finite number NaN is not admitted"),
    ("solve", "--x0", "[0.5,", "--x0: Expecting value at line 1 column 6"),
])
def test_bad_flags_are_rejected_like_file_values(tmp_path, capsys, command, flag, value, error):
    path = _write(tmp_path, "a.json", fixture_doc("instance_a"))
    assert main([command, "--instance", str(path), flag, value]) == 2
    assert capsys.readouterr().err == f"instance rejected:\n  - {error}\n"


def test_negative_seed_in_the_file_is_rejected(tmp_path, capsys):
    doc = fixture_doc("instance_a")
    doc["run"]["seed"] = -1
    path = _write(tmp_path, "a.json", doc)
    assert main(["verify", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == "instance rejected:\n  - run: seed must be >= 0\n"


def test_flags_override_the_run_section():
    text = json.dumps(fixture_doc("instance_a"))
    inst = parse_instance(text, {"seed": "7", "samples": "500", "x0": "0.25", "epsilon": "1e-9"})
    assert (inst.run.seed, inst.run.samples, inst.run.x0, inst.run.epsilon) == (7, 500, 0.25, 1e-9)
    assert parse_instance(text, {"seed": None, "samples": "null"}).run == parse_instance(text).run


BOX = {
    "schema_version": "1",
    "cone": {"family": "orthant", "dimension": 2, "norm": "max"},
    "space": {
        "carrier": {"kind": "box", "lows": [0.0, 0.0], "highs": [1.0, 1.0], "grid": 11},
        "metric": {"kind": "direction", "direction": [1.0, 2.0], "scalar": "max"},
    },
    "maps": {"T": {"family": "identity"}, "S": {"family": "affine", "alpha": 0.5}},
}


def test_box_start_point_from_the_file_matches_the_flag(tmp_path, capsys):
    with_x0 = _write(tmp_path, "box.json", {**BOX, "run": {"x0": [0.5, 0.5]}})
    without = _write(tmp_path, "box_nox0.json", BOX)
    outputs = []
    for argv in (["--instance", str(with_x0)], ["--instance", str(without), "--x0", "[0.5, 0.5]"]):
        out = tmp_path / f"trace{len(outputs)}.csv"
        assert main(["solve", *argv, "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("path, value, error", [
    (("run", "samples"), 10.5, "run: samples must be an integer, got 10.5"),
    (("run", "seed"), 1.5, "run: seed must be an integer, got 1.5"),
    (("run", "max_iter"), True, "run: max_iter must be an integer, got true"),
    (("space", "carrier", "grid"), 21.9, "space.carrier: grid must be an integer, got 21.9"),
    (("cone", "dimension"), True, "cone: dimension must be an integer, got true"),
    (("maps", "declared"), {"t_injective": True}, "maps: unknown key 'declared'"),
])
def test_no_silent_coercion(path, value, error):
    doc = fixture_doc("instance_a")
    _lookup(doc, path[:-1])[path[-1]] = value
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(json.dumps(doc))
    assert exc.value.errors == [error]


@pytest.mark.parametrize("path, value, error", [
    (("run", "epsilon"), True, "run: expected a number, got true"),
    (("run", "normal_k"), "2", 'run: expected a number, got "2"'),
    (("run", "samples"), "500", 'run: samples must be an integer, got "500"'),
    (("run", "seed"), "3", 'run: seed must be an integer, got "3"'),
    (("maps", "S", "alpha"), True, "maps.S: expected a number, got true"),
    (("contraction", "a"), "0.5", 'contraction: expected a number, got "0.5"'),
    (("space", "carrier", "lo"), False, "space.carrier: expected a number, got false"),
    (("space", "carrier", "hi"), "1", 'space.carrier: expected a number, got "1"'),
    (("run", "rate_h"), False, "run: expected a number, got false"),
    (("run", "rate_h"), "0.5", 'run: expected a number, got "0.5"'),
    (("cone", "slack"), True, "cone: expected a number, got true"),
    (("space", "metric", "direction"), [True, True], "space.metric: expected a number, got true"),
    (("space", "metric", "direction"), ["1", "2"], 'space.metric: expected a number, got "1"'),
    (("space", "metric", "direction"), [1.0, None], "space.metric: expected a number, got null"),
    (("cone",), {"family": "scaled_orthant", "dimension": 2, "weights": [1.0, False]},
     "cone: expected a number, got false"),
    (("cone",), {"family": "polyhedral", "dimension": 2, "matrix": [[1.0, 0.0], [0.0, "1"]]},
     'cone: expected a number, got "1"'),
    (("space", "carrier"), {"kind": "box", "lows": [False, 0.0], "highs": [1.0, 1.0]},
     "space.carrier: expected a number, got false"),
    (("space", "carrier"), {"kind": "box", "lows": [0.0, 0.0], "highs": ["1", 1.0]},
     'space.carrier: expected a number, got "1"'),
    (("run", "x0"), [True, 1.0], "run: expected a number, got true"),
])
def test_booleans_and_strings_are_not_numbers(tmp_path, capsys, path, value, error):
    # "epsilon": true used to load as 1.0, and solve then certified 0.5
    doc = fixture_doc("instance_a")
    _lookup(doc, path[:-1])[path[-1]] = value
    file = _write(tmp_path, "a.json", doc)
    assert main(["solve", "--instance", str(file)]) == 2
    assert capsys.readouterr().err == f"instance rejected:\n  - {error}\n"


def _ragged(depth: int) -> str:
    return f"ragged nested list: the items at depth {depth} differ in length or nesting"


@pytest.mark.parametrize("entry, error", [
    ([True, "2"], "expected a number, got true"),
    ([1.0, "2"], 'expected a number, got "2"'),
    ([None, 2.0], "expected a number, got null"),
    ([{}, 2.0], "expected a number, got {}"),
    ([[1.0], 2.0], _ragged(3)),         # mixed depth: a list among an entry's numbers
    ([1.0], _ragged(2)),                # ragged entry: one entry shorter than the rest
])
def test_table_leaves_must_be_numbers(tmp_path, capsys, entry, error):
    # [true, "2"] used to load as the distance (1, 2), and a ragged table
    # printed numpy's "inhomogeneous shape" text
    doc = fixture_doc("instance_d")
    table = doc["space"]["metric"]["table"]
    table[0][1] = table[1][0] = entry
    file = _write(tmp_path, "d.json", doc)
    assert main(["oracle", "--instance", str(file)]) == 2
    assert capsys.readouterr().err == f"instance rejected:\n  - space.metric: {error}\n"


def test_ragged_table_row_is_refused_by_depth(tmp_path, capsys):
    doc = fixture_doc("instance_d")
    doc["space"]["metric"]["table"][3].pop()
    file = _write(tmp_path, "d.json", doc)
    assert main(["oracle", "--instance", str(file)]) == 2
    assert capsys.readouterr().err == f"instance rejected:\n  - space.metric: {_ragged(1)}\n"


# Leaves the reader must refuse, and the JSON numbers it must read.
NOT_NUMBERS = (True, False, "1", None, {})
JSON_NUMBERS = st.one_of(st.integers(-2 ** 62, 2 ** 62), st.floats(allow_nan=False, allow_infinity=False))


def _levels(value) -> list[list]:
    """The items of ``value`` by depth: [value], its items, theirs, ... down
    to the first depth that holds no list."""
    levels = [[value]]
    while any(isinstance(x, list) for x in levels[-1]):
        levels.append([y for x in levels[-1] if isinstance(x, list) for y in x])
    return levels


def _expected_refusal(value) -> str | None:
    """What the reader must say about ``value``, from its levels: at the
    first depth holding a non-list, the first leaf that is not a number;
    else the first depth whose lists differ in length, or that one if it
    mixes lists and numbers; None for a rectangular number list."""
    levels = _levels(value)
    first = next((d for d, items in enumerate(levels) if not all(isinstance(x, list) for x in items)),
                 len(levels) - 1)
    leaves = [x for x in levels[first] if not isinstance(x, list)]
    bad = [x for x in leaves if isinstance(x, bool) or not isinstance(x, (int, float))]
    if bad:
        return f"expected a number, got {json.dumps(bad[0])}"
    for d in range(first):
        if len({len(x) for x in levels[d]}) > 1:
            return _ragged(d)
    return _ragged(first) if len(leaves) < len(levels[first]) else None


@st.composite
def nested_lists(draw):
    """A rectangular list of depth 1-3 of JSON numbers, sometimes with a
    leaf swapped for a non-number, a list cut short or lengthened, or a
    level mixed with a list or a number."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))

    def build(dims):
        return [build(dims[1:]) for _ in range(dims[0])] if dims else draw(JSON_NUMBERS)

    value = build(shape)
    for _ in range(draw(st.integers(0, 2))):
        nodes = []          # (parent list, index) of every item below the top

        def walk(node):
            for i, item in enumerate(node):
                nodes.append((node, i))
                if isinstance(item, list):
                    walk(item)
        walk(value)
        if not nodes:
            break
        parent, i = draw(st.sampled_from(nodes))
        item, edit = parent[i], draw(st.sampled_from(["leaf", "cut", "grow", "wrap", "flatten"]))
        if edit == "leaf" and not isinstance(item, list):
            parent[i] = draw(st.sampled_from(NOT_NUMBERS))
        elif edit == "cut" and isinstance(item, list) and item:
            item.pop()
        elif edit == "grow" and isinstance(item, list):
            item.append(copy.deepcopy(item[0]) if item else draw(JSON_NUMBERS))
        elif edit == "wrap":
            parent[i] = [item]
        elif edit == "flatten" and isinstance(item, list):
            parent[i] = draw(JSON_NUMBERS)
    return value


@settings(max_examples=400, deadline=None)
@given(nested_lists())
def test_number_reader_matches_numpy_or_refuses(value):
    expected = _expected_refusal(value)
    if expected is None:
        got, want = cli._numbers(value), np.asarray(value, dtype=float)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
        return
    with pytest.raises(ConfigError) as exc:
        cli._numbers(value)
    assert str(exc.value) == expected
    if expected.startswith("ragged"):
        with pytest.raises(ValueError):     # numpy agrees the list is not rectangular
            np.asarray(value, dtype=float)


def test_integer_table_entries_still_load():
    doc = fixture_doc("instance_d")
    doc["space"]["metric"]["table"] = [[[int(v) for v in e] for e in row] for row in doc["space"]["metric"]["table"]]
    inst = parse_instance(json.dumps(doc))
    assert np.array_equal(inst.space.metric.table, parse_instance(json.dumps(fixture_doc("instance_d"))).space.metric.table)


def test_integral_numbers_still_load():
    doc = fixture_doc("instance_a")
    doc["run"].update({"samples": 500.0, "seed": 3.0})
    inst = parse_instance(json.dumps(doc))
    assert (inst.run.samples, inst.run.seed) == (500, 3)


@pytest.mark.parametrize("command", ["verify", "solve", "fit"])
def test_direction_metric_rejects_non_numeric_labels(tmp_path, capsys, command):
    doc = {
        "schema_version": "1",
        "cone": {"family": "orthant", "dimension": 2, "norm": "max"},
        "space": {
            "carrier": {"kind": "finite", "points": ["a", "b", "c"]},
            "metric": {"kind": "direction", "direction": [1.0, 2.0]},
        },
        "maps": {"T": {"family": "identity"}, "S": {"family": "tabulated", "images": [1, 2, 2]}},
        "contraction": {"class": "TB", "a": 0.5},
        "run": {"x0": "a"},
    }
    path = _write(tmp_path, "labels.json", doc)
    assert main([command, "--instance", str(path)]) == 2
    assert capsys.readouterr().err == (
        "instance rejected:\n  - space.metric: a direction metric needs numeric points\n")


@pytest.mark.parametrize("command", ["verify", "solve", "fit"])
def test_box_carrier_rejects_the_absdiff_scalar(tmp_path, capsys, command):
    # absdiff on box rows gave (k, d, m) distances: IndexError in verify,
    # TypeError in solve, and constants fitted to misshapen terms in fit
    doc = fixture_doc("instance_a")
    doc["space"]["carrier"] = {"kind": "box", "lows": [0.0, 0.0], "highs": [1.0, 1.0], "grid": 7}
    doc["run"]["x0"] = [1.0, 1.0]
    path = _write(tmp_path, "box.json", doc)
    assert main([command, "--instance", str(path)]) == 2
    assert capsys.readouterr().err == (
        "instance rejected:\n  - space.metric: box carriers use the 'euclidean' or 'max' scalar metric\n")
    doc["space"]["metric"]["scalar"] = "max"
    path = _write(tmp_path, "box.json", doc)
    assert main([command, "--instance", str(path)]) != 2


@pytest.mark.parametrize("command", ["verify", "solve", "fit"])
def test_box_carrier_rejects_a_power_map(tmp_path, capsys, command):
    # a power map takes numbers: on box rows it died with an uncaught TypeError
    doc = {**BOX, "contraction": {"class": "TB", "a": 0.75}}
    for name in ("T", "S"):
        doc["maps"] = {**BOX["maps"], name: {"family": "power", "exponent": 2.0}}
        path = _write(tmp_path, "box.json", doc)
        assert main([command, "--instance", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"instance rejected:\n  - maps.{name}: a power map takes numbers, not the vectors of a box carrier\n")


@pytest.mark.parametrize("command", ["verify", "solve", "oracle", "fit"])
@pytest.mark.parametrize("family", [{"family": "affine", "alpha": 0.5}, {"family": "power", "exponent": 2}],
                         ids=["affine", "power"])
def test_string_labels_reject_a_map_on_numbers(tmp_path, capsys, command, family):
    # an affine or a power map takes numbers: on the label "a" it died with
    # an uncaught TypeError (affine) or ValueError (power) in every command
    article = "an" if family["family"] == "affine" else "a"
    for name in ("T", "S"):
        doc = {
            "schema_version": "1",
            "cone": {"family": "orthant", "dimension": 1},
            "space": {
                "carrier": {"kind": "finite", "points": [0, "a", "b"]},
                "metric": {"kind": "tabulated", "table": [[[abs(i - j)] for j in range(3)] for i in range(3)]},
            },
            "maps": {"T": {"family": "identity"}, "S": {"family": "identity"}, name: family},
            "contraction": {"class": "TB", "a": 0.5},
            "run": {"x0": "a"},
        }
        path = _write(tmp_path, "labels.json", doc)
        assert main([command, "--instance", str(path)]) == 2
        assert capsys.readouterr().err == (
            f'instance rejected:\n  - maps.{name}: {article} {family["family"]} map takes numbers, not the label "a"\n')


@pytest.mark.parametrize("image", [-1, 10, 1.7])
def test_tabulated_map_rejects_bad_image_index(image):
    doc = fixture_doc("instance_d")
    assert len(doc["space"]["carrier"]["points"]) == 10
    doc["maps"]["S"]["images"][0] = image
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(json.dumps(doc))
    assert exc.value.errors == ["maps.S: images must be valid point indices"]


@pytest.mark.parametrize("points, error", [
    ("abc", 'points must be a list, got "abc"'),     # list() read it as the labels a, b, c
    ({"a": 1, "b": 2, "c": 3}, 'points must be a list, got {"a": 1, "b": 2, "c": 3}'),
    ([0, True, 2], "points must be numbers or strings, got true"),
    ([0, None, 2], "points must be numbers or strings, got null"),
    ([[0], 1, 2], "points must be numbers or strings, got [0]"),
])
def test_finite_points_must_be_a_list_of_numbers_or_strings(points, error):
    doc = {
        "schema_version": "1",
        "cone": {"family": "orthant", "dimension": 1},
        "space": {
            "carrier": {"kind": "finite", "points": points},
            "metric": {"kind": "tabulated", "table": [[[abs(i - j)] for j in range(3)] for i in range(3)]},
        },
        "maps": {"T": {"family": "identity"}, "S": {"family": "tabulated", "images": [0, 0, 1]}},
    }
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(json.dumps(doc))
    assert exc.value.errors == [f"space.carrier: {error}"]


@pytest.mark.parametrize("images, error", [
    ([0, 1], "tabulated map needs one image per point"),
    ([], "tabulated map needs one image per point"),
    ("01", 'images must be a list, got "01"'),
    ({"0": 1}, 'images must be a list, got {"0": 1}'),
])
def test_tabulated_map_images_must_be_a_list_with_one_image_per_point(images, error):
    doc = fixture_doc("instance_d")
    doc["maps"]["S"]["images"] = images
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(json.dumps(doc))
    assert exc.value.errors == [f"maps.S: {error}"]


def test_parse_finite_instance_builds_oracle_tables():
    inst = parse_instance(json.dumps(fixture_doc("instance_d")))
    assert inst.finite is not None
    assert inst.finite.space is inst.space and inst.finite.maps is inst.maps     # one object, not a copy
    assert inst.finite.n == 10
    assert isinstance(inst.space.carrier, FinitePointsCarrier)


def test_round_trip_of_builtin_fixtures():
    for doc in (fixture_doc("instance_a"), fixture_doc("instance_c"), fixture_doc("instance_d")):
        text = json.dumps(doc)
        inst = parse_instance(text)
        assert parse_instance(text).run == inst.run


# ---------------------------------------------------------------------------
# Golden corpus of malformed files
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).with_name("golden_malformed.json")
# null, wrong types, a negative and the non-finite numbers Python's json admits
BAD_VALUES = (None, "x", [], {}, -1, math.inf, math.nan)
# optional keys the fixtures leave out, given each bad value too
ABSENT = (("cone", "slack"), ("run", "max_iter"), ("run", "rate_h"), ("run", "normal_k"))
SWAPS = {
    ("contraction", "class"): (*CLASS_KINDS, "bogus", []),
    ("cone", "family"): ("orthant", "scaled_orthant", "polyhedral", "bogus", []),
    ("space", "carrier", "kind"): ("interval", "box", "finite", "bogus", []),
    ("space", "metric", "kind"): ("direction", "tabulated", "bogus", []),
    ("maps", "T", "family"): ("identity", "affine", "power", "tabulated", "bogus", []),
    ("maps", "S", "family"): ("identity", "affine", "power", "tabulated", "bogus", []),
}


def _key_paths(obj: dict, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _lookup(doc: dict, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def _mutant(base: dict, path: tuple, value=None, delete=False) -> dict:
    doc = copy.deepcopy(base)
    parent = _lookup(doc, path[:-1])
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def malformed_cases() -> dict[str, str]:
    """Case id -> instance text.  Fixtures A and D (one interval, one finite
    file) lose each key, gain an unknown key in each object and take each
    bad value at each key and at each ``ABSENT`` key; all four fixtures
    swap every discriminator."""
    cases = {}
    for name in ("instance_a", "instance_d"):
        base = fixture_doc(name)
        present = list(_key_paths(base))
        for path in present:
            cases[f"{name}:{'.'.join(path)} deleted"] = _mutant(base, path, delete=True)
        for path in present + list(ABSENT):
            for value in BAD_VALUES:
                cases[f"{name}:{'.'.join(path)}={json.dumps(value)}"] = _mutant(base, path, value)
        objects = [()] + [p for p in _key_paths(base) if isinstance(_lookup(base, p), dict)]
        for path in objects:
            cases[f"{name}:{'.'.join(path + ('bogus',))} added"] = _mutant(base, path + ("bogus",), 1)
    for name in ("instance_a", "instance_c", "instance_d", "instance_d_twu"):
        base = fixture_doc(name)
        for path, values in SWAPS.items():
            for value in values:
                if value != _lookup(base, path):
                    cases[f"{name}:{'.'.join(path)}={json.dumps(value)}"] = _mutant(base, path, value)
    return {cid: json.dumps(doc, sort_keys=True) for cid, doc in cases.items()}


def parse_outcome(text: str):
    """"ok", or the exact error list ``parse_instance`` rejects the text with."""
    try:
        parse_instance(text)
    except InstanceValidationError as exc:
        return exc.errors
    return "ok"


def test_malformed_corpus_matches_golden_table():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = {cid: parse_outcome(text) for cid, text in malformed_cases().items()}
    assert sorted(got) == sorted(expected)
    wrong = [(cid, got[cid], expected[cid]) for cid in got if got[cid] != expected[cid]]
    assert not wrong, f"{len(wrong)} cases differ, first: {wrong[:3]}"


# ---------------------------------------------------------------------------
# Commands and exit statuses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command, fixture", [
    ("verify", "instance_a"), ("oracle", "instance_d"), ("fit", "instance_a"),
])
def test_report_on_stdout_equals_the_out_file(tmp_path, capsys, command, fixture):
    path = _write(tmp_path, "inst.json", fixture_doc(fixture))
    out = tmp_path / "report.json"
    status = main([command, "--instance", str(path), "--out", str(out)])
    assert capsys.readouterr().out == ""
    assert main([command, "--instance", str(path)]) == status
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


@pytest.mark.parametrize("command, edit, err", [
    ("fit", lambda doc: {k: v for k, v in doc.items() if k != "contraction"},
     "error: fit requires a contraction section naming the class\n"),
    ("fit", lambda doc: {**doc, "contraction": {"class": "TZ", "a": 0.5, "b": 0.25, "c": 0.25}},
     "error: fit supports TB/TK/TC/TW, not TZ\n"),
    ("verify", lambda doc: {**doc, "space": {**doc["space"], "metric": {"kind": "tabulated", "table": [[[0.0, 0.0]]]}}},
     "instance rejected:\n  - space.metric: tabulated metrics require a finite carrier\n"),
    ("verify", lambda doc: {**doc, "maps": {**doc["maps"], "S": {"family": "tabulated", "images": [0]}}},
     "instance rejected:\n  - maps.S: tabulated maps require a finite carrier\n"),
    ("verify", lambda doc: [doc], "instance rejected:\n  - top level must be an object\n"),
])
def test_refusals_exit_2_with_their_text(tmp_path, capsys, command, edit, err):
    # instance A (an interval) edited into a file each command refuses
    path = _write(tmp_path, "a.json", edit(fixture_doc("instance_a")))
    assert main([command, "--instance", str(path)]) == 2
    assert capsys.readouterr() == ("", err)


def _line_table_doc(n: int, m: int) -> dict:
    """n points 0..n-1 under the 2-D orthant, d(i, j) = |i - j| (1, ..., 1)
    with m entries, and identity maps."""
    return {"schema_version": "1", "cone": {"family": "orthant", "dimension": 2},
            "space": {"carrier": {"kind": "finite", "points": list(range(n))},
                      "metric": {"kind": "tabulated",
                                 "table": [[[float(abs(i - j))] * m for j in range(n)] for i in range(n)]}},
            "maps": {"T": {"family": "identity"}, "S": {"family": "identity"}}}


@pytest.mark.parametrize("n, m, error", [
    (201, 2, "finite instances support 1..200 points, got 201"),
    (4, 3, "metric table must have shape (4, 4, 2), got (4, 4, 3)"),
])
def test_a_table_no_finite_instance_holds_exits_2(tmp_path, capsys, n, m, error):
    path = _write(tmp_path, "table.json", _line_table_doc(n, m))
    assert main(["verify", "--instance", str(path)]) == 2
    assert capsys.readouterr() == ("", f"instance rejected:\n  - space: {error}\n")


def test_run_refuses_an_unknown_command(tmp_path):
    inst = load_instance(_write(tmp_path, "a.json", fixture_doc("instance_a")))
    with pytest.raises(cli.UsageError) as info:
        cli.run("prove", inst)
    assert str(info.value) == "unknown command 'prove'"


def test_an_unknown_trace_format_is_refused(tmp_path, capsys):
    space, maps = instance_a()
    with pytest.raises(ConfigError, match="^unknown trace format 'xml'$"):
        emit_trace(picard_iterate(space, maps, 1.0), "xml")
    path = _write(tmp_path, "a.json", fixture_doc("instance_a"))
    assert main(["solve", "--instance", str(path), "--format", "xml"]) == 2
    assert "argument --format: invalid choice: 'xml'" in capsys.readouterr().err


def test_verify_passes_on_instance_a(tmp_path):
    path = _write(tmp_path, "a.json", fixture_doc("instance_a"))
    out = tmp_path / "report.json"
    assert main(["verify", "--instance", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    assert report["condition"]["holds"]
    assert report["cone_axioms"]["violation_count"] == 0


def test_verify_fails_with_undersized_constant(tmp_path):
    doc = fixture_doc("instance_a")
    doc["contraction"] = {"class": "TB", "a": 0.4}
    path = _write(tmp_path, "bad.json", doc)
    out = tmp_path / "report.json"
    assert main(["verify", "--instance", str(path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["status"] == "fail"
    assert not report["condition"]["holds"]


def test_verify_reduction_reported_for_tz(tmp_path):
    doc = fixture_doc("instance_a")
    doc["contraction"] = {"class": "TZ", "a": 0.5, "b": 0.0, "c": 0.0}
    path = _write(tmp_path, "tz.json", doc)
    out = tmp_path / "report.json"
    assert main(["verify", "--instance", str(path), "--samples", "500", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["reduction"]["holds"]
    assert report["reduction"]["rate_h"] == 0.5
    # delta = 0.5 sits exactly where the primary-form rate blows up
    assert report["reduction"]["rate_h_primary_form"] == "inf"


def test_solve_instance_a_trace_length(tmp_path, capsys):
    path = _write(tmp_path, "a.json", fixture_doc("instance_a"))
    out = tmp_path / "trace.csv"
    assert main(["solve", "--instance", str(path), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "n,x_n,gap_vector,gap_norm,cumulative_bound"
    assert 39 <= len(rows) - 1 <= 43
    cert = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert cert["uniqueness"] == "unique"
    assert cert["stop_reason"] == "converged"


@pytest.mark.parametrize("scalar", ["max", "euclidean"])
def test_solve_with_scalar_metrics_on_numeric_finite_points(tmp_path, capsys, scalar):
    # on numbers each scalar metric is |x - y|: the artifacts equal absdiff's
    def solve(scalar):
        doc = {
            "schema_version": "1",
            "cone": {"family": "orthant", "dimension": 2, "norm": "max"},
            "space": {
                "carrier": {"kind": "finite", "points": [0.0, 0.25, 0.5, 0.75, 1.0]},
                "metric": {"kind": "direction", "direction": [1.0, 2.0], "scalar": scalar},
            },
            "maps": {"T": {"family": "identity"}, "S": {"family": "tabulated", "images": [0, 0, 1, 1, 2]}},
            "contraction": {"class": "TB", "a": 0.5},
            "run": {"x0": 1.0},
        }
        out = tmp_path / f"{scalar}.csv"
        assert main(["solve", "--instance", str(_write(tmp_path, f"{scalar}.json", doc)), "--out", str(out)]) == 0
        return out.read_text(), capsys.readouterr().out

    trace, report = solve(scalar)
    assert json.loads(report.strip().splitlines()[-1])["fixed_point"] == 0.0
    assert (trace, report) == solve("absdiff")


# solve runs x0 once, and its probe reuses x0's run: solver.solve and the
# CLI artifacts must equal picard_iterate from x0, the check of its last
# point, the decay check and uniqueness_probe from solve_starts, run in
# that order.

B_MAPS = {"T": {"family": "power", "exponent": 3.0}, "S": {"family": "affine", "alpha": 0.25, "beta": 0.0}}
# T is constant: a run converges at once, at S(x0); S doubles, so S(S(x0))
# leaves [0, 1] for x0 > 1/4, and the carrier start 1.0 leaves it at once
ESCAPING_MAPS = {"T": {"family": "affine", "alpha": 0.0, "beta": 0.5},
                 "S": {"family": "affine", "alpha": 2.0, "beta": 0.0}}
SOLVE_CASES = [
    *[("instance_a", None, x0) for x0 in (None, 0, 0.0, 1, 0.3, 1.5)],
    *[("instance_a", B_MAPS, x0) for x0 in (None, 0, 0.5)],
    *[("instance_c", None, x0) for x0 in (None, 0, 0.0, 1, 0.5)],
    *[("instance_d", None, x0) for x0 in (None, 0, 5, 9.0, 10)],
    *[("instance_d_twu", None, x0) for x0 in (None, 0)],
    *[("instance_a", ESCAPING_MAPS, x0) for x0 in (0.3, 0.5, 0.0, 1.5)],
]


def _solve_instance(name, maps, x0):
    doc = fixture_doc(name)
    if maps is not None:
        doc["maps"] = maps
    return parse_instance(json.dumps(doc), None if x0 is None else {"x0": json.dumps(x0)})


def _composed_solve(inst):
    """picard_iterate from x0, certify_fixed_point of its last point,
    geometric_decay_check at the stated rate (else the measured one below
    1, else 0), then uniqueness_probe from solve_starts."""
    x0 = inst.run.x0
    if inst.space.carrier.finite and isinstance(x0, float) and x0.is_integer():
        x0 = int(x0)
    rule = StoppingRule(epsilon=inst.run.epsilon, max_iter=inst.run.max_iter)
    trace = picard_iterate(inst.space, inst.maps, x0, rule)
    check = certify_fixed_point(inst.space, inst.maps, trace.last, inst.run.epsilon)
    h = _stated_rate(inst)
    if h is None:
        measured = trace.max_step_ratio()
        h = measured if measured is not None and measured < 1.0 else 0.0
    decay = geometric_decay_check(trace, h, inst.run.normal_k, seed=inst.run.seed)
    probe = uniqueness_probe(inst.space, inst.maps, solver.solve_starts(inst.space.carrier, x0), rule)
    return trace, check, decay, probe


def _stated_rate(inst):
    spec = inst.contraction
    if inst.run.rate_h is not None:
        return inst.run.rate_h
    return zamfirescu_delta(spec.a, spec.b, spec.c) if spec is not None and spec.kind == "TZ" else None


def _library_solve(inst):
    rule = StoppingRule(epsilon=inst.run.epsilon, max_iter=inst.run.max_iter)
    return solver.solve(inst.space, inst.maps, inst.run.x0, rule, h=_stated_rate(inst), K=inst.run.normal_k,
                        seed=inst.run.seed)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name, maps, x0", SOLVE_CASES)
def test_solve_equals_picard_iterate_then_uniqueness_probe(name, maps, x0, fmt):
    inst = _solve_instance(name, maps, x0)
    try:
        trace, check, decay, probe = _composed_solve(inst)
    except DomainError as want:
        for call in (lambda: _library_solve(inst), lambda: cli.run("solve", inst, fmt=fmt)):
            with pytest.raises(DomainError) as got:
                call()
            assert str(got.value) == str(want)
        return
    got = _library_solve(inst)
    assert emit_trace(got[0], fmt, h=got[2].h) == emit_trace(trace, fmt, h=decay.h)
    assert repr(got[1:3]) == repr((check, decay))
    assert [(t.stop_reason, t.x_sequence) for t in got[3].traces] == [(t.stop_reason, t.x_sequence)
                                                                      for t in probe.traces]
    assert json.dumps(cli._plain([got[3].verdict, got[3].fixed_point, got[3].witnesses])) == json.dumps(
        cli._plain([probe.verdict, probe.fixed_point, probe.witnesses]))

    status, artifacts = cli.run("solve", inst, fmt=fmt)
    cert = artifacts["certificate"]
    assert artifacts["trace_text"] == emit_trace(trace, fmt, h=decay.h, K=inst.run.normal_k)
    got = [cert[key] for key in ("fixed_point", "residual_norm", "bound_h", "decay_per_step_ok", "cauchy_bound_ok",
                                 "uniqueness", "witnesses", "stop_reason", "iterations")]
    want = [check.point if check.certified else None, check.residual_norm, decay.h, decay.per_step_ok,
            decay.cauchy_ok, probe.verdict, probe.witnesses, trace.stop_reason, trace.n_final]
    assert json.dumps(cli._plain(got)) == json.dumps(cli._plain(want))    # 0 and 0.0 print apart
    assert status == (0 if trace.stop_reason == "converged" and check.certified else 1)


def test_solve_keeps_an_integer_start_apart_from_the_equal_carrier_start():
    # S is the identity: every run stays at its start object, and x0 = 0
    # shares its key with lo = 0.0, so the probe runs 0.0, not 0
    inst = _solve_instance("instance_c", None, 0)
    starts = solver.solve_starts(inst.space.carrier, 0)
    assert [(s, type(s)) for s in starts] == [(0.0, float), (0.5, float), (1.0, float)]
    status, artifacts = cli.run("solve", inst, fmt="json")
    cert = artifacts["certificate"]
    assert status == 0 and type(cert["fixed_point"]) is int and cert["fixed_point"] == 0
    assert cert["uniqueness"] == "non_unique" and json.dumps(cert["witnesses"]) == "[0.0, 0.5, 1.0]"
    assert [type(row["x_n"]) for row in json.loads(artifacts["trace_text"])["rows"]] == [int]


@pytest.mark.parametrize("command, samples", [("verify", 10_000), ("verify", 100), ("fit", 100)])
def test_verify_and_fit_run_on_a_carrier_whose_width_overflows(tmp_path, capsys, command, samples):
    # [-1e308, 1e308] with S = -x: rng.uniform raised OverflowError on the
    # sampled pairs, and the grid of 11 points held nan and inf
    doc = fixture_doc("instance_a")
    doc["space"]["carrier"].update(lo=-1e308, hi=1e308, grid=11)
    doc["maps"]["S"] = {"family": "affine", "alpha": -1.0}
    path = _write(tmp_path, "wide.json", doc)
    assert main([command, "--instance", str(path), "--samples", str(samples)]) == 1
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["status"] == "fail"


def test_solve_starts_in_the_carrier_where_lo_plus_hi_overflows(tmp_path, capsys):
    # the carrier's middle start was 0.5 * (lo + hi) = inf
    doc = {**fixture_doc("instance_a"), "maps": {"T": {"family": "identity"}, "S": {"family": "identity"}}}
    doc["space"]["carrier"].update(lo=1e308, hi=1.5e308)
    del doc["contraction"]
    assert main(["solve", "--instance", str(_write(tmp_path, "mid.json", doc)), "--x0", "1.2e308"]) == 0
    cert = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert cert["uniqueness"] == "non_unique" and cert["witnesses"] == [1e308, 1.25e308, 1.5e308, 1.2e308]


def test_a_start_outside_the_carrier_keeps_its_own_error(tmp_path, capsys):
    # the carrier start 1.0 leaves [0, 1] at iterate 0, but x0 is checked first
    path = _write(tmp_path, "escape.json", {**fixture_doc("instance_a"), "maps": ESCAPING_MAPS})
    assert main(["solve", "--instance", str(path), "--x0", "1.5"]) == 1
    assert capsys.readouterr().err == "check failed: start point 1.5 lies outside the carrier\n"
    # x0 = 0.3 stops at 0.6, and the check of 0.6 fails before the probe does
    assert main(["solve", "--instance", str(path), "--x0", "0.3"]) == 1
    assert capsys.readouterr().err == "check failed: S-image 1.2 lies outside the carrier\n"
    # x0 = 0.0 is fixed, so the probe's first failing start names the error
    assert main(["solve", "--instance", str(path), "--x0", "0.0"]) == 1
    assert capsys.readouterr().err == ("check failed: iterate 0 escaped the carrier: "
                                       "S-image 2.0 lies outside the carrier\n")
    # a start that is not even hashable as a box point is refused as a start
    path = _write(tmp_path, "box.json", BOX)
    assert main(["solve", "--instance", str(path), "--x0", "[[1, 2]]"]) == 1
    assert capsys.readouterr().err == "check failed: start point array([[1., 2.]]) lies outside the carrier\n"


@pytest.mark.parametrize("x0", ["1.0", "1"])
def test_solve_runs_a_start_equal_to_a_float_label_as_that_label(tmp_path, capsys, x0):
    # the labels are floats: --x0 1 and --x0 1.0 both start at the label 1.0
    doc = {"schema_version": "1", "cone": {"family": "orthant", "dimension": 2},
           "space": {"carrier": {"kind": "finite", "points": [0.0, 0.5, 1.0, 2.0]},
                     "metric": {"kind": "direction", "direction": [1.0, 2.0]}},
           "maps": {"T": {"family": "identity"}, "S": {"family": "identity"}}}
    path, out = _write(tmp_path, "labels.json", doc), tmp_path / "trace.json"
    assert main(["solve", "--instance", str(path), "--x0", x0, "--format", "json", "--out", str(out)]) == 0
    cert = json.loads(capsys.readouterr().out.splitlines()[-1])
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [type(r["x_n"]) for r in rows] == [float] and type(cert["fixed_point"]) is float
    assert cert["fixed_point"] == 1.0 and cert["witnesses"] == [0.0, 1.0, 2.0]


def test_solve_requires_start_point(tmp_path):
    doc = fixture_doc("instance_a")
    del doc["run"]["x0"]
    path = _write(tmp_path, "nox0.json", doc)
    assert main(["solve", "--instance", str(path)]) == 2
    assert main(["solve", "--instance", str(path), "--x0", "1.0"]) == 0


def test_oracle_requires_finite_instance(tmp_path):
    path = _write(tmp_path, "a.json", fixture_doc("instance_a"))
    assert main(["oracle", "--instance", str(path)]) == 2


def test_oracle_reports_exact_results(tmp_path):
    path = _write(tmp_path, "d.json", fixture_doc("instance_d"))
    out = tmp_path / "oracle.json"
    status = main(["oracle", "--instance", str(path), "--out", str(out)])
    report = json.loads(out.read_text())
    assert status == 1  # TB(0.5) genuinely fails on the integer grid
    assert report["fixed_points"] == [0]
    assert [1, 2] in report["condition"]["violating_pairs"]
    assert report["tightest"]["supremum"]["a"] == 1.0
    assert not report["tightest"]["feasible"]


def test_oracle_evaluates_tz_once(tmp_path, monkeypatch):
    # the condition check and the reduction check share one TZ verdict
    evaluated = []

    def counting(spec, *args, **kwargs):
        evaluated.append(spec)
        return evaluate(spec, *args, **kwargs)

    monkeypatch.setattr(oracle, "evaluate", counting)
    doc = fixture_doc("instance_d")
    doc["contraction"] = {"class": "TZ", "a": 0.5, "b": 0.25, "c": 0.125}
    path = _write(tmp_path, "tz.json", doc)
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--instance", str(path), "--out", str(out)]) in (0, 1)
    assert "reduction" in json.loads(out.read_text())
    assert evaluated == [ClassSpec.tz(0.5, 0.25, 0.125)]


def test_oracle_runs_exact_reduction_for_tz(tmp_path):
    # four-rung dyadic ladder pulled two rungs per step: exactly TB(0.5),
    # hence TZ(0.5, 0, 0) with a unique fixed point at the bottom
    values = [1.0, 0.5, 0.25, 0.0]
    table = [
        [[abs(a - b), 2 * abs(a - b)] for b in values] for a in values
    ]
    doc = {
        "schema_version": "1",
        "cone": {"family": "orthant", "dimension": 2, "norm": "max"},
        "space": {
            "carrier": {"kind": "finite", "points": [0, 1, 2, 3]},
            "metric": {"kind": "tabulated", "table": table},
        },
        "maps": {
            "T": {"family": "tabulated", "images": [0, 1, 2, 3]},
            "S": {"family": "tabulated", "images": [2, 3, 3, 3]},
        },
        "contraction": {"class": "TZ", "a": 0.5, "b": 0.0, "c": 0.0},
    }
    path = _write(tmp_path, "tz.json", doc)
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--instance", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["condition"]["holds"]
    assert report["reduction"]["holds"] and report["reduction"]["delta"] == 0.5
    assert report["cross_validation"]["passed"]
    assert report["fixed_points"] == [3]


def test_fit_command(tmp_path):
    doc = fixture_doc("instance_a")
    doc["space"]["carrier"]["grid"] = 41
    path = _write(tmp_path, "a.json", doc)
    out = tmp_path / "fit.json"
    assert main(["fit", "--instance", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["feasible"]
    assert abs(report["constants"]["a"] - 0.5) <= 1e-6


def test_fit_with_pinned_delta(tmp_path):
    doc = fixture_doc("instance_c")
    doc["space"]["carrier"]["grid"] = 41
    doc["contraction"] = {"class": "TW", "delta": 0.9}
    path = _write(tmp_path, "c.json", doc)
    out = tmp_path / "fit.json"
    assert main(["fit", "--instance", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["constants"]["L"] - 0.1) <= 1e-6


def test_missing_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert main(["verify", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == f"error: instance file not found: {path}\n"


def _denied(self, *args, **kwargs):
    raise PermissionError(errno.EACCES, "Permission denied", str(self))


def test_unreadable_instance_is_usage_error(tmp_path, capsys, monkeypatch):
    assert main(["verify", "--instance", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read instance file {tmp_path}: Is a directory\n"
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"cone": "\xe9"}')
    assert main(["verify", "--instance", str(latin)]) == 2
    assert capsys.readouterr().err == f"error: cannot read instance file {latin}: not UTF-8 text\n"
    path = _write(tmp_path, "d.json", fixture_doc("instance_d"))
    monkeypatch.setattr(Path, "read_text", _denied)
    assert main(["verify", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read instance file {path}: Permission denied\n"


@pytest.mark.parametrize("command", ["verify", "solve", "oracle", "fit"])
def test_out_path_in_a_missing_directory_is_usage_error(tmp_path, capsys, command):
    path = _write(tmp_path, "d.json", fixture_doc("instance_d"))
    out = tmp_path / "missing" / "artifact"
    assert main([command, "--instance", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: cannot write {out}: No such file or directory\n")


def test_fractional_power_of_a_negative_point_fails_the_check(tmp_path, capsys):
    # S = x^0.5 on [-1, 1]: Python's float pow gives a complex number at a
    # negative point, which used to end solve and verify in a TypeError
    doc = fixture_doc("instance_a")
    doc["space"]["carrier"]["lo"] = -1.0
    doc["maps"]["S"] = {"family": "power", "exponent": 0.5}
    file = _write(tmp_path, "a.json", doc)
    # S is undefined at -0.5 rather than mapping it outside: its own error
    assert main(["solve", "--instance", str(file), "--x0", "-0.5"]) == 1
    assert capsys.readouterr().err == "check failed: power map produced a non-finite value at -0.5\n"
    assert main(["verify", "--instance", str(file)]) == 1
    assert capsys.readouterr().err.startswith("check failed: power map produced a non-finite value at -")
    # without a contraction section verify still applies S, T and TS to
    # the points the condition check would read
    del doc["contraction"]
    file = _write(tmp_path, "a.json", doc)
    assert main(["verify", "--instance", str(file)]) == 1
    assert capsys.readouterr().err.startswith("check failed: power map produced a non-finite value at -")


def test_consecutive_main_calls_parse_like_fresh_parsers(tmp_path, capsys, monkeypatch):
    # main reuses one parser; a usage error, then verify, then solve must
    # come out as they do with a parser built for each call
    path = str(_write(tmp_path, "a.json", fixture_doc("instance_a")))
    calls = (["verify", "--bogus"], ["verify", "--instance", path, "--seed", "3"],
             ["solve", "--instance", path, "--x0", "0.5"], ["fit"])
    shared = [(main(argv), capsys.readouterr()) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
        fresh.append((main(argv), capsys.readouterr()))
    assert shared == fresh
    assert [code for code, _ in shared] == [2, 0, 0, 2]
    assert "the following arguments are required: --instance" in shared[0][1].err


def test_boolean_start_point_is_outside_an_interval(tmp_path, capsys):
    path = _write(tmp_path, "a.json", fixture_doc("instance_a"))
    assert main(["solve", "--instance", str(path), "--x0", "true"]) == 1
    assert capsys.readouterr().err == "check failed: start point True lies outside the carrier\n"


def test_boolean_start_point_is_not_a_finite_label(tmp_path, capsys):
    # instance D has the label 1, which a dict finds under True
    path = _write(tmp_path, "d.json", fixture_doc("instance_d"))
    assert main(["solve", "--instance", str(path), "--x0", "true"]) == 1
    assert capsys.readouterr().err == "check failed: start point True lies outside the carrier\n"


def test_map_off_the_finite_labels_is_rejected():
    doc = fixture_doc("instance_d")
    doc["maps"]["S"] = {"family": "affine", "alpha": 0.5}
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(json.dumps(doc))
    assert exc.value.errors == ["maps.S: S-image 0.5 lies outside the carrier"]


_HALF = {"family": "affine", "alpha": 0.5}


@pytest.mark.parametrize("maps, error", [
    ({"S": _HALF}, "maps.S: S-image 0.5 lies outside the carrier"),
    ({"T": _HALF, "S": _HALF}, "maps.T: T-image 0.5 lies outside the carrier"),     # T is checked first
    ({"S": {"family": "power", "exponent": -1.0}}, "maps.S: power map produced a non-finite value at 0"),
    ({"T": {"family": "power", "exponent": -1.0}}, "maps.T: power map produced a non-finite value at 0"),
])
def test_a_map_off_the_labels_is_named_by_every_command(tmp_path, capsys, maps, error):
    # the labels 0..9 of instance D: the map and its first point off them
    # are named, on every command
    doc = fixture_doc("instance_d")
    doc["maps"].update(maps)
    path = _write(tmp_path, "d.json", doc)
    for command in ("verify", "solve", "oracle", "fit"):
        assert main([command, "--instance", str(path)]) == 2
        assert capsys.readouterr().err == f"instance rejected:\n  - {error}\n"


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------

def test_emit_trace_rows_match_halving(tmp_path):
    space, maps = instance_a()
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=3))
    text = emit_trace(trace, "csv", None, h=0.5, K=1.0)
    lines = text.strip().splitlines()
    assert len(lines) == 5  # header + 4 data rows
    norms = [float(line.split(",")[3]) for line in lines[1:]]
    assert norms == [1.0, 0.5, 0.25, 0.125]
    bounds = [float(line.split(",")[4]) for line in lines[1:]]
    assert bounds == [1.0, 0.5, 0.25, 0.125]


def test_emit_trace_refuses_empty():
    space, maps = instance_a()
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=2))
    trace.gaps, trace.norms = trace.gaps[:0], trace.norms[:0]
    with pytest.raises(ConfigError):
        emit_trace(trace, "csv", None)


def test_trace_json_round_trip_is_exact(tmp_path):
    space, maps = instance_a()
    trace = picard_iterate(space, maps, 0.7, StoppingRule(max_iter=25))
    text = emit_trace(trace, "json", None, h=0.5, K=1.0)
    parsed = json.loads(text)
    assert [r["gap_norm"] for r in parsed["rows"]] == trace.gap_norms[: len(parsed["rows"])]
    assert [r["x_n"] for r in parsed["rows"]] == trace.x_sequence[: len(parsed["rows"])]


def _string_label_doc(labels):
    """Instance D with its ten points relabelled ``labels``: the tabulated
    maps and the metric table index the points, so only the names change."""
    doc = fixture_doc("instance_d")
    doc["space"]["carrier"]["points"] = labels
    doc["run"]["x0"] = labels[3]
    return doc


@pytest.mark.parametrize("labels, cell", [
    ([f"p{i}" for i in range(10)], "p1"),
    (["p0", "a,b", 'say "hi"', "p3", "line\nbreak", "cr\rlf", "p6", "p7", "p8", "p9"], '"a,b"'),
    (["p0", 'say "hi"', "a,b", "p3", "p4", "p5", "p6", "p7", "p8", "p9"], '"say ""hi"""'),
    (["p0", "line\nbreak", "cr\rlf", "p3", "p4", "p5", "p6", "p7", "p8", "p9"], '"line\nbreak"'),
])
def test_solve_writes_string_labels_to_a_csv_trace(tmp_path, labels, cell):
    # the CSV writer formatted every x_n as a float and died on 'p3'; a
    # label is written as it is, quoted where CSV needs it, and reads back
    # as the JSON trace's labels
    path = _write(tmp_path, "labels.json", _string_label_doc(labels))
    traces = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"trace.{fmt}"
        assert main(["solve", "--instance", str(path), "--out", str(out), "--format", fmt]) == 0
        traces[fmt] = out.read_text(encoding="utf-8")
    rows = json.loads(traces["json"])["rows"]
    assert [r["x_n"] for r in rows] == [labels[3], labels[1], labels[0]]
    parsed = list(csv.reader(io.StringIO(traces["csv"], newline="")))
    assert parsed[0] == ["n", "x_n", "gap_vector", "gap_norm", "cumulative_bound"]
    assert [r[1] for r in parsed[1:]] == [r["x_n"] for r in rows]
    assert [float(r[3]) for r in parsed[1:]] == [r["gap_norm"] for r in rows]
    header = "n,x_n,gap_vector,gap_norm,cumulative_bound\n"
    assert traces["csv"] == header + f"0,p3,2;4,4,4\n1,{cell},1;2,2,2\n2,p0,0;0,0,1\n"


def test_trace_csv_17_digit_round_trip():
    space, maps = instance_a()
    trace = picard_iterate(space, maps, 0.7, StoppingRule(max_iter=25))
    text = emit_trace(trace, "csv", None, h=0.5, K=1.0)
    for line, expected in zip(text.strip().splitlines()[1:], trace.gap_norms):
        assert float(line.split(",")[3]) == expected


def _refuse_constant(token):
    raise ValueError(f"bare {token} in strict JSON")


def test_json_trace_writes_non_finite_numbers_as_strings(tmp_path, capsys):
    # S = -x from 1e308: every gap overflows to inf, and with h = 0 the
    # bound after the first is K * 0 * inf = NaN
    doc = fixture_doc("instance_a")
    doc["space"]["carrier"].update(lo=-1e308, hi=1e308)
    doc["maps"]["S"] = {"family": "affine", "alpha": -1.0}
    path, out = _write(tmp_path, "swap.json", doc), tmp_path / "trace.json"
    status = main(["solve", "--instance", str(path), "--x0", "1e308", "--format", "json", "--out", str(out)])
    assert status == 1
    rows = json.loads(out.read_text(encoding="utf-8"), parse_constant=_refuse_constant)["rows"]
    assert [(r["gap_norm"], r["cumulative_bound"], r["gap_vector"]) for r in rows] == [
        ("inf", "inf", ["inf", "inf"]), ("inf", "nan", ["inf", "inf"])]
    cert = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert cert["decay_per_step_ok"] is False and cert["cauchy_bound_ok"] is False


def test_overflowing_gaps_write_nothing_to_stderr(tmp_path):
    # the same repro in a fresh interpreter with the default warning filters:
    # the overflowing gap is inf in the artifact, and numpy says nothing
    doc = fixture_doc("instance_a")
    doc["space"]["carrier"].update(lo=-1e308, hi=1e308)
    doc["maps"]["S"] = {"family": "affine", "alpha": -1.0}
    path, out = _write(tmp_path, "swap.json", doc), tmp_path / "trace.json"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-m", "conefix.cli", "solve", "--instance", str(path), "--x0", "1e308",
                           "--format", "json", "--out", str(out)], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (1, "")
    assert json.loads(out.read_text(encoding="utf-8"))["rows"][0]["gap_norm"] == "inf"


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

_NUMPY_SCALARS = st.one_of(
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
)
_NUMPY_ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.int32, np.bool_]),
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(), st.sampled_from([-0.0, 5e-324, math.inf, -math.inf, math.nan, 1e308, 1e16]),
    st.text(st.characters(max_codepoint=0x1F0FF), max_size=8),
    st.sampled_from(["", "\x00\x1f\x7f", "quote \" and \\ slash", "line\nbreak\ttab", "é€😀"]),
    _NUMPY_SCALARS, _NUMPY_ARRAYS,
)
_REPORTS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=3).map(tuple),
    st.lists(st.floats(), max_size=5),
    st.dictionaries(st.text(max_size=4) | st.integers(-3, 3), inner, max_size=5),
), max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(obj=_REPORTS)
def test_report_writer_equals_json_dumps_of_plain(obj):
    assert cli._dump_json(obj, None) == json.dumps(cli._plain(obj), sort_keys=True, indent=2) + "\n"


# Lists of dicts, as the record template sees them: each key takes one
# column strategy, so its values share a kind in every record.  The
# columns cover what the template writes (finite floats, ints, strings,
# float vectors of one length) and what it must leave to the walk: NaN and
# +-inf, bools and None, numpy scalars (whose %r is "np.float64(...)"),
# float32 arrays, and vectors of unequal length.  A record may carry an
# extra key, str or int.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0 ** 53 + 1, 1e16])


def _vectors(n):
    floats = st.lists(_FINITE | _EDGE_FLOATS, min_size=n, max_size=n)
    return st.one_of(floats, floats.map(tuple), floats.map(np.array),
                     st.lists(st.floats(), min_size=n, max_size=n).map(np.array),
                     st.lists(st.floats(width=32), min_size=n, max_size=n).map(lambda v: np.array(v, np.float32)))


_COLUMNS = st.one_of(
    st.sampled_from([
        _FINITE, _EDGE_FLOATS, st.floats(), st.integers(-2 ** 70, 2 ** 70),
        st.integers(2 ** 53, 2 ** 53 + 3), st.booleans(), st.none(), st.none() | _FINITE,
        st.text(max_size=6), st.sampled_from(["%s", "%%", "%(a)s", '"q"', "back\\slash", "é€😀", ""]),
        _FINITE.map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
        st.lists(_FINITE, max_size=3), st.integers(0, 9) | _FINITE,
    ]),
    st.integers(0, 3).map(_vectors),
)


@st.composite
def _record_lists(draw):
    keys = draw(st.lists(st.text(max_size=3) | st.sampled_from(["%", "%s", "%%d", '"', "\\", "a\nb"]),
                         unique=True, max_size=4))
    columns = {k: draw(_COLUMNS) for k in keys}
    records = [{k: draw(column) for k, column in columns.items()} for _ in range(draw(st.integers(0, 5)))]
    if records and draw(st.booleans()):
        records[draw(st.integers(0, len(records) - 1))][draw(st.sampled_from(["extra", "", 0, -1]))] = 1.5
    return records if draw(st.booleans()) else tuple(records)


@settings(max_examples=500, deadline=None)
@given(records=_record_lists())
@example(records=[{"": None, 0: None}, {}])
@example(records=[{}, {}])
@example(records=[{"a": [], "b": 1}, {"a": (), "b": 2}])
@example(records=[{"%": 1.0, '"': "%s", "\\": [1.0, -0.0]}, {"%": 5e-324, '"': "", "\\": np.array([1e308, 2.0])}])
def test_record_lists_equal_json_dumps_of_plain(records):
    for obj in (records, {"rows": records, "nested": [records, {"deeper": records}]}):
        assert cli._dump_json(obj, None) == json.dumps(cli._plain(obj), sort_keys=True, indent=2) + "\n"


@st.composite
def _column_records(draw):
    """1-5 records as ``cli.Columns`` holds them: per key a list drawn from
    one ``_COLUMNS`` strategy, or a 2-D array of vectors (float64 with NaN
    and +-inf, float32, int64; 0-3 wide)."""
    count = draw(st.integers(1, 5))
    keys = draw(st.lists(st.text(max_size=3) | st.sampled_from(["%", "%s", '"']), unique=True, min_size=1, max_size=4))
    columns = {}
    for key in keys:
        if draw(st.booleans()):
            width, dtype = draw(st.integers(0, 3)), draw(st.sampled_from([np.float64, np.float64, np.float32, np.int64]))
            values = {np.float64: st.floats() | _EDGE_FLOATS, np.float32: st.floats(width=32),
                      np.int64: st.integers(-9, 9)}[dtype]
            cells = draw(st.lists(values, min_size=count * width, max_size=count * width))
            columns[key] = np.array(cells, dtype=dtype).reshape(count, width)
        else:
            column = draw(_COLUMNS)
            columns[key] = [draw(column) for _ in range(count)]
    return cli.Columns(columns)


@settings(max_examples=400, deadline=None)
@given(rows=_column_records())
@example(rows=cli.Columns({"a": np.array([[1.0, 2.0], [3.0, math.inf]]), "b": [1, 2]}))
@example(rows=cli.Columns({"v": np.zeros((3, 0)), "w": [[], [], []]}))
def test_column_records_equal_json_dumps_of_plain(rows):
    # the columns are written as the list of their records
    count = len(next(iter(rows.columns.values())))
    records = [{key: column[i] for key, column in rows.columns.items()} for i in range(count)]
    want = json.dumps(cli._plain({"rows": records, "n": 1}), sort_keys=True, indent=2) + "\n"
    assert cli._dump_json({"rows": rows, "n": 1}, None) == want


_LABELS = st.lists(st.integers(-5, 5) | _FINITE | st.text(max_size=3), min_size=1, max_size=6, unique=True)


def _refuse_entries(*row):
    raise AssertionError("the artifact path built a report entry")


@st.composite
def _condition_reports(draw):
    """A ``ConditionReport`` pair as the engine builds one: the same rows in
    a view of ``ConditionViolation``s (the reference) and in a view whose
    entries cannot be built, each of one group as ``PairSet.witnesses``
    builds it.  Points are interval floats, finite labels or box points;
    values are (k, m) arrays, with NaN and +-inf in some draws."""
    k, m = draw(st.sampled_from([0, 1, 2, 50, 51])), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["interval", "finite", "box"]))
    if kind == "interval":
        carrier = IntervalCarrier(-1.0, 1.0)
        points = np.array(draw(st.lists(_FINITE | _EDGE_FLOATS, min_size=2 * k, max_size=2 * k)), dtype=float)
    elif kind == "box":
        carrier = BoxCarrier([0.0, 0.0], [1.0, 1.0])
        cells = draw(st.lists(_FINITE | _EDGE_FLOATS, min_size=4 * k, max_size=4 * k))
        points = np.array(cells, dtype=float).reshape(2 * k, 2)
    else:
        carrier = FinitePointsCarrier(draw(_LABELS))
        points = np.array(draw(st.lists(st.integers(0, len(carrier.points) - 1), min_size=2 * k, max_size=2 * k)),
                          dtype=np.intp)
    floats = st.floats() if draw(st.booleans()) else _FINITE | _EDGE_FLOATS
    values = [draw(hnp.arrays(np.float64, (k, m), elements=floats)) for _ in range(3)]
    views = [cone_space.LazyRows(carrier.from_array, [(make, (points[:k], points[k:]), tuple(values))])
             for make in (ConditionViolation, _refuse_entries)]
    spec = ClassSpec.tz(0.1, 0.2, 0.3)
    return [ConditionReport(spec, 2 * k, view, {"a": k}, notes=("n",)) for view in views]


@st.composite
def _engine_reports(draw):
    """The reports ``verify`` writes for a TZ instance: the TZ check, whose
    rows come from the best branch, and the reduced forms when it holds."""
    space, maps = instance_a(draw(st.integers(2, 12)))
    maps = MapPair(maps.T, AffineMap(draw(st.sampled_from([0.0, 0.5, 0.75, 1.0]))))
    a, b, c = (draw(st.sampled_from([0.0, 0.1, 0.25, 0.45])) for _ in range(3))
    red = verify_zamfirescu_reduction(space, maps, a, b, c, grid_pairs(space))
    report = draw(st.sampled_from([r for r in (red.tz_report, red.primary, red.dual) if r is not None]))
    return [report, report]


def _per_row_dict(report) -> dict:
    """``_condition_report_dict`` with one dict per printed violation: the
    form the writer's bytes are held to."""
    return {**cli._condition_report_dict(report), "violations": [
        {"x": v.x, "y": v.y, "lhs": v.lhs, "rhs": v.rhs, "residual": v.residual} for v in report.violations[:50]]}


@settings(max_examples=300, deadline=None)
@given(reports=_condition_reports() | _engine_reports())
@example(reports=[ConditionReport(ClassSpec.tb(0.5), 0, [], inconclusive=True)] * 2)
def test_condition_reports_are_written_from_columns_with_the_bytes_of_per_row_dicts(reports):
    # violations reach the writer as the view's columns, with no entry built,
    # and the artifact keeps the bytes of json.dumps of one dict per row
    reference, report = reports
    want = json.dumps(cli._plain({"condition": _per_row_dict(reference), "reduction": {
        "primary": _per_row_dict(reference)}}), sort_keys=True, indent=2) + "\n"
    d = cli._condition_report_dict(report)
    assert cli._dump_json({"condition": d, "reduction": {"primary": d}}, None) == want
    assert d["violation_count"] == len(reference.violations)


def test_column_template_writes_trace_rows_and_violation_tables():
    # trace rows with a 2-D gap array and a violation table with box points
    # take the template; a column of another kind sends the table to the walk
    trace = {"n": [0, 1, 2], "x_n": [1.0, 0.5, 0.25], "gap_vector": np.array([[0.5, 1.0], [0.25, 0.5], [0.0, -0.0]]),
             "gap_norm": [1.0, 0.5, 5e-324], "cumulative_bound": [1.0, 0.5, 0.25]}
    violations = {"x": [np.array([0.25, 0.5])] * 2, "y": ["a", "b"], "lhs": np.ones((2, 2)), "rhs": np.zeros((2, 2)),
                  "residual": -np.ones((2, 2))}
    vector, vector32 = np.zeros(2), np.zeros(2, np.float32)
    walked = [{"a": [math.nan, 1.0]}, {"a": [1.0, math.inf]}, {"a": [True, 1]}, {"a": [None, None]},
              {"a": [np.float64(1.0), 1.0]}, {"a": [np.int64(1), 1]}, {"a": [vector, np.zeros(3)]}, {"a": [1, "1"]},
              {"a": [1, 1.0]}, {"a": [vector32, vector]}, {"a": [vector32, vector32]}, {"a": [[1.0], [2.0]]},
              {"a": [(1.0,), (2.0,)]}, {"a": [vector, [0.0, 0.0]]}, {"a": [np.zeros((1, 2))] * 2},
              {"a": np.zeros((2, 2), np.float32)}, {"a": np.array([[1.0], [math.inf]])}, {"a": np.zeros(2)},
              {**trace, "gap_norm": [1.0, 0.5, math.nan]}]
    for i, columns in enumerate([trace, violations, *walked]):
        rows = cli.Columns(columns)
        assert (cli._columns(columns, "\n") is None) == (i >= 2), columns
        want = json.dumps(cli._plain({"rows": rows.records()}), sort_keys=True, indent=2) + "\n"
        assert cli._dump_json({"rows": rows}, None) == want


def _records_for_columns(value):
    """``value`` with every ``cli.Columns`` replaced by the list of its records."""
    if isinstance(value, cli.Columns):
        return value.records()
    if isinstance(value, dict):
        return {k: _records_for_columns(v) for k, v in value.items()}
    return value


def _box_solve_doc(S: dict) -> dict:
    doc = fixture_doc("instance_a")
    doc["space"] = {"carrier": {"kind": "box", "lows": [0.0, 0.0], "highs": [1.0, 1.0], "grid": 5},
                    "metric": {"kind": "direction", "direction": [1.0, 2.0], "scalar": "euclidean"}}
    doc["maps"] = {"T": {"family": "identity"}, "S": S}
    doc["run"]["x0"] = [1.0, 0.5]
    return doc


def _cone_doc(name: str, cone: dict, **metric) -> dict:
    doc = fixture_doc(name)
    doc["cone"] = cone
    doc["space"]["metric"].update(metric)
    return doc


_LINE_TABLE = [[[0.0, abs(i - j)] for j in range(10)] for i in range(10)]


@pytest.mark.parametrize("command, doc", [
    pytest.param("verify", _cone_doc("instance_a", {"family": "polyhedral", "dimension": 2, "matrix": [[0, 0]]}),
                 id="zero-row"),
    pytest.param("verify", _cone_doc("instance_a", {"family": "polyhedral", "dimension": 3, "matrix": [[1, 0, 0]]},
                                     direction=[1.0, 1.0, 1.0]), id="half-space-3d"),
    pytest.param("verify", _cone_doc("instance_d", {"family": "polyhedral", "dimension": 2,
                                                    "matrix": [[1, 0], [-1, 0]]}, table=_LINE_TABLE), id="line"),
    pytest.param("solve", _box_solve_doc({"family": "affine", "alpha": 0.5}), id="box-trace"),
    pytest.param("solve", _box_solve_doc({"family": "identity"}), id="box-trace-identity"),
])
def test_artifacts_keep_the_bytes_of_json_dumps(monkeypatch, command, doc):
    # axiom reports (P1 and P3 entries) and box traces from an array start
    # are written with the bytes of json.dumps of what the command built
    seen, dump = [], cli._dump_json
    monkeypatch.setattr(cli, "_dump_json", lambda obj, path: seen.append(obj) or dump(obj, path))
    status, artifacts = cli.run(command, parse_instance(json.dumps(doc)), fmt="json")
    want = json.dumps(cli._plain(_records_for_columns(seen[0])), sort_keys=True, indent=2) + "\n"
    assert artifacts["trace_text" if command == "solve" else "text"] == want
    if command == "solve":     # the box points are stacked into one array for the template
        assert cli._columns(seen[0]["rows"].columns, "\n") is not None
    else:
        checks = [v["check"] for v in json.loads(want)["cone_axioms"]["violations"]]
        assert status == 1 and checks in (["P3-pointed"] * 2, ["P1-interior-nonempty", "P3-pointed"])


@pytest.mark.parametrize("S", [AffineMap(0.5), IdentityMap()])
def test_a_box_trace_from_a_list_start_keeps_the_bytes_of_json_dumps(S):
    space = ConeMetricSpace(ConeSpec.orthant(2), BoxCarrier([0.0, 0.0], [1.0, 1.0]),
                            DirectionMetric([1.0, 2.0], rho="euclidean"))
    trace = picard_iterate(space, MapPair(IdentityMap(), S), [1.0, 0.5])
    assert type(trace.x_sequence[0]) is list
    norms = trace.norms.tolist()
    rows = [{"n": n, "x_n": trace.x_sequence[n], "gap_vector": trace.gaps[n], "gap_norm": norms[n],
             "cumulative_bound": 0.5 ** n * norms[0]} for n in range(len(norms))]
    want = {"schema_version": SCHEMA_VERSION, "h": 0.5, "K": 1.0, "stop_reason": trace.stop_reason, "rows": rows}
    assert emit_trace(trace, "json", h=0.5) == json.dumps(cli._plain(want), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_repeated_runs_are_byte_identical(tmp_path):
    path = _write(tmp_path, "a.json", fixture_doc("instance_a"))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["verify", "--instance", str(path), "--seed", "5", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    traces = []
    for name in ("t1.csv", "t2.csv"):
        out = tmp_path / name
        assert main(["solve", "--instance", str(path), "--out", str(out)]) == 0
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]


# ---------------------------------------------------------------------------
# Pair sets and the digest script
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("samples", [10_200, 10_201])
def test_condition_pairs_sample_only_a_grid_larger_than_samples(samples):
    # instance A's 101-point grid has 10,201 pairs
    inst = parse_instance(json.dumps(fixture_doc("instance_a")), {"samples": str(samples)})
    pairs = _condition_pairs(inst)
    if samples < 101 ** 2:
        assert len(pairs) == samples and len(pairs.points) == 2 * samples
    else:
        assert len(pairs) == 101 ** 2 and np.array_equal(pairs.points, inst.space.carrier.grid_points())


@pytest.mark.parametrize("command", ["verify", "fit"])
def test_a_box_larger_than_samples_is_sampled_without_building_its_grid(tmp_path, monkeypatch, command):
    # 11 ** 6 grid points: building them only to count the pairs took 0.2 s
    # and 160 MB, and at 8 coordinates would take about 14 GB
    def no_grid(self):
        raise AssertionError("grid built")
    monkeypatch.setattr(BoxCarrier, "grid_points", no_grid)
    doc = {**BOX, "contraction": {"class": "TB", "a": 0.5}, "run": {"samples": 1000}}
    doc["space"] = {**BOX["space"], "carrier": {"kind": "box", "lows": [0.0] * 6, "highs": [1.0] * 6}}
    inst = parse_instance(json.dumps(doc))
    assert len(_condition_pairs(inst)) == 1000
    out = tmp_path / "report.json"
    assert main([command, "--instance", str(_write(tmp_path, "box6.json", doc)), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "pass"


def test_condition_pairs_of_a_finite_file_are_all_pairs():
    inst = parse_instance(json.dumps(fixture_doc("instance_d")))
    pairs = _condition_pairs(inst)
    pts = inst.space.carrier.points
    assert len(pairs) == len(pts) ** 2
    assert pairs.witnesses(inst.space, np.array([1, len(pts)])) == [(pts[0], pts[1]), (pts[1], pts[0])]


def _script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rate_study_runs(capsys):
    assert _script("rate_study").main(["--count", "3"]) == 0
    assert "offenders vs delta: 0" in capsys.readouterr().out


def test_artifact_digest_runs_on_a_fixture(capsys):
    digest = _script("artifact_digest")
    path = str(Path(__file__).resolve().parent.parent / "fixtures" / "instance_d.json")
    assert digest.main([path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(digest.COMMANDS) + 2       # the commands, the api line, the scan line
    assert all(line.startswith(f"{path} [") for line in lines)
    api = lines[-2]
    assert " [oracle] exit=1 " in lines[digest.COMMANDS.index(("oracle", ()))]
    # instance D is not TB(0.5): the condition hash covers its violations
    pairs_checked, violations = digest._api_condition(load_instance(path))
    assert pairs_checked == 100 and violations
    condition = digest._sha(repr((pairs_checked, violations)).encode())
    assert f" condition={condition} " in api
    # the axioms hash covers every axiom violation, witness and residual
    axioms = digest._api_axioms(load_instance(path))
    assert [len(a) for a in axioms] == [3, 3]
    assert f" axioms={digest._sha(repr(axioms).encode())} " in api
    # the oracle hash covers every violating pair of the exhaustive check
    # and every witness of the tightest-constant fit
    report, tight = digest._api_oracle(load_instance(path))
    assert report.violating_pairs and report.pairs_checked == 100 and tight.kind == "TB"
    assert api.endswith(f" oracle={digest._sha(repr((report, tight)).encode())}")
    # the terms hash covers the bytes, dtype and shape of each of the six
    # pair-term columns the oracle reads off the table
    terms = digest._api_terms(load_instance(path))
    assert [(name, shape) for name, _, shape, _ in terms] == [
        ("lhs", (10, 10, 2)), ("d_tx_ty", (10, 10, 2)), ("d_tx_tsx", (10, 1, 2)),
        ("d_ty_tsy", (1, 10, 2)), ("d_tx_tsy", (10, 10, 2)), ("d_ty_tsx", (10, 10, 2))]
    assert all(dtype == "<f8" for _, dtype, _, _ in terms)
    assert f" terms={digest._sha(repr(terms).encode())} " in api
    # the scan line hashes the five masks of the table scan at slack 0 and at the cone's slack
    inst = load_instance(path)
    masks = [(axiom, slack, mask) for slack in (0.0, inst.space.cone.slack)
             for axiom, mask in cone_space.metric_table_failures(inst.space.metric.table, inst.space.cone,
                                                                 slack).items()]
    assert len(masks) == 10
    assert lines[-1] == f"{path} [scan] " + " ".join(f"{a}@{s!r}={digest._sha(m.tobytes())}" for a, s, m in masks)


def test_artifact_digest_scans_a_refused_table(tmp_path):
    # FiniteInstance refuses the table at its first failure; the scan line
    # still fingerprints every failing triple, and a file without a table
    # has no scan line
    digest = _script("artifact_digest")
    doc = fixture_doc("instance_d")
    table = np.array(doc["space"]["metric"]["table"])
    table[0, 4] = table[4, 0] = 4.0 * table[0, 4] + 8.0 * table[0, 1]
    table[1, 2] = table[2, 1] = 16.0 * table[1, 2]
    doc["space"]["metric"]["table"] = table.tolist()
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InstanceValidationError, match="d3 at triple"):
        load_instance(path)
    cone = ConeSpec.orthant(2, slack=0.0)
    triangle = cone_space.metric_table_failures(table, cone, 0.0)["d3-triangle"]
    assert np.count_nonzero(triangle) > 2
    assert digest.scan_digest(str(path)).split()[6] == f"d3-triangle@0.0={digest._sha(triangle.tobytes())}"
    assert digest.scan_digest(str(Path(__file__).resolve().parent.parent / "fixtures" / "instance_a.json")) is None


def test_artifact_digest_records_a_raising_command_and_goes_on(monkeypatch, capsys):
    # a command that raises is that line's result; the next file is still hashed
    digest = _script("artifact_digest")
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    first, second = str(fixtures / "instance_a.json"), str(fixtures / "instance_d.json")
    real, message = cli.main, "could not convert string to float: 'p3'"

    def failing(argv):
        if first in argv and argv[0] == "solve":
            raise ValueError(message)
        return real(argv)

    monkeypatch.setattr(cli, "main", failing)
    assert digest.main([first, second]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * (len(digest.COMMANDS) + 1) + 1      # instance D's table has a scan line
    raised = f"ValueError:{digest._sha(message.encode())}"
    solves = [i for i, (command, _) in enumerate(digest.COMMANDS) if command == "solve"]
    assert [f" exit={raised} " in lines[i] for i in solves] == [True] * len(solves)
    assert sum(" exit=ValueError:" in line for line in lines) == len(solves)
    assert all(line.startswith(f"{second} [") for line in lines[len(digest.COMMANDS) + 1:])
    assert " [oracle] exit=1 " in lines[len(digest.COMMANDS) + 1 + digest.COMMANDS.index(("oracle", ()))]


def test_verify_scans_a_tabulated_table_once(monkeypatch, tmp_path):
    # the file's FiniteInstance scans the table when it loads; verify's
    # metric report follows from that scan
    scans = []
    for module in (cone_space, oracle):
        scan = module.table_triangle_failures
        monkeypatch.setattr(module, "table_triangle_failures", lambda *a, scan=scan: scans.append(a) or scan(*a))
    path = _write(tmp_path, "d.json", fixture_doc("instance_d"))
    out = tmp_path / "verify.json"
    main(["verify", "--instance", str(path), "--out", str(out)])
    assert len(scans) == 1
    inst = load_instance(path)
    full = verify_metric_axioms(inst.space, count=inst.run.samples, seed=inst.run.seed)
    assert json.loads(out.read_text())["metric_axioms"] == json.loads(json.dumps(cli._axiom_report_dict(full)))


def test_oracle_lists_no_reduced_form_violations_where_tz_fails(tmp_path):
    # TZ(0.1, 0.1, 0.1) fails on instance D: its violating pairs are the
    # condition's, and the reduction, not applicable, lists none
    doc = fixture_doc("instance_d")
    doc["contraction"] = {"class": "TZ", "a": 0.1, "b": 0.1, "c": 0.1}
    out = tmp_path / "oracle.json"
    assert main(["oracle", "--instance", str(_write(tmp_path, "d.json", doc)), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["condition"]["violating_pairs"][:2] == [[0, 2], [0, 3]]
    assert report["reduction"] == {**report["reduction"], "applicable": False, "holds": False,
                                   "primary_violations": [], "dual_violations": []}


def test_verify_decides_a_direction_metric_by_its_form(tmp_path):
    # d = |x - y| u with u = (0.75, 1) inside the cone: on 10,000 sampled
    # triples the float residual of d3 read (-1.1e-16, 0) and the like as
    # 390 failures; the metric's form decides d1-d3 with nothing sampled
    doc = {
        "schema_version": "1",
        "cone": {"family": "polyhedral", "dimension": 2, "matrix": [[1.0, -0.5], [-0.25, 1.0]], "norm": "max"},
        "space": {"carrier": {"kind": "interval", "lo": 0.0, "hi": 1.0, "grid": 41},
                  "metric": {"kind": "direction", "direction": [0.75, 1.0], "scalar": "absdiff"}},
        "maps": {"T": {"family": "power", "exponent": 1.5}, "S": {"family": "affine", "alpha": 0.125, "beta": 0.0}},
        "run": {"seed": 2525, "x0": 1.0, "epsilon": 1e-12},
        "contraction": {"class": "TB", "a": 0.5},
    }
    path, out = _write(tmp_path, "power.json", doc), tmp_path / "verify.json"
    assert main(["verify", "--instance", str(path), "--out", str(out)]) == 0
    metric = json.loads(out.read_text())["metric_axioms"]
    assert metric == {"passed": True, "axioms_checked": ["d1", "d2", "d3"], "sample_count": 0, "violations": [],
                      "violation_count": 0}
    inst = load_instance(path)
    report = verify_metric_axioms(inst.space, count=inst.run.samples, seed=inst.run.seed)
    assert report.rule == "direction" and report.passed
