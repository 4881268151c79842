import copy
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conefix.cli import (
    InstanceValidationError, _condition_pairs, emit_trace, load_instance, main, parse_instance,
)
from conefix.cone_space import ConfigError, FinitePointsCarrier, IntervalCarrier
from conefix.contractions import CLASS_KINDS, AffineMap
from conefix.instances import instance_a
from conefix.solver import StoppingRule, picard_iterate

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
    pytest.param("instance_a", ("cone", "interior_margin"), "1e400", f"cone: {INF}", id="interior_margin"),
    pytest.param("instance_a", ("cone", "slack"), "1e400", f"cone: {INF}", id="slack"),
    pytest.param("instance_a", ("space", "carrier"),
                 {"kind": "box", "lows": ["-1e400", 0.0], "highs": [1.0, 1.0]}, BOX_INF, id="lows"),
    pytest.param("instance_a", ("space", "carrier"),
                 {"kind": "box", "lows": [0.0, 0.0], "highs": [1.0, "1e400"]}, BOX_INF, id="highs"),
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
    (("maps", "declared"), {"t_continuous": "false"}, "maps.declared: t_continuous must be true or false"),
    (("maps", "declared"), {"s_continuous": 1}, "maps.declared: s_continuous must be true or false"),
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
    (("cone", "interior_margin"), "1e-9", 'cone: expected a number, got "1e-9"'),
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


def test_integral_numbers_still_load():
    doc = fixture_doc("instance_a")
    doc["run"].update({"samples": 500.0, "seed": 3.0})
    doc["maps"]["declared"] = {"t_continuous": False, "t_injective": True}
    inst = parse_instance(json.dumps(doc))
    assert (inst.run.samples, inst.run.seed) == (500, 3)
    assert not inst.maps.declared.t_continuous and inst.maps.declared.t_injective


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


@pytest.mark.parametrize("image", [-1, 10, 1.7])
def test_tabulated_map_rejects_bad_image_index(image):
    doc = fixture_doc("instance_d")
    assert len(doc["space"]["carrier"]["points"]) == 10
    doc["maps"]["S"]["images"][0] = image
    with pytest.raises(InstanceValidationError) as exc:
        parse_instance(json.dumps(doc))
    assert exc.value.errors == ["maps.S: images must be valid point indices"]


def test_parse_finite_instance_builds_oracle_tables():
    inst = parse_instance(json.dumps(fixture_doc("instance_d")))
    assert inst.finite is not None
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
ABSENT = (("cone", "interior_margin"), ("cone", "slack"), ("maps", "declared"),
          ("run", "max_iter"), ("run", "rate_h"), ("run", "normal_k"))
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


def test_missing_file_is_usage_error(tmp_path):
    assert main(["verify", "--instance", str(tmp_path / "nope.json")]) == 2


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
    trace.t_image_gaps = []
    with pytest.raises(ConfigError):
        emit_trace(trace, "csv", None)


def test_trace_json_round_trip_is_exact(tmp_path):
    space, maps = instance_a()
    trace = picard_iterate(space, maps, 0.7, StoppingRule(max_iter=25))
    text = emit_trace(trace, "json", None, h=0.5, K=1.0)
    parsed = json.loads(text)
    assert [r["gap_norm"] for r in parsed["rows"]] == trace.gap_norms[: len(parsed["rows"])]
    assert [r["x_n"] for r in parsed["rows"]] == trace.x_sequence[: len(parsed["rows"])]


def test_trace_csv_17_digit_round_trip():
    space, maps = instance_a()
    trace = picard_iterate(space, maps, 0.7, StoppingRule(max_iter=25))
    text = emit_trace(trace, "csv", None, h=0.5, K=1.0)
    for line, expected in zip(text.strip().splitlines()[1:], trace.gap_norms):
        assert float(line.split(",")[3]) == expected


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


def test_condition_pairs_of_a_finite_file_are_all_pairs():
    inst = parse_instance(json.dumps(fixture_doc("instance_d")))
    pairs = _condition_pairs(inst)
    pts = inst.space.carrier.points
    assert len(pairs) == len(pts) ** 2
    assert pairs.witnesses(inst.space, np.array([1, len(pts)])) == [(pts[0], pts[1]), (pts[1], pts[0])]


def test_artifact_digest_runs_on_a_fixture(capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digest.py"
    spec = importlib.util.spec_from_file_location("artifact_digest", script)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    path = str(Path(__file__).resolve().parent.parent / "fixtures" / "instance_d.json")
    assert digest.main([path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(digest.COMMANDS) + 1
    assert all(line.startswith(f"{path} [") for line in lines)
    assert " [oracle] exit=1 " in lines[digest.COMMANDS.index(("oracle", ()))]
    # instance D is not TB(0.5): the condition hash covers its violations
    pairs_checked, violations = digest._api_condition(load_instance(path))
    assert pairs_checked == 100 and violations
    condition = digest._sha(repr((pairs_checked, violations)).encode())
    assert lines[-1].endswith(f" condition={condition}")
