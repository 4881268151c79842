"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench

Each workload runs once untraced and once traced at smoke size, in a
subprocess, exactly as the benchmark command runs it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Wrappers that must fire in the workload built to stress their layer.
STRESSED = {
    "sampled_check": (
        "cone_space.verify_cone_axioms.calls", "cone_space.verify_metric_axioms.calls",
        "cone_space.ConeMetricSpace.d.calls", "cone_space.ConeSpec.contains_relaxed.calls",
        "contractions.check_condition.calls", "contractions.fit_constants.calls",
        "contractions.grid_pairs.calls", "contractions.map_calls", "contractions.pairs_checked",
        "cli.parse_instance.calls", "cli.run.calls",
    ),
    "exhaustive_oracle": (
        "oracle.exhaustive_condition_check.calls", "oracle.tightest_constants.calls",
        "oracle.cross_validate.calls", "oracle.FiniteInstance.calls", "oracle.pairs_checked",
        "cli.parse_instance.calls", "cli.run.calls",
    ),
    "picard_solve": (
        "solver.picard_iterate.calls", "solver.iterations", "solver.geometric_decay_check.calls",
        "solver.uniqueness_probe.calls", "solver.diagnose_T.calls", "cli.emit_trace.calls",
        "cli.trace_rows", "checker.known_defect_ops",
    ),
}

# Layers a workload must leave alone (the acceptance criteria of the harness).
SAMPLED_ENGINE = ("contractions.check_condition.calls",
                  "contractions.verify_zamfirescu_reduction.calls",
                  "contractions.fit_constants.calls")
ORACLE_SCANS = ("oracle.exhaustive_condition_check.calls",
                "oracle.exhaustive_reduction_check.calls")
SOLVER = ("solver.picard_iterate.calls", "solver.geometric_decay_check.calls",
          "solver.uniqueness_probe.calls", "solver.certify_fixed_point.calls",
          "solver.diagnose_T.calls")
IDLE = {
    "sampled_check": ORACLE_SCANS + SOLVER,
    "exhaustive_oracle": SAMPLED_ENGINE + SOLVER,
    "picard_solve": SAMPLED_ENGINE + ORACLE_SCANS,
}


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def _smoke(workload: str, trace: int) -> dict:
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return {w: _smoke(w, 0) for w in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: _smoke(w, 1) for w in workloads.WORKLOADS}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_finishes_correct(untraced, workload):
    result = untraced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_metric_names_and_units_match_benchmark_json(untraced, traced, workload):
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in untraced[workload]["metrics"].items()} == e2e
    assert {k: v["unit"] for k, v in traced[workload]["metrics"].items()} == layer
    assert all(v["value"] > 0 for v in untraced[workload]["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stressed_layer_wrappers_fire(traced, workload):
    metrics = traced[workload]["metrics"]
    assert {name: metrics[name]["value"] > 0 for name in STRESSED[workload]} == {
        name: True for name in STRESSED[workload]}
    assert metrics["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_idle_layers_stay_idle(traced, workload):
    metrics = traced[workload]["metrics"]
    assert {name: metrics[name]["value"] for name in IDLE[workload]} == {
        name: 0 for name in IDLE[workload]}


def test_same_seed_same_inputs_other_seed_other_inputs():
    def docs(seed):
        return [i.doc for i in workloads.picard_solve(ROOT, seed, True).instances]

    assert docs(4) == docs(4)
    assert docs(4) != docs(5)


def test_finite_files_are_shared_between_engines():
    verify_side = {i.name: i.doc for i in workloads.sampled_check(ROOT, 8, False).instances}
    oracle_side = {i.name: i.doc for i in workloads.exhaustive_oracle(ROOT, 8, False).instances}
    shared = set(verify_side) & set(oracle_side)
    assert any(name.startswith("fin080") for name in shared)
    assert all(verify_side[n] == oracle_side[n] for n in shared)


def test_reference_verdict_on_committed_fixture():
    # instance D: S(k) = k // 2 is not a TB(1/2) contraction (the ratio sup is 1)
    expect = gen.fixture(ROOT, "instance_d").expect
    assert expect["fixed_points"] == [0]
    assert not expect["holds"] and expect["violation_count"] > 0


def test_checker_flags_wrong_verdicts():
    inst = gen.fixture(ROOT, "instance_d")
    e = inst.expect
    report = {"condition": {"holds": e["holds"], "violation_count": e["violation_count"]},
              "fixed_points": e["fixed_points"]}
    op = workloads.Op("oracle", inst)
    assert workloads.check(op, workloads.Outcome(0.0, code=1, report=report)) == []
    wrong = {"condition": {"holds": True, "violation_count": 0}, "fixed_points": [0, 1]}
    assert workloads.check(op, workloads.Outcome(0.0, code=1, report=wrong)) == [
        "engine_vs_reference", "fixed_points"]
    assert workloads.check(op, workloads.Outcome(0.0, code=2)) == ["exit_2_on_valid_file"]
    assert workloads.check(op, workloads.Outcome(0.0, error="MemoryError")) == ["raised_MemoryError"]
    solve = workloads.Op("solve", inst)
    uncertified = {"stop_reason": "converged", "fixed_point": None}
    assert workloads.check(solve, workloads.Outcome(0.0, code=1, report=uncertified)) == [
        "stop_vs_certificate"]
    fit = workloads.Op("fit", inst)
    assert workloads.check(fit, workloads.Outcome(0.0, code=0, report={"feasible": False})) == [
        "fit_exit_vs_feasible"]


def test_failures_count_ops_of_the_list_not_runs():
    import run

    insts = workloads.picard_solve(ROOT, 3, True).instances
    b_type = next(i for i in insts if i.family == "b_type")
    a_type = next(i for i in insts if i.family == "a_type")
    uncertified = workloads.Outcome(0.0, code=1,
                                    report={"stop_reason": "converged", "fixed_point": None})
    certified = workloads.Outcome(0.0, code=1,
                                  report={"stop_reason": "converged", "fixed_point": 0.0})
    tally = run.Tally([workloads.Op("solve", b_type), workloads.Op("solve", a_type)])
    for _ in range(3):                      # three passes: the counts stay per op
        tally.record(0, uncertified, traced=False)
        tally.record(1, certified, traced=False)
    assert tally.counts() == {"attempted": 2, "failed": 1, "unexpected": 0, "known": 1,
                              "rules": {"stop_vs_certificate": 1}}
    # the known defect fails its op; the same breach outside its known case
    # also makes the run incorrect
    tally.record(1, uncertified, traced=False)
    assert tally.counts() == {"attempted": 2, "failed": 2, "unexpected": 1, "known": 1,
                              "rules": {"stop_vs_certificate": 2}}


def test_known_defect_count_does_not_depend_on_the_seed():
    def known_ops(seed):
        wl = workloads.picard_solve(ROOT, seed, False)
        return sorted((op.kind, op.inst.family) for op in wl.ops
                      if op.inst.family == "b_type" and op.kind == "solve"
                      or op.inst.expect.get("longest_cycle", 0) > gen.STALL_WINDOW)

    assert known_ops(1) == known_ops(2) == known_ops(7)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sampled_check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


def test_refuses_a_thread_pool():
    env = dict(os.environ, CONEFIX_THREADS="4")
    proc = _bench("--workload", "picard_solve", "--seed", "1", "--seconds", "1", env=env)
    assert proc.returncode != 0 and proc.stdout == ""
