import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conefix import cli, cone_space, oracle
from conefix.cone_space import (
    AxiomViolation, BoxCarrier, ConeMetricSpace, ConeSpec, ConfigError, DirectionMetric, DomainError,
    FinitePointsCarrier, FunctionMetric, IntervalCarrier, TabulatedMetric, all_last,
    estimate_normal_constant, metric_table_failures, verify_cone_axioms, verify_metric_axioms,
)
from conefix.contractions import ClassSpec, IdentityMap, MapPair, PairSet, check_condition, pair_columns
from conefix.oracle import FiniteInstance, finite_from_values

from conftest import fixture_doc, tabulated_instance

dyadic = st.integers(-256, 256).map(lambda k: k / 64.0)
dyadic_vec = st.tuples(dyadic, dyadic).map(np.asarray)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def test_orthant_membership_boundary_point():
    cone = ConeSpec.orthant(2)
    assert cone.contains([1.0, 0.0], "closed")
    assert not cone.contains([1.0, 0.0], "interior")
    assert not cone.contains([-1.0, 2.0], "closed")


def test_membership_dimension_mismatch():
    cone = ConeSpec.orthant(2)
    with pytest.raises(ConfigError):
        cone.contains([1.0, 2.0, 3.0])


def test_cone_norm_is_the_one_row_norm_bit_for_bit():
    rng = np.random.default_rng(0)
    for norm_kind in ("euclidean", "max"):
        for dim in range(2, 9):
            cone = ConeSpec.orthant(dim, norm_kind=norm_kind)
            vs = rng.standard_normal((200, dim))
            assert [cone.norm(v) for v in vs] == cone.norm_rows(vs).tolist()


def test_booleans_are_not_interval_points():
    assert not IntervalCarrier(0.0, 1.0).contains(True)
    assert IntervalCarrier(0.0, 1.0).contains(1)
    # nor points of a finite carrier, where a dict would find True under 1
    assert FinitePointsCarrier([0, 1]).contains(1)
    assert not FinitePointsCarrier([0, 1]).contains(True)
    assert not FinitePointsCarrier([0, 1]).contains(np.True_)
    assert FinitePointsCarrier([0, 1]).to_array([1, False]).tolist() == [1, -1]


def test_membership_rejects_non_finite():
    cone = ConeSpec.orthant(2)
    with pytest.raises(ConfigError):
        cone.contains([np.nan, 0.0])


@settings(max_examples=100)
@given(v=dyadic_vec)
def test_interior_implies_closed(v):
    for cone in (ConeSpec.orthant(2), ConeSpec.polyhedral([[0.0, 1.0], [2.0, 1.0]])):
        if cone.contains(v, "interior"):
            assert cone.contains(v, "closed")


# Integer cones in R^1..R^3 with up to 5 rows, zero rows often, and an
# integer direction: every dot product is exact in integers.
int_cone_and_direction = st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.lists(st.one_of(st.just([0] * m), st.lists(st.integers(-3, 3), min_size=m, max_size=m)),
             max_size=5),
    st.lists(st.integers(-4, 4), min_size=m, max_size=m)))


@settings(max_examples=300, deadline=None)
@given(case=int_cone_and_direction)
def test_interior_is_exact_and_agrees_with_p1(case):
    rows, u = case
    cone = ConeSpec.polyhedral(np.array(rows, dtype=float).reshape(-1, len(u)))
    live = [row for row in rows if any(row)]
    expected = any(u) and all(sum(a * x for a, x in zip(row, u)) > 0 for row in live)
    assert cone.contains(u, "interior") == expected
    assert cone.contains(u, "closed") == all(sum(a * x for a, x in zip(row, u)) >= 0 for row in rows)
    if expected:
        assert "P1-interior-nonempty" not in {v.axiom for v in verify_cone_axioms(cone).violations}


def test_interior_test_needs_no_margin():
    # a direction barely inside a wedge is interior; the wedge's edge is not
    cone = ConeSpec.polyhedral([[1.0, -1.0], [0.0, 1.0]])
    assert cone.contains([1.0 + 2.0 ** -52, 1.0], "interior")
    assert not cone.contains([1.0, 1.0], "interior")
    assert cone.contains([1.0, 1.0], "closed")


# ---------------------------------------------------------------------------
# Cone axioms
# ---------------------------------------------------------------------------

def test_orthant_axioms_pass():
    report = verify_cone_axioms(ConeSpec.orthant(2))
    assert report.passed
    assert report.axioms_checked == ["P1", "P2", "P3"]
    assert report.sample_count == 0


def test_half_plane_fails_pointedness():
    cone = ConeSpec.polyhedral([[1.0, 0.0]])
    report = verify_cone_axioms(cone)
    assert [(v.axiom, v.witness[0].tolist(), v.residual.tolist()) for v in report.violations] == [
        ("P3-pointed", [0.0, 1.0], [0.0])]


@pytest.mark.parametrize("cone", [
    ConeSpec.orthant(2),
    ConeSpec.orthant(3, norm_kind="euclidean"),
    ConeSpec.polyhedral([[1.0, -0.5], [-0.25, 1.0]]),
    ConeSpec.polyhedral([[1.0, -100.0], [-1.0, 101.0]]),       # a wedge too thin to sample
], ids=["orthant", "orthant-3d", "wide-wedge", "thin-wedge"])
def test_pointed_cones_with_interior_pass(cone):
    report = verify_cone_axioms(cone)
    assert report.passed and report.sample_count == 0


@pytest.mark.parametrize("cone", [
    ConeSpec.scaled_orthant([1.0, 0.0]),
    ConeSpec.polyhedral([[1.0, 1.0], [-1.0, -1.0]]),
], ids=["collapsed-scaled-orthant", "line"])
def test_flat_cones_have_empty_interior(cone):
    report = verify_cone_axioms(cone)
    assert any(v.axiom == "P1-interior-nonempty" for v in report.violations)


def test_cone_without_inequalities_is_the_whole_space():
    report = verify_cone_axioms(ConeSpec.polyhedral(np.zeros((0, 2))))
    assert [(v.axiom, v.witness[0].tolist()) for v in report.violations] == [
        ("P3-pointed", [1.0, 0.0]), ("P3-pointed", [0.0, 1.0])]


# Each cone with the violations its matrix decides, as (axiom, witness):
# the zero-weight scaled orthant has rows v2 >= 0 and -v2 >= 0 (rank 2, flat),
# and x + y >= 0 in R^3 has the nullspace basis (-1, 1, 0), (0, 0, 1).  A
# zero row constrains nothing, and a P3 residual still lists it.
EXACT_REPORTS = {
    "orthant": (ConeSpec.orthant(2), []),
    "orthant-3d-euclidean": (ConeSpec.orthant(3, norm_kind="euclidean"), []),
    "scaled-orthant-zero-weight": (ConeSpec.scaled_orthant([2.0, 0.0]), [("P1-interior-nonempty", [])]),
    "wide-wedge": (ConeSpec.polyhedral([[1.0, -0.5], [-0.25, 1.0]]), []),
    "thin-wedge": (ConeSpec.polyhedral([[1.0, -100.0], [-1.0, 101.0]]), []),
    "half-plane": (ConeSpec.polyhedral([[1.0, 0.0]]), [("P3-pointed", [[0.0, 1.0]])]),
    "half-plane-euclidean": (ConeSpec.polyhedral([[1.0, 0.0]], norm_kind="euclidean"),
                             [("P3-pointed", [[0.0, 1.0]])]),
    "half-space-3d": (ConeSpec.polyhedral([[1.0, 1.0, 0.0]]),
                      [("P3-pointed", [[-1.0, 1.0, 0.0]]), ("P3-pointed", [[0.0, 0.0, 1.0]])]),
    "orthant-zero-row": (ConeSpec.polyhedral([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), []),
    "half-plane-zero-row": (ConeSpec.polyhedral([[1.0, 0.0], [0.0, 0.0]]), [("P3-pointed", [[0.0, 1.0]])]),
}


def _report_form(report):
    return (report.axioms_checked, report.sample_count,
            [(v.axiom, [np.asarray(w).tolist() for w in v.witness],
              None if v.residual is None else np.asarray(v.residual).tolist()) for v in report.violations])


@pytest.mark.parametrize("name", sorted(EXACT_REPORTS))
@pytest.mark.parametrize("slack", [0.0, 1e-12, 0.25, 0.5])
def test_cone_report_is_exact_whatever_the_slack(name, slack):
    # the relative slack of order tests plays no part: every slack gives the
    # report the matrix decides, with residual A v = 0 on every P3 witness
    cone, expected = EXACT_REPORTS[name]
    report = verify_cone_axioms(dataclasses.replace(cone, slack=slack))
    assert _report_form(report) == _report_form(verify_cone_axioms(cone))
    assert _report_form(report) == (
        ["P1", "P2", "P3"], 0,
        [(axiom, witness, [0.0] * cone.ineq_matrix.shape[0] if witness else None)
         for axiom, witness in expected])


small_matrix = st.integers(1, 3).flatmap(lambda m: st.lists(
    st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(rows=small_matrix)
def test_cone_axioms_match_rank_and_lp_references(rows):
    # P3 against numpy's rank; the interior against scipy's LP for
    # max t s.t. A v >= t, -1 <= v <= 1, 0 <= t <= 1 over the nonzero rows A
    # (t > 0 iff Int P is nonempty; a zero row constrains nothing)
    linprog = pytest.importorskip("scipy.optimize").linprog
    a = np.array(rows, dtype=float)
    m = a.shape[1]
    live = a[np.any(a != 0.0, axis=1)]
    r = len(live)
    report = verify_cone_axioms(ConeSpec.polyhedral(a))
    found = {v.axiom for v in report.violations}
    witnesses = [v.witness[0] for v in report.violations if v.axiom == "P3-pointed"]
    assert len(witnesses) == m - np.linalg.matrix_rank(a)
    for v in witnesses:
        assert np.any(v != 0.0) and np.all(a @ v == 0.0)
    lp = linprog(np.r_[np.zeros(m), -1.0], A_ub=np.c_[-live, np.ones(r)], b_ub=np.zeros(r),
                 bounds=[(-1.0, 1.0)] * m + [(0.0, 1.0)], method="highs")
    assert lp.success
    assert ("P1-interior-nonempty" not in found) == (lp.x[-1] > 1e-9)
    assert found <= {"P1-interior-nonempty", "P3-pointed"}


# Cones for the P1 witness: integer or dyadic matrices with r <= 5 rows and
# m <= 4 columns, with zero rows and rows followed by their opposites, and
# scaled orthants whose zero weights collapse coordinates.
_p1_entry = st.one_of(st.integers(-3, 3), st.integers(-256, 256).map(lambda k: k / 64))
_p1_matrix = st.integers(1, 4).flatmap(lambda m: st.lists(st.tuples(
    st.one_of(st.just([0] * m), st.lists(_p1_entry, min_size=m, max_size=m)), st.booleans()), max_size=5).map(
    lambda drawn: np.array([r for row, opposite in drawn for r in ([row, [-x for x in row]] if opposite else [row])],
                           dtype=float).reshape(-1, m)[:5]))
_p1_cones = st.one_of(
    _p1_matrix.map(ConeSpec.polyhedral),
    st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=1, max_size=4).map(ConeSpec.scaled_orthant),
)


@settings(max_examples=500, deadline=None)
@given(cone=_p1_cones)
@example(cone=ConeSpec.polyhedral([[1.0, 0.0], [-1.0, 1e-3]]))    # a thin wedge: the witness fails, the simplex decides
@example(cone=ConeSpec.polyhedral([[1.0, 1.0], [-1.0, -1.0]]))   # opposite rows: flat
@example(cone=ConeSpec.polyhedral(np.zeros((2, 3))))              # zero rows only: the whole space
@example(cone=ConeSpec.scaled_orthant([2.0, 0.0]))
def test_p1_verdict_equals_the_simplex(cone):
    # the float witness only ever proves an interior; where it does not,
    # the simplex decides, so the verdict is the simplex's on every cone
    # (run with --hypothesis-show-statistics for how many draws it decided)
    expected = cone_space._has_interior(cone.exact_rows, cone.dimension)
    decided = cone.contains(cone_space._interior_witness(cone), "interior")
    event(f"P1 decided by the witness: {decided}")
    assert expected or not decided
    found = {v.axiom for v in verify_cone_axioms(cone).violations}
    assert ("P1-interior-nonempty" not in found) == expected == cone.has_interior


def _rejection_sample(cone, rng, size):
    """The rejection loop ``ConeSpec.sample`` runs on a polyhedral cone,
    as it ran on every one before P1 gated it: the reference for a solid
    cone's draws."""
    budget, got = 0, []
    while sum(len(g) for g in got) < size and budget < 200:
        cand = rng.standard_normal((max(size, 256), cone.dimension))
        got.append(cand[np.all(cand @ cone.ineq_matrix.T >= 0.0, axis=1)])
        budget += 1
    pts = np.concatenate(got)[:size] if got else np.zeros((0, cone.dimension))
    return pts * np.exp(rng.normal(0.0, 1.0, size=len(pts)))[:, None] if len(pts) else pts


@settings(max_examples=200, deadline=None)
@given(cone=_p1_cones, seed=st.integers(0, 2 ** 16), size=st.integers(0, 300))
@example(cone=ConeSpec.polyhedral([[1, 0], [-1, 0], [0, 1], [0, -1]]), seed=0, size=100)     # the zero cone
@example(cone=ConeSpec.polyhedral([[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0]]), seed=1, size=5)   # a ray
@example(cone=ConeSpec.scaled_orthant([2.0, 0.0]), seed=2, size=50)
@example(cone=ConeSpec.polyhedral([[1.0, 0.0], [-1.0, 1e-3]]), seed=3, size=300)          # a thin wedge
def test_a_cone_sample_draws_only_where_the_interior_is_nonempty(cone, seed, size):
    # a solid polyhedral cone draws the bits of the rejection loop; one
    # without interior returns no row and draws nothing, since a normal draw
    # lands on it with probability 0; a scaled orthant samples its face
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    pts = cone.sample(rng, size)
    if cone.family == cone_space.SCALED_ORTHANT:
        assert pts.shape == (size, cone.dimension) and (pts[:, cone.weights == 0.0] == 0.0).all()
        assert all(cone.contains(p) for p in pts)
        return
    want = _rejection_sample(cone, ref, size) if cone.has_interior else np.zeros((0, cone.dimension))
    assert pts.shape == want.shape and pts.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_cone_check_runs_exactly_on_awkward_entries():
    # a wedge whose rows are not dyadic: exact arithmetic on their float
    # values, and a witness that clears the thirds
    report = verify_cone_axioms(ConeSpec.polyhedral([[0.1, 0.3, 0.0], [3.0, 1.0, 0.0]]))
    (p3,) = report.violations
    assert p3.axiom == "P3-pointed" and p3.witness[0].tolist() == [0.0, 0.0, 1.0]
    report = verify_cone_axioms(ConeSpec.polyhedral([[3.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert [v.witness[0].tolist() for v in report.violations] == [[-1.0, 3.0, 0.0]]
    # the primitive integer witness of this half-plane has an entry near
    # 2**2100; it is scaled down by a power of two to stay finite
    (p3,) = verify_cone_axioms(ConeSpec.polyhedral([[5e-324, 1.7e308]])).violations
    assert p3.axiom == "P3-pointed" and np.all(np.isfinite(p3.witness[0])) and np.any(p3.witness[0] != 0.0)


def test_verify_does_not_import_scipy(tmp_path):
    # the cone check is exact arithmetic: verify on a polyhedral cone
    # loads no LP solver
    doc = fixture_doc("instance_a")
    doc["cone"] = {"family": "polyhedral", "dimension": 2, "matrix": [[1.0, -0.5], [-0.25, 1.0]]}
    doc["space"]["metric"]["direction"] = [1.0, 1.0]
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = ("import sys\nfrom conefix.cli import main\n"
            f"status = main(['verify', '--instance', {str(path)!r}, '--out', {str(tmp_path / 'out.json')!r}])\n"
            "print(status, 'scipy' in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["0", "False"]


# ---------------------------------------------------------------------------
# Metric evaluation and axioms
# ---------------------------------------------------------------------------

def test_eval_metric_instance_a(space_a):
    space, _ = space_a
    assert np.array_equal(space.d(0.5, 0.25), [0.25, 0.5])
    assert np.array_equal(space.d(0.3, 0.3), [0.0, 0.0])
    assert np.array_equal(space.d(0.0, 1.0), space.d(1.0, 0.0))
    assert np.array_equal(space.d(0.0, 1.0), [1.0, 2.0])


def test_eval_metric_outside_carrier(space_a):
    space, _ = space_a
    with pytest.raises(DomainError, match="outside the carrier"):
        space.require_point(-0.5)
    assert space.require_point(0.25) == 0.25


def test_metric_axioms_instance_a(space_a):
    space, _ = space_a
    report = verify_metric_axioms(space, count=10_000, seed=2)
    assert report.passed


@settings(max_examples=60)
@given(x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
def test_metric_values_stay_in_cone(x, y):
    from conefix.instances import instance_a

    space, _ = instance_a()
    assert space.cone.contains(space.d(x, y), "closed")


def _broken_space(fn):
    cone = ConeSpec.orthant(2)
    return ConeMetricSpace(cone, IntervalCarrier(0.0, 1.0), FunctionMetric(fn))


def test_broken_symmetry_detected():
    space = _broken_space(lambda x, y: np.array([x - y, 2.0 * abs(x - y)]))
    report = verify_metric_axioms(space, count=500, seed=3)
    assert any(v.axiom == "d2-symmetry" for v in report.violations)
    assert np.array_equal(space.d(0.0, 1.0), [-1.0, 2.0])
    assert np.array_equal(space.d(1.0, 0.0), [1.0, 2.0])


def test_broken_positivity_detected():
    space = _broken_space(lambda x, y: np.array([abs(x - y) - 0.5, abs(x - y)]))
    report = verify_metric_axioms(space, count=500, seed=3)
    assert any(v.axiom == "d1-cone" for v in report.violations)
    assert np.array_equal(space.d(0.0, 0.2), [-0.3, 0.2])


def test_broken_triangle_detected():
    # rho(x, y) = |x - y|^2 violates the triangle inequality
    space = _broken_space(lambda x, y: np.array([(x - y) ** 2, 2.0 * (x - y) ** 2]))
    report = verify_metric_axioms(space, count=2_000, seed=4)
    assert any(v.axiom == "d3-triangle" for v in report.violations)


def test_metric_axioms_exhaustive_for_finite(fin_d):
    space = fin_d.space
    report = verify_metric_axioms(space, count=10_000, seed=5)
    assert report.passed
    assert report.sample_count == 10 * 10 + 10 ** 3


@pytest.mark.parametrize("slack", [0.0, 1e-12, 0.3])
def test_a_loaded_table_reports_what_its_scan_reports(slack, plain_corpus, tz_corpus):
    # the FiniteInstance refused every failure at slack 0, and a failure at
    # a larger slack is one at slack 0, so its report is the scan's
    for fin in [*plain_corpus, *(g.fin for g in tz_corpus[:10])]:
        cone = dataclasses.replace(fin.cone, slack=slack)
        fin = FiniteInstance(dataclasses.replace(fin.space, cone=cone), fin.maps)
        for count in (10_000, 0):
            assert fin.metric_axioms == verify_metric_axioms(fin.space, count) and fin.metric_axioms.passed


def test_verify_reads_the_load_report_without_a_second_scan(tmp_path, monkeypatch):
    # the load scans the table once; verify reports that scan
    scans, scan = [], oracle.table_triangle_failures
    monkeypatch.setattr(oracle, "table_triangle_failures", lambda *a: scans.append(a) or scan(*a))
    monkeypatch.setattr(cone_space, "metric_table_failures", lambda *a: pytest.fail("a loaded table was scanned again"))
    doc, path, out = fixture_doc("instance_d"), tmp_path / "d.json", tmp_path / "report.json"
    del doc["contraction"]      # the axioms alone decide the exit status
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", "--instance", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))["metric_axioms"]
    assert len(scans) == 1 and (report["passed"], report["sample_count"]) == (True, 10 * 10 + 10 ** 3)
    assert (report["violations"], report["violation_count"]) == ([], 0)


def test_a_loaded_table_is_not_sampled_at_any_size(monkeypatch):
    # 130^3 triples exceed the exhaustive budget of a function metric; a
    # table is scanned, and the load's scan covered every triple at slack 0
    n = 130
    values = np.arange(n) / 64.0
    labels = list(range(n))
    fin = tabulated_instance(labels, np.abs(values[:, None] - values)[:, :, None] * np.array([1.0, 2.0]),
                             labels, labels, ConeSpec.orthant(2))
    monkeypatch.setattr(FinitePointsCarrier, "sample", lambda *a: pytest.fail("a table was sampled"))
    for report in (fin.metric_axioms, verify_metric_axioms(fin.space)):
        assert report.passed and (report.rule, report.sample_count) == ("table", n * n + n ** 3)


@pytest.mark.parametrize("n", [126, 200])
def test_a_tabulated_metric_is_scanned_past_the_triple_budget(n):
    # 126^3 > 2,000,000: the line metric with d(0, 2) = d(2, 0) tripled
    # fails d3 at four triples, which sampling 10,000 triples misses
    values = np.arange(n) / 64.0
    table = np.abs(values[:, None] - values)[:, :, None] * np.array([1.0, 2.0])
    table[0, 2] = table[2, 0] = 3.0 * table[0, 2]
    space = ConeMetricSpace(ConeSpec.orthant(2), FinitePointsCarrier(list(range(n))), TabulatedMetric(table))
    report = verify_metric_axioms(space)
    assert (report.rule, report.sample_count) == ("table", n * n + n ** 3)
    assert [(v.axiom, v.witness, v.residual.tolist()) for v in report.violations] == [
        ("d3-triangle", (0, 2, 1), [-4 / 64, -8 / 64]), ("d3-triangle", (0, 2, 3), [-2 / 64, -4 / 64]),
        ("d3-triangle", (2, 0, 1), [-4 / 64, -8 / 64]), ("d3-triangle", (2, 0, 3), [-2 / 64, -4 / 64])]


def test_identity_violation_reported_once_per_point():
    def fn(x, y):
        return np.array([1.0, 2.0]) * abs(x - y) + (0.25 if x == y == 3 else 0.0)

    space = ConeMetricSpace(ConeSpec.orthant(2), FinitePointsCarrier(list(range(6))), FunctionMetric(fn))
    report = verify_metric_axioms(space, count=10_000, seed=0)
    assert [(v.axiom, v.witness) for v in report.violations] == [("d1-identity", (3,))]
    assert np.array_equal(report.violations[0].residual, [0.25, 0.25])


def test_sampled_metric_check_reads_a_tabulated_carrier():
    # 130^3 triples exceed the exhaustive budget: the default count samples
    n = 130
    values = np.arange(n) / 64.0
    table = np.abs(values[:, None] - values[None, :])[:, :, None] * np.array([1.0, 2.0])
    rng = np.random.default_rng(11)
    i, j = rng.integers(0, n, size=(2, 400))
    table[i, j] *= rng.choice([-1.0, 0.0, 3.0], size=(400, 1))
    table[5, 5] = [0.25, 0.25]
    carrier, cone = FinitePointsCarrier(list(range(n))), ConeSpec.orthant(2)
    tab = verify_metric_axioms(ConeMetricSpace(cone, carrier, TabulatedMetric(table)))
    fun = verify_metric_axioms(ConeMetricSpace(cone, carrier, FunctionMetric(lambda x, y: table[x, y])))
    assert (tab.rule, tab.sample_count) == ("table", n * n + n ** 3)
    assert (fun.rule, fun.sample_count) == ("sampled", 20_000)
    # the brute force over every pair and triple: the entries are multiples
    # of 1/64, so a value leaves the orthant exactly when a coordinate is < 0
    residual = table[:, None] + table.transpose(1, 0, 2)[None] - table[:, :, None]    # [x, y, z]
    masks = {
        "d1-cone": (table < 0.0).any(axis=2),
        "d1-separation": ~table.any(axis=2) & ~np.eye(n, dtype=bool),
        "d1-identity": table[np.arange(n), np.arange(n)].any(axis=1),
        "d2-symmetry": (table != table.transpose(1, 0, 2)).any(axis=2),
        "d3-triangle": (residual < 0.0).any(axis=3),
    }
    assert all(mask.any() for mask in masks.values())
    assert [(v.axiom, v.witness) for v in tab.violations] == [
        (axiom, tuple(w)) for axiom, mask in masks.items() for w in np.argwhere(mask).tolist()]
    assert fun.violations and all(masks[v.axiom][v.witness] for v in fun.violations)


def test_tabulated_metric_must_cover_the_carrier():
    with pytest.raises(ConfigError, match=r"got \(3, 3, 2\)"):
        ConeMetricSpace(ConeSpec.orthant(2), FinitePointsCarrier([0, 1]), TabulatedMetric(np.zeros((3, 3, 2))))


# ---------------------------------------------------------------------------
# The metric table scan
# ---------------------------------------------------------------------------

LINE = np.array([0.0, 0.125, 0.375, 0.5, 1.0])

# The three cone families, each with a dyadic direction u in the cone for
# its tables: the scaled orthant's zero weight gives it the rows e1, e2, -e2
# (the cone is a ray), and the polyhedral cone has rows that are not unit
# vectors.
CONES = {
    "orthant": (ConeSpec.orthant(2, slack=0.0), np.array([1.0, 2.0])),
    "scaled_orthant": (ConeSpec.scaled_orthant([1.0, 0.0], slack=0.0), np.array([1.0, 0.0])),
    "polyhedral": (ConeSpec.polyhedral([[1.0, -0.5], [-0.25, 1.0]], slack=0.0), np.array([1.0, 0.75])),
}


# Two rays per cone of CONES: p r1 + q r2 lies inside it for p, q > 0 (the
# scaled orthant's cone is the ray r1 alone), on its boundary when one is 0,
# outside it when one is negative.
_RAYS = {"orthant": ((1.0, 0.0), (0.0, 1.0)), "scaled_orthant": ((1.0, 0.0), (0.0, 1.0)),
         "polyhedral": ((0.5, 1.0), (1.0, 0.25))}


def _fraction_axioms_hold(cone: ConeSpec, points: list, rho, u) -> bool:
    """d1-d3 of d = rho u over every pair and triple of points, in Fractions."""
    rows = [[Fraction(a) for a in row] for row in cone.ineq_matrix.tolist()]
    u = [Fraction(c) for c in u]

    def d(x, y):
        return [rho(x, y) * c for c in u]

    def in_cone(v):
        return all(sum(a * c for a, c in zip(row, v)) >= 0 for row in rows)

    for x in points:
        for y in points:
            dxy = d(x, y)
            if not in_cone(dxy) or any(dxy) != (x != y) or dxy != d(y, x):
                return False
            if not all(in_cone([a + b - c for a, b, c in zip(d(x, z), d(z, y), dxy)]) for z in points):
                return False
    return True


def _quarters(lo: int, hi: int, count: int) -> list[Fraction]:
    return [Fraction(lo, 4) + Fraction(hi - lo, 4) * Fraction(k, count - 1) for k in range(count)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CONES)), st.integers(-2, 2), st.integers(-2, 2),
       st.sampled_from(["interval", "box", "finite"]), st.lists(st.integers(-8, 8), min_size=1, max_size=5, unique=True))
@example("orthant", 1, 1, "finite", [3])         # one point passes whatever u is
@example("orthant", 0, 0, "finite", [3])
@example("orthant", -1, 1, "finite", [3])
def test_direction_rule_equals_an_exact_check(family, p, q, kind, ends):
    # a direction metric's verdict is decided by its form; it must be the
    # verdict of d1-d3 checked in Fractions over a dyadic grid of the
    # carrier, for u inside the cone, on its boundary, outside it, and 0
    (cone, _), (r1, r2) = CONES[family], _RAYS[family]
    u = np.array([p * a + q * b for a, b in zip(r1, r2)]) / 2.0
    event("u: " + ("0" if not u.any() else "inside" if cone.contains(u, "interior")
                   else "boundary" if cone.contains(u) else "outside"))
    if kind == "finite":
        points = [k / 4 for k in ends]
        carrier, grid, rho = FinitePointsCarrier(points), [Fraction(x) for x in points], lambda x, y: abs(x - y)
        bounds = points[:2]
    else:
        lo, hi = min(ends), max(max(ends), min(ends) + 1)
        if kind == "interval":
            carrier, bounds = IntervalCarrier(lo / 4, hi / 4), [lo / 4, hi / 4]
            grid, rho = _quarters(lo, hi, 5), lambda x, y: abs(x - y)
        else:
            carrier = BoxCarrier([lo / 4, 0.0], [hi / 4, 0.5])
            bounds = [carrier.lows, carrier.highs]
            grid = list(itertools.product(_quarters(lo, hi, 3), _quarters(0, 2, 3)))
            rho = lambda x, y: max(abs(a - b) for a, b in zip(x, y))      # noqa: E731
    space = ConeMetricSpace(cone, carrier, DirectionMetric(u, "absdiff" if kind != "box" else "max"))
    report = verify_metric_axioms(space, count=50, seed=0)
    assert (report.rule, report.sample_count) == ("direction", 0)
    assert report.passed == _fraction_axioms_hold(cone, grid, rho, u)
    if not report.passed:       # one exact witness at the carrier's bounds
        axiom = "d1-cone" if u.any() else "d1-separation"
        assert report.violations == [AxiomViolation(axiom, tuple(bounds), space.d(*bounds))]


def test_direction_rule_witnesses():
    # u outside P fails d1-cone at the carrier's bounds with residual
    # d(lo, hi), u = 0 fails d1-separation there, and the cone's slack does
    # not admit a u outside P
    cone = ConeSpec.orthant(2, slack=0.5)
    line = IntervalCarrier(-1.0, 3.0)
    for u, axiom, residual in (([1.0, -0.25], "d1-cone", [4.0, -1.0]), ([0.0, -0.0], "d1-separation", [0.0, 0.0])):
        report = verify_metric_axioms(ConeMetricSpace(cone, line, DirectionMetric(u)))
        assert report.violations == [AxiomViolation(axiom, (-1.0, 3.0), np.array(residual))]
    box = BoxCarrier([0.0, 0.0], [3.0, 4.0])
    report = verify_metric_axioms(ConeMetricSpace(cone, box, DirectionMetric([-1.0, 2.0], "euclidean")))
    assert report.violations == [AxiomViolation("d1-cone", (box.lows, box.highs), np.array([-5.0, 10.0]))]
    fin = FinitePointsCarrier([2.5, 0.5, 7.0])
    report = verify_metric_axioms(ConeMetricSpace(cone, fin, DirectionMetric([-1.0, 2.0])))
    assert report.violations == [AxiomViolation("d1-cone", (2.5, 0.5), np.array([-2.0, 4.0]))]
    assert report.violations[0].witness[0] is fin.points[0]


def _line_table(corruption: str, u=np.array([1.0, 2.0])) -> np.ndarray:
    """d(i, j) = u |LINE[i] - LINE[j]|, corrupted as named."""
    table = np.abs(LINE[:, None] - LINE[None, :])[:, :, None] * u
    if corruption == "diagonal":
        table[2, 2] = [0.25, 0.0]
    elif corruption == "separation":
        table[1, 3] = table[3, 1] = 0.0
    elif corruption == "cone":
        table[0, 4] = table[4, 0] = [-0.5, 2.0]
    elif corruption == "symmetry":
        table[0, 1] = 2.0 * u
    elif corruption == "triangle":
        table[0, 4] = table[4, 0] = 4.0 * u
    elif corruption == "two triangles":     # the first failing z is 0, on pair (1, 2)
        table[0, 4] = table[4, 0] = 4.0 * u
        table[1, 2] = table[2, 1] = u
    return table


def _tree_table(rng, n: int, u: np.ndarray) -> np.ndarray:
    """u times the path metric of a random rooted tree with dyadic edge weights."""
    parent = [0] + [int(rng.integers(i)) for i in range(1, n)]
    up = [0.0] * n
    for i in range(1, n):
        up[i] = up[parent[i]] + float(rng.integers(1, 9)) / 8.0
    ancestors = []
    for i in range(n):
        chain, j = [i], i
        while j:
            j = parent[j]
            chain.append(j)
        ancestors.append(chain)
    rho = np.array([[up[i] + up[j] - 2.0 * up[next(a for a in ancestors[i] if a in ancestors[j])]
                     for j in range(n)] for i in range(n)])
    return rho[:, :, None] * u


def _corrupt(rng, table: np.ndarray, count: int) -> np.ndarray:
    """Scale ``count`` symmetric off-diagonal entries by dyadic factors, or
    shift one coordinate: triangles, and sometimes the cone, break."""
    table = table.copy()
    n = len(table)
    for _ in range(count):
        i, j = rng.choice(n, size=2, replace=False)
        if rng.random() < 0.75:
            table[i, j] *= (0.25, 0.5, 2.0, 4.0)[int(rng.integers(4))]
        else:
            table[i, j, int(rng.integers(2))] -= float(rng.integers(1, 9)) / 4.0
        table[j, i] = table[i, j]
    return table


def _brute_force_failures(table: np.ndarray, cone: ConeSpec, slack: float) -> dict:
    """The scan's masks, one cone test per pair and per triple."""
    ns = range(len(table))

    def outside(v):
        return bool(np.any(cone.ineq_matrix @ v < -slack * cone.norm(v)))

    return {
        "d1-cone": np.array([[outside(table[i, j]) for j in ns] for i in ns]),
        "d1-separation": np.array([[i != j and not table[i, j].any() for j in ns] for i in ns]),
        "d1-identity": np.array([table[i, i].any() for i in ns]),
        "d2-symmetry": np.array([[not np.array_equal(table[i, j], table[j, i]) for j in ns] for i in ns]),
        "d3-triangle": np.array([[[outside(table[i, k] + table[k, j] - table[i, j]) for k in ns]
                                  for j in ns] for i in ns]),
    }


def _assert_scan_matches(table: np.ndarray, cone: ConeSpec, slack: float):
    got = metric_table_failures(table, cone, slack)
    want = _brute_force_failures(table, cone, slack)
    assert list(got) == list(want)
    for axiom in want:
        assert got[axiom].shape == want[axiom].shape, axiom
        assert np.array_equal(got[axiom], want[axiom]), axiom
    return got


@pytest.mark.parametrize("family", list(CONES))
@pytest.mark.parametrize("slack", [0.0, 0.5])
@pytest.mark.parametrize("corruption, message", [
    ("none", None),
    ("diagonal", "metric table violates d1: nonzero diagonal entry"),
    ("separation", "metric table violates d1: zero distance between distinct points"),
    ("cone", "metric table violates d1: a value leaves the cone"),
    ("symmetry", "metric table violates d2: asymmetric entry"),
    ("triangle", "metric table violates d3 at triple (0, 4, 1)"),
    ("two triangles", "metric table violates d3 at triple (1, 2, 0)"),
])
def test_metric_table_scan_matches_brute_force(corruption, message, slack, family, monkeypatch):
    cone, u = CONES[family]
    table = _line_table(corruption, u)
    _assert_scan_matches(table, cone, slack)
    labels = list(range(len(LINE)))
    scans, scan = [], oracle.table_triangle_failures
    monkeypatch.setattr(oracle, "table_triangle_failures", lambda *a: scans.append(a) or scan(*a))
    if message is None:
        tabulated_instance(labels, table, labels, labels, cone)
    else:
        with pytest.raises(ConfigError) as exc:
            tabulated_instance(labels, table, labels, labels, cone)
        assert str(exc.value) == message
    # a table refused for d1 or d2 never enters the triangle scan
    assert len(scans) == (message is None or " d3 " in message)


@pytest.mark.parametrize("family", list(CONES))
@pytest.mark.parametrize("slack", [0.0, 0.5])
def test_metric_table_scan_differential(family, slack):
    # Symmetric tables take the half scan (y >= x, mirrored); a table with
    # one entry changed on one side only takes the full scan.  Both must
    # match the brute force, (x, y) and (y, x) entries alike.
    cone, u = CONES[family]
    rng = np.random.default_rng([7, len(family), int(slack * 2)])
    side = np.random.default_rng([8, len(family), int(slack * 2)])
    failing, symmetric_failing, one_sided_failing = 0, 0, 0
    for trial in range(6):
        n = int(rng.integers(3, 13))
        base = _tree_table(rng, n, u) if trial % 2 else \
            np.abs(np.subtract.outer(*[rng.integers(0, 64, n) / 8.0] * 2))[:, :, None] * u
        one_sided = base.copy()
        p, q = side.choice(n, size=2, replace=False)
        one_sided[p, q] = 2.0 * one_sided[p, q] + u
        for table in (base, _corrupt(rng, base, 1), _corrupt(rng, base, 4), one_sided):
            got = _assert_scan_matches(table, cone, slack)
            triangle = got["d3-triangle"]
            failing += bool(triangle.any())
            if got["d2-symmetry"].any():
                one_sided_failing += bool(triangle.any())
            else:
                assert np.array_equal(triangle, triangle.transpose(1, 0, 2))
                symmetric_failing += bool(triangle.any())
            labels = list(range(n))
            first = triangle.transpose(2, 0, 1)
            if slack == 0.0 and first.any() and not any(got[a].any() for a in got if a != "d3-triangle"):
                k, i, j = np.argwhere(first)[0]      # smallest z first
                with pytest.raises(ConfigError, match=rf"d3 at triple \({i}, {j}, {k}\)$"):
                    tabulated_instance(labels, table, labels, labels, cone)
        assert got["d2-symmetry"].any()     # the last table is the one-sided one
    assert failing >= 4     # the corruptions reach the d3 scan
    assert symmetric_failing >= 2 and one_sided_failing >= 2, (symmetric_failing, one_sided_failing)


def _overflowing_table(one_sided: bool) -> np.ndarray:
    """Points 0-2 break d3 only at (0, 1, 2) and its mirror (1, 0, 2).  Point
    3 lies about 2^1022 away: on the rows (2, -1) and (-1, 2) the entries
    NEAR = d(i, 3) project to (inf, -inf) and FAR to (-inf, inf), so every
    d(x, 3) + d(3, y) that pairs them projects to inf + -inf = NaN, beside
    the failing z = 2, while the sums themselves stay finite.  One-sided
    (d(3, i) = FAR) no other triple fails and the full scan runs; symmetric
    (only d(1, 3) = FAR) the half scan runs."""
    q = 2.0 ** 1022
    near, far = np.array([1.5, -1.5]) * q, np.array([-1.25, 1.75]) * q
    table = np.zeros((4, 4, 2))
    table[0, 1] = table[1, 0] = 4.0
    table[0, 2] = table[2, 0] = table[1, 2] = table[2, 1] = 1.0
    table[:3, 3] = near
    table[3, :3] = far if one_sided else near
    if not one_sided:
        table[1, 3] = table[3, 1] = far
    return table


@pytest.mark.parametrize("one_sided", [False, True])
@pytest.mark.parametrize("slack", [0.0, 0.5])
def test_metric_table_scan_skips_nan_sums_beside_a_failing_triple(one_sided, slack):
    # The scan reduces a.d(x, z) + a.d(z, y) over z before it builds any
    # mask; a NaN sum there must not hide the failing z, whichever side of
    # it the NaN sits on (every relabelling of the four points is scanned).
    cone = ConeSpec.polyhedral([[2.0, -1.0], [-1.0, 2.0]], slack=0.0)
    base = _overflowing_table(one_sided)
    with np.errstate(over="ignore", invalid="ignore"):
        proj = base @ cone.ineq_matrix.T
        assert np.isnan(proj[0, 3] + proj[3, 1]).all() and np.isinf(proj).any()
        assert np.isfinite(base[0, 3] + base[3, 1]).all()
        for order in itertools.permutations(range(4)):
            table = base[list(order)][:, list(order)]
            got = _assert_scan_matches(table, cone, slack)
            x, y, z = (order.index(i) for i in (0, 1, 2))
            assert got["d3-triangle"][x, y, z] and got["d3-triangle"][y, x, z]
            if one_sided:
                assert np.argwhere(got["d3-triangle"]).tolist() == sorted([[x, y, z], [y, x, z]])


# Rows that project _NEAR to (inf, -inf) and _FAR to (-inf, inf), as in
# _overflowing_table, and a direction in their cone.
_WIDE = ConeSpec.polyhedral([[2.0, -1.0], [-1.0, 2.0]], slack=0.0), np.array([1.0, 1.0])
_NEAR, _FAR = np.array([1.5, -1.5]) * 2.0 ** 1022, np.array([-1.25, 1.75]) * 2.0 ** 1022

# The path each kind of table takes through the scan's early-exit test.
_SCAN_PATHS = {"dyadic": "int32", "one-sided": "int32", "corrupted": "int32", "proportional": "int32",
               "near-miss": "int32", "non-dyadic": "float", "subnormal": "float", "overflowing": "non-finite"}


def _scan_case(kind: str, n: int, seed: int) -> tuple[np.ndarray, ConeSpec]:
    """A table of ``kind`` on n points and a cone the scan is exact on:
    dyadic tables (a line or tree metric times a dyadic direction, scaled
    by a power of two) on any cone, symmetric or changed on one side, or
    corrupted to break d1-d3 with negative entries among them; non-dyadic
    tables on unit-row cones; on unit-row cones a table of multiples of
    the least subnormal, at least one nonzero off the diagonal, beside one
    symmetric entry of 2^40 or more, which puts them below the int32
    scale; and a dyadic table beside a point whose distances project past
    the float range.  "proportional" tables
    are a line or tree metric times a direction inside, on or outside the
    cone, or 0, with a detour that breaks d3 or an entry doubled on one
    side (the projected rows stay multiples of one row); a "near-miss" is
    rho (x) u with u in the cone and one entry's second coordinate lowered
    by one unit of the int32 scale, on one side or both."""
    rng = np.random.default_rng(seed)
    unit_rows = ["orthant", "scaled_orthant"]
    family = None if kind == "overflowing" else \
        str(rng.choice(unit_rows if kind in ("non-dyadic", "subnormal") else list(CONES)))
    cone, u = _WIDE if family is None else CONES[family]
    if kind == "proportional":
        u = np.array(_RAYS[family]).T @ (rng.integers(-1, 3, 2) / 2.0)
    size = n - 1 if kind == "overflowing" else n
    if rng.random() < 0.5:
        table = _tree_table(rng, size, u)
    else:
        table = np.abs(np.subtract.outer(*[rng.integers(0, 64, size) / 8.0] * 2))[:, :, None] * u
    if kind == "one-sided":
        p, q = rng.choice(n, size=2, replace=False)
        table[p, q] = 2.0 * table[p, q] + u
    elif kind == "corrupted":
        table = _corrupt(rng, table, int(rng.integers(1, 5)))
        p, q = rng.choice(n, size=2, replace=False)
        table[p, q] = table[q, p] = -table[p, q]
    elif kind == "proportional":
        p, q, k = rng.choice(n, size=3, replace=False)
        if rng.random() < 0.5:
            table[p, q] = table[q, p] = 2.0 * (table[p, k] + table[k, q])
        else:
            table[p, q] *= 2.0
    elif kind == "near-miss":
        # the pair whose projections are least, so the largest stays the largest
        proj = np.abs(table @ cone.ineq_matrix.T).max(axis=2) + np.diag(np.full(n, np.inf))
        p, q = np.unravel_index(proj.argmin(), proj.shape)
        col = cone.ineq_matrix[:, 1]
        unit = 2.0 ** (math.frexp(np.abs(table @ cone.ineq_matrix.T).max())[1] - cone_space._EXACT_BITS)
        table[p, q, 1] -= unit / np.abs(col[col != 0.0]).min()
        if rng.random() < 0.5:
            table[q, p] = table[p, q]
    if kind in ("dyadic", "one-sided", "corrupted", "proportional", "near-miss"):
        table *= 2.0 ** int(rng.integers(-40, 41))
    elif kind == "non-dyadic":
        noise = rng.random((n, n, 2))
        table = table * np.pi + (noise + noise.transpose(1, 0, 2) if rng.random() < 0.5 else noise) * u
    elif kind == "subnormal":
        table = _corrupt(rng, table * 8.0 * 2.0 ** -1074, int(rng.integers(0, 4)))
        p, q = rng.choice(n, size=2, replace=False)
        k = min({0, 1, 2} - {p, q})
        if not table[p, k].any():       # an all-zero small part would be exact on int32
            table[p, k] = table[k, p] = 8.0 * 2.0 ** -1074 * u
        table[p, q] = table[q, p] = 2.0 ** int(rng.integers(40, 80)) * u
    elif kind == "overflowing":
        table = _corrupt(rng, table, int(rng.integers(0, 3)))
        far = int(rng.integers(n))
        table = np.insert(np.insert(table, far, 0.0, axis=0), far, 0.0, axis=1)
        for i in set(range(n)) - {far}:
            table[i, far] = (_NEAR, _FAR)[int(rng.integers(2))]
            table[far, i] = table[i, far] if rng.random() < 0.5 else (_NEAR, _FAR)[int(rng.integers(2))]
    return table, cone


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_SCAN_PATHS)), st.integers(3, 10), st.integers(0, 2 ** 32 - 1), st.integers(0, 60))
@example("dyadic", 8, 0, 0)
@example("one-sided", 8, 0, 0)
@example("corrupted", 8, 0, 0)
@example("non-dyadic", 8, 0, 0)
@example("subnormal", 8, 1, 0)
@example("subnormal", 3, 3370939, 0)     # a small part that is all zero without its kept entry
@example("overflowing", 8, 0, 0)
@example("one-sided", 10, 0, 30)      # the full scan in groups of 3, 3, 3 and 1 x
@example("dyadic", 10, 0, 25)         # the half scan in groups of 2, 3 and 5 x
@example("proportional", 8, 0, 0)
@example("near-miss", 8, 0, 0)
@example("near-miss", 10, 0, 30)
def test_metric_table_scan_paths_match_brute_force(kind, n, seed, cells):
    # Which x have a failing triple is decided on int32 copies of the
    # projection where they are exact, on one row of them where every row
    # is a nonnegative multiple of it, else in float64 ("float", and
    # "non-finite" when a projection is not finite).  Each path must give
    # the brute force's masks at slack 0 and at slack 0.5, and only an x
    # with a failing projected triple (at y >= x when the half scan runs)
    # may build a mask, which at slack 0.5 costs one more cone test.
    # cells > 0 sets the scan's group budget to r * n * cells sums for the
    # r rows scanned, so a group holds cells // (n - first) x: one,
    # several, or all of them, with a trailing partial group; cells = 0
    # keeps the constant.
    # (run with --hypothesis-show-statistics for how many draws took each path)
    table, cone = _scan_case(kind, n, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        proj = np.ascontiguousarray(np.moveaxis(table @ cone.ineq_matrix.T, -1, 0))
        top = np.abs(proj).max()
    ints = cone_space._exact_ints(proj, top) if np.isfinite(top) else None
    rows = len(proj) if ints is None else len(cone_space._one_row(ints))
    event("rows scanned: " + ("one of several" if rows < len(proj) else "all"))
    if kind in ("dyadic", "one-sided") and table.any():     # rho (x) u with u in the cone
        assert rows == 1
    if kind == "near-miss":
        assert rows == len(proj)
    exact_ints, found = cone_space._exact_ints, []
    budget = cells * rows * n or cone_space._SCAN_CELLS
    with np.errstate(over="ignore", invalid="ignore"), mock.patch.object(cone_space, "_SCAN_CELLS", budget), \
            mock.patch.object(cone_space, "_exact_ints", lambda *a: found.append(exact_ints(*a)) or found[-1]):
        got = _assert_scan_matches(table, cone, 0.0)
        path = "non-finite" if not found else "float" if found[0] is None else "int32"
        event(f"path: {path}")
        assert path == _SCAN_PATHS[kind]
        group = max(1, cells // n) if cells else n      # the first group's x
        event("first group: " + ("one x" if group == 1 else "several x" if group < n else "all x"))
        half = not got["d2-symmetry"].any() and np.array_equal(proj, proj.transpose(0, 2, 1))
        failing = got["d3-triangle"]
        flagged = sum(bool(failing[x, x if half else 0:].any()) for x in range(len(table)))
        event(f"a failing x past the first group: {failing[group:].any()}")
        with mock.patch.object(cone, "inequality_mask", wraps=cone.inequality_mask) as tests:
            _assert_scan_matches(table, cone, 0.5)
        assert tests.call_count == 1 + flagged      # d1-cone, then one re-test per flagged x
    event(f"d3 fails: {failing.any()}")


def test_metric_table_scan_on_a_cone_without_rows():
    # P = R^2 has no row to project onto (nor one to scan alone): nothing
    # leaves the cone, so no triple fails
    cone = ConeSpec.polyhedral(np.zeros((0, 2)), slack=0.0)
    for table in (_line_table("none"), _line_table("triangle"), -_line_table("cone")):
        assert not _assert_scan_matches(table, cone, 0.0)["d3-triangle"].any()


@pytest.mark.parametrize("family", ["orthant", "scaled_orthant"])
@pytest.mark.parametrize("slack", [0.0, 0.5])
def test_metric_table_scan_is_exact_on_unit_row_cones(family, slack):
    # non-dyadic tables: sums round, and near-collinear triples land on
    # either side of d(x, y); the projected test must round the same way
    cone, u = CONES[family]
    rng = np.random.default_rng(11)
    for n in (5, 9, 12):
        values = rng.random(n) * 3.0
        line = np.abs(values[:, None] - values[None, :])[:, :, None] * (u * np.pi)
        noisy = rng.random((n, n, 2)) * u
        for table in (line, noisy, line + noisy):
            _assert_scan_matches(table, cone, slack)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 3), st.integers(0, 12), st.integers(0, 2 ** 32 - 1))
def test_flat_gathers_equal_fancy_indexing(n, m, k, seed):
    # pairwise and FiniteInstance.terms read a table by one flat take; it
    # must return what table[i, j] returns, bit for bit and shape for shape
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((n, n, m))
    odd = rng.random((n, n, m)) < 0.2       # NaN, inf, signed zeros, subnormals
    table[odd] = rng.choice(_SPECIAL, size=int(odd.sum()))
    xs, ys = rng.integers(0, n, k), rng.integers(0, n, k)       # empty when k = 0
    space = ConeMetricSpace(ConeSpec.orthant(m), FinitePointsCarrier(list(range(n))), TabulatedMetric(table))
    assert _same_bits(space.pairwise(xs, ys), table[xs, ys])
    for i, j in ((xs, ys), (xs[:, None], ys[None, :]), (xs[:, None], ys[:0]), (n - 1, ys)):
        assert _same_bits(cone_space.table_take(table, i, j), table[i, j])
    # the terms of a valid table: a line metric with distinct dyadic values
    values = rng.permutation(64)[:n] / 8.0
    fin = finite_from_values(values, rng.integers(0, n, n), rng.integers(0, n, n),
                             direction=rng.integers(1, 8, m) / 4.0)
    d, idx = fin.metric_table, np.arange(n)
    want = pair_columns(lambda a, b: d[a, b], fin.t_table, fin.t_table[fin.s_table], idx[:, None], idx[None, :])
    for name in ("lhs", "d_tx_ty", "d_tx_tsx", "d_ty_tsy", "d_tx_tsy", "d_ty_tsx"):
        assert _same_bits(getattr(fin.terms, name), getattr(want, name)), name


def test_metric_table_scan_stays_quadratic_in_memory():
    # a valid n=200 table must not allocate anything of n^3 size (8 MB as
    # a bool mask); the projection and one z's temporaries are O(r n^2)
    import tracemalloc

    n = 200
    table = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))[:, :, None] / 8.0 * np.array([1.0, 2.0])
    tracemalloc.start()
    try:
        failures = metric_table_failures(table, ConeSpec.orthant(2, slack=0.0), 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any(mask.any() for mask in failures.values())
    assert peak < 3 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# Normal constant
# ---------------------------------------------------------------------------

def test_normal_constant_orthant_max_norm_exact():
    est = estimate_normal_constant(ConeSpec.orthant(2, norm_kind="max"), n=10_000, seed=0)
    assert est.value == 1.0
    assert not est.inconclusive


def test_normal_constant_orthant_euclidean_exact():
    est = estimate_normal_constant(ConeSpec.orthant(2, norm_kind="euclidean"), n=10_000, seed=0)
    assert est.value == 1.0


def test_normal_constant_monotone_in_samples():
    cone = ConeSpec.polyhedral([[0.0, 1.0], [2.0, 1.0]], norm_kind="euclidean")
    values = [estimate_normal_constant(cone, n=n, seed=3).value for n in (10, 100, 1_000, 20_000)]
    assert values == sorted(values)


def test_normal_constant_acute_polyhedral_regression():
    # cone generated by rays (1,0) and (1,1): members have pairwise
    # nonnegative inner products, so the Euclidean norm is monotone on it
    # and the sampled supremum sits exactly at the degenerate pair.
    cone = ConeSpec.polyhedral([[0.0, 1.0], [1.0, -1.0]], norm_kind="euclidean")
    est = estimate_normal_constant(cone, n=100_000, seed=3)
    assert est.value == 1.0


def test_normal_constant_obtuse_polyhedral_exceeds_one():
    # cone generated by rays (1,0) and (-1,2): adding a generator can
    # shrink the Euclidean norm, so the constant is genuinely above 1.
    cone = ConeSpec.polyhedral([[0.0, 1.0], [2.0, 1.0]], norm_kind="euclidean")
    est = estimate_normal_constant(cone, n=100_000, seed=3)
    assert est.value > 1.05
    assert est.value == pytest.approx(1.1054383289843364, abs=1e-12)  # regression pin
    # the estimate is a lower bound on the true constant sqrt(5)/2
    assert est.value <= np.sqrt(5.0) / 2.0 + 1e-12


def test_normal_constant_needs_samples():
    with pytest.raises(ConfigError):
        estimate_normal_constant(ConeSpec.orthant(2), n=0)


def test_normal_constant_is_one_for_every_sample_size():
    cone = ConeSpec.orthant(2, norm_kind="max")
    for n in (1, 2, 10, 500):
        assert estimate_normal_constant(cone, n=n, seed=0).value == 1.0


def test_degenerate_ray_cone_still_concludes():
    # scaled orthant with a collapsed coordinate is a single ray; ordered
    # pairs still exist along it and the max-norm is monotone there.
    cone = ConeSpec.scaled_orthant([1.0, 0.0], norm_kind="max")
    est = estimate_normal_constant(cone, n=2_000, seed=1)
    assert not est.inconclusive
    assert est.value == 1.0


def test_normal_constant_on_the_zero_cone_is_inconclusive():
    # P = {0}: the rejection sampler keeps no draw, so no pair is built
    # (the sampler draws nothing there, so the default n costs no rejection rounds)
    cone = ConeSpec.polyhedral([[1, 0], [-1, 0], [0, 1], [0, -1]])
    for est in (estimate_normal_constant(cone, n=10), estimate_normal_constant(cone)):
        assert (est.value, est.pairs_used, est.inconclusive) == (0.0, 0, True)


def _eager_metric_violations(space, count, seed):
    """The violations of ``verify_metric_axioms`` built one by one, in
    report order: the reference for the report's lazy view."""
    rng = np.random.default_rng(seed)
    carrier, cone = space.carrier, space.cone
    out = []
    if carrier.finite and len(carrier.points) ** 3 <= max(count, 2_000_000):
        pts = list(carrier.points)
        n = len(pts)
        indices = np.arange(n)
        d = space.pairwise(np.repeat(indices, n), np.tile(indices, n)).reshape(n, n, -1)
        residuals = {
            "d1-cone": lambda i, j: d[i, j],
            "d1-separation": lambda i, j: d[i, j],
            "d1-identity": lambda i: d[i, i],
            "d2-symmetry": lambda i, j: d[i, j] - d[j, i],
            "d3-triangle": lambda i, j, k: d[i, k] + d[k, j] - d[i, j],
        }
        for axiom, mask in metric_table_failures(d, cone, cone.slack).items():
            for idx in np.argwhere(mask).tolist():
                out.append(AxiomViolation(axiom, tuple(pts[i] for i in idx), residuals[axiom](*idx)))
        return out
    xs, ys, txs, tys, tzs = (carrier.to_array(carrier.sample(rng, count)) for _ in range(5))
    dxy, dyx, diag = space.pairwise(xs, ys), space.pairwise(ys, xs), space.pairwise(xs, xs)
    res = space.pairwise(txs, tzs) + space.pairwise(tzs, tys) - space.pairwise(txs, tys)
    same = all_last((xs == ys).reshape(len(xs), -1))
    checks = (
        ("d1-cone", ~cone.inequality_mask(dxy, cone.slack).all(axis=-1), (xs, ys), dxy),
        ("d1-separation", all_last(dxy == 0.0) & ~same, (xs, ys), dxy),
        ("d1-identity", ~all_last(diag == 0.0), (xs,), diag),
        ("d2-symmetry", ~all_last(dxy == dyx), (xs, ys), dxy - dyx),
        ("d3-triangle", ~cone.inequality_mask(res, cone.slack).all(axis=-1), (txs, tys, tzs), res),
    )
    for axiom, bad, forms, residual in checks:
        for idx in np.flatnonzero(bad):
            out.append(AxiomViolation(axiom, tuple(carrier.from_array(f[idx:idx + 1])[0] for f in forms),
                                      residual[idx]))
    return out


def _bits(v):
    """A violation as exact data: its axiom, each witness point's type and
    bytes, and the residual's dtype, shape and bytes (None stays None)."""
    def exact(a):
        return None if a is None else (type(a).__name__, np.asarray(a).dtype.str, np.shape(a), np.asarray(a).tobytes())

    return v.axiom, tuple(map(exact, v.witness)), exact(v.residual)


def _lopsided(x, y):
    """Not a cone metric on [-1, 1]: asymmetric, nonzero at x = y > 0.5, and
    outside the orthant where x < y."""
    return np.array([x - y + 0.25 * (x > 0.5), abs(x - y)])


def _outside(x, y, rho=lambda v: abs(v)):
    """rho(x - y) times a direction u = (1, -1) outside the orthant, as a
    function metric: a direction metric is decided by its form, unsampled."""
    return rho(np.subtract(x, y)) * np.array([1.0, -1.0])


def _euclidean_outside(x, y):
    return _outside(x, y, lambda v: float(np.linalg.norm(v)))


_ORTHANT = ConeSpec.orthant(2)
# Spaces with many violations of several axioms: the formula of a direction
# u = (1, -1) outside the orthant (d1-cone at every pair of distinct points,
# d3 at every strict triangle), a broken function metric, and sampled pairs
# (interval, box, 130 points) or a scanned table (10 or 12 points).
MANY_VIOLATIONS = {
    "interval-direction": ConeMetricSpace(_ORTHANT, IntervalCarrier(-1.0, 1.0), FunctionMetric(_outside)),
    "interval-function": ConeMetricSpace(_ORTHANT, IntervalCarrier(-1.0, 1.0), FunctionMetric(_lopsided)),
    "box-direction": ConeMetricSpace(_ORTHANT, BoxCarrier([0.0, -1.0], [1.0, 1.0]), FunctionMetric(_euclidean_outside)),
    "finite-table": ConeMetricSpace(_ORTHANT, FinitePointsCarrier([0, 1, 0.1, 0.7, 1 / 3, 2.2, 13.1, -1.9, -0.45, 8.8]),
                                    FunctionMetric(_outside)),
    "finite-table-function": ConeMetricSpace(_ORTHANT, FinitePointsCarrier([x / 4 for x in range(-4, 8)]),
                                             FunctionMetric(_lopsided)),
    "finite-sampled": ConeMetricSpace(_ORTHANT, FinitePointsCarrier(list(range(130))), FunctionMetric(_outside)),
}


@pytest.mark.parametrize("name", sorted(MANY_VIOLATIONS))
def test_lazy_axiom_violations_equal_the_eager_list(name):
    space = MANY_VIOLATIONS[name]
    view, eager = verify_metric_axioms(space, count=400, seed=2).violations, _eager_metric_violations(space, 400, 2)
    assert len(view) == len(eager) > 100 and len({v.axiom for v in eager}) >= 2
    assert list(map(_bits, view)) == list(map(_bits, eager))
    if space.carrier.finite:        # the witnesses are the carrier's own point objects
        assert all(p is q for got, want in zip(view, eager) for p, q in zip(got.witness, want.witness))


def _condition_violations():
    space = ConeMetricSpace(_ORTHANT, IntervalCarrier(0.0, 1.0), DirectionMetric([1.0, 2.0]))
    pairs = PairSet.of(space, [(x / 16, y / 16) for x in range(17) for y in range(17)])
    return check_condition(space, MapPair(IdentityMap(), IdentityMap()), ClassSpec.tb(0.5), pairs).violations


@pytest.mark.parametrize("views", ["axiom", "condition"])
def test_a_view_equals_its_list_and_prints_as_it(views):
    # entries holding arrays compare by their values, field by field
    def build():
        if views == "axiom":
            return verify_metric_axioms(MANY_VIOLATIONS["interval-function"], count=300, seed=1).violations
        return _condition_violations()

    view = build()
    entries = list(view)
    assert view == entries and entries == view and view == build() and not view != entries
    assert repr(view) == repr(entries)
    assert view != entries[:-1] and view != entries[::-1] and view != tuple(entries)
    changed = entries[:]
    changed[-1] = dataclasses.replace(changed[-1], residual=changed[-1].residual + 1.0)
    assert view != changed


def test_report_entries_compare_field_by_field(space_a):
    # an entry holding arrays of two values compared as a tuple of fields,
    # and numpy's == on the arrays raised ValueError
    space, maps = space_a
    outside = ConeMetricSpace(space.cone, space.carrier, FunctionMetric(_outside))
    entries = [verify_metric_axioms(outside, count=50, seed=0).violations[0],
               check_condition(space, maps, ClassSpec.tb(0.01), PairSet.of(space, [(0.0, 1.0)])).violations[0]]
    for entry in entries:
        assert entry.residual.shape == (2,)
        same = dataclasses.replace(entry, residual=entry.residual.copy())
        assert entry == same and not entry != same
        assert entry != dataclasses.replace(entry, residual=entry.residual + 1.0)
        assert entry != dataclasses.astuple(entry) and entry != None     # noqa: E711
    assert entries[0] != entries[1]


@pytest.mark.parametrize("views", ["axiom", "condition"])
def test_lazy_views_index_as_lists_do(views):
    # the views of several axioms and of a condition read like the list of
    # their entries: by index, negative index, any slice, and IndexError
    if views == "axiom":
        view, key = verify_metric_axioms(MANY_VIOLATIONS["interval-function"], count=300, seed=1).violations, _bits
        assert len({v.axiom for v in view}) >= 3
    else:
        view = _condition_violations()
        key = lambda v: (v.x, v.y, v.lhs.tobytes(), v.rhs.tobytes(), v.residual.tobytes())   # noqa: E731
    entries, n = list(view), len(view)
    assert n == len(entries) > 50 and bool(view)
    assert [key(view[i]) for i in range(-n, n)] == [key(entries[i]) for i in range(-n, n)]
    for part in (slice(None, 50), slice(None, None, -1), slice(3, -2, 3), slice(-5, None), slice(n + 5, None),
                 slice(None, None, 7), slice(None, None, -2), slice(5, 2), slice(-1, -n - 1, -3), slice(1, n - 1, n)):
        assert list(map(key, view[part])) == list(map(key, entries[part])), part
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            view[bad]
    with pytest.raises(TypeError):
        view[1.0]


# ---------------------------------------------------------------------------
# Input refusals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build, message", [
    (lambda: ConeSpec.orthant(2, slack=math.inf), "slack must be finite"),
    (lambda: ConeSpec(2, family="scaled_orthant"), "scaled_orthant requires weights"),
    (lambda: ConeSpec(2, family="scaled_orthant", weights=[1.0, 2.0, 3.0]), "weights length 3 != dimension 2"),
    (lambda: ConeSpec.scaled_orthant([1.0, -1.0]), "scaled_orthant weights must be >= 0"),
    (lambda: ConeSpec(2, family="polyhedral"), "polyhedral cone requires an inequality matrix"),
    (lambda: ConeSpec.polyhedral([[1.0, math.nan]]), "inequality matrix has non-finite entries"),
    (lambda: ConeSpec(2, family="ball"), "unknown cone family 'ball'"),
    (lambda: ConeSpec.orthant(2).contains([1.0, 1.0], "open"), "unknown membership mode 'open'"),
    (lambda: BoxCarrier([0.0, 1.0], [1.0, 1.0]), "box carrier requires lows < highs componentwise"),
    (lambda: FinitePointsCarrier([0, 1, 0]), "finite carrier points must be distinct"),
    (lambda: DirectionMetric([1.0, 2.0], rho="taxicab"), "unknown scalar metric 'taxicab'"),
])
def test_cone_space_refuses_bad_input(build, message):
    with pytest.raises(ConfigError) as info:
        build()
    assert str(info.value) == message


def test_an_unhashable_point_is_not_in_a_finite_carrier():
    carrier = FinitePointsCarrier([0, 1])
    assert not carrier.contains([0]) and carrier.to_array([[0], 1]).tolist() == [-1, 1]


# ---------------------------------------------------------------------------
# Box carriers
# ---------------------------------------------------------------------------

def test_box_carrier_metric_axioms():
    from conefix.cone_space import BoxCarrier

    cone = ConeSpec.orthant(2)
    carrier = BoxCarrier(np.zeros(2), np.ones(2), grid=5)
    space = ConeMetricSpace(cone, carrier, DirectionMetric([1.0, 2.0], rho="euclidean"))
    report = verify_metric_axioms(space, count=2_000, seed=6)
    assert report.passed
    assert np.allclose(
        space.d(np.array([0.0, 0.0]), np.array([3.0 / 8, 0.5])), [0.625, 1.25]
    )


# ---------------------------------------------------------------------------
# Carrier draws and grids
# ---------------------------------------------------------------------------

_bound = st.floats(allow_nan=False, allow_infinity=False)


def _carriers(lo, hi, grid):
    """An interval and a box with [lo, hi] as one side (the other [0, 1]),
    each with the numpy calls it drew and gridded with before any width
    could overflow."""
    from conefix.cone_space import BoxCarrier

    def linspace(a, b):
        with np.errstate(over="ignore"):       # the last step may overflow before numpy pins b
            return np.linspace(a, b, grid)

    return [(IntervalCarrier(lo, hi, grid), lambda rng, n: rng.uniform(lo, hi, size=n),
             lambda: linspace(lo, hi)),
            (BoxCarrier([lo, 0.0], [hi, 1.0], grid), lambda rng, n: rng.uniform([lo, 0.0], [hi, 1.0], size=(n, 2)),
             lambda: np.stack([m.ravel() for m in np.meshgrid(linspace(lo, hi), linspace(0.0, 1.0), indexing="ij")],
                              axis=-1))]


@settings(max_examples=200, deadline=None)
@given(lo=_bound, hi=_bound, seed=st.integers(0, 2 ** 16), size=st.integers(0, 30), grid=st.integers(2, 12))
@example(lo=-1e308, hi=1e308, seed=0, size=1000, grid=11)        # hi - lo overflows
@example(lo=-1.7976931348623157e308, hi=1.7976931348623157e308, seed=1, size=1000, grid=2)
@example(lo=1e308, hi=1.5e308, seed=2, size=100, grid=101)       # lo + hi overflows, hi - lo does not
def test_carrier_draws_and_grids_lie_in_the_carrier(lo, hi, seed, size, grid):
    # every point is finite and in the carrier, from the same random draws;
    # where hi - lo is finite the points are the numpy calls' own, bit for bit
    assume(lo < hi)
    with np.errstate(over="ignore"):
        wide = math.isinf(hi - lo)
    for carrier, draw, mesh in _carriers(lo, hi, grid):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        xs, gs = carrier.sample(rng, size), carrier.grid_points()
        for pts in (xs, gs):
            assert np.isfinite(pts).all() and carrier.mask(pts).all()
        if wide:
            ref.random(xs.shape)
        else:
            assert xs.tobytes() == draw(ref, size).tobytes()
            assert gs.tobytes() == mesh().tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

