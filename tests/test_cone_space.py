import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefix import cone_space
from conefix.cone_space import (
    ConeMetricSpace, ConeSpec, ConfigError, DirectionMetric, DomainError, FinitePointsCarrier,
    FunctionMetric, IntervalCarrier, SamplingPlan, TabulatedMetric, estimate_normal_constant,
    metric_table_failures, verify_cone_axioms, verify_metric_axioms,
)
from conefix.contractions import pair_columns
from conefix.oracle import FiniteInstance, finite_from_values

from conftest import fixture_doc

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
    report = verify_cone_axioms(ConeSpec.orthant(2), SamplingPlan(count=100, seed=1))
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
@pytest.mark.parametrize("count, seed", [(10_000, 0), (500, 7), (40, 3), (0, 0)])
def test_cone_report_is_exact_whatever_the_plan(name, count, seed):
    # the plan is accepted and unused: any budget and seed give the report
    # the matrix decides, with residual A v = 0 on every P3 witness
    cone, expected = EXACT_REPORTS[name]
    report = verify_cone_axioms(cone, SamplingPlan(count=count, seed=seed))
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
    report = verify_metric_axioms(space, SamplingPlan(count=10_000, seed=2))
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
    report = verify_metric_axioms(space, SamplingPlan(count=500, seed=3))
    assert any(v.axiom == "d2-symmetry" for v in report.violations)
    assert np.array_equal(space.d(0.0, 1.0), [-1.0, 2.0])
    assert np.array_equal(space.d(1.0, 0.0), [1.0, 2.0])


def test_broken_positivity_detected():
    space = _broken_space(lambda x, y: np.array([abs(x - y) - 0.5, abs(x - y)]))
    report = verify_metric_axioms(space, SamplingPlan(count=500, seed=3))
    assert any(v.axiom == "d1-cone" for v in report.violations)
    assert np.array_equal(space.d(0.0, 0.2), [-0.3, 0.2])


def test_broken_triangle_detected():
    # rho(x, y) = |x - y|^2 violates the triangle inequality
    space = _broken_space(lambda x, y: np.array([(x - y) ** 2, 2.0 * (x - y) ** 2]))
    report = verify_metric_axioms(space, SamplingPlan(count=2_000, seed=4))
    assert any(v.axiom == "d3-triangle" for v in report.violations)


def test_metric_axioms_exhaustive_for_finite(fin_d):
    space, _ = fin_d.as_space_and_maps()
    report = verify_metric_axioms(space, SamplingPlan(count=10_000, seed=5))
    assert report.passed
    assert report.sample_count == 10 * 10 + 10 ** 3


@pytest.mark.parametrize("slack", [0.0, 1e-12, 0.3])
def test_a_scanned_table_reports_what_its_scan_reports(slack, plain_corpus, tz_corpus):
    # the FiniteInstance refused every failure at slack 0, and a failure at
    # a larger slack is one at slack 0, so skipping the scan changes nothing
    for fin in [*plain_corpus, *(g.fin for g in tz_corpus[:10])]:
        fin = dataclasses.replace(fin, cone=dataclasses.replace(fin.cone, slack=slack))
        space = ConeMetricSpace(fin.cone, FinitePointsCarrier(list(fin.points)), TabulatedMetric(fin.metric_table))
        for plan in (SamplingPlan(), SamplingPlan(count=0)):
            full = verify_metric_axioms(space, plan)
            assert verify_metric_axioms(space, plan, scanned_by=fin) == full and full.passed


def test_a_table_the_instance_did_not_scan_is_scanned(fin_d, monkeypatch):
    # fin_d scanned its own table: not this copy with d(0, 1) halved
    table = fin_d.metric_table.copy()
    table[0, 1] /= 2.0
    space = ConeMetricSpace(fin_d.cone, FinitePointsCarrier(list(fin_d.points)), TabulatedMetric(table))
    report = verify_metric_axioms(space, SamplingPlan(), scanned_by=fin_d)
    assert "d2-symmetry" in {v.axiom for v in report.violations}
    # nor its table under another cone object, equal as it may be
    scans = []
    scan = cone_space.metric_table_failures
    monkeypatch.setattr(cone_space, "metric_table_failures", lambda *a: scans.append(a) or scan(*a))
    cone = dataclasses.replace(fin_d.cone)
    space = ConeMetricSpace(cone, FinitePointsCarrier(list(fin_d.points)), TabulatedMetric(fin_d.metric_table))
    assert verify_metric_axioms(space, SamplingPlan(), scanned_by=fin_d).passed and len(scans) == 1
    space = ConeMetricSpace(fin_d.cone, FinitePointsCarrier(list(fin_d.points)), TabulatedMetric(fin_d.metric_table))
    assert verify_metric_axioms(space, SamplingPlan(), scanned_by=fin_d).passed and len(scans) == 1


def test_identity_violation_reported_once_per_point():
    def fn(x, y):
        return np.array([1.0, 2.0]) * abs(x - y) + (0.25 if x == y == 3 else 0.0)

    space = ConeMetricSpace(ConeSpec.orthant(2), FinitePointsCarrier(list(range(6))), FunctionMetric(fn))
    report = verify_metric_axioms(space, SamplingPlan(count=10_000, seed=0))
    assert [(v.axiom, v.witness) for v in report.violations] == [("d1-identity", (3,))]
    assert np.array_equal(report.violations[0].residual, [0.25, 0.25])


def test_sampled_metric_check_reads_a_tabulated_carrier():
    # 130^3 triples exceed the exhaustive budget: the default plan samples
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
    assert tab.sample_count == fun.sample_count == 20_000
    assert {v.axiom for v in tab.violations} == {
        "d1-cone", "d1-separation", "d1-identity", "d2-symmetry", "d3-triangle"}
    assert len(tab.violations) == len(fun.violations)
    for got, want in zip(tab.violations, fun.violations):
        assert (got.axiom, got.witness) == (want.axiom, want.witness)
        assert np.array_equal(got.residual, want.residual)


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
def test_metric_table_scan_matches_brute_force(corruption, message, slack, family):
    cone, u = CONES[family]
    table = _line_table(corruption, u)
    _assert_scan_matches(table, cone, slack)
    labels = list(range(len(LINE)))
    if message is None:
        FiniteInstance(labels, table, labels, labels, cone)
    else:
        with pytest.raises(ConfigError) as exc:
            FiniteInstance(labels, table, labels, labels, cone)
        assert str(exc.value) == message


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
                    FiniteInstance(labels, table, labels, labels, cone)
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


def test_normal_constant_accepts_custom_sampler():
    cone = ConeSpec.orthant(2, norm_kind="max")
    ray = lambda rng, size: np.outer(rng.uniform(0.5, 2.0, size), [1.0, 1.0])
    est = estimate_normal_constant(cone, sampler=ray, n=1_000, seed=0)
    assert est.value == 1.0
    assert est.pairs_used == 1_000


def test_degenerate_ray_cone_still_concludes():
    # scaled orthant with a collapsed coordinate is a single ray; ordered
    # pairs still exist along it and the max-norm is monotone there.
    cone = ConeSpec.scaled_orthant([1.0, 0.0], norm_kind="max")
    est = estimate_normal_constant(cone, n=2_000, seed=1)
    assert not est.inconclusive
    assert est.value == 1.0


# ---------------------------------------------------------------------------
# Box carriers
# ---------------------------------------------------------------------------

def test_box_carrier_metric_axioms():
    from conefix.cone_space import BoxCarrier

    cone = ConeSpec.orthant(2)
    carrier = BoxCarrier(np.zeros(2), np.ones(2), grid=5)
    space = ConeMetricSpace(cone, carrier, DirectionMetric([1.0, 2.0], rho="euclidean"))
    report = verify_metric_axioms(space, SamplingPlan(count=2_000, seed=6))
    assert report.passed
    assert np.allclose(
        space.d(np.array([0.0, 0.0]), np.array([3.0 / 8, 0.5])), [0.625, 1.25]
    )
