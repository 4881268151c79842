import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefix.cone_space import (
    ConeMetricSpace, ConeSpec, ConfigError, DirectionMetric, DomainError, FinitePointsCarrier,
    FunctionMetric, IntervalCarrier, SamplingPlan, estimate_normal_constant,
    metric_table_failures, verify_cone_axioms, verify_metric_axioms,
)
from conefix.oracle import FiniteInstance

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


# ---------------------------------------------------------------------------
# Cone axioms
# ---------------------------------------------------------------------------

def test_orthant_axioms_pass():
    report = verify_cone_axioms(ConeSpec.orthant(2), SamplingPlan(count=100, seed=1))
    assert report.passed
    assert report.axioms_checked == ["P1", "P2", "P3"]
    assert report.sample_count == 100


def test_half_plane_fails_pointedness():
    cone = ConeSpec.polyhedral([[1.0, 0.0]])
    report = verify_cone_axioms(cone, SamplingPlan(count=200, seed=1))
    p3 = [v for v in report.violations if v.axiom == "P3-pointed"]
    assert p3
    witnesses = [np.abs(np.asarray(v.witness[0])) for v in p3]
    assert any(np.allclose(w, [0.0, 1.0]) for w in witnesses)


def test_thin_wedge_reports_the_points_it_drew():
    # rejection sampling keeps only a few of the 10,000 requested points
    # of this wedge; the report counts the pairs actually combined
    cone = ConeSpec.polyhedral([[1.0, -100.0], [-1.0, 101.0]])
    plan = SamplingPlan(count=10_000, seed=0)
    rng = plan.rng()
    drawn = min(len(cone.sample(rng, plan.count)), len(cone.sample(rng, plan.count)))
    report = verify_cone_axioms(cone, plan)
    assert 0 < drawn < 100
    assert report.sample_count == drawn


def test_collapsed_scaled_orthant_has_empty_interior():
    cone = ConeSpec.scaled_orthant([1.0, 0.0])
    report = verify_cone_axioms(cone, SamplingPlan(count=100, seed=1))
    assert any(v.axiom == "P1-interior-nonempty" for v in report.violations)


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


def test_identity_violation_reported_once_per_point():
    def fn(x, y):
        return np.array([1.0, 2.0]) * abs(x - y) + (0.25 if x == y == 3 else 0.0)

    space = ConeMetricSpace(ConeSpec.orthant(2), FinitePointsCarrier(list(range(6))), FunctionMetric(fn))
    report = verify_metric_axioms(space, SamplingPlan(count=10_000, seed=0))
    assert [(v.axiom, v.witness) for v in report.violations] == [("d1-identity", (3,))]
    assert np.array_equal(report.violations[0].residual, [0.25, 0.25])


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
    cone, u = CONES[family]
    rng = np.random.default_rng([7, len(family), int(slack * 2)])
    failing = 0
    for trial in range(6):
        n = int(rng.integers(3, 13))
        base = _tree_table(rng, n, u) if trial % 2 else \
            np.abs(np.subtract.outer(*[rng.integers(0, 64, n) / 8.0] * 2))[:, :, None] * u
        for table in (base, _corrupt(rng, base, 1), _corrupt(rng, base, 4)):
            got = _assert_scan_matches(table, cone, slack)
            failing += bool(got["d3-triangle"].any())
            labels = list(range(n))
            triangle = got["d3-triangle"].transpose(2, 0, 1)
            if slack == 0.0 and triangle.any() and not any(got[a].any() for a in got if a != "d3-triangle"):
                k, i, j = np.argwhere(triangle)[0]      # smallest z first
                with pytest.raises(ConfigError, match=rf"d3 at triple \({i}, {j}, {k}\)$"):
                    FiniteInstance(labels, table, labels, labels, cone)
    assert failing >= 4     # the corruptions reach the d3 scan


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
