import numpy as np
import pytest

from conefix.cone_space import (
    BoxCarrier, ConeMetricSpace, ConeSpec, ConfigError, DirectionMetric, DomainError,
    FinitePointsCarrier, FunctionMetric, IntervalCarrier, point_key,
)
from conefix.contractions import AffineMap, IdentityMap, MapPair, PowerMap
from conefix.instances import instance_d
from conefix.oracle import finite_from_values
from conefix.solver import (
    CONVERGED, CYCLE_DETECTED, INJECTIVITY_TOL, MAX_ITER, NON_UNIQUE, UNIQUE, UNKNOWN,
    StoppingRule, TProbes, _cauchy_pairs, certify_fixed_point, diagnose_T,
    geometric_decay_check, picard_iterate, uniqueness_probe,
)


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------

def test_three_steps_of_the_halving_map(space_a):
    space, maps = space_a
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=3))
    assert trace.x_sequence == [1.0, 0.5, 0.25, 0.125]
    assert trace.stop_reason == MAX_ITER
    assert trace.n_final == 3
    assert trace.gap_norms == [1.0, 0.5, 0.25, 0.125]


def test_nan_gap_norm_stops_at_max_iter():
    # a NaN norm is neither above nor below epsilon: it must still count
    # as not converged, or only an exact repeat (here after ~190k steps,
    # when x underflows to 0) ends the run
    space = ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(0.0, 1.0),
                            FunctionMetric(lambda x, y: [np.nan, np.nan]))
    maps = MapPair(IdentityMap(), AffineMap(255 / 256))
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=10))
    assert trace.stop_reason == MAX_ITER
    assert trace.n_final == 10
    assert len(trace.gap_norms) == 11 and all(np.isnan(trace.gap_norms))


def test_identity_stops_immediately(space_c):
    space, maps = space_c
    trace = picard_iterate(space, maps, 0.7)
    assert trace.stop_reason == CONVERGED
    assert trace.n_final == 1
    assert trace.gap_norms == [0.0]
    assert trace.last == 0.7


def test_instance_b_closed_form(space_b):
    space, maps = space_b
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=6))
    # x_n = 4^-n bit for bit, and the monitored gaps shrink like 64^-n
    for n, x in enumerate(trace.x_sequence):
        assert x == 4.0 ** (-n)
    for n, g in enumerate(trace.gap_norms):
        assert g == 2.0 * 64.0 ** (-n) * (1.0 - 1.0 / 64.0)


def test_quarter_map_trace_reaches_fixed_point(space_b):
    space, maps = space_b
    trace = picard_iterate(space, maps, 1.0)
    assert trace.stop_reason == CONVERGED
    assert trace.last < 1e-3  # T cubes the scale, so stopping is early in x


def test_cycle_detection_on_rotation():
    # any exact repeat is a cycle, however long: the 60-point rotation
    # must stop after one turn, not at max_iter
    for n, max_iter in ((10, 100), (60, 2000)):
        fin = finite_from_values(
            np.arange(n, dtype=float), t_table=np.arange(n), s_table=(np.arange(n) + 1) % n
        )
        space, maps = fin.as_space_and_maps()
        trace = picard_iterate(space, maps, 0, StoppingRule(max_iter=max_iter))
        assert trace.stop_reason == CYCLE_DETECTED
        assert trace.n_final == n
        assert trace.x_sequence[-1] == trace.x_sequence[0]


def test_escaping_map_raises_domain_error():
    cone = ConeSpec.orthant(2)
    space = ConeMetricSpace(cone, IntervalCarrier(0.0, 0.5), DirectionMetric([1.0, 2.0]))
    maps = MapPair(IdentityMap(), AffineMap(2.0))
    with pytest.raises(DomainError, match="iterate"):
        picard_iterate(space, maps, 0.4)


def test_trace_consistency_re_evaluation(space_a):
    space, maps = space_a
    trace = picard_iterate(space, maps, 0.7, StoppingRule(max_iter=20))
    for n in range(trace.n_final):
        assert maps.S(trace.x_sequence[n]) == trace.x_sequence[n + 1]
    again = picard_iterate(space, maps, 0.7, StoppingRule(max_iter=20))
    assert again.x_sequence == trace.x_sequence
    assert again.gap_norms == trace.gap_norms


def test_instance_a_gap_norms_exactly_halve(space_a):
    space, maps = space_a
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=40))
    g0 = trace.gap_norms[0]
    for n, g in enumerate(trace.gap_norms):
        assert abs(g - 0.5 ** n * g0) <= 1e-12 * max(g, 1e-300)


# ---------------------------------------------------------------------------
# Geometric decay
# ---------------------------------------------------------------------------

def test_decay_check_passes_at_true_rate(space_a):
    space, maps = space_a
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=30))
    report = geometric_decay_check(trace, h=0.5, K=1.0)
    assert report.passed
    assert report.cauchy_pairs_checked > 0


def test_decay_check_fails_below_true_rate(space_a):
    space, maps = space_a
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=30))
    report = geometric_decay_check(trace, h=0.4, K=1.0)
    assert not report.per_step_ok
    assert report.per_step_violations[0][0] == 1


def test_decay_check_vacuous_on_fixed_start(space_a):
    space, maps = space_a
    trace = picard_iterate(space, maps, 0.0)
    for h in (0.0, 0.5, 0.99):
        assert geometric_decay_check(trace, h=h, K=1.0).passed


def test_decay_check_rejects_h_at_least_one(space_a):
    space, maps = space_a
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=5))
    with pytest.raises(ConfigError):
        geometric_decay_check(trace, h=1.0)


def test_nan_constants_are_rejected(space_a):
    space, maps = space_a
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=5))
    with pytest.raises(ConfigError):
        geometric_decay_check(trace, h=0.5, K=float("nan"))
    with pytest.raises(ConfigError):
        StoppingRule(epsilon=float("nan"))


@pytest.mark.parametrize("npts, samples", [(70, 2000), (100, 2000), (2, 5), (1, 5)])
def test_cauchy_pairs_match_the_explicit_list(npts, samples):
    # the pair list the check used to build before drawing from it
    pairs = [(mm, nn) for nn in range(npts) for mm in range(nn + 1, npts)]
    if len(pairs) > samples:
        idx = np.random.default_rng(11).choice(len(pairs), size=samples, replace=False)
        pairs = [pairs[i] for i in sorted(idx)]
    mm, nn = _cauchy_pairs(npts, samples, 11)
    assert list(zip(mm.tolist(), nn.tolist())) == pairs


def test_step_ratios_bounded_by_half(space_a):
    space, maps = space_a
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=30))
    assert trace.max_step_ratio() == 0.5


# ---------------------------------------------------------------------------
# Certification and uniqueness
# ---------------------------------------------------------------------------

def test_certify_exact_fixed_point(space_a):
    space, maps = space_a
    check = certify_fixed_point(space, maps, 0.0, 1e-12)
    assert check.certified
    assert check.residual_norm == 0.0


def test_certify_rejects_near_miss(space_a):
    space, maps = space_a
    check = certify_fixed_point(space, maps, 0.01, 1e-12)
    assert not check.certified
    assert np.array_equal(check.residual, [0.005, 0.01])
    assert check.residual_norm == 0.01


def test_certify_everywhere_on_identity(space_c):
    space, maps = space_c
    for z in (0.0, 0.33, 1.0):
        assert certify_fixed_point(space, maps, z, 1e-12).certified


def test_uniqueness_on_instance_a(space_a):
    space, maps = space_a
    verdict = uniqueness_probe(space, maps, [0.0, 0.3, 1.0])
    assert verdict.verdict == UNIQUE
    assert verdict.fixed_point == 0.0


def test_non_uniqueness_on_identity(space_c):
    space, maps = space_c
    verdict = uniqueness_probe(space, maps, [0.2, 0.8])
    assert verdict.verdict == NON_UNIQUE
    assert sorted(verdict.witnesses) == [0.2, 0.8]


def test_single_start_is_trivially_unique(space_a):
    space, maps = space_a
    verdict = uniqueness_probe(space, maps, [0.5])
    assert verdict.verdict == UNIQUE


def test_unknown_when_runs_cycle():
    fin = finite_from_values(
        np.arange(6, dtype=float), t_table=np.arange(6), s_table=(np.arange(6) + 1) % 6
    )
    space, maps = fin.as_space_and_maps()
    verdict = uniqueness_probe(space, maps, [0, 3], StoppingRule(max_iter=50))
    assert verdict.verdict == UNKNOWN


def test_uniqueness_probe_merges_deterministically_across_threads(space_a):
    # runs merge in start order
    space, maps = space_a
    starts = [0.0, 0.3, 1.0]
    first = uniqueness_probe(space, maps, starts)
    again = uniqueness_probe(space, maps, starts)
    assert again.verdict == first.verdict
    assert [t.x_sequence for t in again.traces] == [t.x_sequence for t in first.traces]
    assert [t.x_sequence[0] for t in first.traces] == starts
    reverse = uniqueness_probe(space, maps, starts[::-1])
    assert [t.x_sequence for t in reverse.traces] == [t.x_sequence for t in first.traces][::-1]


# ---------------------------------------------------------------------------
# T diagnostics
# ---------------------------------------------------------------------------

def test_cubic_t_is_injective_on_grid(space_b):
    space, maps = space_b
    probes = TProbes(list(np.linspace(0.0, 1.0, 1000)), [])
    report = diagnose_T(space, maps, probes)
    assert report.injective


def test_square_t_fails_injectivity():
    cone = ConeSpec.orthant(2)
    space = ConeMetricSpace(cone, IntervalCarrier(-1.0, 1.0), DirectionMetric([1.0, 2.0]))
    maps = MapPair(PowerMap(2), AffineMap(0.5))
    probes = TProbes([-0.5, 0.0, 0.5], [])
    report = diagnose_T(space, maps, probes)
    assert not report.injective
    assert (-0.5, 0.5) in report.injectivity_violations


def test_alternating_sequence_is_not_applicable(space_c):
    space, maps = space_c
    report = diagnose_T(space, maps)
    by_name = {f.name: f for f in report.sequence_findings}
    assert by_name["alternating"].classification == "not-applicable"
    assert not by_name["alternating"].t_image_converges
    assert by_name["convergent"].classification == "consistent"


def test_picard_on_a_box_carrier():
    from conefix.cone_space import BoxCarrier

    cone = ConeSpec.orthant(2)
    carrier = BoxCarrier(np.zeros(2), np.ones(2))
    space = ConeMetricSpace(cone, carrier, DirectionMetric([1.0, 2.0], rho="euclidean"))
    maps = MapPair(IdentityMap(), AffineMap(0.5))
    trace = picard_iterate(space, maps, np.array([1.0, 0.5]))
    assert trace.stop_reason == CONVERGED
    assert np.all(trace.last < 1e-11)
    verdict = uniqueness_probe(space, maps, [np.array([1.0, 0.5]), np.array([0.2, 0.9])])
    assert verdict.verdict == UNIQUE


def test_inconsistent_evidence_for_collapsing_t():
    # T constant: T(y_n) converges for every sequence, including one that
    # does not converge itself -> inconsistent with sequential convergence.
    cone = ConeSpec.orthant(2)
    space = ConeMetricSpace(cone, IntervalCarrier(0.0, 1.0), DirectionMetric([1.0, 2.0]))
    maps = MapPair(AffineMap(0.0, 0.5), IdentityMap())
    report = diagnose_T(space, maps)
    by_name = {f.name: f for f in report.sequence_findings}
    assert by_name["alternating"].classification == "inconsistent"


# ---------------------------------------------------------------------------
# Array passes against per-point reference loops
# ---------------------------------------------------------------------------

def _reference_picard(space, maps, x0, rule):
    """Picard iteration one point at a time, the stopping rule as documented
    on ``picard_iterate``."""
    space.require_point(x0, "start point")
    pts, t_images = [x0], [space.require_point(maps.T(x0), "T-image")]
    gaps, norms, seen = [], [], {point_key(x0)}
    while True:
        try:
            y = space.require_point(maps.S(pts[-1]), "S-image")
            ty = space.require_point(maps.T(y), "T-image")
        except DomainError as exc:
            raise DomainError(f"iterate {len(pts) - 1} escaped the carrier: {exc}") from exc
        gaps.append(space.d(t_images[-1], ty))
        norms.append(space.cone.norm(gaps[-1]))
        if not norms[-1] <= rule.epsilon and len(pts) > rule.max_iter:
            return pts, t_images, gaps, norms, MAX_ITER
        pts.append(y)
        t_images.append(ty)
        if norms[-1] <= rule.epsilon:
            return pts, t_images, gaps, norms, CONVERGED
        if point_key(y) in seen:
            return pts, t_images, gaps, norms, CYCLE_DETECTED
        seen.add(point_key(y))


def _assert_same_run(trace, reference):
    pts, t_images, gaps, norms, reason = reference
    assert trace.stop_reason == reason
    assert len(trace.x_sequence) == len(pts) and len(trace.t_images) == len(t_images)
    for got, want in zip(trace.x_sequence, pts):
        assert type(got) is type(want) and np.array_equal(got, want)
    for got, want in zip(trace.t_images, t_images):
        assert np.array_equal(got, want)
    assert all(type(g) is float for g in trace.gap_norms)
    assert np.array_equal(np.array(trace.t_image_gaps), np.array(gaps))
    if trace.space.cone.norm_kind == "euclidean":
        # a euclidean cone norm over rows (numpy's row sum) may differ in the
        # last bit from ConeSpec.norm of one vector (a dot product)
        np.testing.assert_allclose(trace.gap_norms, norms, rtol=1e-15, atol=0)
    else:
        assert trace.gap_norms == norms


def _refusing_metric(x, y):
    """Direction metric on [0, 0.9]; it refuses larger points."""
    if max(x, y) > 0.9:
        raise DomainError(f"no distance at {max(x, y)}")
    return np.array([1.0, 2.0]) * abs(x - y)


def _unit_interval():
    return ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(0.0, 1.0), DirectionMetric([1.0, 2.0]))


def _unit_box(rho, norm_kind):
    cone = ConeSpec.orthant(2, norm_kind=norm_kind)
    return ConeMetricSpace(cone, BoxCarrier(np.zeros(2), np.ones(2)), DirectionMetric([1.0, 2.0], rho=rho))


def _finite_cases():
    rng = np.random.default_rng(5)
    n = 12
    values = np.sort(rng.uniform(0.0, 4.0, n))
    rotation = finite_from_values(values, np.arange(n), (np.arange(n) + 1) % n)
    random_maps = finite_from_values(values, rng.permutation(n), rng.integers(0, n, n))
    yield rotation.as_space_and_maps(), list(range(n))
    yield random_maps.as_space_and_maps(), list(range(n))
    yield instance_d().as_space_and_maps(), [9, 0, 5, 5, 3]
    # numeric points under a direction metric, maps given as formulas
    points = [0.0, 0.25, 0.5, 0.75, 1.0]
    for rho in ("absdiff", "max", "euclidean"):
        yield (_numeric_finite(rho), MapPair(IdentityMap(), AffineMap(-1.0, 1.0))), points
    yield (_numeric_finite("max"), MapPair(AffineMap(-1.0, 1.0), AffineMap(0.0, 0.5))), points


def _numeric_finite(rho):
    """Five numbers under a direction metric: on numbers every scalar metric is |x - y|."""
    carrier = FinitePointsCarrier([0.0, 0.25, 0.5, 0.75, 1.0])
    return ConeMetricSpace(ConeSpec.orthant(2), carrier, DirectionMetric([1.0, 2.0], rho=rho))


def _batch_cases():
    interval = _unit_interval()
    starts = [0.0, 0.3, 1.0, 0.3, 0.7, 1, 0.5]     # 1 is an int: runs keep its type
    for T in (IdentityMap(), AffineMap(0.5, 0.25), PowerMap(3)):
        for S in (AffineMap(0.5), AffineMap(-1.0, 1.0), PowerMap(2), IdentityMap(), AffineMap(255 / 256)):
            yield interval, MapPair(T, S), starts
    box_starts = [np.array([1.0, 0.5]), np.array([0.2, 0.9]), np.zeros(2), np.array([1.0, 0.5])]
    for rho, norm_kind in (("euclidean", "euclidean"), ("max", "max")):
        for S in (AffineMap(0.5), AffineMap(-1.0, 1.0), IdentityMap()):
            yield _unit_box(rho, norm_kind), MapPair(AffineMap(0.5, 0.25), S), box_starts
    for (space, maps), pts in _finite_cases():
        yield space, maps, pts


@pytest.mark.parametrize("rule", [StoppingRule(), StoppingRule(max_iter=7), StoppingRule(epsilon=1e-3)],
                         ids=["default", "max_iter", "coarse"])
def test_batched_runs_equal_the_per_start_loop(rule):
    for space, maps, starts in _batch_cases():
        traces = uniqueness_probe(space, maps, starts, rule).traces
        assert len(traces) == len(starts)
        for trace, x0 in zip(traces, starts):
            _assert_same_run(trace, _reference_picard(space, maps, x0, rule))
        _assert_same_run(picard_iterate(space, maps, starts[-1], rule),
                         _reference_picard(space, maps, starts[-1], rule))


def test_batch_raises_the_error_of_the_first_failing_start():
    # start 1 escapes at iterate 0, start 0 only at iterate 1: one start
    # after another, start 0's error comes first
    space = _unit_interval()
    maps = MapPair(IdentityMap(), AffineMap(2.0))
    with pytest.raises(DomainError) as want:
        _reference_picard(space, maps, 0.3, StoppingRule())
    with pytest.raises(DomainError) as got:
        uniqueness_probe(space, maps, [0.3, 0.8, 2.0])
    assert str(got.value) == str(want.value) == "iterate 1 escaped the carrier: S-image 1.2 lies outside the carrier"
    with pytest.raises(DomainError, match="^start point 2.0 lies outside the carrier$"):
        uniqueness_probe(space, MapPair(IdentityMap(), AffineMap(0.5)), [0.3, 2.0, 0.8])


@pytest.mark.parametrize("space, maps, starts", [
    # the S-image stays inside and the T-image leaves: 0.3 -> 0.7, T = 1.4
    (_unit_interval(), MapPair(AffineMap(2.0), AffineMap(-1.0, 1.0)), [0.3, 0.5]),
    # a finite carrier: 1.0 -> 0.5 -> 0.25 -> 0.125 leaves it at iterate 2
    (ConeMetricSpace(ConeSpec.orthant(2), FinitePointsCarrier([0.0, 0.25, 0.5, 1.0]),
                     DirectionMetric([1.0, 2.0])), MapPair(IdentityMap(), AffineMap(0.5)), [1.0, 0.25]),
    # the metric fails on the second start's first gap, and on the first
    # start's fourth (0.25 -> 0.5 -> 0.71 -> 0.84 -> 0.92)
    (ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(0.0, 1.0), FunctionMetric(_refusing_metric)),
     MapPair(IdentityMap(), PowerMap(0.5)), [0.25, 1.0]),
], ids=["t_image", "finite", "metric"])
def test_batch_raises_what_the_per_start_loop_raises(space, maps, starts):
    with pytest.raises(DomainError) as got:
        uniqueness_probe(space, maps, starts)
    for x0 in starts:
        try:
            _reference_picard(space, maps, x0, StoppingRule())
        except DomainError as want:
            assert str(got.value) == str(want)
            break
    else:
        pytest.fail("no start fails one at a time")


def test_diagnose_with_a_single_probe_point():
    space = ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(0.0, 1.0), FunctionMetric(_refusing_metric))
    report = diagnose_T(space, MapPair(IdentityMap(), AffineMap(0.5)), TProbes([0.5], [("short", [0.5])]))
    assert report.injective and report.sequence_findings[0].classification == "consistent"


def test_merge_keeps_the_first_of_coinciding_limits():
    # C-type: every start is its own limit; near and exact repeats merge
    space, maps = _unit_interval(), MapPair(IdentityMap(), IdentityMap())
    rng = np.random.default_rng(3)
    base = rng.uniform(0.0, 1.0, 128).tolist()
    starts = base + [x + 3e-12 for x in base[:64]] + base[64:]
    starts = [starts[i] for i in rng.permutation(len(starts))]
    rule = StoppingRule()
    tol = 10.0 * rule.epsilon
    reps = []
    for z in starts:
        if all(space.gap_norm(z, r) > tol for r in reps):
            reps.append(z)
    verdict = uniqueness_probe(space, maps, starts, rule)
    assert len(starts) == 256 and 64 < len(reps) < 256
    assert verdict.verdict == NON_UNIQUE
    assert verdict.witnesses == reps


def test_cauchy_violations_equal_the_per_pair_loop():
    # S contracts by 0.9: 81 points give 3,240 pairs, of which 2,000 are drawn
    space, maps = _unit_interval(), MapPair(IdentityMap(), AffineMap(0.9))
    trace = picard_iterate(space, maps, 1.0, StoppingRule(max_iter=80))
    h = 0.8
    report = geometric_decay_check(trace, h=h, K=1.0, seed=4)
    tail = trace.gap_norms[0] / (1.0 - h) * (1.0 + 1e-9)
    want = []
    for mm, nn in zip(*(a.tolist() for a in _cauchy_pairs(len(trace.t_images), 2000, 4))):
        actual = space.gap_norm(trace.t_images[mm], trace.t_images[nn])
        if actual > tail * h ** nn:
            want.append((mm, nn, actual, tail * h ** nn))
    assert want and report.cauchy_violations == want
    assert report.cauchy_pairs_checked == 2000


def test_injectivity_violations_equal_the_per_pair_loop():
    space = ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(-1.0, 1.0), DirectionMetric([1.0, 2.0]))
    maps = MapPair(PowerMap(2), AffineMap(0.5))
    pts = list(np.linspace(-1.0, 1.0, 200)) + [0.5, 0.5]
    images = [maps.T(p) for p in pts]
    want = [(pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))
            if point_key(pts[i]) != point_key(pts[j])
            and space.gap_norm(images[i], images[j]) <= INJECTIVITY_TOL]
    report = diagnose_T(space, maps, TProbes(pts, []))
    assert len(want) >= 100 and report.injectivity_violations == want


def test_diagnose_on_a_finite_carrier_matches_the_loop():
    space, maps = finite_from_values(np.arange(8.0), [0, 1, 2, 3, 3, 2, 1, 0], np.arange(8)).as_space_and_maps()
    report = diagnose_T(space, maps)
    pts = list(space.carrier.points)
    want = [(pts[i], pts[j]) for i in range(8) for j in range(i + 1, 8)
            if space.gap_norm(maps.T(pts[i]), maps.T(pts[j])) <= INJECTIVITY_TOL]
    assert report.injectivity_violations == want == [(0, 7), (1, 6), (2, 5), (3, 4)]
    with pytest.raises(DomainError, match="probe point 8"):
        diagnose_T(space, maps, TProbes([0, 8], []))


def _fold(x):
    """x -> |x - 1/2|: on the five numbers of ``_numeric_finite`` it maps
    0 and 1, and 1/4 and 3/4, to one image each."""
    return abs(x - 0.5)


@pytest.mark.parametrize("rho", ["max", "euclidean"])
def test_scalar_metrics_on_numeric_finite_points(rho):
    # on numbers every scalar metric is |x - y|, pair by pair
    space, same = _numeric_finite(rho), _numeric_finite("absdiff")
    assert np.array_equal(DirectionMetric([1.0, 2.0], rho=rho)(0.1, 0.35), same.d(0.1, 0.35))
    pts = list(space.carrier.points)
    maps = MapPair(_fold, AffineMap(0.0, 0.5))
    probes = TProbes(pts, [("down", [1.0, 0.75, 0.5, 0.5, 0.5])])
    want = [(pts[i], pts[j]) for i in range(5) for j in range(i + 1, 5)
            if space.gap_norm(_fold(pts[i]), _fold(pts[j])) <= INJECTIVITY_TOL]
    report = diagnose_T(space, maps, probes)
    assert report.injectivity_violations == want == [(0.0, 1.0), (0.25, 0.75)]
    assert report == diagnose_T(same, maps, probes)
    verdict = uniqueness_probe(space, maps, pts)
    for trace, x0 in zip(verdict.traces, pts):
        _assert_same_run(trace, _reference_picard(space, maps, x0, StoppingRule()))
    assert verdict.verdict == UNIQUE and verdict.fixed_point == 0.5
    assert certify_fixed_point(space, maps, 0.5, 1e-12).certified


@pytest.mark.parametrize("exponent", [3.0, 2.0, 0.5])
def test_power_array_form_is_python_pow_bit_for_bit(exponent):
    lo = 0.0 if exponent == 0.5 else -3.0
    xs = np.random.default_rng(9).uniform(lo, 3.0, 100_000)
    got = PowerMap(exponent).on_array(xs)
    want = np.array([float(x) ** exponent for x in xs.tolist()])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
