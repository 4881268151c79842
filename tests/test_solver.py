import csv
import dataclasses
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conefix import solver
from conefix.cli import SCHEMA_VERSION, _dump_json, emit_trace, parse_instance
from conefix.cone_space import (
    BoxCarrier, ConeMetricSpace, ConeSpec, ConfigError, DirectionMetric, DomainError,
    FinitePointsCarrier, FunctionMetric, IntervalCarrier, TabulatedMetric, point_key,
)
from conefix.contractions import AffineMap, IdentityMap, MapPair, PowerMap, TabulatedMap
from conefix.instances import instance_a, instance_d
from conefix.oracle import finite_from_values

from conftest import fixture_doc
from conefix.solver import (
    COINCIDE_FACTOR, CONVERGED, CYCLE_DETECTED, DECAY_HEADROOM, MAX_ITER, NON_UNIQUE,
    UNIQUE, UNKNOWN, StoppingRule, _cauchy_pairs, _certified, _picard_runs, _uniqueness_verdict,
    certify_fixed_point, diagnose_T, geometric_decay_check, picard_iterate, solve,
    solve_starts, uniqueness_probe,
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


@pytest.mark.parametrize("norms, ratios", [
    ([math.inf, math.inf, 1.0, 0.5], [math.nan, 0.0, 0.5]),
    ([1.0, 0.5, math.inf, math.inf], [0.5, math.inf, math.nan]),
])
def test_max_step_ratio_is_nan_wherever_the_nan_ratio_sits(space_a, norms, ratios):
    # inf / inf is a NaN ratio; Python's max would keep it only in front
    space, maps = space_a
    trace = dataclasses.replace(picard_iterate(space, maps, 1.0, StoppingRule(max_iter=3)), norms=np.array(norms))
    assert np.array_equal(trace.step_ratios(), ratios, equal_nan=True)
    assert math.isnan(trace.max_step_ratio())


_HALVING_TRACE = picard_iterate(*instance_a(), 1.0, StoppingRule(max_iter=3))
_norm = st.one_of(st.floats(0.0, allow_infinity=True),
                  st.sampled_from([0.0, math.inf, math.nan, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]))


@settings(max_examples=200, deadline=None)
@given(norms=st.lists(_norm, max_size=12))
def test_max_step_ratio_is_the_largest_step_ratio(norms):
    # the array division gives the bits of the Python ratios, overflows and NaNs included
    trace = dataclasses.replace(_HALVING_TRACE, norms=np.array(norms))
    ratios = [norms[i + 1] / norms[i] for i in range(len(norms) - 1) if norms[i] > 0.0]
    assert _bits(trace.step_ratios()) == _bits(ratios)
    want = float(np.max(ratios)) if ratios else None
    got = trace.max_step_ratio()
    assert got is want is None or np.float64(got).tobytes() == np.float64(want).tobytes()


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

def _on_interval(lo, hi, T, metric=None):
    space = ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(lo, hi), metric or DirectionMetric([1.0, 2.0]))
    return space, MapPair(T, AffineMap(0.5))


def _verdicts(report):
    return (report.continuous, report.injective, report.subsequentially_convergent,
            report.sequentially_convergent)


def test_cubic_t_is_injective(space_b):
    space, maps = space_b
    report = diagnose_T(space, maps)
    assert _verdicts(report) == (True, True, True, True)
    assert report.injectivity_violations == []
    assert report.rules["injective"] == "power map, odd or fractional exponent: injective"
    assert report.rules["subsequentially_convergent"] == "compact carrier"


def test_square_t_fails_injectivity():
    report = diagnose_T(*_on_interval(-1.0, 1.0, PowerMap(2)))
    assert _verdicts(report) == (True, False, True, False)
    assert report.injectivity_violations == [(-1.0, 1.0)]


def test_constant_t_is_not_sequentially_convergent():
    # y_n alternating between x and y != x: T y_n is constant, y_n does not converge
    report = diagnose_T(*_on_interval(0.0, 1.0, AffineMap(0.0, 0.5)))
    assert _verdicts(report) == (True, False, True, False)
    assert report.injectivity_violations == [(0.0, 1.0)]


@pytest.mark.parametrize("lo, hi, T, injective, violations", [
    (0.0, 1.0, AffineMap(1e-13, 0.5), True, []),            # images 1e-13 apart
    (-0.001, 1.0, PowerMap(2), False, [(-0.001, 0.001)]),   # the collision sits next to 0
    (0.0, 1e-120, PowerMap(3), True, []),                   # x ** 3 underflows to 0.0
    (-1.0, 1.0, PowerMap(3), True, []),
    (0.0, 1.0, PowerMap(4), True, []),
    (0.0, 1.0, PowerMap(0), False, [(0.0, 1.0)]),
    (0.5, 2.0, PowerMap(-1), True, []),
    (0.0, 1.0, PowerMap(0.5), True, []),
    (0.0, 1.0, IdentityMap(), True, []),
])
def test_injectivity_is_decided_by_family(lo, hi, T, injective, violations):
    report = diagnose_T(*_on_interval(lo, hi, T))
    assert _verdicts(report) == (True, injective, True, injective)
    assert report.injectivity_violations == violations


@pytest.mark.parametrize("lo, hi, T, message", [
    (0.0, 1.0, PowerMap(-1), "power map produced a non-finite value at 0.0"),
    (-1.0, 1.0, PowerMap(-2), "power map produced a non-finite value at 0.0"),
    (-1.0, 1.0, PowerMap(0.5), "power map produced a non-finite value at -1.0"),
    (0.0, 1.0, AffineMap(2.0), "T-image 2.0 lies outside the carrier"),
    (-1.0, 0.5, PowerMap(2), "T-image 1.0 lies outside the carrier"),
    (0.5, 1.0, PowerMap(3), "T-image 0.125 lies outside the carrier"),
])
def test_a_map_off_the_carrier_raises_where_it_fails(lo, hi, T, message):
    with pytest.raises(DomainError) as got:
        diagnose_T(*_on_interval(lo, hi, T))
    assert str(got.value) == message


def test_other_maps_and_function_metrics_are_undecided():
    def never(x):
        raise AssertionError("T was evaluated")

    report = diagnose_T(*_on_interval(0.0, 1.0, never))
    assert _verdicts(report) == (None, None, True, None)
    assert report.injectivity_violations == []
    assert report.rules["injective"].startswith("unknown")
    # injectivity is a property of the map alone; the topology is the metric's
    report = diagnose_T(*_on_interval(0.0, 1.0, AffineMap(0.0, 0.5), FunctionMetric(_refusing_metric)))
    assert _verdicts(report) == (None, False, None, None)
    assert report.injectivity_violations == [(0.0, 1.0)]
    assert report.rules["continuous"] == report.rules["sequentially_convergent"] == \
        "unknown: a function metric's topology"


def test_diagnose_on_a_box_acts_per_coordinate():
    space = ConeMetricSpace(ConeSpec.orthant(2), BoxCarrier([-1.0, -2.0], [1.0, 2.0]),
                            DirectionMetric([1.0, 2.0], rho="max"))
    assert _verdicts(diagnose_T(space, MapPair(AffineMap(-0.5), IdentityMap()))) == (True, True, True, True)
    report = diagnose_T(space, MapPair(AffineMap(0.0, 0.5), IdentityMap()))
    assert _verdicts(report) == (True, False, True, False)
    [(x, y)] = report.injectivity_violations
    assert x.tolist() == [-1.0, -2.0] and y.tolist() == [1.0, 2.0]
    with pytest.raises(DomainError, match=r"^T-image array\(\[-2\., -4\.\]\) lies outside the carrier$"):
        diagnose_T(space, MapPair(AffineMap(2.0), IdentityMap()))
    # a power map takes numbers only, so its call fails on the first box point
    with pytest.raises(TypeError):
        diagnose_T(space, MapPair(PowerMap(3), IdentityMap()))


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


def _exact_images(T, lo, hi, xs):
    """Each T x for the rationals xs, exactly, as a key (equal keys, equal
    images), or None where T x is undefined or outside [lo, hi].  A power
    x^(p/2), p odd, is keyed by its square x^p, which only x >= 0 has."""
    e = Fraction(T.exponent) if isinstance(T, PowerMap) else None
    keys = []
    for x in xs:
        if e is None:
            y = x if isinstance(T, IdentityMap) else Fraction(T.alpha) * x + Fraction(T.beta)
        elif (x == 0 and e < 0) or (x < 0 and e.denominator != 1):
            y = None
        elif e.denominator == 1:
            y = x ** int(e)
        else:
            sq = x ** e.numerator
            keys.append(sq if (lo <= 0 or lo * lo <= sq) and 0 <= hi and sq <= hi * hi else None)
            continue
        keys.append(y if y is not None and lo <= y <= hi else None)
    return keys


_eighths = st.integers(-16, 16).map(lambda k: k / 8)
_families = st.one_of(st.just(IdentityMap()), st.builds(AffineMap, _eighths, _eighths),
                      st.builds(PowerMap, st.sampled_from([0, 1, 2, 3, 4, -1, -2, 0.5, 1.5])))


@settings(max_examples=400, deadline=None)
@given(a=st.integers(-128, 128), b=st.integers(-128, 128), T=_families)
def test_diagnose_equals_the_exact_check_on_a_dyadic_grid(a, b, T):
    # carriers [a/64, b/64] in [-2, 2]: the grid of 1/64 steps holds the
    # bounds, 0 where it lies inside, and a colliding pair when T has one
    assume(a < b)
    grid = [Fraction(k, 64) for k in range(a, b + 1)]
    keys = _exact_images(T, grid[0], grid[-1], grid)
    space, maps = _on_interval(a / 64, b / 64, T)
    if None in keys:
        with pytest.raises(DomainError):
            diagnose_T(space, maps)
    else:
        report = diagnose_T(space, maps)
        assert report.injective == (len(set(keys)) == len(keys)) == (not report.injectivity_violations)
        for x, y in report.injectivity_violations:
            kx, ky = _exact_images(T, grid[0], grid[-1], [Fraction(x), Fraction(y)])
            assert x != y and kx is not None and kx == ky


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
        # a map undefined at a point raises its own error; an image outside
        # the carrier names the step
        escaped = f"iterate {len(pts) - 1} escaped the carrier"
        y = maps.S(pts[-1])
        if not space.carrier.contains(y):
            raise DomainError(f"{escaped}: S-image {y!r} lies outside the carrier")
        ty = maps.T(y)
        if not space.carrier.contains(ty):
            raise DomainError(f"{escaped}: T-image {ty!r} lies outside the carrier")
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
    assert all(g.shape == (trace.space.cone.dimension,) for g in trace.t_image_gaps)
    assert _bits(trace.t_image_gaps) == _bits(gaps) and _bits(trace.gap_norms) == _bits(norms)


def _bits(values):
    """The float bits of ``values``, so that NaN equals NaN and -0.0 differs from 0.0."""
    arr = np.asarray(values, dtype=float)
    return arr.shape, arr.view(np.int64).tolist()


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
    # S is undefined at the second start: the map's own error, unprefixed
    (ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(-1.0, 1.0), DirectionMetric([1.0, 2.0])),
     MapPair(IdentityMap(), PowerMap(0.5)), [0.25, -0.5]),
], ids=["t_image", "finite", "metric", "undefined"])
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


@pytest.mark.parametrize("space, starts", [
    (_unit_interval(), np.linspace(0.0, 1.0, 5)),
    (_unit_box("max", "max"), np.random.default_rng(2).uniform(0.0, 1.0, (4, 2))),
])
def test_uniqueness_probe_takes_an_array_of_starts(space, starts):
    maps = MapPair(IdentityMap(), AffineMap(0.5))
    got, want = uniqueness_probe(space, maps, starts), uniqueness_probe(space, maps, list(starts))
    assert got.verdict == want.verdict == UNIQUE
    assert np.array_equal(got.fixed_point, want.fixed_point) and got.witnesses == want.witnesses == []
    for trace, same in zip(got.traces, want.traces, strict=True):
        _assert_same_run(trace, (same.x_sequence, same.t_images, same.t_image_gaps, same.gap_norms,
                                 same.stop_reason))


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


def test_diagnose_on_a_finite_carrier():
    space, maps = finite_from_values(np.arange(8.0), [0, 1, 2, 3, 3, 2, 1, 0], np.arange(8)).as_space_and_maps()
    report = diagnose_T(space, maps)
    assert _verdicts(report) == (True, False, True, False)
    assert report.injectivity_violations == [(0, 7), (1, 6), (2, 5), (3, 4)]
    assert _verdicts(diagnose_T(space, MapPair(maps.S, maps.S))) == (True, True, True, True)
    # an image outside the carrier is named as the scalar map finds it
    shifted = MapPair(lambda k: {5: 8}.get(k, k), maps.S)
    with pytest.raises(DomainError, match="^T-image 8 lies outside the carrier$"):
        diagnose_T(space, shifted)


def test_diagnose_agrees_with_the_oracle(tz_corpus, twu_corpus, plain_corpus):
    # every corpus T is injective, so each instance also runs with its S table as T
    fins = [g.fin for g in tz_corpus] + [g.fin for g in twu_corpus] + list(plain_corpus)
    fins += [dataclasses.replace(fin, t_table=fin.s_table) for fin in fins]
    assert len(fins) == 280 and sum(not fin.t_injective for fin in fins) > 100
    for fin in fins:
        report = diagnose_T(*fin.as_space_and_maps())
        t = fin.t_table.tolist()
        want = [(i, j) for i in range(fin.n) for j in range(i + 1, fin.n) if t[i] == t[j]]
        assert report.injective == fin.t_injective == report.sequentially_convergent
        assert report.injectivity_violations == want


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


# ---------------------------------------------------------------------------
# The batch engine against the per-start loop
# ---------------------------------------------------------------------------

def _nan_metric(x, y):
    return [np.nan, np.nan]


@st.composite
def engine_cases(draw):
    """A space, maps, 1-300 starts (with repeats, and sometimes points
    outside the carrier) and a stopping rule.  The families give fixed
    starts (identity S), period-2 cycles, rotations of up to 70 points
    (cycles longer than 50 steps), slow runs stopped by max_iter, NaN gap
    norms, and runs that leave the carrier, or reach a point the metric
    refuses, at a step that depends on the start."""
    kind = draw(st.sampled_from(["interval", "box", "tabulated", "numeric", "nan", "refusing"]))
    rule = StoppingRule(epsilon=draw(st.sampled_from([1e-12, 1e-3])),
                        max_iter=draw(st.sampled_from([1, 3, 60, 300])))
    outside = draw(st.booleans())
    floats = st.floats(0.0, 1.0)
    if kind == "interval":
        space = _unit_interval()
        T = draw(st.sampled_from([IdentityMap(), AffineMap(0.5, 0.25), PowerMap(3)]))
        S = draw(st.sampled_from([AffineMap(0.5), AffineMap(-1.0, 1.0), PowerMap(2), IdentityMap(),
                                  AffineMap(255 / 256), AffineMap(2.0), AffineMap(-0.5, 0.75)]))
        pool = [0.0, 0, 1, 1.0, 0.5, 0.3, 0.7, 0.01] + draw(st.lists(floats, max_size=8))
        pool += [1.5, -0.25] if outside else []
    elif kind == "box":
        space = _unit_box(*draw(st.sampled_from([("euclidean", "euclidean"), ("max", "max")])))
        T = AffineMap(0.5, 0.25)
        S = draw(st.sampled_from([AffineMap(0.5), AffineMap(-1.0, 1.0), IdentityMap(), AffineMap(2.0)]))
        pool = [np.array(p) for p in ([1.0, 0.5], [0.2, 0.9], [0.0, 0.0], [0.5, 0.5], [0.1, 0.01])]
        pool += [np.array([1.5, 0.0])] if outside else []
    elif kind == "tabulated":
        n = draw(st.sampled_from([2, 5, 12, 51, 70]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        s_table = (np.arange(n) + 1) % n if draw(st.booleans()) else rng.integers(0, n, n)
        fin = finite_from_values(np.sort(rng.uniform(0.0, 4.0, n)), rng.integers(0, n, n), s_table)
        (space, maps), pool = fin.as_space_and_maps(), list(range(n + outside))    # label n is not a point
    elif kind == "numeric":
        space = _numeric_finite(draw(st.sampled_from(["absdiff", "max", "euclidean"])))
        T = draw(st.sampled_from([IdentityMap(), AffineMap(-1.0, 1.0)]))
        S = draw(st.sampled_from([AffineMap(-1.0, 1.0), AffineMap(0.0, 0.5), AffineMap(0.5), IdentityMap()]))
        pool = [0.0, 0.25, 0.5, 0.75, 1.0] + ([0.3] if outside else [])
    elif kind == "nan":
        space = ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(0.0, 1.0), FunctionMetric(_nan_metric))
        T, S = IdentityMap(), draw(st.sampled_from([AffineMap(255 / 256), IdentityMap(), AffineMap(-1.0, 1.0)]))
        pool = [0.0, 0.5, 1.0, 0.3] + draw(st.lists(floats, max_size=4))
    else:
        space = ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(0.0, 1.0), FunctionMetric(_refusing_metric))
        T, S = IdentityMap(), PowerMap(0.5)
        pool = [0.0, 0.25, 0.5, 0.01, 0.8] + draw(st.lists(floats, max_size=4)) + ([1.0] if outside else [])
    if kind != "tabulated":
        maps = MapPair(T, S)
    size = draw(st.sampled_from([1, 2, 5, 50, 300]))
    starts = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return space, maps, starts, rule


def _rotation_case(n, starts, max_iter):
    fin = finite_from_values(np.arange(n, dtype=float), np.arange(n), (np.arange(n) + 1) % n)
    return (*fin.as_space_and_maps(), starts, StoppingRule(max_iter=max_iter))


def _long_rotation_case():
    """A 700-point rotation under a direction metric: its cycles span more
    than one chunk of kept steps (STEP_CHUNK)."""
    points = list(range(700))
    space = ConeMetricSpace(ConeSpec.orthant(2), FinitePointsCarrier(points), DirectionMetric([1.0, 2.0]))
    maps = MapPair(IdentityMap(), TabulatedMap(points, points[1:] + points[:1]))
    return space, maps, [0, 350, 699, 0], StoppingRule(max_iter=1000)


def _tabulated_case(images: dict, n: int, starts: list, max_iter: int = 1_000_000):
    """Points 0..n-1 under a direction metric, T the identity table and S
    the table ``images`` (a point missing from it is fixed; an image that
    is not a point leaves the carrier): both maps have array forms, so
    long runs step in blocks."""
    points = list(range(n))
    space = ConeMetricSpace(ConeSpec.orthant(2), FinitePointsCarrier(points), DirectionMetric([1.0, 2.0]))
    maps = MapPair(TabulatedMap(points, points), TabulatedMap(points, [images.get(i, i) for i in points]))
    return space, maps, starts, StoppingRule(max_iter=max_iter)


def _path(a, b) -> dict:
    return {i: i + 1 for i in range(a, b)}


def _block_cases() -> list:
    """Events after step 32, inside blocks (which start at step 16)."""
    # x^2 on [0, 1.5]: the first run converges at step 34, and the second
    # leaves the carrier at step 35, in the same block
    escape = (ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(0.0, 1.5), DirectionMetric([1.0, 2.0])),
              MapPair(IdentityMap(), PowerMap(2)), [1 - 2.0 ** -29, 1 + 2.0 ** -37], StoppingRule())
    # image 100 is not a point (index -1, which wraps to the last point
    # inside a block): starts 3 and 0 reach it at steps 41 and 44
    wrap = _tabulated_case(_path(0, 44) | {44: 100}, 60, [0, 46, 3])
    # T = 1/x: the runs converge at steps 35 and 38 as x grows; inside
    # the block, the first run's squares overflow after its stop
    overflow = (ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(0.0, 1.7976931348623157e308),
                                DirectionMetric([1.0, 2.0])),
                MapPair(PowerMap(-1), PowerMap(2)), [1 + 2.0 ** -30, 1 + 2.0 ** -33], StoppingRule())
    # max_iter 50 ends a block cut to 11 steps.  Start 0 first repeats
    # point 33 (seen at step 32) at step 37; start 40 repeats point 45
    # (seen at step 4) at step 39; start 270 repeats point 300 at step 45,
    # in the last block; the 51-point rotation from 80 repeats at step 50,
    # where max_iter wins; the path from 131 reaches its fixed point at
    # step 50, where converged wins; the path from 182 runs on.
    rho = _path(0, 37) | {37: 33} | _path(40, 79) | {79: 45} | _path(270, 315) | {315: 300}
    stops = _tabulated_case(rho | _path(80, 130) | {130: 80} | _path(131, 181) | _path(182, 260), 316,
                            [0, 40, 80, 131, 182, 270], 50)
    # box carriers: runs that converge at steps 39 and 40, and runs that
    # max_iter 300 stops at the end of a block cut to 37 steps
    box = (_unit_box("euclidean", "euclidean"), MapPair(AffineMap(0.5, 0.25), AffineMap(0.5)),
           [np.array([1.0, 0.5]), np.array([0.2, 0.9]), np.zeros(2)], StoppingRule())
    slow_box = (_unit_box("max", "max"), MapPair(AffineMap(0.5, 0.25), AffineMap(255 / 256)),
                [np.array([1.0, 0.5]), np.array([0.2, 0.9])], StoppingRule(max_iter=300))
    return [escape, wrap, overflow, stops, box, slow_box]


@settings(max_examples=100, deadline=None)
@given(case=engine_cases())
@example(case=_block_cases()[0])
@example(case=_block_cases()[1])
@example(case=_block_cases()[2])
@example(case=_block_cases()[3])
@example(case=_block_cases()[4])
@example(case=_block_cases()[5])
@example(case=_rotation_case(60, [7 * k % 60 for k in range(300)], 300))   # 300 cycles of 60 steps
@example(case=_rotation_case(60, list(range(60)) + [60] + list(range(60)), 300))   # label 60 is outside
@example(case=_long_rotation_case())
@example(case=(_unit_interval(), MapPair(IdentityMap(), AffineMap(255 / 256)), [1.0, 0.5, 0.0, 1.0],
               StoppingRule(max_iter=1300)))    # runs of 1,300 steps stopped by max_iter
def test_batch_engine_equals_the_per_start_loop(case):
    # every row as a run of its own start, or, when a start fails, the
    # error of the first failing start, at its own step
    space, maps, starts, rule = case
    want, first_error, memo = [], None, {}
    for x0 in starts:
        key = (type(x0), point_key(x0))
        if key not in memo:
            try:
                memo[key] = _reference_picard(space, maps, x0, rule)
            except DomainError as exc:
                memo[key] = exc
        if isinstance(memo[key], Exception):
            first_error = memo[key]
            break
        want.append(memo[key])
    if first_error is not None:
        with pytest.raises(DomainError) as got:
            _picard_runs(space, maps, list(starts), rule)
        assert (type(got.value), str(got.value)) == (type(first_error), str(first_error))
        return
    runs = _picard_runs(space, maps, list(starts), rule)
    assert len(runs) == len(want)
    for trace, reference in zip(runs, want):
        _assert_same_run(trace, reference)


def test_a_long_lone_run_steps_in_blocks():
    # 1,500 steps to max_iter take one carrier mask per single step or
    # block: 16 single steps, then blocks of 8, 16, ..., 256 steps
    space, maps = _unit_interval(), MapPair(IdentityMap(), AffineMap(255 / 256))
    rule, masks, mask = StoppingRule(max_iter=1500), [], space.carrier.mask
    space.carrier.mask = lambda xs: masks.append(len(xs)) or mask(xs)
    trace = picard_iterate(space, maps, 0.640625, rule)
    _assert_same_run(trace, _reference_picard(space, maps, 0.640625, rule))
    assert trace.stop_reason == MAX_ITER and len(trace.gaps) == sum(masks) == 1501
    assert len(masks) < 30 and max(masks) == 256


def _overflowing_swap():
    """S = -x on [-1e308, 1e308]: from 1e308 every gap overflows to inf."""
    space = ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(-1e308, 1e308), DirectionMetric([1.0, 2.0]))
    return space, MapPair(IdentityMap(), AffineMap(-1.0))


@pytest.mark.filterwarnings("error")
def test_decay_check_counts_nan_bounds_as_violations():
    # h = 0 and d_0 = inf make every bound after the first K * 0 * inf = NaN;
    # the overflowing gaps and bounds raise no numpy warning
    space, maps = _overflowing_swap()
    trace = picard_iterate(space, maps, 1e308)
    assert trace.stop_reason == CYCLE_DETECTED and trace.gap_norms == [np.inf, np.inf]
    report = geometric_decay_check(trace, h=0.0)
    assert not report.per_step_ok and not report.cauchy_ok
    ((n, gn, bound),) = report.per_step_violations
    assert (n, gn) == (1, np.inf) and np.isnan(bound)


def _reference_decay(trace, h, K, seed):
    """The decay check one step and one pair at a time, with Python floats:
    a pair fails unless its value is at most its bound, so NaN fails."""
    d0, headroom = trace.gap_norms[0], 1.0 + DECAY_HEADROOM
    powers = [h ** n for n in range(len(trace.t_images))]
    steps = []
    for n, gn in enumerate(trace.gap_norms):
        bound = K * powers[n] * d0 * headroom
        if not gn <= bound:
            steps.append((n, gn, bound))
    pairs, tail = [], K * d0 / (1.0 - h) * headroom
    for m, n in zip(*(a.tolist() for a in _cauchy_pairs(len(trace.t_images), 2000, seed))):
        with np.errstate(over="ignore", invalid="ignore"):
            actual = trace.space.gap_norm(trace.t_images[m], trace.t_images[n])
        if not actual <= tail * powers[n]:
            pairs.append((m, n, actual, tail * powers[n]))
    return steps, pairs


@settings(max_examples=60, deadline=None)
@given(case=engine_cases(), h=st.sampled_from([0.0, 0.25, 0.5, 0.9]), K=st.sampled_from([1.0, 3.0]),
       seed=st.integers(0, 3))
@example(case=(*_overflowing_swap(), [1e308], StoppingRule()), h=0.0, K=1.0, seed=0)
def test_decay_check_equals_the_per_step_loop(case, h, K, seed):
    space, maps, starts, rule = case
    try:
        runs = _picard_runs(space, maps, list(starts), rule)
    except DomainError:
        return
    for trace in runs[:2]:
        report = geometric_decay_check(trace, h, K, seed=seed)
        steps, pairs = _reference_decay(trace, h, K, seed)
        assert _bits(report.per_step_violations) == _bits(steps)
        assert _bits(report.cauchy_violations) == _bits(pairs)
        assert (report.per_step_ok, report.cauchy_ok) == (not steps, not pairs)


def _greedy_merge(space, maps, traces, rule):
    """The merge over all k(k-1)/2 pairs of limits, as ``uniqueness_probe``
    documents it: each limit joins the first earlier representative within
    tolerance, or becomes one."""
    if any(t.stop_reason != CONVERGED for t in traces):
        return UNKNOWN, None, []
    tol = COINCIDE_FACTOR * rule.epsilon
    lasts = [t.last for t in traces]
    zs = space.carrier.to_array(lasts)
    k = len(zs)
    a, b = np.tril_indices(k, -1)
    apart = np.zeros((k, k), dtype=bool)
    apart[a, b] = space.cone.norm_rows(space.pairwise(zs[a], zs[b])) > tol
    chosen = []
    for z in range(k):
        if apart[z, chosen].all():
            chosen.append(z)
    if len(chosen) == 1:
        return UNIQUE, lasts[chosen[0]], []
    certified = _certified(space, maps, [lasts[z] for z in chosen], zs[chosen], rule.epsilon)
    return (NON_UNIQUE if len(certified) >= 2 else UNKNOWN), None, certified


def _fixed_starts(starts, epsilon=1e-3):
    """Identity S on [0, 1]: every start is its own limit.  Two limits
    coincide within 10 epsilon in the max norm of (1, 2)|x - y|, so when
    |x - y| <= 0.005."""
    return _unit_interval(), MapPair(IdentityMap(), IdentityMap()), starts, StoppingRule(epsilon=epsilon)


@settings(max_examples=100, deadline=None)
@given(case=engine_cases())
@example(case=_fixed_starts([0.5, 0.5045, 0.4955, 0.5, 0.50245]))     # all within tolerance of the first
@example(case=_fixed_starts([0.9, 0.5, 0.5, 0.5025]))               # one outlier, first
@example(case=_fixed_starts([0.5, 0.5, 0.5025, 0.9]))               # one outlier, last
@example(case=_fixed_starts([0.1, 0.2, 0.3, 0.4, 0.5]))            # all distinct
@example(case=_fixed_starts([0.5, 0.5045, 0.509, 0.5135]))           # a chain: each near the last
@example(case=_fixed_starts([0.5, 0.5048828125], 2 ** -10))        # exactly at the tolerance: coincide
def test_merge_equals_the_greedy_merge_over_all_pairs(case):
    space, maps, starts, rule = case
    try:
        runs = _picard_runs(space, maps, list(starts), rule)
    except DomainError:
        return
    got = _uniqueness_verdict(space, maps, runs, rule)
    verdict, point, witnesses = _greedy_merge(space, maps, runs, rule)
    assert (got.verdict, repr(got.fixed_point), repr(got.witnesses)) == (verdict, repr(point), repr(witnesses))
    assert type(got.fixed_point) is type(point)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(case=engine_cases())
@example(case=(_unit_interval(), MapPair(IdentityMap(), AffineMap(0.5)), [1.0, 0.0], StoppingRule(max_iter=1)))
@example(case=_fixed_starts([0.5, 0.25]))      # identity S: each run converges at step 0
@example(case=(ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(0.0, 1.0), FunctionMetric(_nan_metric)),
               MapPair(IdentityMap(), IdentityMap()), [0.5], StoppingRule()))    # NaN gap: cycles at step 0
@example(case=(_unit_interval(), MapPair(IdentityMap(), AffineMap(255 / 256)), [1.0], StoppingRule(max_iter=3)))
def test_every_trace_has_a_gap(case):
    # step 0's gap is kept before any stop is decided, so the decay check
    # and the trace writer always have a d_0
    space, maps, starts, rule = case
    try:
        runs = _picard_runs(space, maps, list(starts), rule)
    except DomainError:
        return
    assert all(len(t.gaps) >= 1 and len(t.norms) == len(t.gaps) for t in runs)
    assert {len(t.gaps) - t.n_final for t in runs} <= {0, 1}
    for t in runs:
        geometric_decay_check(t, 0.5)


@pytest.mark.parametrize("name, x0", [("instance_a", 0.3), ("instance_c", 0), ("instance_d", 9),
                                      ("instance_d_twu", 0)])
def test_solve_runs_x0_once(monkeypatch, name, x0):
    # picard_iterate runs x0 for the trace, and one more engine call runs
    # the carrier's starts for the probe, x0's equal among them included
    inst = parse_instance(json.dumps(fixture_doc(name)))
    calls, engine = [], _picard_runs

    def counted(space, maps, starts, rule):
        calls.append(list(starts))
        return engine(space, maps, starts, rule)

    monkeypatch.setattr(solver, "_picard_runs", counted)
    trace, _, _, probe = solve(inst.space, inst.maps, x0, StoppingRule())
    assert calls == [[x0], solve_starts(inst.space.carrier)]
    assert (trace in probe.traces) == (len(solve_starts(inst.space.carrier, x0)) > len(calls[1]))


def test_solve_reads_an_integral_float_as_the_integer_point():
    space, maps = instance_d().as_space_and_maps()
    trace, check, decay, probe = solve(space, maps, 9.0, StoppingRule())
    assert type(trace.start) is int and trace.x_sequence[0] == 9
    assert decay.h == 0.0 and probe.verdict == UNIQUE


_bound = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(lo=_bound, hi=_bound)
@example(lo=1e308, hi=1.5e308)              # lo + hi overflows
@example(lo=-1.7976931348623157e308, hi=-1e308)
@example(lo=-1e308, hi=1e308)               # hi - lo overflows, lo + hi does not
@example(lo=5e-324, hi=2.5e-323)           # 0.5 lo + 0.5 hi rounds apart from 0.5 (lo + hi)
@example(lo=-5e-324, hi=0.0)                # the middle -0.0 has the key of hi, 0.0
def test_solve_starts_have_a_finite_middle_in_the_carrier(lo, hi):
    assume(lo < hi)
    with np.errstate(over="ignore"):
        today = 0.5 * (lo + hi)
    interval, box = IntervalCarrier(lo, hi), BoxCarrier([lo, -1.0], [hi, 1.0])
    for carrier in (interval, box):
        assert all(carrier.contains(s) and np.isfinite(s).all() for s in solve_starts(carrier))
    starts, (_, middle, _) = solve_starts(interval), solve_starts(box)   # a box middle ends in 0: never merged
    assert {type(s) for s in starts} == {float} and middle[1] == 0.0
    if math.isfinite(today):    # today's bits (an interval's middle may merge with an end of its key)
        assert middle[0].tobytes() == np.float64(today).tobytes()
        assert np.float64(today).tobytes() in [np.float64(s).tobytes() for s in starts]


# ---------------------------------------------------------------------------
# The trace writer against the per-number writer
# ---------------------------------------------------------------------------

def _fmt17(v):
    return format(float(v), ".17g")


def _reference_point_cell(x):
    if isinstance(x, np.ndarray):
        return ";".join(_fmt17(c) for c in x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _fmt17(x)


def _reference_emit_trace(trace, fmt, h, K):
    """The trace writer that formats one number at a time from per-row
    tuples; it raises ValueError on a string label in CSV."""
    d0 = trace.gap_norms[0]
    rows = [(n, trace.x_sequence[n], gap, trace.gap_norms[n], K * h ** n * d0)
            for n, gap in enumerate(trace.t_image_gaps)]
    if fmt == "csv":
        lines = ["n,x_n,gap_vector,gap_norm,cumulative_bound"] + [
            ",".join([str(n), _reference_point_cell(x), ";".join(_fmt17(c) for c in gap), _fmt17(norm), _fmt17(bound)])
            for n, x, gap, norm, bound in rows
        ]
        return "\n".join(lines) + "\n"
    payload = {
        "schema_version": SCHEMA_VERSION, "h": h, "K": K, "stop_reason": trace.stop_reason,
        "rows": [{"n": n, "x_n": x, "gap_vector": gap, "gap_norm": norm, "cumulative_bound": bound}
                 for n, x, gap, norm, bound in rows],
    }
    return _dump_json(payload, None)


_LABELS = ["p0", "a,b", 'say "hi"', "line\nbreak", "cr\rlf", "p5"]


@st.composite
def _string_label_cases(draw):
    """A finite carrier of string labels, some of which CSV must quote,
    under a drawn tabulated S and a tabulated metric."""
    n = len(_LABELS)
    table = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))[:, :, None] * np.array([1.0, 2.0])
    space = ConeMetricSpace(ConeSpec.orthant(2), FinitePointsCarrier(_LABELS), TabulatedMetric(table))
    images = draw(st.lists(st.sampled_from(_LABELS), min_size=n, max_size=n))
    starts = draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=6))
    rule = StoppingRule(max_iter=draw(st.sampled_from([1, 3, 60])))
    return space, MapPair(IdentityMap(), TabulatedMap(_LABELS, images)), starts, rule


def _identity_starts(starts, hi=1.0):
    """Identity S on [0, hi]: every run stays at its start, of its own type."""
    space = ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(0.0, hi), DirectionMetric([1.0, 2.0]))
    return space, MapPair(IdentityMap(), IdentityMap()), starts, StoppingRule()


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(engine_cases(), _string_label_cases()),
       h=st.one_of(st.sampled_from([0.0, 0.5, 0.9]), st.floats(0.0, 1.0, exclude_max=True)),
       K=st.one_of(st.just(1.0), st.floats(1.0, 10.0)))
@example(case=(*_overflowing_swap(), [1e308, -1e308], StoppingRule()), h=0.0, K=1.0)    # inf gaps
@example(case=_identity_starts([1, 0, 10 ** 20], hi=1e20), h=0.5, K=3.0)       # int starts under identity S
@example(case=(_unit_interval(), MapPair(IdentityMap(), AffineMap(255 / 256)), [1.0, 1], StoppingRule(max_iter=3)),
         h=0.25, K=1.0)     # max_iter stops
@example(case=_long_rotation_case(), h=0.9, K=2.0)
def test_trace_writer_equals_the_per_number_writer(case, h, K):
    # the CSV and JSON text equal the per-number writer's wherever it runs;
    # where it dies on a string label, the CSV reads back as the labels and
    # the per-number writer's other cells
    space, maps, starts, rule = case
    try:
        runs = _picard_runs(space, maps, list(starts), rule)
    except DomainError:
        return
    for trace in runs[:3]:
        for fmt in ("csv", "json"):
            got = emit_trace(trace, fmt, h=h, K=K)
            try:
                want = _reference_emit_trace(trace, fmt, h, K)
            except ValueError:
                assert fmt == "csv" and {type(x) for x in trace.x_sequence} == {str}
                numbered = dataclasses.replace(trace)
                numbered.x_sequence = list(range(len(trace.x_sequence)))
                rows = list(csv.reader(io.StringIO(got, newline="")))
                reference = list(csv.reader(io.StringIO(_reference_emit_trace(numbered, fmt, h, K))))
                assert [r[1] for r in rows[1:]] == trace.x_sequence[:len(rows) - 1]
                assert [r[:1] + r[2:] for r in rows] == [r[:1] + r[2:] for r in reference]
                continue
            assert got == want
