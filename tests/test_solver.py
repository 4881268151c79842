import numpy as np
import pytest

from conefix.cone_space import ConeMetricSpace, ConeSpec, ConfigError, DirectionMetric, DomainError, IntervalCarrier
from conefix.contractions import AffineMap, IdentityMap, MapPair, PowerMap
from conefix.oracle import finite_from_values
from conefix.solver import (
    CONVERGED, CYCLE_DETECTED, MAX_ITER, NON_UNIQUE, UNIQUE, UNKNOWN,
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
    assert _cauchy_pairs(npts, samples, 11) == pairs


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
