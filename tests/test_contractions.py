import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefix.cone_space import ConeMetricSpace, ConeSpec, ConfigError, DirectionMetric, IntervalCarrier
from conefix.contractions import (
    AffineMap, ClassSpec, IdentityMap, MapPair, all_pairs, check_condition, fit_constants,
    grid_pairs, promote_to_weak, rate_from_primary_form, sampled_pairs,
    verify_zamfirescu_reduction, zamfirescu_delta,
)
from conefix.instances import instance_a, instance_c
from conefix.oracle import exhaustive_promotion_check, finite_from_values


# ---------------------------------------------------------------------------
# zamfirescu_delta
# ---------------------------------------------------------------------------

def test_delta_examples():
    assert zamfirescu_delta(0.5, 0.25, 1.0 / 3.0) == 0.5
    assert zamfirescu_delta(0.0, 0.0, 0.0) == 0.0
    assert zamfirescu_delta(0.2, 0.4, 0.1) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert 0.0 <= zamfirescu_delta(0.99, 0.49, 0.49) < 1.0


def test_delta_range_errors():
    with pytest.raises(ConfigError):
        zamfirescu_delta(1.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        zamfirescu_delta(0.0, 0.5, 0.0)
    with pytest.raises(ConfigError):
        zamfirescu_delta(0.0, 0.0, -0.1)


def test_class_spec_ranges():
    with pytest.raises(ConfigError):
        ClassSpec.tb(1.0)
    with pytest.raises(ConfigError):
        ClassSpec.tk(0.5)
    with pytest.raises(ConfigError):
        ClassSpec.tw(0.5, -1.0)
    ClassSpec.tz(0.99, 0.49, 0.0)  # boundary-adjacent but in range


# ---------------------------------------------------------------------------
# check_condition
# ---------------------------------------------------------------------------

def test_instance_a_is_exact_tb_half(space_a):
    space, maps = space_a
    report = check_condition(space, maps, ClassSpec.tb(0.5), grid_pairs(space)[:400])
    assert report.holds
    assert report.pairs_checked == 400


def test_instance_a_tb_04_violation_at_endpoints(space_a):
    space, maps = space_a
    report = check_condition(space, maps, ClassSpec.tb(0.4), [(0.0, 1.0)])
    assert not report.holds
    v = report.violations[0]
    assert np.array_equal(v.lhs, [0.5, 1.0])
    assert np.array_equal(v.rhs, [0.4, 0.8])
    assert np.allclose(v.residual, [-0.1, -0.2])


def test_instance_c_is_weak_with_half_half(space_c):
    space, maps = space_c
    pairs = grid_pairs(space)
    report = check_condition(space, maps, ClassSpec.tw(0.5, 0.5), pairs[: 50 * 50])
    assert report.holds


def test_empty_pair_set_is_inconclusive(space_a):
    space, maps = space_a
    report = check_condition(space, maps, ClassSpec.tb(0.5), [])
    assert report.inconclusive
    assert report.holds  # vacuously, but flagged


def test_tz_branch_stats_and_monotonicity(space_a):
    space, maps = space_a
    pairs = sampled_pairs(space, 200, seed=9)
    tb = check_condition(space, maps, ClassSpec.tb(0.5), pairs)
    assert tb.holds
    # TZ1 subsumes TB for any in-range b, c
    for b, c in ((0.0, 0.0), (0.25, 0.1), (0.49, 0.49)):
        tz = check_condition(space, maps, ClassSpec.tz(0.5, b, c), pairs)
        assert tz.holds
        assert tz.branch_stats["TZ1"] == len(pairs)


@settings(max_examples=40, deadline=None)
@given(lam=st.integers(1, 64).map(lambda k: k / 16.0))
def test_condition_verdict_is_scale_invariant(lam):
    # multiplying the metric direction by lam > 0 changes no verdict
    cone = ConeSpec.orthant(2)
    carrier = IntervalCarrier(0.0, 1.0, grid=9)
    maps = MapPair(IdentityMap(), AffineMap(0.5))
    pairs = [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5)]
    verdicts = []
    for scale in (1.0, lam):
        space = ConeMetricSpace(cone, carrier, DirectionMetric(np.array([1.0, 2.0]) * scale))
        for spec in (ClassSpec.tb(0.5), ClassSpec.tb(0.4), ClassSpec.tw(0.25, 0.3)):
            verdicts.append(check_condition(space, maps, spec, pairs).holds)
    assert verdicts[:3] == verdicts[3:]


# ---------------------------------------------------------------------------
# Zamfirescu reduction
# ---------------------------------------------------------------------------

def test_reduction_holds_on_instance_a(space_a):
    space, maps = space_a
    pairs = sampled_pairs(space, 10_000, seed=4)
    report = verify_zamfirescu_reduction(space, maps, 0.5, 0.0, 0.0, pairs)
    assert report.applicable
    assert report.delta == 0.5
    assert report.primary.holds and report.dual.holds


def test_reduction_trivial_on_diagonal_pairs(space_a):
    space, maps = space_a
    report = verify_zamfirescu_reduction(space, maps, 0.5, 0.0, 0.0, [(0.3, 0.3)])
    assert report.holds


def test_reduction_not_applicable_when_tz_fails(space_a):
    space, maps = space_a
    report = verify_zamfirescu_reduction(space, maps, 0.25, 0.0, 0.0, [(0.0, 1.0)])
    assert not report.applicable
    assert report.primary is None
    assert report.tz_report.violations


def test_reduction_on_pair_where_only_tz2_holds():
    # crafted so that the pair (0, 1) satisfies only the Kannan-style
    # branch with b = 1/4; the reduced inequality must then hold with
    # delta = max{0, (1/4)/(3/4), 0} = 1/3 on that pair.
    fin = finite_from_values(
        [0.0, 8.0, 4.0, 5.0], t_table=[0, 1, 2, 3], s_table=[2, 3, 2, 3]
    )
    space, maps = fin.as_space_and_maps()
    pair = [(0, 1)]
    assert not check_condition(space, maps, ClassSpec.tb(0.0), pair).holds
    assert not check_condition(space, maps, ClassSpec.tc(0.0), pair).holds
    assert check_condition(space, maps, ClassSpec.tk(0.25), pair).holds
    report = verify_zamfirescu_reduction(space, maps, 0.0, 0.25, 0.0, pair)
    assert report.applicable
    assert report.delta == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert report.tz_report.branch_stats == {"TZ1": 0, "TZ2": 1, "TZ3": 0}
    assert report.primary.holds and report.dual.holds


def test_primary_form_rate_values():
    assert rate_from_primary_form(0.25) == pytest.approx(0.5)
    assert rate_from_primary_form(1.0 / 3.0) == pytest.approx(1.0)
    assert rate_from_primary_form(0.5) == math.inf
    assert rate_from_primary_form(0.75) == math.inf


# ---------------------------------------------------------------------------
# Promotion
# ---------------------------------------------------------------------------

def test_promotion_constants():
    assert promote_to_weak(ClassSpec.tb(0.5)) == ClassSpec.tw(0.5, 0.0)
    tk = promote_to_weak(ClassSpec.tk(0.25))
    assert tk.delta == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert tk.L == pytest.approx(2.0 / 3.0, rel=1e-15)
    tz = promote_to_weak(ClassSpec.tz(0.5, 0.25, 1.0 / 3.0))
    assert tz.delta == 0.5 and tz.L == 1.0
    tw = ClassSpec.tw(0.3, 0.2)
    assert promote_to_weak(tw) is tw
    with pytest.raises(ConfigError):
        promote_to_weak(ClassSpec.twu(0.3, 0.2))


def test_promotion_validated_by_oracle_on_instance_d(fin_d):
    # pairwise implication on instance D: wherever the source holds, the
    # promoted weak spec holds (both the d(Ty,TSx) and d(Tx,TSy) shapes)
    for source in (
        ClassSpec.tb(0.5),
        ClassSpec.tk(0.25),
        ClassSpec.tc(0.25),
        ClassSpec.tz(0.5, 0.25, 1.0 / 3.0),
    ):
        report = exhaustive_promotion_check(fin_d, source)
        assert report.holds, (source, report.weak_violations[:3])


# ---------------------------------------------------------------------------
# Constant fitting
# ---------------------------------------------------------------------------

def test_fit_tb_instance_a():
    space, maps = instance_a(grid=41)
    result = fit_constants(space, maps, "TB", grid_pairs(space))
    assert result.feasible
    assert result.spec.a == pytest.approx(0.5, abs=1e-6)


def test_fit_tb_minimality():
    space, maps = instance_a(grid=41)
    pairs = grid_pairs(space)
    fitted = fit_constants(space, maps, "TB", pairs).spec.a
    assert check_condition(space, maps, ClassSpec.tb(fitted), pairs).holds
    assert not check_condition(space, maps, ClassSpec.tb(fitted - 2e-6), pairs).holds
    # the fit is the exact smallest passing float
    assert fitted == 0.5
    assert not check_condition(space, maps, ClassSpec.tb(math.nextafter(fitted, 0.0)), pairs).holds


def test_fit_tw_with_pinned_delta_on_instance_c():
    space, maps = instance_c(grid=41)
    result = fit_constants(space, maps, "TW", grid_pairs(space), pinned={"delta": 0.9})
    assert result.feasible
    assert result.spec.delta == 0.9
    assert result.spec.L == pytest.approx(0.1, abs=1e-6)


def test_fit_infeasible_for_expanding_map():
    cone = ConeSpec.orthant(2)
    space = ConeMetricSpace(cone, IntervalCarrier(0.0, 0.5, grid=21), DirectionMetric([1.0, 2.0]))
    maps = MapPair(IdentityMap(), AffineMap(2.0))
    pts = [p for p in space.carrier.grid_points() if 2.0 * p <= 0.5]
    pairs = [(x, y) for x in pts for y in pts]
    result = fit_constants(space, maps, "TB", pairs)
    assert not result.feasible


def test_fit_reports_hard_witnesses():
    # T collapses 0 and 1 while their S-images stay separated through T:
    # d(Tx, Ty) = 0 with lhs != 0, so no constant can help.
    fin = finite_from_values([0.0, 1.0, 2.0], t_table=[0, 0, 2], s_table=[2, 0, 2])
    space, maps = fin.as_space_and_maps()
    result = fit_constants(space, maps, "TB", [(0, 1)])
    assert not result.feasible
    assert result.hard_witnesses == [(0, 1)]


def test_fit_rejects_empty_pairs(space_a):
    space, maps = space_a
    with pytest.raises(ConfigError):
        fit_constants(space, maps, "TB", [])


def test_fit_tk_matches_hand_ratio():
    # the only-TZ2 instance from above: on the pair (0, 1) the Kannan-style
    # ratio is lhs / (d(Tx,TSx) + d(Ty,TSy)) = 1 / (4 + 3)
    fin = finite_from_values(
        [0.0, 8.0, 4.0, 5.0], t_table=[0, 1, 2, 3], s_table=[2, 3, 2, 3]
    )
    space, maps = fin.as_space_and_maps()
    result = fit_constants(space, maps, "TK", [(0, 1)])
    assert result.feasible
    assert result.spec.b == pytest.approx(1.0 / 7.0, abs=1e-6)


def test_fit_tc_on_constant_map():
    fin = finite_from_values(np.arange(6.0), np.arange(6), np.full(6, 2))
    space, maps = fin.as_space_and_maps()
    result = fit_constants(space, maps, "TC", all_pairs(fin.points))
    assert result.feasible
    assert result.spec.c == pytest.approx(0.0, abs=1e-6)


def test_dual_weak_condition(space_a):
    space, maps = space_a
    assert check_condition(space, maps, ClassSpec.tw_dual(0.5, 0.0), [(0.0, 1.0)]).holds
    assert not check_condition(space, maps, ClassSpec.tw_dual(0.4, 0.0), [(0.0, 1.0)]).holds
    # on the halving map, d(Tx, TSy) = |x - y/2| can absorb the deficit
    assert check_condition(space, maps, ClassSpec.tw_dual(0.4, 0.5), [(0.0, 1.0)]).holds


def test_uniqueness_condition_class(space_a):
    space, maps = space_a
    assert check_condition(space, maps, ClassSpec.twu(0.5, 0.0), [(0.0, 1.0)]).holds
    assert not check_condition(space, maps, ClassSpec.twu(0.4, 0.0), [(0.0, 1.0)]).holds
    # d(Tx, TSx) = x/2 is 0.5 at x = 1, so L1 = 0.2 closes the 0.1 deficit
    assert check_condition(space, maps, ClassSpec.twu(0.4, 0.2), [(1.0, 0.0)]).holds


def test_carrier_mask_detects_escape():
    carrier = IntervalCarrier(0.0, 0.5)
    maps = MapPair(IdentityMap(), AffineMap(2.0))
    xs = carrier.to_array([0.1, 0.2, 0.4])
    inside = carrier.mask(maps.T.on_array(xs)) & carrier.mask(maps.S.on_array(xs))
    assert inside.tolist() == [True, True, False]
