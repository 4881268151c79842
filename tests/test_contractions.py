import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conefix.cone_space import (
    BoxCarrier, ConeMetricSpace, ConeSpec, ConfigError, DirectionMetric, DomainError, FinitePointsCarrier,
    IntervalCarrier, TabulatedMetric,
)
from conefix.contractions import (
    CLASS_KINDS, TW_DUAL, TWU, AffineMap, ClassSpec, ConditionViolation, IdentityMap, MapPair, PairSet,
    PowerMap, TabulatedMap, _power, all_pairs, check_condition, cleared_check, constant_names, evaluate,
    fit_constants, grid_pairs, pair_terms, promote_to_weak, rate_from_primary_form, sampled_pairs,
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
    grid = grid_pairs(space)
    pairs = PairSet(grid.points, grid.ix[:400], grid.iy[:400])
    report = check_condition(space, maps, ClassSpec.tb(0.5), pairs)
    assert report.holds
    assert report.pairs_checked == 400


def test_instance_a_tb_04_violation_at_endpoints(space_a):
    space, maps = space_a
    report = check_condition(space, maps, ClassSpec.tb(0.4), PairSet.of(space, [(0.0, 1.0)]))
    assert not report.holds
    v = report.violations[0]
    assert np.array_equal(v.lhs, [0.5, 1.0])
    assert np.array_equal(v.rhs, [0.4, 0.8])
    assert np.allclose(v.residual, [-0.1, -0.2])


def test_instance_c_is_weak_with_half_half(space_c):
    space, maps = space_c
    grid = grid_pairs(space)
    pairs = PairSet(grid.points, grid.ix[: 50 * 50], grid.iy[: 50 * 50])
    report = check_condition(space, maps, ClassSpec.tw(0.5, 0.5), pairs)
    assert report.holds


def test_empty_pair_set_is_inconclusive(space_a):
    space, maps = space_a
    report = check_condition(space, maps, ClassSpec.tb(0.5), PairSet.of(space, []))
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
            verdicts.append(check_condition(space, maps, spec, PairSet.of(space, pairs)).holds)
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
    report = verify_zamfirescu_reduction(space, maps, 0.5, 0.0, 0.0, PairSet.of(space, [(0.3, 0.3)]))
    assert report.holds


def test_reduction_not_applicable_when_tz_fails(space_a):
    space, maps = space_a
    report = verify_zamfirescu_reduction(space, maps, 0.25, 0.0, 0.0, PairSet.of(space, [(0.0, 1.0)]))
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
    pair = PairSet.of(space, [(0, 1)])
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
    pairs = PairSet.of(space, [(x, y) for x in pts for y in pts])
    result = fit_constants(space, maps, "TB", pairs)
    assert not result.feasible


def test_fit_reports_hard_witnesses():
    # T collapses 0 and 1 while their S-images stay separated through T:
    # d(Tx, Ty) = 0 with lhs != 0, so no constant can help.
    fin = finite_from_values([0.0, 1.0, 2.0], t_table=[0, 0, 2], s_table=[2, 0, 2])
    space, maps = fin.as_space_and_maps()
    result = fit_constants(space, maps, "TB", PairSet.of(space, [(0, 1)]))
    assert not result.feasible
    assert result.hard_witnesses == [(0, 1)]


def test_fit_rejects_empty_pairs(space_a):
    space, maps = space_a
    with pytest.raises(ConfigError):
        fit_constants(space, maps, "TB", PairSet.of(space, []))


def test_fit_tk_matches_hand_ratio():
    # the only-TZ2 instance from above: on the pair (0, 1) the Kannan-style
    # ratio is lhs / (d(Tx,TSx) + d(Ty,TSy)) = 1 / (4 + 3)
    fin = finite_from_values(
        [0.0, 8.0, 4.0, 5.0], t_table=[0, 1, 2, 3], s_table=[2, 3, 2, 3]
    )
    space, maps = fin.as_space_and_maps()
    result = fit_constants(space, maps, "TK", PairSet.of(space, [(0, 1)]))
    assert result.feasible
    assert result.spec.b == pytest.approx(1.0 / 7.0, abs=1e-6)


def test_fit_tc_on_constant_map():
    fin = finite_from_values(np.arange(6.0), np.arange(6), np.full(6, 2))
    space, maps = fin.as_space_and_maps()
    result = fit_constants(space, maps, "TC", all_pairs(space))
    assert result.feasible
    assert result.spec.c == pytest.approx(0.0, abs=1e-6)


def test_dual_weak_condition(space_a):
    space, maps = space_a
    pair = PairSet.of(space, [(0.0, 1.0)])
    assert check_condition(space, maps, ClassSpec.tw_dual(0.5, 0.0), pair).holds
    assert not check_condition(space, maps, ClassSpec.tw_dual(0.4, 0.0), pair).holds
    # on the halving map, d(Tx, TSy) = |x - y/2| can absorb the deficit
    assert check_condition(space, maps, ClassSpec.tw_dual(0.4, 0.5), pair).holds


def test_uniqueness_condition_class(space_a):
    space, maps = space_a
    pair = PairSet.of(space, [(0.0, 1.0)])
    assert check_condition(space, maps, ClassSpec.twu(0.5, 0.0), pair).holds
    assert not check_condition(space, maps, ClassSpec.twu(0.4, 0.0), pair).holds
    # d(Tx, TSx) = x/2 is 0.5 at x = 1, so L1 = 0.2 closes the 0.1 deficit
    assert check_condition(space, maps, ClassSpec.twu(0.4, 0.2), PairSet.of(space, [(1.0, 0.0)])).holds


def test_carrier_mask_detects_escape():
    carrier = IntervalCarrier(0.0, 0.5)
    maps = MapPair(IdentityMap(), AffineMap(2.0))
    xs = carrier.to_array([0.1, 0.2, 0.4])
    inside = carrier.mask(maps.T.on_array(xs)) & carrier.mask(maps.S.on_array(xs))
    assert inside.tolist() == [True, True, False]


# ---------------------------------------------------------------------------
# Pair sets and the array pass of pair_terms
# ---------------------------------------------------------------------------

TERM_FIELDS = ("lhs", "d_tx_ty", "d_tx_tsx", "d_ty_tsy", "d_tx_tsy", "d_ty_tsx")


def _scalar_terms(space, maps, pairs) -> dict:
    """The six distances of each pair from scalar ``space.d`` on the T- and
    TS-images, one pair at a time."""
    rows = {name: [] for name in TERM_FIELDS}
    for x, y in pairs:
        tx, ty, tsx, tsy = maps.T(x), maps.T(y), maps.T(maps.S(x)), maps.T(maps.S(y))
        ends = ((tsx, tsy), (tx, ty), (tx, tsx), (ty, tsy), (tx, tsy), (ty, tsx))
        for name, (u, v) in zip(TERM_FIELDS, ends):
            rows[name].append(space.d(u, v))
    return {name: np.array(r) for name, r in rows.items()}


def _finite_tabulated():
    rng = np.random.default_rng(11)
    fin = finite_from_values(rng.permutation(64)[:12] / 8.0, rng.integers(0, 12, size=12),
                             rng.integers(0, 12, size=12))
    return fin.as_space_and_maps()


def _finite_foreign_map():
    # numeric points under a direction metric; T is tabulated over more points
    # than the carrier holds, so it has no index form on this carrier
    pts = [0, 1, 2, 3, 5, 8]
    space = ConeMetricSpace(ConeSpec.orthant(2), FinitePointsCarrier(pts), DirectionMetric([1.0, 3.0]))
    t = TabulatedMap(pts + [13], [8, 5, 3, 2, 1, 0, 0])
    return space, MapPair(t, TabulatedMap(pts, [1, 2, 3, 5, 8, 8]))


def _interval(t_map):
    carrier = IntervalCarrier(0.0, 1.0, grid=23)
    space = ConeMetricSpace(ConeSpec.orthant(2), carrier, DirectionMetric([1.0, 2.0]))
    return space, MapPair(t_map, AffineMap(0.3, 0.1))


def _box_euclidean():
    carrier = BoxCarrier(np.zeros(2), np.ones(2), grid=6)
    space = ConeMetricSpace(ConeSpec.orthant(2), carrier, DirectionMetric([1.0, 2.0], rho="euclidean"))
    return space, MapPair(AffineMap(0.5, 0.25), AffineMap(0.75))


@pytest.mark.parametrize("build", [
    lambda: _interval(AffineMap(0.6, 0.2)),
    lambda: _interval(PowerMap(3.0)),
    _box_euclidean,
    _finite_tabulated,
    _finite_foreign_map,
], ids=["interval-affine", "interval-power", "box-euclidean", "finite-tabulated", "finite-foreign-map"])
def test_pair_terms_equal_scalar_distances_bit_for_bit(build):
    space, maps = build()
    grid_pts = space.carrier.grid_points()
    rng = np.random.default_rng(4)
    xs, ys = space.carrier.sample(rng, 300), space.carrier.sample(rng, 300)
    cases = [
        # the same pairs, in the same order, as the product of the grid and the zip of the draws
        (grid_pairs(space), list(itertools.product(grid_pts, grid_pts))),
        (sampled_pairs(space, 300, seed=4), list(zip(xs, ys))),
    ]
    explicit = list(zip(xs[:40], ys[:40]))
    cases.append((PairSet.of(space, explicit), explicit))
    for pairs, expected in cases:
        assert len(pairs) == len(expected)
        got = pairs.witnesses(space, np.arange(len(pairs)))
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))
        terms = pair_terms(space, maps, pairs)
        for name, want in _scalar_terms(space, maps, expected).items():
            have = getattr(terms, name)
            assert have.dtype == want.dtype and np.array_equal(have, want), name


def test_power_map_at_zero_to_a_negative_power_is_a_domain_error():
    with pytest.raises(DomainError, match="non-finite value at 0$"):
        PowerMap(-1.0)(0)
    with pytest.raises(DomainError, match="non-finite value at 0.0$"):
        PowerMap(-0.5).on_array(np.array([0.5, 0.0]))
    assert PowerMap(0.0)(0) == 1.0 and PowerMap(0.5).on_array(np.zeros(1)).tolist() == [0.0]


def test_power_map_on_a_negative_base_with_a_fractional_exponent_is_a_domain_error():
    # Python's float pow gives a complex number there, which used to escape as a TypeError
    with pytest.raises(DomainError, match="non-finite value at -0.5$"):
        PowerMap(0.5)(-0.5)
    with pytest.raises(DomainError, match="non-finite value at -0.25$"):
        PowerMap(1.5).on_array(np.array([0.25, -0.25, -1.0]))
    assert PowerMap(2.0)(-0.5) == 0.25 and PowerMap(3).on_array(np.array([-0.5, -0.0])).tolist() == [-0.125, -0.0]
    assert PowerMap(0.5)(-0.0) == 0.0


def _power_loop(xs: np.ndarray, exponent: float) -> np.ndarray:
    """PowerMap.on_array as one _power call per point."""
    values = xs.tolist()
    ys = np.array([_power(x, exponent) for x in values], dtype=float)
    bad = np.flatnonzero(~np.isfinite(ys))
    if bad.size:
        raise DomainError(f"power map produced a non-finite value at {values[bad[0]]!r}")
    return ys


def _outcome(call):
    try:
        return call().tobytes()
    except (DomainError, OverflowError) as exc:
        return type(exc), str(exc)


_POWER_POINTS = st.one_of(st.floats(-1e4, 1e4), st.sampled_from(
    [0.0, -0.0, 1e300, -1e300, 1e-300, 5e-324, -5e-324, math.inf, -math.inf, math.nan]))


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(_POWER_POINTS, max_size=20),
       exponent=st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0, 2, -1,
                                 math.inf, -math.inf, math.nan]))
@example(xs=[2.0, 1e300], exponent=2.0)               # an overflow on the fromiter pass
@example(xs=[0.5, 0.0, 1e-300], exponent=-2.0)        # inf from 0 before an overflow: the overflow wins
@example(xs=[-0.25, 1e300], exponent=1.5)             # nan from a complex power, then an overflow
@example(xs=[1e300, 0.0], exponent=-1.0)              # 1e300 ** -1 is finite; 0 gives the DomainError
@example(xs=[2.0, math.nan], exponent=2.0)
@example(xs=[-math.inf], exponent=-0.5)               # pow gives 0.0, _power nan
def test_power_array_form_equals_the_per_point_loop(xs, exponent):
    # the values, the OverflowError and the DomainError text of the loop
    xs = np.array(xs, dtype=float)
    assert _outcome(lambda: PowerMap(exponent).on_array(xs)) == _outcome(lambda: _power_loop(xs, exponent))


ESCAPE_PAIRS = [(0.25, 0.75), (0.9, 0.1)]


@pytest.mark.parametrize("maps, pairs, error", [
    # y of pair 0 escapes under S before x of pair 1 does
    (MapPair(IdentityMap(), AffineMap(2.0)), ESCAPE_PAIRS, "S-image 1.5 lies outside"),
    # at 0.75 both S (1.5) and T (1.125) escape: S is checked first
    (MapPair(AffineMap(1.5), AffineMap(2.0)), ESCAPE_PAIRS, "S-image 1.5 lies outside"),
    # x of pair 0 passes; y's T-image escapes before pair 1's S-image
    (MapPair(AffineMap(1.5), AffineMap(0.25, 0.5)), ESCAPE_PAIRS, "T-image 1.125 lies outside"),
    # each point is checked S, T, then TS: 0.25 -> S 0.5 -> TS 1.25
    (MapPair(AffineMap(2.5), AffineMap(2.0)), ESCAPE_PAIRS, "TS-image 1.25 lies outside"),
    # only TS-images escape: 0.25 -> S 0.75 -> TS 1.5
    (MapPair(AffineMap(2.0), AffineMap(1.0, 0.5)), [(0.25, 0.5), (0.0, 0.125)], "TS-image 1.5 lies outside"),
])
def test_escape_error_names_the_first_point_in_pair_order(maps, pairs, error):
    space = ConeMetricSpace(ConeSpec.orthant(2), IntervalCarrier(0.0, 1.0), DirectionMetric([1.0, 2.0]))
    pairs = PairSet.of(space, pairs)
    for call in (lambda: check_condition(space, maps, ClassSpec.tb(0.5), pairs),
                 lambda: fit_constants(space, maps, "TB", pairs),
                 lambda: verify_zamfirescu_reduction(space, maps, 0.5, 0.0, 0.0, pairs)):
        with pytest.raises(DomainError, match=error):
            call()


def test_escape_from_a_finite_carrier_names_the_image():
    # the index form marks the image 99 as -1; the replay names it
    space, _ = _finite_tabulated()
    pts = list(space.carrier.points)
    maps = MapPair(TabulatedMap(pts, pts), TabulatedMap(pts, pts[:5] + [99] + pts[6:]))
    with pytest.raises(DomainError, match="S-image 99 lies outside"):
        check_condition(space, maps, ClassSpec.tb(0.5), all_pairs(space))


def test_pair_set_of_rejects_a_point_outside_a_finite_carrier():
    space, _ = _finite_tabulated()
    with pytest.raises(DomainError, match="pair point 99 lies outside the carrier"):
        PairSet.of(space, [(0, 1), (2, 99)])
    with pytest.raises(DomainError, match="pair point 'a'"):
        PairSet.of(space, [("a", 1)])


def test_all_pairs_needs_a_finite_carrier(space_a):
    space, _ = space_a
    with pytest.raises(ConfigError):
        all_pairs(space)


# ---------------------------------------------------------------------------
# Violation views against eagerly built lists
# ---------------------------------------------------------------------------

def _eager_violations(space, spec, pairs, t) -> list:
    """Every violation of ``spec``, built as a list: for TZ the witness is
    the branch whose residual comes closest to the cone."""
    cone = space.cone
    v = evaluate(spec, t, cone, cone.slack)
    bad = np.flatnonzero(~v.ok)
    rhs, res = v.rhs, v.residual
    if v.branch_ok is not None:
        best = np.argmax(np.min(res[:, bad] @ cone.ineq_matrix.T, axis=-1), axis=0)
        rhs, res = rhs[best, bad], res[best, bad]
    else:
        rhs, res = rhs[bad], res[bad]
    return [ConditionViolation(x, y, t.lhs[i], r, e)
            for (x, y), i, r, e in zip(pairs.witnesses(space, bad), bad, rhs, res)]


def _eager_forms(space, tz, pairs, t) -> list[list]:
    """The violations of the primary and dual reduced forms, as lists."""
    forms = []
    for weak in (TWU, TW_DUAL):
        v = cleared_check(tz, weak, t, space.cone, space.cone.slack)
        bad = np.flatnonzero(~v.ok)
        forms.append([ConditionViolation(x, y, t.lhs[i], v.residual[i] + t.lhs[i], v.residual[i])
                      for (x, y), i in zip(pairs.witnesses(space, bad), bad)])
    return forms


def _violation_bits(v: ConditionViolation) -> tuple:
    def bits(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        return type(value), repr(value)
    return tuple(bits(getattr(v, name)) for name in ("x", "y", "lhs", "rhs", "residual"))


def _assert_view_equals(view, want: list):
    n = len(want)
    assert len(view) == n and bool(view) == bool(want)
    assert [_violation_bits(v) for v in view] == [_violation_bits(v) for v in want]
    for i in range(-n, n):
        assert _violation_bits(view[i]) == _violation_bits(want[i])
    for s in (slice(None), slice(None, 50), slice(1, None, 2), slice(None, None, -1), slice(-3, None),
              slice(-1, -n - 1, -3), slice(n, None), slice(2, 1)):
        assert [_violation_bits(v) for v in view[s]] == [_violation_bits(v) for v in want[s]]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]


@st.composite
def condition_cases(draw):
    """A space, maps and pair set: an interval or a box under affine and
    power maps, or a small finite carrier whose random table need not be a
    metric (so TZ can hold while a reduced form fails)."""
    family = draw(st.sampled_from(["interval", "box", "table"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    cone = draw(st.sampled_from([ConeSpec.orthant(2), ConeSpec.polyhedral([[1.0, -0.5], [-0.25, 1.0]])]))
    if family == "table":
        n = int(rng.integers(3, 6))
        table = rng.integers(0, 5, (n, n, 1)) * np.array([1.0, 2.0])
        table[np.arange(n), np.arange(n)] = 0.0
        points = [f"p{i}" for i in range(n)] if draw(st.booleans()) else list(range(n))
        space = ConeMetricSpace(cone, FinitePointsCarrier(points), TabulatedMetric(table))
        maps = MapPair(*(TabulatedMap(points, [points[i] for i in rng.integers(0, n, n)]) for _ in "TS"))
        return space, maps, all_pairs(space)
    if family == "interval":
        space = ConeMetricSpace(cone, IntervalCarrier(0.0, 1.0, grid=9), DirectionMetric([1.0, 1.0]))
        T = draw(st.sampled_from([IdentityMap(), AffineMap(0.5, 0.25), PowerMap(3.0)]))
    else:
        space = ConeMetricSpace(cone, BoxCarrier(np.zeros(2), np.ones(2), grid=3),
                                DirectionMetric([1.0, 1.0], rho="euclidean"))
        T = draw(st.sampled_from([IdentityMap(), AffineMap(0.5, 0.25)]))
    S = AffineMap(*draw(st.sampled_from([(0.25, 0.125), (0.9, 0.05), (-0.75, 0.75)])))
    pairs = grid_pairs(space) if draw(st.booleans()) else sampled_pairs(space, 60, seed=int(rng.integers(9)))
    return space, MapPair(T, S), pairs


def _table_case(seed):
    """The table family at a seed where TZ(3/4, 3/8, 3/8) holds on all
    pairs and both reduced forms fail on some."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    table = rng.integers(0, 5, (n, n, 1)) * np.array([1.0, 2.0])
    table[np.arange(n), np.arange(n)] = 0.0
    points = list(range(n))
    space = ConeMetricSpace(ConeSpec.orthant(2), FinitePointsCarrier(points), TabulatedMetric(table))
    maps = MapPair(*(TabulatedMap(points, list(rng.integers(0, n, n))) for _ in "TS"))
    return space, maps, all_pairs(space)


@settings(max_examples=60, deadline=None)
@given(case=condition_cases(), scale=st.sampled_from([0.125, 0.5, 0.99]))
@example(case=_table_case(403), scale=1.0)
@example(case=_table_case(2878), scale=1.0)
def test_violation_views_equal_the_eager_lists(case, scale):
    space, maps, pairs = case
    t = pair_terms(space, maps, pairs)
    uppers = {"a": 0.75, "b": 0.375, "c": 0.375, "delta": 0.75, "L": 1.5, "theta": 0.75, "L1": 1.5}
    for kind in CLASS_KINDS:
        spec = ClassSpec(kind, **{name: uppers[name] * scale for name in constant_names(kind)})
        report = check_condition(space, maps, spec, pairs)
        _assert_view_equals(report.violations, _eager_violations(space, spec, pairs, t))
        assert report.holds == (not len(report.violations))
    tz = ClassSpec.tz(0.75 * scale, 0.375 * scale, 0.375 * scale)
    red = verify_zamfirescu_reduction(space, maps, tz.a, tz.b, tz.c, pairs)
    if red.applicable:
        for view, want in zip((red.primary.violations, red.dual.violations), _eager_forms(space, tz, pairs, t)):
            _assert_view_equals(view, want)


def test_reduction_views_are_exercised():
    # the two explicit table cases of the view test fail both reduced forms
    for seed in (403, 2878):
        space, maps, pairs = _table_case(seed)
        red = verify_zamfirescu_reduction(space, maps, 0.75, 0.375, 0.375, pairs)
        assert red.applicable and red.primary.violations and red.dual.violations
