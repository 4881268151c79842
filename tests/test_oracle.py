import math
import re

import numpy as np
import pytest

from conefix import oracle
from conefix.cone_space import ConeMetricSpace, ConfigError, DirectionMetric, DomainError, FinitePointsCarrier
from conefix.contractions import ClassSpec, IdentityMap, MapPair
from conefix.instances import instance_c_grid
from conefix.oracle import (
    cross_validate, enumerate_fixed_points, exhaustive_condition_check,
    exhaustive_promotion_check, exhaustive_reduction_check, finite_from_values,
    generate_twu_corpus, generate_tz_corpus, random_finite_instance, tightest_constants,
)
from conefix.solver import CONVERGED, StoppingRule, picard_iterate

from conftest import tabulated_instance


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_table_validation_rejects_nonzero_diagonal():
    table = np.zeros((2, 2, 2))
    table[0, 0] = [1.0, 1.0]
    with pytest.raises(ConfigError, match="d1"):
        tabulated_instance([0, 1], table, [0, 1], [0, 1], _orthant())


def test_table_validation_rejects_asymmetry():
    table = np.zeros((2, 2, 2))
    table[0, 1] = [1.0, 2.0]
    table[1, 0] = [2.0, 1.0]
    with pytest.raises(ConfigError, match="d2"):
        tabulated_instance([0, 1], table, [0, 1], [0, 1], _orthant())


def test_table_validation_rejects_triangle_violation():
    table = np.zeros((3, 3, 2))
    for i, j, v in ((0, 1, [5.0, 10.0]), (0, 2, [1.0, 2.0]), (1, 2, [1.0, 2.0])):
        table[i, j] = v
        table[j, i] = v
    with pytest.raises(ConfigError, match="d3"):
        tabulated_instance([0, 1, 2], table, [0, 1, 2], [0, 1, 2], _orthant())


@pytest.mark.parametrize("which", ["t_table", "s_table"])
@pytest.mark.parametrize("entries, image", [
    ([0.5, 1.7, 2.9], "0.5"),       # a cast to int reads [0, 1, 2]
    ([0, 1, float("nan")], "nan"),
    ([True, 1, 2], "True"),         # a cast to int reads True as 1
    ([0, np.False_, 2], repr(np.False_)),
    (np.array([True, False, True]), repr(np.True_)),
])
def test_index_tables_refuse_bools_and_fractions(which, entries, image):
    table = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))[:, :, None] * np.array([1.0, 2.0])
    tables, name = {"t_table": [0, 1, 2], "s_table": [0, 1, 2], which: entries}, which[0].upper()
    with pytest.raises(DomainError, match=f"^maps.{name}: {name}-image {re.escape(image)} lies outside the carrier$"):
        tabulated_instance([0, 1, 2], table, tables["t_table"], tables["s_table"], _orthant())
    tables[which] = [0.0, 1.0, 2.0]      # integral floats are labels
    fin = tabulated_instance([0, 1, 2], table, tables["t_table"], tables["s_table"], _orthant())
    assert getattr(fin, which).tolist() == [0, 1, 2] and enumerate_fixed_points(fin) == [0, 1, 2]


def _orthant():
    from conefix.cone_space import ConeSpec

    return ConeSpec.orthant(2, slack=0.0)


def _line(n: int, m: int = 2) -> np.ndarray:
    """The (n, n, m) table |i - j| (1, ..., 1) on the points 0..n-1."""
    idx = np.arange(n, dtype=float)
    return np.abs(idx[:, None] - idx)[:, :, None] * np.ones(m)


@pytest.mark.parametrize("build, message", [
    (lambda: oracle.FiniteInstance(
        ConeMetricSpace(_orthant(), FinitePointsCarrier([0, 1]), DirectionMetric([1.0, 2.0])),
        MapPair(IdentityMap(), IdentityMap())), "finite instances need a tabulated metric"),
    (lambda: tabulated_instance(range(201), _line(201), range(201), range(201), _orthant()),
     "finite instances support 1..200 points, got 201"),
    (lambda: tabulated_instance(range(4), _line(4, 3), range(4), range(4), _orthant()),
     "metric table must have shape (4, 4, 2), got (4, 4, 3)"),
    (lambda: exhaustive_promotion_check(tabulated_instance(range(4), _line(4), range(4), [0, 0, 1, 2], _orthant()),
                                        ClassSpec.tw(0.5, 1.0)),
     "promotion oracle applies to TB/TK/TC/TZ, not 'TW'"),
])
def test_oracle_refuses_bad_input(build, message):
    with pytest.raises(ConfigError) as info:
        build()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Fixed-point enumeration
# ---------------------------------------------------------------------------

def test_enumerate_halving_map(fin_d):
    assert enumerate_fixed_points(fin_d) == [0]


def test_enumerate_identity():
    fin = finite_from_values(np.arange(10.0), np.arange(10), np.arange(10))
    assert enumerate_fixed_points(fin) == list(range(10))


def test_enumerate_rotation_has_none():
    fin = finite_from_values(np.arange(10.0), np.arange(10), (np.arange(10) + 1) % 10)
    assert enumerate_fixed_points(fin) == []


# ---------------------------------------------------------------------------
# Exhaustive condition checks
# ---------------------------------------------------------------------------

def test_halving_on_integer_grid_is_not_tb_half(fin_d):
    report = exhaustive_condition_check(fin_d, ClassSpec.tb(0.5))
    assert not report.holds
    assert (1, 2) in report.violating_pairs
    assert report.pairs_checked == 100


def test_identity_is_weak_with_half_half():
    fin = instance_c_grid(11)
    report = exhaustive_condition_check(fin, ClassSpec.tw(0.5, 0.5))
    assert report.holds


def test_near_one_tb_fails_on_isometry():
    fin = finite_from_values(np.arange(5.0), np.arange(5), np.arange(5))
    report = exhaustive_condition_check(fin, ClassSpec.tb(math.nextafter(1.0, 0.0)))
    assert not report.holds
    assert report.violating_pairs  # the maximal-ratio pairs


def test_oracle_lists_build_entries_only_when_read(monkeypatch):
    # an isometry fails TB(1/2) on all 39,800 pairs x != y of 200 points;
    # the view builds none until read, and then only those read
    made = []
    monkeypatch.setattr(oracle, "as_tuple", lambda *row: made.append(row) or row)
    n = 200
    fin = finite_from_values(np.arange(float(n)), np.arange(n), np.arange(n))
    pairs = exhaustive_condition_check(fin, ClassSpec.tb(0.5)).violating_pairs
    assert len(pairs) == n * (n - 1) and pairs and not made
    want = [(x, y) for x in range(n) for y in range(n) if x != y]     # row-major
    first = pairs[:50]
    assert first == want[:50] and len(made) == 50
    assert all(type(i) is int for pair in first for i in pair)
    assert pairs[-1] == want[-1] and pairs == want and repr(pairs) == repr(want)


# ---------------------------------------------------------------------------
# Tightest constants
# ---------------------------------------------------------------------------

def test_tightest_tb_on_halving_grid_is_boundary_infeasible(fin_d):
    result = tightest_constants(fin_d, "TB")
    assert result.supremum["a"] == 1.0
    assert not result.feasible


def test_tightest_tb_constant_map_is_zero():
    fin = finite_from_values(np.arange(10.0), np.arange(10), np.full(10, 3))
    result = tightest_constants(fin, "TB")
    assert result.feasible
    assert result.constants["a"] == 0.0


def test_tightest_tw_on_identity():
    fin = finite_from_values(np.arange(5.0), np.arange(5), np.arange(5))
    tb = tightest_constants(fin, "TB")
    assert not tb.feasible and tb.supremum["a"] == 1.0
    tw = tightest_constants(fin, "TW")
    assert tw.feasible
    assert tw.constants["delta"] == 0.0
    assert tw.constants["L"] == 1.0
    pinned = tightest_constants(fin, "TW", pinned_delta=0.9)
    assert pinned.constants["L"] == pytest.approx(0.1, abs=1e-12)


def test_tightest_ladder_matches_step_size():
    values = [2.0 ** (-i) for i in range(7)] + [0.0]
    s = np.minimum(np.arange(8) + 2, 7)
    fin = finite_from_values(values, np.arange(8), s)
    result = tightest_constants(fin, "TB")
    assert result.feasible
    assert result.constants["a"] == 0.5  # worst pair crosses into the absorbing tail


def test_tightest_consistency_minimal_float(tz_corpus):
    checked = 0
    for g in tz_corpus[:25]:
        result = tightest_constants(g.fin, "TB")
        if not result.feasible:
            continue
        a_hat = result.constants["a"]
        assert exhaustive_condition_check(g.fin, ClassSpec.tb(a_hat)).holds
        if a_hat > 0.0:
            below = math.nextafter(a_hat, -math.inf)
            assert not exhaustive_condition_check(g.fin, ClassSpec.tb(below)).holds
            checked += 1
    assert checked >= 3


# ---------------------------------------------------------------------------
# Lemma and promotion oracles
# ---------------------------------------------------------------------------

def test_reduction_oracle_requires_tz(fin_d):
    # where TZ fails neither reduced form is checked: no pair is a
    # violation of either (TZ's own violations are the condition's)
    for a, b, c in ((0.25, 0.0, 0.0), (0.1, 0.1, 0.1)):
        assert not exhaustive_condition_check(fin_d, ClassSpec.tz(a, b, c)).holds
        report = exhaustive_reduction_check(fin_d, a, b, c)
        assert not (report.applicable or report.holds or report.primary_ok or report.dual_ok)
        assert report.primary_violations == [] and report.dual_violations == []


def test_reduction_oracle_on_corpus(tz_corpus):
    for g in tz_corpus:
        report = exhaustive_reduction_check(g.fin, g.spec.a, g.spec.b, g.spec.c)
        assert report.applicable
        assert report.primary_ok and report.dual_ok, report


def test_promotion_oracle_on_corpus(tz_corpus):
    for g in tz_corpus:
        report = exhaustive_promotion_check(g.fin, g.spec)
        assert report.holds, report


# ---------------------------------------------------------------------------
# Theorem cross-validation
# ---------------------------------------------------------------------------

def test_cross_validate_unique_class(tz_corpus):
    g = tz_corpus[0]
    cv = cross_validate(g.fin, g.spec)
    assert cv.applicable and cv.passed
    assert len(cv.fixed_points) == 1
    assert max(cv.orbit_steps.values()) <= g.fin.n


def test_cross_validate_identity_weak_multiplicity():
    fin = instance_c_grid(11)
    cv = cross_validate(fin, ClassSpec.tw(0.5, 0.5))
    assert cv.applicable and cv.passed
    assert cv.multiplicity_allowed
    assert len(cv.fixed_points) == 11
    assert all(s == 0 for s in cv.orbit_steps.values())


def test_cross_validate_not_applicable(fin_d):
    cv = cross_validate(fin_d, ClassSpec.tz(0.1, 0.1, 0.1))
    assert not cv.applicable
    assert cv.condition.violating_pairs


def test_oracle_and_solver_agree_bitwise(tz_corpus):
    g = tz_corpus[1]
    cv = cross_validate(g.fin, g.spec)
    (fp,) = cv.fixed_points
    space, maps = g.fin.space, g.fin.maps
    for start in g.fin.points:
        trace = picard_iterate(space, maps, start, StoppingRule(max_iter=100))
        assert trace.stop_reason == CONVERGED
        assert trace.last == fp


# ---------------------------------------------------------------------------
# Generator determinism
# ---------------------------------------------------------------------------

def test_generator_is_seed_deterministic():
    first = generate_tz_corpus(5, seed=99)
    second = generate_tz_corpus(5, seed=99)
    for g1, g2 in zip(first, second):
        assert np.array_equal(g1.fin.metric_table, g2.fin.metric_table)
        assert np.array_equal(g1.fin.s_table, g2.fin.s_table)
        assert np.array_equal(g1.fin.t_table, g2.fin.t_table)
        assert g1.spec == g2.spec


# The first draws at seed 7, recorded once: a change to the sampler's
# ranges, direction choices or draw order shows up here, where comparing
# two calls on the same code cannot see it.
def _drawn(fin):
    return fin.n, fin.s_table.tolist(), fin.t_table.tolist(), fin.metric_table[0, -1].tolist()


def test_generated_corpora_are_pinned():
    tz = generate_tz_corpus(1, seed=7)[0]
    assert _drawn(tz.fin) == (
        15, [9, 7, 1, 3, 6, 3, 10, 3, 5, 8, 3, 4, 3, 12, 13],
        [0, 7, 3, 14, 5, 12, 9, 11, 8, 4, 13, 1, 10, 6, 2], [0.5, 1.0])
    assert tz.spec == ClassSpec.tz(0.640625, 0.296875, 0.046875)
    assert (tz.proposal, tz.extra) == ("ladder-4", {})

    twu = generate_twu_corpus(1, seed=7)[0]
    assert _drawn(twu.fin) == (
        11, [2, 10, 9, 5, 1, 8, 6, 4, 6, 6, 6], [1, 6, 4, 2, 3, 5, 10, 0, 8, 7, 9], [1.0, 1.5])
    assert twu.spec == ClassSpec.twu(0.265625, 0.5)
    assert (twu.proposal, twu.extra) == ("ladder-3", {"delta": 0.375, "L": 0.75})

    plain = random_finite_instance(np.random.default_rng(7))
    assert _drawn(plain) == (
        20, [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 19, 19, 19, 19],
        list(range(20)), [0.9375, 0.234375])
