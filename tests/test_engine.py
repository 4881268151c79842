"""The sampled engine against the exact oracle: the same inequalities, the
same fit, differing only in how the pair terms are built, the pair set and
the slack."""

import math

import pytest

from conefix.cone_space import ConeMetricSpace, ConeSpec, DirectionMetric, DomainError, IntervalCarrier
from conefix.contractions import (
    AffineMap, ClassSpec, IdentityMap, MapPair, _smallest_passing, all_pairs, check_condition,
    fit_constants, grid_pairs, verify_zamfirescu_reduction,
)
from conefix.oracle import exhaustive_condition_check, exhaustive_reduction_check, tightest_constants

FIT_KINDS = ("TB", "TK", "TC", "TW")


def _specs(g) -> list[ClassSpec]:
    """All seven classes, once with constants taken from the instance (or
    fixed dyadic ones) and once with small constants that tend to fail."""
    spec = getattr(g, "spec", None)
    extra = getattr(g, "extra", {})
    a, b, c = (spec.a, spec.b, spec.c) if spec is not None and spec.kind == "TZ" else (0.5, 0.25, 0.25)
    theta, l1 = (spec.theta, spec.L1) if spec is not None and spec.kind == "TWU" else (0.5, 1.0)
    delta, big_l = extra.get("delta", 0.5), extra.get("L", 1.0)
    out = []
    for k in (1.0, 0.125):
        out += [
            ClassSpec.tb(a * k), ClassSpec.tk(b * k), ClassSpec.tc(c * k),
            ClassSpec.tz(a * k, b * k, c * k), ClassSpec.tw(delta * k, big_l * k),
            ClassSpec.tw_dual(delta * k, big_l * k), ClassSpec.twu(theta * k, l1 * k),
        ]
    return out


def _fins(corpus):
    return [getattr(g, "fin", g) for g in corpus]


@pytest.fixture(scope="module")
def corpora(tz_corpus, twu_corpus, plain_corpus):
    return {"tz": tz_corpus, "twu": twu_corpus, "plain": plain_corpus}


@pytest.mark.parametrize("name", ["tz", "twu", "plain"])
def test_sampled_violations_equal_oracle_pairs(corpora, name):
    failing = holding = 0
    for g, fin in zip(corpora[name], _fins(corpora[name])):
        space, maps = fin.space, fin.maps
        assert space.cone.slack == 0.0
        pairs = all_pairs(space)
        for spec in _specs(g):
            sampled = check_condition(space, maps, spec, pairs)
            exact = exhaustive_condition_check(fin, spec)
            assert {(v.x, v.y) for v in sampled.violations} == set(exact.violating_pairs), spec
            assert sampled.branch_stats == exact.branch_stats
            failing += not exact.holds
            holding += exact.holds
    assert failing and holding   # both verdicts are exercised


@pytest.mark.parametrize("name", ["tz", "twu", "plain"])
def test_sampled_fit_equals_tightest_constants_bitwise(corpora, name):
    feasible = 0
    for fin in _fins(corpora[name]):
        space, maps = fin.space, fin.maps
        pairs = all_pairs(space)
        for kind in FIT_KINDS:
            fit = fit_constants(space, maps, kind, pairs)
            tight = tightest_constants(fin, kind)
            assert fit.feasible == tight.feasible, (kind, fit, tight)
            assert fit.hard_witnesses == tight.infeasible_witnesses
            if fit.feasible:
                assert fit.spec.constants() == tight.constants
                feasible += 1
        pinned = fit_constants(space, maps, "TW", pairs, pinned_delta=0.75)
        tight = tightest_constants(fin, "TW", pinned_delta=0.75)
        assert pinned.feasible == tight.feasible
        assert pinned.hard_witnesses == tight.infeasible_witnesses
        if pinned.feasible:
            assert pinned.spec.constants() == tight.constants
    assert feasible


def test_sampled_reduction_equals_oracle(tz_corpus):
    for g in tz_corpus:
        space, maps = g.fin.space, g.fin.maps
        s = g.spec
        sampled = verify_zamfirescu_reduction(space, maps, s.a, s.b, s.c, all_pairs(space))
        exact = exhaustive_reduction_check(g.fin, s.a, s.b, s.c)
        assert sampled.applicable == exact.applicable
        assert {(v.x, v.y) for v in sampled.primary.violations} == set(exact.primary_violations)
        assert {(v.x, v.y) for v in sampled.dual.violations} == set(exact.dual_violations)


def test_smallest_passing_search_is_bounded():
    for threshold in (0.0, 1e-300, 0.3, 0.5, 7.0, 1e300):
        for candidate in (0.0, threshold, 0.2, 1e10, math.nan, math.inf):
            calls = []

            def check(v):
                calls.append(v)
                return v >= threshold

            assert _smallest_passing(check, candidate) == threshold
            assert len(calls) <= 130
    assert _smallest_passing(lambda v: False, 0.5) == math.inf


def test_escaping_image_raises_domain_error():
    cone = ConeSpec.orthant(2)
    space = ConeMetricSpace(cone, IntervalCarrier(0.0, 0.5, grid=11), DirectionMetric([1.0, 2.0]))
    maps = MapPair(IdentityMap(), AffineMap(2.0))
    pairs = grid_pairs(space)
    with pytest.raises(DomainError, match="S-image"):
        check_condition(space, maps, ClassSpec.tb(0.5), pairs)
    with pytest.raises(DomainError):
        fit_constants(space, maps, "TB", pairs)
    with pytest.raises(DomainError):
        verify_zamfirescu_reduction(space, maps, 0.5, 0.0, 0.0, pairs)
