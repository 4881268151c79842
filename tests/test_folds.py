"""Work over a short last axis, held bit for bit against the numpy
expressions it replaces: the column folds, the metric product, the slack
test and the row gathers of the pair terms."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conefix.cone_space import (
    COLUMNS_FROM, BoxCarrier, ConeMetricSpace, ConeSpec, DirectionMetric, IntervalCarrier, all_last, any_last,
    norm_last, table_take,
)
from conefix.contractions import pair_columns


def _rows(rng: np.random.Generator, m: int) -> np.ndarray:
    """300 rows of m columns over many magnitudes, with signed zeros, inf
    and NaN rows, a zero row and a row of negative zeros."""
    v = rng.standard_normal((300, m)) * np.exp(rng.normal(0.0, 8.0, (300, 1)))
    v[rng.random((300, m)) < 0.2] = 0.0
    v[rng.random((300, m)) < 0.1] = -0.0
    v[1] = 0.0
    v[2] = -0.0
    v[3, 0] = np.inf
    v[4, -1] = -np.inf
    v[5, 0] = np.nan
    v[6] = np.nan
    v[7, 0], v[7, -1] = np.inf, np.nan
    return v


def _shapes(v: np.ndarray) -> list[np.ndarray]:
    """(k, m), (n, n, m), a broadcast view, a strided view, Fortran order
    and single rows, as 2-d and as 1-d arrays."""
    m = v.shape[-1]
    return [
        v,
        v[:289].reshape(17, 17, m),
        np.broadcast_to(v[10], (40, m)),
        np.broadcast_to(v[:12, None, :], (12, 5, m)),
        v[::-3],
        np.asfortranarray(v),
        v[:1],
        v[0],
        v[6],
        np.zeros((0, m)),
    ]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", range(1, 10))
def test_norm_folds_match_numpy_bit_for_bit(m):
    rng = np.random.default_rng(m)
    for vs in _shapes(_rows(rng, m)):
        with np.errstate(invalid="ignore", over="ignore"):
            _same_bits(norm_last(vs, "max"), np.max(np.abs(vs), axis=-1))
            _same_bits(norm_last(vs, "euclidean"), np.linalg.norm(vs, axis=-1))
            for kind in ("max", "euclidean"):
                cone = ConeSpec.orthant(m, norm_kind=kind)
                _same_bits(cone.norm_rows(vs), norm_last(vs, kind))


@pytest.mark.parametrize("m", range(1, 10))
def test_logical_folds_match_numpy(m):
    rng = np.random.default_rng(100 + m)
    for vs in _shapes(_rows(rng, m)):
        for mask in (vs > 0.0, vs == 0.0, np.isfinite(vs), np.signbit(vs)):
            _same_bits(all_last(mask), np.all(mask, axis=-1))
            _same_bits(any_last(mask), np.any(mask, axis=-1))


def test_logical_folds_over_no_columns():
    mask = np.zeros((4, 0), dtype=bool)
    _same_bits(all_last(mask), np.all(mask, axis=-1))
    _same_bits(any_last(mask), np.any(mask, axis=-1))


def test_euclidean_fold_hands_over_at_eight_terms():
    # the sequential fold and numpy's pairwise sum differ from 8 terms on
    rng = np.random.default_rng(0)
    vs = rng.standard_normal((2000, 8)) * np.exp(rng.normal(0.0, 3.0, (2000, 8)))
    sequential = np.sqrt(np.cumsum(vs * vs, axis=-1)[:, -1])
    assert not np.array_equal(sequential, np.linalg.norm(vs, axis=-1))
    _same_bits(norm_last(vs, "euclidean"), np.linalg.norm(vs, axis=-1))



# ---------------------------------------------------------------------------
# Per-row values against the columns, and row gathers
# ---------------------------------------------------------------------------

_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e308])
# the row counts around the choice between a broadcast and one call per column
_ROWS = st.sampled_from([0, 1, 16, COLUMNS_FROM - 1, COLUMNS_FROM, 10_000])


def _values(rng: np.random.Generator, shape) -> np.ndarray:
    """Floats over many magnitudes, one in five a NaN, an inf, a signed zero,
    a subnormal or a huge value."""
    v = rng.standard_normal(shape) * np.exp(rng.normal(0.0, 8.0, shape))
    odd = rng.random(shape) < 0.2
    v[odd] = rng.choice(_SPECIAL, size=int(odd.sum()))
    return v


@settings(max_examples=60, deadline=None)
@given(k=_ROWS, m=st.integers(1, 3), rho=st.sampled_from(["absdiff", "euclidean", "max"]),
       d=st.integers(1, 3), lead=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_metric_product_matches_the_broadcast(k, m, rho, d, lead, seed):
    # pairwise writes direction * rho column by column from COLUMNS_FROM rows on
    rng = np.random.default_rng(seed)
    shape = ((2,) if lead else ()) + (k,) + (() if rho == "absdiff" else (d,))
    xs, ys = _values(rng, shape), _values(rng, shape)
    direction = _values(rng, m)
    with np.errstate(all="ignore"):
        r = DirectionMetric([1.0], rho).pairwise(xs, ys)[..., 0]
        _same_bits(DirectionMetric(direction, rho).pairwise(xs, ys), r[..., None] * direction)


@settings(max_examples=60, deadline=None)
@given(k=_ROWS, m=st.integers(1, 3), family=st.sampled_from(["orthant", "scaled_orthant", "polyhedral"]),
       norm=st.sampled_from(["max", "euclidean"]), slack=st.sampled_from([5e-324, 1e-12, 0.3, 5.0]),
       lead=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_slack_test_matches_the_broadcast(k, m, family, norm, slack, lead, seed):
    # inequality_mask compares column by column from COLUMNS_FROM rows on
    rng = np.random.default_rng(seed)
    if family == "orthant":
        cone = ConeSpec.orthant(m, norm_kind=norm)
    elif family == "scaled_orthant":
        cone = ConeSpec.scaled_orthant(rng.choice([0.0, 0.5, 2.0], m), norm_kind=norm)
    else:
        cone = ConeSpec.polyhedral(rng.standard_normal((rng.integers(1, 4), m)), norm_kind=norm)
    vs = _values(rng, ((3,) if lead else ()) + (k, m))
    with np.errstate(all="ignore"):
        want = vs @ cone.ineq_matrix.T >= -(slack * cone.norm_rows(vs))[..., None]
        _same_bits(cone.inequality_mask(vs, slack), want)


def _fancy_pair_columns(dist, t, ts, ix, iy) -> list[np.ndarray]:
    """The six pair terms gathered by fancy indexing."""
    own = dist(t, ts)
    return [dist(ts[ix], ts[iy]), dist(t[ix], t[iy]), own[ix], own[iy], dist(t[ix], ts[iy]), dist(t[iy], ts[ix])]


@settings(max_examples=60, deadline=None)
@given(k=_ROWS, m=st.integers(1, 3), carrier=st.sampled_from(["interval", "box", "finite", "crossed"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pair_term_gathers_match_fancy_indexing(k, m, carrier, seed):
    # interval and box images go through pairwise; a finite table through
    # table_take, on a pair list and on the oracle's crossed aranges
    rng = np.random.default_rng(seed)
    n = max(k, 1)
    if carrier in ("interval", "box"):
        lows = np.zeros(1 if carrier == "interval" else m)
        space = ConeMetricSpace(ConeSpec.orthant(m),
                                IntervalCarrier(0.0, 1.0) if carrier == "interval" else BoxCarrier(lows, lows + 1.0),
                                DirectionMetric(_values(rng, m), "absdiff" if carrier == "interval" else "max"))
        shape = (n,) if carrier == "interval" else (n, m)
        dist, t, ts = space.pairwise, _values(rng, shape), _values(rng, shape)
    else:
        n = min(n, 100)
        dist = partial(table_take, _values(rng, (n, n, m)))
        t, ts = rng.integers(0, n, n), rng.integers(0, n, n)
    if carrier == "crossed":
        ix, iy = np.arange(n)[:, None], np.arange(n)[None, :]
    else:
        ix, iy = rng.integers(0, n, k), rng.integers(0, n, k)
    with np.errstate(all="ignore"):
        terms = pair_columns(dist, t, ts, ix, iy)
        want = _fancy_pair_columns(dist, t, ts, ix, iy)
    for name, w in zip(("lhs", "d_tx_ty", "d_tx_tsx", "d_ty_tsy", "d_tx_tsy", "d_ty_tsx"), want):
        _same_bits(getattr(terms, name), w)


@settings(max_examples=60, deadline=None)
@given(k=_ROWS, m=st.integers(1, 3), branches=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_witness_rows_match_fancy_indexing(k, m, branches, seed):
    # a violation's rows, and a TZ witness's row of its best branch
    rng = np.random.default_rng(seed)
    rows = _values(rng, (branches, k, m))
    bad = np.flatnonzero(rng.random(k) < 0.3)
    best = rng.integers(0, branches, len(bad))
    _same_bits(rows[0].take(bad, axis=0), rows[0][bad])
    _same_bits(rows.take(bad, axis=1), rows[:, bad])
    _same_bits(table_take(rows, best, bad), rows[best, bad])
