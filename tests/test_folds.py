"""Column folds over a short last axis, held bit for bit against the numpy
reductions they replace."""

import numpy as np
import pytest

from conefix.cone_space import ConeSpec, all_last, any_last, norm_last


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

