"""Canonical built-in instances used across tests and docs.

* A: M = [0, 1], d(x, y) = (|x-y|, 2|x-y|), T = identity, S(x) = x/2
* B: M = [0, 1], same metric, T(x) = x^3, S(x) = x/4
* C: M = [0, 1], same metric, T = S = identity (every point is fixed)
* D: finite carrier {0, ..., 9}, d(i, j) = (|i-j|, 2|i-j|), T = identity,
     S(k) = floor(k / 2)
"""

from __future__ import annotations

import numpy as np

from .cone_space import ConeMetricSpace, ConeSpec, DirectionMetric, IntervalCarrier
from .contractions import AffineMap, IdentityMap, MapPair, PowerMap
from .oracle import FiniteInstance, finite_from_values

DIRECTION = (1.0, 2.0)


def _unit_space(grid: int = 101) -> ConeMetricSpace:
    cone = ConeSpec.orthant(2, norm_kind="max")
    carrier = IntervalCarrier(0.0, 1.0, grid=grid)
    metric = DirectionMetric(np.asarray(DIRECTION))
    return ConeMetricSpace(cone, carrier, metric)


def instance_a(grid: int = 101) -> tuple[ConeMetricSpace, MapPair]:
    return _unit_space(grid), MapPair(IdentityMap(), AffineMap(0.5))


def instance_b(grid: int = 101) -> tuple[ConeMetricSpace, MapPair]:
    return _unit_space(grid), MapPair(PowerMap(3), AffineMap(0.25))


def instance_c(grid: int = 101) -> tuple[ConeMetricSpace, MapPair]:
    return _unit_space(grid), MapPair(IdentityMap(), IdentityMap())


def instance_d() -> FiniteInstance:
    values = np.arange(10, dtype=float)
    t = np.arange(10)
    s = np.arange(10) // 2
    return finite_from_values(values, t, s, direction=DIRECTION)


def instance_c_grid(n: int = 101) -> FiniteInstance:
    """Identity maps on n dyadic grid points of [0, 1] (spacing 1/128)."""
    values = np.arange(n, dtype=float) / 128.0
    idx = np.arange(n)
    return finite_from_values(values, idx, idx, direction=DIRECTION)
