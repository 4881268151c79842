"""Ordered vector spaces, cone-valued metrics, and their axiom checks.

The ambient space is E = R^m ordered by a closed convex cone P described
by finitely many linear inequalities, so membership, the induced partial
order, and interior tests are all decidable.  Vectors are float64 numpy
arrays.  Three cone families are built in:

* ``orthant``         P = {v : v_i >= 0}
* ``scaled_orthant``  P = {diag(w) u : u >= 0} for nonnegative weights w
                      (a zero weight collapses that coordinate to 0)
* ``polyhedral``      P = {v : A v >= 0 componentwise}

Carriers (the set the metric lives on) are real intervals, boxes, or
explicit finite point lists; metrics are either a scalar metric pushed
along a fixed interior direction u (d(x, y) = u * rho(x, y)) or a fully
tabulated metric on a finite carrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

ORTHANT = "orthant"
SCALED_ORTHANT = "scaled_orthant"
POLYHEDRAL = "polyhedral"

NORM_MAX = "max"
NORM_EUCLIDEAN = "euclidean"


class ConfigError(ValueError):
    """Bad instance configuration: dimensions, ranges, or family data."""


class DomainError(ValueError):
    """A carrier point (or a map image) fell outside the declared carrier."""


def as_vector(v, dimension: int) -> np.ndarray:
    """Validate and return v as a finite float vector of the given dimension."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (dimension,):
        raise ConfigError(f"expected a vector of dimension {dimension}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"non-finite coordinates are not admitted: {arr}")
    return arr


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ConeSpec:
    """A closed convex cone in R^m with an inequality description.

    ``interior_margin`` is the relative margin tau used by strict
    (interior) membership tests; ``slack`` is the relative tolerance
    eps_p applied by order/inequality tests (a violation must exceed
    slack * ||v|| in at least one defining inequality).  Set slack to 0
    for exact tests on dyadic data.
    """

    dimension: int
    family: str = ORTHANT
    weights: np.ndarray | None = None
    matrix: np.ndarray | None = None
    norm_kind: str = NORM_MAX
    interior_margin: float = 1e-9
    slack: float = 1e-12

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("cone dimension must be >= 1")
        if self.norm_kind not in (NORM_MAX, NORM_EUCLIDEAN):
            raise ConfigError(f"unknown norm kind {self.norm_kind!r}")
        if self.interior_margin <= 0:
            raise ConfigError("interior margin must be > 0")
        if self.slack < 0:
            raise ConfigError("slack must be >= 0")
        if not (math.isfinite(self.interior_margin) and math.isfinite(self.slack)):
            raise ConfigError("interior margin and slack must be finite")
        m = self.dimension
        if self.family == ORTHANT:
            self._ineq = np.eye(m)
        elif self.family == SCALED_ORTHANT:
            if self.weights is None:
                raise ConfigError("scaled_orthant requires weights")
            w = np.asarray(self.weights, dtype=float)
            if w.ndim == 1 and len(w) != m:
                raise ConfigError(f"weights length {len(w)} != dimension {m}")
            w = as_vector(w, m)
            if np.any(w < 0):
                raise ConfigError("scaled_orthant weights must be >= 0")
            self.weights = w
            # a collapsed coordinate (weight 0) is v_i = 0: the rows e_i and -e_i
            eye = np.eye(m)
            self._ineq = np.insert(eye, np.flatnonzero(w == 0) + 1, -eye[w == 0], axis=0)
        elif self.family == POLYHEDRAL:
            if self.matrix is None:
                raise ConfigError("polyhedral cone requires an inequality matrix")
            a = np.asarray(self.matrix, dtype=float)
            if a.ndim != 2 or a.shape[1] != m:
                raise ConfigError(f"inequality matrix must have {m} columns, got shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ConfigError("inequality matrix has non-finite entries")
            self.matrix = a
            self._ineq = a
        else:
            raise ConfigError(f"unknown cone family {self.family!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def orthant(cls, dimension: int = 2, **kw) -> "ConeSpec":
        return cls(dimension=dimension, family=ORTHANT, **kw)

    @classmethod
    def scaled_orthant(cls, weights, **kw) -> "ConeSpec":
        w = np.asarray(weights, dtype=float)
        return cls(dimension=len(w), family=SCALED_ORTHANT, weights=w, **kw)

    @classmethod
    def polyhedral(cls, matrix, **kw) -> "ConeSpec":
        a = np.asarray(matrix, dtype=float)
        return cls(dimension=a.shape[1], family=POLYHEDRAL, matrix=a, **kw)

    # -- geometry -----------------------------------------------------------

    @property
    def ineq_matrix(self) -> np.ndarray:
        """Rows r with P = {v : r . v >= 0 for all rows}."""
        return self._ineq

    def norm(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if self.norm_kind == NORM_MAX:
            return float(np.max(np.abs(v))) if v.size else 0.0
        return float(np.linalg.norm(v))

    def norm_rows(self, vs: np.ndarray) -> np.ndarray:
        if self.norm_kind == NORM_MAX:
            return np.max(np.abs(vs), axis=-1)
        return np.linalg.norm(vs, axis=-1)

    def inequality_values(self, v) -> np.ndarray:
        return self._ineq @ np.asarray(v, dtype=float)

    def contains(self, v, mode: str = "closed") -> bool:
        """Exact closed membership, or interior membership with margin tau * ||v||."""
        v = as_vector(v, self.dimension)
        vals = self._ineq @ v
        if mode == "closed":
            return bool(np.all(vals >= 0.0))
        if mode == "interior":
            nv = self.norm(v)
            return nv > 0.0 and bool(np.all(vals >= self.interior_margin * nv))
        raise ConfigError(f"unknown membership mode {mode!r}")

    def inequality_mask(self, vs: np.ndarray, slack: float) -> np.ndarray:
        """Per row of vs and per defining inequality: does the value reach
        -slack * ||row||?  A row lies in P up to slack when all of them do."""
        vals = vs @ self._ineq.T
        if slack == 0.0:
            return vals >= 0.0
        return vals >= -(slack * self.norm_rows(vs))[..., None]

    def contains_relaxed_rows(self, vs: np.ndarray) -> np.ndarray:
        return np.all(self.inequality_mask(vs, self.slack), axis=-1)

    def interior_point(self) -> np.ndarray | None:
        """A strictly feasible point of P, or None when Int P is empty."""
        if self.family == ORTHANT:
            return np.ones(self.dimension)
        if self.family == SCALED_ORTHANT:
            if np.all(self.weights > 0):
                return np.array(self.weights, dtype=float)
            return None
        return _chebyshev_direction(self._ineq)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw up to ``size`` points of P (rejection for polyhedral cones).

        May return fewer rows than requested when rejection starves; callers
        must treat a short result as reduced evidence, not failure.
        """
        m = self.dimension
        if self.family == ORTHANT:
            pts = np.abs(rng.standard_normal((size, m)))
        elif self.family == SCALED_ORTHANT:
            pts = np.abs(rng.standard_normal((size, m))) * self.weights
        else:
            budget, got = 0, []
            while sum(len(g) for g in got) < size and budget < 200:
                cand = rng.standard_normal((max(size, 256), m))
                keep = cand[np.all(cand @ self._ineq.T >= 0.0, axis=1)]
                got.append(keep)
                budget += 1
            pts = np.concatenate(got)[:size] if got else np.zeros((0, m))
        if len(pts):
            scales = np.exp(rng.normal(0.0, 1.0, size=len(pts)))
            pts = pts * scales[:, None]
        return pts


def _chebyshev_direction(ineq: np.ndarray) -> np.ndarray | None:
    """Strictly feasible direction for {v : ineq v >= 0}, via a small LP."""
    from scipy.optimize import linprog

    q, m = ineq.shape
    # maximize t  s.t.  ineq v - t >= 0,  -1 <= v <= 1,  0 <= t <= 1
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-ineq, np.ones((q, 1))])
    b_ub = np.zeros(q)
    bounds = [(-1.0, 1.0)] * m + [(0.0, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success or res.x[-1] <= 1e-9:
        return None
    return res.x[:-1]


# ---------------------------------------------------------------------------
# Axiom reports and sampling plans
# ---------------------------------------------------------------------------

@dataclass
class SamplingPlan:
    """Seeded, reproducible sampling budget for verification runs."""

    count: int = 10_000
    seed: int = 0

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass
class AxiomViolation:
    axiom: str
    witness: tuple
    residual: object


@dataclass
class AxiomReport:
    axioms_checked: list[str]
    violations: list[AxiomViolation]
    sample_count: int

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_cone_axioms(cone: ConeSpec, plan: SamplingPlan | None = None) -> AxiomReport:
    """Check the cone laws (zero and interior membership, closure under
    nonnegative combinations, pointedness) on a seeded sample and on a
    deterministic probe set.  Degenerate cones yield violation entries,
    never exceptions.
    """
    plan = plan or SamplingPlan()
    rng = plan.rng()
    m = cone.dimension
    violations: list[AxiomViolation] = []

    # P1: zero belongs, and the declared interior is nonempty.
    if not cone.contains(np.zeros(m)):
        violations.append(AxiomViolation("P1-zero", (np.zeros(m),), None))
    ip = cone.interior_point()
    if ip is None:
        violations.append(AxiomViolation("P1-interior-nonempty", (), None))
    elif not cone.contains(ip, "interior"):
        violations.append(AxiomViolation("P1-interior-nonempty", (ip,), cone.inequality_values(ip)))

    # P2: ax + by stays in P for a, b in [0, 10].
    xs = cone.sample(rng, plan.count)
    ys = cone.sample(rng, plan.count)
    k = min(len(xs), len(ys))
    if k:
        coeff = rng.uniform(0.0, 10.0, size=(k, 2))
        combos = coeff[:, :1] * xs[:k] + coeff[:, 1:] * ys[:k]
        ok = cone.contains_relaxed_rows(combos)
        for idx in np.flatnonzero(~ok):
            violations.append(
                AxiomViolation(
                    "P2-combination",
                    (coeff[idx, 0], coeff[idx, 1], xs[idx], ys[idx]),
                    cone.inequality_values(combos[idx]),
                )
            )

    # P3: pointedness.  Any nontrivial direction of the inequality
    # matrix's nullspace lies in P together with its negative.
    null = _nullspace(cone.ineq_matrix)
    for v in null:
        violations.append(AxiomViolation("P3-pointed", (v,), cone.inequality_values(v)))
    probes = [np.eye(m)[i] * s for i in range(m) for s in (1.0, -1.0)]
    probes.append(np.ones(m))
    probes.append(-np.ones(m))
    if k:
        probes.extend(xs[: min(k, 64)])
    seen = set()
    for v in probes:
        key = tuple(np.round(v / max(cone.norm(v), 1e-300), 12))
        if key in seen or cone.norm(v) == 0.0:
            continue
        seen.add(key)
        if cone.contains(v) and cone.contains(-v):
            violations.append(AxiomViolation("P3-pointed", (v,), cone.inequality_values(v)))

    return AxiomReport(["P1", "P2", "P3"], _dedupe(violations), k)


def _nullspace(a: np.ndarray, tol: float = 1e-10) -> list[np.ndarray]:
    _, s, vt = np.linalg.svd(a)
    null = [vt[i] for i in range(a.shape[1]) if i >= len(s) or s[i] <= tol * max(s[0], 1.0)]
    cleaned = []
    for v in null:
        v = np.where(np.abs(v) < 1e-12, 0.0, v)
        scale = np.max(np.abs(v))
        if scale > 0:
            cleaned.append(v / scale)
    return cleaned


def _dedupe(violations: list[AxiomViolation]) -> list[AxiomViolation]:
    out, seen = [], set()
    for v in violations:
        key = (v.axiom, str(v.witness))
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------
#
# Each carrier has an array form for a list of its points (``to_array``, and
# ``from_array`` back to point objects) and a membership ``mask`` over it.

@dataclass
class IntervalCarrier:
    lo: float
    hi: float
    grid: int = 101

    finite = False

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo >= self.hi:
            raise ConfigError(f"bad interval [{self.lo}, {self.hi}]")
        if self.grid < 2:
            raise ConfigError("grid resolution must be >= 2")

    def contains(self, x) -> bool:
        return isinstance(x, (int, float, np.floating)) and self.lo <= float(x) <= self.hi

    # Array form of a point list: a float vector.
    def to_array(self, points) -> np.ndarray:
        return np.asarray(points, dtype=float)

    def from_array(self, xs: np.ndarray) -> list:
        return xs.tolist()

    def mask(self, xs: np.ndarray) -> np.ndarray:
        return (xs >= self.lo) & (xs <= self.hi)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=size)

    def grid_points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.grid)


@dataclass
class BoxCarrier:
    lows: np.ndarray
    highs: np.ndarray
    grid: int = 11

    finite = False

    def __post_init__(self):
        self.lows = np.asarray(self.lows, dtype=float)
        self.highs = np.asarray(self.highs, dtype=float)
        if self.lows.shape != self.highs.shape or np.any(self.lows >= self.highs):
            raise ConfigError("box carrier requires lows < highs componentwise")
        if not (np.all(np.isfinite(self.lows)) and np.all(np.isfinite(self.highs))):
            raise ConfigError("box carrier bounds must be finite")

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return x.shape == self.lows.shape and bool(
            np.all(x >= self.lows) and np.all(x <= self.highs)
        )

    # Array form of a point list: one row per point.
    def to_array(self, points) -> np.ndarray:
        return np.asarray(points, dtype=float).reshape(len(points), len(self.lows))

    def from_array(self, xs: np.ndarray) -> list:
        return list(xs)

    def mask(self, xs: np.ndarray) -> np.ndarray:
        return np.all((xs >= self.lows) & (xs <= self.highs), axis=-1)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lows, self.highs, size=(size, len(self.lows)))

    def grid_points(self) -> np.ndarray:
        axes = [np.linspace(lo, hi, self.grid) for lo, hi in zip(self.lows, self.highs)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass
class FinitePointsCarrier:
    points: list

    finite = True

    def __post_init__(self):
        if not self.points:
            raise ConfigError("finite carrier needs at least one point")
        self.index = {p: i for i, p in enumerate(self.points)}
        if len(self.index) != len(self.points):
            raise ConfigError("finite carrier points must be distinct")

    def contains(self, x) -> bool:
        return self._position(x) >= 0

    def _position(self, x) -> int:
        try:
            return self.index.get(x, -1)
        except TypeError:       # unhashable: not a point of the carrier
            return -1

    # Array form of a point list: the point indices, -1 for a point that is
    # not in the carrier.
    def to_array(self, points) -> np.ndarray:
        return np.array([self._position(p) for p in points], dtype=np.intp)

    def from_array(self, xs: np.ndarray) -> list:
        return [self.points[i] for i in xs.tolist()]

    def mask(self, xs: np.ndarray) -> np.ndarray:
        return xs >= 0

    def sample(self, rng: np.random.Generator, size: int) -> list:
        idx = rng.integers(0, len(self.points), size=size)
        return [self.points[i] for i in idx]

    def grid_points(self) -> list:
        return list(self.points)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class DirectionMetric:
    """d(x, y) = direction * rho(x, y) for a scalar metric rho on the carrier."""

    direction: np.ndarray
    rho: str = "absdiff"

    def __post_init__(self):
        self.direction = np.asarray(self.direction, dtype=float)
        if self.rho not in ("absdiff", "euclidean", "max"):
            raise ConfigError(f"unknown scalar metric {self.rho!r}")

    def __call__(self, x, y) -> np.ndarray:
        return self.pairwise([x], [y])[0]

    def pairwise(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if self.rho == "absdiff":
            r = np.abs(xs - ys)
        else:
            dx = xs - ys
            if dx.ndim == 1:        # numbers: one 1-vector per pair
                dx = dx[:, None]
            r = np.max(np.abs(dx), axis=-1) if self.rho == "max" else np.linalg.norm(dx, axis=-1)
        return r[..., None] * self.direction


@dataclass
class TabulatedMetric:
    """Fully tabulated metric on a finite carrier: table[i, j] = d(points[i], points[j])."""

    points: list
    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=float)
        n = len(self.points)
        if self.table.shape[:2] != (n, n) or self.table.ndim != 3:
            raise ConfigError(f"metric table must have shape (n, n, m), got {self.table.shape}")
        self.index = {p: i for i, p in enumerate(self.points)}

    def _idx(self, x) -> int:
        try:
            return self.index[x]
        except (KeyError, TypeError):
            raise DomainError(f"point {x!r} is not tabulated") from None

    def __call__(self, x, y) -> np.ndarray:
        return self.table[self._idx(x), self._idx(y)]

    def pairwise(self, xs, ys) -> np.ndarray:
        ix = np.asarray([self._idx(x) for x in xs])
        iy = np.asarray([self._idx(y) for y in ys])
        return self.table[ix, iy]


@dataclass
class FunctionMetric:
    """Arbitrary callable metric; the instrument for deliberately broken metrics."""

    fn: Callable

    def __call__(self, x, y) -> np.ndarray:
        return np.asarray(self.fn(x, y), dtype=float)

    def pairwise(self, xs, ys) -> np.ndarray:
        return np.stack([self(x, y) for x, y in zip(xs, ys)])


@dataclass
class ConeMetricSpace:
    cone: ConeSpec
    carrier: IntervalCarrier | BoxCarrier | FinitePointsCarrier
    metric: DirectionMetric | TabulatedMetric | FunctionMetric

    def __post_init__(self):
        # a table over the carrier's own points is indexed by the array form
        same = isinstance(self.metric, TabulatedMetric) and self.carrier.finite \
            and self.metric.points == list(self.carrier.points)
        self._table = self.metric.table if same else None

    def require_point(self, x, what: str = "point"):
        if not self.carrier.contains(x):
            raise DomainError(f"{what} {x!r} lies outside the carrier")
        return x

    def array_form(self, points: list, what: str = "point") -> np.ndarray:
        """``points`` in the carrier's array form.  A finite carrier holds
        only its own points; an interval or a box holds any number or vector."""
        xs = self.carrier.to_array(points)
        if self.carrier.finite:
            missing = np.flatnonzero(xs < 0)
            if missing.size:
                self.require_point(points[missing[0]], what)
        return xs

    def d(self, x, y) -> np.ndarray:
        return np.asarray(self.metric(x, y), dtype=float)

    def pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """d(xs[i], ys[i]) for two equal-length point lists in the carrier's
        array form, one row per pair."""
        if len(xs) == 0:
            return np.zeros((0, self.cone.dimension))
        if self._table is not None:
            return self._table[xs, ys]
        if self.carrier.finite:
            xs, ys = self.carrier.from_array(xs), self.carrier.from_array(ys)
        return np.asarray(self.metric.pairwise(xs, ys), dtype=float)

    def gap_norm(self, x, y) -> float:
        return self.cone.norm(self.d(x, y))


def point_key(x):
    """Hashable identity of a carrier point (box points are arrays)."""
    if isinstance(x, np.ndarray):
        return tuple(x.tolist())
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def metric_table_failures(table: np.ndarray, cone: ConeSpec, slack: float) -> dict[str, np.ndarray]:
    """Where the metric table d[i, j] (shape (n, n, m)) breaks d1-d3, with
    cone tests at relative ``slack``: one failure mask per axiom, in
    reporting order.  Masks are (n, n) over pairs, (n,) over points for
    "d1-identity", and (n, n, n) over (x, y, z) for "d3-triangle": where
    a.d(x, z) + a.d(z, y) < a.d(x, y) for a cone row a, on the table
    projected onto the rows once (exact for unit rows, and for polyhedral
    rows on dyadic tables); at slack > 0 those triples are tested again on
    d(x, z) + d(z, y) - d(x, y)."""
    n, m = table.shape[0], table.shape[-1]

    def outside(vs: np.ndarray) -> np.ndarray:
        return ~np.all(cone.inequality_mask(vs.reshape(-1, m), slack), axis=-1).reshape(vs.shape[:-1])

    proj = np.ascontiguousarray(np.moveaxis(table @ cone.ineq_matrix.T, -1, 0))   # (r, n, n)
    # (z, x, y) layout.  While every triangle holds it is a read-only view
    # of one all-False (x, y) slice: a valid table allocates no n^3 mask.
    triangle = np.broadcast_to(np.zeros((n, n), dtype=bool), (n, n, n))
    for z in range(n):
        bad = np.any(proj[:, :, z, None] + proj[:, None, z, :] < proj, axis=0)
        if slack > 0.0 and bad.any():
            xs, ys = np.nonzero(bad)
            bad[xs, ys] = outside(table[xs, z] + table[z, ys] - table[xs, ys])
        if bad.any():
            if not triangle.flags.writeable:
                triangle = np.zeros((n, n, n), dtype=bool)
            triangle[z] = bad
    return {
        "d1-cone": outside(table),
        "d1-separation": np.all(table == 0.0, axis=-1) & ~np.eye(n, dtype=bool),
        "d1-identity": np.any(table[np.arange(n), np.arange(n)] != 0.0, axis=-1),
        "d2-symmetry": np.any(table != np.swapaxes(table, 0, 1), axis=-1),
        "d3-triangle": triangle.transpose(1, 2, 0),
    }


def verify_metric_axioms(space: ConeMetricSpace, plan: SamplingPlan | None = None) -> AxiomReport:
    """Check d1 (cone-valued, zero exactly on the diagonal), d2 (symmetry),
    and d3 (triangle inequality in the cone order) on sampled pairs and
    triples.  An affordable finite carrier is tabulated instead (one metric
    call per ordered pair) and scanned by ``metric_table_failures`` at the
    cone's slack, the scan that validates every ``FiniteInstance``.
    """
    plan = plan or SamplingPlan()
    rng = plan.rng()
    carrier, metric, cone = space.carrier, space.metric, space.cone
    violations: list[AxiomViolation] = []

    if carrier.finite and len(carrier.points) ** 3 <= max(plan.count, 2_000_000):
        pts = list(carrier.points)
        n = len(pts)
        d = metric.pairwise([x for x in pts for _ in pts], pts * n).reshape(n, n, -1)
        residuals = {
            "d1-cone": lambda i, j: d[i, j],
            "d1-separation": lambda i, j: d[i, j],
            "d1-identity": lambda i: d[i, i],
            "d2-symmetry": lambda i, j: d[i, j] - d[j, i],
            "d3-triangle": lambda i, j, k: d[i, k] + d[k, j] - d[i, j],
        }
        for axiom, mask in metric_table_failures(d, cone, cone.slack).items():
            for idx in np.argwhere(mask).tolist():
                violations.append(AxiomViolation(axiom, tuple(pts[i] for i in idx), residuals[axiom](*idx)))
        return AxiomReport(["d1", "d2", "d3"], violations, n * n + n ** 3)

    base = carrier.sample(rng, plan.count)
    other = carrier.sample(rng, plan.count)
    xs, ys = list(base), list(other)
    txs = list(carrier.sample(rng, plan.count))
    tys = list(carrier.sample(rng, plan.count))
    tzs = list(carrier.sample(rng, plan.count))
    checked = 2 * plan.count

    dxy = metric.pairwise(xs, ys)
    dyx = metric.pairwise(ys, xs)

    # d1: values live in the cone; zero exactly on the diagonal.
    in_cone = cone.contains_relaxed_rows(dxy)
    zero = np.all(dxy == 0.0, axis=-1)
    for idx in np.flatnonzero(~in_cone):
        violations.append(AxiomViolation("d1-cone", (xs[idx], ys[idx]), dxy[idx]))
    for idx in np.flatnonzero(zero):
        if point_key(xs[idx]) != point_key(ys[idx]):
            violations.append(AxiomViolation("d1-separation", (xs[idx], ys[idx]), dxy[idx]))
    diag = metric.pairwise(xs, xs)
    for idx in np.flatnonzero(~np.all(diag == 0.0, axis=-1)):
        violations.append(AxiomViolation("d1-identity", (xs[idx],), diag[idx]))

    # d2: exact symmetry.
    for idx in np.flatnonzero(~np.all(dxy == dyx, axis=-1)):
        violations.append(AxiomViolation("d2-symmetry", (xs[idx], ys[idx]), dxy[idx] - dyx[idx]))

    # d3: d(x,z) + d(z,y) - d(x,y) stays in the cone.
    res = metric.pairwise(txs, tzs) + metric.pairwise(tzs, tys) - metric.pairwise(txs, tys)
    ok = cone.contains_relaxed_rows(res)
    for idx in np.flatnonzero(~ok):
        violations.append(AxiomViolation("d3-triangle", (txs[idx], tys[idx], tzs[idx]), res[idx]))

    return AxiomReport(["d1", "d2", "d3"], violations, checked)


# ---------------------------------------------------------------------------
# Normal constant
# ---------------------------------------------------------------------------

@dataclass
class NormalConstantEstimate:
    """Empirical lower bound on the least K with ||x|| <= K ||y|| for 0 <= x <= y."""

    value: float
    pairs_used: int
    inconclusive: bool

    def __float__(self) -> float:
        return self.value


def estimate_normal_constant(
    cone: ConeSpec,
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None,
    n: int = 100_000,
    *,
    seed: int = 0,
) -> NormalConstantEstimate:
    """Supremum of ||x|| / ||y|| over n sampled ordered pairs 0 <= x <= y.

    Pairs are built as (p, p + q) with p, q sampled from P, so both order
    constraints hold by construction; roughly a quarter of the draws (and
    always the first) use the degenerate pair x = y, which attains the
    supremum on cones with a monotone norm.  The estimate is a lower bound
    on the true constant and is nondecreasing in n for a fixed seed.
    """
    if n < 1:
        raise ConfigError("need at least one sample")
    draw = sampler or (lambda rng, size: cone.sample(rng, size))
    rng = np.random.default_rng(seed)
    best = 0.0
    used = 0
    remaining = n
    first = True
    chunk = 4096
    while remaining > 0:
        take = min(chunk, remaining)
        u = rng.random(take)
        p = np.asarray(draw(rng, take), dtype=float)
        q = np.asarray(draw(rng, take), dtype=float)
        k = min(len(p), len(q), take)
        if k == 0:
            remaining -= take
            continue
        degenerate = u[:k] < 0.25
        if first and k:
            degenerate[0] = True
            first = False
        x = p[:k]
        y = np.where(degenerate[:, None], p[:k], p[:k] + q[:k])
        nx = cone.norm_rows(x)
        ny = cone.norm_rows(y)
        keep = ny > 0.0
        if np.any(keep):
            best = max(best, float(np.max(nx[keep] / ny[keep])))
            used += int(np.count_nonzero(keep))
        remaining -= take
    return NormalConstantEstimate(value=best, pairs_used=used, inconclusive=used == 0)
