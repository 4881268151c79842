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
import operator
from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

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


# ---------------------------------------------------------------------------
# Work over a short last axis
# ---------------------------------------------------------------------------
#
# The cone axis (m = 2 or 3 in practice), a cone's inequality rows (2-3) and
# the coordinates of a box point are short last axes.  numpy runs its inner
# loop once per row when it reduces along such an axis, when it broadcasts a
# per-row value against it, and when it gathers rows by an index array.  So
# the reductions below fold the elementwise ufunc over the columns instead
# (one whole-array call per column), the metric product and the slack test
# write one column per call from COLUMNS_FROM rows on, and rows are gathered
# with ``take(..., axis=0)`` (``table_take`` for two indices).  Each form
# gives numpy's own bits.  On 10,000 rows of 2: the product takes 21 us
# against 150 us, the slack test 36 against 54 us, a gather 16-17 against
# 186-196 us.

_PAIRWISE_SUM_FROM = 8      # numpy sums this many terms or more pairwise
# Below this many rows one broadcast costs as much as one call per column or
# less (the product at 16 rows of 2: 2.4 us against 3.8 us; the slack test
# breaks even near 1,000 rows).
COLUMNS_FROM = 1024


def _fold(op, a: np.ndarray, empty=None) -> np.ndarray:
    """op folded over the columns of a's last axis, left to right."""
    if a.shape[-1] == 0:
        return np.full(a.shape[:-1], empty)
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = op(out, a[..., j])
    return out


def all_last(mask: np.ndarray) -> np.ndarray:
    """np.all(mask, axis=-1) for a boolean array, as np.logical_and folded
    over the columns.  On 10,000 rows of 2 columns the fold takes about
    21 us and numpy's per-row reduction 315 us.  The fold is exact."""
    return _fold(np.logical_and, mask, True)


def any_last(mask: np.ndarray) -> np.ndarray:
    """np.any(mask, axis=-1) for a boolean array, as np.logical_or folded
    over the columns (the cost and exactness of ``all_last``)."""
    return _fold(np.logical_or, mask, False)


def norm_last(vs: np.ndarray, kind: str) -> np.ndarray:
    """The max or euclidean norm of each vector along the last axis, with
    the bits of np.max(np.abs(vs), axis=-1) or np.linalg.norm(vs, axis=-1).

    The max norm folds np.maximum over the columns of |vs|, exactly: 12 us
    against 533 us on 10,000 rows of 2.  The euclidean norm folds np.add
    over the squares left to right, 37 us against 244 us; numpy sums fewer
    than 8 terms in that same order, so the bits agree.  From 8 terms on
    numpy sums pairwise, and np.linalg.norm is kept."""
    if kind == NORM_MAX:
        return _fold(np.maximum, np.abs(vs))
    if vs.shape[-1] >= _PAIRWISE_SUM_FROM:
        return np.linalg.norm(vs, axis=-1)
    return np.sqrt(_fold(np.add, vs * vs))


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
    """A closed convex cone in R^m with an inequality description: the
    rows r of ``ineq_matrix``, with P = {v : r . v >= 0 for all rows}.

    ``slack`` is the relative tolerance eps_p applied by order/inequality
    tests (a violation must exceed slack * ||v|| in at least one defining
    inequality).  Set slack to 0 for exact tests on dyadic data.
    """

    dimension: int
    family: str = ORTHANT
    weights: np.ndarray | None = None
    matrix: np.ndarray | None = None
    norm_kind: str = NORM_MAX
    slack: float = 1e-12

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("cone dimension must be >= 1")
        if self.norm_kind not in (NORM_MAX, NORM_EUCLIDEAN):
            raise ConfigError(f"unknown norm kind {self.norm_kind!r}")
        if self.slack < 0:
            raise ConfigError("slack must be >= 0")
        if not math.isfinite(self.slack):
            raise ConfigError("slack must be finite")
        m = self.dimension
        if self.family == ORTHANT:
            self.ineq_matrix = np.eye(m)
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
            self.ineq_matrix = np.insert(eye, np.flatnonzero(w == 0) + 1, -eye[w == 0], axis=0)
        elif self.family == POLYHEDRAL:
            if self.matrix is None:
                raise ConfigError("polyhedral cone requires an inequality matrix")
            a = np.asarray(self.matrix, dtype=float)
            if a.ndim != 2 or a.shape[1] != m:
                raise ConfigError(f"inequality matrix must have {m} columns, got shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ConfigError("inequality matrix has non-finite entries")
            self.matrix = a
            self.ineq_matrix = a
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

    def norm(self, v) -> float:
        return float(self.norm_rows(np.asarray(v, dtype=float)))

    def norm_rows(self, vs: np.ndarray) -> np.ndarray:
        """The cone norm of each vector along the last axis, folded over the
        columns by ``norm_last`` (numpy's per-row reduction costs 6-40x
        more on two columns); bit for bit numpy's own reduction."""
        return norm_last(vs, self.norm_kind)

    @cached_property
    def exact_rows(self) -> list[list[Fraction]]:
        """The nonzero rows of ``ineq_matrix`` as Fractions (a zero row
        constrains nothing): membership and the cone axioms read only these."""
        return [[Fraction(x) for x in row] for row in self.ineq_matrix.tolist() if any(row)]

    @cached_property
    def has_interior(self) -> bool:
        """P1: is the interior of P nonempty?  Decided exactly, once per
        cone: one float witness (``_interior_witness``) tested exactly, and
        only when it fails the phase-one simplex (``_has_interior``)."""
        return self.contains(_interior_witness(self), "interior") or _has_interior(self.exact_rows, self.dimension)

    def contains(self, v, mode: str = "closed") -> bool:
        """Exact membership: a . v >= 0 on every row ("closed"), or v != 0 and
        a . v > 0 on every row ("interior", nonempty exactly when P1 holds)."""
        v = [Fraction(x) for x in as_vector(v, self.dimension).tolist()]
        vals = [sum(a * x for a, x in zip(row, v)) for row in self.exact_rows]
        if mode == "closed":
            return all(val >= 0 for val in vals)
        if mode == "interior":
            return any(v) and all(val > 0 for val in vals)
        raise ConfigError(f"unknown membership mode {mode!r}")

    def inequality_mask(self, vs: np.ndarray, slack: float) -> np.ndarray:
        """Per row of vs and per defining inequality: does the value reach
        -slack * ||row||?  A row lies in P up to slack when all of them do."""
        vals = vs @ self.ineq_matrix.T
        if slack == 0.0:
            return vals >= 0.0
        bound = -(slack * self.norm_rows(vs))
        if vals.shape[-1] < 2 or bound.size < COLUMNS_FROM:
            return vals >= bound[..., None]
        out = np.empty(vals.shape, dtype=bool)
        for j in range(vals.shape[-1]):
            np.greater_equal(vals[..., j], bound, out=out[..., j])
        return out

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
        elif not self.has_interior:      # a draw lands in P with probability 0
            pts = np.zeros((0, m))
        else:
            budget, got = 0, []
            while sum(len(g) for g in got) < size and budget < 200:
                cand = rng.standard_normal((max(size, 256), m))
                keep = cand[all_last(cand @ self.ineq_matrix.T >= 0.0)]
                got.append(keep)
                budget += 1
            pts = np.concatenate(got)[:size] if got else np.zeros((0, m))
        if len(pts):
            scales = np.exp(rng.normal(0.0, 1.0, size=len(pts)))
            pts = pts * scales[:, None]
        return pts


# ---------------------------------------------------------------------------
# Axiom reports
# ---------------------------------------------------------------------------

def as_tuple(*row) -> tuple:
    """The entry of a view whose entries are plain tuples, such as pairs."""
    return row


def _same(a, b) -> bool:
    """``a == b`` for report entries, where an array equals one of the same
    shape and values, and a tuple or a dataclass entry compares field by
    field (a list of entries holding arrays cannot compare)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if type(a) is type(b) and hasattr(a, "__dataclass_fields__"):
        a, b = tuple(vars(a).values()), tuple(vars(b).values())
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


class LazyRows(Sequence):
    """A read-only sequence of report entries kept as array columns: an
    entry is built only when read (by index, slice or iteration), so a
    length or a truth test builds none.  Each group ``(make, points,
    values)`` holds equal-length columns, and its entry i is
    ``make(*points_i, *values_i)``: ``from_array`` turns the rows of a point
    column into objects (a carrier's points, or ints for index arrays) and
    a value column's rows pass as they are.  The view equals a list or a
    view of equal entries, and prints as the list it stands for."""

    def __init__(self, from_array: Callable, groups: list[tuple[Callable, tuple, tuple]]):
        self._from_array, self._groups = from_array, groups
        self._ends = list(accumulate(len((*points, *values)[0]) for _, points, values in groups))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._build(key)
        n, i = len(self), operator.index(key)
        if not -n <= i < n:
            raise IndexError("violation index out of range")
        return self._build(slice(i % n, i % n + 1))[0]

    def __iter__(self):
        return iter(self._build(slice(None)))

    def __eq__(self, other):
        if isinstance(other, (LazyRows, list)):
            return len(self) == len(other) and all(map(_same, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._build(slice(None)))

    def head_columns(self, k: int) -> list:
        """The fields of the first ``k`` entries of a one-group view (as
        ``PairSet.witnesses`` builds) as columns, in the order ``make`` takes
        them, with no entry built: a point column as the list ``from_array``
        makes of its rows, a value column as a slice of its array."""
        (_, points, values), = self._groups
        return [*(self._from_array(p[:k]) for p in points), *(v[:k] for v in values)]

    def _build(self, rows: slice) -> list:
        picked = range(len(self))[rows]
        if picked.step < 0:
            return self._build(slice(picked[-1], picked[0] + 1, -picked.step))[::-1] if picked else []
        out, lo = [], 0
        for (make, points, values), hi in zip(self._groups, self._ends):
            part = picked[bisect_left(picked, lo):bisect_left(picked, hi)]
            if part:
                at = slice(part.start - lo, part.stop - lo, part.step)
                out += map(make, *(self._from_array(p[at]) for p in points), *(v[at] for v in values))
            lo = hi
        return out


class SameFields:
    """Report entries compared field by field through ``_same`` (not as
    tuples, where arrays of two or more values raise)."""

    def __eq__(self, other):
        return _same(self, other) if type(other) is type(self) else NotImplemented


@dataclass(eq=False)
class AxiomViolation(SameFields):
    axiom: str
    witness: tuple
    residual: object


def _axiom_group(axiom: str, points: tuple, residuals: Sequence) -> tuple:
    """The ``LazyRows`` group of an axiom's failing entries: one column per
    witness point, and the residual of each entry."""
    return (lambda *row: AxiomViolation(axiom, row[:-1], row[-1])), points, (residuals,)


@dataclass
class AxiomReport:
    axioms_checked: list[str]
    violations: Sequence[AxiomViolation]
    sample_count: int
    rule: str       # what decided: "rows" (a cone's), "direction", "table" or "sampled"

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_cone_axioms(cone: ConeSpec) -> AxiomReport:
    """Decide the cone laws exactly from the nonzero rows A of the
    inequality matrix, ``cone.exact_rows``.  P = {v : A v >= 0} holds 0
    and every nonnegative combination of its points by construction (P1's
    zero, P2).  Its interior is nonempty exactly when some v has A v > 0
    (equivalently A v >= 1).  One float witness, the sum of the rows each
    scaled to length 1 (``_interior_witness``), is tested exactly first;
    only when it fails does a phase-one simplex run decide, so the verdict
    is always the simplex's (Shewchuk's pattern of a float filter with an
    exact fallback, Discrete Comput. Geom. 18, 1997).  P is pointed (P3) exactly
    when A has rank m; otherwise each vector of an exact nullspace basis
    lies in P and in -P and is reported with its values on all rows of
    ``ineq_matrix``.  Nothing is sampled (``sample_count`` 0, rule
    "rows").  Degenerate cones yield violation entries, never exceptions.
    """
    groups = []
    if not cone.has_interior:
        groups.append(_axiom_group("P1-interior-nonempty", (), [None]))
    basis = _nullspace(cone.exact_rows, cone.dimension)
    if basis:
        # a huge entry is scaled by a power of two to stay finite
        vs = np.array([[x / (1 << max(0, max(map(abs, ints)).bit_length() - 1000)) for x in ints]
                       for ints in basis])
        groups.append(_axiom_group("P3-pointed", (vs,), [cone.ineq_matrix @ v for v in vs]))
    return AxiomReport(["P1", "P2", "P3"], LazyRows(list, groups), 0, "rows")


def _interior_witness(cone: ConeSpec) -> np.ndarray:
    """The sum of the nonzero inequality rows, each scaled to euclidean
    length 1 (after division by its largest absolute entry, so nothing
    overflows): a float vector in the interior of every orthant and of
    most solid cones (for two unit rows u and w, u + w is interior unless
    w = -u; rounding can spoil that when w is nearly -u), which
    ``ConeSpec.contains`` then decides exactly."""
    a = cone.ineq_matrix
    a = a[np.abs(a).max(axis=1) > 0.0]
    a = a / np.abs(a).max(axis=1)[:, None]
    return (a / np.sqrt((a * a).sum(axis=1))[:, None]).sum(axis=0)


def _pivot(tab: list[list[Fraction]], i: int, j: int) -> None:
    """Scale row i to a 1 in column j and clear column j in every other row."""
    tab[i] = [x / tab[i][j] for x in tab[i]]
    for k, row in enumerate(tab):
        if k != i and row[j]:
            f = row[j]
            tab[k] = [x - f * y for x, y in zip(row, tab[i])]


def _nullspace(rows: list[list[Fraction]], m: int) -> list[list[int]]:
    """A basis of {v : A v = 0}, one primitive integer vector per free
    column of A's reduced row echelon form (for A = [[1, 0]]: (0, 1))."""
    tab, pivots = [row[:] for row in rows], []
    for j in range(m):
        i = next((i for i in range(len(pivots), len(tab)) if tab[i][j]), None)
        if i is not None:
            tab[len(pivots)], tab[i] = tab[i], tab[len(pivots)]
            _pivot(tab, len(pivots), j)
            pivots.append(j)
    basis = []
    for free in sorted(set(range(m)) - set(pivots)):
        v = [Fraction(0)] * m
        v[free] = Fraction(1)
        for i, j in enumerate(pivots):
            v[j] = -tab[i][free]
        scale = math.lcm(*(x.denominator for x in v))
        ints = [int(x * scale) for x in v]
        g = math.gcd(*ints)
        basis.append([x // g for x in ints])
    return basis


def _has_interior(rows: list[list[Fraction]], m: int) -> bool:
    """Is A v >= 1 feasible?  Phase one of the simplex method on
    A p - A q - s + u = 1 with p, q, s, u >= 0, minimising sum(u) from the
    basis u = 1; Bland's rule (lowest index enters, lowest basic index
    leaves on a tie) rules out cycling.  An artificial u_i is dropped once
    it leaves the basis, which does not change whether the minimum is 0."""
    r = len(rows)
    n = 2 * m + r
    tab = [row + [-x for x in row] + [Fraction(-(k == i)) for k in range(r)] + [Fraction(1)]
           for i, row in enumerate(rows)]
    tab.append([-sum(row[k] for row in tab) for k in range(n + 1)])    # reduced costs, -sum(u)
    basis = list(range(n, n + r))                     # u_i has index n + i
    while True:
        j = next((j for j in range(n) if tab[-1][j] < 0), None)
        if j is None:
            return tab[-1][-1] == 0
        i = min((i for i in range(r) if tab[i][j] > 0), key=lambda i: (tab[i][-1] / tab[i][j], basis[i]))
        _pivot(tab, i, j)
        basis[i] = j


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------
#
# Each carrier has an array form for a list of its points (``to_array``, and
# ``from_array`` back to point objects) and a membership ``mask`` over it.

def spread(place: Callable, lo, hi):
    """``place(lo, hi)`` for a rule placing points lo + (hi - lo) t (a draw,
    a grid).  Where some hi - lo overflows, twice its points between lo / 2
    and hi / 2, from the same draws: near the float limit halving and
    doubling are exact, so every point is finite and between lo and hi."""
    with np.errstate(over="ignore"):       # np.linspace's last step may overflow before it pins hi
        wide = np.isinf(np.subtract(hi, lo)).any()
        return 2.0 * place(0.5 * lo, 0.5 * hi) if wide else place(lo, hi)


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
        number = isinstance(x, (int, float, np.floating)) and not isinstance(x, bool)
        return number and self.lo <= float(x) <= self.hi

    # Array form of a point list: a float vector.
    def to_array(self, points) -> np.ndarray:
        return np.asarray(points, dtype=float)

    def from_array(self, xs: np.ndarray) -> list:
        return xs.tolist()

    def mask(self, xs: np.ndarray) -> np.ndarray:
        return (xs >= self.lo) & (xs <= self.hi)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return spread(lambda lo, hi: rng.uniform(lo, hi, size=size), self.lo, self.hi)

    def grid_points(self) -> np.ndarray:
        return spread(lambda lo, hi: np.linspace(lo, hi, self.grid), self.lo, self.hi)


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
        return all_last((xs >= self.lows) & (xs <= self.highs))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return spread(lambda lo, hi: rng.uniform(lo, hi, size=(size, len(lo))), self.lows, self.highs)

    def grid_points(self) -> np.ndarray:
        axes = [spread(lambda a, b: np.linspace(a, b, self.grid), lo, hi)
                for lo, hi in zip(self.lows, self.highs)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def label_position(index: dict, x) -> int:
    """x's position under ``index`` (label -> position), -1 when x is not a
    label there: a bool never is, though the dict finds True under 1."""
    if isinstance(x, (bool, np.bool_)):
        return -1
    try:
        return index.get(x, -1)
    except TypeError:       # unhashable: not a label
        return -1


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
        return label_position(self.index, x)

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
            r = norm_last(dx, NORM_MAX if self.rho == "max" else NORM_EUCLIDEAN)
        if len(self.direction) < 2 or r.size < COLUMNS_FROM:
            return r[..., None] * self.direction
        out = np.empty(r.shape + self.direction.shape)
        for j, u in enumerate(self.direction.tolist()):
            np.multiply(r, u, out=out[..., j])
        return out


def table_take(table: np.ndarray, i, j) -> np.ndarray:
    """table[i, j] for in-range index arrays into a 3-D array, by one flat
    take (2-D fancy indexing costs 6-8x more)."""
    return table.reshape(-1, table.shape[-1]).take(i * table.shape[1] + j, axis=0)


@dataclass
class TabulatedMetric:
    """Fully tabulated metric on a finite carrier: table[i, j] = d(points[i],
    points[j]) for the carrier's points, in the carrier's order."""

    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=float)

    def check_carrier(self, carrier) -> None:
        """Refuse a table that is not (n, n, m) for the carrier's n points."""
        n = len(carrier.points) if carrier.finite else -1
        if self.table.shape[:2] != (n, n) or self.table.ndim != 3:
            raise ConfigError(f"metric table must have shape (n, n, m), got {self.table.shape}")


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
        if isinstance(self.metric, TabulatedMetric):
            self.metric.check_carrier(self.carrier)

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
        if isinstance(self.metric, TabulatedMetric):
            i, j = self.array_form([x, y])
            return self.metric.table[i, j]
        return np.asarray(self.metric(x, y), dtype=float)

    def pairwise(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """d(xs[i], ys[i]) for two equal-length point lists in the carrier's
        array form, one row per pair."""
        if len(xs) == 0:
            return np.zeros((0, self.cone.dimension))
        if isinstance(self.metric, TabulatedMetric):
            return table_take(self.metric.table, xs, ys)
        if self.carrier.finite:
            xs, ys = self.carrier.from_array(xs), self.carrier.from_array(ys)
        return np.asarray(self.metric.pairwise(xs, ys), dtype=float)


def point_key(x):
    """Hashable identity of a carrier point (box points are arrays)."""
    if isinstance(x, np.ndarray):
        return tuple(x.tolist())
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


# The d3 scan's early-exit test runs on int32 copies k of the projected
# table when proj == k * 2**-s for one shift s with every |k| < 2**29: then
# a.d(x, z) + a.d(z, y) is (k + k') * 2**-s with |k + k'| < 2**30, a float
# sum that is exact or overflows past every finite a.d(x, y), so each
# int32 compare decides what the float compare decides.  Several x are
# tested per numpy call while their (r, x, y, z) sums stay within
# _SCAN_CELLS int32 cells (256 KB): 1.2-2x faster at n <= 144, no slower
# at n = 200 (2-CPU Xeon).
_EXACT_BITS = 29
_SCAN_CELLS = 2 ** 16


def _exact_ints(proj: np.ndarray, top: float) -> np.ndarray | None:
    """The int32 k with proj == k * 2**-s, s chosen so that every |k| <
    2**_EXACT_BITS, given top = max |proj| (finite); None when some entry is
    not such a multiple.  Scaling back catches a fraction (the cast
    truncates it) and an entry that ldexp rounded below the subnormal range
    alike; it compares values, and a -0.0 that becomes 0 adds and compares
    as 0 did.  ldexp casts into k in numpy's buffered chunks and k is
    scaled back one row at a time, so no float copy of proj is made."""
    s = _EXACT_BITS - math.frexp(top)[1]        # top < 2**frexp(top)[1]
    k = np.ldexp(proj, s, out=np.empty(proj.shape, np.int32), casting="unsafe")
    return k if all(np.array_equal(np.ldexp(row, -s), p) for row, p in zip(k, proj)) else None


def _one_row(ints: np.ndarray) -> np.ndarray:
    """ints[b:b + 1] when every row of the int32 projection ints (r, n, n)
    is a nonnegative multiple of row b, its first with a positive entry (as
    on every table rho u with u in P), else ints: a row c k_b with c > 0
    fails where k_b does, a zero row nowhere.  Row i is c k_b when k_i[p]
    >= 0 and k_i k_b[p] == k_b k_i[p], p where k_b is largest, in int64
    (|k| < 2**29 keeps products below 2**58), a few thousand cells a time."""
    rows = ints.reshape(len(ints), ints.shape[1] * ints.shape[2])
    positive = rows.max(axis=1, initial=0) > 0
    if not positive.any():      # no row to scale by (a cone may have no rows)
        return ints
    b = int(positive.argmax())
    scale = rows[:, [int(rows[b].argmax())]].astype(np.int64)      # (r, 1): each row's k[p]
    step = max(1, _SCAN_CELLS // (8 * len(rows)))
    if (scale >= 0).all() and all(
            np.array_equal(rows[:, lo:lo + step] * scale[b], scale * rows[b, lo:lo + step])
            for lo in range(0, rows.shape[1], step)):
        return ints[b:b + 1]
    return ints


def metric_table_failures(table: np.ndarray, cone: ConeSpec, slack: float) -> dict[str, np.ndarray]:
    """Where the metric table d[i, j] (shape (n, n, m)) breaks d1-d3, with
    cone tests at relative ``slack``: one failure mask per axiom, in
    reporting order, the d1 and d2 masks of ``table_pair_failures`` and
    then the d3 mask of ``table_triangle_failures``."""
    failures = table_pair_failures(table, cone, slack)
    failures["d3-triangle"] = table_triangle_failures(table, cone, slack, not failures["d2-symmetry"].any())
    return failures


def table_pair_failures(table: np.ndarray, cone: ConeSpec, slack: float) -> dict[str, np.ndarray]:
    """The d1 and d2 masks of ``metric_table_failures``: (n, n) over pairs,
    and (n,) over points for "d1-identity"."""
    n, m = table.shape[0], table.shape[-1]
    return {
        "d1-cone": ~all_last(cone.inequality_mask(table.reshape(-1, m), slack)).reshape(n, n),
        "d1-separation": all_last(table == 0.0) & ~np.eye(n, dtype=bool),
        "d1-identity": any_last(table[np.arange(n), np.arange(n)] != 0.0),
        "d2-symmetry": any_last(table != np.swapaxes(table, 0, 1)),
    }


def table_triangle_failures(table: np.ndarray, cone: ConeSpec, slack: float, symmetric: bool) -> np.ndarray:
    """The d3 mask of ``metric_table_failures``, (n, n, n) over (x, y, z):
    where a.d(x, z) + a.d(z, y) < a.d(x, y) for a cone row a, on the table
    projected onto the rows once (exact for unit rows, and for polyhedral
    rows on dyadic tables); at slack > 0 those triples are tested again on
    d(x, z) + d(z, y) - d(x, y).  When the table is ``symmetric`` (exactly,
    as "d2-symmetry" tests) and so is its projection, (y, x, z) fails
    exactly when (x, y, z) does, so only y >= x is scanned and the result
    mirrored.  Which x have a failing triple is first decided on int32
    copies of the projection where they are exact (``_exact_ints``), on
    one row of them where every row is a nonnegative multiple of it
    (``_one_row``), else in float64."""
    n = table.shape[0]
    proj = np.ascontiguousarray(np.moveaxis(table @ cone.ineq_matrix.T, -1, 0))   # (r, n, n)
    # BLAS may round d(x, y) and d(y, x) apart, so proj is tested itself
    half = symmetric and np.array_equal(proj, proj.transpose(0, 2, 1))
    # proj_t[:, y, z] = a.d(z, y); a symmetric proj is its own transpose
    proj_t = proj if half else np.ascontiguousarray(proj.transpose(0, 2, 1))
    top = float(np.abs(proj).max(initial=0.0))      # NaN or inf when some entry is not finite
    ints = _exact_ints(proj, top) if math.isfinite(top) else None
    test = proj if ints is None else _one_row(ints)
    # test_t[:, y, z] = test[:, z, y], as proj_t is to proj
    test_t = test if half else proj_t if test is proj else np.ascontiguousarray(test.transpose(0, 2, 1))
    # While every triangle holds the mask is a read-only view of one
    # all-False (y, z) slice: a valid table allocates no n^3 mask.
    triangle = np.broadcast_to(np.zeros((n, n), dtype=bool), (n, n, n))
    r, start = max(len(test), 1), 0       # a cone may have no rows
    while start < n:
        first = start if half else 0        # the least y any x of the group scans
        stop = min(n, start + max(1, _SCAN_CELLS // (r * n * (n - first))))
        # fails[x - start, y - first]: min_z a.d(x, z) + a.d(z, y) < a.d(x, y) for a row a;
        # fmin skips a NaN sum, which only inf + -inf makes
        fails = (np.fmin.reduce(test[:, start:stop, None, :] + test_t[:, None, first:], axis=3)
                 < test[:, start:stop, first:]).any(axis=0)
        for x in range(start, stop):
            lo = x if half else 0
            if not fails[x - start, lo - first:].any():
                continue
            # bad[y - lo, z]: a.d(x, z) + a.d(z, y) < a.d(x, y) for some row a
            bad = np.any(proj[:, x, None, :] + proj_t[:, lo:] < proj[:, x, lo:, None], axis=0)
            if slack > 0.0:
                ys, zs = np.nonzero(bad)
                bad[ys, zs] = ~all_last(cone.inequality_mask(table[x, zs] + table[zs, ys + lo] - table[x, ys + lo],
                                                             slack))
            if bad.any():
                if not triangle.flags.writeable:
                    triangle = np.zeros((n, n, n), dtype=bool)
                triangle[x, lo:] = bad
                if half:
                    triangle[lo:, x] = bad
        start = stop
    return triangle


def verify_metric_axioms(space: ConeMetricSpace, count: int = 10_000, seed: int = 0) -> AxiomReport:
    """Check d1 (cone-valued, zero exactly on the diagonal), d2 (symmetry),
    and d3 (triangle inequality in the cone order).  The report's ``rule``
    names what decided: "direction", a ``DirectionMetric``'s form
    (``_direction_groups``, ``sample_count`` 0); "table", the exact scan
    ``metric_table_failures`` at the cone's slack, of a ``TabulatedMetric``'s
    own table at any n, or of a function metric on a finite carrier
    tabulated first (one call per ordered pair) while its n^3 triples fit
    the budget; "sampled", pairs and triples of any other function metric.
    """
    rng = np.random.default_rng(seed)
    carrier, cone = space.carrier, space.cone
    axioms = ["d1", "d2", "d3"]
    if isinstance(space.metric, DirectionMetric):
        return AxiomReport(axioms, LazyRows(carrier.from_array, _direction_groups(space)), 0, "direction")
    groups: list[tuple] = []     # LazyRows groups

    n = len(carrier.points) if carrier.finite else 0
    d = getattr(space.metric, "table", None)
    if d is None and carrier.finite and n ** 3 <= max(count, 2_000_000):
        indices = np.arange(n)
        d = space.pairwise(np.repeat(indices, n), np.tile(indices, n)).reshape(n, n, -1)
    if d is not None:
        residuals = {
            "d1-cone": lambda i, j: table_take(d, i, j),
            "d1-separation": lambda i, j: table_take(d, i, j),
            "d1-identity": lambda i: table_take(d, i, i),
            "d2-symmetry": lambda i, j: table_take(d, i, j) - table_take(d, j, i),
            "d3-triangle": lambda i, j, k: table_take(d, i, k) + table_take(d, k, j) - table_take(d, i, j),
        }
        for axiom, mask in metric_table_failures(d, cone, cone.slack).items():
            if mask.any():      # on the all-False n^3 d3 mask argwhere costs ~40x mask.any()
                at = tuple(np.argwhere(mask).T)     # the failing points' indices, one array per witness point
                groups.append(_axiom_group(axiom, at, residuals[axiom](*at)))
        return AxiomReport(axioms, LazyRows(carrier.from_array, groups), n * n + n ** 3, "table")

    xs, ys, txs, tys, tzs = (carrier.to_array(carrier.sample(rng, count)) for _ in range(5))
    dxy, dyx, diag = space.pairwise(xs, ys), space.pairwise(ys, xs), space.pairwise(xs, xs)
    res = space.pairwise(txs, tzs) + space.pairwise(tzs, tys) - space.pairwise(txs, tys)
    same = all_last((xs == ys).reshape(len(xs), -1))
    # Per axiom: the failing rows, the witnesses' array forms and the residual.
    # d1: values in the cone, zero exactly on the diagonal; d2: exact
    # symmetry; d3: d(x,z) + d(z,y) - d(x,y) stays in the cone.
    checks = (
        ("d1-cone", ~all_last(cone.inequality_mask(dxy, cone.slack)), (xs, ys), dxy),
        ("d1-separation", all_last(dxy == 0.0) & ~same, (xs, ys), dxy),
        ("d1-identity", ~all_last(diag == 0.0), (xs,), diag),
        ("d2-symmetry", ~all_last(dxy == dyx), (xs, ys), dxy - dyx),
        ("d3-triangle", ~all_last(cone.inequality_mask(res, cone.slack)), (txs, tys, tzs), res),
    )
    for axiom, bad, forms, residual in checks:
        rows = np.flatnonzero(bad)
        if rows.size:
            groups.append(_axiom_group(axiom, tuple(f.take(rows, axis=0) for f in forms), residual.take(rows, axis=0)))
    return AxiomReport(axioms, LazyRows(carrier.from_array, groups), 2 * count, "sampled")


def _direction_groups(space: ConeMetricSpace) -> list[tuple]:
    """The ``LazyRows`` groups of d(x, y) = rho(x, y) u, by its form (Huang
    and Zhang, JMAA 332, 2007, Example 1): rho is a metric, so each d1 and
    d3 residual is c u with c >= 0 (c > 0 off the diagonal) and d1-d3 hold
    exactly when u is in P (``ConeSpec.contains``: exact, whatever the
    slack) and u != 0.  Else one witness at the carrier's two bounds (a
    box's lows and highs, a finite carrier's first two points): d1-cone
    with residual d(lo, hi) when u is outside P, d1-separation when u = 0.
    One point passes whatever u is.  The verdict is about the real metric,
    as ``diagnose_T``'s is about the real map: a float overflow of rho (on
    [-1e308, 1e308]) is the class check's business."""
    carrier, u = space.carrier, space.metric.direction
    bounds = ([carrier.lows, carrier.highs] if isinstance(carrier, BoxCarrier) else
              carrier.points[:2] if carrier.finite else [carrier.lo, carrier.hi])
    if len(bounds) < 2 or (space.cone.contains(u) and u.any()):
        return []
    lo, hi = carrier.to_array(bounds[:1]), carrier.to_array(bounds[1:])
    return [_axiom_group("d1-cone" if u.any() else "d1-separation", (lo, hi), space.pairwise(lo, hi))]


# ---------------------------------------------------------------------------
# Normal constant
# ---------------------------------------------------------------------------

@dataclass
class NormalConstantEstimate:
    """Empirical lower bound on the least K with ||x|| <= K ||y|| for 0 <= x <= y."""

    value: float
    pairs_used: int
    inconclusive: bool


def estimate_normal_constant(cone: ConeSpec, n: int = 100_000, *, seed: int = 0) -> NormalConstantEstimate:
    """Supremum of ||x|| / ||y|| over n sampled ordered pairs 0 <= x <= y.

    Pairs are built as (p, p + q) with p, q sampled from P, so both order
    constraints hold by construction; roughly a quarter of the draws (and
    always the first) use the degenerate pair x = y, which attains the
    supremum on cones with a monotone norm.  The estimate is a lower bound
    on the true constant and is nondecreasing in n for a fixed seed.
    """
    if n < 1:
        raise ConfigError("need at least one sample")
    rng = np.random.default_rng(seed)
    best = 0.0
    used = 0
    remaining = n
    first = True
    chunk = 4096
    while remaining > 0:
        take = min(chunk, remaining)
        remaining -= take
        u = rng.random(take)
        p, q = cone.sample(rng, take), cone.sample(rng, take)
        k = min(len(p), len(q), take)
        if k == 0:
            continue
        degenerate = u[:k] < 0.25
        if first:
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
    return NormalConstantEstimate(value=best, pairs_used=used, inconclusive=used == 0)
