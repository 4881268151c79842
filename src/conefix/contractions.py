"""Contraction classes measured through an auxiliary map T, and the one
engine that checks and fits them.

A pair of self-maps (T, S) of the carrier is tested against cone-order
inequalities of the form d(TSx, TSy) <= RHS(x, y).  Supported classes:

* TB(a)        RHS = a d(Tx, Ty),                       a in [0, 1)
* TK(b)        RHS = b [d(Tx, TSx) + d(Ty, TSy)],       b in [0, 1/2)
* TC(c)        RHS = c [d(Tx, TSy) + d(Ty, TSx)],       c in [0, 1/2)
* TZ(a, b, c)  at least one of the three above per pair
* TW(delta, L)       RHS = delta d(Tx, Ty) + L d(Ty, TSx)
* TW_DUAL(delta, L)  RHS = delta d(Tx, Ty) + L d(Tx, TSy)
* TWU(theta, L1)     RHS = theta d(Tx, Ty) + L1 d(Tx, TSx)

Every inequality reads the six distances of ``PairTerms``, which
``pair_columns`` builds for any ``PairSet`` on the sampled path
(``pair_terms``) and for all n^2 index pairs of a finite table in the
oracle.  ``evaluate`` applies the right-hand side from the one table
``_RHS`` and a cone test with a given slack (the cone's own slack on the
sampled path, 0 in the oracle), so the two paths differ only in the pair
set and the slack.
``fit_terms`` fits constants for both paths to the exact smallest passing
float.

Every TZ mapping satisfies the reduced inequality
d(TSx, TSy) <= delta d(Tx, Ty) + 2 delta d(Tx, TSx) with
delta = max{a, b/(1-b), c/(1-c)}, and likewise the dual form with
d(Tx, TSy); a TB/TK/TC source promotes to weak inequalities of the same
shape.  All of them are checked in the cleared-denominator form
k d(Tx, Ty) + 2k ell - s d(TSx, TSy) in P (``cleared_check``) so that
dyadic tables verify exactly, with no division in the comparison path.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .cone_space import ConeMetricSpace, ConeSpec, ConfigError, DomainError, all_last, any_last, table_take

TB = "TB"
TK = "TK"
TC = "TC"
TZ = "TZ"
TW = "TW"
TW_DUAL = "TW_DUAL"
TWU = "TWU"

CLASS_KINDS = (TB, TK, TC, TZ, TW, TW_DUAL, TWU)


# ---------------------------------------------------------------------------
# Map families
# ---------------------------------------------------------------------------
#
# Besides the call on one point, each family has an array form that maps a
# whole point list at once and gives the same bits as the call point by
# point: ``on_array`` on a float array (interval or box points) and, for a
# tabulated map, ``on_indices`` on the indices of its own points.

@dataclass(frozen=True)
class IdentityMap:
    def __call__(self, x):
        return x

    def on_array(self, xs: np.ndarray) -> np.ndarray:
        return xs


@dataclass(frozen=True)
class AffineMap:
    alpha: float
    beta: float = 0.0

    def __call__(self, x):
        return self.alpha * x + self.beta

    def on_array(self, xs: np.ndarray) -> np.ndarray:
        return self.alpha * xs + self.beta


def _power(x: float, exponent: float) -> float:
    """Python's float pow, with zero to a negative power (which raises there)
    as inf, and a negative base to a fractional power (a complex number
    there) as nan."""
    if x == 0.0 and exponent < 0:
        return math.inf
    if x < 0.0 and not float(exponent).is_integer():
        return math.nan
    return x ** exponent


@dataclass(frozen=True)
class PowerMap:
    exponent: float

    def __call__(self, x):
        y = _power(float(x), self.exponent)
        if not math.isfinite(y):
            raise DomainError(f"power map produced a non-finite value at {x!r}")
        return y

    def on_array(self, xs: np.ndarray) -> np.ndarray:
        # Python's float pow, not np.power: the two differ in the last bit.
        # pow and _power part ways at 0 to a negative power (pow raises) and
        # on a negative base to a power that is not an integer (pow gives a
        # complex number, or a real one where either is infinite); there
        # _power runs.
        values, ys = xs.tolist(), None
        if float(self.exponent).is_integer() or not (xs < 0.0).any():
            try:
                ys = np.fromiter(map(pow, values, repeat(self.exponent)), float, len(values))
            except ZeroDivisionError:
                pass
        if ys is None:
            ys = np.array([_power(x, self.exponent) for x in values], dtype=float)
        bad = np.flatnonzero(~np.isfinite(ys))
        if bad.size:
            raise DomainError(f"power map produced a non-finite value at {values[bad[0]]!r}")
        return ys


class TabulatedMap:
    """Explicit point-to-point map on a finite carrier.  ``image_index[i]``
    is the index of the image of ``points[i]`` among ``points`` (-1 when the
    image is not one of them)."""

    def __init__(self, points: Sequence, images: Sequence):
        if len(points) != len(images):
            raise ConfigError("tabulated map needs one image per point")
        self.points = list(points)
        self.mapping = dict(zip(points, images))
        if len(self.mapping) != len(points):
            raise ConfigError("tabulated map points must be distinct")
        index = {p: i for i, p in enumerate(self.points)}
        self.image_index = np.array([index.get(y, -1) for y in images], dtype=np.intp)

    def __call__(self, x):
        try:
            return self.mapping[x]
        except (KeyError, TypeError):
            raise DomainError(f"point {x!r} is not in the tabulated map") from None

    def on_indices(self, idx: np.ndarray) -> np.ndarray:
        return self.image_index[idx]

    def __repr__(self):
        return f"TabulatedMap({len(self.mapping)} points)"


def _array_form(space: ConeMetricSpace, f: Callable) -> Callable | None:
    """The map's own array form on the carrier's array form, or None."""
    if space.carrier.finite:
        return f.on_indices if isinstance(f, TabulatedMap) and f.points == list(space.carrier.points) else None
    return getattr(f, "on_array", None)


def _array_map(space: ConeMetricSpace, f: Callable) -> Callable:
    """f as a function of the carrier's array form: the map's own array
    form where it has one, else f point by point."""
    carrier = space.carrier
    return _array_form(space, f) or (lambda xs: carrier.to_array([f(p) for p in carrier.from_array(xs)]))


@dataclass
class MapPair:
    T: Callable
    S: Callable


# ---------------------------------------------------------------------------
# Class specifications
# ---------------------------------------------------------------------------

# Each class's right-hand side: (constant, terms it multiplies) per summand.
_RHS = {
    TB: (("a", ("d_tx_ty",)),),
    TK: (("b", ("d_tx_tsx", "d_ty_tsy")),),
    TC: (("c", ("d_tx_tsy", "d_ty_tsx")),),
    TW: (("delta", ("d_tx_ty",)), ("L", ("d_ty_tsx",))),
    TW_DUAL: (("delta", ("d_tx_ty",)), ("L", ("d_tx_tsy",))),
    TWU: (("theta", ("d_tx_ty",)), ("L1", ("d_tx_tsx",))),
}
_TZ_BRANCHES = {"TZ1": TB, "TZ2": TK, "TZ3": TC}

# Each constant ranges over [0, upper).  delta = 0 is admitted: it arises
# from promoting TB(0).
_UPPER = {"a": 1.0, "b": 0.5, "c": 0.5, "delta": 1.0, "L": math.inf, "theta": 1.0, "L1": math.inf}


def constant_names(kind: str) -> list[str]:
    """Names of the constants class ``kind`` takes, in checking order."""
    kinds = _TZ_BRANCHES.values() if kind == TZ else (kind,)
    return [name for k in kinds for name, _ in _RHS[k]]


def _require_range(name: str, value: float):
    upper = _UPPER[name]
    if upper == math.inf:
        if not value >= 0.0:
            raise ConfigError(f"{name} must be >= 0, got {value:g}")
    elif not (math.isfinite(value) and 0.0 <= value < upper):
        raise ConfigError(f"{name} must be in [0, {upper:g}), got {value:g}")


@dataclass(frozen=True)
class ClassSpec:
    kind: str
    a: float | None = None
    b: float | None = None
    c: float | None = None
    delta: float | None = None
    L: float | None = None
    theta: float | None = None
    L1: float | None = None

    def __post_init__(self):
        if self.kind not in CLASS_KINDS:
            raise ConfigError(f"unknown contraction class {self.kind!r}")
        for name in constant_names(self.kind):
            _require_range(name, self._need(name))

    def _need(self, name: str) -> float:
        v = getattr(self, name)
        if v is None:
            raise ConfigError(f"class {self.kind} requires constant {name!r}")
        return float(v)

    # -- constructors -------------------------------------------------------

    @classmethod
    def tb(cls, a: float) -> "ClassSpec":
        return cls(TB, a=a)

    @classmethod
    def tk(cls, b: float) -> "ClassSpec":
        return cls(TK, b=b)

    @classmethod
    def tc(cls, c: float) -> "ClassSpec":
        return cls(TC, c=c)

    @classmethod
    def tz(cls, a: float, b: float, c: float) -> "ClassSpec":
        return cls(TZ, a=a, b=b, c=c)

    @classmethod
    def tw(cls, delta: float, L: float) -> "ClassSpec":
        return cls(TW, delta=delta, L=L)

    @classmethod
    def tw_dual(cls, delta: float, L: float) -> "ClassSpec":
        return cls(TW_DUAL, delta=delta, L=L)

    @classmethod
    def twu(cls, theta: float, L1: float) -> "ClassSpec":
        return cls(TWU, theta=theta, L1=L1)

    def constants(self) -> dict[str, float]:
        return {k: float(getattr(self, k)) for k in _UPPER if getattr(self, k) is not None}


@dataclass
class ConditionViolation:
    x: object
    y: object
    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray


class Violations(Sequence):
    """The violations of a condition check as a read-only sequence.  It
    keeps only the violating rows: the pairs' points in array form and
    their lhs, rhs and residual rows.  A ``ConditionViolation`` is built
    for each row read, so counting the violations builds none."""

    def __init__(self, space: ConeMetricSpace, pairs: PairSet, bad: np.ndarray, lhs: np.ndarray,
                 rhs: np.ndarray, residual: np.ndarray):
        """The pairs at positions ``bad`` of ``pairs``, with their rows."""
        xs, ys = pairs.points.take(pairs.ix[bad], axis=0), pairs.points.take(pairs.iy[bad], axis=0)
        self._carrier, self._rows = space.carrier, (xs, ys, lhs, rhs, residual)

    def __len__(self) -> int:
        return len(self._rows[0])

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._build(key)
        n, i = len(self), operator.index(key)
        if not -n <= i < n:
            raise IndexError("violation index out of range")
        return self._build(slice(i % n, i % n + 1))[0]

    def __iter__(self):
        return iter(self._build(slice(None)))

    def __repr__(self) -> str:
        return f"Violations({len(self)} rows)"

    def _build(self, rows: slice) -> list[ConditionViolation]:
        xs, ys, lhs, rhs, res = (a[rows] for a in self._rows)
        from_array = self._carrier.from_array
        return list(map(ConditionViolation, from_array(xs), from_array(ys), lhs, rhs, res))


@dataclass
class ConditionReport:
    spec: ClassSpec
    pairs_checked: int
    violations: Sequence[ConditionViolation]
    branch_stats: dict[str, int] | None = None
    inconclusive: bool = False
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Pair terms and the class inequalities
# ---------------------------------------------------------------------------

@dataclass
class PairTerms:
    """The six distances the class inequalities read.  Every array ends in
    the cone dimension m and they broadcast against each other: (k, m) for
    a pair list, (n, n, m) or a broadcastable view for all pairs of a table.
    """

    lhs: np.ndarray        # d(TSx, TSy)
    d_tx_ty: np.ndarray
    d_tx_tsx: np.ndarray
    d_ty_tsy: np.ndarray
    d_tx_tsy: np.ndarray
    d_ty_tsx: np.ndarray


def map_points(space: ConeMetricSpace, maps: MapPair, pairs: PairSet) -> tuple[np.ndarray, np.ndarray]:
    """T and TS of the pair set's points, in the carrier's array form, from
    one array pass: S, T and TS map the points and the carrier's mask
    checks every image.  When an image escapes or a map fails, the points
    are replayed one at a time in pair order (x before y; S, then T, then
    TS), so the error raised is the first one a point-by-point pass meets."""
    xs, mask = pairs.points, space.carrier.mask
    T = _array_map(space, maps.T)
    try:
        with np.errstate(all="ignore"):
            s = _array_map(space, maps.S)(xs)
            t, ts = T(xs), T(s)
            if not (mask(s) & mask(t) & mask(ts)).all():
                raise DomainError("an image lies outside the carrier")
    except Exception:
        order = np.stack([pairs.ix, pairs.iy], axis=-1).ravel()
        for p in space.carrier.from_array(xs[order]):
            sp = space.require_point(maps.S(p), "S-image")
            space.require_point(maps.T(p), "T-image")
            space.require_point(maps.T(sp), "TS-image")
        raise
    return t, ts


def pair_columns(dist: Callable, t: np.ndarray, ts: np.ndarray, ix: np.ndarray, iy: np.ndarray) -> PairTerms:
    """The six distances of the pairs (ix, iy), by ``dist(a, b)`` (each a to
    its b) on the images t of T and ts of TS; ix and iy broadcast, so two
    aranges on crossed axes give all n^2 pairs of a table.  Rows are
    gathered with ``take``, which gives the bits of t[ix] and own[ix] at a
    tenth of the cost on rows of 2 or 3."""
    own = dist(t, ts)
    tx, ty, tsx, tsy = t.take(ix, axis=0), t.take(iy, axis=0), ts.take(ix, axis=0), ts.take(iy, axis=0)
    return PairTerms(
        lhs=dist(tsx, tsy),
        d_tx_ty=dist(tx, ty),
        d_tx_tsx=own.take(ix, axis=0),
        d_ty_tsy=own.take(iy, axis=0),
        d_tx_tsy=dist(tx, tsy),
        d_ty_tsx=dist(ty, tsx),
    )


def pair_terms(space: ConeMetricSpace, maps: MapPair, pairs: PairSet) -> PairTerms:
    """Terms of every pair as (k, m) arrays: the images of ``map_points``,
    and one ``ConeMetricSpace.pairwise`` call per distance column."""
    t, ts = map_points(space, maps, pairs)
    return pair_columns(space.pairwise, t, ts, pairs.ix, pairs.iy)


def class_terms(kind: str, t: PairTerms) -> list[tuple[str, np.ndarray]]:
    """(constant name, the distance it multiplies) for each summand of the
    class's right-hand side."""
    out = []
    for name, attrs in _RHS[kind]:
        term = getattr(t, attrs[0])
        for attr in attrs[1:]:
            term = term + getattr(t, attr)
        out.append((name, term))
    return out


def right_hand_side(kind: str, consts, t: PairTerms) -> np.ndarray:
    """Right-hand side of class ``kind`` with the constants read off
    ``consts`` by name (a ClassSpec or any object with those attributes)."""
    parts = [getattr(consts, name) * term for name, term in class_terms(kind, t)]
    return parts[0] if len(parts) == 1 else parts[0] + parts[1]


@dataclass
class Verdict:
    """One class inequality over a set of pairs.  ``residual`` is
    rhs - scale * lhs, the vector tested for membership in the cone."""

    ok: np.ndarray                      # per pair: the inequality holds
    rhs: np.ndarray
    residual: np.ndarray
    branch_ok: np.ndarray | None = None  # TZ: per branch TZ1..TZ3, per pair

    @property
    def branch_stats(self) -> dict[str, int] | None:
        if self.branch_ok is None:
            return None
        counts = self.branch_ok.reshape(len(_TZ_BRANCHES), -1).sum(axis=1)
        return {name: int(n) for name, n in zip(_TZ_BRANCHES, counts)}


def evaluate(spec, t: PairTerms, cone: ConeSpec, slack: float, scale: float = 1.0) -> Verdict:
    """Evaluate the class inequality of ``spec`` on every pair of ``t`` as a
    cone-order test (rhs - scale * lhs in P up to ``slack``).  For TZ a pair
    holds when any branch does, and every branch's arrays are stacked on a
    leading axis of length 3."""
    kinds = _TZ_BRANCHES.values() if spec.kind == TZ else (spec.kind,)
    rhs = np.stack([right_hand_side(kind, spec, t) for kind in kinds])
    res = rhs - scale * t.lhs
    ok = all_last(cone.inequality_mask(res, slack))
    if spec.kind == TZ:
        return Verdict(ok.any(axis=0), rhs, res, ok)
    return Verdict(ok[0], rhs[0], res[0])


def cleared_constants(source: ClassSpec) -> tuple[float, float]:
    """(k, s) such that the weak inequality a TB/TK/TC/TZ source implies,
    d(TSx, TSy) <= delta d(Tx, Ty) + 2 delta ell with delta = k / s, reads
    s d(TSx, TSy) <= k d(Tx, Ty) + 2k ell once its denominator is cleared:
    s = 1 on the a-branch (delta = a), s = 1 - k on the b- and c-branches
    (delta = k / (1 - k)).  For TZ the branch attaining delta is used."""
    if source.kind == TZ:
        branch, k = delta_branch(source.a, source.b, source.c)
    elif source.kind in (TB, TK, TC):
        (branch,) = constant_names(source.kind)
        k = getattr(source, branch)
    else:
        raise ConfigError(f"class {source.kind} has no cleared weak form")
    return k, 1.0 if branch == "a" else 1.0 - k


def cleared_check(source: ClassSpec, weak_kind: str, t: PairTerms, cone: ConeSpec, slack: float) -> Verdict:
    """The weak inequality of shape ``weak_kind`` (TWU for the primary
    reduced form, TW_DUAL for the dual, TW for the promoted weak form)
    implied by ``source``, in cleared-denominator form."""
    k, s = cleared_constants(source)
    consts = dict(zip(constant_names(weak_kind), (k, 2.0 * k)))
    return evaluate(ClassSpec(weak_kind, **consts), t, cone, slack, scale=s)


def _condition_report(space: ConeMetricSpace, spec: ClassSpec, pairs: PairSet,
                      t: PairTerms | None) -> ConditionReport:
    notes: tuple[str, ...] = ()
    if spec.kind in (TK, TZ):
        notes = ("second Kannan-style term is evaluated through T-images: d(Ty, TSy)",)
    if t is None:
        return ConditionReport(spec, 0, [], inconclusive=True, notes=notes)
    cone = space.cone
    v = evaluate(spec, t, cone, cone.slack)
    bad = np.flatnonzero(~v.ok)
    rhs, res = v.rhs, v.residual
    if v.branch_ok is not None:
        # witness: the branch whose residual comes closest to the cone
        margin = np.min(res.take(bad, axis=1) @ cone.ineq_matrix.T, axis=-1)
        best = np.argmax(margin, axis=0)
        rhs, res = table_take(rhs, best, bad), table_take(res, best, bad)
    else:
        rhs, res = rhs.take(bad, axis=0), res.take(bad, axis=0)
    violations = Violations(space, pairs, bad, t.lhs.take(bad, axis=0), rhs, res)
    return ConditionReport(spec, len(pairs), violations, v.branch_stats, notes=notes)


def check_condition(
    space: ConeMetricSpace,
    maps: MapPair,
    spec: ClassSpec,
    pairs: PairSet,
) -> ConditionReport:
    """Evaluate the class inequality on every pair as a cone-order test
    (RHS - LHS in P, up to the cone's declared slack).  For TZ a pair
    passes when at least one branch does; branch statistics count every
    branch satisfied.
    """
    return _condition_report(space, spec, pairs, pair_terms(space, maps, pairs) if len(pairs) else None)


# ---------------------------------------------------------------------------
# Zamfirescu reduction
# ---------------------------------------------------------------------------

def zamfirescu_delta(a: float, b: float, c: float) -> float:
    """max{a, b/(1-b), c/(1-c)}; lands in [0, 1) for in-range constants."""
    for name, value in (("a", a), ("b", b), ("c", c)):
        _require_range(name, value)
    return max(a, b / (1.0 - b), c / (1.0 - c))


def delta_branch(a: float, b: float, c: float) -> tuple[str, float]:
    """Which of a, b/(1-b), c/(1-c) attains the max, decided by
    cross-multiplied comparisons so dyadic inputs are compared exactly.
    Returns (branch, raw constant) with branch in {'a', 'b', 'c'}.
    """
    a_ge_b = a * (1.0 - b) >= b
    a_ge_c = a * (1.0 - c) >= c
    b_ge_c = b * (1.0 - c) >= c * (1.0 - b)
    if a_ge_b and a_ge_c:
        return "a", a
    if not a_ge_b and b_ge_c:
        return "b", b
    return "c", c


@dataclass
class ReductionReport:
    delta: float
    applicable: bool
    tz_report: ConditionReport
    primary: ConditionReport | None
    dual: ConditionReport | None

    @property
    def holds(self) -> bool:
        return bool(
            self.applicable
            and self.primary is not None and self.primary.holds
            and self.dual is not None and self.dual.holds
        )


def verify_zamfirescu_reduction(
    space: ConeMetricSpace,
    maps: MapPair,
    a: float,
    b: float,
    c: float,
    pairs: PairSet,
) -> ReductionReport:
    """Check that TZ(a, b, c) forces the reduced inequality with
    delta = max{a, b/(1-b), c/(1-c)} in both its forms:

    * primary: d(TSx, TSy) <= delta d(Tx, Ty) + 2 delta d(Tx, TSx)
    * dual:    d(TSx, TSy) <= delta d(Tx, Ty) + 2 delta d(Tx, TSy)

    TZ must hold on the pair set first; otherwise the report is marked
    not applicable and carries the TZ violation witnesses.
    """
    tz = ClassSpec.tz(a, b, c)
    t = pair_terms(space, maps, pairs) if len(pairs) else None
    tz_report = _condition_report(space, tz, pairs, t)
    delta = zamfirescu_delta(a, b, c)
    if not tz_report.holds or tz_report.inconclusive:
        return ReductionReport(delta, False, tz_report, None, None)

    note = (f"residuals are in cleared-denominator form (branch {delta_branch(a, b, c)[0]!r})",)
    forms = []
    for label, weak_kind in ((ClassSpec.twu(delta, 2.0 * delta), TWU),
                             (ClassSpec.tw_dual(delta, 2.0 * delta), TW_DUAL)):
        v = cleared_check(tz, weak_kind, t, space.cone, space.cone.slack)
        bad = np.flatnonzero(~v.ok)
        lhs, res = t.lhs.take(bad, axis=0), v.residual.take(bad, axis=0)
        forms.append(ConditionReport(label, len(pairs), Violations(space, pairs, bad, lhs, res + lhs, res),
                                     notes=note))
    return ReductionReport(delta, True, tz_report, *forms)


def rate_from_primary_form(delta: float) -> float:
    """The step-ratio bound delta / (1 - 2 delta) obtained when the
    self-gap term of the primary reduced inequality is absorbed on the
    left.  Finite only for delta < 1/2, and below 1 only for delta < 1/3;
    the dual form yields the bound ``delta`` itself for every delta < 1.
    """
    if delta < 0.5:
        return delta / (1.0 - 2.0 * delta)
    return math.inf


# ---------------------------------------------------------------------------
# Promotion to the weak class
# ---------------------------------------------------------------------------

def promote_to_weak(spec: ClassSpec) -> ClassSpec:
    """The TW constants implied by a stronger class:

    TB(a) -> (a, 0);  TK(b) -> (b/(1-b), 2b/(1-b));
    TC(c) -> (c/(1-c), 2c/(1-c));  TZ -> (delta, 2 delta).

    TW and TW_DUAL pass through unchanged.
    """
    if spec.kind == TB:
        return ClassSpec.tw(spec.a, 0.0)
    if spec.kind in (TK, TC):
        k, s = cleared_constants(spec)
        return ClassSpec.tw(k / s, 2.0 * k / s)
    if spec.kind == TZ:
        d = zamfirescu_delta(spec.a, spec.b, spec.c)
        return ClassSpec.tw(d, 2.0 * d)
    if spec.kind in (TW, TW_DUAL):
        return spec
    raise ConfigError(f"class {spec.kind} does not promote to the weak class")


# ---------------------------------------------------------------------------
# Constant fitting
# ---------------------------------------------------------------------------

_TOP_BITS = struct.unpack("<q", struct.pack("<d", sys.float_info.max))[0]


def _float_at(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _smallest_passing(check: Callable[[float], bool], candidate: float) -> float:
    """Smallest nonnegative float passing a monotone ``check`` (inf when
    even the largest float fails).  The search starts at ``candidate``, an
    exact ratio supremum that is usually within an ulp of the answer: it
    gallops away from the candidate in doubling ulp steps until the verdict
    flips, then bisects on the bit pattern.  Nonnegative floats ordered by
    value have increasing 63-bit patterns, so each loop needs at most 64
    steps."""
    start = min(candidate, sys.float_info.max) if candidate > 0.0 else 0.0

    def passes(bits: int) -> bool:   # bits -1 and _TOP_BITS + 1 are sentinels
        return bits > _TOP_BITS or (bits >= 0 and check(_float_at(bits)))

    here = struct.unpack("<q", struct.pack("<d", start))[0]
    good = passes(here)
    step = 1
    for _ in range(65):
        there = min(max(here - step if good else here + step, -1), _TOP_BITS + 1)
        if passes(there) != good:
            break
        here, step = there, 2 * step
    lo, hi = (there, here) if good else (here, there)
    for _ in range(64):
        if hi - lo <= 1:
            break
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return math.inf if hi > _TOP_BITS else _float_at(hi)


def _ratio_sup(num: np.ndarray, den: np.ndarray, rows: np.ndarray) -> float:
    """max of num / den over the selected inequality rows (0 if none)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rows, num / np.where(rows, den, 1.0), 0.0)
    return float(np.max(ratios)) if ratios.size else 0.0


@dataclass
class FitCore:
    """What ``fit_terms`` found.  ``values`` holds the smallest passing
    constants (or, when infeasible, as far as the fit got); ``witnesses``
    is a per-pair mask of the pairs that no admissible constant repairs."""

    feasible: bool
    values: dict[str, float]
    witnesses: np.ndarray


def fit_terms(
    kind: str,
    t: PairTerms,
    cone: ConeSpec,
    slack: float,
    pinned_delta: float | None = None,
) -> FitCore:
    """Smallest constants for which the class inequality holds on every
    pair of ``t``: a for TB, b for TK, c for TC, and for TW the smallest
    delta (constrained only by inequality rows where the L-term vanishes)
    followed by the smallest L at that delta, unless delta is pinned.

    A pair with an inequality row where every RHS term is 0 but the LHS is
    positive is a hard witness: no constant can repair it.
    """
    if kind not in (TB, TK, TC, TW):
        raise ConfigError(f"constant fitting supports TB/TK/TC/TW, not {kind!r}")
    a_t = cone.ineq_matrix.T
    lv = t.lhs @ a_t

    def passes(rhs: np.ndarray, rows: np.ndarray | None = None) -> bool:
        with np.errstate(over="ignore", invalid="ignore"):
            ok = cone.inequality_mask(rhs - t.lhs, slack)
        return bool(np.all(ok if rows is None else ok[rows]))

    if kind != TW:
        ((name, base),) = class_terms(kind, t)
        bv = base @ a_t
        sup = _ratio_sup(lv, bv, bv > 0.0)
        hard = any_last((bv == 0.0) & (lv > 0.0))
        if hard.any():
            return FitCore(False, {name: sup}, hard)
        fitted = _smallest_passing(lambda v: passes(v * base), sup)
        return FitCore(fitted < _UPPER[name], {name: fitted}, hard)

    (_, base), (_, ell) = class_terms(TW, t)
    bv, ev = base @ a_t, ell @ a_t
    hard = any_last((bv == 0.0) & (ev == 0.0) & (lv > 0.0))
    if hard.any():
        return FitCore(False, {}, hard)
    free = ev == 0.0    # inequality rows the L-term cannot reach
    if pinned_delta is None:
        delta = _smallest_passing(lambda v: passes(v * base, free), _ratio_sup(lv, bv, free & (bv > 0.0)))
    else:
        delta = float(pinned_delta)
        short = any_last(~cone.inequality_mask(delta * base - t.lhs, slack) & free)
        if short.any():
            return FitCore(False, {"delta": delta}, short)
    fitted = _smallest_passing(
        lambda v: passes(delta * base + v * ell), _ratio_sup(lv - delta * bv, ev, ev > 0.0)
    )
    return FitCore(delta < 1.0 and fitted < math.inf, {"delta": delta, "L": fitted}, hard)


@dataclass
class FitResult:
    kind: str
    feasible: bool
    spec: ClassSpec | None
    hard_witnesses: list[tuple]


def fit_constants(
    space: ConeMetricSpace,
    maps: MapPair,
    class_kind: str,
    pairs: PairSet,
    *,
    pinned: dict[str, float] | None = None,
) -> FitResult:
    """Smallest constants (the exact smallest passing floats) for which the
    class inequality passes on the pair set: a for TB, b for TK, c for TC,
    and for TW the minimal delta followed by the minimal L (delta may be
    pinned via ``pinned={'delta': v}``).  Pairs no constant can repair are
    returned as infeasibility witnesses.
    """
    if not len(pairs):
        raise ConfigError("constant fitting needs a nonempty pair set")
    fit = fit_terms(
        class_kind, pair_terms(space, maps, pairs), space.cone, space.cone.slack,
        (pinned or {}).get("delta"),
    )
    spec = ClassSpec(class_kind, **fit.values) if fit.feasible else None
    return FitResult(class_kind, fit.feasible, spec, pairs.witnesses(space, np.flatnonzero(fit.witnesses)))


# ---------------------------------------------------------------------------
# Pair sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PairSet:
    """Ordered pairs of carrier points: pair k is (points[ix[k]],
    points[iy[k]]), with ``points`` in the carrier's array form."""

    points: np.ndarray
    ix: np.ndarray
    iy: np.ndarray

    def __len__(self) -> int:
        return len(self.ix)

    @classmethod
    def of(cls, space: ConeMetricSpace, pairs: Sequence[tuple]) -> "PairSet":
        """The explicit pairs (x, y) of ``pairs``, in order."""
        points = [p for x, y in pairs for p in (x, y)]
        ix = np.arange(0, len(points), 2)
        return cls(space.array_form(points, "pair point"), ix, ix + 1)

    def witnesses(self, space: ConeMetricSpace, idx: np.ndarray) -> list[tuple]:
        """The pairs at positions ``idx`` as (x, y) carrier points."""
        from_array = space.carrier.from_array
        return list(zip(from_array(self.points[self.ix[idx]]), from_array(self.points[self.iy[idx]])))


def _square(xs: np.ndarray) -> PairSet:
    """All ordered pairs of the points ``xs`` (array form), x-major."""
    ix, iy = np.divmod(np.arange(len(xs) ** 2), len(xs))
    return PairSet(xs, ix, iy)


def grid_pairs(space: ConeMetricSpace) -> PairSet:
    """All ordered pairs of the carrier's grid points."""
    return _square(space.carrier.to_array(space.carrier.grid_points()))


def sampled_pairs(space: ConeMetricSpace, count: int, seed: int = 0) -> PairSet:
    """``count`` pairs (x, y) of independent draws from the carrier."""
    carrier, rng = space.carrier, np.random.default_rng(seed)
    xs = carrier.to_array(carrier.sample(rng, count))
    ys = carrier.to_array(carrier.sample(rng, count))
    ix = np.arange(count)
    return PairSet(np.concatenate([xs, ys]), ix, ix + count)


def all_pairs(space: ConeMetricSpace) -> PairSet:
    """All ordered pairs of a finite carrier's points."""
    if not space.carrier.finite:
        raise ConfigError("all_pairs needs a finite carrier")
    return _square(space.carrier.to_array(space.carrier.points))
