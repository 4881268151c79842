"""Exact brute-force engine on finite instances.

A finite instance is a tabulated cone metric space on at most 200 labelled
points together with maps T and S, tabulated as index arrays once.  All
checks here scan every ordered pair (or triple) with exact cone tests:
tables are built from dyadic values, so plain float comparisons are exact
and the tolerance is genuinely zero.  The load-time d3 scan compares the
table's projections onto the cone's rows, exact for unit-row cones on any
table.  The class inequalities, their cleared-denominator weak forms and
the constant fit come from the engine in ``contractions``; the oracle only
supplies the terms of all n^2 index pairs, looked up in the tables once
per instance (``FiniteInstance.terms``), and runs that engine at slack 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .cone_space import (
    AxiomReport, ConeMetricSpace, ConeSpec, ConfigError, DomainError, FinitePointsCarrier, LazyRows,
    TabulatedMetric, as_tuple, table_pair_failures, table_take, table_triangle_failures,
)
from .contractions import (
    TB, TC, TK, TW, TW_DUAL, TWU, TZ,
    ClassSpec, MapPair, PairTerms, TabulatedMap, Verdict,
    cleared_check, evaluate, fit_terms, image_indices, pair_columns, promote_to_weak, zamfirescu_delta,
)

MAX_POINTS = 200

# The table checks FiniteInstance raises first, in this order, before d3.
_TABLE_ERRORS = {
    "d1-identity": "d1: nonzero diagonal entry",
    "d1-separation": "d1: zero distance between distinct points",
    "d1-cone": "d1: a value leaves the cone",
    "d2-symmetry": "d2: asymmetric entry",
}


@dataclass(eq=False)
class FiniteInstance:
    """A cone metric space with a tabulated metric on 1..200 points, and
    maps T and S of its points into themselves, checked exactly at
    construction.  T's and S's images are indexed (``t_table``,
    ``s_table``; an image off the carrier is a ``DomainError`` naming its
    map), then the first failure ``metric_table_failures`` finds at slack 0
    (all n^3 triples, as ``verify_metric_axioms`` scans a tabulated metric,
    d3 on the table projected onto the cone's rows) is raised, a d3 failure
    at its smallest z, so every downstream check may assume d1-d3.  A table
    that fails d1 or d2 is refused before the d3 scan.
    """

    space: ConeMetricSpace
    maps: MapPair
    t_table: np.ndarray = field(init=False, repr=False)
    s_table: np.ndarray = field(init=False, repr=False)
    _verdicts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.space.metric, TabulatedMetric):
            raise ConfigError("finite instances need a tabulated metric")
        tables = []
        for name in "TS":
            try:
                tables.append(image_indices(self.space, getattr(self.maps, name), f"{name}-image"))
            except DomainError as exc:
                raise DomainError(f"maps.{name}: {exc}") from exc
        self.t_table, self.s_table = tables
        n = self.n
        if not 1 <= n <= MAX_POINTS:
            raise ConfigError(f"finite instances support 1..{MAX_POINTS} points, got {n}")
        if self.metric_table.shape != (n, n, self.cone.dimension):
            raise ConfigError(f"metric table must have shape ({n}, {n}, {self.cone.dimension}), "
                              f"got {self.metric_table.shape}")
        failures = table_pair_failures(self.metric_table, self.cone, 0.0)
        for axiom, message in _TABLE_ERRORS.items():
            if failures[axiom].any():
                raise ConfigError(f"metric table violates {message}")
        # d2 holds here, so the scan may take the symmetric half; (z, x, y): smallest z first
        triangle = table_triangle_failures(self.metric_table, self.cone, 0.0, True).transpose(2, 0, 1)
        if triangle.any():
            k, i, j = np.argwhere(triangle)[0]
            raise ConfigError(f"metric table violates d3 at triple ({i}, {j}, {k})")

    @property
    def points(self) -> list:
        return self.space.carrier.points

    @property
    def metric_table(self) -> np.ndarray:
        return self.space.metric.table

    @property
    def cone(self) -> ConeSpec:
        return self.space.cone

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def metric_axioms(self) -> AxiomReport:
        """``verify_metric_axioms``' report on ``space``, read off the scan
        above: a failure at the cone's slack (>= 0) is one at slack 0, so
        d1-d3 hold on all n^2 pairs and n^3 triples."""
        return AxiomReport(["d1", "d2", "d3"], [], self.n ** 2 + self.n ** 3, "table")

    @cached_property
    def terms(self) -> PairTerms:
        """The pair terms of all n^2 index pairs, looked up in the tables
        once per instance (the tables are validated above and never
        changed).  The per-point terms are (n, 1, m) and (1, n, m)."""
        idx = np.arange(self.n)
        return pair_columns(partial(table_take, self.metric_table), self.t_table, self.t_table[self.s_table],
                            idx[:, None], idx[None, :])

    def verdict(self, spec: ClassSpec) -> Verdict:
        """The class inequality of ``spec`` on all n^2 pairs at slack 0,
        evaluated once per spec and instance."""
        if spec not in self._verdicts:
            self._verdicts[spec] = evaluate(spec, self.terms, self.cone, 0.0)
        return self._verdicts[spec]

    @property
    def t_injective(self) -> bool:
        return len(set(self.t_table.tolist())) == self.n


def finite_from_values(
    values: Sequence[float],
    t_table: Sequence[int],
    s_table: Sequence[int],
    *,
    direction: Sequence[float] = (1.0, 2.0),
    cone: ConeSpec | None = None,
) -> FiniteInstance:
    """Line-geometry instance on the labels 0..n-1: d(i, j) = direction *
    |values[i] - values[j]|, and T and S map label i to t_table[i] and
    s_table[i], entries taken as given (a bool or a fraction is no label)."""
    vals = np.asarray(values, dtype=float)
    u = np.asarray(direction, dtype=float)
    cone = cone or ConeSpec.orthant(len(u), slack=0.0)
    diff = np.abs(vals[:, None] - vals[None, :])
    points = list(range(len(vals)))
    space = ConeMetricSpace(cone, FinitePointsCarrier(points), TabulatedMetric(diff[:, :, None] * u))
    return FiniteInstance(space, MapPair(TabulatedMap(points, list(t_table)), TabulatedMap(points, list(s_table))))


# ---------------------------------------------------------------------------
# Exhaustive checks
# ---------------------------------------------------------------------------

def enumerate_fixed_points(fin: FiniteInstance) -> list[int]:
    """Exact fixed-point set of S, by full scan."""
    idx = np.flatnonzero(fin.s_table == np.arange(fin.n))
    return [fin.points[i] for i in idx]


def _index_pairs(mask: np.ndarray) -> LazyRows:
    """The True entries of an (n, n) mask as a view of (x, y) tuples of
    ints, row-major."""
    return LazyRows(np.ndarray.tolist, [(as_tuple, np.nonzero(mask), ())])


@dataclass
class OracleConditionReport:
    spec: ClassSpec
    holds: bool
    violating_pairs: Sequence[tuple[int, int]]
    pairs_checked: int
    branch_stats: dict[str, int] | None = None


def exhaustive_condition_check(fin: FiniteInstance, spec: ClassSpec) -> OracleConditionReport:
    """Evaluate the class inequality on all n^2 ordered pairs, exactly."""
    v = fin.verdict(spec)
    return OracleConditionReport(spec, bool(v.ok.all()), _index_pairs(~v.ok), fin.n ** 2, v.branch_stats)


# ---------------------------------------------------------------------------
# Tightest constants
# ---------------------------------------------------------------------------

@dataclass
class TightestResult:
    kind: str
    feasible: bool
    constants: dict[str, float] | None
    supremum: dict[str, float]
    infeasible_witnesses: Sequence[tuple[int, int]]


def tightest_constants(
    fin: FiniteInstance,
    class_kind: str,
    *,
    pinned_delta: float | None = None,
) -> TightestResult:
    """Exact minimal constants over all pairs: the smallest passing floats,
    searched from the closed-form ratio supremum.  For TW the minimal delta
    is found first (constrained by inequality rows where the L-term
    vanishes), then the minimal L on that boundary; pass ``pinned_delta``
    to fix delta instead.
    """
    fit = fit_terms(class_kind, fin.terms, fin.cone, 0.0, pinned_delta)
    return TightestResult(
        class_kind, fit.feasible, fit.values if fit.feasible else None, fit.values,
        _index_pairs(fit.witnesses),
    )


# ---------------------------------------------------------------------------
# Lemma and promotion oracles (exact, cleared-denominator forms)
# ---------------------------------------------------------------------------

@dataclass
class ReductionExhaustive:
    delta: float
    applicable: bool
    primary_ok: bool
    dual_ok: bool
    primary_violations: Sequence[tuple[int, int]]
    dual_violations: Sequence[tuple[int, int]]

    @property
    def holds(self) -> bool:
        return self.applicable and self.primary_ok and self.dual_ok


def exhaustive_reduction_check(fin: FiniteInstance, a: float, b: float, c: float) -> ReductionExhaustive:
    """Exact all-pairs check of the reduced inequality (primary and dual
    forms) with delta = max{a, b/(1-b), c/(1-c)}, evaluated with the
    denominator multiplied through so dyadic tables are decided exactly.
    Requires TZ(a, b, c) to hold exhaustively first: where it fails the
    reduction does not apply, and neither form is checked (no violations).
    """
    delta = zamfirescu_delta(a, b, c)
    tz = ClassSpec.tz(a, b, c)
    if not fin.verdict(tz).ok.all():
        return ReductionExhaustive(delta, False, False, False, [], [])
    ok_p, ok_d = (cleared_check(tz, kind, fin.terms, fin.cone, 0.0).ok for kind in (TWU, TW_DUAL))
    return ReductionExhaustive(
        delta, True, bool(ok_p.all()), bool(ok_d.all()), _index_pairs(~ok_p), _index_pairs(~ok_d)
    )


@dataclass
class PromotionExhaustive:
    source: ClassSpec
    promoted: ClassSpec
    weak_ok: bool
    weak_dual_ok: bool
    weak_violations: Sequence[tuple[int, int]]
    weak_dual_violations: Sequence[tuple[int, int]]

    @property
    def holds(self) -> bool:
        return self.weak_ok and self.weak_dual_ok


def exhaustive_promotion_check(fin: FiniteInstance, source: ClassSpec) -> PromotionExhaustive:
    """On every pair where the source class holds, check the promoted weak
    inequality (both the d(Ty, TSx) and the dual d(Tx, TSy) shapes),
    exactly.  The promoted constants delta = k/(1-k), L = 2k/(1-k) are
    verified in the multiplied-through form k d(Tx,Ty) + 2k ell >= (1-k) lhs.
    """
    if source.kind not in (TB, TK, TC, TZ):
        raise ConfigError(f"promotion oracle applies to TB/TK/TC/TZ, not {source.kind!r}")
    off_source = ~fin.verdict(source).ok
    ok_w, ok_d = (cleared_check(source, kind, fin.terms, fin.cone, 0.0).ok | off_source
                  for kind in (TW, TW_DUAL))
    return PromotionExhaustive(
        source, promote_to_weak(source), bool(ok_w.all()), bool(ok_d.all()),
        _index_pairs(~ok_w), _index_pairs(~ok_d),
    )


# ---------------------------------------------------------------------------
# Cross-validation of fixed-point conclusions
# ---------------------------------------------------------------------------

UNIQUENESS_CLASSES = (TB, TK, TC, TZ, TWU)


@dataclass
class CrossValidation:
    spec: ClassSpec
    applicable: bool
    t_injective: bool
    condition: OracleConditionReport
    fixed_points: list[int]
    unique_expected: bool
    exists_ok: bool
    unique_ok: bool
    orbit_steps: dict[int, int]
    orbit_targets: dict[int, int]
    orbits_ok: bool
    multiplicity_allowed: bool

    @property
    def passed(self) -> bool:
        return self.applicable and self.exists_ok and self.unique_ok and self.orbits_ok


def cross_validate(fin: FiniteInstance, spec: ClassSpec) -> CrossValidation:
    """Verify the fixed-point conclusions on a finite carrier: existence,
    uniqueness for the unique-fixed-point classes (TB/TK/TC/TZ/TWU), and
    that every Picard orbit reaches a fixed point within n steps.  For the
    weak classes multiplicity is permitted and simply reported.
    """
    report = exhaustive_condition_check(fin, spec)
    injective = fin.t_injective
    unique_expected = spec.kind in UNIQUENESS_CLASSES
    multiplicity = spec.kind in (TW, TW_DUAL)
    if not report.holds or not injective:
        return CrossValidation(
            spec, False, injective, report, [], unique_expected,
            False, False, {}, {}, False, multiplicity,
        )

    fps = enumerate_fixed_points(fin)
    # All orbits advance together; S leaves a fixed point where it is.  An
    # orbit that reaches a fixed point does so within n - 1 steps.
    fixed = fin.s_table == np.arange(fin.n)
    cur, steps = np.arange(fin.n), np.zeros(fin.n, dtype=int)
    for _ in range(fin.n - 1):
        moving = ~fixed[cur]
        if not moving.any():
            break
        steps += moving
        cur = fin.s_table[cur]
    reached = fixed[cur]
    return CrossValidation(
        spec, True, injective, report, fps, unique_expected,
        len(fps) >= 1, len(fps) == 1 or not unique_expected,
        dict(enumerate(np.where(reached, steps, -1).tolist())),
        dict(enumerate(np.where(reached, cur, -1).tolist())),
        bool(reached.all()), multiplicity,
    )


# ---------------------------------------------------------------------------
# Random finite instances (rejection sampling)
# ---------------------------------------------------------------------------

# The rejection sampler draws n in [N_MIN, N_MAX] and one metric direction.
# Values are dyadic so that every metric entry, and hence every cone test,
# is exact in float64.
N_MIN, N_MAX = 6, 20
MAX_ATTEMPTS = 200_000
DIRECTION_CHOICES = ((1.0, 2.0), (0.5, 1.0), (1.0, 0.25), (2.0, 3.0))


@dataclass
class GeneratedInstance:
    fin: FiniteInstance
    spec: ClassSpec
    proposal: str
    extra: dict[str, float] = field(default_factory=dict)


def _ladder_values(rng: np.random.Generator, n: int) -> np.ndarray:
    scale = rng.integers(1, 5) / 4.0
    return np.asarray([scale * 2.0 ** (-i) for i in range(n - 1)] + [0.0])


def _grid_values(rng: np.random.Generator, n: int) -> np.ndarray:
    ks = rng.choice(65, size=n, replace=False)
    return np.sort(ks)[::-1] / 64.0


def _propose_s(rng: np.random.Generator, n: int) -> tuple[str, np.ndarray]:
    roll = rng.random()
    if roll < 0.45:
        t = int(rng.integers(2, 5))
        return f"ladder-{t}", np.minimum(np.arange(n) + t, n - 1)
    if roll < 0.65:
        s = rng.integers(n - 2, n, size=n)
        s[n - 1] = n - 1
        return "cluster", s
    if roll < 0.75:
        hub = int(rng.integers(0, n))
        return "constant", np.full(n, hub)
    return "random", rng.integers(0, n, size=n)


def _draw_instance(rng: np.random.Generator) -> tuple[FiniteInstance, str]:
    n = int(rng.integers(N_MIN, N_MAX + 1))
    values = _ladder_values(rng, n) if rng.random() < 0.6 else _grid_values(rng, n)
    name, base_s = _propose_s(rng, n)
    # T is a random permutation; conjugating the proposal keeps its
    # contraction geometry when read through T-images.
    pi = np.arange(n) if rng.random() < 0.3 else rng.permutation(n)
    inv = np.empty(n, dtype=int)
    inv[pi] = np.arange(n)
    s_table = inv[base_s[pi]]
    direction = DIRECTION_CHOICES[int(rng.integers(0, len(DIRECTION_CHOICES)))]
    fin = finite_from_values(values, pi, s_table, direction=direction)
    return fin, name


def _draw_units(rng: np.random.Generator, lo: int, hi: int, denom: float) -> float:
    return float(rng.integers(lo, hi)) / denom


def random_finite_instance(rng: np.random.Generator) -> FiniteInstance:
    """A valid finite instance with no class requirement (metric axioms
    hold by construction and are re-validated exactly)."""
    return _draw_instance(rng)[0]


def _rejection_corpus(count: int, seed: int, label: str, accept: Callable) -> list[GeneratedInstance]:
    """``count`` instances of one class by rejection: each attempt draws an
    instance, then ``accept(rng, fin, proposal)`` draws the class constants
    and returns the GeneratedInstance, or None to reject it."""
    rng, out = np.random.default_rng(seed), []
    for _ in range(MAX_ATTEMPTS):
        if len(out) == count:
            break
        found = accept(rng, *_draw_instance(rng))
        if found is not None:
            out.append(found)
    if len(out) < count:
        raise RuntimeError(f"{label} corpus generation starved after {MAX_ATTEMPTS} attempts")
    return out


def generate_tz_corpus(count: int, *, seed: int = 0) -> list[GeneratedInstance]:
    """Rejection-sample finite instances exhaustively satisfying
    TZ(a, b, c) for dyadic constants drawn per instance."""
    def accept(rng, fin, name):
        a, b, c = _draw_units(rng, 0, 64, 64.0), _draw_units(rng, 0, 32, 64.0), _draw_units(rng, 0, 32, 64.0)
        spec = ClassSpec.tz(a, b, c)
        return GeneratedInstance(fin, spec, name) if exhaustive_condition_check(fin, spec).holds else None

    return _rejection_corpus(count, seed, "TZ", accept)


def generate_twu_corpus(count: int, *, seed: int = 0) -> list[GeneratedInstance]:
    """Instances exhaustively satisfying both a weak contraction TW(delta, L)
    and the uniqueness condition TWU(theta, L1).  Both are required: the
    TWU inequality alone admits fixed-point-free instances (a two-point
    swap passes it whenever theta + L1 >= 1), while the weak condition
    forces every orbit onto a fixed point."""
    def accept(rng, fin, name):
        tw = ClassSpec.tw(_draw_units(rng, 1, 64, 64.0), _draw_units(rng, 0, 9, 4.0))
        twu = ClassSpec.twu(_draw_units(rng, 1, 64, 64.0), _draw_units(rng, 0, 9, 4.0))
        if exhaustive_condition_check(fin, tw).holds and exhaustive_condition_check(fin, twu).holds:
            return GeneratedInstance(fin, twu, name, extra={"delta": tw.delta, "L": tw.L})
        return None

    return _rejection_corpus(count, seed, "TWU", accept)
