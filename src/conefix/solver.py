"""Monitored Picard iteration and fixed-point certification.

The iteration x_{n+1} = S(x_n) is monitored through the T-image gap
sequence d_n = d(T x_n, T x_{n+1}); convergence, geometric decay, and
the Cauchy tail bound are all measured on these vectors, so the stopping
rule is well defined on any carrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cone_space import BoxCarrier, ConeMetricSpace, ConfigError, DomainError, point_key
from .contractions import MapPair

CONVERGED = "converged"
MAX_ITER = "max_iter"
CYCLE_DETECTED = "cycle_detected"

UNIQUE = "unique"
NON_UNIQUE = "non_unique"
UNKNOWN = "unknown"

# Evidence tolerances and probe sizes of the checks below.
DECAY_HEADROOM = 1e-9       # relative headroom of both geometric-decay bounds
CAUCHY_SAMPLES = 2000       # Cauchy-tail pairs drawn when a trace has more
COINCIDE_FACTOR = 10.0      # probe limits within this many epsilons coincide
PROBE_COUNT = 200           # injectivity probe points on a continuous carrier
PROBE_SEED = 0
PROBE_LENGTH = 48           # length of each probe sequence
INJECTIVITY_TOL = 1e-12     # T-images this close count as equal
CAUCHY_WINDOW = 8           # a sequence is numerically Cauchy when its last
CAUCHY_TOL = 1e-6           # CAUCHY_WINDOW terms lie within CAUCHY_TOL


@dataclass
class StoppingRule:
    epsilon: float = 1e-12
    max_iter: int = 1_000_000

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ConfigError("epsilon must be > 0")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")


@dataclass
class IterationTrace:
    space: ConeMetricSpace
    maps: MapPair
    x_sequence: list
    t_images: list
    t_image_gaps: list[np.ndarray]
    gap_norms: list[float]
    stop_reason: str
    rule: StoppingRule

    @property
    def n_final(self) -> int:
        return len(self.x_sequence) - 1

    @property
    def last(self):
        return self.x_sequence[-1]

    def step_ratios(self) -> list[float]:
        """Consecutive gap-norm ratios where the denominator is nonzero."""
        g = self.gap_norms
        return [g[i + 1] / g[i] for i in range(len(g) - 1) if g[i] > 0.0]

    def max_step_ratio(self) -> float | None:
        r = self.step_ratios()
        return max(r) if r else None


def picard_iterate(
    space: ConeMetricSpace,
    maps: MapPair,
    x0,
    rule: StoppingRule | None = None,
) -> IterationTrace:
    """Iterate x_{n+1} = S(x_n) from x0 until the T-image gap norm drops
    to the rule's epsilon, max_iter points have been appended, or the
    next point exactly repeats an earlier one: S is deterministic, so any
    repeat proves a cycle.

    The trace records one gap per visited point: gap[n] pairs with
    x_sequence[n] and equals d(T x_n, T S x_n); on convergence the next
    point is appended so the final point carries the near-zero residual.
    """
    rule = rule or StoppingRule()
    space.require_point(x0, "start point")
    pts = [x0]
    t_images = [space.require_point(maps.T(x0), "T-image")]
    gaps: list[np.ndarray] = []
    norms: list[float] = []
    seen = {point_key(x0)}
    while True:
        x = pts[-1]
        try:
            y = space.require_point(maps.S(x), "S-image")
            ty = space.require_point(maps.T(y), "T-image")
        except DomainError as exc:
            raise DomainError(f"iterate {len(pts) - 1} escaped the carrier: {exc}") from exc
        g = space.d(t_images[-1], ty)
        gaps.append(g)
        norms.append(space.cone.norm(g))
        if norms[-1] > rule.epsilon and len(pts) > rule.max_iter:
            reason = MAX_ITER
            break
        pts.append(y)
        t_images.append(ty)
        if norms[-1] <= rule.epsilon:
            reason = CONVERGED
            break
        key = point_key(y)
        if key in seen:
            reason = CYCLE_DETECTED
            break
        seen.add(key)
    return IterationTrace(space, maps, pts, t_images, gaps, norms, reason, rule)


# ---------------------------------------------------------------------------
# Geometric decay
# ---------------------------------------------------------------------------

@dataclass
class DecayReport:
    h: float
    K: float
    per_step_ok: bool
    per_step_violations: list[tuple[int, float, float]]
    cauchy_ok: bool
    cauchy_violations: list[tuple[int, int, float, float]]
    cauchy_pairs_checked: int

    @property
    def passed(self) -> bool:
        return self.per_step_ok and self.cauchy_ok


def _cauchy_pairs(npts: int, samples: int, seed: int) -> list[tuple[int, int]]:
    """The (m, n) pairs, m > n, of the Cauchy-tail check: all of them, or
    ``samples`` drawn without replacement.  Pairs are ranked n-major (rank
    r runs over (n+1, n), ..., (npts-1, n) for n = 0, 1, ...) and a drawn
    rank is unranked arithmetically, so the full list is never built."""
    total = npts * (npts - 1) // 2
    if total > samples:
        ranks = np.sort(np.random.default_rng(seed).choice(total, size=samples, replace=False))
    else:
        ranks = np.arange(total)
    nn = np.arange(npts)
    starts = nn * (npts - 1) - nn * (nn - 1) // 2      # rank of (n+1, n)
    n_of = np.searchsorted(starts, ranks, side="right") - 1
    m_of = n_of + 1 + ranks - starts[n_of]
    return list(zip(m_of.tolist(), n_of.tolist()))


def geometric_decay_check(trace: IterationTrace, h: float, K: float = 1.0, *,
                          seed: int = 0) -> DecayReport:
    """Check the per-step bound ||d_n|| <= K h^n ||d_0|| and the pairwise
    Cauchy tail ||d(T x_m, T x_n)|| <= K h^n / (1 - h) ||d_0|| on up to
    CAUCHY_SAMPLES sampled m > n, both with relative headroom DECAY_HEADROOM.
    """
    if not (0.0 <= h < 1.0):
        raise ConfigError(f"decay factor h must be in [0, 1), got {h}")
    if not (K >= 1.0):
        raise ConfigError(f"normal constant K must be >= 1, got {K}")
    if not trace.t_image_gaps:
        raise ConfigError("trace has no monitored gaps")

    d0 = trace.gap_norms[0]
    headroom = 1.0 + DECAY_HEADROOM

    step_violations = []
    for n, gn in enumerate(trace.gap_norms):
        bound = K * h ** n * d0 * headroom
        if gn > bound:
            step_violations.append((n, gn, bound))

    pairs = _cauchy_pairs(len(trace.t_images), CAUCHY_SAMPLES, seed)
    cauchy_violations = []
    tail = K * d0 / (1.0 - h) * headroom
    for mm, nn in pairs:
        actual = trace.space.gap_norm(trace.t_images[mm], trace.t_images[nn])
        bound = tail * h ** nn
        if actual > bound:
            cauchy_violations.append((mm, nn, actual, bound))

    return DecayReport(
        h=h,
        K=K,
        per_step_ok=not step_violations,
        per_step_violations=step_violations,
        cauchy_ok=not cauchy_violations,
        cauchy_violations=cauchy_violations,
        cauchy_pairs_checked=len(pairs),
    )


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass
class FixedPointCheck:
    point: object
    residual: np.ndarray
    residual_norm: float
    epsilon: float
    certified: bool


def certify_fixed_point(space: ConeMetricSpace, maps: MapPair, z, epsilon: float) -> FixedPointCheck:
    """Certified iff ||d(S z, z)|| <= epsilon; the residual is recorded."""
    space.require_point(z)
    sz = space.require_point(maps.S(z), "S-image")
    residual = space.d(sz, z)
    rnorm = space.cone.norm(residual)
    return FixedPointCheck(z, residual, rnorm, epsilon, rnorm <= epsilon)


@dataclass
class UniquenessVerdict:
    verdict: str
    fixed_point: object | None
    witnesses: list
    traces: list[IterationTrace]


def uniqueness_probe(
    space: ConeMetricSpace,
    maps: MapPair,
    starts: Sequence,
    rule: StoppingRule | None = None,
) -> UniquenessVerdict:
    """Run Picard iteration from each start.  ``unique`` when all converged
    limits coincide within COINCIDE_FACTOR * epsilon; ``non_unique`` when at
    least two certified, distinct fixed points emerge; ``unknown`` when any
    run fails to converge.  Runs go in start order.
    """
    if not starts:
        raise ConfigError("uniqueness probe needs at least one start point")
    rule = rule or StoppingRule()
    tol = COINCIDE_FACTOR * rule.epsilon

    traces = [picard_iterate(space, maps, s, rule) for s in starts]

    if any(t.stop_reason != CONVERGED for t in traces):
        return UniquenessVerdict(UNKNOWN, None, [], traces)

    reps: list = []
    for t in traces:
        z = t.last
        if all(space.gap_norm(z, r) > tol for r in reps):
            reps.append(z)
    if len(reps) == 1:
        return UniquenessVerdict(UNIQUE, reps[0], [], traces)

    certified = [r for r in reps if certify_fixed_point(space, maps, r, rule.epsilon).certified]
    if len(certified) >= 2:
        return UniquenessVerdict(NON_UNIQUE, None, certified, traces)
    return UniquenessVerdict(UNKNOWN, None, certified, traces)


# ---------------------------------------------------------------------------
# T diagnostics
# ---------------------------------------------------------------------------

@dataclass
class TProbes:
    injectivity_points: list
    sequences: list[tuple[str, list]]


def default_probes(space: ConeMetricSpace) -> TProbes:
    carrier = space.carrier
    rng = np.random.default_rng(PROBE_SEED)
    if carrier.finite:
        pts = list(carrier.points)
        seqs = [("constant", [pts[0]] * PROBE_LENGTH)]
        if len(pts) >= 2:
            seqs.append(("alternating", [pts[0], pts[-1]] * (PROBE_LENGTH // 2)))
        return TProbes(pts, seqs)
    if isinstance(carrier, BoxCarrier):
        pts = list(carrier.sample(rng, PROBE_COUNT))
        lo, hi = carrier.lows, carrier.highs
    else:
        lo, hi = carrier.lo, carrier.hi
        pts = list(np.linspace(lo, hi, PROBE_COUNT))
    seqs = [
        ("convergent", [lo + (hi - lo) * 0.5 ** n for n in range(PROBE_LENGTH)]),
        ("alternating", [lo, hi] * (PROBE_LENGTH // 2)),
        ("boundary-approach", [hi - (hi - lo) * 0.5 ** n for n in range(PROBE_LENGTH)]),
    ]
    return TProbes(pts, seqs)


@dataclass
class SequenceFinding:
    name: str
    t_image_converges: bool
    argument_converges: bool
    classification: str  # consistent | inconsistent | not-applicable


@dataclass
class TDiagnostics:
    injective: bool
    injectivity_violations: list[tuple]
    sequence_findings: list[SequenceFinding]
    note: str = "evidence from finite probes, not proof"


def _numerically_cauchy(space: ConeMetricSpace, seq: list) -> bool:
    tail = seq[-CAUCHY_WINDOW:]
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            if space.gap_norm(tail[i], tail[j]) > CAUCHY_TOL:
                return False
    return True


def diagnose_T(space: ConeMetricSpace, maps: MapPair, probes: TProbes | None = None) -> TDiagnostics:
    """Probe T for injectivity counterexamples and for sequential-convergence
    evidence: for each probe sequence (y_n), test whether (T y_n) is
    numerically Cauchy and whether (y_n) is; a convergent image with a
    non-convergent argument is inconsistent with sequential convergence,
    and a non-convergent image leaves the hypothesis unmet.
    """
    probes = probes or default_probes(space)
    T = maps.T

    violations = []
    pts = probes.injectivity_points
    images = [space.require_point(T(p), "T-image") for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if point_key(pts[i]) == point_key(pts[j]):
                continue
            if space.gap_norm(images[i], images[j]) <= INJECTIVITY_TOL:
                violations.append((pts[i], pts[j]))

    findings = []
    for name, seq in probes.sequences:
        t_seq = [space.require_point(T(y), "T-image") for y in seq]
        t_conv = _numerically_cauchy(space, t_seq)
        y_conv = _numerically_cauchy(space, list(seq))
        if not t_conv:
            cls = "not-applicable"
        elif y_conv:
            cls = "consistent"
        else:
            cls = "inconsistent"
        findings.append(SequenceFinding(name, t_conv, y_conv, cls))

    return TDiagnostics(not violations, violations, findings)
