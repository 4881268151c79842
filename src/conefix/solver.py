"""Monitored Picard iteration and fixed-point certification.

The iteration x_{n+1} = S(x_n) is monitored through the T-image gap
sequence d_n = d(T x_n, T x_{n+1}); convergence, geometric decay, and
the Cauchy tail bound are all measured on these vectors, so the stopping
rule is well defined on any carrier.

Every check is an array pass over the carrier's array form of its points
(see ``cone_space``): the runs from many starts step together, and the
uniqueness merge, the Cauchy tail and the injectivity probe each take their
distances from one ``ConeMetricSpace.pairwise`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cone_space import BoxCarrier, ConeMetricSpace, ConfigError, DomainError
from .contractions import IdentityMap, MapPair, _array_map

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
    return _picard_runs(space, maps, [x0], rule or StoppingRule())[0]


def _first_failure(space, maps, xs, ts, step) -> tuple[int, Exception] | None:
    """Replay one step point by point with the scalar maps, in row order:
    the first failing row and the error a run from it alone raises."""
    carrier = space.carrier
    for row, (x, tx) in enumerate(zip(carrier.from_array(xs), carrier.from_array(ts))):
        try:
            try:
                y = space.require_point(maps.S(x), "S-image")
                ty = space.require_point(maps.T(y), "T-image")
            except DomainError as exc:
                raise DomainError(f"iterate {step} escaped the carrier: {exc}") from exc
            space.gap_norm(tx, ty)
        except Exception as exc:
            return row, exc
    return None


def _picard_runs(space: ConeMetricSpace, maps: MapPair, starts: list,
                 rule: StoppingRule) -> list[IterationTrace]:
    """Picard runs from all starts at once, as ``picard_iterate`` runs each.
    The active rows step together through the array forms of S, T and the
    metric; a row leaves the array when it stops.  When any run fails, the
    error raised is the one running the starts one after another would
    raise first: that of the lowest-index failing start, at its own step."""
    carrier = space.carrier
    S, T = _array_map(space, maps.S), _array_map(space, maps.T)
    failure = None
    t0 = []
    for row, x0 in enumerate(starts):
        try:
            space.require_point(x0, "start point")
            t0.append(space.require_point(maps.T(x0), "T-image"))
        except Exception as exc:
            failure = (row, exc)
            break
    k = len(t0)
    ids = np.arange(k)
    xs, ts = carrier.to_array(starts[:k]), carrier.to_array(t0)
    # the points a run has visited (as tuples on a box)
    seen = [{key} for key in _keys(xs, carrier.from_array(xs))]
    traces = [IterationTrace(space, maps, [x0], [tx0], [], [], None, rule) for x0, tx0 in zip(starts, t0)]
    identity = isinstance(maps.S, IdentityMap)     # S returns the very point it is given
    rows = ids.tolist()
    pairwise, norm_rows, mask = space.pairwise, space.cone.norm_rows, carrier.mask
    eps, max_iter, step = rule.epsilon, rule.max_iter, 0
    with np.errstate(all="ignore"):
        while ids.size:
            try:
                ys = S(xs)
                tys = T(ys)
                inside = mask(ys) if tys is ys else mask(ys) & mask(tys)
                if not inside.all():
                    raise DomainError("an image lies outside the carrier")
                gaps = pairwise(ts, tys)
                norms = norm_rows(gaps)
            except Exception as exc:
                found = _first_failure(space, maps, xs, ts, step)
                if found is None:
                    raise exc
                row, error = found
                failure = (rows[row], error)
                ids, xs, ts, rows = ids[:row], xs[:row], ts[:row], rows[:row]
                continue
            capped = step >= max_iter
            points, images = carrier.from_array(ys), carrier.from_array(tys)
            stopped = []
            for pos, (row, key, norm) in enumerate(zip(rows, _keys(ys, points), norms.tolist())):
                trace = traces[row]
                trace.t_image_gaps.append(gaps[pos].copy())    # not a view that keeps the whole step
                trace.gap_norms.append(norm)
                # "not <=" so that a NaN norm counts as not converged
                if not norm <= eps and capped:  # a run stopped by max_iter keeps no new point
                    trace.stop_reason = MAX_ITER
                    stopped.append(pos)
                    continue
                trace.x_sequence.append(trace.x_sequence[0] if identity else points[pos])
                trace.t_images.append(images[pos])
                if norm <= eps:
                    trace.stop_reason = CONVERGED
                elif key in seen[row]:
                    trace.stop_reason = CYCLE_DETECTED
                else:
                    seen[row].add(key)
                    continue
                stopped.append(pos)
            if stopped:
                keep = np.ones(len(ids), dtype=bool)
                keep[stopped] = False
                ids, xs, ts = ids[keep], ys[keep], tys[keep]
                rows = ids.tolist()
            else:
                xs, ts = ys, tys
            step += 1
    if failure is not None:
        raise failure[1]
    return traces


def _keys(xs: np.ndarray, points: list) -> list:
    """Hashable keys of ``points``, whose array form is ``xs``: the points
    themselves, or tuples for the rows of a box."""
    return list(map(tuple, xs.tolist())) if xs.ndim > 1 else points


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


def _cauchy_pairs(npts: int, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The index arrays (m, n), m > n, of the Cauchy-tail pairs: all of
    them, or ``samples`` drawn without replacement.  Pairs are ranked
    n-major (rank r runs over (n+1, n), ..., (npts-1, n) for n = 0, 1, ...)
    and a drawn rank is unranked arithmetically, so the full list is never
    built."""
    total = npts * (npts - 1) // 2
    if total > samples:
        ranks = np.sort(np.random.default_rng(seed).choice(total, size=samples, replace=False))
    else:
        ranks = np.arange(total)
    nn = np.arange(npts)
    starts = nn * (npts - 1) - nn * (nn - 1) // 2      # rank of (n+1, n)
    n_of = np.searchsorted(starts, ranks, side="right") - 1
    m_of = n_of + 1 + ranks - starts[n_of]
    return m_of, n_of


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
    powers = [h ** n for n in range(len(trace.t_images))]   # Python pow, as the bounds state

    step_violations = []
    for n, gn in enumerate(trace.gap_norms):
        bound = K * powers[n] * d0 * headroom
        if gn > bound:
            step_violations.append((n, gn, bound))

    space = trace.space
    mm, nn = _cauchy_pairs(len(trace.t_images), CAUCHY_SAMPLES, seed)
    ts = space.carrier.to_array(trace.t_images)
    actual = space.cone.norm_rows(space.pairwise(ts[mm], ts[nn]))
    bound = K * d0 / (1.0 - h) * headroom * np.asarray(powers)[nn]
    bad = np.flatnonzero(actual > bound)
    cauchy_violations = list(zip(mm[bad].tolist(), nn[bad].tolist(),
                                 actual[bad].tolist(), bound[bad].tolist()))

    return DecayReport(
        h=h,
        K=K,
        per_step_ok=not step_violations,
        per_step_violations=step_violations,
        cauchy_ok=not cauchy_violations,
        cauchy_violations=cauchy_violations,
        cauchy_pairs_checked=len(mm),
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
    """Run Picard iteration from every start (all runs as one array).
    ``unique`` when all converged limits coincide within COINCIDE_FACTOR *
    epsilon; ``non_unique`` when at least two certified, distinct fixed
    points emerge; ``unknown`` when any run fails to converge.  Limits merge
    in start order: each joins the first earlier representative it
    coincides with, or becomes a representative.
    """
    if not starts:
        raise ConfigError("uniqueness probe needs at least one start point")
    rule = rule or StoppingRule()
    tol = COINCIDE_FACTOR * rule.epsilon

    traces = _picard_runs(space, maps, list(starts), rule)

    if any(t.stop_reason != CONVERGED for t in traces):
        return UniquenessVerdict(UNKNOWN, None, [], traces)

    # apart[a, b], b < a: limit a lies farther than tol from the earlier
    # limit b (one pairwise call over the k(k-1)/2 pairs of k starts)
    lasts = [t.last for t in traces]
    zs = space.carrier.to_array(lasts)
    k = len(zs)
    a, b = np.tril_indices(k, -1)
    apart = np.zeros((k, k), dtype=bool)
    apart[a, b] = space.cone.norm_rows(space.pairwise(zs[a], zs[b])) > tol
    chosen: list[int] = []
    for z in range(k):
        if apart[z, chosen].all():
            chosen.append(z)
    reps = [lasts[z] for z in chosen]
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


def _numerically_cauchy(space: ConeMetricSpace, xs: np.ndarray) -> bool:
    """Whether the last CAUCHY_WINDOW points (array form) lie within
    CAUCHY_TOL of each other."""
    tail = xs[-CAUCHY_WINDOW:]
    i, j = np.triu_indices(len(tail), 1)
    return not np.any(space.cone.norm_rows(space.pairwise(tail[i], tail[j])) > CAUCHY_TOL)


def _t_images(space: ConeMetricSpace, T: Callable, points: list) -> np.ndarray:
    """The T-images of ``points``, checked against the carrier, in array form."""
    return space.carrier.to_array([space.require_point(T(p), "T-image") for p in points])


def diagnose_T(space: ConeMetricSpace, maps: MapPair, probes: TProbes | None = None) -> TDiagnostics:
    """Probe T for injectivity counterexamples and for sequential-convergence
    evidence: for each probe sequence (y_n), test whether (T y_n) is
    numerically Cauchy and whether (y_n) is; a convergent image with a
    non-convergent argument is inconsistent with sequential convergence,
    and a non-convergent image leaves the hypothesis unmet.  Injectivity
    is checked on every pair i < j of probe points, in that order, by one
    ``pairwise`` call.
    """
    probes = probes or default_probes(space)

    pts = list(probes.injectivity_points)
    xs = space.array_form(pts, "probe point")
    images = _t_images(space, maps.T, pts)
    i, j = np.triu_indices(len(pts), 1)
    same = xs[i] == xs[j]
    if same.ndim > 1:
        same = same.all(axis=-1)
    close = space.cone.norm_rows(space.pairwise(images[i], images[j])) <= INJECTIVITY_TOL
    hits = np.flatnonzero(close & ~same)
    violations = [(pts[a], pts[b]) for a, b in zip(i[hits].tolist(), j[hits].tolist())]

    findings = []
    for name, seq in probes.sequences:
        seq = list(seq)
        ys = space.array_form(seq, "probe point")
        t_conv = _numerically_cauchy(space, _t_images(space, maps.T, seq))
        y_conv = _numerically_cauchy(space, ys)
        if not t_conv:
            cls = "not-applicable"
        elif y_conv:
            cls = "consistent"
        else:
            cls = "inconsistent"
        findings.append(SequenceFinding(name, t_conv, y_conv, cls))

    return TDiagnostics(not violations, violations, findings)
