"""Monitored Picard iteration and fixed-point certification.

The iteration x_{n+1} = S(x_n) is monitored through the T-image gap
sequence d_n = d(T x_n, T x_{n+1}); convergence, geometric decay, and
the Cauchy tail bound are all measured on these vectors, so the stopping
rule is well defined on any carrier.

Every check is an array pass over the carrier's array form of its points
(see ``cone_space``).  One engine, ``_picard_runs``, runs every start
together, step-major: each step keeps the active rows' arrays and decides
the stops with array tests, and a trace is its row of the kept steps.
``picard_iterate`` is its one-row case; ``uniqueness_probe`` is one engine
call and the merge ``_uniqueness_verdict``, which ``solve`` shares.  The
merge tests every limit against the first with one
``ConeMetricSpace.pairwise`` call, and pairs all limits in a second one
only when some limit lies apart; the certification of its
representatives, the Cauchy tail and the injectivity probe each take
their distances from one ``pairwise`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .cone_space import BoxCarrier, ConeMetricSpace, ConfigError, DomainError, all_last
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


@dataclass(eq=False)
class IterationTrace:
    """One Picard run, as a row of the batch that ran it (``_picard_runs``).

    The run visited ``start`` and then, in the carrier's array form,
    ``points`` (T-images ``images``); ``gaps[n]`` is the gap vector of the
    n-th visited point and ``norms[n]`` its cone norm.  The lists below are
    built from these arrays once, when first read: a probe reads only the
    stop reasons and the last points of its runs."""

    space: ConeMetricSpace
    maps: MapPair
    rule: StoppingRule
    stop_reason: str
    start: object
    t_start: object
    points: np.ndarray
    images: np.ndarray
    gaps: np.ndarray
    norms: np.ndarray

    @cached_property
    def x_sequence(self) -> list:
        """The visited points; the start object itself at every entry when
        S is the identity (S returns the very point it is given)."""
        if isinstance(self.maps.S, IdentityMap):
            return [self.start] * (len(self.points) + 1)
        return [self.start, *self.space.carrier.from_array(self.points)]

    @cached_property
    def t_images(self) -> list:
        return [self.t_start, *self.space.carrier.from_array(self.images)]

    @cached_property
    def t_image_gaps(self) -> list[np.ndarray]:
        return list(self.gaps)

    @cached_property
    def gap_norms(self) -> list[float]:
        return self.norms.tolist()

    @property
    def n_final(self) -> int:
        return len(self.points)

    @property
    def last(self):
        """``x_sequence[-1]``, read without building the list."""
        if not len(self.points) or isinstance(self.maps.S, IdentityMap):
            return self.start
        return self.space.carrier.from_array(self.points[-1:])[0]

    def step_ratios(self) -> list[float]:
        """Consecutive gap-norm ratios where the denominator is nonzero."""
        g = self.gap_norms
        return [g[i + 1] / g[i] for i in range(len(g) - 1) if g[i] > 0.0]

    def max_step_ratio(self) -> float | None:
        r = self.step_ratios()
        return float(np.max(r)) if r else None      # NaN wherever a NaN ratio (inf / inf) sits


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
    the first failing row and the error a run from it alone raises.  An
    image outside the carrier names the step; a map undefined at a point
    raises its own error."""
    carrier = space.carrier

    def inside(image, what):
        try:
            return space.require_point(image, what)
        except DomainError as exc:
            raise DomainError(f"iterate {step} escaped the carrier: {exc}") from exc

    for row, (x, tx) in enumerate(zip(carrier.from_array(xs), carrier.from_array(ts))):
        try:
            y = inside(maps.S(x), "S-image")
            ty = inside(maps.T(y), "T-image")
            space.gap_norm(tx, ty)
        except Exception as exc:
            return row, exc
    return None


# The engine merges its kept steps into one array per field every STEP_CHUNK
# steps, so a kept step costs its data, not three small arrays (about 0.3 KB).
STEP_CHUNK = 512


def _picard_runs(space: ConeMetricSpace, maps: MapPair, starts: list,
                 rule: StoppingRule) -> list[IterationTrace]:
    """Picard runs from all starts at once, as ``picard_iterate`` runs each.
    The active rows step together through the array forms of S, T and the
    metric; a row leaves the array when it stops.  When any run fails, the
    error raised is the one running the starts one after another would
    raise first: that of the lowest-index failing start, at its own step.

    Each step is kept as arrays (S-images, T-images, gaps; the active rows
    only when they change) and the stops are array tests, so no statement
    runs per row in the loop; after it, each trace takes its row of the
    kept steps."""
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
    rowkeys = ids * 1j                          # each row's part of its visits' keys
    xs, ts = carrier.to_array(starts[:k]), carrier.to_array(t0)
    seen = set(_visits(rowkeys, xs))            # (row, point) for every point a run visited
    reasons = np.full(k, None, dtype=object)
    changes = [(0, ids)]                        # (first step, the rows active from it)
    steps, recent = [], []                      # (S-images, T-images, gaps)
    pairwise, norm_rows, mask, count = space.pairwise, space.cone.norm_rows, carrier.mask, np.count_nonzero
    eps, max_iter, step = rule.epsilon, rule.max_iter, 0
    with np.errstate(all="ignore"):
        while ids.size:
            try:
                ys = S(xs)
                tys = T(ys)
                inside = mask(ys) if tys is ys else mask(ys) & mask(tys)
                if count(inside) < len(inside):
                    raise DomainError("an image lies outside the carrier")
                gaps = pairwise(ts, tys)
                norms = norm_rows(gaps)
            except Exception as exc:
                found = _first_failure(space, maps, xs, ts, step)
                if found is None:
                    raise exc
                row, error = found
                failure = (int(ids[row]), error)
                ids, rowkeys, xs, ts = ids[:row], rowkeys[:row], xs[:row], ts[:row]
                changes.append((step, ids))
                continue
            recent.append((ys, tys, gaps))
            if len(recent) == STEP_CHUNK:
                steps.append(tuple(map(np.concatenate, zip(*recent))))
                recent = []
            done = norms <= eps          # a NaN norm is not converged
            if count(done):
                reasons[ids[done]] = CONVERGED
                going = ~done
                ids, rowkeys, ys, tys = ids[going], rowkeys[going], ys[going], tys[going]
                changes.append((step + 1, ids))
            if step >= max_iter:         # a run stopped by max_iter keeps no new point
                reasons[ids] = MAX_ITER
                break
            visits = _visits(rowkeys, ys)
            if not seen.isdisjoint(visits):     # S is deterministic: a repeat is a cycle
                cycled = np.array([visit in seen for visit in visits])
                reasons[ids[cycled]] = CYCLE_DETECTED
                going = ~cycled
                ids, rowkeys, ys, tys = ids[going], rowkeys[going], ys[going], tys[going]
                changes.append((step + 1, ids))
            seen.update(visits)
            xs, ts = ys, tys
            step += 1
    if failure is not None:
        raise failure[1]
    steps += recent
    # the rows of each kept step, from the steps on which the rows changed
    firsts = [first for first, _ in changes[1:]] + [step + 1]
    rows = [np.tile(active, end - first) for (first, active), end in zip(changes, firsts)]
    return _traces(space, maps, starts, t0, reasons.tolist(), rows, steps, rule)


def _traces(space: ConeMetricSpace, maps: MapPair, starts: list, t0: list, reasons: list,
            rows: list, steps: list, rule: StoppingRule) -> list[IterationTrace]:
    """Each start's trace: its entries of the kept steps (whose rows are
    ``rows``), grouped by row in step order.  A run stopped by max_iter
    keeps the gap of its last step but not the point."""
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    ends = np.cumsum(np.bincount(rows, minlength=len(starts))).tolist()
    ys, tys, gaps = (np.concatenate([s[i] for s in steps])[order] for i in range(3))
    norms = space.cone.norm_rows(gaps)          # row by row: each step's norms, bit for bit
    traces, begin = [], 0
    for x0, tx0, reason, end in zip(starts, t0, reasons, ends):
        kept = end - (reason == MAX_ITER)
        traces.append(IterationTrace(space, maps, rule, reason, x0, tx0, ys[begin:kept], tys[begin:kept],
                                     gaps[begin:end], norms[begin:end]))
        begin = end
    return traces


def _visits(rowkeys: np.ndarray, xs: np.ndarray) -> list:
    """Hashable keys of the pairs (row, point), points in array form and
    rows in ``rowkeys``, a complex array whose imaginary parts are the
    rows; its real parts are overwritten.  A number x (an index on a finite
    carrier) keys as the complex number x + row * 1j, exact in both parts
    and cheaper to make and hash than a tuple; a box point as the tuple of
    its coordinates with the row added to the first."""
    if xs.ndim == 1:
        rowkeys.real = xs
        return rowkeys.tolist()
    rowkeys.real = xs[:, 0]
    return list(zip(rowkeys.tolist(), *xs[:, 1:].T.tolist()))


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
    norms = trace.norms
    if not len(norms):
        raise ConfigError("trace has no monitored gaps")

    # A NaN norm or bound is a violation: each test is "not actual <= bound".
    d0 = float(norms[0])
    headroom = 1.0 + DECAY_HEADROOM
    powers = np.array([h ** n for n in range(len(trace.images) + 1)])   # Python pow, as the bounds state

    with np.errstate(invalid="ignore", over="ignore"):     # 0 * inf is NaN, as in Python floats
        bounds = K * powers[:len(norms)] * d0 * headroom
    bad = np.flatnonzero(~(norms <= bounds))
    step_violations = list(zip(bad.tolist(), norms[bad].tolist(), bounds[bad].tolist()))

    space = trace.space
    ts = np.concatenate([space.carrier.to_array([trace.t_start]), trace.images])
    mm, nn = _cauchy_pairs(len(ts), CAUCHY_SAMPLES, seed)
    actual = space.cone.norm_rows(space.pairwise(ts[mm], ts[nn]))
    with np.errstate(invalid="ignore"):
        bound = K * d0 / (1.0 - h) * headroom * powers[nn]
    bad = np.flatnonzero(~(actual <= bound))
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
    return _uniqueness_verdict(space, maps, _picard_runs(space, maps, list(starts), rule), rule)


def _uniqueness_verdict(space: ConeMetricSpace, maps: MapPair, traces: list[IterationTrace],
                        rule: StoppingRule) -> UniquenessVerdict:
    """The verdict ``uniqueness_probe`` gives on the runs ``traces``, merged
    in their order (``solve`` passes the runs of its carrier starts and of
    x0, in ``_default_starts`` order)."""
    if any(t.stop_reason != CONVERGED for t in traces):
        return UniquenessVerdict(UNKNOWN, None, [], traces)

    # A converged run ends on a point it kept, so its limit is its last row.
    tol = COINCIDE_FACTOR * rule.epsilon
    zs = np.stack([t.points[-1] for t in traces])
    first = zs[np.zeros(len(zs) - 1, dtype=np.intp)]
    if not np.any(space.cone.norm_rows(space.pairwise(zs[1:], first)) > tol):
        return UniquenessVerdict(UNIQUE, traces[0].last, [], traces)   # every limit joins limit 0

    # apart[a, b], b < a: limit a lies farther than tol from the earlier
    # limit b (one pairwise call over the k(k-1)/2 pairs of k starts)
    k = len(zs)
    a, b = np.tril_indices(k, -1)
    apart = np.zeros((k, k), dtype=bool)
    apart[a, b] = space.cone.norm_rows(space.pairwise(zs[a], zs[b])) > tol
    chosen: list[int] = []
    for z in range(k):
        if apart[z, chosen].all():
            chosen.append(z)
    reps = [traces[z].last for z in chosen]

    certified = _certified(space, maps, reps, zs[chosen], rule.epsilon)
    if len(certified) >= 2:
        return UniquenessVerdict(NON_UNIQUE, None, certified, traces)
    return UniquenessVerdict(UNKNOWN, None, certified, traces)


def _certified(space: ConeMetricSpace, maps: MapPair, points: list, zs: np.ndarray,
               epsilon: float) -> list:
    """The carrier points (array form ``zs``) that ``certify_fixed_point``
    certifies, from one S pass and one ``pairwise`` call.  When S fails or
    an S-image leaves the carrier, each point is certified in turn, which
    raises the error of the first failing point."""
    try:
        with np.errstate(all="ignore"):
            szs = _array_map(space, maps.S)(zs)
            if not space.carrier.mask(szs).all():
                raise DomainError("an S-image lies outside the carrier")
            fixed = space.cone.norm_rows(space.pairwise(szs, zs)) <= epsilon
    except Exception:
        return [z for z in points if certify_fixed_point(space, maps, z, epsilon).certified]
    return [points[i] for i in np.flatnonzero(fixed).tolist()]


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
        same = all_last(same)
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
