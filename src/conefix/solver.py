"""Monitored Picard iteration and fixed-point certification.

The iteration x_{n+1} = S(x_n) is monitored through the T-image gap
sequence d_n = d(T x_n, T x_{n+1}); convergence, geometric decay, and
the Cauchy tail bound are all measured on these vectors, so the stopping
rule is well defined on any carrier.

Every check is an array pass over the carrier's array form of its points
(see ``cone_space``).  One engine, ``_picard_runs``, checks every start
in one array pass (or, where that pass does not apply, start by start),
runs them together, step-major, through one loop body that advances
a block of steps and decides the stops with array tests; a single step
is a block of one (a wide batch, and the replay of a block that fails,
step one at a time).  A trace is its row of the kept records.
``picard_iterate`` is its one-row case; ``uniqueness_probe`` is one engine
call and the merge ``_uniqueness_verdict``, which ``solve`` shares.  The
merge tests every limit against the first with one
``ConeMetricSpace.pairwise`` call, and pairs all limits in a second one
only when some limit lies apart (merged over rows of bits held as Python
ints); the certification of its representatives and the Cauchy tail
each take their distances from one ``pairwise`` call.  ``diagnose_T``
decides T's hypotheses by family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .cone_space import (BoxCarrier, ConeMetricSpace, ConfigError, DirectionMetric, DomainError, LazyRows, as_tuple,
                         label_position, point_key)
from .contractions import AffineMap, IdentityMap, MapPair, PowerMap, _array_map, image_indices

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

    def _ratios(self) -> np.ndarray:
        g = self.norms
        with np.errstate(over="ignore", invalid="ignore"):     # inf and NaN, as Python floats give them
            return g[1:][g[:-1] > 0.0] / g[:-1][g[:-1] > 0.0]

    def step_ratios(self) -> list[float]:
        """Consecutive gap-norm ratios where the denominator is nonzero."""
        return self._ratios().tolist()

    def max_step_ratio(self) -> float | None:
        r = self._ratios()
        return float(np.max(r)) if r.size else None     # NaN wherever a NaN ratio (inf / inf) sits


def picard_iterate(space: ConeMetricSpace, maps: MapPair, x0,
                   rule: StoppingRule | None = None) -> IterationTrace:
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
            space.cone.norm(space.d(tx, ty))
        except Exception as exc:
            return row, exc
    return None


# The engine merges its kept records (one per single step or block) into one array per field
# every STEP_CHUNK records, so a kept record costs its data, not five small arrays (about 0.5 KB).
STEP_CHUNK = 512

# Block stepping (``_picard_runs``): a batch of at most BLOCK_ROWS rows steps in blocks from step 0,
# of BLOCK_MIN steps first, doubling up to BLOCK_CELLS (step, row) cells; a wider batch steps one by one.
BLOCK_MIN, BLOCK_ROWS, BLOCK_CELLS = 8, 16, 256


def _start_arrays(space: ConeMetricSpace, maps: MapPair, T, starts: list) -> tuple | None:
    """The starts and their T-images in the carrier's array form, and the
    T-images as the carrier's objects (each start itself when T is the
    identity), from one array pass through T's array form ``T``, when that
    pass is sure to find what ``require_point`` and ``maps.T`` find start
    by start: no failure.  None where it is not: on a box, for a start
    of a type ``contains`` may refuse (on an interval, anything but an int
    or a float), and where a start or a T-image lies outside the carrier
    or the array form raises."""
    carrier, identity = space.carrier, isinstance(maps.T, IdentityMap)
    if isinstance(carrier, BoxCarrier):
        return None
    if not carrier.finite and not set(map(type, starts)) <= {int, float}:
        return None
    try:
        with np.errstate(all="ignore"):
            xs = carrier.to_array(starts)
            if not carrier.mask(xs).all():
                return None
            if identity:
                return xs, xs, starts
            ts = T(xs)
            if not carrier.mask(ts).all():
                return None
    except Exception:           # the scalar loop raises the first failing start's own error
        return None
    return xs, ts, carrier.from_array(ts)


def _picard_runs(space: ConeMetricSpace, maps: MapPair, starts: list,
                 rule: StoppingRule) -> list[IterationTrace]:
    """Picard runs from all starts at once, as ``picard_iterate`` runs each.
    The active rows step together through the array forms of S, T and the
    metric; a row leaves the array when it stops.  When any run fails, the
    error raised is the one running the starts one after another would
    raise first: that of the lowest-index failing start, at its own step.

    The starts are checked in one array pass (``_start_arrays``), whose
    arrays feed step 0; where that pass does not apply, each start and its
    T-image are checked in turn, which names the first failing start.
    Each pass of the loop advances the k active rows n steps: they apply S
    and T n times, and the carrier mask, one ``pairwise`` and one
    ``norm_rows`` call and the stop tests then run once over the n x k
    cells.  n is 1 (a single step is a block of one) when the batch has
    more than BLOCK_ROWS rows or the step lies in a failed block's replay;
    else it is the block size, BLOCK_MIN steps at step 0, doubling up to
    BLOCK_CELLS cells, and never past max_iter.  A row stops at its first
    converged step, the max_iter step or its first repeat, in that order at
    a tie, and keeps its cells up to its stop, step-major, in one record of
    arrays (rows, S-images, T-images, gaps and gap norms), so no statement
    runs per row; each trace takes its row of the records.  A block of
    n > 1 steps that raises, or has an image outside the carrier (a finite
    carrier's -1 wraps around), keeps nothing and is replayed one step at a
    time; a failing single step names its lowest failing row
    (``_first_failure``) at its own step."""
    carrier = space.carrier
    S, T = _array_map(space, maps.S), _array_map(space, maps.T)
    failure, checked = None, _start_arrays(space, maps, T, starts)
    if checked is None:
        t0 = []
        for row, x0 in enumerate(starts):
            try:
                space.require_point(x0, "start point")
                t0.append(space.require_point(maps.T(x0), "T-image"))
            except Exception as exc:
                failure = (row, exc)
                break
        xs, ts = carrier.to_array(starts[:len(t0)]), carrier.to_array(t0)
    else:
        xs, ts, t0 = checked
    ids = np.arange(len(t0))
    rowkeys = ids * 1j                          # each row's part of its visits' keys
    seen = set(_visits(rowkeys, xs))            # (row, point) for every point a run visited
    reasons = np.full(len(t0), None, dtype=object)
    steps, recent = [], []                      # (rows, S-images, T-images, gaps, gap norms)
    pairwise, norm_rows, mask, count = space.pairwise, space.cone.norm_rows, carrier.mask, np.count_nonzero
    eps, max_iter, step = rule.epsilon, rule.max_iter, 0
    grown, single = BLOCK_MIN // 2, 0           # the last block's size; steps before `single` go one by one
    with np.errstate(all="ignore"):
        while ids.size:
            k = len(ids)
            if k > BLOCK_ROWS or step < single:     # one step: a wide batch, or a failed block's replay
                n = 1
            else:
                n = grown = min(2 * grown, BLOCK_CELLS // k, max_iter + 1 - step)
            try:                        # the n x k cells, step-major
                ylist = [S(xs)]
                tlist = [T(ylist[0])]
                for _ in range(n - 1):
                    ylist.append(S(ylist[-1]))
                    tlist.append(T(ylist[-1]))
                if n == 1:
                    ys, tys, before = ylist[0], tlist[0], ts
                else:
                    ys = np.concatenate(ylist)
                    tys = ys if tlist[0] is ylist[0] else np.concatenate(tlist)
                    before = np.concatenate([ts, tys[:-k]])
                inside = mask(ys) if tys is ys else mask(ys) & mask(tys)
                if count(inside) < len(inside):
                    raise DomainError("an image lies outside the carrier")
                gaps = pairwise(before, tys)
                norms = norm_rows(gaps)
            except Exception as exc:
                if n > 1:               # replay the block one step at a time
                    single = step + n
                    continue
                found = _first_failure(space, maps, xs, ts, step)
                if found is None:
                    raise exc
                row, error = found
                failure = (int(ids[row]), error)
                ids, rowkeys, xs, ts = ids[:row], rowkeys[:row], xs[:row], ts[:row]
                continue
            rows, keys = ids, rowkeys   # each cell's row, and the row's part of the cell's visit key
            if n > 1:
                rows, keys = ids[None].repeat(n, 0).ravel(), rowkeys[None].repeat(n, 0).ravel()
            done = norms <= eps         # a NaN norm is not converged
            converged = count(done)
            live = ~done if converged else slice(None)      # a converged cell's visit decides nothing
            visits = _visits(keys[live], ys[live]) if converged else _visits(keys, ys)     # no copy when none did
            # S is deterministic: a repeat of an earlier visit, before or in the block, is a cycle
            repeats = None if seen.isdisjoint(visits) else np.fromiter(map(seen.__contains__, visits), bool)
            seen.update(visits)
            if n > 1 and len(set(visits)) < len(visits):
                first = dict(zip(visits[::-1], range(len(visits) - 1, -1, -1)))
                again = np.fromiter(map(first.__getitem__, visits), np.intp) != np.arange(len(visits))
                repeats = again if repeats is None else again | repeats
            last = step + n > max_iter      # the pass ends on the max_iter step, which keeps no new point
            xs, ts = ylist[-1], tlist[-1]
            if repeats is not None or last or converged:
                stop = done.copy() if repeats is not None or last else done
                if repeats is not None:
                    stop[live] |= repeats
                if last:
                    stop[-k:] = True
                going, reached = ~stop, ids     # the rows that go on, and those that reach the last step
                if n > 1:               # a row's cells after its first stop are dropped
                    ended = np.logical_or.accumulate(stop.reshape(n, k))
                    keep = np.concatenate([np.ones(k, dtype=bool), ~ended[:-1].ravel()])
                    rows, ys, tys, gaps, norms, stop, done = (a[keep] for a in (rows, ys, tys, gaps, norms, stop, done))
                    going, reached = ~ended[-1], ids[keep[-k:]]
                if repeats is not None:
                    reasons[rows[stop]] = CYCLE_DETECTED
                if last:                # there max_iter wins over a cycle, converged over both
                    reasons[reached] = MAX_ITER
                if converged:
                    reasons[rows[done]] = CONVERGED
                ids, rowkeys, xs, ts = ids[going], rowkeys[going], xs[going], ts[going]
            recent.append((rows, ys, tys, gaps, norms))
            step += n
            if len(recent) == STEP_CHUNK:
                steps.append(tuple(map(np.concatenate, zip(*recent))))
                recent = []
    if failure is not None:
        raise failure[1]
    return _traces(space, maps, starts, t0, reasons.tolist(), steps + recent)


def _traces(space: ConeMetricSpace, maps: MapPair, starts: list, t0: list, reasons: list,
            steps: list) -> list[IterationTrace]:
    """Each start's trace: its entries of the kept steps, grouped by row in
    step order.  A run stopped by max_iter keeps the gap of its last step
    but not the point."""
    rows, ys, tys, gaps, norms = (np.concatenate([s[i] for s in steps]) for i in range(5))
    order = np.argsort(rows, kind="stable")
    ends = np.cumsum(np.bincount(rows, minlength=len(starts))).tolist()
    ys, tys, gaps, norms = (a.take(order, axis=0) for a in (ys, tys, gaps, norms))    # a[order], at a third of the cost
    traces, begin = [], 0
    for x0, tx0, reason, end in zip(starts, t0, reasons, ends):
        kept = end - (reason == MAX_ITER)
        traces.append(IterationTrace(space, maps, reason, x0, tx0, ys[begin:kept], tys[begin:kept],
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
    per_step_violations: Sequence[tuple[int, float, float]]
    cauchy_ok: bool
    cauchy_violations: Sequence[tuple[int, int, float, float]]
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
    norms = trace.norms         # every trace has a gap: the engine keeps step 0's before any stop
    # A NaN norm or bound is a violation: each test is "not actual <= bound".
    d0 = float(norms[0])
    headroom = 1.0 + DECAY_HEADROOM
    powers = np.array([h ** n for n in range(len(trace.images) + 1)])   # Python pow, as the bounds state

    with np.errstate(invalid="ignore", over="ignore"):     # 0 * inf is NaN, as in Python floats
        bounds = K * powers[:len(norms)] * d0 * headroom
    bad = np.flatnonzero(~(norms <= bounds))
    step_violations = LazyRows(np.ndarray.tolist, [(as_tuple, (bad, norms[bad], bounds[bad]), ())])

    space = trace.space
    ts = np.concatenate([space.carrier.to_array([trace.t_start]), trace.images])
    mm, nn = _cauchy_pairs(len(ts), CAUCHY_SAMPLES, seed)
    with np.errstate(over="ignore", invalid="ignore"):     # overflowing T-images give inf and NaN gaps
        actual = space.cone.norm_rows(space.pairwise(ts[mm], ts[nn]))
    with np.errstate(invalid="ignore"):
        bound = K * d0 / (1.0 - h) * headroom * powers[nn]
    bad = np.flatnonzero(~(actual <= bound))
    cauchy_violations = LazyRows(np.ndarray.tolist, [(as_tuple, (mm[bad], nn[bad], actual[bad], bound[bad]), ())])

    return DecayReport(h, K, not step_violations, step_violations, not cauchy_violations, cauchy_violations, len(mm))


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


def uniqueness_probe(space: ConeMetricSpace, maps: MapPair, starts: Sequence,
                     rule: StoppingRule | None = None) -> UniquenessVerdict:
    """Run Picard iteration from every start (all runs as one array).
    ``unique`` when all converged limits coincide within COINCIDE_FACTOR *
    epsilon; ``non_unique`` when at least two certified, distinct fixed
    points emerge; ``unknown`` when any run fails to converge.  Limits merge
    in start order: each joins the first earlier representative it
    coincides with, or becomes a representative.
    """
    if len(starts) == 0:
        raise ConfigError("uniqueness probe needs at least one start point")
    rule = rule or StoppingRule()
    return _uniqueness_verdict(space, maps, _picard_runs(space, maps, list(starts), rule), rule)


def _uniqueness_verdict(space: ConeMetricSpace, maps: MapPair, traces: list[IterationTrace],
                        rule: StoppingRule) -> UniquenessVerdict:
    """The verdict ``uniqueness_probe`` gives on the runs ``traces``, merged
    in their order (``solve`` passes the runs of ``solve_starts``)."""
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
    apart[a, b] = space.cone.norm_rows(space.pairwise(zs.take(a, axis=0), zs.take(b, axis=0))) > tol
    chosen = _representatives(apart)
    reps = [traces[z].last for z in chosen]
    certified = _certified(space, maps, reps, zs.take(chosen, axis=0), rule.epsilon)
    if len(certified) >= 2:
        return UniquenessVerdict(NON_UNIQUE, None, certified, traces)
    return UniquenessVerdict(UNKNOWN, None, certified, traces)


def _representatives(apart: np.ndarray) -> list[int]:
    """The greedy merge of k limits in order: limit z becomes a
    representative when ``apart[z, r]`` holds for every earlier
    representative r (else it joins the first one it does not lie apart
    from).  Row z is packed into one Python int, bit r set where
    ``apart[z, r]``, so each limit is tested against all representatives
    with one ``&``."""
    k = len(apart)
    width = (k + 7) // 8
    packed = np.packbits(apart, axis=1, bitorder="little").tobytes()
    chosen, mask = [], 0
    for z in range(k):
        if int.from_bytes(packed[z * width:(z + 1) * width], "little") & mask == mask:
            chosen.append(z)
            mask |= 1 << z
    return chosen


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


def solve_starts(carrier, x0=None) -> list:
    """The starts ``solve`` probes: the carrier's first, middle and last
    points and x0 (unless None), each unless an earlier one has its ``point_key``.
    The middle of an interval or a box is 0.5 (lo + hi), or 0.5 lo + 0.5 hi
    where lo + hi overflows (both halves are exact there), so it is finite."""
    if carrier.finite:
        pts = list(carrier.points)
        starts = [pts[0], pts[len(pts) // 2], pts[-1]]
    else:
        lo, hi = (carrier.lows, carrier.highs) if isinstance(carrier, BoxCarrier) else (carrier.lo, carrier.hi)
        with np.errstate(over="ignore"):
            mid = np.where(np.isinf(0.5 * (lo + hi)), 0.5 * lo + 0.5 * hi, 0.5 * (lo + hi))
        starts = [lo, mid if mid.ndim else float(mid), hi]
    keyed = {}
    for s in starts if x0 is None else [*starts, x0]:
        keyed.setdefault(point_key(s), s)
    return list(keyed.values())


def solve(space: ConeMetricSpace, maps: MapPair, x0, rule: StoppingRule, *, h: float | None = None,
          K: float = 1.0, seed: int = 0) -> tuple:
    """What ``conefix solve`` reports, computed in this order: x0's
    ``IterationTrace``, the ``FixedPointCheck`` of its last point, its
    ``DecayReport`` at rate h (else the largest step ratio if below 1,
    else 0) and the ``UniquenessVerdict`` on ``solve_starts(space.carrier,
    x0)``, whose engine call runs the carrier's starts and reuses x0's run.
    On a finite carrier an x0 equal to a label is that label."""
    if space.carrier.finite and (i := label_position(space.carrier.index, x0)) >= 0:
        x0 = space.carrier.points[i]
    trace = picard_iterate(space, maps, x0, rule)
    check = certify_fixed_point(space, maps, trace.last, rule.epsilon)
    if h is None:
        measured = trace.max_step_ratio()
        h = measured if (measured is not None and measured < 1.0) else 0.0
    decay = geometric_decay_check(trace, h, K, seed=seed)
    starts = solve_starts(space.carrier)
    runs = _picard_runs(space, maps, starts, rule)
    if point_key(x0) not in map(point_key, starts):
        runs.append(trace)
    return trace, check, decay, _uniqueness_verdict(space, maps, runs, rule)


# ---------------------------------------------------------------------------
# T's hypotheses
# ---------------------------------------------------------------------------

@dataclass
class TDiagnostics:
    """T's hypotheses in the theorems, each True, False or None (unknown),
    the rule that decided each, and pairs x != y with T x = T y (all of them
    on a finite carrier, one witness elsewhere).  The verdict is about the
    real map: float T can still round two images together (x ** 3 is 0.0
    below about 1e-108)."""

    continuous: bool | None
    injective: bool | None
    subsequentially_convergent: bool | None
    sequentially_convergent: bool | None
    rules: dict[str, str]
    injectivity_violations: Sequence[tuple]


def _injectivity(T, lo, hi) -> tuple[bool, str, list]:
    """Whether T, an identity, affine or power map of [lo, hi] into itself
    (rows on a box, where a power map is undefined), is injective, by which
    rule, and a colliding pair where it is not."""
    if isinstance(T, IdentityMap):
        return True, "identity map: injective", []
    if isinstance(T, AffineMap):
        constant, rule = T.alpha == 0, "affine map: injective exactly when alpha != 0"
    elif T.exponent == 0:
        constant, rule = True, "power map, exponent 0: constant"
    elif float(T.exponent).is_integer() and T.exponent % 2 == 0:
        m = min(-lo, hi)        # x and -x collide for 0 < x <= m
        return not m > 0, "power map, even exponent: injective unless lo < 0 < hi", [(-m, m)] if m > 0 else []
    else:
        return True, "power map, odd or fractional exponent: injective", []
    return not constant, rule, [(lo, hi)] if constant else []


def diagnose_T(space: ConeMetricSpace, maps: MapPair) -> TDiagnostics:
    """Decide T's continuity, injectivity and subsequential and sequential
    convergence (Beiranvand et al.) by the carrier's kind and T's family.
    A finite carrier is discrete, so T is continuous and subsequentially
    convergent, and injective and sequentially convergent exactly when its
    n image indices (one array pass) differ.  An interval or a box with a
    direction metric is compact, so T is subsequentially convergent, and a
    continuous T is sequentially convergent exactly when injective.  The
    identity, affine and power maps are continuous and monotone on each
    side of 0, coordinate by coordinate, so T's images of the bounds and of
    0 (clipped into the carrier) decide whether T maps the carrier into
    itself, and raise the first failure's ``DomainError`` where it does
    not.  Any other T there is not evaluated; what it, or a function
    metric's topology, leaves open is None."""
    carrier, T = space.carrier, maps.T
    if carrier.finite:
        images = image_indices(space, T, "T-image")
        violations = LazyRows(carrier.from_array, [(as_tuple, np.nonzero(np.triu(images[:, None] == images, 1)), ())])
        discrete = "finite carrier: discrete topology"
        rules = {"continuous": discrete, "injective": "finite carrier: injective iff image indices differ",
                 "subsequentially_convergent": discrete, "sequentially_convergent": "finite carrier: iff injective"}
        return TDiagnostics(True, not violations, True, not violations, rules, violations)

    box = isinstance(carrier, BoxCarrier)
    lo, hi = (carrier.lows, carrier.highs) if box else (float(carrier.lo), float(carrier.hi))
    topology = isinstance(space.metric, DirectionMetric)
    family = isinstance(T, (IdentityMap, AffineMap, PowerMap))
    if family:
        for p in (lo, hi, np.clip(0.0, lo, hi) if box else min(max(0.0, lo), hi)):
            space.require_point(T(p), "T-image")
        injective, rule, violations = _injectivity(T, lo, hi)
    else:
        injective, rule, violations = None, "unknown: T is not an identity, affine or power map", []
    continuous = True if family and topology else None
    unknown = rule if topology else "unknown: a function metric's topology"
    rules = {"continuous": "identity, affine and power maps: continuous where defined" if continuous else unknown,
             "injective": rule, "subsequentially_convergent": "compact carrier" if topology else unknown,
             "sequentially_convergent": "compact carrier, continuous T: iff injective" if continuous else unknown}
    return TDiagnostics(continuous, injective, topology or None, injective if continuous else None, rules, violations)
