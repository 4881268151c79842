#!/usr/bin/env python3
"""conefix benchmark: one closed-loop workload per run, in one process and one thread.

Run from the root of a conefix checkout:

    python3 perfbench/run.py --workload sampled_check --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones.
The lines before it print every figure by name and unit, the per-command
latencies, the error rate with its base and the failed ops by rule.

The run starts fresh interpreters: ``SETUP_REPEATS`` of them only set up
(import ``conefix.cli``, write the seeded instance files, one warm-up op of
each kind) and their median time is ``setup_s``; one more sets up the same
way and then repeats the workload's fixed op list for ``--seconds``.  All
times are rescaled to a reference pace (see REFERENCE_PACE_S); see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer, layer_unit  # noqa: E402

SETUP_REPEATS = 5
CHILD_SLACK_S = 120          # a child may take --seconds plus this, then it is killed
# RLIMIT_AS for the process that runs the ops: a runaway op (the Cauchy-pair
# list of geometric_decay_check grows with the square of the step count)
# raises MemoryError and counts as failed instead of exhausting the machine.
ADDRESS_SPACE_CAP = 2 << 30
TAIL_BEYOND = 10
# The tail is the mean of the ops ranked within TAIL_BAND of the tail rank:
# one op's median time moves a few percent from run to run, the mean of five
# neighbours much less.
TAIL_BAND = 2
# op_p50_ms is the mean of the ops ranked within P50_BAND of the median.  The
# ops around the median differ from seed to seed (other start points, other
# affine maps), and a mean of nine moves less than the single middle op.
P50_BAND = 4
# Op times are rescaled to the pace of a fixed reference kernel (see _pace)
# measured around each op: op_time * REFERENCE_PACE_S / kernel_time.  The
# shared machine the benchmark was tuned on drifts between speeds about 1.45x
# apart for seconds to minutes at a time; scaled times cancel that drift.
# REFERENCE_PACE_S is the kernel's time on that machine at its fast speed.
REFERENCE_PACE_S = 3.0e-4

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB"}
PER_COMMAND = {"sampled_check": ("verify", "fit"), "exhaustive_oracle": ("oracle",),
               "picard_solve": ("solve", "probe", "diagnose")}
TAILED = ("verify", "oracle", "solve")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny op lists (for the tests)")
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _setup(args):
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    import conefix
    import conefix.cli  # noqa: F401

    src = (Path.cwd() / "src").resolve()
    if Path(conefix.__file__).resolve().parents[1] != src:
        raise SystemExit(f"conefix imported from {conefix.__file__}, not from {src}")
    wl = workloads.BUILDERS[args.workload](Path.cwd(), args.seed, args.smoke)
    runner = workloads.Runner(wl, Path(args.workdir))
    for op in wl.warmup:
        runner.run(op, -1)
    return wl, runner


def _tail(values):
    """(value, percentile, count): the tail rank is the highest with
    TAIL_BEYOND values above it, or the maximum when that rank would not lie
    above the median; the value is the mean of the values ranked within
    TAIL_BAND of it."""
    xs = sorted(values)
    k = len(xs) - 1 - TAIL_BEYOND
    if k < len(xs) // 2:
        k = len(xs) - 1
    band = xs[max(0, k - TAIL_BAND):k + TAIL_BAND + 1]
    return statistics.fmean(band), 100.0 * (k + 1) / len(xs), len(xs)


def _middle(values) -> float:
    """Mean of the values ranked within P50_BAND of the median."""
    xs = sorted(values)
    m = (len(xs) - 1) // 2
    return statistics.fmean(xs[max(0, m - P50_BAND):m + P50_BAND + 1])


class Tally:
    """Verdicts of the op list, and the work counts the traced run reports.

    Every run of every op is checked.  ``attempted`` and ``failed`` count ops
    of the list (one command on one input): an op fails when any of its runs
    breaks a rule.  The list is fixed by the seed and the ops are
    deterministic, so the counts do not move with the number of passes a run
    makes.  Known defects (workloads.KNOWN_DEFECTS) fail their ops like any
    other rule; ``unexpected`` counts the ops that break some other rule, or
    a known-defect rule outside its known case."""

    def __init__(self, ops):
        self.ops = ops
        self.broken = [set() for _ in ops]
        self.work = Counter()

    def record(self, index, res, traced: bool):
        op = self.ops[index]
        broken = workloads.check(op, res)
        if threading.active_count() > 1:     # the load shape is one thread
            broken.append("background_thread")
        self.broken[index].update(broken)
        if traced:
            self.work["artifact_bytes"] += res.artifact_bytes
            if op.kind == "solve" and res.report and res.report["stop_reason"] == "converged":
                self.work["converged"] += 1
                self.work["certified"] += res.report["fixed_point"] is not None

    def counts(self) -> dict:
        failed = [(op, rules) for op, rules in zip(self.ops, self.broken) if rules]
        unexpected = sum(any(not workloads.is_known_defect(op, r) for r in rules)
                         for op, rules in failed)
        return {"attempted": len(self.ops), "failed": len(failed), "unexpected": unexpected,
                "known": len(failed) - unexpected,
                "rules": dict(Counter(r for _, rules in failed for r in rules))}


_PACE_ARRAY = np.arange(2000.0)


def _pace() -> float:
    """Seconds for a fixed reference kernel (interpreter loop, dict and list
    churn, small numpy ops: the mix conefix runs), best of two tries."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += (i * 7) % 13
        table = {i: [i, float(i)] for i in range(500)}
        for _ in range(20):
            acc += float(np.abs(_PACE_ARRAY - 3.0) @ _PACE_ARRAY)
        acc += len(table)
        best = min(best, time.perf_counter() - start)
    return best


def _steady_pace() -> float:
    """The pace around a whole process's lifetime: median of several kernels."""
    return statistics.median(_pace() for _ in range(7))


def _repeat(wl, runner, until: float, tally: Tally, tracer=None, whole: bool = False):
    """Run the op list again and again until the clock passes ``until``
    (always at least one whole pass; ``whole`` stops only between passes).

    Returns each op's wall times, the same times rescaled to the reference
    pace, and the number of whole passes.  The reference kernel runs between
    consecutive ops; an op's scale is REFERENCE_PACE_S over the mean of the
    kernel times just before and just after it."""
    raw = [[] for _ in wl.ops]
    scaled = [[] for _ in wl.ops]
    passes = 0
    before = _pace()
    while True:
        for index, op in enumerate(wl.ops):
            if passes and not whole and time.perf_counter() >= until:
                return raw, scaled, passes
            if tracer is not None:
                tracer.active = True
            res = runner.run(op, index)
            if tracer is not None:
                tracer.active = False
            after = _pace()
            raw[index].append(res.seconds)
            scaled[index].append(res.seconds * REFERENCE_PACE_S / ((before + after) / 2))
            before = after
            tally.record(index, res, traced=tracer is not None)
        passes += 1
        if time.perf_counter() >= until:
            return raw, scaled, passes


def _measure(args) -> dict:
    wl, runner = _setup(args)
    start = time.perf_counter()
    tally = Tally(wl.ops)
    until = start + (args.seconds / 2 if args.trace else args.seconds)
    raw, scaled, passes = _repeat(wl, runner, until, tally, whole=bool(args.trace))
    out = {"kinds": [op.kind for op in wl.ops], "raw": raw, "scaled": scaled, "passes": passes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        _, traced, n = _repeat(wl, runner, start + args.seconds, tally, tracer, whole=True)
        layer = tracer.metrics(n)
        layer["cli.artifact_bytes"] = tally.work["artifact_bytes"] / n
        layer["solver.certified_ratio"] = (tally.work["certified"] / tally.work["converged"]
                                           if tally.work["converged"] else 0.0)
        layer["trace.overhead_ratio"] = _list_time(traced) / _list_time(scaled)
        out["per_layer"] = layer
    out.update(tally.counts())
    if args.trace:
        out["per_layer"]["checker.known_defect_ops"] = out["known"]
    return out


def _list_time(samples) -> float:
    """Time for the whole op list: the sum over ops of each op's median time."""
    return sum(statistics.median(x) for x in samples)


def _child(args) -> int:
    if args.child == "setup":
        _setup(args)
        return 0
    result = _measure(args)
    Path(args.workdir, "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Parent
# ---------------------------------------------------------------------------

def _spawn(args, role: str, workdir: Path) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path.cwd() / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "run.py"), "--child", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, timeout=args.seconds + CHILD_SLACK_S,
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with status {proc.returncode}")
    return time.perf_counter() - start


def machine() -> dict:
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def run_workload(args) -> tuple[dict, list[str]]:
    base = Path.cwd() / ".perfbench_work"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []                     # (scaled, wall-clock) seconds
        for k in range(SETUP_REPEATS):
            before = _steady_pace()
            wall = _spawn(args, "setup", workdir / f"setup{k}")
            setups.append((wall * REFERENCE_PACE_S / ((before + _steady_pace()) / 2), wall))
        _spawn(args, "measure", workdir / "measure")
        raw = json.loads((workdir / "measure" / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()
    per_op = [statistics.median(x) for x in raw["scaled"]]
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}  ops {len(per_op)}  passes {raw['passes']}",
             "machine " + json.dumps(machine(), sort_keys=True)]
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in raw["per_layer"].items()}
    else:
        tail, pct, count = _tail(per_op)
        values = {"setup_s": statistics.median(s for s, _ in setups), "wall_s": sum(per_op),
                  "op_p50_ms": _middle(per_op) * 1e3, "op_tail_ms": tail * 1e3,
                  "peak_rss_mb": raw["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
        unscaled = [x for xs in raw["raw"] for x in xs]
        lines.append("setup runs: " + ", ".join(f"{s:.3f} s ({w:.3f} s unscaled)" for s, w in setups))
        lines.append(f"op times: each op's median over its runs, rescaled to the reference pace; "
                     f"op_p50_ms is the mean of the ops ranked within {P50_BAND} of the median; "
                     f"op_tail_ms is p{pct:.1f} of {count} ops (mean of the ops ranked "
                     f"within {TAIL_BAND} of it)")
        lines.append(f"unscaled wall clock: op list {_list_time(raw['raw']):.3f} s, "
                     f"median op run {statistics.median(unscaled) * 1e3:.3f} ms")
        for kind in PER_COMMAND[args.workload]:
            xs = [x for x, k in zip(per_op, raw["kinds"]) if k == kind]
            lines.append(f"{kind}_p50_ms {statistics.median(xs) * 1e3:.3f} ms  ({len(xs)} ops)")
            if kind in TAILED:
                tail, pct, count = _tail(xs)
                lines.append(f"{kind}_tail_ms {tail * 1e3:.3f} ms  (p{pct:.1f} of {count} ops)")
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    lines.append(f"error_rate {raw['failed'] / raw['attempted']:.4f}  "
                 f"({raw['failed']} failed / {raw['attempted']} ops in the list, each checked "
                 f"on every run)")
    for rule, n in sorted(raw["rules"].items()):
        known = workloads.KNOWN_DEFECTS.get(rule)
        lines.append(f"  failed by rule {rule}: {n}" + (f"  [known defect: {known}]" if known else ""))
    result = {"correct": raw["unexpected"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, lines


def _terminate(signum, frame):
    raise SystemExit(128 + signum)   # unwinds: children are killed, the work dir removed


def main(argv=None) -> int:
    args = _args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if "CONEFIX_THREADS" in os.environ:
        print("CONEFIX_THREADS must be unset: the load shape is one thread", file=sys.stderr)
        return 2
    if not (Path.cwd() / "src" / "conefix" / "__init__.py").is_file():
        print("run from the root of a conefix checkout: src/conefix not found", file=sys.stderr)
        return 1
    if args.child:
        return _child(args)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            result, lines = run_workload(args)
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
