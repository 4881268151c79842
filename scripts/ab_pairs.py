#!/usr/bin/env python3
"""Run the benchmark in alternating pairs: a revision against the working tree.

    python scripts/ab_pairs.py REV WORKLOAD SEED PAIRS
    python scripts/ab_pairs.py REV all SEED PAIRS

Extracts REV's ``src/``, ``fixtures/`` and ``perfbench/`` with ``git
archive`` into a temporary directory, so the working tree, the index and
the refs stay as they are.  Compiles both sides' ``src/`` with
``compileall`` first: where PYTHONDONTWRITEBYTECODE is set, a side without
current ``.pyc`` files compiles its modules again in every fresh
interpreter the benchmark starts, which inflates its ``setup_s``.  Then runs
``perfbench/run.py --workload WORKLOAD --seed SEED --trace 0`` for
BENCHMARK.json's ``run_seconds`` in each side's directory, PAIRS times,
REV first in even pairs and the working tree first in odd ones; ``all``
runs every workload BENCHMARK.json names in each pair, one after another.
Prints each pair's end-to-end metrics and failed ops, then per workload
each side's median and quartiles, and per metric the pairs the working
tree wins (ties count for neither side).  Reads ``perfbench/`` and changes
nothing there.
"""

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``side``: the JSON object its last line prints."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=side, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _summary(runs: dict, rev: str, better: dict, pairs: int) -> None:
    """Each metric's median and quartiles on both sides, and the pairs the
    working tree wins (ties count for neither side)."""
    for m, sense in better.items():
        before, after = ([r["metrics"][m]["value"] for r in runs[name]] for name in (rev, "tree"))
        wins = sum((a < b) if sense == "lower" else (a > b) for a, b in zip(after, before))
        (q1, med, q3), (r1, rmed, r3) = _quartiles(before), _quartiles(after)
        print(f"  {m}: median {med:.4g} [{q1:.4g}, {q3:.4g}] -> {rmed:.4g} [{r1:.4g}, {r3:.4g}]  "
              f"({(rmed - med) / med:+.1%}); the working tree wins {wins} of {pairs}")


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev, workload, seed, pairs = argv[0], argv[1], int(argv[2]), int(argv[3])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]] if workload == "all" else [workload]
    with tempfile.TemporaryDirectory() as tmp:
        old = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src", "fixtures", "perfbench"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(old)], input=archive, check=True)
        for side in (old, ROOT):
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(side / "src")], check=True)
        sides = {rev: old, "tree": ROOT}
        runs = {w: {rev: [], "tree": []} for w in workloads}
        for k in range(pairs):
            order = [rev, "tree"] if k % 2 == 0 else ["tree", rev]
            for w in workloads:
                for name in order:
                    runs[w][name].append(_run(sides[name], w, seed, bench["run_seconds"]))
                last = {name: runs[w][name][-1] for name in (rev, "tree")}
                cells = "  ".join(f"{m} {last[rev]['metrics'][m]['value']:.4g} -> "
                                  f"{last['tree']['metrics'][m]['value']:.4g}" for m in better)
                print(f"pair {k + 1} {w} ({order[0]} first): {cells}  failed {last[rev]['failed']} -> "
                      f"{last['tree']['failed']}", flush=True)
    for w in workloads:
        print(f"{w} seed {seed}, {pairs} pairs of {bench['run_seconds']} s, {rev} -> working tree:")
        _summary(runs[w], rev, better, pairs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
