"""The three workloads: their op lists, how one op runs, and the verdict checker.

Every op drives conefix the way a user does: a CLI command through
``conefix.cli.main`` (in-process, artifact written with ``--out``), or one of
the public solver calls ``uniqueness_probe`` and ``diagnose_T`` on an instance
loaded with ``conefix.cli.load_instance``.  Only the call itself is timed;
reading artifacts back and checking verdicts happen after the clock stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

WORKLOADS = ("sampled_check", "exhaustive_oracle", "picard_solve")
CLI_KINDS = ("verify", "fit", "oracle", "solve")

# Rule breaches the parent code is known to commit, on the inputs where it is
# known to commit them.  They fail their ops (and show in error_rate) but do
# not make a run incorrect; the same breach anywhere else does.
KNOWN_DEFECTS = {
    "stop_vs_certificate":
        "B-type (T = x^3): the T-image gap converges but d(Sz, z) stays above epsilon",
    "derangement_cycle":
        "a cycle longer than the stall window (50) runs to max_iter instead of cycle_detected",
}


@dataclass
class Op:
    kind: str
    inst: gen.Instance
    x0: object = None          # solve: --x0 (JSON literal)
    starts: list | None = None  # probe: start points
    fmt: str = "csv"           # solve: trace format


@dataclass
class Outcome:
    seconds: float
    code: int | None = None    # CLI exit status
    error: str | None = None   # exception type, if the op raised
    report: dict | None = None
    value: object = None       # API ops: the returned object
    artifact_bytes: int = 0


@dataclass
class Workload:
    name: str
    instances: list[gen.Instance]
    ops: list[Op]
    warmup: list[Op] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------

# Finite sizes and the classes each size contributes.  verify costs O(n^3)
# Python work up to n = 125 (the exhaustive metric-axiom scan), so the large
# sizes carry fewer classes: a pass of each op list takes 3-7 s, and every op
# repeats often enough in a run for its median time to settle.
SAMPLED_FINITE = {6: gen.CLASSES, 12: gen.CLASSES, 24: gen.CLASSES,
                  48: ("TB", "TW"), 80: ("TB",)}
ORACLE_FINITE = {n: gen.CLASSES for n in (6, 12, 24, 48, 80)}
ORACLE_FINITE.update({144: gen.CLASSES[::2], 200: gen.CLASSES[::2]})
FIT_GRIDS = {21: gen.FIT_CLASSES, 41: ("TK", "TW")}


def _finite(seed: int, plan: dict) -> list[gen.Instance]:
    return [i for i in gen.finite_set(seed, tuple(plan))
            if i.doc["contraction"]["class"] in plan[len(i.doc["space"]["carrier"]["points"])]]


def sampled_check(root: Path, seed: int, smoke: bool) -> Workload:
    """verify and fit on interval carriers (fixtures A and C plus generated
    files over three grid sizes and three cones) and verify on finite files
    small enough (n <= 125) for the exhaustive metric-axiom scan."""
    if smoke:
        interval = gen.interval_set(seed, (21,))
        finite, fixtures = _finite(seed, {6: gen.CLASSES}), []
    else:
        interval = gen.interval_set(seed, (21, 41)) + gen.interval_set(seed, (101,), ("TB", "TW"))
        finite = _finite(seed, SAMPLED_FINITE)
        fixtures = [gen.fixture(root, "instance_a"), gen.fixture(root, "instance_c")]
    ops = [Op("verify", i) for i in fixtures + interval + finite]
    ops += [Op("fit", i) for i in interval
            if i.doc["contraction"]["class"] in FIT_GRIDS.get(i.doc["space"]["carrier"]["grid"], ())]
    # instance C's 101-point grid has more pairs than the 10,000 samples, so
    # its fit takes the sampled-pair path.  Fitting instance A (3.3 s) would
    # be most of a pass and cut each op's repeats in a run from ~7 to 3.
    ops += [Op("fit", i) for i in fixtures if i.name == "fixture_instance_c"]
    np.random.default_rng([seed, 7]).shuffle(ops)
    # the polyhedral verify also pays scipy's lazy import of linprog
    poly = next(i for i in interval if i.doc["cone"]["family"] == "polyhedral")
    warm = [Op("verify", poly), Op("fit", interval[0])]
    return Workload("sampled_check", fixtures + interval + finite, ops, warm)


def exhaustive_oracle(root: Path, seed: int, smoke: bool) -> Workload:
    """oracle on finite tables from n = 6 to 200 (all seven classes, holding
    and failing) plus the committed instance_d fixtures."""
    finite = _finite(seed, {6: gen.CLASSES, 12: gen.CLASSES} if smoke else ORACLE_FINITE)
    fixtures = [gen.fixture(root, "instance_d"), gen.fixture(root, "instance_d_twu")]
    ops = [Op("oracle", i) for i in fixtures + finite]
    np.random.default_rng([seed, 7]).shuffle(ops)
    return Workload("exhaustive_oracle", fixtures + finite, ops, [Op("oracle", fixtures[0])])


def _picard_instances(seed: int, smoke: bool) -> list[gen.Instance]:
    rng = np.random.default_rng([seed, 3])
    out = []

    def interval(name, family, **kw):
        doc = gen.interval_doc(rng, kind=None, **kw)
        out.append(gen.Instance(name, family, doc))

    # A-type: T identity, S an affine contraction (fixed point beta/(1-alpha))
    for k, alpha in enumerate((0.5, 0.75) if smoke else (0.5, 0.75, 0.25)):
        interval(f"a_type{k}", "a_type", cone=gen.CONE_NAMES[k % 3], grid=101,
                 t_family="identity", s_map=gen.affine_s(rng, alpha))
    # B-type: T = x^3, S = x/4 (instance B's shape)
    for k in range(1 if smoke else 2):
        doc = gen.interval_doc(rng, kind=None, cone="orthant", grid=101, t_family="identity",
                               s_map={"family": "affine", "alpha": 0.25, "beta": 0.0})
        doc["maps"]["T"] = {"family": "power", "exponent": 3.0}
        out.append(gen.Instance(f"b_type{k}", "b_type", doc))
    # C-type: T = S = identity, every point is fixed
    interval("c_type0", "c_type", cone="scaled_orthant", grid=101, t_family="identity",
             s_map={"family": "identity"})
    # S contracts by 255/256 a step: from any x0 >= 1/64 it needs over 5,000
    # steps, so the run stops at the explicit max_iter
    interval("slow_affine0", "slow_affine", cone="orthant", grid=101, t_family="identity",
             s_map={"family": "affine", "alpha": 255 / 256, "beta": 0.0},
             max_iter=200 if smoke else gen.LONG_CYCLE_MAX_ITER)
    sizes = ((12, 3),) if smoke else ((24, 3), (96, 3), (200, 1))
    for n, families in sizes:
        for family in ("tree", "random", "hub")[:families]:
            doc = gen.finite_doc(rng, n=n, family=family, kind=None, cone=gen.CONE_NAMES[n % 3])
            out.append(gen.Instance(f"fin{n:03d}_{family}", family, doc, gen.reference(doc)))
    cycles = [(40, "cycles")] + ([] if smoke else [(48, "cycles"), (64, "long_cycle"),
                                                  (80, "long_cycle")])
    for n, family in cycles:
        doc = gen.finite_doc(rng, n=n, family=family, kind=None, cone="orthant",
                             max_iter=gen.LONG_CYCLE_MAX_ITER)
        out.append(gen.Instance(f"perm{n:03d}_{family}", family, doc, gen.reference(doc)))
    return out


def picard_solve(root: Path, seed: int, smoke: bool) -> Workload:
    """solve from many start points on A-, B- and C-type interval files,
    finite files and fixed-point-free permutations; uniqueness_probe with
    64-256 starts; diagnose_T with its default probes."""
    insts = _picard_instances(seed, smoke)
    rng = np.random.default_rng([seed, 5])
    ops = []
    x0s = 2 if smoke else 4
    for inst in insts:
        pts = inst.doc["space"]["carrier"].get("points")
        for k in range(x0s if inst.family in ("a_type", "b_type", "c_type") else 1):
            x0 = int(rng.choice(pts)) if pts else float(rng.integers(1, 65)) / 64
            ops.append(Op("solve", inst, x0=x0, fmt="json" if k % 2 else "csv"))
    # every probe start on a long cycle runs to max_iter: one file, 64 starts
    probed = [i for i in insts if i.family not in ("slow_affine", "random", "hub", "long_cycle")]
    probed += [i for i in insts if i.family == "long_cycle"][:1]
    for k, inst in enumerate(probed):
        count = 64 if inst.family == "long_cycle" else (64, 128, 256)[k % 3]
        pts = inst.doc["space"]["carrier"].get("points")
        starts = ([int(v) for v in rng.choice(pts, size=count)] if pts
                  else [float(v) for v in rng.uniform(0.0, 1.0, size=count)])
        if smoke:
            starts = starts[:8]
        ops.append(Op("probe", inst, starts=starts))
        if inst.family in ("a_type", "b_type", "c_type") or inst.name == "fin096_tree":
            ops.append(Op("diagnose", inst))
    rng.shuffle(ops)
    first = insts[0]
    warm = [Op("solve", first, x0=0.5), Op("probe", first, starts=[0.5, 1.0]),
            Op("diagnose", first)]
    return Workload("picard_solve", insts, ops, warm)


BUILDERS = {"sampled_check": sampled_check, "exhaustive_oracle": exhaustive_oracle,
            "picard_solve": picard_solve}


# ---------------------------------------------------------------------------
# Running one op
# ---------------------------------------------------------------------------

class Runner:
    """Holds the written instance files and the loaded instances API ops use."""

    def __init__(self, workload: Workload, workdir: Path):
        import conefix.cli as cli
        from conefix import solver

        self.cli, self.solver = cli, solver
        self.workdir = workdir
        (workdir / "out").mkdir(parents=True, exist_ok=True)
        self.paths = {i.name: i.write(workdir) for i in workload.instances}
        self.loaded = {}
        for op in workload.ops + workload.warmup:
            if op.kind in ("probe", "diagnose") and op.inst.name not in self.loaded:
                self.loaded[op.inst.name] = cli.load_instance(self.paths[op.inst.name])

    def run(self, op: Op, index: int) -> Outcome:
        if op.kind in CLI_KINDS:
            return self._cli(op, index)
        inst = self.loaded[op.inst.name]
        start = time.perf_counter()
        try:
            if op.kind == "probe":
                rule = self.solver.StoppingRule(epsilon=inst.run.epsilon, max_iter=inst.run.max_iter)
                value = self.solver.uniqueness_probe(inst.space, inst.maps, op.starts, rule)
            else:
                value = self.solver.diagnose_T(inst.space, inst.maps)
        except Exception as exc:   # a failing op is counted, not fatal
            return Outcome(time.perf_counter() - start, error=type(exc).__name__)
        return Outcome(time.perf_counter() - start, value=value)

    def _cli(self, op: Op, index: int) -> Outcome:
        ext = "csv" if op.kind == "solve" and op.fmt == "csv" else "json"
        out = self.workdir / "out" / f"{index}.{ext}"
        out.unlink(missing_ok=True)         # never read a previous pass's artifact
        argv = [op.kind, "--instance", str(self.paths[op.inst.name]), "--out", str(out)]
        if op.kind == "solve":
            argv += ["--x0", json.dumps(op.x0), "--format", op.fmt]
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except Exception as exc:   # includes MemoryError under the address-space cap
            return Outcome(time.perf_counter() - start, error=type(exc).__name__)
        seconds = time.perf_counter() - start
        text = stdout.getvalue()
        size = len(text.encode()) + (out.stat().st_size if out.exists() else 0)
        report = None
        try:
            if op.kind == "solve":
                report = json.loads(text.strip().splitlines()[-1])
            elif out.exists():
                report = json.loads(out.read_text(encoding="utf-8"))
        except (IndexError, ValueError):    # no certificate line, or not JSON
            pass
        return Outcome(seconds, code=code, report=report, artifact_bytes=size)


# ---------------------------------------------------------------------------
# Verdict checker
# ---------------------------------------------------------------------------

def check(op: Op, res: Outcome) -> list[str]:
    """Rules the op's verdict breaks (empty when it is correct).  Verdicts are
    compared, never bytes, so a change to float formatting or to fitted
    constants is not an error."""
    if res.error is not None:
        return [f"raised_{res.error}"]
    if res.code == 2:
        return ["exit_2_on_valid_file"]
    if op.kind in CLI_KINDS and res.report is None:
        return ["no_report"]
    try:
        return _broken_rules(op, res)
    except (AttributeError, KeyError, TypeError):   # a field the rules read is gone
        return ["unreadable_report"]


def _broken_rules(op: Op, res: Outcome) -> list[str]:
    e = op.inst.expect
    fails = []
    fixed = e.get("fixed_points")
    if op.kind in ("verify", "oracle") and "holds" in e:
        cond = res.report["condition"]
        if (cond["holds"], cond["violation_count"]) != (e["holds"], e["violation_count"]):
            fails.append("engine_vs_reference")
    if op.kind == "oracle" and fixed is not None and res.report["fixed_points"] != fixed:
        fails.append("fixed_points")
    if op.kind == "fit" and (res.code == 0) != bool(res.report["feasible"]):
        fails.append("fit_exit_vs_feasible")
    if op.kind == "solve":
        cert = res.report
        converged = cert["stop_reason"] == "converged"
        certified = cert["fixed_point"] is not None
        if fixed == [] and cert["stop_reason"] != "cycle_detected":
            fails.append("derangement_cycle")
        if converged != certified:
            fails.append("stop_vs_certificate")
        if certified and fixed is not None and cert["fixed_point"] not in fixed:
            fails.append("fixed_points")
    if op.kind == "probe":
        v = res.value
        if fixed == [] and any(t.stop_reason != "cycle_detected" for t in v.traces):
            fails.append("derangement_cycle")
        found = ([v.fixed_point] if v.fixed_point is not None else []) + list(v.witnesses)
        if fixed is not None and any(int(z) not in fixed for z in found):
            fails.append("fixed_points")
    return fails


def is_known_defect(op: Op, rule: str) -> bool:
    if rule == "stop_vs_certificate":
        return op.inst.family == "b_type"
    if rule == "derangement_cycle":
        return op.inst.expect.get("longest_cycle", 0) > gen.STALL_WINDOW
    return False
