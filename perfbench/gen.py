"""Seeded instance files for the benchmark workloads, and their reference verdicts.

Every input is drawn from ``numpy.random.default_rng(seed)``.  Nothing here
calls ``conefix.oracle.generate_*`` or ``conefix.instances``: a change to those
modules must not change the inputs it is measured on.  The only conefix files
read are the committed fixtures.

Finite tables hold integer distances times a dyadic direction, and their
cones set ``"slack": 0``, so both engines (the sampled checker and the
exhaustive oracle) decide every inequality exactly.  ``reference`` recomputes
each finite file's verdict with plain numpy, independently of conefix.

Families (why each is in the mix):

* ``tree`` - labelled points of a random rooted tree with path metric and edge
  weight 4**depth; S is the parent map conjugated by T (a permutation), so
  every class holds for moderate constants (TB(1/2), TK/TC(3/8), ...).  These
  files reach the oracle's reduction, tightest-constant and cross-validation
  branches, and give the Picard solver orbits that end on one fixed point.
* ``random`` - the same tree metric with a random S, so the class fails on
  many pairs: violation lists and witnesses get built and serialized.
* ``hub`` - S sends every point to one hub: the left-hand side is 0 and every
  class holds trivially; the cheapest branch of each checker.
* ``cycles`` / ``long_cycle`` - S is a fixed-point-free permutation made of
  cycles of at most 16 steps, or of one cycle longer than the solver's
  stall window (50); only the Picard workload uses them.
* interval files - the continuous carrier [0, 1] with a direction metric,
  T identity, affine or power, S affine, contracting hard (every class holds)
  or weakly (every class fails).  Grid sizes 21, 41 and 101 set the pair
  count (101 points exceed the default 10,000 samples, so the sampled pair
  path runs); orthant, scaled-orthant and polyhedral cones set the cost of a
  cone test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CLASSES = ("TB", "TK", "TC", "TZ", "TW", "TW_DUAL", "TWU")
FIT_CLASSES = ("TB", "TK", "TC", "TW")

# Cones with the interior directions a metric may use (all dyadic).
CONES = {
    "orthant": ({"family": "orthant", "dimension": 2},
                [(1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (0.5, 1.0)]),
    "scaled_orthant": ({"family": "scaled_orthant", "dimension": 2, "weights": [1.0, 0.5]},
                       [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0)]),
    "polyhedral": ({"family": "polyhedral", "dimension": 2, "matrix": [[1.0, -0.5], [-0.25, 1.0]]},
                   [(1.0, 1.0), (1.0, 0.75), (0.75, 1.0)]),
}
CONE_NAMES = tuple(CONES)

STALL_WINDOW = 50      # the solver's cycle look-back: longer cycles are a known defect
LONG_CYCLE_MAX_ITER = 1500


@dataclass
class Instance:
    """One instance file: its CLI document plus what the checker expects."""

    name: str
    family: str
    doc: dict
    expect: dict = field(default_factory=dict)

    @property
    def finite(self) -> bool:
        return self.doc["space"]["carrier"]["kind"] == "finite"

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps(self.doc, sort_keys=True), encoding="utf-8")
        return path


def _dyadic(rng, lo: int, hi: int, denom: int) -> float:
    return float(rng.integers(lo, hi + 1)) / denom


def _cone(rng, name: str, finite: bool) -> tuple[dict, list[float]]:
    section, directions = CONES[name]
    section = dict(section, norm="max")
    if finite:
        section["slack"] = 0
    return section, list(directions[int(rng.integers(len(directions)))])


# ---------------------------------------------------------------------------
# Contraction constants
# ---------------------------------------------------------------------------

def constants(rng, kind: str, strength: str) -> dict:
    """Dyadic constants for a class.  ``strength`` 'loose' keeps them near
    the top of their range, 'tight' near the bottom (so the class fails
    on most non-trivial maps)."""
    if strength == "loose":
        a, b = _dyadic(rng, 8, 14, 16), _dyadic(rng, 6, 7, 16)
        big = _dyadic(rng, 4, 12, 4)
    else:
        a, b = _dyadic(rng, 1, 3, 16), _dyadic(rng, 1, 2, 16)
        big = _dyadic(rng, 0, 1, 4)
    if kind == "TB":
        return {"a": a}
    if kind == "TK":
        return {"b": b}
    if kind == "TC":
        return {"c": b}
    if kind == "TZ":
        return {"a": a, "b": b, "c": b}
    if kind in ("TW", "TW_DUAL"):
        return {"delta": a, "L": big}
    return {"theta": a, "L1": big}


# ---------------------------------------------------------------------------
# Interval carriers
# ---------------------------------------------------------------------------

def _t_map(rng, family: str) -> dict:
    if family == "identity":
        return {"family": "identity"}
    if family == "affine":
        alpha = _dyadic(rng, 4, 8, 8)
        return {"family": "affine", "alpha": alpha, "beta": _dyadic(rng, 0, int((1 - alpha) * 16), 16)}
    return {"family": "power", "exponent": float(rng.choice([2.0, 3.0, 1.5]))}


def affine_s(rng, alpha: float, t_family: str = "identity") -> dict:
    """S(x) = alpha x + beta on [0, 1].  beta is 0 under a power T, so that
    T S = alpha**p T and the class verdict depends on alpha alone."""
    beta = 0.0 if t_family == "power" else _dyadic(rng, 0, int((1 - alpha) * 16), 16)
    return {"family": "affine", "alpha": alpha, "beta": beta}


def interval_doc(rng, *, cone: str, grid: int, t_family: str, kind: str | None,
                 strength: str = "loose", s_map: dict | None = None,
                 max_iter: int | None = None) -> dict:
    """An interval file.  Unless ``s_map`` is given, S contracts hard
    (alpha <= 1/4) for 'loose' constants, so every class holds, and weakly
    (alpha = 3/4) for 'tight' ones, so every class fails: the verdict, and
    with it the cost of a check, is fixed by the slot, not by the seed."""
    section, direction = _cone(rng, cone, finite=False)
    if s_map is None:
        alpha = float(rng.choice([0.125, 0.25])) if strength == "loose" else 0.75
        s_map = affine_s(rng, alpha, t_family)
    doc = {
        "schema_version": "1",
        "cone": section,
        "space": {
            "carrier": {"kind": "interval", "lo": 0.0, "hi": 1.0, "grid": grid},
            "metric": {"kind": "direction", "direction": direction, "scalar": "absdiff"},
        },
        "maps": {"T": _t_map(rng, t_family), "S": s_map},
        "run": {"seed": int(rng.integers(1 << 16)), "x0": 1.0, "epsilon": 1e-12},
    }
    if max_iter is not None:
        doc["run"]["max_iter"] = max_iter
    if kind is not None:
        doc["contraction"] = {"class": kind, **constants(rng, kind, strength)}
    return doc


# ---------------------------------------------------------------------------
# Finite carriers
# ---------------------------------------------------------------------------

def _tree_metric(rng, n: int, depth: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Path metric of a random rooted tree on n nodes, edge weight 4**depth.
    Returns (rho, parent) over node ids 0..n-1 (node 0 is the root)."""
    parent = np.zeros(n, dtype=int)
    level = np.zeros(n, dtype=int)
    up = np.zeros(n, dtype=np.int64)           # distance to the root
    for i in range(1, n):
        choices = np.flatnonzero(level[:i] < depth)
        p = int(choices[rng.integers(len(choices))])
        parent[i], level[i] = p, level[p] + 1
        up[i] = up[p] + 4 ** int(level[i])
    # ancestor[k] = each node's ancestor at depth k (-1 above the node);
    # the lowest common ancestor is the deepest depth where the two agree.
    ancestor = np.full((depth + 1, n), -1)
    for i in range(n):
        j = i
        while True:
            ancestor[level[j], i] = j
            if j == 0:
                break
            j = parent[j]
    lca_up = np.zeros((n, n), dtype=np.int64)
    for row in ancestor:
        same = (row[:, None] == row[None, :]) & (row[:, None] >= 0)
        lca_up = np.where(same, up[row][:, None], lca_up)
    return up[:, None] + up[None, :] - 2 * lca_up, parent


def _derangement(rng, n: int, cycle_max: int) -> np.ndarray:
    """Fixed-point-free permutation of range(n) with cycles of 2..cycle_max points."""
    order = rng.permutation(n)
    s = np.empty(n, dtype=int)
    start = 0
    while start < n:
        rest = n - start
        size = rest if rest <= cycle_max else int(rng.integers(2, min(cycle_max, rest - 2) + 1))
        block = order[start:start + size]
        s[block] = np.roll(block, -1)
        start += size
    return s


def finite_doc(rng, *, n: int, family: str, kind: str | None, cone: str,
               strength: str = "loose", max_iter: int | None = None) -> dict:
    section, direction = _cone(rng, cone, finite=True)
    if family in ("cycles", "long_cycle"):
        rho = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        t = np.arange(n)
        s = _derangement(rng, n, n if family == "long_cycle" else 16)
    else:
        rho, parent = _tree_metric(rng, n)
        label = rng.permutation(n)               # node id -> point label
        node = np.empty(n, dtype=int)
        node[label] = np.arange(n)
        rho = rho[node][:, node]
        if family == "tree":
            s0 = label[parent[node]]       # parent map, read on point labels
        elif family == "hub":
            s0 = np.full(n, int(label[0]))
        else:
            s0 = rng.integers(0, n, size=n)
        # T a permutation pi and S = pi^-1 s0 pi: then TS = s0 T, so the
        # class geometry of s0 is read through T-images unchanged.
        t = rng.permutation(n) if rng.random() < 0.7 else np.arange(n)
        inv = np.empty(n, dtype=int)
        inv[t] = np.arange(n)
        s = inv[s0[t]]
    table = rho[:, :, None].astype(float) * np.asarray(direction)
    doc = {
        "schema_version": "1",
        "cone": section,
        "space": {
            "carrier": {"kind": "finite", "points": list(range(n))},
            "metric": {"kind": "tabulated", "table": table.tolist()},
        },
        "maps": {"T": {"family": "tabulated", "images": t.tolist()},
                 "S": {"family": "tabulated", "images": s.tolist()}},
        "run": {"seed": int(rng.integers(1 << 16)), "epsilon": 1e-12,
                "x0": int(rng.integers(n))},
    }
    if max_iter is not None:
        doc["run"]["max_iter"] = max_iter
    if kind is not None:
        doc["contraction"] = {"class": kind, **constants(rng, kind, strength)}
    return doc


# ---------------------------------------------------------------------------
# Reference verdicts (plain numpy, independent of conefix)
# ---------------------------------------------------------------------------

def cone_rows(section: dict) -> np.ndarray:
    """Inequality rows r with P = {v : r.v >= 0} for a cone section."""
    m = int(section["dimension"])
    family = section.get("family", "orthant")
    if family == "polyhedral":
        return np.asarray(section["matrix"], dtype=float)
    if family == "scaled_orthant":
        rows = []
        for i, w in enumerate(section["weights"]):
            e = np.eye(m)[i]
            rows.extend([e] if w > 0 else [e, -e])
        return np.asarray(rows)
    return np.eye(m)


def class_mask(table: np.ndarray, rows: np.ndarray, t: np.ndarray, s: np.ndarray,
               contraction: dict) -> np.ndarray:
    """(n, n) mask: does the declared class inequality hold at (x_i, x_j)?"""
    ts = t[s]

    def d(a, b):
        return table[a[:, None], b[None, :]]

    lhs = d(ts, ts)
    tx_ty = d(t, t)
    own = table[t, ts]                      # d(Tx_i, TSx_i), shape (n, m)
    tx_tsx, ty_tsy = own[:, None, :], own[None, :, :]
    tx_tsy, ty_tsx = d(t, ts), d(ts, t)
    k = contraction

    def holds(rhs):
        return np.all((rhs - lhs) @ rows.T >= 0.0, axis=-1)

    kind = k["class"]
    if kind == "TZ":
        return (holds(k["a"] * tx_ty) | holds(k["b"] * (tx_tsx + ty_tsy))
                | holds(k["c"] * (tx_tsy + ty_tsx)))
    rhs = {
        "TB": lambda: k["a"] * tx_ty,
        "TK": lambda: k["b"] * (tx_tsx + ty_tsy),
        "TC": lambda: k["c"] * (tx_tsy + ty_tsx),
        "TW": lambda: k["delta"] * tx_ty + k["L"] * ty_tsx,
        "TW_DUAL": lambda: k["delta"] * tx_ty + k["L"] * tx_tsy,
        "TWU": lambda: k["theta"] * tx_ty + k["L1"] * tx_tsx,
    }[kind]()
    return holds(np.broadcast_to(rhs, lhs.shape))


def _longest_cycle(s: np.ndarray) -> int:
    """Length of the longest cycle of the map i -> s[i] on range(n)."""
    state = np.zeros(len(s), dtype=int)     # 0 new, 1 on the current path, 2 done
    best = 0
    for i in range(len(s)):
        path = []
        j = i
        while state[j] == 0:
            state[j] = 1
            path.append(j)
            j = int(s[j])
        if state[j] == 1:                   # closed a new cycle at j
            best = max(best, len(path) - path.index(j))
        state[path] = 2
    return best


def reference(doc: dict) -> dict:
    """What a correct engine reports for a finite file."""
    t = np.asarray(doc["maps"]["T"]["images"], dtype=int)
    s = np.asarray(doc["maps"]["S"]["images"], dtype=int)
    fixed = [int(i) for i in np.flatnonzero(s == np.arange(len(s)))]
    out = {"fixed_points": fixed, "longest_cycle": _longest_cycle(s)}
    if "contraction" in doc:
        table = np.asarray(doc["space"]["metric"]["table"], dtype=float)
        mask = class_mask(table, cone_rows(doc["cone"]), t, s, doc["contraction"])
        out["holds"] = bool(mask.all())
        out["violation_count"] = int((~mask).sum())
    return out


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

# (family, constants): holds, fails on some pairs, fails on most, trivially holds.
FINITE_MIX = (("tree", "loose"), ("tree", "tight"), ("random", "tight"), ("hub", "loose"))

def fixture(root: Path, name: str) -> Instance:
    doc = json.loads((root / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))
    inst = Instance(f"fixture_{name}", "fixture", doc)
    if inst.finite:
        inst.expect = reference(doc)
    return inst


def finite_set(seed: int, sizes: tuple[int, ...]) -> list[Instance]:
    """Finite files shared by sampled_check (verify) and exhaustive_oracle
    (oracle): the same seed and size give the same file in both, so the two
    engines are judged against one reference on identical inputs.  Per size,
    every class appears once, rotating through FINITE_MIX and the cones."""
    out = []
    for n in sizes:
        rng = np.random.default_rng([seed, n])
        for i, kind in enumerate(CLASSES):
            family, strength = FINITE_MIX[(i + n) % len(FINITE_MIX)]
            cone = CONE_NAMES[(i + n) % 3]
            doc = finite_doc(rng, n=n, family=family, kind=kind, cone=cone, strength=strength)
            out.append(Instance(f"fin{n:03d}_{kind}_{family}", family, doc, reference(doc)))
    return out


def interval_set(seed: int, grids: tuple[int, ...], kinds=CLASSES[:5]) -> list[Instance]:
    """Interval files: per grid size, one file per class, rotating the cone,
    the T family and loose/tight constants so each combination shows up
    across grid sizes."""
    out = []
    for g in grids:
        rng = np.random.default_rng([seed, g, 1])
        for i, kind in enumerate(kinds):
            cone = CONE_NAMES[(i + g) % 3]
            t_family = ("identity", "affine", "power")[(i + g // 20) % 3]
            strength = ("loose", "tight")[(i + g // 20) % 2]
            doc = interval_doc(rng, cone=cone, grid=g, t_family=t_family, kind=kind,
                               strength=strength)
            out.append(Instance(f"int{g:03d}_{kind}_{cone}_{t_family}_{strength}", "interval", doc))
    return out
