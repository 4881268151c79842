#!/usr/bin/env python3
"""Write the instance files that ``scripts/artifact_digest.py`` fingerprints for an engine change.

    python scripts/digest_files.py OUTDIR

Writes 332 files: the 126 of ``scripts/finite_map_files.py`` (identity,
affine and power maps on finite carriers), 13 box-carrier files, and 193
drawn from the benchmark's generators (``perfbench/gen.py`` and ``perfbench/workloads.py``,
read, never changed):

* 148 benchmark files: the 4 fixtures (``fixture_<name>``); ``finite_set``
  of seeds 0 and 1 at n = 6, 12, 24, 48, 80, 144 and 200, seven classes
  each; ``interval_set`` of seed 0 at grids 21 and 41; and the 18
  ``picard_solve`` instances of seeds 0 and 1.  A seeded file's name starts
  with its seed (``s0_``, ``s1_``), since both seeds use the same names.
* 45 table variants (``table_<base>_<variant>``), from seed 0's
  ``fin024_TB_tree``, ``fin024_TK_tree``, ``fin200_TB_tree`` and
  ``fin200_TK_tree``, eleven of each:

  - ``d3_once``: d(0, 4) = d(4, 0) = 2 (d(0, 1) + d(1, 4)), one triangle
    failure through the pair (0, 4);
  - ``d3_twice``: that, and d(2, 5) = d(5, 2) = 2 (d(2, 3) + d(3, 5));
  - ``pi`` and ``third``: the table times pi, and divided by 3 (not
    dyadic);
  - ``e1000`` and ``e1018``: the table times 2^1000, and times 2^1018,
    which overflows, so the file holds Infinity;
  - ``wide``: d(0, 1) = d(1, 0) times 2^31 and d(0, 2) = d(2, 0) times
    2^-1060 (subnormal), an entry past the int32 range beside one that
    underflows;
  - ``negated``: d(0, 1) = d(1, 0) negated, outside the cone;
  - ``one_sided``: d(0, 1) doubled, d(1, 0) kept, not symmetric;
  - ``two_metrics``: the table plus the discrete metric times a second
    dyadic direction of the cone, not parallel to the table's: a cone
    metric whose projected rows are not proportional;
  - ``two_metrics_d3``: that, with d3_once's change;

  and ``table_overflow``: 7 points, d(i, j) = (1e308, 1e308) for i != j,
  under the polyhedral cone of the matrix 2I, whose projection of the
  table overflows.

The box files (``box_<scalar>_<maps>_<class>``) put [0, 1]^2 under the
orthant of R^2 and the direction (1, 2), with the ``max`` or the
``euclidean`` scalar, x0 = (1, 0.5) and grid 5, so their pairs are the
grid's; the maps are T = x with S = x/2 (``half``) or S = 1 - x
(``flip``), or T = x/2 with S = x (``t_half``); the class is TB(0.5) or
TZ(0.1, 0.2, 0.3).  ``box_sampled`` is ``box_max_flip_TB`` at grid 11
with 100 samples, fewer than the grid's 14,641 pairs, so its pairs are
sampled.

Write two checkouts' digests over the same files and ``diff`` them:

    python scripts/digest_files.py /tmp/files
    PYTHONPATH=src python scripts/artifact_digest.py /tmp/files/*.json
"""

import copy
import itertools
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True      # leave the benchmark's directory as it is

import finite_map_files     # noqa: E402
import gen                  # noqa: E402
import workloads            # noqa: E402

FIXTURES = ("instance_a", "instance_c", "instance_d", "instance_d_twu")
SIZES = (6, 12, 24, 48, 80, 144, 200)
BASES = ("fin024_TB_tree", "fin024_TK_tree", "fin200_TB_tree", "fin200_TK_tree")


def _scale(entry: list, factor: float) -> list:
    return [v * factor for v in entry]


def _set(table: list, i: int, j: int, entry: list) -> None:
    table[i][j] = list(entry)
    table[j][i] = list(entry)


def _detour(table: list, i: int, k: int, j: int) -> list:
    """2 (d(i, k) + d(k, j)): longer than the way through k."""
    return [2.0 * (a + b) for a, b in zip(table[i][k], table[k][j])]


def _second_direction(doc: dict) -> list:
    """The first of the cone's directions in ``gen.CONES`` that is not
    parallel to the table's."""
    u = next(entry for row in doc["space"]["metric"]["table"] for entry in row if any(entry))
    return next(list(v) for v in gen.CONES[doc["cone"]["family"]][1] if v[0] * u[1] != v[1] * u[0])


def _variants(table: list, second: list) -> dict:
    out = {name: copy.deepcopy(table) for name in ("d3_once", "d3_twice", "wide", "negated", "one_sided")}
    _set(out["d3_once"], 0, 4, _detour(table, 0, 1, 4))
    _set(out["d3_twice"], 0, 4, _detour(table, 0, 1, 4))
    _set(out["d3_twice"], 2, 5, _detour(table, 2, 3, 5))
    _set(out["wide"], 0, 1, _scale(table[0][1], 2.0 ** 31))
    _set(out["wide"], 0, 2, _scale(table[0][2], 2.0 ** -1060))
    _set(out["negated"], 0, 1, _scale(table[0][1], -1.0))
    out["one_sided"][0][1] = _scale(table[0][1], 2.0)
    for name, factor in (("pi", math.pi), ("third", 1 / 3), ("e1000", 2.0 ** 1000), ("e1018", 2.0 ** 1018)):
        out[name] = [[_scale(entry, factor) for entry in row] for row in table]
    out["two_metrics"] = [[[a + (i != j) * b for a, b in zip(entry, second)] for j, entry in enumerate(row)]
                          for i, row in enumerate(table)]
    out["two_metrics_d3"] = copy.deepcopy(out["two_metrics"])
    _set(out["two_metrics_d3"], 0, 4, _detour(out["two_metrics"], 0, 1, 4))
    return out


def _overflowing_table() -> dict:
    n = 7
    return {
        "schema_version": "1",
        "cone": {"family": "polyhedral", "dimension": 2, "matrix": [[2.0, 0.0], [0.0, 2.0]]},
        "space": {"carrier": {"kind": "finite", "points": list(range(n))},
                  "metric": {"kind": "tabulated",
                             "table": [[[0.0, 0.0] if i == j else [1e308, 1e308] for j in range(n)]
                                       for i in range(n)]}},
        "maps": {"T": {"family": "identity"}, "S": {"family": "identity"}},
        "contraction": {"class": "TB", "a": 0.5},
    }


BOX_MAPS = {
    "half": ({"family": "identity"}, {"family": "affine", "alpha": 0.5}),
    "flip": ({"family": "identity"}, {"family": "affine", "alpha": -1.0, "beta": 1.0}),
    "t_half": ({"family": "affine", "alpha": 0.5}, {"family": "identity"}),
}
BOX_CLASSES = {"TB": {"class": "TB", "a": 0.5}, "TZ": {"class": "TZ", "a": 0.1, "b": 0.2, "c": 0.3}}


def _box(scalar: str, maps: str, kind: str, grid: int = 5, samples: int = 10_000) -> dict:
    T, S = BOX_MAPS[maps]
    return {
        "schema_version": "1",
        "cone": {"family": "orthant", "dimension": 2, "norm": "max"},
        "space": {"carrier": {"kind": "box", "lows": [0.0, 0.0], "highs": [1.0, 1.0], "grid": grid},
                  "metric": {"kind": "direction", "direction": [1.0, 2.0], "scalar": scalar}},
        "maps": {"T": T, "S": S},
        "contraction": BOX_CLASSES[kind],
        "run": {"x0": [1.0, 0.5], "samples": samples},
    }


def files() -> dict:
    """File name (without .json) -> instance document, in writing order."""
    docs = {f"fixture_{name}": gen.fixture(ROOT, name).doc for name in FIXTURES}
    for seed in (0, 1):
        docs.update((f"s{seed}_{i.name}", i.doc) for i in gen.finite_set(seed, SIZES))
    docs.update((f"s0_{i.name}", i.doc) for i in gen.interval_set(0, (21, 41)))
    for seed in (0, 1):
        docs.update((f"s{seed}_{i.name}", i.doc) for i in workloads._picard_instances(seed, smoke=False))
    for base in BASES:
        doc = docs[f"s0_{base}"]
        for name, table in _variants(doc["space"]["metric"]["table"], _second_direction(doc)).items():
            variant = copy.deepcopy(doc)
            variant["space"]["metric"]["table"] = table
            docs[f"table_{base}_{name}"] = variant
    docs["table_overflow"] = _overflowing_table()
    for scalar, maps, kind in itertools.product(("max", "euclidean"), BOX_MAPS, BOX_CLASSES):
        docs[f"box_{scalar}_{maps}_{kind}"] = _box(scalar, maps, kind)
    docs["box_sampled"] = _box("max", "flip", "TB", grid=11, samples=100)
    return docs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, doc in files().items():
        (out / f"{name}.json").write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return finite_map_files.main([str(out)])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
