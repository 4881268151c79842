#!/usr/bin/env python3
"""Write instance files with identity, affine and power maps on finite carriers.

    python scripts/finite_map_files.py OUTDIR

Writes 126 files, one per combination of

* labels: the integers -4..4, the floats 0, 0.25, ..., 2, or the floats
  0, 0.1, 0.3, 0.35, 0.7, 1;
* T: identity, -x or x^2;
* S: identity, -x, x/2, x + 1, x^2, x^-1 or sqrt(x);
* metric: direction (1, 2), or tabulated, d(a, b) = (|a - b|, 2|a - b|),
  with cone slack 0.

Every file has the class TB(0.75), x0 the label at index n // 3 and
max_iter 50.  No map here is tabulated, so each runs point by point on the
carrier's labels; many leave the carrier, fail at a label (x^-1 at 0,
sqrt(x) below 0) or cycle.  Feed the files to ``scripts/artifact_digest.py``.
"""

import itertools
import json
import sys
from pathlib import Path

LABELS = {
    "int": list(range(-4, 5)),
    "quarter": [k / 4 for k in range(9)],
    "uneven": [0.0, 0.1, 0.3, 0.35, 0.7, 1.0],
}
T_MAPS = {
    "id": {"family": "identity"},
    "neg": {"family": "affine", "alpha": -1.0},
    "sq": {"family": "power", "exponent": 2.0},
}
S_MAPS = {
    "id": {"family": "identity"},
    "neg": {"family": "affine", "alpha": -1.0},
    "half": {"family": "affine", "alpha": 0.5},
    "inc": {"family": "affine", "alpha": 1.0, "beta": 1.0},
    "sq": {"family": "power", "exponent": 2.0},
    "inv": {"family": "power", "exponent": -1.0},
    "sqrt": {"family": "power", "exponent": 0.5},
}


def instance(points: list, t_map: dict, s_map: dict, metric: str) -> dict:
    cone = {"family": "orthant", "dimension": 2, "norm": "max"}
    if metric == "direction":
        space_metric = {"kind": "direction", "direction": [1.0, 2.0]}
    else:
        cone["slack"] = 0.0
        table = [[[abs(a - b), 2.0 * abs(a - b)] for b in points] for a in points]
        space_metric = {"kind": "tabulated", "table": table}
    return {
        "schema_version": "1",
        "cone": cone,
        "space": {"carrier": {"kind": "finite", "points": points}, "metric": space_metric},
        "maps": {"T": t_map, "S": s_map},
        "contraction": {"class": "TB", "a": 0.75},
        "run": {"x0": points[len(points) // 3], "max_iter": 50},
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    combos = itertools.product(LABELS.items(), T_MAPS.items(), S_MAPS.items(), ("direction", "tabulated"))
    for (labels, points), (t_name, t_map), (s_name, s_map), metric in combos:
        doc = instance(points, t_map, s_map, metric)
        (out / f"{labels}_T{t_name}_S{s_name}_{metric}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
