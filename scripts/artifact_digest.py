#!/usr/bin/env python3
"""Fingerprint every CLI command's outputs, and six API results, on instance files.

    python scripts/artifact_digest.py PATH...

Runs verify (default seed, ``--seed 7`` and ``--samples 500``), solve
(default CSV trace, ``--epsilon 1e-9`` with a JSON trace, and ``--x0 0``
with a JSON trace), oracle and fit in-process on each file and prints one line per (file, command): the exit
status (or, when the command raises, the exception's type and the sha256
of its message) and the sha256 of the artifact written with ``--out``, of
stdout and of stderr.  One more line per file hashes the ``repr`` of what the API
returns, which no CLI artifact shows in full:

* ``probe``: ``uniqueness_probe`` from the start points ``solve`` probes,
  and again from 64 seeded draws (``carrier.sample`` with seed 0: carrier
  points on a finite carrier, uniform draws in [lo, hi] as Python floats
  on an interval, rows on a box), a batch wider than the engine's block
  rows (the verdict, the certified points, and each run's stop reason,
  length, points and T-images, then its points, T-images, gap vectors and
  gap norms as plain numbers, floats as their shortest repr);
* ``diagnose``: ``diagnose_T``'s report (each of T's four verdicts, the
  rule that decided it, and the injectivity violations);
* ``condition``: ``check_condition`` of the file's class over the pairs
  ``verify`` checks (every violation's x, y, lhs, rhs and residual, where
  the artifact keeps 50), and on a TZ file the primary and dual forms of
  ``verify_zamfirescu_reduction`` over the same pairs (every violation of
  each, or None for a form not checked);
* ``axioms``: ``verify_cone_axioms``, and ``verify_metric_axioms`` with the
  sample count and seed ``verify`` uses (every violation's axiom, witness
  and residual, where the artifact keeps 50), floats as their shortest
  repr, so every bit counts, the sign of a zero included;
* ``terms``: the six pair-term columns (each one's name, dtype, shape and
  the sha256 of its bytes), so the row gathers and metric products are
  compared bit for bit, not only through the verdicts they lead to: on a
  file with a tabulated metric those of ``FiniteInstance.terms``, on any
  other those of ``pair_terms`` over the pairs ``verify`` checks;
* ``oracle``: on a finite file with a class, ``exhaustive_condition_check``
  (every violating pair), ``tightest_constants`` for TB/TK/TC/TW (every
  witness) and ``exhaustive_reduction_check`` for TZ (every violation),
  where the ``oracle`` artifact keeps 50 of each list; ``()`` otherwise.

On a file with a tabulated metric a ``scan`` line follows: the sha256 of
each of the five masks of ``metric_table_failures``, at slack 0 and at
the cone's slack, on the table and cone the CLI reads before
``FiniteInstance`` validates the table, so a refused table is
fingerprinted in full too (a refused file shows only its first failure);
a file whose space does not build shows the sha256 of its errors.

``scripts/digest_diff.py`` runs it on two checkouts over the same files
and prints the lines that differ.
"""

import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from conefix import cli, cone_space, contractions, oracle, solver

COMMANDS = (
    ("verify", ()),
    ("verify", ("--seed", "7")),
    ("verify", ("--samples", "500")),
    ("solve", ()),
    ("solve", ("--epsilon", "1e-9", "--format", "json")),
    ("solve", ("--x0", "0", "--format", "json")),
    ("oracle", ()),
    ("fit", ()),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digest(path: str, command: str, extra: tuple) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "artifact"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([command, "--instance", path, "--out", str(artifact), *extra])
            except Exception as exc:      # a command that raises is a result too
                code = f"{type(exc).__name__}:{_sha(str(exc).encode())}"
        written = _sha(artifact.read_bytes()) if artifact.exists() else "-"
    label = " ".join((command, *extra))
    return (f"{path} [{label}] exit={code} artifact={written} "
            f"stdout={_sha(out.getvalue().encode())} stderr={_sha(err.getvalue().encode())}")


def _probe(inst, starts: list) -> tuple:
    rule = solver.StoppingRule(epsilon=inst.run.epsilon, max_iter=inst.run.max_iter)
    v = solver.uniqueness_probe(inst.space, inst.maps, starts, rule)
    return v.verdict, v.fixed_point, v.witnesses, [
        (t.stop_reason, t.n_final, t.x_sequence, t.t_images,
         cli._plain([t.x_sequence, t.t_images, t.t_image_gaps, t.gap_norms])) for t in v.traces]


def _api_probe(inst) -> tuple:
    carrier = inst.space.carrier
    drawn = carrier.sample(np.random.default_rng(0), 64)
    drawn = drawn.tolist() if isinstance(carrier, cone_space.IntervalCarrier) else list(drawn)
    return _probe(inst, solver.solve_starts(carrier, inst.run.x0)), _probe(inst, drawn)


def _api_diagnose(inst) -> tuple:
    d = solver.diagnose_T(inst.space, inst.maps)
    verdicts = (d.continuous, d.injective, d.subsequentially_convergent, d.sequentially_convergent)
    return verdicts, d.rules, d.injectivity_violations


def _rows(report) -> list:
    return cli._plain([(v.x, v.y, v.lhs, v.rhs, v.residual) for v in report.violations])


def _api_condition(inst) -> tuple:
    spec = inst.contraction
    if spec is None:
        return ()
    pairs = cli._condition_pairs(inst)
    report = contractions.check_condition(inst.space, inst.maps, spec, pairs)
    if spec.kind != contractions.TZ:
        return report.pairs_checked, _rows(report)
    red = contractions.verify_zamfirescu_reduction(inst.space, inst.maps, spec.a, spec.b, spec.c, pairs)
    forms = [_rows(form) if form is not None else None for form in (red.primary, red.dual)]
    return report.pairs_checked, _rows(report), forms


def _api_axioms(inst) -> tuple:
    reports = (cone_space.verify_cone_axioms(inst.space.cone),
               cone_space.verify_metric_axioms(inst.space, inst.run.samples, inst.run.seed))
    return [(r.axioms_checked, r.sample_count, cli._plain([(v.axiom, v.witness, v.residual) for v in r.violations]))
            for r in reports]


def _api_terms(inst) -> tuple:
    if inst.finite is not None:
        terms = inst.finite.terms
    else:
        terms = contractions.pair_terms(inst.space, inst.maps, cli._condition_pairs(inst))
    columns = [(f.name, getattr(terms, f.name)) for f in dataclasses.fields(terms)]
    return tuple((name, a.dtype.str, a.shape, _sha(a.tobytes())) for name, a in columns)


def _api_oracle(inst) -> tuple:
    fin, spec = inst.finite, inst.contraction
    if fin is None or spec is None:
        return ()
    parts = [oracle.exhaustive_condition_check(fin, spec)]
    if spec.kind in (contractions.TB, contractions.TK, contractions.TC, contractions.TW):
        parts.append(oracle.tightest_constants(fin, spec.kind))
    if spec.kind == contractions.TZ:
        parts.append(oracle.exhaustive_reduction_check(fin, spec.a, spec.b, spec.c))
    return tuple(parts)


def api_digest(path: str) -> str:
    parts = []
    for name, call in (("probe", _api_probe), ("diagnose", _api_diagnose), ("condition", _api_condition),
                       ("axioms", _api_axioms), ("terms", _api_terms), ("oracle", _api_oracle)):
        try:
            text = repr(call(cli.load_instance(path)))
        except Exception as exc:      # an invalid file or a failing run is a result too
            text = f"{type(exc).__name__}: {exc}"
        parts.append(f"{name}={_sha(text.encode())}")
    return f"{path} [api] " + " ".join(parts)


def scan_digest(path: str) -> str | None:
    try:
        doc = cli._decode(Path(path).read_text(encoding="utf-8"), "syntax")
    except cli.InstanceValidationError:      # the api line shows the syntax error
        return None
    space_doc = doc.get("space") if isinstance(doc, dict) else None
    metric = space_doc.get("metric") if isinstance(space_doc, dict) else None
    if not isinstance(metric, dict) or metric.get("kind") != "tabulated":
        return None
    errors: list[str] = []
    built = {"cone": cli._walk(doc.get("cone"), "cone", cli.CONE, errors, {})}
    space = cli._walk(space_doc, "space", cli.INSTANCE.variants[None].required["space"], errors, built)
    if errors:
        return f"{path} [scan] errors={_sha(repr(errors).encode())}"
    parts = []
    for slack in (0.0, space.cone.slack):
        for axiom, mask in cone_space.metric_table_failures(space.metric.table, space.cone, slack).items():
            parts.append(f"{axiom}@{slack!r}={_sha(mask.tobytes())}")
    return f"{path} [scan] " + " ".join(parts)


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        for command, extra in COMMANDS:
            print(digest(path, command, extra), flush=True)
        print(api_digest(path), flush=True)
        scan = scan_digest(path)
        if scan is not None:
            print(scan, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
