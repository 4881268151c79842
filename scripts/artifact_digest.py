#!/usr/bin/env python3
"""Fingerprint every CLI command's outputs, and two API results, on instance files.

    python scripts/artifact_digest.py PATH...

Runs verify (default seed, ``--seed 7`` and ``--samples 500``), solve
(default CSV trace, and ``--epsilon 1e-9`` with a JSON trace), oracle and
fit in-process on each file and prints one line per (file, command): the exit
status and the sha256 of the artifact written with ``--out``, of stdout
and of stderr.  One more line per file hashes the ``repr`` of what the API
returns, which no CLI artifact shows in full: ``uniqueness_probe`` from the
start points ``solve`` probes (the verdict, the certified points, and each
run's stop reason, length and points), ``diagnose_T`` with its default
probes (the injectivity violations and the sequence findings), and
``check_condition`` of the file's class over the pairs ``verify`` checks
(every violation's x, y, lhs, rhs and residual, where the artifact keeps
50).  Run it on
two checkouts (``PYTHONPATH=<checkout>/src``) and ``diff`` the outputs to
confirm the results are byte-identical.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from conefix import cli, contractions, solver

COMMANDS = (
    ("verify", ()),
    ("verify", ("--seed", "7")),
    ("verify", ("--samples", "500")),
    ("solve", ()),
    ("solve", ("--epsilon", "1e-9", "--format", "json")),
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
            code = cli.main([command, "--instance", path, "--out", str(artifact), *extra])
        written = _sha(artifact.read_bytes()) if artifact.exists() else "-"
    label = " ".join((command, *extra))
    return (f"{path} [{label}] exit={code} artifact={written} "
            f"stdout={_sha(out.getvalue().encode())} stderr={_sha(err.getvalue().encode())}")


def _api_probe(inst) -> tuple:
    starts = [s for s in cli._default_starts(inst, inst.run.x0) if s is not None]
    rule = solver.StoppingRule(epsilon=inst.run.epsilon, max_iter=inst.run.max_iter)
    v = solver.uniqueness_probe(inst.space, inst.maps, starts, rule)
    return v.verdict, v.fixed_point, v.witnesses, [
        (t.stop_reason, t.n_final, t.x_sequence) for t in v.traces]


def _api_diagnose(inst) -> tuple:
    d = solver.diagnose_T(inst.space, inst.maps)
    return d.injectivity_violations, d.sequence_findings


def _api_condition(inst) -> tuple:
    if inst.contraction is None:
        return ()
    report = contractions.check_condition(inst.space, inst.maps, inst.contraction, cli._condition_pairs(inst))
    return report.pairs_checked, cli._plain([(v.x, v.y, v.lhs, v.rhs, v.residual) for v in report.violations])


def api_digest(path: str) -> str:
    parts = []
    for name, call in (("probe", _api_probe), ("diagnose", _api_diagnose), ("condition", _api_condition)):
        try:
            text = repr(call(cli.load_instance(path)))
        except Exception as exc:      # an invalid file or a failing run is a result too
            text = f"{type(exc).__name__}: {exc}"
        parts.append(f"{name}={_sha(text.encode())}")
    return f"{path} [api] " + " ".join(parts)


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        for command, extra in COMMANDS:
            print(digest(path, command, extra), flush=True)
        print(api_digest(path), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
