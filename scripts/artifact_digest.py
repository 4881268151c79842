#!/usr/bin/env python3
"""Fingerprint every CLI command's outputs on instance files.

    python scripts/artifact_digest.py PATH...

Runs verify (default seed, ``--seed 7`` and ``--samples 500``), solve
(default CSV trace, and ``--epsilon 1e-9`` with a JSON trace), oracle and
fit in-process on each file and prints one line per (file, command): the exit
status and the sha256 of the artifact written with ``--out``, of stdout
and of stderr.  Run it on two checkouts (``PYTHONPATH=<checkout>/src``)
and ``diff`` the outputs to confirm the artifacts are byte-identical.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from conefix import cli

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


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        for command, extra in COMMANDS:
            print(digest(path, command, extra), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
