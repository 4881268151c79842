#!/usr/bin/env python3
"""Compare the artifact digest of a revision with the working tree's.

    python scripts/digest_diff.py [REV]

Writes the 332 files of ``scripts/digest_files.py`` once, into a temporary
directory.  Extracts REV's (default ``HEAD``) ``src/`` and ``scripts/``
beside them with ``git archive``, so the working tree, the index and the
refs stay as they are.  Runs each side's own ``scripts/artifact_digest.py``
on the same files, with that side's ``src/`` on ``PYTHONPATH``, the two
side by side.  Prints each (file, command) line that differs, REV's with
``-`` and the working tree's with ``+``, then a count per command.  Exits 0
when the digests are identical, 1 when they differ, 2 when a side fails.
"""

import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digest(checkout: Path, files: list[str], out: Path) -> subprocess.Popen:
    """Start ``checkout``'s digest of ``files``, its stdout and stderr into
    ``out`` and ``out.err`` (a pipe left unread would stall it)."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with open(out, "w") as stdout, open(f"{out}.err", "w") as stderr:
        return subprocess.Popen([sys.executable, str(checkout / "scripts" / "artifact_digest.py"), *files],
                                stdout=stdout, stderr=stderr, env=env)


def _keyed(text: str, prefix: str) -> dict:
    """Digest line by its ``file [command]`` head, the directory dropped."""
    lines = (line.removeprefix(prefix) for line in text.splitlines())
    return {line.split("] ", 1)[0] + "]": line for line in lines}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        files_dir, old = Path(tmp) / "files", Path(tmp) / "rev"
        subprocess.run([sys.executable, str(ROOT / "scripts" / "digest_files.py"), str(files_dir)], check=True)
        old.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src", "scripts"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(old)], input=archive, check=True)
        files = sorted(str(p) for p in files_dir.glob("*.json"))
        outs = [Path(tmp) / "rev.txt", Path(tmp) / "tree.txt"]
        runs = [_digest(old, files, outs[0]), _digest(ROOT, files, outs[1])]
        for code, out, side in zip([run.wait() for run in runs], outs, (rev, "the working tree")):
            if code:
                print(f"digest failed at {side}, exit {code}:\n{Path(f'{out}.err').read_text()}", file=sys.stderr)
                return 2
        before, after = (_keyed(out.read_text(), f"{files_dir}{os.sep}") for out in outs)
    counts: Counter = Counter()
    for key in [*before, *(k for k in after if k not in before)]:
        if before.get(key) != after.get(key):
            counts[key.rsplit(" [", 1)[1][:-1]] += 1
            for sign, side in (("-", before), ("+", after)):
                if key in side:
                    print(f"{sign} {side[key]}")
    print(f"{len(files)} files, {len(after)} lines; {sum(counts.values())} differ from {rev}"
          + "".join(f"\n  [{command}]: {n}" for command, n in sorted(counts.items())))
    return 1 if counts else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
