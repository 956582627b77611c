"""Run the Tier-1 suite against each one-line mutant of the decision code.

`tools/mutants.json` lists the mutants as (file, old text, replacement)
triples; each old text occurs exactly once in its file, which
`tests/test_mutants.py` checks.  For each mutant this script copies the
repository to a temporary directory, replaces the old text there, and runs
the Tier-1 suite on the copy, one pytest process at a time, less
`tests/test_mutants.py`, which fails on any mutated copy.  A mutant is
killed when the suite fails; the line it prints names the failing tests.

    python tools/mutants.py            # every mutant
    python tools/mutants.py 4 8        # the mutants at these list indices

Exits 1 when a mutant survives.  It is not part of Tier-1: a full run takes
one Tier-1 run per mutant.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tools" / "mutants.json"
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "results")


def run(index, path, old, new):
    """(killed, names of the failing tests) of the Tier-1 suite on a copy with one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"mutant {index}: the old text occurs {text.count(old)} times in {path}")
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        # without tests/test_mutants.py, which fails on every mutated copy
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
        out = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", out.stdout, flags=re.M)
    return out.returncode != 0, failed


def main(argv):
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    indices = [int(a) for a in argv] or range(len(mutants))
    survivors = 0
    for k in indices:
        path, old, new = mutants[k]
        killed, failed = run(k, path, old, new)
        survivors += not killed
        verdict = f"killed by {', '.join(failed) or 'a failing run'}" if killed else "SURVIVED"
        print(f"{k:2d} {path}: {old.strip()!r} -> {new.strip()!r}: {verdict}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
