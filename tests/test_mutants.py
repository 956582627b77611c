"""The committed mutant list stays applicable: `tools/mutants.py` finds each mutant by its text."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_names_text_that_occurs_once():
    mutants = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))
    assert mutants
    for path, old, new in mutants:
        assert old != new, old
        assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1, (path, old)
