"""README.md's Python blocks run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    # the quickstart, then the scan, which reuses the quickstart's names
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    classification, recovery_fro = capsys.readouterr().out.split()
    assert classification == "GlobalMin"
    assert float(recovery_fro) <= 1e-8  # the quickstart's comment: about 3e-09, the run stops at grad_tol
