"""README.md's Python blocks run as written, on the names the package exports."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import mcland

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


def test_package_exports_only_what_its_workflow_imports():
    # README's blocks, the benchmark's `mc.<name>` calls, and the records those calls take
    exported = {name for name, value in vars(mcland).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == {
        "InstanceSpec", "ObjectiveConfig", "SolverConfig", "Method", "default_hyperparams", "random_init", "solve",
        "certify_point", "landscape_scan", "PointClass", "trace_to_csv", "scan_to_csv", "HyperParams", "SgdParams",
        "CertTolerances",
    }


def test_package_import_leaves_the_concentration_module_unloaded():
    # a fresh interpreter, whose first import of mcland is this one
    src = str(Path(mcland.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mcland; print('mcland.concentration' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "False"
