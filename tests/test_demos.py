import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_python(tmp_path, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    _run_python(tmp_path, str(demo))


def test_readme_python_blocks_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        _run_python(tmp_path, "-c", block)


def test_readme_qualified_names_resolve():
    # each backticked `module.name` (or `normlab.module.name`, or a call of
    # one) names an attribute of normlab.<module>; file names such as
    # `expr.py` are not names
    modules = {path.stem for path in (ROOT / "src" / "normlab").glob("*.py")}
    found = re.findall(r"`(?:normlab\.)?(\w+)\.(\w+)(?:\([^`]*\))?`", (ROOT / "README.md").read_text())
    names = [(module, name) for module, name in found if module in modules and name not in {"py", "json", "csv"}]
    assert names
    stale = [f"{module}.{name}" for module, name in names
             if not hasattr(importlib.import_module(f"normlab.{module}"), name)]
    assert not stale
