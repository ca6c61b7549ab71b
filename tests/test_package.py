import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import normlab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "normlab"

# functions that no CLI run, demo or README example enters, each with the
# reason it stays in the package
UNREAD = {
    "expr.evaluate_jet": "not exported; perfbench's span test calls it and its trace names it (ROADMAP item 1)",
    "metrics.levi_log1p_closed": "not exported; perfbench's span test calls it and its trace names it (ROADMAP item 1)",
}

# Profiles every call from before `import normlab` on, through every golden
# case of tests/golden/regen.py, every demo and every python block of the
# README, and prints the (file, first line) of each code object entered.
_PROBE = """
import json, runpy, sys
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
import contextlib, importlib.util, io, pathlib, re
root, package = pathlib.Path(sys.argv[1]), sys.argv[2]
spec = importlib.util.spec_from_file_location("golden_regen", root / "tests" / "golden" / "regen.py")
regen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(regen)
with contextlib.redirect_stdout(io.StringIO()):
    for name, case in regen.CASES.items():
        regen.run_case(case, pathlib.Path(name))
    for demo in sorted((root / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    for block in re.findall(r"^```python\\n(.*?)^```$", (root / "README.md").read_text(), re.M | re.S):
        exec(block, {"__name__": "__main__"})
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in entered if c.co_filename.startswith(package)})))
"""


def _defs(node, prefix):
    """(first line, qualified name) of each def below an ast node; a decorated
    def's code starts at its first decorator."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield min([child.lineno, *(d.lineno for d in child.decorator_list)]), name
        yield from _defs(child, name)


def test_all_lists_every_public_name_once_in_order():
    # submodules (imported by the package or by a caller) are not part of the surface
    public = [name for name, value in vars(normlab).items() if not name.startswith("_") and not inspect.ismodule(value)]
    assert normlab.__all__ == sorted(public)


def test_every_package_function_runs_in_a_cli_demo_or_readme_run(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT), str(PACKAGE)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(item) for item in json.loads(proc.stdout.splitlines()[-1])}
    functions = {
        (str(path), line): name
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _defs(ast.parse(path.read_text()), path.stem)
    }
    missed = sorted(name for key, name in functions.items() if key not in entered)
    assert missed == sorted(UNREAD), missed
