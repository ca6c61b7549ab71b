"""List each statement of the normlab package that no test executes.

    python3 tools/line_coverage.py [PYTEST_ARGS...]

Run from anywhere; PYTEST_ARGS default to pytest's own (`testpaths`).  The
tests run under pytest in a child process, with `src` first on its path and a
`sys.settrace` hook that traces only frames whose code lies under
`src/normlab`, so the rest of the run pays no line events.  Afterwards every
statement of the package whose line emitted no line event is printed as
`path:line  text`, in file and line order, and the exit status is pytest's.
Hypothesis deadlines are off in the traced run, since tracing slows every
example.

A statement is the first line of an `ast.stmt` on which the compiled module
places an instruction; a function's docstring, for one, places none.  Only
the traced process is seen: a line that only a subprocess reaches (a
`python -m normlab.cli` run in a test, such as the `__main__` guard of
`cli.py`) is listed too.  No coverage package is needed.  Tracing makes the
suite about two to three times slower.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "normlab"

# Runs in the child: argv is the package directory, the output file, then
# pytest's arguments.  The hook is set before pytest imports anything of the
# package, so module bodies are traced too.
_CHILD = """
import json, sys, threading
package, out, args = sys.argv[1], sys.argv[2], sys.argv[3:]
hit = {}

def local(frame, event, arg):
    if event == "line":
        hit[frame.f_code.co_filename].add(frame.f_lineno)
    return local

def call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(package):
        return None
    hit.setdefault(name, set())
    return local

class NoDeadlines:  # tracing slows every example past hypothesis's deadline
    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("traced", deadline=None)
        settings.load_profile("traced")

sys.settrace(call)
threading.settrace(call)
import pytest
code = pytest.main(args, plugins=[NoDeadlines])
sys.settrace(None)
threading.settrace(None)
with open(out, "w") as fh:
    json.dump({name: sorted(lines) for name, lines in hit.items()}, fh)
sys.exit(int(code))
"""


def _code_lines(code) -> set[int]:
    """The lines that the instructions of `code` and its nested code sit on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list[int]:
    """The first line of each statement of the file that can run."""
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    return sorted(starts & _code_lines(compile(source, str(path), "exec")))


def main(argv: list[str]) -> int:
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "lines.json")
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, str(PACKAGE) + os.sep, str(out), *argv], cwd=ROOT, env=env
        )
        if not out.exists():
            return done.returncode or 1
        hit = {Path(name).resolve(): set(lines) for name, lines in json.loads(out.read_text()).items()}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in statements(path):
            if line not in hit.get(path.resolve(), ()):
                print(f"{path.relative_to(ROOT)}:{line}  {text[line - 1].strip()}")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
