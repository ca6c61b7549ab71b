"""Rewrite `manifest.json`, the golden record of the CLI's outputs.

Each case runs `normlab.cli.main` in-process on one config of this directory,
with its own fresh `--out`, and records the exit code, the SHA-256 of stdout
and of stderr, and the name and SHA-256 of every file the run writes.
`tests/test_golden.py` reruns the cases and compares them with the manifest,
so a change that moves any output byte fails tier-1.  The manifest records the
numpy version too: numpy's rounding feeds every number, so under another numpy
the test fails rather than passing on different bytes.

Run this only when outputs are meant to change, and say in the change which
files moved and why; it prints each case whose record changed, with what moved
in it (the exit code, stdout, stderr or an output file by name):

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from normlab.cli import main

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"

# case name -> subcommand, config file of this directory, extra arguments
CASES = {
    "sharp-1d": ["sharp", "sharp-1d.json", "--format", "json"],
    "sharp-2d": ["sharp", "sharp-2d.json", "--format", "csv"],
    "sharp-3d-seed": ["sharp", "sharp-3d.json", "--seed", "5"],
    "scan-1d-ball": ["marty-scan", "scan-1d-ball.json"],
    "scan-2d-polydisc": ["marty-scan", "scan-2d-polydisc.json", "--format", "json"],
    "scan-2d-ball-seed": ["marty-scan", "scan-2d-ball.json", "--seed", "11"],
    "scan-3d-polydisc": ["marty-scan", "scan-3d-polydisc.json", "--format", "csv"],
    "rescale-1d": ["rescale", "rescale-1d.json"],
    "rescale-2d": ["rescale", "rescale-2d.json", "--format", "json"],
    "rescale-flagged": ["rescale", "rescale-flagged.json"],
    # a blow-up along the last axis, which a ring of fewer than 2n points would miss
    "rescale-5d-z5": ["rescale", "rescale-5d-z5.json"],
    "thm2-1d-ball": ["thm2", "thm2-1d-ball.json"],
    "thm2-2d-polydisc": ["thm2", "thm2-2d-polydisc.json", "--format", "csv"],
    "thm2-3d-ball": ["thm2", "thm2-3d-ball.json"],
    "counterexample": ["counterexample", "counterexample.json"],
    "counterexample-seed": ["counterexample", "counterexample.json", "--seed", "3", "--format", "csv"],
    "check-config": ["check-config", "thm2-1d-ball.json"],
    "command-mismatch": ["rescale", "thm2-1d-ball.json"],
    "negative-seed": ["sharp", "sharp-1d.json", "--seed", "-1"],
    "schema-violation": ["sharp", "schema-violation.json"],
    "pole": ["sharp", "pole.json"],
    "thm2-ratio-overflow": ["thm2", "thm2-ratio-overflow.json"],
    # the five known-defect inputs of perfbench/gen.py, rebuilt here
    "nan-point": ["sharp", "nan-point.json"],
    "infinite-radius": ["marty-scan", "infinite-radius.json"],
    "deep-nesting-3000": ["sharp", "deep-nesting-3000.json"],
    "sharp-overflow-exp400": ["sharp", "sharp-overflow-exp400.json"],
    "scan-overflow-to-inf": ["marty-scan", "scan-overflow-to-inf.json"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(case: list[str], out: Path) -> dict:
    """One case through `main`, writing into `out`, as the manifest records it."""
    subcommand, config, *extra = case
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([subcommand, "--config", str(HERE / config), "--out", str(out), *extra])
    files = sorted(out.iterdir()) if out.exists() else []
    return {
        "code": code,
        "stdout": _sha256(stdout.getvalue().encode()),
        "stderr": _sha256(stderr.getvalue().encode()),
        "files": {path.name: _sha256(path.read_bytes()) for path in files},
    }


def manifest(work: Path) -> dict:
    return {
        "numpy": np.__version__,
        "cases": {name: run_case(case, work / name) for name, case in CASES.items()},
    }


def moved(old: dict, new: dict) -> dict[str, list[str]]:
    """Each case whose record differs between two manifests, with what moved
    in it: the exit code, stdout, stderr and the output files by name."""
    out = {}
    for name in sorted(old["cases"].keys() | new["cases"].keys()):
        before, after = old["cases"].get(name), new["cases"].get(name)
        if before is None or after is None:
            out[name] = ["case added" if before is None else "case removed"]
            continue
        parts = [key for key in ("code", "stdout", "stderr") if before[key] != after[key]]
        files = before["files"].keys() | after["files"].keys()
        parts += sorted(f for f in files if before["files"].get(f) != after["files"].get(f))
        if parts:
            out[name] = parts
    return out


if __name__ == "__main__":
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {"cases": {}}
    with tempfile.TemporaryDirectory() as work:
        new = manifest(Path(work))
    MANIFEST.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    if old.get("numpy", np.__version__) != np.__version__:
        print(f"numpy {old['numpy']} -> {np.__version__}")
    for name, parts in moved(old, new).items():
        print(f"{name}: {', '.join(parts)}")
    print(f"wrote {MANIFEST}")
