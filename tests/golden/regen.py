"""Rewrite `manifest.json`, the golden record of the CLI's outputs.

Each case runs `normlab.cli.main` in-process on one config of this directory,
with its own fresh `--out`, and records the exit code, the SHA-256 of stdout
and of stderr, and the name and SHA-256 of every file the run writes.
`tests/test_golden.py` reruns the cases and compares them with the manifest,
so a change that moves any output byte fails tier-1.  The manifest records the
numpy version too: numpy's rounding feeds every number, so under another numpy
the test fails rather than passing on different bytes.  It holds one set of
records per x86-64 dispatch group of numpy (`dispatch_group`), since the SIMD
loops numpy picks at import round `exp`, `log` and complex products differently
from one group to the next, and the test compares with the set of the group it
runs under.  Each set is computed in a child process whose numpy is forced to
that group (`FORCED`); a group the host cannot reach gets no set.

Run this only when outputs are meant to change, and say in the change which
files moved and why; it prints each case whose record changed, by group, with
what moved in it (the exit code, stdout, stderr or an output file by name):

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from normlab.cli import main

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"

# numpy's x86-64 dispatch groups that a child process is forced to, each with
# the features that NPY_DISABLE_CPU_FEATURES turns off there; numpy runs a host
# without a group's features in a lower group
FORCED = {
    "X86_V4": "",
    "X86_V3": "AVX512_SPR AVX512_ICL X86_V4",
    "X86_V2": "AVX512_SPR AVX512_ICL X86_V4 X86_V3",
}

# case name -> subcommand, config file of this directory, extra arguments
CASES = {
    "sharp-1d": ["sharp", "sharp-1d.json", "--format", "json"],
    "sharp-2d": ["sharp", "sharp-2d.json", "--format", "csv"],
    "sharp-3d": ["sharp", "sharp-3d.json"],
    "scan-1d-ball": ["marty-scan", "scan-1d-ball.json"],
    "scan-2d-polydisc": ["marty-scan", "scan-2d-polydisc.json", "--format", "json"],
    "scan-2d-ball": ["marty-scan", "scan-2d-ball.json"],
    "scan-3d-polydisc": ["marty-scan", "scan-3d-polydisc.json", "--format", "csv"],
    # the bench's scan shape, 8 shells x 32 points x 4 directions: a report
    # with enough distinct floats to take the writer's vectorized printer
    "scan-2d-ball-1024": ["marty-scan", "scan-2d-ball-1024.json"],
    "rescale-1d": ["rescale", "rescale-1d.json"],
    "rescale-2d": ["rescale", "rescale-2d.json", "--format", "json"],
    "rescale-flagged": ["rescale", "rescale-flagged.json"],
    # a blow-up along the last axis, which a ring of fewer than 2n points would miss
    "rescale-5d-z5": ["rescale", "rescale-5d-z5.json"],
    "thm2-1d-ball": ["thm2", "thm2-1d-ball.json"],
    "thm2-2d-polydisc": ["thm2", "thm2-2d-polydisc.json", "--format", "csv"],
    "thm2-3d-ball": ["thm2", "thm2-3d-ball.json"],
    # the paper's Remark: a constant limit while rho_j / delta_j = j diverges,
    # so both ratio flags are raised (exit 4)
    "thm2-remark": ["thm2", "thm2-remark.json"],
    "counterexample": ["counterexample", "counterexample.json"],
    "counterexample-csv": ["counterexample", "counterexample.json", "--format", "csv"],
    "check-config": ["check-config", "thm2-1d-ball.json"],
    "command-mismatch": ["rescale", "thm2-1d-ball.json"],
    "negative-seed": ["sharp", "negative-seed.json"],
    "schema-violation": ["sharp", "schema-violation.json"],
    "pole": ["sharp", "pole.json"],
    "thm2-ratio-overflow": ["thm2", "thm2-ratio-overflow.json"],
    # finite values of g_1 and g_2 whose difference passes the float range
    "thm2-gap-overflow": ["thm2", "thm2-gap-overflow.json"],
    # the five known-defect inputs of perfbench/gen.py, rebuilt here
    "nan-point": ["sharp", "nan-point.json"],
    "infinite-radius": ["marty-scan", "infinite-radius.json"],
    "deep-nesting-3000": ["sharp", "deep-nesting-3000.json"],
    "sharp-overflow-exp400": ["sharp", "sharp-overflow-exp400.json"],
    "scan-overflow-to-inf": ["marty-scan", "scan-overflow-to-inf.json"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dispatch_group() -> str | None:
    """numpy's x86-64 dispatch group in this process: the highest `X86_V*`
    feature its runtime dispatch has on (`X86_V4` on an AVX-512 host, lower
    where `NPY_DISABLE_CPU_FEATURES` turns it off), or None off x86.  The
    group, not the top target: output bits were seen to move only across
    the V4, V3 and V2 groups."""
    from numpy._core._multiarray_umath import __cpu_features__

    groups = [name for name, on in __cpu_features__.items() if on and name.startswith("X86_V")]
    return max(groups, key=lambda name: int(name.removeprefix("X86_V")), default=None)


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


def records(work: Path) -> dict:
    """Every case's record, each case writing into its own folder of `work`."""
    return {name: run_case(case, work / name) for name, case in CASES.items()}


def group_records() -> dict[str, dict]:
    """The records of every case under each dispatch group of `FORCED` that a
    child process reaches, by the group numpy reports there.  A child imports
    modules from this process's path, so it runs the same normlab."""
    sets = {}
    for disabled in FORCED.values():
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "NPY_DISABLE_CPU_FEATURES": disabled}
        child = subprocess.run([sys.executable, __file__, "--records"], env=env, capture_output=True, text=True)
        if child.returncode:
            print(f"no records with {disabled!r} turned off: {child.stderr.strip()}")
            continue
        result = json.loads(child.stdout)
        sets.setdefault(str(result["group"]), result["cases"])
    return sets


def moved(old: dict, new: dict) -> dict[str, list[str]]:
    """Each case whose record differs between two sets of records, with what
    moved in it: the exit code, stdout, stderr and the output files by name."""
    out = {}
    for name in sorted(old.keys() | new.keys()):
        before, after = old.get(name), new.get(name)
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
    if sys.argv[1:] == ["--records"]:  # a child of group_records, under its forced group
        with tempfile.TemporaryDirectory() as work:
            print(json.dumps({"group": dispatch_group(), "cases": records(Path(work))}))
        sys.exit()
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    new = {"numpy": np.__version__, "groups": group_records()}
    MANIFEST.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    if old.get("numpy", np.__version__) != np.__version__:
        print(f"numpy {old['numpy']} -> {np.__version__}")
    before, after = old.get("groups", {}), new["groups"]
    for group in sorted(before.keys() | after.keys()):
        if group not in before or group not in after:
            print(f"{group}: set {'added' if group not in before else 'removed'}")
            continue
        for name, parts in moved(before[group], after[group]).items():
            print(f"{group} {name}: {', '.join(parts)}")
    print(f"wrote {MANIFEST}")
