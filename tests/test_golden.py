"""The byte-identity contract: every golden case of `tests/golden/` gives the
exit code, stdout, stderr and output files recorded in its manifest, in the
set of records of numpy's dispatch group here."""

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def _printed(cases: dict) -> dict:
    """Each case's exit code and the hashes of its stdout and stderr."""
    return {name: (record["code"], record["stdout"], record["stderr"]) for name, record in cases.items()}


def test_cli_outputs_match_the_golden_manifest(tmp_path):
    manifest = json.loads(regen.MANIFEST.read_text())
    assert manifest["numpy"] == np.__version__, (
        f"the golden manifest was made under numpy {manifest['numpy']}, and this is numpy "
        f"{np.__version__}; numpy's rounding feeds every output number, so rerun "
        "tests/golden/regen.py on purpose and review the manifest diff"
    )
    group = str(regen.dispatch_group())
    assert group in manifest["groups"], (
        f"the golden manifest holds records for numpy's {', '.join(sorted(manifest['groups']))} dispatch "
        f"groups, and numpy runs {group} here; the SIMD loops of each group round exp, log and complex "
        f"products in their own way, so run tests/golden/regen.py on a host that reaches {group} and "
        "review the manifest diff"
    )
    configs = {path.name for path in GOLDEN.glob("*.json")} - {regen.MANIFEST.name}
    assert configs == {case[1] for case in regen.CASES.values()}  # no config left unused
    cases = manifest["groups"][group]
    assert cases.keys() == regen.CASES.keys()
    for other in manifest["groups"].values():  # only output files differ from group to group
        assert _printed(other) == _printed(cases)
    moved = {
        name: (got, cases[name])
        for name, case in regen.CASES.items()
        if (got := regen.run_case(case, tmp_path / name)) != cases[name]
    }
    assert not moved, f"outputs moved (got, recorded): {moved}"
    assert {record["code"] for record in cases.values()} == {0, 2, 3, 4}


def test_every_dispatch_group_reached_here_matches_its_records():
    # regen's own children, one per group that numpy can be forced to here
    groups = json.loads(regen.MANIFEST.read_text())["groups"]
    reached = regen.group_records()
    assert reached
    for group, cases in reached.items():
        assert group in groups, f"the golden manifest holds no records for numpy's {group} dispatch group"
        moved = regen.moved(groups[group], cases)
        assert not moved, f"outputs moved under {group}: {moved}"


def test_regen_names_the_cases_and_files_that_moved():
    cases = json.loads(regen.MANIFEST.read_text())["groups"]["X86_V4"]
    assert regen.moved(cases, cases) == {}
    changed = copy.deepcopy(cases)
    changed["sharp-3d"]["code"] = 3
    changed["sharp-3d"]["files"]["sharp.csv"] = "0" * 64
    del changed["pole"]
    assert regen.moved(cases, changed) == {"pole": ["case removed"], "sharp-3d": ["code", "sharp.csv"]}
