"""The byte-identity contract: every golden case of `tests/golden/` gives the
exit code, stdout, stderr and output files recorded in its manifest."""

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_cli_outputs_match_the_golden_manifest(tmp_path):
    manifest = json.loads(regen.MANIFEST.read_text())
    assert manifest["numpy"] == np.__version__, (
        f"the golden manifest was made under numpy {manifest['numpy']}, and this is numpy "
        f"{np.__version__}; numpy's rounding feeds every output number, so rerun "
        "tests/golden/regen.py on purpose and review the manifest diff"
    )
    assert manifest["numpy_dispatch"] == regen.dispatch_group(), (
        f"the golden manifest was made under numpy's {manifest['numpy_dispatch']} dispatch group, and "
        f"numpy runs {regen.dispatch_group()} here; the SIMD loops of each group round exp, log and "
        "complex products in their own way, so run tests/golden/regen.py under this group on purpose "
        "and review the manifest diff"
    )
    assert manifest["cases"].keys() == regen.CASES.keys()
    configs = {path.name for path in GOLDEN.glob("*.json")} - {regen.MANIFEST.name}
    assert configs == {case[1] for case in regen.CASES.values()}  # no config left unused
    moved = {
        name: (got, manifest["cases"][name])
        for name, case in regen.CASES.items()
        if (got := regen.run_case(case, tmp_path / name)) != manifest["cases"][name]
    }
    assert not moved, f"outputs moved (got, recorded): {moved}"
    assert {record["code"] for record in manifest["cases"].values()} == {0, 2, 3, 4}


def test_regen_names_the_cases_and_files_that_moved():
    manifest = json.loads(regen.MANIFEST.read_text())
    assert regen.moved(manifest, manifest) == {}
    changed = copy.deepcopy(manifest)
    changed["cases"]["sharp-3d"]["code"] = 3
    changed["cases"]["sharp-3d"]["files"]["sharp.csv"] = "0" * 64
    del changed["cases"]["pole"]
    assert regen.moved(manifest, changed) == {"pole": ["case removed"], "sharp-3d": ["code", "sharp.csv"]}
