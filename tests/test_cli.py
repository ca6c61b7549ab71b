import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from normlab import Ball, DimensionMismatchError, parse
from normlab import config as cfg_module
from normlab.cli import _BLOCK_FLOATS, _csv, _json, _records_json, main
from normlab.config import SCHEMAS, point_to_json
from normlab.metrics import NormalityEstimate, SamplingPlan, normality_scan, sample_dtype, sharp_batch, sharp_fd
from normlab.rescaling import ConvergenceReport, SharpProfile
from test_config import _perfbench

DISC = {"type": "ball", "center": [[0.0, 0.0]], "radius": 1.0}
GOLDEN = Path(__file__).resolve().parent / "golden"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, command, config, outdir="out", extra=()):
    cfg = _write(tmp_path, f"{command}.json", config)
    out = tmp_path / outdir
    return main([command, "--config", cfg, "--out", str(out), *extra]), out


# The benchmark refuses a run whose outputs break its checks (a k_lower above
# k_upper, a verdict flip on a normal family, a sharp_fd above the closed
# form), but only when it runs; one cycle of each compute workload's tasks,
# through main and the benchmark's own checker, shows such a change here.
@pytest.mark.parametrize("workload", ["scan", "oracle", "rescale"])
def test_bench_tasks_pass_the_bench_checks(tmp_path, capsys, workload):
    gen, check = _perfbench("gen"), _perfbench("check")
    pool = gen.workload(workload, 31)
    for k, task in enumerate(pool["tasks"][: pool["cycle"]]):
        (tmp_path / str(k)).mkdir()
        code, out = _run(tmp_path / str(k), task["command"], task["config"])
        captured = capsys.readouterr()
        check.check_task(task, code, captured.out, captured.err, out)


def test_sharp_command(tmp_path):
    config = {
        "command": "sharp",
        "function": "z1",
        "dimension": 1,
        "points": [[[0.0, 0.0]], [[0.5, 0.0]]],
    }
    code, out = _run(tmp_path, "sharp", config)
    assert code == 0
    rows = (out / "sharp.csv").read_text().strip().splitlines()
    assert rows[0] == "point,sharp_closed,sharp_fd,rel_dev"
    assert float(rows[1].split(",")[1]) == 1.0
    payload = json.loads((out / "sharp.json").read_text())
    assert payload["rows"][0]["sharp_closed"] == 1.0


def test_sharp_constant_all_zero(tmp_path):
    config = {
        "command": "sharp",
        "function": "3",
        "dimension": 1,
        "points": [[[0.0, 0.0]], [[0.3, 0.4]]],
    }
    code, out = _run(tmp_path, "sharp", config)
    assert code == 0
    payload = json.loads((out / "sharp.json").read_text())
    assert all(r["sharp_closed"] == 0.0 and r["sharp_fd"] == 0.0 for r in payload["rows"])


def test_sharp_product_point(tmp_path):
    config = {
        "command": "sharp",
        "function": "z1*z2",
        "dimension": 2,
        "points": [[[1.0, 0.0], [1.0, 0.0]]],
    }
    code, out = _run(tmp_path, "sharp", config)
    assert code == 0
    row = json.loads((out / "sharp.json").read_text())["rows"][0]
    assert row["sharp_closed"] == pytest.approx(math.sqrt(2) / 2, abs=1e-6)
    assert row["rel_dev"] <= 1e-3


def test_marty_scan_identity(tmp_path):
    config = {
        "command": "marty-scan",
        "function": "z1",
        "dimension": 1,
        "domain": DISC,
        "plan": {
            "shells": [1.0, 0.5, 0.25, 0.125],
            "points_per_shell": 6,
            "directions_per_point": 6,
            "seed": 0,
        },
    }
    code, out = _run(tmp_path, "marty-scan", config)
    assert code == 0
    payload = json.loads((out / "marty_scan.json").read_text())
    assert payload["c_required_lower_bound"] == pytest.approx(1.0, abs=1e-6)
    assert payload["verdict"] == "bounded-consistent"
    trend = (out / "marty_trend.csv").read_text().strip().splitlines()
    assert trend[0] == "shell,max_ratio_lower,min_boundary_distance"
    assert len(trend) == 5


def test_marty_scan_divergent(tmp_path):
    shells = [1.0 / (2 * math.pi * j) for j in (1, 2, 4, 8, 16, 32)]
    config = {
        "command": "marty-scan",
        "function": "sin(1/(1-z1))",
        "dimension": 1,
        "domain": DISC,
        "plan": {"shells": shells, "points_per_shell": 4, "directions_per_point": 4},
    }
    code, out = _run(tmp_path, "marty-scan", config)
    assert code == 0
    payload = json.loads((out / "marty_scan.json").read_text())
    assert payload["verdict"] == "divergent"


def _rescale_config():
    return {
        "command": "rescale",
        "function": "sin(1/(1-z1))",
        "dimension": 1,
        "domain": DISC,
        "sequence": {
            "anchor": [[1.0, 0.0]],
            "inward": [[-1.0, 0.0]],
            "c_p": 1 / (2 * math.pi),
            "a": 1.0,
            "j_start": 2,
            "j_end": 30,
        },
        "R": 1.0,
        "grid_size": 64,
        "tol": 1e-3,
        "seed": 0,
    }


def test_rescale_end_to_end(tmp_path):
    code, out = _run(tmp_path, "rescale", _rescale_config())
    assert code == 0
    payload = json.loads((out / "rescale.json").read_text())
    assert payload["verdict"] == "nonconstant-limit"
    assert payload["sharp_profile"]["passed"] is True
    rows = (out / "rescale_run.csv").read_text().strip().splitlines()
    assert rows[0] == "j,abs_z_j,delta_j,rho_j,ratio,osc_j,cauchy_gap_j"
    assert len(rows) == 30  # header + 29 indices


def test_rescale_hypothesis_flag_exit_code(tmp_path):
    config = _rescale_config()
    config["function"] = "z1"  # rho_j -> 2, not 0
    code, out = _run(tmp_path, "rescale", config)
    assert code == 4
    payload = json.loads((out / "rescale.json").read_text())
    assert "rho-not-decreasing" in payload["hypothesis_flags"]


def test_thm2_command(tmp_path):
    config = {
        "command": "thm2",
        "function": "z1",
        "dimension": 1,
        "domain": DISC,
        "sequence": {
            "anchor": [[1.0, 0.0]],
            "inward": [[-1.0, 0.0]],
            "c_p": 1.0,
            "a": 1.0,
            "c_r": 1.0,
            "b": 2.0,
            "j_start": 2,
            "j_end": 50,
        },
        "R": 1.0,
        "grid_size": 64,
        "tol": 1e-3,
    }
    code, out = _run(tmp_path, "thm2", config)
    assert code == 0
    payload = json.loads((out / "thm2.json").read_text())
    assert payload["verdict"] == "constant-limit"


# the paper's Remark as a thm2 run: f(z) = z on the unit disc, z_j = 1 - j^-3
# and rho_j = j^-2; the limit is constant while rho_j / delta_j = j diverges
def test_thm2_remark_reads_a_constant_limit_with_both_ratio_flags(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["thm2", "--config", str(GOLDEN / "thm2-remark.json"), "--out", str(out)])
    assert code == 4 and capsys.readouterr().err == ""
    payload = json.loads((out / "thm2.json").read_text())
    assert payload["verdict"] == "constant-limit"
    assert payload["hypothesis_flags"] == ["ratio-not-decreasing", "final-ratio-not-small"]
    with open(out / "thm2_run.csv", newline="") as file:
        rows = list(csv.DictReader(file))
    j = np.array([float(row["j"]) for row in rows])
    assert j.tolist() == list(range(1, 51))
    # the ratio is j up to the rounding of 1 - j^-3
    np.testing.assert_allclose([float(row["ratio"]) for row in rows], j, rtol=1e-10, atol=0)


# the Remark printed from its explicit run: g_n(zeta) = 1 - n^-3 + n^-2 zeta
def test_counterexample_command(tmp_path):
    config = {"command": "counterexample", "n_max": 40, "R": 1.0}
    code, out = _run(tmp_path, "counterexample", config)
    assert code == 0
    payload = json.loads((out / "counterexample.json").read_text())
    assert set(payload) == {"indices", "ratios", "sup_dev", "bounds", "radius", "convergence_verdict", "verdict"}
    assert payload["convergence_verdict"] == "constant-limit"
    assert payload["verdict"] == "constant-limit-with-divergent-ratio"
    assert payload["ratios"][:3] == [1.0, 2.0, 3.0]
    rows = (out / "counterexample.csv").read_text().strip().splitlines()
    assert rows[0] == "n,ratio,sup_dev,bound"
    assert len(rows) == 41


def test_check_config(tmp_path, capsys):
    cfg = _write(tmp_path, "ok.json", _rescaling_config("thm2"))
    assert main(["check-config", "--config", cfg]) == 0
    assert capsys.readouterr().out == "config valid for command 'thm2'\n"


def test_config_unknown_key_rejected(tmp_path, capsys):
    config = {**_rescaling_config("thm2"), "bogus": 1}
    code, _ = _run(tmp_path, "thm2", config)
    assert code == 2
    assert capsys.readouterr().err == "config error: config schema violation: $: unknown key(s) 'bogus'\n"


def test_config_missing_field_rejected(tmp_path):
    code, _ = _run(tmp_path, "sharp", {"command": "sharp", "function": "z1"})
    assert code == 2


def test_config_command_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, "mismatch.json", _rescaling_config("thm2"))
    assert main(["sharp", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: config is for 'thm2', invoked as 'sharp'\n"


def test_evaluation_error_exit_code(tmp_path):
    config = {
        "command": "sharp",
        "function": "1/z1",
        "dimension": 1,
        "points": [[[0.0, 0.0]]],
    }
    code, _ = _run(tmp_path, "sharp", config)
    assert code == 3


def test_sharp_points_of_unequal_lengths_exit_2(tmp_path, capsys):
    # a point of the wrong dimension is a config error, caught before the
    # closed form is computed for all points in one batch; the batch itself
    # raises DimensionMismatchError on such rows, never a numpy traceback
    config = {"command": "sharp", "function": "z1*z2", "dimension": 2, "points": [[[1, 0], [1, 0]], [[1, 0]]]}
    code, _ = _run(tmp_path, "sharp", config)
    assert code == 2
    assert "points[1] has length 1, not the dimension 2" in capsys.readouterr().err
    with pytest.raises(DimensionMismatchError, match="expects dimension 2"):
        sharp_batch(parse("z1*z2", 2), [(1, 1), (1,)])


def test_reproducible_outputs(tmp_path):
    config = _rescale_config()
    _, out1 = _run(tmp_path, "rescale", config, outdir="out1")
    _, out2 = _run(tmp_path, "rescale", config, outdir="out2")
    for name in ("rescale.json", "rescale_run.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_repeated_main_calls_share_no_arguments(tmp_path, capsys):
    # one process, one parser: no call's options may leak into the next
    sharp = {"command": "sharp", "function": "z1*z2^2+cos(z3)", "dimension": 3,
             "points": [[[0.1, 0.2], [0.3, -0.1], [-0.2, 0.4]]]}
    config = _write(tmp_path, "sharp.json", sharp)
    rescale = _write(tmp_path, "rescale.json", _rescale_config())
    scan = _write(tmp_path, "scan.json", _scan_config(DISC))

    def files(out):
        return {path.name: path.read_bytes() for path in (tmp_path / out).iterdir()}

    assert main(["rescale", "--config", rescale, "--out", str(tmp_path / "a"), "--format", "csv"]) == 0
    assert main(["marty-scan", "--config", scan, "--out", str(tmp_path / "b")]) == 0
    assert main(["check-config", "--config", config]) == 0
    assert main(["sharp", "--config", config, "--out", str(tmp_path / "s")]) == 0
    assert main(["rescale", "--config", rescale, "--out", str(tmp_path / "c")]) == 0
    assert sorted(files("b")) == ["marty_scan.json", "marty_trend.csv"]
    assert sorted(files("s")) == ["sharp.csv", "sharp.json"]
    assert sorted(files("c")) == ["rescale.json", "rescale_run.csv"]  # the --format csv of the first call did not stick
    assert files("a") == {"rescale_run.csv": files("c")["rescale_run.csv"]}
    capsys.readouterr()
    for extra in (["--bogus"], ["--seed", "1"]):  # a run is its config file: no option replaces a seed
        with pytest.raises(SystemExit) as exc:
            main(["sharp", "--config", config, *extra])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Inputs that once ended in a traceback or a silently wrong run
# --------------------------------------------------------------------------

def _run_text(tmp_path, command, text):
    path = tmp_path / "raw.json"
    path.write_text(text)
    out = tmp_path / "out"
    return main([command, "--config", str(path), "--out", str(out)]), out


def _strict_json(path):
    def reject(token):
        raise AssertionError(f"non-finite number {token} in {path.name}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_schemas_are_valid_under_their_metaschema(command):
    # the config walker trusts the schemas to be valid JSON Schema
    schema = SCHEMAS[command]
    jsonschema.validators.validator_for(schema).check_schema(schema)


def _scan_config(domain):
    return {
        "command": "marty-scan",
        "function": "z1",
        "dimension": 1,
        "domain": domain,
        "plan": {"shells": [0.5, 0.25, 0.125], "points_per_shell": 4, "directions_per_point": 4},
    }


def _rescaling_config(command, **sequence):
    config = _rescale_config()
    config["command"] = command
    if command == "thm2":
        config["sequence"].update(c_r=1.0, b=2.0)
    config["sequence"].update(sequence)
    return config


def test_nan_point_is_config_error(tmp_path):
    text = '{"command": "sharp", "function": "z1", "dimension": 1, "points": [[[NaN, 0.3]]]}'
    code, out = _run_text(tmp_path, "sharp", text)
    assert code == 2
    assert not (out / "sharp.json").exists()


def test_infinite_radius_is_config_error(tmp_path):
    text = (
        '{"command": "marty-scan", "function": "z1*z2", "dimension": 2, '
        '"domain": {"type": "ball", "center": [[0, 0], [0, 0]], "radius": Infinity}, '
        '"plan": {"shells": [0.5, 0.25, 0.125], "points_per_shell": 8, '
        '"directions_per_point": 4, "seed": 0}}'
    )
    assert _run_text(tmp_path, "marty-scan", text)[0] == 2
    assert _run_text(tmp_path, "marty-scan", text.replace("Infinity", "1e999"))[0] == 2


# Integer literals are parsed by int(), not by the float parser.  Past the
# range of a double they passed validation and ended in an OverflowError
# traceback (exit 1) at a run's float() or complex(); past 4300 digits int()
# itself raised ValueError, in check-config too.
@pytest.mark.parametrize("literal", ["1" + "0" * 400, "9" * 5000], ids=["401-digits", "5000-digits"])
@pytest.mark.parametrize(
    "command,config",
    [
        ("sharp", {"command": "sharp", "function": "z1", "dimension": 1, "points": [[["BIG", 0]]]}),
        ("sharp", {"command": "sharp", "function": "z1", "dimension": 1, "points": [[[0.5, 0]]], "h": "BIG"}),
        ("marty-scan", _scan_config({"type": "ball", "center": [[0, 0]], "radius": "BIG"})),
        ("rescale", {**_rescaling_config("rescale"), "R": "BIG"}),
        ("thm2", {**_rescaling_config("thm2"), "R": "BIG"}),
        ("counterexample", {"command": "counterexample", "n_max": 10, "R": "BIG"}),
        ("check-config", {"command": "counterexample", "n_max": 10, "R": "BIG"}),
    ],
    ids=["sharp-point", "sharp-h", "marty-scan", "rescale", "thm2", "counterexample", "check-config"],
)
def test_integer_past_the_double_range_is_config_error(tmp_path, capsys, command, config, literal):
    code, out = _run_text(tmp_path, command, json.dumps(config).replace('"BIG"', literal))
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err == f"config error: integer of {len(literal)} digits in config overflows a double\n"


def test_deeply_nested_function_is_config_error(tmp_path, capsys):
    config = {
        "command": "sharp",
        "function": "(" * 3000 + "z1" + ")" * 3000,
        "dimension": 1,
        "points": [[[0.3, 0.0]]],
    }
    assert _run(tmp_path, "sharp", config)[0] == 2
    cfg = _write(tmp_path, "deep.json", config)
    assert main(["check-config", "--config", cfg]) == 2
    config["function"] = "+".join(["z1"] * 1500)
    assert _run(tmp_path, "sharp", config)[0] == 2
    config["function"] = "z1 +"
    assert _run(tmp_path, "sharp", config)[0] == 2
    assert "config error" in capsys.readouterr().err


def test_sharp_overflow_point(tmp_path):
    config = {"command": "sharp", "function": "exp(z1)", "dimension": 1, "points": [[[400.0, 0.0]]]}
    code, out = _run(tmp_path, "sharp", config)
    assert code == 0
    row = _strict_json(out / "sharp.json")["rows"][0]
    assert row["sharp_closed"] == pytest.approx(math.exp(-400.0), rel=1e-12)


def test_scan_overflow_to_inf(tmp_path):
    config = {
        "command": "marty-scan",
        "function": "exp(10/(1-z1))*z2",
        "dimension": 2,
        "domain": {"type": "ball", "center": [[0, 0], [0, 0]], "radius": 1.0},
        "plan": {
            "shells": [2.0**-k for k in range(1, 9)],
            "points_per_shell": 8,
            "directions_per_point": 4,
            "seed": 0,
        },
    }
    code, out = _run(tmp_path, "marty-scan", config)
    assert code == 0
    payload = _strict_json(out / "marty_scan.json")
    assert payload["skipped"] > 0
    assert len(payload["samples"]) + payload["skipped"] == 8 * 8 * 4
    assert payload["verdict"] == "inconclusive"
    assert payload["errors"] and all("non-finite" in e for e in payload["errors"])
    # one message per point with skips; a point that fails to evaluate skips
    # all 4 of its directions, any other states how many it skipped
    points = [e.split(": ")[0] for e in payload["errors"]]
    assert len(points) == len(set(points))
    counts = [re.search(r": (\d+) of 4 directions skipped", e) for e in payload["errors"]]
    assert any(counts)
    assert sum(int(m[1]) if m else 4 for m in counts) == payload["skipped"]


# a coordinate radius past the range of 1/delta: |v| / delta is inf at every
# point.  The scan once exited 3, "point is not strictly inside the ball",
# since delta^2 underflowed in the ball kernel.  levi / inf / inf = 0 is
# finite, so only a keep rule that reads k_upper too skips these samples.
@pytest.mark.parametrize("tiny", [1e-320, 2.225073858507e-311])
def test_scan_with_an_unmeasurable_upper_bound_skips_every_point(tmp_path, capsys, tiny):
    config = {
        **_scan_config({"type": "polydisc", "center": [[0.0, 0.0]] * 2, "radii": [1.0, tiny]}),
        "function": "z1*z2",
        "dimension": 2,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(tmp_path, "marty-scan", config)
    assert code == 0 and capsys.readouterr().err == ""
    payload = _strict_json(out / "marty_scan.json")
    assert payload["samples"] == [] and payload["skipped"] == 3 * 4 * 4
    assert payload["verdict"] == "inconclusive"
    points = [e.split(": ")[0] for e in payload["errors"]]
    assert len(points) == len(set(points)) == 3 * 4
    assert all(e.endswith(": 4 of 4 directions skipped, non-finite value (overflow, or a non-finite input)")
               for e in payload["errors"])


@pytest.mark.parametrize(
    "domain",
    [
        {"type": "ball", "center": [[0.0, 0.0]], "radius": 1e200},
        {"type": "polydisc", "center": [[0.0, 0.0]], "radii": [1e200]},
    ],
    ids=["ball", "polydisc"],
)
def test_thm2_measures_centers_past_the_root_of_the_float_range(tmp_path, domain):
    # |z_j| and delta(z_j) near 1e200, whose squares overflow: a norm that
    # squared its coordinates once read p_1 as outside the ball (exit 3) and
    # wrote abs_z_j = inf for the polydisc
    config = _rescaling_config("thm2", anchor=[[1e200, 0.0]], inward=[[-1.0, 0.0]], c_p=9e199, a=1.0, j_start=2, j_end=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(tmp_path, "thm2", {**config, "function": "z1", "domain": domain})
    assert code == 0
    rows = list(csv.DictReader(io.StringIO((out / "thm2_run.csv").read_text())))
    assert [int(row["j"]) for row in rows] == list(range(2, 11))
    for row in rows:
        assert math.isfinite(float(row["abs_z_j"])) and math.isfinite(float(row["delta_j"]))
        assert 0 < float(row["delta_j"]) and float(row["abs_z_j"]) < 1e200


# Each list with one entry per coordinate, given one coordinate too many.
# Unchecked, the rescale and thm2 runs dropped the extra coordinate silently
# and exited 0 or 4, and the scan failed late with exit 3.
@pytest.mark.parametrize(
    "config,name",
    [
        (_rescaling_config("rescale", anchor=[[1.0, 0.0], [0.0, 0.0]]), "sequence.anchor"),
        (_rescaling_config("thm2", inward=[[-1.0, 0.0], [0.0, 0.0]]), "sequence.inward"),
        (_scan_config({"type": "ball", "center": [[0.0, 0.0], [0.0, 0.0]], "radius": 1.0}), "domain.center"),
        (_scan_config({"type": "polydisc", "center": [[0.0, 0.0]], "radii": [1.0, 1.0]}), "domain.radii"),
        ({"command": "sharp", "function": "z1", "dimension": 1, "points": [[[0.1, 0.0], [0.2, 0.0]]]}, "points[0]"),
    ],
    ids=["rescale-anchor", "thm2-inward", "scan-center", "scan-radii", "sharp-point"],
)
def test_coordinate_list_of_wrong_length_is_config_error(tmp_path, capsys, config, name):
    code, out = _run(tmp_path, config["command"], config)
    assert code == 2
    assert f"{name} has length 2, not the dimension 1" in capsys.readouterr().err
    assert not out.exists()


_HUGE_GRADIENT = "1e308*(" + "+".join(f"z{k}" for k in range(1, 10)) + ")"  # |grad| = 3e308


def _tiny_ball_config(command):
    # the one center, p_1 = 0, lies 5e-324 inside the ball, so rho_1 / delta_1 overflows
    config = _rescaling_config(command, c_p=1.0, a=1.0, j_start=1, j_end=1)
    return {**config, "function": "z1", "domain": {"type": "ball", "center": [[0.0, 0.0]], "radius": 5e-324}}


# Each once ended in a traceback (exit 1), except the underflowing h, which
# exited 0 with a sharp_fd of 0.0 and a RuntimeWarning, the overflowing h,
# whose 4 h^2 of inf gave a sharp_fd of 0.0 with no warning, the h that the
# point's 0.1 absorbs, whose arms rounded onto the centre and read a sharp_fd
# of 0.0 against a closed form of 0.990 with no warning, the overflowing
# ratio, which exited 0 (rescale) or 4 (thm2) with a RuntimeWarning and a
# ratio of inf in the run table, the scan on a ball whose radius squared
# overflows, which exited 0 with two RuntimeWarnings and every sample skipped,
# and the one whose radius squared underflows, which blamed its points.  The
# polydisc whose largest radius squares past the float range exited 3 naming
# a "ball radius", that of the circumscribed ball the scan once measured.  The
# 9-D sharp run of a function whose gradient norm, 3e308, overflows printed a
# sharp value of inf and a rel_dev of nan, which the JSON writer refused in a
# ValueError traceback; its Zalcman rescale took rho = 1/inf = 0 and ended in
# affine_pullback's "scale must be nonzero".
# Warnings are errors here, so none of them may reach stderr.
@pytest.mark.parametrize(
    "config,code,message",
    [
        (_rescaling_config("rescale", j_start=5, j_end=3), 2, "sequence.j_start 5 exceeds sequence.j_end 3"),
        (_rescaling_config("thm2", j_start=5, j_end=3), 2, "sequence.j_start 5 exceeds sequence.j_end 3"),
        ({**_rescaling_config("rescale"), "grid_size": 1}, 2, "1 is less than the minimum of 2"),
        ({**_rescaling_config("thm2"), "grid_size": 1}, 2, "1 is less than the minimum of 2"),
        ({"command": "counterexample", "n_max": 10, "R": 1.0, "grid_size": 1}, 2, "1 is less than the minimum of 2"),
        ({"command": "counterexample", "n_max": 2, "R": 1.0}, 2, "2 is less than the minimum of 3"),
        (_rescaling_config("thm2", b=1100), 3, "scale r_2 underflows to 0"),
        ({"command": "counterexample", "n_max": 2**18, "R": 1.0}, 3, "p_262144 = ((1+0j),) exits the domain"),
        (
            {"command": "sharp", "function": "z1^2", "dimension": 1, "points": [[[0.5, 0]]], "h": 1e-200},
            3,
            "finite-difference Levi form is not finite at h = 1e-200",
        ),
        (
            {"command": "sharp", "function": "z1", "dimension": 1, "points": [[[0.1, 0]]], "h": 1e200},
            3,
            "finite-difference Levi form is not finite at h = 1e+200",
        ),
        (
            {"command": "sharp", "function": "z1", "dimension": 1, "points": [[[0.1, 0]]], "h": 1e-100},
            3,
            "finite-difference step h = 1e-100 is below the float resolution of the points",
        ),
        (_tiny_ball_config("rescale"), 3, "ratio rho_1 / delta_1 = 1.0 / 5e-324 overflows"),
        (_tiny_ball_config("thm2"), 3, "ratio rho_1 / delta_1 = 1.0 / 5e-324 overflows"),
        (
            {"command": "sharp", "function": "1/z1", "dimension": 1, "points": [[[0.0, 0.0]]]},
            3,
            "division or negative power of a near-zero value",
        ),
        (
            {
                **_scan_config({"type": "ball", "center": [[0.0, 0.0]] * 2, "radius": 1e200}),
                "function": "z1*z2",
                "dimension": 2,
            },
            3,
            "ball radius 1e+200 squares past the largest finite float",
        ),
        (
            {
                **_scan_config({"type": "ball", "center": [[0.0, 0.0]] * 2, "radius": 5e-324}),
                "function": "z1*z2",
                "dimension": 2,
            },
            3,
            "ball radius 5e-324 squares below the smallest positive float",
        ),
        (
            {
                **_scan_config({"type": "polydisc", "center": [[0.0, 0.0]] * 2, "radii": [1e308, 1.0]}),
                "function": "z1*z2",
                "dimension": 2,
            },
            3,
            "polydisc radius 1e+308 squares past the largest finite float",
        ),
        (
            {"command": "sharp", "function": _HUGE_GRADIENT, "dimension": 9, "points": [[[0.0, 0.0]] * 9]},
            3,
            "sharp function at point 0 passes the float range",
        ),
        (
            {
                **_rescale_config(),
                "function": _HUGE_GRADIENT,
                "dimension": 9,
                "domain": {"type": "ball", "center": [[0.0, 0.0]] * 9, "radius": 1.0},
                "sequence": {
                    **_rescale_config()["sequence"],
                    "anchor": [[1.0, 0.0]] + [[0.0, 0.0]] * 8,
                    "inward": [[-1.0, 0.0]] + [[0.0, 0.0]] * 8,
                },
            },
            3,
            "sharp function at point 0 passes the float range",
        ),
    ],
    ids=[
        "rescale-j-range", "thm2-j-range", "rescale-grid-1", "thm2-grid-1", "counterexample-grid-1", "counterexample-n-2",
        "thm2-scale-underflow", "counterexample-center-on-boundary", "sharp-h-underflow",
        "sharp-h-overflow", "sharp-h-below-resolution",
        "rescale-ratio-overflow", "thm2-ratio-overflow", "sharp-pole", "scan-ball-radius-overflow",
        "scan-ball-radius-underflow", "scan-polydisc-radius-overflow", "sharp-9d-gradient-overflow",
        "rescale-9d-gradient-overflow",
    ],
)
def test_run_input_errors_exit_with_their_code(tmp_path, capsys, config, code, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(tmp_path, config["command"], config, outdir="e/out/deep")[0] == code
    err = capsys.readouterr().err
    prefix = {2: "config error: ", 3: "evaluation error: "}[code]
    assert err.startswith(prefix) and err.count("\n") == 1 and message in err
    assert not (tmp_path / "e").exists()  # a failed run writes no file and makes no directory


# The first two ended in a traceback (exit 1): a UnicodeDecodeError, and
# json's RecursionError on a config nested about as deep as the recursion
# limit.  The last is JSON, but not an object.
@pytest.mark.parametrize(
    "text,start,message",
    [
        (b'{"command": "sharp", "function": "z1\xff", "dimension": 1, "points": [[[0.1, 0.0]]]}',
         "cannot read config ", "can't decode byte 0xff"),
        (b'{"command": "sharp", "x": ' + b"[" * 1000 + b"]" * 1000 + b"}",
         "cannot read config ", "maximum recursion depth exceeded"),
        (b"[1]", "config root must be a JSON object\n", ""),
    ],
    ids=["not-utf8", "nested-1000-deep", "root-is-an-array"],
)
def test_unreadable_config_is_config_error(tmp_path, capsys, text, start, message):
    path = tmp_path / "sharp.json"
    path.write_bytes(text)
    assert main(["sharp", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + start) and err.count("\n") == 1 and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["out-is-a-file", "output-is-a-directory"])
def test_unwritable_output_is_exit_2(tmp_path, capsys, where):
    config = _scan_config(DISC)
    out = tmp_path / "out"
    if where == "out-is-a-file":
        out.write_text("")
    else:
        (out / "marty_scan.json").mkdir(parents=True)
    code, _ = _run(tmp_path, "marty-scan", config)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1


def test_failed_run_with_unwritable_output_is_exit_3(tmp_path, capsys):
    # the run comes first: --out is made only for a run with outputs to write
    (tmp_path / "out").write_text("")
    config = {"command": "sharp", "function": "1/z1", "dimension": 1, "points": [[[0.0, 0.0]]]}
    assert _run(tmp_path, "sharp", config)[0] == 3
    assert capsys.readouterr().err.startswith("evaluation error: ")


# --------------------------------------------------------------------------
# Every JSON report is json.dumps(indent=2, sort_keys=True) of its own content
# --------------------------------------------------------------------------

def _ball(n):
    return {"type": "ball", "center": [[0.0, 0.0]] * n, "radius": 1.0}


def _scan(function, n, **plan):
    return {
        "command": "marty-scan",
        "function": function,
        "dimension": n,
        "domain": _ball(n),
        "plan": {"shells": [0.5, 0.25, 0.125], "points_per_shell": 6,
                 "directions_per_point": 2, **plan},
    }


@pytest.mark.parametrize(
    "config,report",
    [
        ({"command": "sharp", "function": "z1*z2", "dimension": 2,
          "points": [[[1.0, 0.0], [0.5, -0.25]]]}, "sharp.json"),
        (_scan("sin(1/(1-z1))", 1), "marty_scan.json"),
        (_scan("z1*z2-1e16*z2", 2, seed=3), "marty_scan.json"),
        (_scan("z1+z2*z3^2", 3), "marty_scan.json"),
        (_scan("1/(z1-z1)", 1), "marty_scan.json"),
        (_rescale_config(), "rescale.json"),
        (_rescaling_config("thm2"), "thm2.json"),
        ({"command": "counterexample", "n_max": 5, "R": 1.0}, "counterexample.json"),
    ],
    ids=["sharp", "scan-1d", "scan-2d", "scan-3d", "scan-all-skipped", "rescale", "thm2",
         "counterexample"],
)
def test_reports_are_canonical_json(tmp_path, config, report):
    code, out = _run(tmp_path, config["command"], config)
    assert code in (0, 4)  # the thm2 run of sin(1/(1-z1)) raises a hypothesis flag
    text = (out / report).read_text(encoding="utf-8")
    payload = json.loads(text)
    assert json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n" == text
    if config["command"] == "marty-scan":
        skipped_all = config["function"] == "1/(z1-z1)"
        assert (payload["samples"] == []) == skipped_all
        assert payload["skipped"] == (3 * 6 * 2 if skipped_all else 0)


def _stdlib_samples(samples):
    # the reference: the dict form of each sample through the stdlib encoder
    rows = [
        {
            "point": point_to_json(point),
            "direction": point_to_json(direction),
            "levi": levi,
            "k_lower": k_lower,
            "k_upper": k_upper,
            "ratio_lower": ratio_lower,
            "ratio_upper": ratio_upper,
        }
        for point, direction, levi, k_lower, k_upper, ratio_lower, ratio_upper in samples.tolist()
    ]
    return json.dumps({"samples": rows}, indent=2, sort_keys=True, allow_nan=False)


_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7e308, -1.7e308])


def _scan_samples(values):
    # record arrays of the scan's dtype, as `normality_scan` returns them
    def records(n):
        point = st.tuples(*[st.builds(complex, values, values)] * n)
        sample = st.tuples(point, point, values, values, values, values, values)
        return st.lists(sample, max_size=4).map(lambda rows: np.array(rows, sample_dtype(n)).view(np.recarray))

    return st.integers(1, 3).flatmap(records)


_NEXT = float(np.nextafter(0.1, 1.0))


def _scan_shaped_samples():
    # as a scan keeps them: each point repeated across its directions, and
    # values from a small pool, so that repeats and near-repeats are common
    pool = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 0.1, _NEXT, -2.5, 1e16, 1.7e308])

    def records(n):
        point = st.tuples(*[st.builds(complex, pool, pool)] * n)
        rest = st.tuples(point, pool, pool, pool, pool, pool)
        groups = st.lists(st.tuples(point, st.lists(rest, min_size=1, max_size=8)), max_size=8)
        return groups.map(
            lambda gs: np.array([(p, *r) for p, rs in gs for r in rs], sample_dtype(n)).view(np.recarray)
        )

    return st.integers(1, 3).flatmap(records)


def _records(n, *rows):
    return np.array(list(rows), sample_dtype(n)).view(np.recarray)


# each example holds floats that are equal as values but differ in bits, or
# differ in bits by one ulp: printing each distinct float once must keep them apart
@example(_records(2, ((complex(-0.0, 0.0), complex(0.0, -0.0)), (0j, complex(-0.0, 1.0)), 0.0, -0.0, 1.0, -0.0, 0.0)))
@example(_records(1, ((complex(5e-324, -5e-324),), (1 + 0j,), -5e-324, 5e-324, 1.0, 5e-324, -5e-324)))
@example(_records(1, ((complex(0.1, _NEXT),), (complex(_NEXT, 0.1),), 0.1, _NEXT, 1e16, 1.0000000000000002e16, 0.1)))
@given(
    _scan_samples(_EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)) | _scan_shaped_samples()
)
def test_samples_writer_matches_stdlib_json(samples):
    assert '{\n  "samples": ' + "".join(_records_json(samples)) + "\n}" == _stdlib_samples(samples)


# a real scan at the benchmark's shape: 8 dyadic shells x 32 points x 4
# directions in 2-D, 1,024 rows, each point repeated across its directions.
# A plain test, so no Hypothesis deadline times its 80 ms or so.
def test_samples_writer_matches_stdlib_json_at_the_bench_scan_shape():
    plan = SamplingPlan(tuple(2.0**-k for k in range(1, 9)), points_per_shell=32, directions_per_point=4, seed=7)
    samples = normality_scan(parse("exp(z1*z2) + 1/(2 - z1)", 2), Ball((0j, 0j), 1.0), plan).samples
    assert '{\n  "samples": ' + "".join(_records_json(samples)) + "\n}" == _stdlib_samples(samples)


@given(_scan_samples(st.sampled_from([math.nan, math.inf, -math.inf, 1.0])))
def test_samples_writer_rejects_non_finite_as_stdlib_json(samples):
    try:
        expected = _stdlib_samples(samples)
    except ValueError as exc:
        with pytest.raises(ValueError, match="not JSON compliant"):
            _records_json(samples)
        assert "not JSON compliant" in str(exc)
    else:
        assert '{\n  "samples": ' + "".join(_records_json(samples)) + "\n}" == expected


def _stdlib_records(records):
    # the reference for any record array of float and complex fields: each
    # record as a dict, a complex as its [re, im] pair, through the stdlib encoder
    def plain(value):
        if isinstance(value, np.ndarray):
            return plain(value.tolist())
        if isinstance(value, complex):
            return [value.real, value.imag]
        return [plain(v) for v in value] if isinstance(value, list) else value

    rows = [dict(zip(records.dtype.names, map(plain, row))) for row in records.tolist()]
    return json.dumps({"samples": rows}, indent=2, sort_keys=True, allow_nan=False)


def _block_rows(dtype):
    # the rows of one block of `_records_json`: at most 2^12 floats, one row at least
    return max(1, _BLOCK_FLOATS // (dtype.itemsize // 8))


def _blocks_of(dtype, blocks):
    # a record array of `blocks` blocks, the last holding one row: floats
    # from a small pool (signed zeros, neighbours one ulp apart) that repeat
    # within and across blocks, and scattered ones of every magnitude
    rng = np.random.default_rng(5)
    shape = (_block_rows(dtype) * (blocks - 1) + 1, dtype.itemsize // 8)
    pool = np.array([-0.0, 0.0, 5e-324, -5e-324, 0.1, _NEXT, -2.5, 1e16, 1.7e308])
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    values = np.where(rng.random(shape) < 0.5, rng.choice(pool, shape), values)
    return values.view(dtype).reshape(-1).view(np.recarray)


_WIDE_ROW = np.dtype([("a", float), ("point", complex, (2048,))])  # 4,097 floats: one row per block


@pytest.mark.parametrize("dtype", [sample_dtype(1), sample_dtype(2), sample_dtype(9), _WIDE_ROW],
                         ids=["1-D", "2-D", "9-D", "wide-row"])
def test_records_writer_prints_many_blocks_as_stdlib_json(dtype):
    records = _blocks_of(dtype, 3)
    pieces = list(_records_json(records))
    assert '{\n  "samples": ' + "".join(pieces) + "\n}" == _stdlib_records(records)
    # each piece holds one block of rows at most, and the last block one row
    assert [piece.count("\n    {") for piece in pieces] == [_block_rows(dtype)] * 2 + [1, 0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["point", "ratio_upper"])
@pytest.mark.parametrize("n", [2, 9])
def test_records_writer_rejects_a_non_finite_last_row_before_printing(n, field, bad):
    # a run that fails writes no file: the check covers the last block before
    # the writer hands back any text, with json's error and message
    records = _blocks_of(sample_dtype(n), 3)
    if field == "point":
        records.point[-1, -1] = complex(1.0, bad)
    else:
        records.ratio_upper[-1] = bad
    with pytest.raises(ValueError) as expected:
        _stdlib_records(records)
    with pytest.raises(ValueError) as got:
        _records_json(records)
    assert str(got.value) == str(expected.value)


def test_scan_output_holds_one_block_of_text_at_a_time(tmp_path):
    # Peak traced memory (numpy's buffers included) of one 8,192-sample 2-D
    # scan through main, per sample: 8 shells x 64 points x 16 directions.
    # With the samples printed in blocks as they are written it was 281 B
    # (306 B on a cold first call); a writer that held the whole report's text
    # and its table of strings, as the one before did, peaked at 1,642 B.
    config = {
        "command": "marty-scan", "function": "exp(z1*z2) + 1/(2 - z1)", "dimension": 2,
        "domain": {"type": "ball", "center": [[0, 0], [0, 0]], "radius": 1.0},
        "plan": {"shells": [2.0**-k for k in range(1, 9)], "points_per_shell": 64, "directions_per_point": 16},
    }
    tracemalloc.start()
    try:
        code, out = _run(tmp_path, "marty-scan", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads((out / "marty_scan.json").read_text())["samples"]) == 8192
    assert peak / 8192 < 600


def _sharp_rows(values):
    # record arrays of the sharp report's rows: a point and three floats
    def records(n):
        point = st.tuples(*[st.builds(complex, values, values)] * n)
        row = st.tuples(point, values, values, values)
        dtype = [("point", complex, (n,)), ("sharp_closed", float), ("sharp_fd", float), ("rel_dev", float)]
        return st.lists(row, min_size=1, max_size=6).map(lambda rows: np.rec.array(rows, dtype=dtype))

    return st.integers(1, 3).flatmap(records)


def _sharp_report_rows():
    # the rows of a 16-point 3-D sharp report, as the `sharp` command builds them
    f = parse("exp(z1*z2) + z3^2/(2 - z1)", 3)
    z = np.array([[complex(0.1 * k, -0.05 * k), 0.3j, complex(-0.2, 0.01 * k)] for k in range(16)])
    closed, oracle = sharp_batch(f, z), sharp_fd(f, z, 1e-4)
    dtype = [("point", complex, (3,)), ("sharp_closed", float), ("sharp_fd", float), ("rel_dev", float)]
    return np.rec.fromarrays([z, closed, oracle, np.abs(closed - oracle) / (1.0 + closed)], dtype=dtype)


@example(_sharp_report_rows())
@given(_sharp_rows(_EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)))
def test_records_writer_prints_sharp_rows_as_stdlib_json(rows):
    expected = [
        {"point": point_to_json(point), "sharp_closed": s, "sharp_fd": s_fd, "rel_dev": d}
        for point, s, s_fd, d in rows.tolist()
    ]
    text = "".join(_json({"function": "z1", "rows": rows}))
    assert text == _stdlib_json({"function": "z1", "rows": expected})


def test_each_run_parses_its_function_once(tmp_path, monkeypatch):
    calls = []

    def counted(source, dimension):
        calls.append(source)
        return parse(source, dimension)

    monkeypatch.setattr(cfg_module, "parse", counted)
    scan = {
        "command": "marty-scan", "function": "z1^2", "dimension": 1, "domain": DISC,
        "plan": {"shells": [1.0, 0.5], "points_per_shell": 2, "directions_per_point": 2},
    }
    sharp = {"command": "sharp", "function": "exp(z1)", "dimension": 1, "points": [[[0.5, 0.0]]]}
    for config in (sharp, scan, _rescale_config(), sharp):
        cfg_module.parse_function.cache_clear()
        calls.clear()
        code, _ = _run(tmp_path, config["command"], config)
        assert code in (0, 4)
        assert calls == [config["function"]]
    # the cache keeps the last expression only
    assert cfg_module.parse_function.cache_info().maxsize == 1


def _stdlib_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# plain ints and floats, beside bools, which are ints to isinstance but
# print as true and false
_NUMBERS = (
    st.integers()
    | st.integers(2**63 - 2, 2**80)
    | st.integers(-(2**80), -(2**63) + 2)
    | st.booleans()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e16, 0.1])
)
_VALUES = st.recursive(
    st.none() | st.text(max_size=4) | _NUMBERS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# keys of any text, quotes and newlines included; empty lists and lists of
# strings or dicts take the encoder's path
_PAYLOADS = st.dictionaries(st.text(max_size=6), st.lists(_NUMBERS, max_size=8) | _VALUES, max_size=6)


@example({})
@example({"a": [-0.0, 5e-324, 1.7976931348623157e308], "b": [0.0, -5e-324, -1.7976931348623157e308]})
@example({"ints": [2**64, -(2**63) - 1, 0], "bools": [True, False], "mixed": [1, True, 1.0]})
@example({"empty": [], "strings": ["1", "x"], "dicts": [{"a": [1.0]}], "nested": {"a": [1, 2.5]}})
@example({'"samples": []': [1.0], "\n  \"x\": []": [2.0], "x": [3.0]})
@given(_PAYLOADS)
def test_json_writer_matches_stdlib_json(payload):
    assert "".join(_json(payload)) == _stdlib_json(payload)


@given(_PAYLOADS, st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_json_writer_rejects_non_finite_as_stdlib_json(payload, bad, data):
    # the non-finite float goes into a top-level list of numbers or deeper
    numbers = data.draw(st.lists(_NUMBERS, max_size=6))
    numbers.insert(data.draw(st.integers(0, len(numbers))), bad)
    key = data.draw(st.text(max_size=6))
    payload[key] = data.draw(st.sampled_from([numbers, {"inner": numbers}, [numbers]]))
    with pytest.raises(ValueError) as expected:
        _stdlib_json(payload)
    with pytest.raises(ValueError) as got:
        _json(payload)
    assert str(got.value) == str(expected.value)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS


def _layouts(numbers):
    # ints past int64 make an object array, which is not a number array
    array = np.array(numbers)
    return [numbers, tuple(numbers), *([array] if array.dtype.kind in "iuf" else [])]


# the per-index lists of the reports: floats, ints, or both, as lists,
# tuples or 1-D arrays (which print as their `.tolist()`)
_NUMBER_LISTS = (
    st.lists(_FLOATS, min_size=1, max_size=8)
    | st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=8)
    | st.lists(_FLOATS | st.integers(), min_size=1, max_size=8)
).flatmap(lambda numbers: st.sampled_from(_layouts(numbers)))
_BESIDE_LISTS = (
    _NUMBERS | st.text(max_size=4) | st.none() | st.just([]) | st.just(())
    | st.lists(st.booleans() | st.text(max_size=2), min_size=1, max_size=3)
    | st.lists(st.lists(_FLOATS, max_size=3), min_size=1, max_size=3)
)
_LIST_PAYLOADS = st.dictionaries(st.text(max_size=6), _NUMBER_LISTS | _BESIDE_LISTS, min_size=1, max_size=6)


def _plain(payload):
    return {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in payload.items()}


@example({"osc": np.array([-0.0, 5e-324, 1e16, 1e-7, 1.7e308]), "indices": (1, 2, 3), "flags": [True, False]})
@example({"a": [1, 0.5, -0.0], "b": [], "c": [[1.0]], "d": ["x"], "e": 2.5, "f": "[1]"})
@given(_LIST_PAYLOADS)
def test_json_writer_prints_number_lists_in_one_join(payload):
    pieces = list(_json(payload))
    assert "".join(pieces) == _stdlib_json(_plain(payload))
    # each number list is one piece, between the text before and after it
    lists = [value for value in payload.values() if isinstance(value, np.ndarray)
             or (isinstance(value, (list, tuple)) and value and {int, float}.issuperset(map(type, value)))]
    assert len(pieces) == 2 * len(lists) + 1


@given(_LIST_PAYLOADS, st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_json_writer_rejects_non_finite_in_number_lists_as_stdlib_json(payload, bad, data):
    # in a top-level number list, and maybe a second non-finite float in
    # another entry: json names the first it meets in key order
    numbers = data.draw(st.lists(_FLOATS | st.integers(), max_size=6))
    numbers.insert(data.draw(st.integers(0, len(numbers))), bad)
    payload[data.draw(st.text(max_size=6))] = data.draw(st.sampled_from(_layouts(numbers)))
    if data.draw(st.booleans()):
        payload[data.draw(st.text(max_size=6))] = data.draw(st.sampled_from([math.nan, math.inf, [-math.inf]]))
    with pytest.raises(ValueError) as expected:
        _stdlib_json(_plain(payload))
    with pytest.raises(ValueError) as got:
        _json(payload)
    assert str(got.value) == str(expected.value)


def test_json_writer_prints_record_arrays_in_key_order():
    samples = np.rec.fromarrays([np.array([1.0, 0.5])], dtype=[("x", float)])
    expected = {"a": 1, "samples": [{"x": 1.0}, {"x": 0.5}], "z": [0.5, 2]}
    assert "".join(_json({"z": [0.5, 2], "samples": samples, "a": 1})) == _stdlib_json(expected)
    assert "".join(_json({"a": 1, "samples": samples[:0]})) == _stdlib_json({"a": 1, "samples": []})
    # keys and strings that spell the record array's entry, and a null beside it
    decoys = {'\n  "samples": null': '\n  "samples": null', "a": None, "b": {"samples": None}}
    expected = {**decoys, "samples": [{"x": 1.0}, {"x": 0.5}]}
    assert "".join(_json({**decoys, "samples": samples})) == _stdlib_json(expected)


# cells as the runners give them: ints, finite and non-finite floats, and
# the comma-free point strings of `_point_str`
_CELLS = st.integers() | st.floats() | st.from_regex(r"[0-9e.;+ -]+", fullmatch=True)


@given(st.lists(st.text("abc_", min_size=1), min_size=1, max_size=4), st.lists(st.lists(_CELLS, max_size=5)))
def test_csv_writer_matches_stdlib_csv(header, rows):
    expected = io.StringIO()
    csv.writer(expected).writerows([header, *rows])
    assert "".join(_csv(header, rows)) == expected.getvalue()


# --------------------------------------------------------------------------
# Seeds: every config takes one, and only a scan reads its own
# --------------------------------------------------------------------------

_COUNTEREXAMPLE = {"command": "counterexample", "n_max": 10, "R": 1.0}
_SMALL_CONFIGS = {
    "sharp": {"command": "sharp", "function": "z1*z2+z3", "dimension": 3, "points": [[[0.1, 0.0]] * 3]},
    "marty-scan": _scan_config(DISC),
    "rescale": _rescaling_config("rescale"),
    "thm2": _rescaling_config("thm2"),
    "counterexample": _COUNTEREXAMPLE,
    "check-config": _COUNTEREXAMPLE,
}


def _seeded(config, seed):
    """The config with its seed set: a scan's is its plan's."""
    if config["command"] == "marty-scan":
        return {**config, "plan": {**config["plan"], "seed": seed}}
    return {**config, "seed": seed}


# the schema refuses a negative seed under every command, check-config
# included, and names its key: one that reached a 3-D sharp run ended in a
# numpy traceback (exit 1)
@pytest.mark.parametrize("command", sorted(_SMALL_CONFIGS))
def test_negative_seed_is_config_error(tmp_path, capsys, command):
    code, out = _run(tmp_path, command, _seeded(_SMALL_CONFIGS[command], -1))
    err = capsys.readouterr().err
    key = "$.plan.seed" if command == "marty-scan" else "$.seed"
    assert code == 2
    assert err == f"config error: config schema violation: {key}: -1 is less than the minimum of 0\n"
    assert "Traceback" not in err and not out.exists()


# the grid's ring radii overflowed: three RuntimeWarnings (an exception under
# this suite's warning filter) came before the evaluation error
@pytest.mark.parametrize("config", [_rescaling_config("rescale"), _COUNTEREXAMPLE], ids=lambda c: c["command"])
def test_grid_radius_past_the_float_range_is_one_evaluation_error(tmp_path, capsys, config):
    code, out = _run(tmp_path, config["command"], {**config, "R": 1e308})
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == (
        "evaluation error: grid radius 1e+308 times 8 rings passes the largest finite float\n"
    )


# g_1 and g_2 of 1.7e308*cos(...) are finite on the grid, but they differ by
# more than the largest float: json refused the report's inf gap, and main
# ended in that ValueError's traceback (exit 1)
def test_cauchy_gap_past_the_float_range_is_one_evaluation_error(tmp_path, capsys):
    config = {
        **_rescaling_config("thm2", c_p=0.9, c_r=0.02, b=1.0, j_start=1, j_end=3),
        "function": "1.7e308*cos(6.981317007977318*(z1-0.1))",
        "R": 1.0,
        "grid_size": 16,
    }
    code, out = _run(tmp_path, "thm2", config, outdir="e/out")
    assert code == 3 and not (tmp_path / "e").exists()
    assert capsys.readouterr().err == "evaluation error: cauchy_gap_2 of g_2 on the grid overflows\n"


_INTEGER_KEYS = {"dimension", "points_per_shell", "directions_per_point", "seed", "j_start", "j_end", "grid_size"}


def _spelled(value, cast, key=None):
    """`value` with each integral number of a key that the schema types as a
    number, not an integer, written through `cast`: as an int or a float."""
    if isinstance(value, dict):
        return {k: _spelled(item, cast, k) for k, item in value.items()}
    if isinstance(value, list):
        return [_spelled(item, cast, key) for item in value]
    if type(value) in (int, float) and key not in _INTEGER_KEYS and float(value).is_integer():
        return cast(value)
    return value


# The walk of the schema types every number the runs read, in the domain and
# in number arrays too: `"radius": 1` runs exactly as `"radius": 1.0` does.
@pytest.mark.parametrize(
    "config",
    [
        _scan_config({"type": "ball", "center": [[0, 0]], "radius": 1}) | {
            "plan": {"shells": [1, 0.5], "points_per_shell": 4, "directions_per_point": 2}},
        _scan_config({"type": "polydisc", "center": [[0, 0], [0, 0]], "radii": [1, 2]}) | {
            "function": "z1*z2", "dimension": 2, "plan": {"shells": [1], "points_per_shell": 4, "directions_per_point": 2}},
        _rescaling_config("thm2", c_p=1, c_r=1) | {"R": 1, "tol": 1, "grid_size": 8},
    ],
    ids=["scan-ball", "scan-polydisc", "thm2"],
)
def test_integral_numbers_run_alike_as_ints_and_floats(tmp_path, config):
    texts, runs = [], []
    for cast in (int, float):
        written = _spelled(config, cast)
        code, out = _run(tmp_path, config["command"], written, outdir=cast.__name__)
        texts.append(json.dumps(written))
        runs.append((code, {path.name: path.read_bytes() for path in out.iterdir()}))
    assert texts[0] != texts[1]  # the two spellings differ
    assert runs[0] == runs[1] and runs[0][1]


def _zalcman_config(function, n, grid_size):
    rest = [[0.0, 0.0]] * (n - 1)
    return {
        "command": "rescale",
        "function": function,
        "dimension": n,
        "domain": {"type": "ball", "center": [[0.0, 0.0]] * n, "radius": 1.0},
        "sequence": {"anchor": [[1.0, 0.0], *rest], "inward": [[-1.0, 0.0], *rest],
                     "c_p": 1 / (2 * math.pi), "a": 1.0, "j_start": 2, "j_end": 8},
        "R": 1.0,
        "grid_size": grid_size,
    }


# Only a scan reads its seed, `plan.seed`: its rays past the 2n signed axes
# and its directions come from sampling.sphere_directions, which reads the
# seed for n = 1 and n >= 3, and not for n = 2 (a Hopf lattice).  Every other
# command accepts a seed and reads none: a rescaling grid's rings fill from
# the seed-0 set in every dimension, and a sharp run's oracle is the top
# eigenvalue of the fd Hessian, not a direction set.  Each config runs seeds
# 0-7 and the test names the files whose bytes vary among them.
_SHARP_3D = {"command": "sharp", "function": "exp(z1)*z2^2+z3", "dimension": 3,
             "points": [[[0.1, 0.2], [0.3, -0.1], [-0.2, 0.4]], [[0.25, 0.0], [0.0, -0.3], [0.1, 0.1]]]}
_THM2_3D = _zalcman_config("z1+z2*z3", 3, 64)
_THM2_3D.update(command="thm2", sequence={**_THM2_3D["sequence"], "c_p": 0.5, "c_r": 0.3, "b": 2.0})


@pytest.mark.parametrize(
    "config,moved",
    [
        (_scan("sin(1/(1-z1))", 1), {"marty_scan.json", "marty_trend.csv"}),
        (_scan("z1*z2-1e16*z2", 2), set()),
        (_scan("z1+z2*z3^2", 3), {"marty_scan.json", "marty_trend.csv"}),
        (_COUNTEREXAMPLE, set()),
        (_zalcman_config("sin(1/(1-z1))+z2^2", 2, 64), set()),
        (_zalcman_config("sin(1/(1-z1))+z2*z3", 3, 16), set()),  # 4 points a ring: the axes alone
        (_zalcman_config("sin(1/(1-z1))+z2*z3", 3, 64), set()),  # rings of 8: two points past the 6 axes
        (_THM2_3D, set()),
        (_SHARP_3D, set()),
    ],
    ids=["scan-1d", "scan-2d", "scan-3d", "counterexample", "rescale-2d", "rescale-3d-axes-only", "rescale-3d",
         "thm2-3d", "sharp-3d"],
)
def test_only_a_scan_reads_its_seed(tmp_path, config, moved):
    runs = [_run(tmp_path, config["command"], _seeded(config, seed), outdir=str(seed)) for seed in range(8)]
    assert [code for code, _ in runs] == [0] * len(runs)
    files = [{path.name: path.read_bytes() for path in out.iterdir()} for _, out in runs]
    assert all(run.keys() == files[0].keys() for run in files)
    assert {name for name in files[0] if len({run[name] for run in files}) > 1} == moved


# --------------------------------------------------------------------------
# --format picks which of a run's outputs are written
# --------------------------------------------------------------------------

_OUTPUTS = {  # command -> (csv output, json output)
    "sharp": ("sharp.csv", "sharp.json"),
    "marty-scan": ("marty_trend.csv", "marty_scan.json"),
    "rescale": ("rescale_run.csv", "rescale.json"),
    "thm2": ("thm2_run.csv", "thm2.json"),
    "counterexample": ("counterexample.csv", "counterexample.json"),
}


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
@pytest.mark.parametrize("command", sorted(_OUTPUTS))
def test_format_flag_selects_the_outputs(tmp_path, command, fmt):
    config = _SMALL_CONFIGS[command]
    code, out = _run(tmp_path, command, config, outdir=fmt, extra=("--format", fmt))
    both_code, both = _run(tmp_path, command, config, outdir="default")
    assert code == both_code and code in (0, 4)
    csv_name, json_name = _OUTPUTS[command]
    expected = {"csv": {csv_name}, "json": {json_name}, "both": {csv_name, json_name}}[fmt]
    assert {path.name for path in out.iterdir()} == expected
    for name in expected:
        assert (out / name).read_bytes() == (both / name).read_bytes()


# each JSON report is its result record's fields, less and plus the few its
# runner names, so a field added to a record is reported
@pytest.mark.parametrize(
    "command,record,dropped,added",
    [
        ("marty-scan", NormalityEstimate, set(), {"function"}),
        ("rescale", ConvergenceReport, {"grid"}, {"hypothesis_flags", "limit_proxy", "sharp_profile"}),
        ("thm2", ConvergenceReport, {"grid"}, {"hypothesis_flags", "limit_proxy"}),
    ],
)
def test_json_report_is_its_result_record(tmp_path, command, record, dropped, added):
    code, out = _run(tmp_path, command, _SMALL_CONFIGS[command], extra=("--format", "json"))
    report = json.loads((out / _OUTPUTS[command][1]).read_text())
    assert set(report) == {field.name for field in dataclasses.fields(record)} - dropped | added
    if command == "rescale":
        assert set(report["sharp_profile"]) == {field.name for field in dataclasses.fields(SharpProfile)}


# --------------------------------------------------------------------------
# CSV cells are plain int and float literals
# --------------------------------------------------------------------------

def _plain_literal(cell: str) -> bool:
    if re.fullmatch(r"-?[0-9]+", cell):
        return str(int(cell)) == cell
    try:
        return repr(float(cell)) == cell
    except ValueError:
        return False


@pytest.mark.parametrize(
    "config,name",
    [
        (_rescaling_config("rescale"), "rescale_run.csv"),
        (_rescaling_config("thm2"), "thm2_run.csv"),
        ({**_COUNTEREXAMPLE, "n_max": 40}, "counterexample.csv"),
    ],
    ids=["rescale", "thm2", "counterexample"],
)
def test_run_csv_cells_are_plain_literals(tmp_path, config, name):
    code, out = _run(tmp_path, config["command"], config)
    assert code in (0, 4)
    with open(out / name, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert rows and all(len(row) == len(header) for row in rows)
    for row in rows:
        for cell in row:
            assert "np." not in cell and _plain_literal(cell), cell


# --------------------------------------------------------------------------
# Integer-valued floats and fuzzed configs
# --------------------------------------------------------------------------

# JSON Schema counts 2.0 as an integer, so these passed validation and then
# ended in a TypeError traceback (exit 1)
@pytest.mark.parametrize(
    "config",
    [
        {"command": "sharp", "function": "z1*z2", "dimension": 2, "points": [[[1.0, 0.0], [0.5, -0.25]]]},
        _scan_config(DISC),
        _rescaling_config("rescale"),
        _rescaling_config("thm2"),
    ],
    ids=lambda config: config["command"],
)
def test_integer_valued_float_dimension_runs_as_its_int_twin(tmp_path, config):
    code, out = _run(tmp_path, config["command"], config, outdir="int")
    twin = {**config, "dimension": float(config["dimension"])}
    twin_code, twin_out = _run(tmp_path, config["command"], twin, outdir="float")
    assert twin_code == code
    names = sorted(path.name for path in out.iterdir())
    assert names and names == sorted(path.name for path in twin_out.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (twin_out / name).read_bytes()


def _int(lo, hi):
    # an integer-valued float is an integer to JSON Schema
    return st.integers(lo, hi) | st.integers(lo, hi).map(float)


_POSITIVE = st.floats(min_value=0, max_value=4, exclude_min=True) | _int(1, 4)
_COORDINATE = st.floats(-2, 2) | _int(-2, 2)
_SEED_VALUE = _int(0, 2**32)
_FUZZ_FUNCTIONS = ["z1", "3", "exp(z1)", "sin(1/(1-z1))", "1/z1", "log(z1)", "z1^3-2*z1", "1/(z1-z1)"]
_FUZZ_FUNCTIONS_2D = ["z1*z2", "exp(z2)/(1-z1)", "sin(1/(1-z1))*z2", "log(1+z1*z2)"]


@st.composite
def _fuzz_config(draw, command):
    if command == "counterexample":
        return draw(st.fixed_dictionaries(
            {"command": st.just(command), "n_max": _int(3, 20), "R": _POSITIVE},
            optional={"grid_size": _int(2, 16), "seed": _SEED_VALUE},
        ))
    n = draw(st.integers(1, 3))
    point = st.lists(st.lists(_COORDINATE, min_size=2, max_size=2), min_size=n, max_size=n)
    head = {
        "command": st.just(command),
        "function": st.sampled_from(_FUZZ_FUNCTIONS + _FUZZ_FUNCTIONS_2D * (n >= 2)),
        "dimension": st.sampled_from([n, float(n)]),
    }
    if command == "sharp":
        return draw(st.fixed_dictionaries(
            {**head, "points": st.lists(point, min_size=1, max_size=4)},
            optional={
                "h": st.floats(min_value=0, max_value=1, exclude_min=True),
                "sphere_samples": _int(1, 16),
                "seed": _SEED_VALUE,
            },
        ))
    domain = st.fixed_dictionaries({"type": st.just("ball"), "center": point, "radius": _POSITIVE}) | (
        st.fixed_dictionaries({
            "type": st.just("polydisc"),
            "center": point,
            "radii": st.lists(_POSITIVE, min_size=n, max_size=n),
        })
    )
    if command == "marty-scan":
        plan = st.fixed_dictionaries(
            {
                "shells": st.lists(st.floats(0, 1, exclude_min=True) | st.just(1), min_size=1, max_size=3),
                "points_per_shell": _int(1, 4),
                "directions_per_point": _int(1, 4),
            },
            optional={"seed": _SEED_VALUE},
        )
        return draw(st.fixed_dictionaries({**head, "domain": domain, "plan": plan}))
    j_start, j_end = sorted(draw(st.lists(_int(1, 20), min_size=2, max_size=2)))
    scale = {"c_r": _POSITIVE, "b": _POSITIVE} if command == "thm2" else {}
    sequence = st.fixed_dictionaries({
        "anchor": point,
        "inward": point,
        "c_p": _POSITIVE,
        "a": _POSITIVE,
        "j_start": st.just(j_start),
        "j_end": st.just(j_end),
        **scale,
    })
    return draw(st.fixed_dictionaries(
        {**head, "domain": domain, "sequence": sequence, "R": _POSITIVE},
        optional={"grid_size": _int(2, 16), "tol": _POSITIVE, "seed": _SEED_VALUE},
    ))


@pytest.mark.parametrize("command", ["sharp", "marty-scan", "rescale", "thm2", "counterexample"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_configs_end_in_a_documented_exit_code(tmp_path, command, data):
    config = data.draw(_fuzz_config(command))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code, _ = _run(tmp_path, command, config)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
