"""Tests of the benchmark itself (not of normlab).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import check, gen, run, trace
from perfbench.worker import run_main

ROOT = Path(__file__).resolve().parents[2]


def test_same_seed_same_configs():
    for name in gen.WORKLOADS:
        a, b = gen.workload(name, 7), gen.workload(name, 7)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert json.dumps(a, sort_keys=True) != json.dumps(gen.workload(name, 8), sort_keys=True)


def test_cycles_keep_their_shape_across_seeds():
    for name in gen.WORKLOADS:
        a, b = gen.workload(name, 1), gen.workload(name, 2)
        assert [t["name"] for t in a["tasks"]] == [t["name"] for t in b["tasks"]]
        assert len(a["tasks"]) % a["cycle"] == 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(gen.WORKLOADS)


def _run_task(task, tmp_path, out_name="out"):
    config = tmp_path / f"{out_name}.json"
    config.write_text(json.dumps(task["config"]))
    out = tmp_path / out_name
    code, stdout, stderr, _ = run_main([task["command"], "--config", str(config), "--out", str(out)])
    return code, stdout, stderr, out


@pytest.fixture
def small_tasks():
    plan = gen.workload("cli-cold", 3)
    return {t["command"]: t for t in plan["tasks"] if t["name"].split("-")[0] != "hostile"}


def _rewrite(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def test_checker_accepts_real_outputs(small_tasks, tmp_path):
    for command in ("sharp", "marty-scan", "rescale", "thm2", "counterexample"):
        task = small_tasks[command]
        code, stdout, stderr, out = _run_task(task, tmp_path, command)
        assert check.check_task(task, code, stdout, stderr, out) > 0


def test_checker_rejects_flipped_verdict(small_tasks, tmp_path):
    task = small_tasks["marty-scan"]
    code, stdout, stderr, out = _run_task(task, tmp_path)
    _rewrite(out / "marty_scan.json", lambda d: d.update(verdict="divergent"))
    with pytest.raises(check.CheckFailed, match="verdict"):
        check.check_task(task, code, stdout, stderr, out)

    task = small_tasks["thm2"]
    code, stdout, stderr, out = _run_task(task, tmp_path, "thm2")
    _rewrite(out / "thm2.json", lambda d: d.update(verdict="no-convergence"))
    with pytest.raises(check.CheckFailed, match="verdict"):
        check.check_task(task, code, stdout, stderr, out)


def test_checker_rejects_perturbed_sharp_fd(small_tasks, tmp_path):
    task = small_tasks["sharp"]
    code, stdout, stderr, out = _run_task(task, tmp_path)

    def perturb(d):
        d["rows"][0]["sharp_fd"] *= 1.01

    _rewrite(out / "sharp.json", perturb)
    with pytest.raises(check.CheckFailed, match="rel_dev"):
        check.check_task(task, code, stdout, stderr, out)


def test_checker_rejects_wrong_levi(small_tasks, tmp_path):
    task = small_tasks["marty-scan"]
    code, stdout, stderr, out = _run_task(task, tmp_path)

    def perturb(d):
        # a uniformly wrong kernel: every derived figure stays consistent
        for s in d["samples"]:
            s["levi"] *= 1 + 1e-6
            s["ratio_lower"] = s["levi"] / s["k_upper"] ** 2
            s["ratio_upper"] = s["levi"] / s["k_lower"] ** 2
        d["c_required_lower_bound"] = max(s["ratio_lower"] for s in d["samples"])
        block = len(d["samples"]) // len(d["shell_trend"])
        for k, shell in enumerate(d["shell_trend"]):
            shell[1] = max(s["ratio_lower"] for s in d["samples"][k * block:(k + 1) * block])

    _rewrite(out / "marty_scan.json", perturb)
    with pytest.raises(check.CheckFailed, match="mpmath"):
        check.check_task(task, code, stdout, stderr, out)


def test_checker_rejects_traceback_and_exit_code(small_tasks, tmp_path):
    task = small_tasks["counterexample"]
    code, stdout, stderr, out = _run_task(task, tmp_path)
    injected = stderr + "Traceback (most recent call last):\n  File ...\nValueError: boom\n"
    with pytest.raises(check.CheckFailed, match="traceback"):
        check.check_task(task, code, stdout, injected, out)
    with pytest.raises(check.CheckFailed, match="exit 1"):
        check.check_task(task, 1, stdout, stderr, out)


def test_checker_rejects_non_identical_rerun(small_tasks, tmp_path):
    task = small_tasks["rescale"]
    _, _, _, first = _run_task(task, tmp_path, "first")
    _, _, _, second = _run_task(task, tmp_path, "second")
    assert check.digest(first) == check.digest(second)
    assert check.repeats_identical([(0, check.digest(first)), (0, check.digest(second))]) == []
    text = (second / "rescale.json").read_text()
    (second / "rescale.json").write_text(text.replace('"tol"', '"tol" ', 1))
    assert check.repeats_identical([(0, check.digest(first)), (0, check.digest(second))]) == [0]


def test_known_defects_are_caught(tmp_path):
    probes = {p["name"]: p for p in gen.workload("cli-cold", 0)["probes"]}
    probe = probes["deep-nesting-3000"]
    code, stdout, stderr, out = _run_task(probe, tmp_path)
    with pytest.raises(check.CheckFailed):
        check.check_task(probe, code, stdout, stderr, out)


def test_self_times_on_nested_spans():
    #  0 root  [0, 10]
    #  1   a   [1, 4]      child of root
    #  2     b [2, 3]      child of a
    #  3   c   [5, 9]      child of root
    #  4   d   [8, 12]     child of root, overlaps c, runs past root's end
    start = np.array([0.0, 1.0, 2.0, 5.0, 8.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    parent = np.array([-1, 0, 1, 0, 0])
    got = trace.self_times(start, end, parent)
    # root: 10 - |[1,4] u [5,9] u [8,10]| = 10 - (3 + 5) = 2
    np.testing.assert_allclose(got, [2.0, 2.0, 1.0, 4.0, 4.0])
    assert trace.under(np.array([0, 1, 2, 1, 1]), parent, [1]).tolist() == [False, False, True, False, False]


def test_span_store_records_nested_calls(tmp_path):
    import normlab
    import normlab.cli  # noqa: F401
    from normlab import metrics

    store = trace.SpanStore()
    store.install()
    try:
        store.task = 5
        f = normlab.parse("z1*z2", 2)
        metrics.levi_log1p_closed(f, (0.1j, 0.2), (1.0, 0.0))
    finally:
        store.uninstall()
    assert metrics.evaluate_jet is normlab.expr.evaluate_jet  # restored
    path = tmp_path / "spans.npz"
    store.save(str(path))
    spans = trace.load([str(path)])
    labels = [spans["names"][i] for i in spans["name"]]
    assert labels == ["expr.parse", "metrics.levi_log1p_closed", "expr.evaluate_jet"]
    assert spans["parent"].tolist() == [-1, -1, 1]
    assert set(spans["task"].tolist()) == {5}


def test_tail_percentile():
    walls = [float(i) for i in range(1, 41)]
    value, pct, beyond = run.tail(walls)
    assert (value, pct, beyond) == (30.0, 75.0, 10)
