"""The normlab benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Run from the repository root.  The seed generates the workload's JSON run
configs (perfbench/gen.py); the program receives only those, through its
user entry points: normlab.cli.main(argv) in one warm worker process
(scan, rescale, oracle) or one cold `python -m normlab.cli` per command
(cli-cold).  normlab runs from src/ (PYTHONPATH), NORMLAB_THREADS unset.

The load is a closed loop with one client: each task starts when the previous
one ends, whole cycles of the pool until --seconds have passed.  Every output
is checked (perfbench/check.py).  With --trace 0 the end-to-end metrics are
reported; with --trace 1 the same load runs untraced and then traced, and the
per-layer metrics come from the traced run's spans (perfbench/trace.py).

Human-readable lines go to stdout, the full record to
perfbench/out/results/, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import check, gen  # noqa: E402
from perfbench.worker import reference_speed  # noqa: E402

SETUP_SAMPLES = 3
# Seconds the reference kernel takes at the reference speed (its typical time
# on a 2-vCPU 2.1 GHz cloud host).  Reported times are wall times scaled by
# REFERENCE_S over the kernel's time around them; raw wall times are printed
# and recorded too.
REFERENCE_S = 2.0e-3
CHILD_TIMEOUT_S = 120
UNIT_OF = {
    "scan": "scan sample (point x direction)",
    "rescale": "grid evaluation (usable index x grid point, limit-sharp grid included)",
    "oracle": "sharp point (closed form plus fd oracle)",
    "cli-cold": "command",
}
END_TO_END = {
    "units_per_s": "units/s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
IMPORT_MODULES = ["expr", "sampling", "metrics", "rescaling", "config", "cli"]
PER_LAYER = {
    "expr.evaluate_jet.calls": "count/task",
    "expr.evaluate_jet.self_s": "s/task",
    "expr.evaluate_jet.errors": "count/task",
    "expr.evaluate.calls": "count/task",
    "expr.evaluate.self_s": "s/task",
    "expr.evaluate.errors": "count/task",
    "expr.affine_pullback.calls": "count/task",
    "expr.affine_pullback.self_s": "s/task",
    "expr.to_source.self_s": "s/task",
    "expr.parse.self_s": "s/task",
    "metrics.levi_log1p_closed.calls": "count/task",
    "metrics.levi_log1p_closed.self_s": "s/task",
    "metrics.normality_scan.self_s": "s/task",
    "metrics.normality_scan.jets_per_point": "ratio",
    "metrics.normality_scan.skipped_frac": "ratio",
    "metrics.kobayashi_domain_bounds.calls": "count/task",
    "metrics.kobayashi_domain_bounds.self_s": "s/task",
    "metrics.kobayashi_ball.self_s": "s/task",
    "domains.contains.calls": "count/task",
    "domains.boundary_distance.calls": "count/task",
    "domains.boundary_distance.self_s": "s/task",
    "domains.inscribed_ball.self_s": "s/task",
    "domains.circumscribed_ball.self_s": "s/task",
    "domains.ray_extent.self_s": "s/task",
    "rescaling.zalcman_rescale.self_s": "s/task",
    "rescaling.explicit_rescale.self_s": "s/task",
    "rescaling.convergence_report.self_s": "s/task",
    "rescaling.limit_sharp_check.self_s": "s/task",
    "rescaling.remark_counterexample.self_s": "s/task",
    "rescaling.convergence_report.evals_per_grid_point": "ratio",
    "rescaling.convergence_report.excluded": "count/task",
    "sampling.ball_grid.calls": "count/task",
    "sampling.ball_grid.self_s": "s/task",
    "metrics.sharp_fd.calls": "count/task",
    "metrics.sharp_fd.self_s": "s/task",
    "metrics.sharp_fd.evals_per_direction": "ratio",
    "metrics.levi_form_fd.self_s": "s/task",
    "metrics.sharp.calls": "count/task",
    "metrics.sharp.self_s": "s/task",
    "sampling.sphere_directions.calls": "count/task",
    "sampling.sphere_directions.self_s": "s/task",
    "sampling.sphere_directions.distinct_frac": "ratio",
    "sampling.scan_rays.self_s": "s/task",
    "cli.main.calls": "count/task",
    "cli.main.self_s": "s/task",
    "cli.output_bytes": "bytes/task",
    "cli.warnings": "count/task",
    "config.load_config.self_s": "s/task",
    "config.validate_config.self_s": "s/task",
    **{f"{m}.import_s": "s" for m in IMPORT_MODULES},
    "trace.overhead_frac": "ratio",
}


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NORMLAB_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, timeout: float) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in KB).

    The child is reaped with wait4, which returns its own resource usage.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(int(timeout))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise RuntimeError(f"child timed out after {timeout:.0f} s: {argv}") from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def calibrated(wall: float, ref: float) -> float:
    return wall * REFERENCE_S / ref


def setup_time(list_path: Path) -> tuple[float, float]:
    """Seconds from a fresh interpreter to normlab.cli imported and every
    config of the pool loaded and validated (the "ready" line of a setup
    child), and the reference speed measured in that child."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench/worker.py"), "setup", str(list_path)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT, text=True,
    )
    try:
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line[:1] != ["ready"] or proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {' '.join(line)!r}, exit {proc.returncode}")
    ref, ref_cost = (float(x) for x in line[1:])
    return elapsed - ref_cost, ref


def import_times(work: Path) -> dict[str, float]:
    """Cumulative import seconds per normlab module, from -X importtime."""
    err = work / "importtime.err"
    code, _, _ = spawn(
        [sys.executable, "-X", "importtime", "-c", "import normlab.cli"],
        work / "importtime.out", err, CHILD_TIMEOUT_S,
    )
    if code != 0:
        raise RuntimeError("import of normlab.cli failed")
    found = {}
    for line in err.read_text().splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+normlab\.(\w+)\s*$", line)
        if m:
            found[m.group(2)] = int(m.group(1)) * 1e-6
    return {f"{mod}.import_s": found.get(mod, 0.0) for mod in IMPORT_MODULES}


# --------------------------------------------------------------------------
# The load
# --------------------------------------------------------------------------

def run_warm(plan: dict, work: Path, seconds: float, traced: bool) -> dict:
    """One worker process runs the tasks through normlab.cli.main."""
    tag = "traced" if traced else "plain"
    spec = {
        "tasks": plan["tasks"], "cycle": plan["cycle"], "seconds": seconds, "trace": traced,
        "out": str(work / f"out-{tag}"), "result": str(work / f"result-{tag}.json"),
        "spans": str(work / "spans-0.npz"), "rerun": None if traced else plan["rerun"],
    }
    path = work / f"plan-{tag}.json"
    path.write_text(json.dumps(spec))
    code, _, _ = spawn(
        [sys.executable, str(ROOT / "perfbench/worker.py"), "loop", str(path)],
        work / f"worker-{tag}.out", work / f"worker-{tag}.err", seconds + CHILD_TIMEOUT_S,
    )
    if code != 0:
        raise RuntimeError(f"worker exited {code}: {(work / f'worker-{tag}.err').read_text()[-2000:]}")
    result = json.loads(Path(spec["result"]).read_text())
    result["span_files"] = [spec["spans"]] if traced else []
    return result


def run_cold(plan: dict, work: Path, seconds: float, traced: bool) -> dict:
    """One cold process per command, one at a time.  Traced children run the
    command through the worker, which wraps normlab after importing it."""
    tag = "traced" if traced else "plain"
    out_root = work / f"out-{tag}"
    out_root.mkdir()
    tasks, cycle = plan["tasks"], plan["cycle"]
    records, span_files, peak_kb = [], [], 0
    start = time.perf_counter()
    seq = 0
    while True:
        first = seq % len(tasks)
        for pool_index in range(first, first + cycle):
            task = tasks[pool_index]
            record = cold_command(task, out_root, seq, traced)
            record["pool_index"] = pool_index
            peak_kb = max(peak_kb, record.pop("rss_kb"))
            if traced:
                span_files.append(record.pop("spans"))
            records.append(record)
            seq += 1
        if time.perf_counter() - start >= seconds:
            break
    result = {"records": records, "peak_rss_kb": peak_kb, "span_files": span_files, "rerun": None}
    if not traced:
        task = tasks[plan["rerun"]]
        rerun = cold_command(task, out_root, "rerun", False)
        result["rerun"] = dict(rerun, pool_index=plan["rerun"])
    return result


def cold_command(task: dict, out_root: Path, seq, traced: bool) -> dict:
    out = out_root / str(seq)
    stdout, stderr = out_root / f"{seq}.stdout", out_root / f"{seq}.stderr"
    if traced:
        spec = {
            "tasks": [task], "cycle": 1, "seconds": 0, "trace": True, "first_seq": seq,
            "out": str(out_root), "result": str(out_root / f"{seq}.result.json"),
            "spans": str(out_root / f"{seq}.spans.npz"),
        }
        plan_path = out_root / f"{seq}.plan.json"
        plan_path.write_text(json.dumps(spec))
        argv = [sys.executable, str(ROOT / "perfbench/worker.py"), "loop", str(plan_path)]
    else:
        argv = [sys.executable, "-m", "normlab.cli", task["command"],
                "--config", task["path"], "--out", str(out)]
    ref_before = reference_speed()
    code, wall, rss_kb = spawn(argv, stdout, stderr, CHILD_TIMEOUT_S)
    ref = (ref_before + reference_speed()) / 2
    record = {"seq": seq, "code": code, "wall_s": wall, "ref_s": ref, "rss_kb": rss_kb, "out": str(out),
              "stdout": stdout.read_text(errors="replace"), "stderr": stderr.read_text(errors="replace")}
    if traced:
        if code != 0:
            raise RuntimeError(f"traced child exited {code}: {record['stderr'][-2000:]}")
        inner = json.loads(Path(spec["result"]).read_text())["records"][0]
        record.update(code=inner["code"], stdout=inner["stdout"], stderr=inner["stderr"],
                      warnings=inner["warnings"], spans=spec["spans"])
    else:
        record["warnings"] = len(re.findall(r"^\S.*:\d+: \w*Warning: ", record["stderr"], re.M))
    return record


# --------------------------------------------------------------------------
# Checks and metrics
# --------------------------------------------------------------------------

def judge(records: list[dict], tasks: list[dict], workload: str) -> list[str]:
    """Check every record in place (units, failure); return failure lines."""
    failures = []
    for rec in records:
        task = tasks[rec["pool_index"]]
        out = Path(rec["out"])
        try:
            units = check.check_task(task, rec["code"], rec["stdout"], rec["stderr"], out, rec)
            rec["units"] = 1 if workload == "cli-cold" else units
            rec["failure"] = None
        except (check.CheckFailed, KeyError, ValueError, TypeError, IndexError) as exc:
            rec["units"] = 0
            rec["failure"] = f"{type(exc).__name__}: {exc}" if not isinstance(exc, check.CheckFailed) else str(exc)
            failures.append(f"task {rec['seq']} ({task['name']}): {rec['failure']}")
        rec["digest"] = check.digest(out)
        rec["output_bytes"] = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    return failures


def tail(walls: list[float]) -> tuple[float, float, int]:
    """The wall time at the highest percentile with at least ten tasks beyond
    it: (seconds, percentile, tasks beyond)."""
    ordered = sorted(walls)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def throughput(records: list[dict], cycle: int, key: str = "cal_s") -> float:
    """Units per second of task time for one cycle of the load, each cycle
    position taken at its median over the run's cycles.  Medians keep a burst
    of interference on a shared machine from moving the figure; a failed task
    contributes its time and no units."""
    positions: dict[int, list[dict]] = {}
    for r in records:
        positions.setdefault(r["pool_index"] % cycle, []).append(r)
    units = sum(statistics.median(r["units"] for r in rs) for rs in positions.values())
    times = sum(statistics.median(r[key] for r in rs) for rs in positions.values())
    return units / times


def end_to_end(records: list[dict], cycle: int, setup: list[float], peak_kb: int,
               key: str = "cal_s") -> dict:
    times = [r[key] for r in records]
    value, pct, beyond = tail(times)
    return {
        "units_per_s": throughput(records, cycle, key),
        "task_p50_s": statistics.median(times),
        "task_tail_s": value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
        "_tail_percentile": pct,
        "_tail_beyond": beyond,
    }


def layer_metrics(traced: dict, tasks: list[dict], overhead: float, imports: dict) -> dict:
    import numpy as np

    from perfbench import trace

    records = traced["records"]
    n_tasks = len(records)
    spans = trace.load(traced["span_files"])
    names = spans["names"]
    ids = {label: i for i, label in enumerate(names)}
    name, parent, task_of = spans["name"], spans["parent"], spans["task"]
    k = len(names)
    calls = np.bincount(name, minlength=k).astype(float)
    self_s = np.bincount(name, weights=trace.self_times(spans["start"], spans["end"], parent), minlength=k)
    errors = np.bincount(name, weights=spans["error"], minlength=k)
    by_seq = {r["seq"]: tasks[r["pool_index"]] for r in records}

    def count_under(child: str, ancestor: str) -> float:
        if child not in ids or ancestor not in ids:
            return 0.0
        return float(np.sum((name == ids[child]) & trace.under(name, parent, [ids[ancestor]])))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for metric in PER_LAYER:
        label, _, stat = metric.rpartition(".")
        table = {"calls": calls, "self_s": self_s, "errors": errors}.get(stat)
        if table is not None:
            out[metric] = float(table[ids[label]]) / n_tasks if label in ids else 0.0

    scans = [by_seq[r["seq"]] for r in records if by_seq[r["seq"]]["command"] == "marty-scan"]
    scan_points = sum(t["expect"]["points"] for t in scans)
    out["metrics.normality_scan.jets_per_point"] = ratio(
        count_under("expr.evaluate_jet", "metrics.normality_scan"), scan_points)
    out["metrics.normality_scan.skipped_frac"] = ratio(
        sum(r.get("skipped", 0) for r in records), sum(t["expect"]["samples"] for t in scans))

    directions = 0
    if "metrics.sharp_fd" in ids:
        for seq in task_of[name == ids["metrics.sharp_fd"]].tolist():
            directions += by_seq[seq]["config"].get("sphere_samples", 256)
    out["metrics.sharp_fd.evals_per_direction"] = ratio(
        count_under("expr.evaluate", "metrics.sharp_fd"), directions)

    grid_notes = spans["notes"].get("rescaling.convergence_report", [])
    out["rescaling.convergence_report.evals_per_grid_point"] = ratio(
        count_under("expr.evaluate", "rescaling.convergence_report"), sum(v[0] for _, v in grid_notes))
    out["rescaling.convergence_report.excluded"] = sum(v[1] for _, v in grid_notes) / n_tasks

    keys_by_task: dict[int, list] = {}
    for seq, key in spans["notes"].get("sampling.sphere_directions", []):
        keys_by_task.setdefault(seq, []).append(tuple(key))
    out["sampling.sphere_directions.distinct_frac"] = ratio(
        sum(len(set(v)) for v in keys_by_task.values()), sum(len(v) for v in keys_by_task.values()))

    out["cli.output_bytes"] = sum(r["output_bytes"] for r in records) / n_tasks
    out["cli.warnings"] = sum(r["warnings"] for r in records) / n_tasks
    out.update(imports)
    out["trace.overhead_frac"] = overhead
    return out


def probe_defects(plan: dict, work: Path) -> list[dict]:
    """Run each known-defect input cold and report how it ends."""
    out_root = work / "out-probes"
    out_root.mkdir()
    results = []
    for k, probe in enumerate(plan["probes"]):
        rec = cold_command(probe, out_root, f"p{k}", False)
        try:
            check.check_task(probe, rec["code"], rec["stdout"], rec["stderr"], Path(rec["out"]))
            failure = None
        except check.CheckFailed as exc:
            failure = str(exc)
        results.append({"name": probe["name"], "expected": probe["expect"]["codes"],
                        "exit": rec["code"], "failure": failure, "wall_s": rec["wall_s"]})
    return results


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src/normlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def write_inputs(plan: dict, work: Path) -> Path:
    configs = work / "configs"
    configs.mkdir(parents=True)
    for i, task in enumerate(plan["tasks"]):
        task["path"] = str(configs / f"{i}.json")
        Path(task["path"]).write_text(json.dumps(task["config"], indent=1))
    for k, probe in enumerate(plan["probes"]):
        probe["path"] = str(configs / f"probe-{k}.json")
        Path(probe["path"]).write_text(probe.get("text") or json.dumps(probe["config"]))
    listing = work / "setup-list.json"
    listing.write_text(json.dumps(
        [{"path": t["path"], "valid": 2 not in t["expect"]["codes"]} for t in plan["tasks"]]
    ))
    return listing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src/normlab/cli.py").is_file():
        print(f"normlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    plan = gen.workload(args.workload, args.seed)
    work = ROOT / "perfbench/out/work"
    shutil.rmtree(work, ignore_errors=True)
    listing = write_inputs(plan, work)
    cold = args.workload == "cli-cold"
    run_load = run_cold if cold else run_warm

    setup_samples = [setup_time(listing) for _ in range(SETUP_SAMPLES)]
    setup = [calibrated(wall, ref) for wall, ref in setup_samples]

    plain = run_load(plan, work, args.seconds, traced=False)
    loads = [plain]
    failures = judge(plain["records"], plan["tasks"], args.workload)
    rerun = plain["rerun"]
    failures += judge([rerun], plan["tasks"], args.workload)
    digests = [(r["pool_index"], r["digest"]) for r in plain["records"] + [rerun]]
    for pool_index in check.repeats_identical(digests):
        failures.append(f"outputs of {plan['tasks'][pool_index]['name']} differ between identical runs")
    for r in plain["records"]:
        r["cal_s"] = calibrated(r["wall_s"], r["ref_s"])
    e2e = end_to_end(plain["records"], plan["cycle"], setup, plain["peak_rss_kb"])
    raw = end_to_end(plain["records"], plan["cycle"], [w for w, _ in setup_samples],
                     plain["peak_rss_kb"], key="wall_s")

    if args.trace:
        traced = run_load(plan, work, args.seconds, traced=True)
        for r in traced["records"]:
            r["cal_s"] = calibrated(r["wall_s"], r["ref_s"])
        loads.append(traced)
        failures += judge(traced["records"], plan["tasks"], args.workload)
        traced_rate = throughput(traced["records"], plan["cycle"])
        overhead = traced_rate / e2e["units_per_s"] - 1.0 if e2e["units_per_s"] else 0.0
        metrics = layer_metrics(traced, plan["tasks"], overhead, import_times(work))
        units = PER_LAYER
    else:
        metrics = {k: e2e[k] for k in END_TO_END}
        units = END_TO_END

    probes = probe_defects(plan, work) if cold else []
    attempted = sum(len(load["records"]) for load in loads)
    failed = sum(1 for load in loads for r in load["records"] if r["failure"])
    env = environment()
    shutil.rmtree(work, ignore_errors=True)

    report(args, plain, e2e, raw, metrics, units, failures, probes, attempted, failed, env)
    correct = not failures
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    results = ROOT / "perfbench/out/results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, failures=failures, known_defects=probes,
                  tail_percentile=e2e["_tail_percentile"], tail_beyond=e2e["_tail_beyond"],
                  raw_wall_clock={k: raw[k] for k in END_TO_END},
                  tasks=[{k: r.get(k) for k in ("seq", "pool_index", "code", "wall_s", "ref_s", "units", "failure")}
                         for r in plain["records"]])
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


def report(args, plain, e2e, raw, metrics, units, failures, probes, attempted, failed, env) -> None:
    n = len(plain["records"])
    print(f"normlab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} commit={env['commit']} src_sha256={env['src_sha256'][:16]}")
    print(f"  unit of work: {UNIT_OF[args.workload]}")
    print("  times at the reference speed (raw wall-clock figures in brackets):")
    print(f"  units_per_s  = {e2e['units_per_s']:.6g} units/s  [{raw['units_per_s']:.6g}]")
    print(f"  task_p50_s   = {e2e['task_p50_s']:.6g} s  [{raw['task_p50_s']:.6g}]  ({n} tasks)")
    print(f"  task_tail_s  = {e2e['task_tail_s']:.6g} s  [{raw['task_tail_s']:.6g}]  "
          f"(p{e2e['_tail_percentile']:.0f} of {n} tasks, {e2e['_tail_beyond']} beyond it)")
    print(f"  setup_s      = {e2e['setup_s']:.6g} s  [{raw['setup_s']:.6g}]  "
          f"(median of {SETUP_SAMPLES} cold children)")
    print(f"  peak_rss_mb  = {e2e['peak_rss_mb']:.6g} MB")
    print(f"  error_rate   = {failed / attempted:.6g} ratio  ({failed} of {attempted} tasks failed)")
    if probes:
        bad = [p for p in probes if p["failure"]]
        print(f"  known-defect inputs (run outside the load): {len(bad)} of {len(probes)} fail; "
              f"error_rate with them = {(failed + len(bad)) / (attempted + len(probes)):.6g} ratio")
        for p in probes:
            state = f"FAIL ({p['failure']})" if p["failure"] else "ok"
            print(f"    {p['name']}: exit {p['exit']}, documented {p['expected']}: {state}")
    for line in failures:
        print(f"  FAILED {line}")
    if args.trace:
        print("  per-layer (traced run):")
        for k, unit in units.items():
            print(f"    {k} = {metrics[k]:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
