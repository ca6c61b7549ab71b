"""Child process of the normlab benchmark.

    python perfbench/worker.py setup LIST.json
        Import normlab.cli, load and validate every config named in LIST.json
        through normlab.config, print "ready" and exit.  The parent times a
        fresh interpreter up to that line: the benchmark's set-up time.  The
        line also carries the reference speed (the mean of the kernel's time at
        the start and the end, measured in this process) and the seconds those
        measurements took, which the parent takes out of the figure.

    python perfbench/worker.py loop PLAN.json
        Import normlab.cli and run the plan's tasks through normlab.cli.main in
        this one process, closed loop, whole cycles, until the plan's seconds
        have passed.  With "trace" set, wrap the public functions first and
        write the spans out at the end.

normlab must be importable (PYTHONPATH=src); the parent sets that.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path


def reference_kernel() -> float:
    """Seconds this fixed piece of interpreter work takes now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(20_000):
        acc += i * i
        table[i & 255] = acc
    return time.perf_counter() - t0


def reference_speed() -> float:
    """The machine's current speed, as the reference kernel's median time of
    three (one 2 ms sample is jittery).

    The machine's speed drifts by a fifth and more over tens of seconds when
    other tenants load the host.  Timing the kernel right before and after
    each task lets the parent express the task's time at a reference speed.
    """
    return statistics.median(reference_kernel() for _ in range(3))


def _setup(list_path: str) -> int:
    t0 = time.perf_counter()
    ref_start = reference_speed()
    ref_cost = time.perf_counter() - t0
    import normlab.cli  # noqa: F401  (the import is what is timed)
    from normlab import config as cfg
    from normlab.errors import ConfigError

    bad = []
    for entry in json.loads(Path(list_path).read_text()):
        try:
            cfg.validate_config(cfg.load_config(entry["path"]))
            valid = True
        except ConfigError:
            valid = False
        if valid != entry["valid"]:
            bad.append(entry["path"])
    if bad:
        print("unexpected validation: " + " ".join(bad), flush=True)
    else:
        t0 = time.perf_counter()
        ref_end = reference_speed()
        ref_cost += time.perf_counter() - t0
        print(f"ready {(ref_start + ref_end) / 2!r} {ref_cost!r}", flush=True)
    return 0


def run_main(argv: list[str]) -> tuple[int, str, str, int]:
    """One CLI invocation in this process: (exit code, stdout, stderr, warnings).

    An exception escaping main is what a cold process would print as a
    traceback and exit 1 on, so it is reported the same way.  Warnings are
    recorded per call, as a fresh process would show them once per call site.
    """
    import normlab.cli

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = normlab.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, out.getvalue(), err.getvalue(), len(caught)


def _loop(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    import normlab.cli  # noqa: F401

    store = None
    if plan["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
        from perfbench.trace import SpanStore

        store = SpanStore()
        store.install()

    tasks, cycle = plan["tasks"], plan["cycle"]
    records = []
    start = time.perf_counter()
    ref_before = reference_speed()
    seq = plan.get("first_seq", 0)
    while True:
        first = (seq // cycle * cycle) % len(tasks)
        for pool_index in range(first, first + cycle):
            out = Path(plan["out"]) / str(seq)
            argv = [tasks[pool_index]["command"], "--config", tasks[pool_index]["path"], "--out", str(out)]
            if store is not None:
                store.task = seq
            t0 = time.perf_counter()
            code, stdout, stderr, n_warn = run_main(argv)
            wall = time.perf_counter() - t0
            ref_after = reference_speed()
            records.append(
                {"seq": seq, "pool_index": pool_index, "code": code, "wall_s": wall,
                 "ref_s": (ref_before + ref_after) / 2, "stdout": stdout, "stderr": stderr,
                 "warnings": n_warn, "out": str(out)}
            )
            ref_before = ref_after
            seq += 1
        if time.perf_counter() - start >= plan["seconds"]:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if store is not None:
        store.uninstall()
        store.save(plan["spans"])
    rerun = None
    if plan.get("rerun") is not None:
        # The reproducibility contract: the same config again, outputs compared
        # byte for byte by the parent.  Not timed.
        out = Path(plan["out"]) / "rerun"
        task = tasks[plan["rerun"]]
        code, stdout, stderr, n_warn = run_main([task["command"], "--config", task["path"], "--out", str(out)])
        rerun = {"seq": "rerun", "pool_index": plan["rerun"], "code": code, "stdout": stdout,
                 "stderr": stderr, "warnings": n_warn, "out": str(out)}
    result = {"records": records, "peak_rss_kb": peak_kb, "rerun": rerun}
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    mode, path = sys.argv[1], sys.argv[2]
    sys.exit(_setup(path) if mode == "setup" else _loop(path))
