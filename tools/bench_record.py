"""Record one point of the benchmark's trajectory.

    python3 tools/bench_record.py BENCH_<n>.json

Run from the repository root, on an otherwise idle host.  Runs the benchmark
that BENCHMARK.json declares (perfbench/run.py --trace 0) for its run_seconds
on each of its workloads at seeds 1, 2 and 3, one run at a time, and writes
the median of each end-to-end metric per workload, each run's values, the
CPU count, the Python, numpy and mpmath versions, the commit and the bytecode
state: `PYTHONDONTWRITEBYTECODE` as this process sees it (the runs inherit
it), and whether `src/normlab/__pycache__` exists before the first run and
after the last.  `setup_s` and cli-cold's wall times depend on that state,
so compare only records made in the same one.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _run(command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.splitlines()[-1])
    metrics = {name: value["value"] for name, value in line["metrics"].items()}
    return {"seed": seed, "correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"], "metrics": metrics}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in bench["end_to_end"]]
    pycache = ROOT / "src" / "normlab" / "__pycache__"
    bytecode = {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                "pycache_before": pycache.is_dir()}
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(_run(bench["command"], workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", flush=True)
        median = {name: statistics.median(run["metrics"][name] for run in runs) for name in names}
        workloads[workload] = {"median": median, "runs": runs}
    bytecode["pycache_after"] = pycache.is_dir()
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "--", "src")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "bytecode": bytecode,
        "seeds": list(SEEDS),
        "seconds": bench["run_seconds"],
        "workloads": workloads,
    }
    Path(argv[0]).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
