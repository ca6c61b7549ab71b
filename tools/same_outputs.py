"""Digest the CLI outputs of every benchmark task, to name the tasks a change moved.

    python3 tools/same_outputs.py SRC > digests.txt

SRC is the directory that holds the `normlab` package: `src` of a checkout.
Every task and probe that `perfbench/gen.py` makes for seeds 1, 2 and 3 of
each workload runs through that package's `normlab.cli.main`, in this
process, with its own config file and a fresh `--out`.  A task's config is
written as `json.dumps(config, indent=1)`, a probe's raw `text` as given.
Each task prints one line: workload, seed, `task` or `probe` and its place in
the pool, name, and one SHA-256 over its exit code, stdout, stderr and every
output file, name and bytes.  The pools come from the `perfbench` next to this
script, so two trees run the same tasks, and

    diff <(python3 tools/same_outputs.py A/src) <(python3 tools/same_outputs.py B/src)

names each task whose outputs moved.  An exception that escapes `main` is
recorded as exit 1 with its last line, and a warning as its category and
message, so no file path of either tree enters a digest.  Such a task leaked:
it is named on stderr as well, and the script exits 1 once every task has run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def digest(main, task: dict, work: Path) -> tuple[str, bool]:
    """One task through `main` in a fresh `work` directory, as one SHA-256,
    and whether it leaked: a warning, or an exception out of `main`."""
    work.mkdir()
    config, out = work / "config.json", work / "out"
    config.write_text(task["text"] if "text" in task else json.dumps(task["config"], indent=1))
    stdout, stderr, escaped = io.StringIO(), io.StringIO(), False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([task["command"], "--config", str(config), "--out", str(out)])
            except Exception as exc:
                stderr.write("".join(traceback.format_exception_only(exc)))
                code, escaped = 1, True
    stderr.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
    sha = hashlib.sha256(json.dumps([code, stdout.getvalue(), stderr.getvalue()]).encode())
    for path in sorted(out.iterdir()) if out.exists() else ():
        data = path.read_bytes()
        sha.update(f"\0{path.name}\0{len(data)}\0".encode())
        sha.update(data)
    return sha.hexdigest(), escaped or bool(caught)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    src = Path(argv[0]).resolve()
    sys.path[:0] = [str(src), str(ROOT)]
    import normlab.cli
    from perfbench import gen

    if Path(normlab.cli.__file__).resolve().parents[1] != src:
        sys.exit(f"normlab was imported from {normlab.cli.__file__}, not from {src}")
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in gen.WORKLOADS:
            for seed in SEEDS:
                pool = gen.workload(workload, seed)
                for kind in ("tasks", "probes"):
                    for k, task in enumerate(pool[kind]):
                        sha, leaked = digest(normlab.cli.main, task, Path(tmp, f"{workload}-{seed}-{kind}-{k}"))
                        print(workload, seed, kind[:-1], k, task["name"], sha, flush=True)
                        if leaked:
                            status = 1
                            print("leaked:", workload, seed, kind[:-1], k, task["name"], file=sys.stderr, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
