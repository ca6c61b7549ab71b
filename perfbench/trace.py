"""Spans around normlab's public functions, recorded from outside the program.

`SpanStore.install` replaces each traced function at every ``normlab.*``
module attribute that binds it (``metrics`` imports ``evaluate`` by name,
``cli`` imports the drivers, and so on), so inner calls are seen too.  Each
call records a span: name, start, end, parent span, task id and whether a
NormlabError escaped it.  Spans stay in compact arrays in memory and are
written out once, after the run.  Self time and the per-layer counts are
computed from them afterwards, in the parent.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

import numpy as np

# Defining module -> public functions traced there.
TRACED = {
    "normlab.expr": ["parse", "evaluate", "evaluate_jet", "affine_pullback", "to_source"],
    "normlab.metrics": [
        "levi_log1p_closed", "normality_scan", "kobayashi_domain_bounds",
        "kobayashi_ball", "sharp", "sharp_fd", "levi_form_fd",
    ],
    "normlab.domains": [
        "contains", "boundary_distance", "inscribed_ball", "circumscribed_ball", "ray_extent",
    ],
    "normlab.rescaling": [
        "zalcman_rescale", "explicit_rescale", "convergence_report",
        "limit_sharp_check", "remark_counterexample",
    ],
    "normlab.sampling": ["ball_grid", "sphere_directions", "scan_rays"],
    "normlab.config": ["load_config", "validate_config"],
    "normlab.cli": ["main"],
}


def _grid_note(args, kwargs, result):
    """convergence_report: index x grid points it covered, and the excluded."""
    run = args[0] if args else kwargs["run"]
    return [len(run.entries) * len(result.grid), len(result.excluded)]


def _directions_note(args, kwargs, result):
    """sphere_directions: its key (n, count, seed)."""
    seed = args[2] if len(args) > 2 else kwargs.get("seed", 0)
    return [result.shape[1], result.shape[0], seed]


# Functions whose arguments or result the layer ratios need.  Only
# low-frequency calls are noted.
NOTES = {
    "rescaling.convergence_report": _grid_note,
    "sampling.sphere_directions": _directions_note,
}


def short_name(module: str, func: str) -> str:
    return f"{module.removeprefix('normlab.')}.{func}"


class SpanStore:
    """In-memory span arrays for one process; single-threaded by design."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.task_of = array("i")
        self.error = array("B")
        self.notes: dict[str, list] = {}
        self.task = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, note, error_type):
        start, end, name, parent, task_of, error = (
            self.start, self.end, self.name, self.parent, self.task_of, self.error,
        )
        stack = self._stack
        store = self
        noted = self.notes.setdefault(self.names[name_id], []) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            task_of.append(store.task)
            error.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                error[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if note is not None:
                noted.append([store.task, note(args, kwargs, result)])
            return result

        return traced

    def install(self) -> None:
        from normlab.errors import NormlabError

        wrappers = {}
        for module_name, funcs in TRACED.items():
            module = sys.modules[module_name]
            for func in funcs:
                fn = getattr(module, func, None)
                if fn is None:  # renamed or removed: its metrics read 0
                    continue
                label = short_name(module_name, func)
                self.names.append(label)
                wrappers[id(fn)] = self._wrap(
                    len(self.names) - 1, fn, NOTES.get(label), NormlabError
                )
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "normlab" and not mod_name.startswith("normlab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def save(self, path: str) -> None:
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            task=np.frombuffer(self.task_of, dtype=np.int32),
            error=np.frombuffer(self.error, dtype=np.uint8),
            meta=np.array(json.dumps({"names": self.names, "notes": self.notes})),
        )


def load(paths: list[str]) -> dict:
    """Concatenate span files (one per process), renumbering names and parents."""
    names: list[str] = []
    notes: dict[str, list] = {}
    cols = {k: [] for k in ("start", "end", "name", "parent", "task", "error")}
    offset = 0
    for path in paths:
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            remap = []
            for label in meta["names"]:
                if label not in names:
                    names.append(label)
                remap.append(names.index(label))
            for label, values in meta["notes"].items():
                notes.setdefault(label, []).extend(values)
            n = len(data["start"])
            cols["start"].append(data["start"])
            cols["end"].append(data["end"])
            cols["name"].append(np.asarray(remap, dtype=np.int64)[data["name"]] if n else np.zeros(0, np.int64))
            parent = data["parent"].astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["task"].append(data["task"].astype(np.int64))
            cols["error"].append(data["error"].astype(np.int64))
            offset += n
    spans = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
    for k in ("name", "parent", "task", "error"):
        spans[k] = spans[k].astype(np.int64)
    spans["names"] = names
    spans["notes"] = notes
    return spans


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of its interval that its direct
    children cover (children clipped to the parent, overlaps counted once)."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(start))
    kids = np.nonzero(parent >= 0)[0]
    if len(kids):
        p = parent[kids]
        cs = np.maximum(start[kids], start[p])
        ce = np.minimum(end[kids], end[p])
        order = np.lexsort((cs, p))
        last, reach = -1, 0.0
        for pi, s, e in zip(p[order].tolist(), cs[order].tolist(), ce[order].tolist()):
            if pi != last:
                last, reach = pi, start[pi]
            if e > reach:
                covered[pi] += e - max(s, reach)
                reach = e
    return (end - start) - covered


def under(name: np.ndarray, parent: np.ndarray, ancestor_ids: list[int]) -> np.ndarray:
    """Mask of spans that have a span named in `ancestor_ids` above them."""
    is_target = np.isin(name, ancestor_ids)
    hit = np.zeros(len(name), dtype=bool)
    cur = parent.copy()
    while True:
        live = cur >= 0
        if not live.any():
            return hit
        hit[live] |= is_target[cur[live]]
        cur[live] = parent[cur[live]]
