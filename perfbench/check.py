"""Output checks for the normlab benchmark.

Every task's exit code, stderr and output files are checked here; a task that
fails any check counts as failed.  Checks are tolerance-based, so a change
that moves results by an ulp still passes.  The mpmath oracles evaluate the
generator's expression trees at 30 digits and share no code with normlab.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import mpmath

REL_DEV_LIMIT = 1e-3  # the acceptance suite's fd-oracle threshold
# Smallest sharp_fd / sharp the 256-direction sets of sphere_directions
# guarantee, by dimension: exact in 1-D (any phase works), 0.9964 measured in
# 2-D and 0.906 in 3-D over 20,000 random gradients.  The fd oracle is a max
# over those directions, so in 2-D and 3-D it may sit below the closed form by
# more than REL_DEV_LIMIT; it may never sit above it by more.
COVERAGE = {1: 1.0, 2: 0.99, 3: 0.85}
MP_DIGITS = 30
MP_RTOL = 1e-8
FILES = {
    "sharp": ["sharp.json", "sharp.csv"],
    "marty-scan": ["marty_scan.json", "marty_trend.csv"],
    "rescale": ["rescale.json", "rescale_run.csv"],
    "thm2": ["thm2.json", "thm2_run.csv"],
    "counterexample": ["counterexample.json", "counterexample.csv"],
}


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float = 1e-12, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _reject_constant(token):
    raise CheckFailed(f"non-finite number {token} in output")


def load_json(path: Path) -> dict:
    require(path.is_file(), f"missing output {path.name}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


# --------------------------------------------------------------------------
# mpmath oracle
# --------------------------------------------------------------------------

def mp_eval(tree: list, z: list):
    kind = tree[0]
    if kind == "z":
        return z[tree[1] - 1]
    if kind == "c":
        return mpmath.mpc(repr(tree[1]), repr(tree[2]))
    if kind == "^":
        return mp_eval(tree[1], z) ** tree[2]
    if kind in ("exp", "sin", "cos"):
        return getattr(mpmath, kind)(mp_eval(tree[1], z))
    a, b = mp_eval(tree[1], z), mp_eval(tree[2], z)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    return a * b if kind == "*" else a / b


def mp_directional(tree: list, point: list, direction: list):
    """(f(p), d/dt f(p + t v) at t = 0): for holomorphic f the derivative is
    sum_k df/dz_k v_k, the pairing in the Levi form and the sharp function."""
    p = [mpmath.mpc(*c) for c in point]
    v = [mpmath.mpc(*c) for c in direction]
    value = mp_eval(tree, p)
    deriv = mpmath.diff(lambda t: mp_eval(tree, [pk + t * vk for pk, vk in zip(p, v)]), 0)
    return value, deriv


def mp_levi(tree, point, direction) -> float:
    with mpmath.workdps(MP_DIGITS):
        value, pairing = mp_directional(tree, point, direction)
        return float(abs(pairing) ** 2 / (1 + abs(value) ** 2) ** 2)


def mp_sharp(tree, point) -> float:
    n = len(point)
    grad2 = 0
    with mpmath.workdps(MP_DIGITS):
        for k in range(n):
            e = [[1.0 if j == k else 0.0, 0.0] for j in range(n)]
            value, d = mp_directional(tree, point, e)
            grad2 += abs(d) ** 2
        return float(mpmath.sqrt(grad2) / (1 + abs(value) ** 2))


# --------------------------------------------------------------------------
# Per-command checks; each returns the task's units of work
# --------------------------------------------------------------------------

def scan_verdict(maxima: list[float]) -> str:
    """README: bounded-consistent when the last three shell maxima do not
    increase; divergent when they increase by at least 10x in total."""
    if len(maxima) < 3:
        return "inconclusive"
    m1, m2, m3 = maxima[-3:]
    if m1 >= m2 >= m3:
        return "bounded-consistent"
    if m1 <= m2 <= m3 and (m3 >= 10.0 * m1 if m1 > 0 else m3 > 0):
        return "divergent"
    return "inconclusive"


def convergence_verdict(osc: list[float], gaps: list[float], tol: float) -> str:
    """README: constant-limit when the final oscillation and gap are <= tol;
    nonconstant-limit when the gap is <= tol and the oscillation > 10 tol."""
    final_gap = gaps[-1] if gaps else math.inf
    if final_gap <= tol and osc[-1] <= tol:
        return "constant-limit"
    if final_gap <= tol and osc[-1] > 10.0 * tol:
        return "nonconstant-limit"
    return "no-convergence"


def check_scan(task: dict, out: Path, facts: dict) -> int:
    expect, plan = task["expect"], task["config"]["plan"]
    rep = load_json(out / "marty_scan.json")
    samples = rep["samples"]
    facts["skipped"] = rep["skipped"]
    trend = rep["shell_trend"]
    require(rep["skipped"] == 0 and len(samples) == expect["samples"],
            f"{len(samples)} samples and {rep['skipped']} skipped, expected {expect['samples']}")
    require(rep["verdict"] == scan_verdict([m for _, m, _ in trend]),
            f"verdict {rep['verdict']} does not follow from shell_trend")
    if expect.get("verdict"):
        require(rep["verdict"] == expect["verdict"],
                f"normal family gave {rep['verdict']}, expected {expect['verdict']}")
    ratio_lower = [s["ratio_lower"] for s in samples]
    require(close(rep["c_required_lower_bound"], max(ratio_lower)),
            "c_required_lower_bound is not the maximum of ratio_lower")
    per_shell = plan["points_per_shell"] * plan["directions_per_point"]
    for k, (shell, shell_max, _) in enumerate(trend):
        block = ratio_lower[k * per_shell:(k + 1) * per_shell]
        require(close(shell_max, max(block)), f"shell {shell} maximum disagrees with its samples")
    for s in samples:
        require(s["k_lower"] <= s["k_upper"] * (1 + 1e-12), "k_lower > k_upper")
        require(close(s["ratio_lower"], s["levi"] / s["k_upper"] ** 2, 1e-9)
                and close(s["ratio_upper"], s["levi"] / s["k_lower"] ** 2, 1e-9),
                "ratio does not equal levi / K^2")
    scale = max(s["levi"] for s in samples)
    for i in expect["mp_samples"]:
        s = samples[i]
        ref = mp_levi(expect["tree"], s["point"], s["direction"])
        require(close(s["levi"], ref, MP_RTOL, 1e-12 * scale),
                f"levi {s['levi']!r} at sample {i} disagrees with mpmath {ref!r}")
    return len(samples)


def check_sharp(task: dict, out: Path, facts: dict) -> int:
    config, expect = task["config"], task["expect"]
    rows = load_json(out / "sharp.json")["rows"]
    require(len(rows) == len(config["points"]), "one row per point expected")
    coverage = COVERAGE.get(config["dimension"], COVERAGE[3])
    for row, point in zip(rows, config["points"]):
        require(row["point"] == point, "row point differs from the config point")
        s, s_fd, dev = row["sharp_closed"], row["sharp_fd"], row["rel_dev"]
        require(s >= 0 and close(dev, abs(s - s_fd) / (1 + s), 1e-9, 1e-15),
                "rel_dev does not match sharp_closed and sharp_fd")
        require(s_fd - s <= REL_DEV_LIMIT * (1 + s), f"sharp_fd exceeds sharp by rel_dev {dev:.3g}")
        require(s_fd >= coverage * s - REL_DEV_LIMIT * (1 + s),
                f"sharp_fd below {coverage} * sharp (rel_dev {dev:.3g})")
    for i in expect["mp_rows"]:
        ref = mp_sharp(expect["tree"], config["points"][i])
        require(close(rows[i]["sharp_closed"], ref, MP_RTOL, 1e-300),
                f"sharp_closed {rows[i]['sharp_closed']!r} at point {i} disagrees with mpmath {ref!r}")
    return len(rows)


def _check_report(rep: dict, config: dict, expect: dict) -> None:
    tol = config.get("tol", 1e-3)
    require(len(rep["osc"]) == len(rep["indices"]) and len(rep["cauchy_gaps"]) == len(rep["indices"]) - 1,
            "osc / cauchy_gaps lengths do not match the indices")
    require(rep["verdict"] == convergence_verdict(rep["osc"], rep["cauchy_gaps"], tol),
            f"verdict {rep['verdict']} does not follow from osc and cauchy_gaps")
    require(rep["verdict"] == expect["verdict"], f"verdict {rep['verdict']}, expected {expect['verdict']}")


def check_rescale(task: dict, out: Path, facts: dict) -> int:
    config, expect = task["config"], task["expect"]
    rep = load_json(out / "rescale.json")
    if expect.get("flags"):
        require(bool(rep["hypothesis_flags"]), "exit 4 without hypothesis flags")
        return 0
    _check_report(rep, config, expect)
    profile = rep["sharp_profile"]
    require(abs(profile["sharp_at_zero"] - 1.0) <= config["tol"] and not profile["vacuous"],
            f"limit sharp at 0 is {profile['sharp_at_zero']!r}, expected 1")
    grid = config["grid_size"]
    return len(rep["indices"]) * grid + grid


def check_thm2(task: dict, out: Path, facts: dict) -> int:
    rep = load_json(out / "thm2.json")
    _check_report(rep, task["config"], task["expect"])
    require(not rep["hypothesis_flags"], f"flags {rep['hypothesis_flags']}")
    return len(rep["indices"]) * task["config"]["grid_size"]


def check_counterexample(task: dict, out: Path, facts: dict) -> int:
    config = task["config"]
    rep = load_json(out / "counterexample.json")
    n_max = config["n_max"]
    require(rep["verdict"] == "constant-limit-with-divergent-ratio", f"verdict {rep['verdict']}")
    require(rep["convergence_verdict"] == "constant-limit", f"convergence {rep['convergence_verdict']}")
    require(rep["indices"] == list(range(1, n_max + 1)), "indices are not 1..n_max")
    require(all(r == n for r, n in zip(rep["ratios"], rep["indices"])), "ratio(n) != n exactly")
    # z_n = 1 - n^-3 is rounded at the scale of 1, so the deviation may pass
    # its bound by a few ulps of 1.
    require(all(d <= b + 1e-15 for d, b in zip(rep["sup_dev"], rep["bounds"])),
            "sup_dev exceeds its bound")
    # sup_dev over the grid and the convergence report each cover n x grid.
    return 2 * n_max * config["grid_size"]


def check_config_task(task: dict, stdout: str) -> int:
    want = task["expect"]["valid_for"]
    require(f"config valid for command {want!r}" in stdout, "check-config did not confirm the config")
    return 1


CHECKS = {
    "sharp": check_sharp,
    "marty-scan": check_scan,
    "rescale": check_rescale,
    "thm2": check_thm2,
    "counterexample": check_counterexample,
}


def check_task(task: dict, code: int, stdout: str, stderr: str, out: Path,
               facts: dict | None = None) -> int:
    """Raise CheckFailed, or return the task's units of work.  Counts that
    the checks read on the way (a scan's skipped samples) go into `facts`."""
    expect = task["expect"]
    require("Traceback (most recent call last)" not in stderr, "traceback on stderr")
    require(code in expect["codes"], f"exit {code}, expected {expect['codes']}")
    if code in (2, 3):
        return 0
    if task["command"] == "check-config":
        return check_config_task(task, stdout)
    for name in FILES[task["command"]]:
        require((out / name).is_file(), f"missing output {name}")
    if "tree" not in expect and "verdict" not in expect and not expect.get("flags"):
        # hostile probes that may succeed: the output must be strict JSON
        load_json(out / FILES[task["command"]][0])
        return 0
    return CHECKS[task["command"]](task, out, {} if facts is None else facts)


def digest(out: Path) -> str:
    """SHA-256 over every output file's name and bytes."""
    h = hashlib.sha256()
    if out.is_dir():
        for path in sorted(out.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def repeats_identical(digests: list[tuple[int, str]]) -> list[int]:
    """Pool indices whose runs produced outputs that are not byte-identical."""
    seen: dict[int, str] = {}
    bad = []
    for pool_index, d in digests:
        if seen.setdefault(pool_index, d) != d and pool_index not in bad:
            bad.append(pool_index)
    return bad
