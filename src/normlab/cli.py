"""Command-line front end.

Subcommands: sharp, marty-scan, rescale, thm2, counterexample, check-config.
Exit codes: 0 success, 2 config error or an output that cannot be written,
3 evaluation error, 4 run completed with hypothesis flags raised.  Identical
config + seed gives byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfg
from .errors import ConfigError, NormlabError
from .expr import parse, to_source
from .metrics import normality_scan, sharp_batch, sharp_fd
from .rescaling import (
    convergence_report,
    explicit_rescale,
    limit_sharp_check,
    remark_counterexample,
    zalcman_rescale,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVAL = 3
EXIT_FLAGGED = 4


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def _sample_row(dimension: int) -> str:
    """One `marty_scan.json` sample as json.dumps(indent=2, sort_keys=True)
    prints it inside the report's `samples` list, a %s in place of each float,
    preceded by its newline and indentation."""
    coords = [["%s", "%s"]] * dimension
    sample = dict.fromkeys(("levi", "k_lower", "k_upper", "ratio_lower", "ratio_upper"), "%s")
    text = json.dumps({"samples": [{**sample, "point": coords, "direction": coords}]},
                      indent=2, sort_keys=True)
    return text[text.index("[") + 1:text.rindex("\n  ]")].replace('"%s"', "%s")


def _samples_json(samples, dimension: int) -> str:
    """`marty_scan.json`'s `samples` list, byte for byte as json.dumps(indent=2,
    sort_keys=True, allow_nan=False) prints it as a key of the report: the
    floats of each sample in the row's key order (direction, k_lower, k_upper,
    levi, point, ratio_lower, ratio_upper), through float.__repr__ as json
    does, filled into the joined rows by one % format."""
    if not samples:
        return "[]"
    floats: list[float] = []
    for s in samples:
        for c in s.direction:
            c = complex(c)
            floats += (c.real, c.imag)
        floats += (s.k_lower, s.k_upper, s.levi)
        for c in s.point:
            c = complex(c)
            floats += (c.real, c.imag)
        floats += (s.ratio_lower, s.ratio_upper)
    for x in itertools.filterfalse(math.isfinite, floats):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    rows = ",".join([_sample_row(dimension)] * len(samples))
    return "[" + rows % tuple(map(float.__repr__, floats)) + "\n  ]"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def _point_str(z) -> str:
    # comma-free so the CSV column stays unquoted: "re im" pairs joined by ';'
    return ";".join(f"{complex(c).real!r} {complex(c).imag!r}" for c in z)


def _run_sharp(config: dict, out: Path, fmt: str) -> int:
    f = parse(config["function"], config["dimension"])
    h = float(config.get("h", 1e-4))
    samples = int(config.get("sphere_samples", 256))
    seed = int(config.get("seed", 0))
    points = [cfg.parse_point(raw) for raw in config["points"]]
    closed = sharp_batch(f, points)
    oracle = sharp_fd(f, np.asarray(points, dtype=complex), samples, h, seed)
    rel_dev = np.abs(closed - oracle) / (1.0 + closed)
    rows = list(zip(points, closed.tolist(), oracle.tolist(), rel_dev.tolist()))
    if fmt in ("csv", "both"):
        _write_csv(
            out / "sharp.csv",
            ["point", "sharp_closed", "sharp_fd", "rel_dev"],
            [[_point_str(z), s, s_fd, d] for z, s, s_fd, d in rows],
        )
    if fmt in ("json", "both"):
        _write_json(
            out / "sharp.json",
            {
                "function": config["function"],
                "rows": [
                    {
                        "point": cfg.point_to_json(z),
                        "sharp_closed": s,
                        "sharp_fd": s_fd,
                        "rel_dev": d,
                    }
                    for z, s, s_fd, d in rows
                ],
            },
        )
    return EXIT_OK


def _run_marty_scan(config: dict, out: Path, fmt: str) -> int:
    f = parse(config["function"], config["dimension"])
    domain = cfg.parse_domain(config["domain"])
    plan = cfg.parse_plan(config["plan"])
    est = normality_scan(f, domain, plan)
    if fmt in ("csv", "both"):
        _write_csv(
            out / "marty_trend.csv",
            ["shell", "max_ratio_lower", "min_boundary_distance"],
            [[t, m, d] for t, m, d in est.shell_trend],
        )
    if fmt in ("json", "both"):
        # json's C encoder does not indent, and the pure-Python one would
        # spend most of a scan's time on the samples
        text = json.dumps(
            {
                "function": config["function"],
                "c_required_lower_bound": est.c_required_lower_bound,
                "verdict": est.verdict,
                "skipped": est.skipped,
                "errors": list(est.errors),
                "shell_trend": [list(t) for t in est.shell_trend],
                "samples": [],
            },
            indent=2,
            sort_keys=True,
            allow_nan=False,
        )
        # a newline inside a string is escaped, so only the key itself matches
        samples = _samples_json(est.samples, f.dimension)
        text = text.replace('\n  "samples": []', '\n  "samples": ' + samples, 1)
        (out / "marty_scan.json").write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


def _run_rows(run, report):
    gap_by_index = dict(zip(report.indices[1:], report.cauchy_gaps))
    osc_by_index = dict(zip(report.indices, report.osc))
    e = run.entries
    # one norm per row: along axis 1 it sums in another order
    abs_z = [float(np.linalg.norm(z)) for z in e.z_j]
    columns = zip(e.j.tolist(), abs_z, e.delta_j.tolist(), e.rho_j.tolist(), e.ratio.tolist())
    return [[j, *row, osc_by_index.get(j, math.nan), gap_by_index.get(j, math.nan)] for j, *row in columns]


_RUN_HEADER = ["j", "abs_z_j", "delta_j", "rho_j", "ratio", "osc_j", "cauchy_gap_j"]


def _report_json(run, report) -> dict:
    return {
        "verdict": report.verdict,
        "tol": report.tol,
        "radius": report.radius,
        "indices": list(report.indices),
        "osc": list(report.osc),
        "cauchy_gaps": list(report.cauchy_gaps),
        "excluded": list(report.excluded),
        "hypothesis_flags": list(run.hypothesis_flags),
        "limit_proxy": to_source(report.limit_proxy),
    }


# command -> (explicit scale rule, run builder, whether the limit's sharp
# profile is checked); outputs are <command>_run.csv and <command>.json
_RESCALINGS = {
    "rescale": (False, zalcman_rescale, True),
    "thm2": (True, explicit_rescale, False),
}


def _run_rescaling(config: dict, out: Path, fmt: str) -> int:
    command = config["command"]
    explicit, build_run, with_profile = _RESCALINGS[command]
    f = parse(config["function"], config["dimension"])
    domain = cfg.parse_domain(config["domain"])
    spec = cfg.parse_sequence(config["sequence"], explicit=explicit)
    grid_size = int(config.get("grid_size", 64))
    tol = float(config.get("tol", 1e-3))
    seed = int(config.get("seed", 0))
    run = build_run(f, domain, spec)
    report = convergence_report(run, float(config["R"]), grid_size, tol, seed)
    payload = _report_json(run, report)
    if with_profile:
        profile = limit_sharp_check(report, grid_size, tol, seed)
        payload["sharp_profile"] = {
            "sharp_at_zero": profile.sharp_at_zero,
            "max_sharp": profile.max_sharp,
            "argmax": cfg.point_to_json(profile.argmax),
            "passed": profile.passed,
            "vacuous": profile.vacuous,
        }
    if fmt in ("csv", "both"):
        _write_csv(out / f"{command}_run.csv", _RUN_HEADER, _run_rows(run, report))
    if fmt in ("json", "both"):
        _write_json(out / f"{command}.json", payload)
    return EXIT_FLAGGED if run.hypothesis_flags else EXIT_OK


def _run_counterexample(config: dict, out: Path, fmt: str) -> int:
    report = remark_counterexample(
        int(config["n_max"]),
        float(config["R"]),
        int(config.get("grid_size", 64)),
        int(config.get("seed", 0)),
    )
    rows = [
        [n, r, d, b]
        for n, r, d, b in zip(report.indices, report.ratios, report.sup_dev, report.bounds)
    ]
    if fmt in ("csv", "both"):
        _write_csv(out / "counterexample.csv", ["n", "ratio", "sup_dev", "bound"], rows)
    if fmt in ("json", "both"):
        _write_json(
            out / "counterexample.json",
            {
                "verdict": report.verdict,
                "radius": report.radius,
                "indices": list(report.indices),
                "ratios": list(report.ratios),
                "sup_dev": list(report.sup_dev),
                "bounds": list(report.bounds),
                "convergence_verdict": report.convergence.verdict,
            },
        )
    return EXIT_OK


_RUNNERS = {
    "sharp": _run_sharp,
    "marty-scan": _run_marty_scan,
    "rescale": _run_rescaling,
    "thm2": _run_rescaling,
    "counterexample": _run_counterexample,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="normlab",
        description="Numerical lab for normality of holomorphic functions in C^n.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in [*_RUNNERS, "check-config"]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON run config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--format", choices=["json", "csv", "both"], default="both")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:  # the schema never sees the override
        print(f"config error: --seed: {args.seed} is less than the minimum of 0", file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = cfg.load_config(args.config)
        command = cfg.validate_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.subcommand == "check-config":
        print(f"config valid for command {command!r}")
        return EXIT_OK

    if command != args.subcommand:
        print(
            f"config error: config is for {command!r}, invoked as {args.subcommand!r}",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    if args.seed is not None:
        config["seed"] = args.seed
        if "plan" in config:
            config["plan"]["seed"] = args.seed

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[command](config, out, args.format)
    except NormlabError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except OSError as exc:  # the output directory or a file in it cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
