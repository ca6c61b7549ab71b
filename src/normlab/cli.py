"""Command-line front end.

Subcommands: sharp, marty-scan, rescale, thm2, counterexample, check-config.
Exit codes: 0 success, 2 config error or an output that cannot be written,
3 evaluation error, 4 run completed with hypothesis flags raised.  Identical
config + seed gives byte-identical outputs.  Each runner returns its exit code
and the text of every output file; `main` then makes --out and writes those
that --format selects, so a run that fails writes no file and no directory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
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


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _sample_row(dtype: np.dtype) -> str:
    """One `marty_scan.json` sample of a record dtype as json.dumps(indent=2,
    sort_keys=True) prints it inside the report's `samples` list, a %s in
    place of each float (a complex is a [re, im] pair), preceded by its
    newline and indentation."""
    sample = {}
    for name in dtype.names:
        cell = ["%s", "%s"] if dtype[name].base.kind == "c" else "%s"
        sample[name] = [cell] * dtype[name].shape[0] if dtype[name].shape else cell
    text = json.dumps({"samples": [sample]}, indent=2, sort_keys=True)
    return text[text.index("[") + 1:text.rindex("\n  ]")].replace('"%s"', "%s")


def _samples_json(samples: np.ndarray) -> str:
    """`marty_scan.json`'s `samples` list, byte for byte as json.dumps(indent=2,
    sort_keys=True, allow_nan=False) prints it as a key of the report: the
    floats of each record in sorted field order (a complex field's real and
    imaginary parts in turn), through float.__repr__ as json does, filled
    into the joined rows by one % format.  A scan repeats most of its floats
    (each point across its directions, say), so each distinct one is printed
    once."""
    if not len(samples):
        return "[]"
    columns = [samples[name].reshape(len(samples), -1) for name in sorted(samples.dtype.names)]
    table = np.hstack([c.view(float) if c.dtype.kind == "c" else c for c in columns]).ravel()
    for x in table[~np.isfinite(table)][:1].tolist():
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    # keyed on the bit pattern, not the value, so -0.0 and 0.0 print apart
    bits, inverse = np.unique(table.view(np.int64), return_inverse=True)
    text = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)
    rows = ",".join([_sample_row(samples.dtype)] * len(samples))
    return "[" + rows % tuple(text[inverse].tolist()) + "\n  ]"


def _csv(header: list[str], rows: list[list]) -> str:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([repr(x) if isinstance(x, float) else x for x in row] for row in rows)
    return text.getvalue()


def _point_str(z) -> str:
    # comma-free so the CSV column stays unquoted: "re im" pairs joined by ';'
    return ";".join(f"{complex(c).real!r} {complex(c).imag!r}" for c in z)


def _run_sharp(config: dict) -> tuple[int, dict[str, str]]:
    f = parse(config["function"], config["dimension"])
    h = float(config.get("h", 1e-4))
    samples = int(config.get("sphere_samples", 256))
    seed = int(config.get("seed", 0))
    points = [cfg.parse_point(raw) for raw in config["points"]]
    closed = sharp_batch(f, points)
    oracle = sharp_fd(f, np.asarray(points, dtype=complex), samples, h, seed)
    rel_dev = np.abs(closed - oracle) / (1.0 + closed)
    rows = list(zip(points, closed.tolist(), oracle.tolist(), rel_dev.tolist()))
    return EXIT_OK, {
        "sharp.csv": _csv(
            ["point", "sharp_closed", "sharp_fd", "rel_dev"],
            [[_point_str(z), s, s_fd, d] for z, s, s_fd, d in rows],
        ),
        "sharp.json": _json(
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
            }
        ),
    }


def _run_marty_scan(config: dict) -> tuple[int, dict[str, str]]:
    f = parse(config["function"], config["dimension"])
    domain = cfg.parse_domain(config["domain"])
    plan = cfg.parse_plan(config["plan"])
    est = normality_scan(f, domain, plan)
    # json's C encoder does not indent, and the pure-Python one would spend
    # most of a scan's time on the samples
    report = _json(
        {
            "function": config["function"],
            "c_required_lower_bound": est.c_required_lower_bound,
            "verdict": est.verdict,
            "skipped": est.skipped,
            "errors": list(est.errors),
            "shell_trend": [list(t) for t in est.shell_trend],
            "samples": [],
        }
    )
    # a newline inside a string is escaped, so only the key itself matches
    report = report.replace('\n  "samples": []', '\n  "samples": ' + _samples_json(est.samples), 1)
    return EXIT_OK, {
        "marty_trend.csv": _csv(
            ["shell", "max_ratio_lower", "min_boundary_distance"],
            [[t, m, d] for t, m, d in est.shell_trend],
        ),
        "marty_scan.json": report,
    }


def _run_rows(run, report):
    gap_by_index = dict(zip(report.indices[1:], report.cauchy_gaps))
    osc_by_index = dict(zip(report.indices, report.osc))
    e = run.entries
    # one norm per row: along axis 1 it sums in another order
    abs_z = [float(np.linalg.norm(z)) for z in e.z_j]
    columns = zip(e.j.tolist(), abs_z, e.delta_j.tolist(), e.rho_j.tolist(), e.ratio.tolist())
    return [[j, *row, osc_by_index.get(j, math.nan), gap_by_index.get(j, math.nan)] for j, *row in columns]


_RUN_HEADER = ["j", "abs_z_j", "delta_j", "rho_j", "ratio", "osc_j", "cauchy_gap_j"]

# command -> (run builder, whether the limit's sharp profile is checked);
# outputs are <command>_run.csv and <command>.json
_RESCALINGS = {
    "rescale": (zalcman_rescale, True),
    "thm2": (explicit_rescale, False),
}


def _run_rescaling(config: dict) -> tuple[int, dict[str, str]]:
    command = config["command"]
    build_run, with_profile = _RESCALINGS[command]
    f = parse(config["function"], config["dimension"])
    domain = cfg.parse_domain(config["domain"])
    spec = cfg.parse_sequence(config["sequence"])
    grid_size = int(config.get("grid_size", 64))
    tol = float(config.get("tol", 1e-3))
    seed = int(config.get("seed", 0))
    run = build_run(f, domain, spec)
    report = convergence_report(run, float(config["R"]), grid_size, tol, seed)
    payload = {
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
    if with_profile:
        profile = limit_sharp_check(report, tol)
        payload["sharp_profile"] = {
            "sharp_at_zero": profile.sharp_at_zero,
            "max_sharp": profile.max_sharp,
            "argmax": cfg.point_to_json(profile.argmax),
            "passed": profile.passed,
            "vacuous": profile.vacuous,
        }
    return EXIT_FLAGGED if run.hypothesis_flags else EXIT_OK, {
        f"{command}_run.csv": _csv(_RUN_HEADER, _run_rows(run, report)),
        f"{command}.json": _json(payload),
    }


def _run_counterexample(config: dict) -> tuple[int, dict[str, str]]:
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
    return EXIT_OK, {
        "counterexample.csv": _csv(["n", "ratio", "sup_dev", "bound"], rows),
        "counterexample.json": _json(
            {
                "verdict": report.verdict,
                "radius": report.radius,
                "indices": list(report.indices),
                "ratios": list(report.ratios),
                "sup_dev": list(report.sup_dev),
                "bounds": list(report.bounds),
                "convergence_verdict": report.convergence.verdict,
            }
        ),
    }


_RUNNERS = {
    "sharp": _run_sharp,
    "marty-scan": _run_marty_scan,
    "rescale": _run_rescaling,
    "thm2": _run_rescaling,
    "counterexample": _run_counterexample,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a warm caller runs `main`
    many times."""
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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

    try:
        code, outputs = _RUNNERS[command](config)
    except NormlabError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL

    # made only now, so a run that fails leaves no directory behind
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in outputs.items():
            if args.format in ("both", Path(name).suffix[1:]):
                (out / name).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:  # the output directory or a file in it cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
