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
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfg
from .domains import row_norms
from .errors import ConfigError, NormlabError
from .expr import to_source
from .metrics import normality_scan, sharp_batch, sharp_fd
from .rescaling import convergence_report, limit_sharp_check, remark_counterexample, rescaling_run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVAL = 3
EXIT_FLAGGED = 4


def _json(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    for a payload of str keys, with each record array printed by
    `_records_json` in place of the null that json prints for it: a newline,
    two spaces and a quoted key open only a top-level entry, since json
    escapes every newline and quote inside a string."""
    records = {key: value for key, value in payload.items() if isinstance(value, np.recarray)}
    text = json.dumps({**payload, **dict.fromkeys(records)}, indent=2, sort_keys=True, allow_nan=False)
    for key, value in records.items():
        entry = f"\n  {json.dumps(key)}: "
        text = text.replace(entry + "null", entry + _records_json(value), 1)
    return text + "\n"


@functools.cache
def _record_row(dtype: np.dtype) -> tuple[str, ...]:
    """One record of a record dtype as json.dumps(indent=2, sort_keys=True)
    prints it inside a list that is a top-level key of a report, preceded by
    its newline and indentation, split at each float (a complex is a [re, im]
    pair): the k + 1 pieces around its k floats.  Built once per dtype."""
    record = {}
    for name in dtype.names:
        cell = ["%s", "%s"] if dtype[name].base.kind == "c" else "%s"
        record[name] = [cell] * dtype[name].shape[0] if dtype[name].shape else cell
    text = json.dumps({"records": [record]}, indent=2, sort_keys=True)
    return tuple(text[text.index("[") + 1:text.rindex("\n  ]")].split('"%s"'))


def _records_json(records: np.ndarray) -> str:
    """A record array as a list of objects, byte for byte as json.dumps(
    indent=2, sort_keys=True, allow_nan=False) prints it as a top-level key
    of a report (`marty_scan.json`'s samples, `sharp.json`'s rows): the
    floats of each record in sorted field order (a complex field's real and
    imaginary parts in turn), through float.__repr__ as json does.  A report
    repeats most of its floats (each scan point across its directions, say),
    so each distinct one is printed once.  The float texts are laid between
    the row's pieces (`_record_row`) in one table of strings, and the array
    is joined once."""
    if not len(records):
        return "[]"
    columns = [records[name].reshape(len(records), -1) for name in sorted(records.dtype.names)]
    table = np.hstack([c.view(float) if c.dtype.kind == "c" else c for c in columns])
    for x in table[~np.isfinite(table)][:1].tolist():
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    # keyed on the bit pattern, not the value, so -0.0 and 0.0 print apart
    bits, inverse = np.unique(table.view(np.int64), return_inverse=True)
    text = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)
    pieces = _record_row(records.dtype)
    cells = np.empty((len(records), 2 * len(pieces) - 1), dtype=object)
    cells[:, 0::2] = pieces
    cells[:, 1::2] = text[inverse.reshape(table.shape)]
    cells[0, 0] = "[" + pieces[0]
    cells[1:, 0] = "," + pieces[0]
    cells[-1, -1] = pieces[-1] + "\n  ]"
    return "".join(cells.ravel().tolist())


def _csv(header: list[str], rows) -> str:
    """The rows as csv.writer prints them, for cells that need no quoting:
    str of each cell (of a float, its repr), commas and CRLF line ends."""
    return "".join(",".join(map(str, row)) + "\r\n" for row in [header, *rows])


def _point_str(z) -> str:
    # comma-free so the CSV column stays unquoted: "re im" pairs joined by ';'
    return ";".join(f"{complex(c).real!r} {complex(c).imag!r}" for c in z)


def _run_sharp(config: dict) -> tuple[int, dict[str, str]]:
    f = cfg.parse_function(config["function"], config["dimension"])
    points = [cfg.parse_point(raw) for raw in config["points"]]
    z = np.array(points, dtype=complex)
    closed = sharp_batch(f, z)
    oracle = sharp_fd(f, z, config["h"])
    rel_dev = np.abs(closed - oracle) / (1.0 + closed)
    fields = [("point", complex, (f.dimension,)), ("sharp_closed", float), ("sharp_fd", float), ("rel_dev", float)]
    rows = np.rec.fromarrays([z, closed, oracle, rel_dev], dtype=fields)
    return EXIT_OK, {
        "sharp.csv": _csv(
            ["point", "sharp_closed", "sharp_fd", "rel_dev"],
            zip(map(_point_str, points), closed.tolist(), oracle.tolist(), rel_dev.tolist()),
        ),
        "sharp.json": _json({"function": config["function"], "rows": rows}),
    }


def _run_marty_scan(config: dict) -> tuple[int, dict[str, str]]:
    f = cfg.parse_function(config["function"], config["dimension"])
    domain = cfg.parse_domain(config["domain"])
    plan = cfg.parse_plan(config["plan"])
    est = normality_scan(f, domain, plan)
    payload = {
        "function": config["function"],
        "c_required_lower_bound": est.c_required_lower_bound,
        "verdict": est.verdict,
        "skipped": est.skipped,
        "errors": est.errors,
        "shell_trend": est.shell_trend,
        "samples": est.samples,
    }
    return EXIT_OK, {
        "marty_trend.csv": _csv(["shell", "max_ratio_lower", "min_boundary_distance"], est.shell_trend),
        "marty_scan.json": _json(payload),
    }


def _run_rows(run, report):
    """`<command>_run.csv`'s rows; NaN fills osc_j and cauchy_gap_j where j has none."""
    e = run.entries
    usable = np.flatnonzero(~np.isin(e.j, report.excluded))
    osc, gap = np.full(len(e), math.nan), np.full(len(e), math.nan)
    osc[usable] = report.osc
    gap[usable[1:]] = report.cauchy_gaps
    return zip(*[c.tolist() for c in (e.j, row_norms(e.z_j), e.delta_j, e.rho_j, e.ratio, osc, gap)])


_RUN_HEADER = ["j", "abs_z_j", "delta_j", "rho_j", "ratio", "osc_j", "cauchy_gap_j"]


def _run_rescaling(config: dict) -> tuple[int, dict[str, str]]:
    """`rescale` and `thm2`, whose configs differ in the scale rule; outputs
    are <command>_run.csv and <command>.json, the latter with the limit's
    sharp profile under `rescale`."""
    command = config["command"]
    f = cfg.parse_function(config["function"], config["dimension"])
    domain = cfg.parse_domain(config["domain"])
    spec = cfg.parse_sequence(config["sequence"])
    run = rescaling_run(f, domain, spec)
    report = convergence_report(run, config["R"], config["grid_size"], config["tol"], config["seed"])
    payload = {
        "verdict": report.verdict,
        "tol": report.tol,
        "radius": report.radius,
        "indices": report.indices,
        "osc": report.osc.tolist(),
        "cauchy_gaps": report.cauchy_gaps.tolist(),
        "excluded": report.excluded,
        "hypothesis_flags": run.hypothesis_flags,
        "limit_proxy": to_source(report.limit_proxy),
    }
    if command == "rescale":
        profile = limit_sharp_check(report, report.tol)
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
    report = remark_counterexample(config["n_max"], config["R"], config["grid_size"])
    rows = zip(report.indices, report.ratios, report.sup_dev, report.bounds)
    payload = {
        "verdict": report.verdict,
        "radius": report.radius,
        "indices": report.indices,
        "ratios": report.ratios,
        "sup_dev": report.sup_dev,
        "bounds": report.bounds,
        "convergence_verdict": report.convergence.verdict,
    }
    return EXIT_OK, {
        "counterexample.csv": _csv(["n", "ratio", "sup_dev", "bound"], rows),
        "counterexample.json": _json(payload),
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
        config.get("plan", config)["seed"] = args.seed

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
