"""Command-line front end.

Subcommands: sharp, marty-scan, rescale, thm2, counterexample, check-config.
Exit codes: 0 success, 2 config error or an output that cannot be written,
3 evaluation error, 4 run completed with hypothesis flags raised.  Identical
config gives byte-identical outputs.  Each runner returns its exit code
and the pieces of every output file's text, with every number checked; `main`
then makes --out and writes those that --format selects, piece by piece, so a
run that fails writes no file and no directory, and an output left out is
never printed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import config as cfg
from . import floattext
from .domains import Ball, row_norms
from .errors import ConfigError, NormlabError
from .expr import parse, to_source
from .metrics import normality_scan, sharp_batch, sharp_fd
from .rescaling import _CHUNK_ROWS, ExplicitScale, SequenceSpec, convergence_report, limit_sharp_check, rescaling_run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVAL = 3
EXIT_FLAGGED = 4


def _json(payload: dict) -> Iterator[str]:
    """The pieces of json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False) + "\n" for a payload of str keys, in which any other
    numpy array prints as its `.tolist()`: the text json prints before each
    record array's or number list's entry, that entry's text in place of the
    null that json prints for it, and the text after.  A record array prints
    in blocks (`_records_json`); a number list, a non-empty flat list, tuple
    or 1-D array of ints and floats (the per-index lists of a run, say), in
    one join of their reprs, which is how json prints each of them.  A
    newline, two spaces and a quoted key open only a top-level entry, since
    json escapes every newline and quote inside a string, and the entries
    come in sorted key order.  Every number is checked before this returns."""
    records = {key: value for key, value in payload.items() if isinstance(value, np.recarray)}
    lists = {key: texts for key, value in payload.items() if (texts := _number_texts(value)) is not None}
    if any("nan" in texts or "inf" in texts or "-inf" in texts for texts in lists.values()):
        # json names the first non-finite float it meets
        rest = {key: value for key, value in payload.items() if key not in records}
        json.dumps(rest, indent=2, sort_keys=True, allow_nan=False, default=np.ndarray.tolist)
    text = json.dumps(
        {**payload, **dict.fromkeys(records), **dict.fromkeys(lists)},
        indent=2, sort_keys=True, allow_nan=False, default=np.ndarray.tolist,
    ) + "\n"
    pieces, start = [], 0
    for key in sorted([*records, *lists]):
        entry = f"\n  {json.dumps(key)}: "
        cut = text.index(entry + "null", start) + len(entry)
        block = _records_json(records[key]) if key in records else ("[\n    " + ",\n    ".join(lists[key]) + "\n  ]",)
        pieces += [(text[start:cut],), block]
        start = cut + len("null")
    return itertools.chain(*pieces, (text[start:],))


def _number_texts(value) -> list[str] | None:
    """The repr of each number of a non-empty flat list, tuple or 1-D array
    of ints and floats (no bool), as json prints it; None for any other value."""
    if isinstance(value, np.ndarray):
        if value.ndim != 1 or value.dtype.kind not in "iuf":
            return None
        value = value.tolist()
    elif not isinstance(value, (list, tuple)):
        return None
    if not value or not {int, float}.issuperset(map(type, value)):
        return None
    return list(map(repr, value))


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


_BLOCK_FLOATS = 2**12  # bounds the text a writer holds, as `rescaling._CHUNK_ROWS` bounds a grid pass
# below this many distinct floats in a block, float.__repr__ one at a time:
# `floattext.reprs` costs about 0.2 ms a call whatever the count and breaks
# even near 500 floats, and small reports never build its tables
_KERNEL_FLOATS = 2**10


def _records_json(records: np.ndarray) -> Iterator[str]:
    """A record array as a list of objects, byte for byte as json.dumps(
    indent=2, sort_keys=True, allow_nan=False) prints it as a top-level key
    of a report (`marty_scan.json`'s samples, `sharp.json`'s rows): the
    floats of each record in sorted field order (a complex field's real and
    imaginary parts in turn), as float.__repr__ prints them, as json does.
    Every float is checked here, so a non-finite one raises json's
    ValueError before this returns; the text then comes lazily, in blocks of
    at most 2^12 floats, so that a writer holds one block's text at a time."""
    if not len(records):
        return iter(("[]",))
    pieces = _record_row(records.dtype)
    columns = [records[name].reshape(len(records), -1) for name in sorted(records.dtype.names)]
    columns = [c.view(float) if c.dtype.kind == "c" else c for c in columns]
    finite = np.logical_and.reduce([np.isfinite(c).all(axis=1) for c in columns])
    if not finite.all():  # json names the first non-finite float it meets
        row = np.hstack([c[np.argmin(finite)] for c in columns])
        raise ValueError(f"Out of range float values are not JSON compliant: {float(row[~np.isfinite(row)][0])!r}")
    step = max(1, _BLOCK_FLOATS // (len(pieces) - 1))
    tables = (np.hstack([c[start:start + step] for c in columns]) for start in range(0, len(records), step))
    return _record_blocks(pieces, tables)


def _record_blocks(pieces: tuple[str, ...], tables: Iterable[np.ndarray]) -> Iterator[str]:
    """The text of `_records_json`, one block of rows (a table of their
    floats) at a time.  A report repeats most of its floats (each scan point
    across its directions, say), so each distinct float of a block is printed
    once, through `floattext.reprs` when the block has enough of them; the
    float texts are laid between the row's pieces in one table of strings,
    and the block is joined once."""
    lead = "["
    for table in tables:
        # keyed on the bit pattern, not the value, so -0.0 and 0.0 print apart
        bits, inverse = np.unique(table.view(np.int64), return_inverse=True)
        floats = bits.view(float)
        text = floattext.reprs(floats) if len(floats) >= _KERNEL_FLOATS else list(map(float.__repr__, floats.tolist()))
        cells = np.empty((len(table), 2 * len(pieces) - 1), dtype=object)
        cells[:, 0::2] = ("," + pieces[0], *pieces[1:])
        cells[:, 1::2] = np.array(text, dtype=object)[inverse.reshape(table.shape)]
        cells[0, 0] = lead + pieces[0]
        lead = ","
        yield "".join(cells.ravel().tolist())
    yield "\n  ]"


def _csv(header: list[str], rows) -> Iterator[str]:
    """The lines of the rows as csv.writer prints them, for cells that need
    no quoting: str of each cell (of a float, its repr), commas and CRLF
    line ends."""
    return (",".join(map(str, row)) + "\r\n" for row in itertools.chain((header,), rows))


def _point_str(z) -> str:
    # comma-free so the CSV column stays unquoted: "re im" pairs joined by ';'
    return ";".join(f"{complex(c).real!r} {complex(c).imag!r}" for c in z)


def _run_sharp(config: dict) -> tuple[int, dict[str, Iterable[str]]]:
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


def _run_marty_scan(config: dict) -> tuple[int, dict[str, Iterable[str]]]:
    f = cfg.parse_function(config["function"], config["dimension"])
    domain = cfg.parse_domain(config["domain"])
    plan = cfg.parse_plan(config["plan"])
    est = normality_scan(f, domain, plan)
    return EXIT_OK, {
        "marty_trend.csv": _csv(["shell", "max_ratio_lower", "min_boundary_distance"], est.shell_trend),
        "marty_scan.json": _json({"function": config["function"], **vars(est)}),
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


def _run_rescaling(config: dict) -> tuple[int, dict[str, Iterable[str]]]:
    """`rescale` and `thm2`, whose configs differ in the scale rule; outputs
    are <command>_run.csv and <command>.json, the latter with the limit's
    sharp profile under `rescale`."""
    command = config["command"]
    f = cfg.parse_function(config["function"], config["dimension"])
    domain = cfg.parse_domain(config["domain"])
    spec = cfg.parse_sequence(config["sequence"])
    run = rescaling_run(f, domain, spec)
    report = convergence_report(run, config["R"], config["grid_size"], config["tol"])
    payload = dict(vars(report), hypothesis_flags=run.hypothesis_flags, limit_proxy=to_source(report.limit_proxy))
    del payload["grid"]
    if command == "rescale":
        profile = limit_sharp_check(report, report.tol)
        payload["sharp_profile"] = {**vars(profile), "argmax": cfg.point_to_json(profile.argmax)}
    return EXIT_FLAGGED if run.hypothesis_flags else EXIT_OK, {
        f"{command}_run.csv": _csv(_RUN_HEADER, _run_rows(run, report)),
        f"{command}.json": _json(payload),
    }


def _run_counterexample(config: dict) -> tuple[int, dict[str, Iterable[str]]]:
    """The paper's Remark, printed from its explicit run: f(z) = z on the unit
    disc, z_n = 1 - n^-3, rho_n = n^-2, n = 1..n_max; g_n tends to 1 while
    rho_n / (1 - |z_n|) = n diverges.  A row holds that exact ratio, sup
    |g_n - 1| on the report's grid and its bound n^-3 + n^-2 R.  g_n(zeta) is
    the point z_n + rho_n*zeta, so the sup comes from the run's columns, in the
    chunks and by the arithmetic of `_grid_chunks`, bit for bit."""
    radius = config["R"]
    spec = SequenceSpec((1 + 0j,), (-1 + 0j,), 1.0, 3.0, ExplicitScale(1.0, 2.0), 1, config["n_max"])
    run = rescaling_run(parse("z1", 1), Ball((0j,), 1.0), spec)
    report = convergence_report(run, radius, config["grid_size"], 1e-3)
    z, rho, zeta = run.entries.z_j, run.entries.rho_j, report.grid[:, 0]
    step, sup_dev = max(1, _CHUNK_ROWS // len(zeta)), []
    for k in range(0, len(rho), step):
        g = rho[k:k + step, None] * zeta
        g += z[k:k + step]
        g -= 1.0
        sup_dev += np.abs(g).max(axis=1).tolist()
    indices = list(spec.indices)
    ratios = [float(n) for n in indices]
    bounds = [float(n) ** -3 + float(n) ** -2 * radius for n in indices]
    verdict = "constant-limit-with-divergent-ratio" if report.verdict == "constant-limit" else "inconclusive"
    payload = dict(indices=indices, ratios=ratios, sup_dev=sup_dev, bounds=bounds, radius=radius, verdict=verdict)
    return EXIT_OK, {
        "counterexample.csv": _csv(["n", "ratio", "sup_dev", "bound"], zip(indices, ratios, sup_dev, bounds)),
        "counterexample.json": _json({**payload, "convergence_verdict": report.verdict}),
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
        p.add_argument("--format", choices=["json", "csv", "both"], default="both")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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

    try:
        code, outputs = _RUNNERS[command](config)
    except NormlabError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL

    # made only now, so a run that fails leaves no directory behind
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, pieces in outputs.items():
            if args.format in ("both", Path(name).suffix[1:]):
                with open(out / name, "w", encoding="utf-8", newline="") as file:
                    file.writelines(pieces)
    except OSError as exc:  # the output directory or a file in it cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
