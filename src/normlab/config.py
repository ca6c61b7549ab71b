"""JSON run-configuration schemas and loaders.

Every config carries a ``command`` key naming the subcommand it drives; the
schema for that command is enforced strictly (unknown keys rejected).
Complex numbers are written as ``[re, im]`` pairs, points as arrays of pairs.

The schemas are JSON Schema (draft 2020-12) dicts, checked by a small walker
that knows only the keywords they use: ``type``, ``const``, ``properties``,
``required``, ``additionalProperties: false``, ``items``, ``minItems``,
``maxItems``, ``minLength``, ``minimum``, ``exclusiveMinimum``, ``maximum``
and ``oneOf``.  It follows JSON Schema's type rules, not Python's: a bool is
neither an integer nor a number, and an integer-valued float such as ``2.0``
is an integer.  A violation is reported as ``config schema violation: <json
path>: <reason>``, e.g. ``$.grid_size: 1 is less than the minimum of 2``.
The walk fills in each absent property's ``default`` (one is optional exactly
when it has one) and types each number by its schema, in the domain and arrays too.
``load_config`` only reads JSON: the walk also refuses NaN, the infinities and
an int past the range of a double, e.g. ``$.R: inf is not a finite number``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from typing import Any

from .domains import Ball, Domain, Polydisc
from .errors import ConfigError, ExprSyntaxError
from .expr import CPoint, HoloExpr, parse
from .metrics import SamplingPlan
from .rescaling import ExplicitScale, SequenceSpec, ZalcmanScale

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_MAX_COUNT = 2**20  # a larger count, or a scan of more samples, outgrows memory
_POSINT = {"type": "integer", "minimum": 1, "maximum": _MAX_COUNT}
_DIMENSION = {**_POSINT, "maximum": 9}  # the grammar's z1..z9
_SEED = {"type": "integer", "minimum": 0, "default": 0}
_GRID_SIZE = {**_POSINT, "minimum": 2, "default": 64}  # the origin and one ring at least
_FUNCTION = {"type": "string", "minLength": 1}
_COMPLEX = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}
_POINT = {"type": "array", "items": _COMPLEX, "minItems": 1}


def _object(**properties: dict) -> dict:
    """A closed object schema: a property is required exactly when it has no
    default, and no other key is allowed."""
    return {
        "type": "object",
        "properties": properties,
        "required": [key for key, schema in properties.items() if "default" not in schema],
        "additionalProperties": False,
    }


_DOMAIN = {
    "type": "object",
    "oneOf": [
        _object(
            type={"const": "ball"},
            center=_POINT,
            radius=_POSITIVE,
        ),
        _object(
            type={"const": "polydisc"},
            center=_POINT,
            radii={"type": "array", "items": _POSITIVE, "minItems": 1},
        ),
    ],
}

_PLAN = _object(
    shells={"type": "array", "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1}, "minItems": 1},
    points_per_shell=_POSINT,
    directions_per_point=_POSINT,
    seed=_SEED,
)


def _rescaling_schema(command: str, **scale: dict) -> dict:
    return _object(
        command={"const": command},
        function=_FUNCTION,
        dimension=_DIMENSION,
        domain=_DOMAIN,
        sequence=_object(
            anchor=_POINT,
            inward=_POINT,
            c_p=_POSITIVE,
            a=_POSITIVE,
            j_start=_POSINT,
            j_end=_POSINT,
            **scale,
        ),
        R=_POSITIVE,
        grid_size=_GRID_SIZE,
        tol={**_POSITIVE, "default": 1e-3},
        seed=_SEED,
    )


SCHEMAS: dict[str, dict] = {
    "sharp": _object(
        command={"const": "sharp"},
        function=_FUNCTION,
        dimension=_DIMENSION,
        points={"type": "array", "items": _POINT, "minItems": 1},
        h={**_POSITIVE, "default": 1e-4},
        sphere_samples={**_POSINT, "default": 256},
        seed=_SEED,
    ),
    "marty-scan": _object(
        command={"const": "marty-scan"},
        function=_FUNCTION,
        dimension=_DIMENSION,
        domain=_DOMAIN,
        plan=_PLAN,
    ),
    "rescale": _rescaling_schema("rescale"),
    "thm2": _rescaling_schema("thm2", c_r=_POSITIVE, b=_POSITIVE),
    "counterexample": _object(
        command={"const": "counterexample"},
        n_max={**_POSINT, "minimum": 3},
        R=_POSITIVE,
        grid_size=_GRID_SIZE,
        seed=_SEED,
    ),
}


def load_config(path: str) -> Any:
    """Read a JSON config as json.load does; a file that is not UTF-8 or JSON
    (ValueError) or is nested past the parser's recursion limit is a
    ConfigError.  validate_config checks what it holds."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_DOUBLE_LIMIT = 2**1024 - 2**970  # the least int that float() rounds past the largest double


def _is_double(value: Any) -> bool:
    """Whether a value is a number that the runs take as a finite double: a
    finite float, or an int inside the range of a double (float() raises
    OverflowError past it)."""
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_number(value) and abs(value) < _DOUBLE_LIMIT


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": _is_number,
    "integer": lambda value: _is_number(value) and (isinstance(value, int) or value.is_integer()),
}
_CASTS = {"integer": int, "number": float}  # the plain type of a value, by its schema type

# keyword, test that fails the number against the bound, and the reason
_BOUNDS = (
    ("minimum", operator.lt, "less than the minimum of"),
    ("exclusiveMinimum", operator.le, "less than or equal to the minimum of"),
    ("maximum", operator.gt, "greater than the maximum of"),
)


def _is_pair(value: Any) -> bool:
    return isinstance(value, list) and len(value) == 2 and _is_double(value[0]) and _is_double(value[1])


def _passes_at_once(items: list, schema: dict) -> bool:
    """Whether one pass shows that every item breaks nothing of `schema`:
    pairs of numbers under _COMPLEX, and numbers within the bounds of a
    number schema (shells, radii), each number a finite double.  A list that
    fails this is walked item by item, which names the violation."""
    if schema is _COMPLEX:
        return all(map(_is_pair, items))
    return (
        schema.get("type") == "number"
        and all(map(_is_double, items))
        and not any(
            any(map(fails, items, itertools.repeat(schema[keyword])))
            for keyword, fails, _ in _BOUNDS
            if keyword in schema
        )
    )


def _non_double(value: Any, path: str) -> tuple[str, str] | None:
    """(json path, reason) of the first number in `value` that is not a finite
    double, depth first: NaN, an infinity, or an int past the range of a
    double, which no message may print, as repr stops at 4,300 digits."""
    if _is_number(value) and not _is_double(value):
        if isinstance(value, float):
            return path, f"{value!r} is not a finite number"
        return path, f"integer of {value.bit_length()} bits overflows a double"
    keyed = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    form = "{}.{}" if isinstance(value, dict) else "{}[{}]"
    for key, item in keyed:  # a dict's key is looked at as if it were an item at the dict's path
        found = (isinstance(value, dict) and _non_double(key, path)) or _non_double(item, form.format(path, key))
        if found:
            return found
    return None


def _key(key: Any) -> str:
    """A key of a Python-built config as a message names it: its repr, or
    its bit count if it is an int past the range of a double, as `_non_double`
    names such a value."""
    huge = isinstance(key, int) and abs(key) >= _DOUBLE_LIMIT
    return f"<integer of {key.bit_length()} bits>" if huge else repr(key)


def _walk(value: Any, schema: dict, path: str, out: list[tuple[str, str]]) -> Any:
    """Append (json path, reason) for each way `value` breaks `schema`, and
    return `value` typed, of use only if nothing was appended, leaving `value`
    as it is: each absent property's default filled in and each number an int
    or a float by its type, in arrays and a oneOf's matched branch too.  As in
    JSON Schema, a keyword constrains only values of its own type.  A number
    that is not a finite double is refused at its path under any schema, since
    the runs take numbers through float()."""
    if _is_number(value) and (bad := _non_double(value, path)):  # before any message prints it
        out.append(bad)
        return value
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        out.append(_non_double(value, path) or (path, f"{value!r} is not of type {kind!r}"))
        return value
    if "const" in schema and value != schema["const"]:  # every const in SCHEMAS is a string
        out.append((path, f"{schema['const']!r} was expected"))
    if _is_number(value):
        out += [
            (path, f"{value!r} is {reason} {schema[keyword]!r}")
            for keyword, fails, reason in _BOUNDS
            if keyword in schema and fails(value, schema[keyword])
        ]
    elif isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            out.append((path, f"{value!r} is shorter than the minimum length of {schema['minLength']}"))
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            reason = f"is shorter than the minimum length of {schema['minItems']}"
            out.append(_non_double(value, path) or (path, f"{value!r} {reason}"))
        if len(value) > schema.get("maxItems", math.inf):
            reason = f"is longer than the maximum length of {schema['maxItems']}"
            out.append(_non_double(value, path) or (path, f"{value!r} {reason}"))
        items = schema.get("items", {})
        if not _passes_at_once(value, items):
            value = [_walk(item, items, f"{path}[{k}]", out) for k, item in enumerate(value)]
        elif items.get("type") in _CASTS:
            value = list(map(_CASTS[items["type"]], value))
    elif isinstance(value, dict):
        properties = schema.get("properties", {})
        typed = {}
        for key, subschema in properties.items():
            if key in value:
                typed[key] = _walk(value[key], subschema, f"{path}.{key}", out)
            elif "default" in subschema:
                typed[key] = subschema["default"]
        out += [(path, f"{key!r} is a required property") for key in schema.get("required", ()) if key not in value]
        unexpected = [key for key in value if key not in properties]
        if unexpected and schema.get("additionalProperties") is False:
            out.append((path, f"unknown key(s) {', '.join(map(_key, unexpected))}"))
        value = {**value, **typed}
    if "oneOf" in schema:
        # every oneOf in SCHEMAS has exclusive branches (a test checks it): one match is valid
        branches = [[] for _ in schema["oneOf"]]
        typed = [_walk(value, branch, path, errors) for branch, errors in zip(schema["oneOf"], branches)]
        fewest, second = sorted(map(len, branches))[:2]
        if fewest and fewest < second:
            # the branch of the value's own kind fails the fewest keywords
            out += min(branches, key=len)
        elif fewest:
            out.append(_non_double(value, path) or (path, f"{value!r} is not valid under any of the given schemas"))
        else:
            value = typed[branches.index([])]
    return _CASTS[kind](value) if kind in _CASTS else value


def _coordinate_lists(config: dict[str, Any]) -> list[tuple[str, list]]:
    """(name, list) for every list with one entry per coordinate."""
    found = [(f"points[{k}]", point) for k, point in enumerate(config.get("points", []))]
    for section, keys in (("domain", ("center", "radii")), ("sequence", ("anchor", "inward"))):
        found += [
            (f"{section}.{key}", config[section][key])
            for key in keys
            if key in config.get(section, {})
        ]
    return found


@functools.lru_cache(maxsize=1)
def parse_function(source: str, dimension: int) -> HoloExpr:
    """`parse`, keeping the last expression it returned: `validate_config`
    parses a config's function, and the run takes it from here unparsed.
    An expression is immutable, so one can be shared."""
    return parse(source, dimension)


def validate_config(config: Any) -> str:
    """Validate against the schema named by config['command'], check that a
    scan plan asks for at most 2^20 samples (shells x points x directions) and
    for at least 2 * dimension points per shell, a sharp config for 2^20
    stencil rows (points x (4 n^2 + 1), held at once) and a sequence's
    j_start not past its j_end, check every point, center, radii, anchor and
    inward list against the dimension, and parse the config's function, if
    any; returns the command.  The one walk of the schema also gives the
    config, in place, its defaults and plain types, in the domain and number
    arrays too: an integer 2.0 becomes 2, and a number 1 becomes 1.0.  It is
    the one check of a config, whether load_config read it or not."""
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    command = config.get("command")
    if not isinstance(command, str) or command not in SCHEMAS:
        raise ConfigError(f"config must carry a 'command' key, one of {sorted(SCHEMAS)}")
    errors: list[tuple[str, str]] = []
    typed = _walk(config, SCHEMAS[command], "$", errors)
    if errors:
        raise ConfigError("config schema violation: {}: {}".format(*errors[0]))
    config.update(typed)
    plan = config.get("plan")
    if plan is not None:
        shells, points, directions = len(plan["shells"]), plan["points_per_shell"], plan["directions_per_point"]
        if shells * points * directions > _MAX_COUNT:
            raise ConfigError(
                f"plan asks for {shells} shells x {points} points x {directions} directions"
                f" = {shells * points * directions} samples, more than the cap of {_MAX_COUNT}"
            )
        if points < 2 * config["dimension"]:  # a shell's first 2n points are the signed axes
            raise ConfigError(
                f"plan.points_per_shell {points} is below 2 * dimension = {2 * config['dimension']},"
                " so the scan would miss a signed coordinate axis"
            )
    if command == "sharp":
        points, stencil = len(config["points"]), 4 * config["dimension"] ** 2 + 1
        if points * stencil > _MAX_COUNT:
            raise ConfigError(f"sharp asks for {points} points x {stencil} stencil rows"
                              f" = {points * stencil} rows, more than the cap of {_MAX_COUNT}")
    sequence = config.get("sequence")
    if sequence is not None and sequence["j_start"] > sequence["j_end"]:
        raise ConfigError(f"sequence.j_start {sequence['j_start']} exceeds sequence.j_end {sequence['j_end']}")
    if "dimension" in config:
        for name, coordinates in _coordinate_lists(config):
            if len(coordinates) != config["dimension"]:
                raise ConfigError(
                    f"{name} has length {len(coordinates)}, not the dimension {config['dimension']}"
                )
    if "function" in config:
        try:
            parse_function(config["function"], config["dimension"])
        except ExprSyntaxError as exc:
            raise ConfigError(f"invalid function: {exc}") from exc
    return command


def parse_point(raw: list[list[float]]) -> CPoint:
    return tuple(complex(re, im) for re, im in raw)


def parse_domain(raw: dict[str, Any]) -> Domain:
    center = parse_point(raw["center"])
    if raw["type"] == "ball":
        return Ball(center, raw["radius"])
    return Polydisc(center, tuple(raw["radii"]))


def parse_plan(raw: dict[str, Any]) -> SamplingPlan:
    """A validated plan, whose keys are the fields of SamplingPlan."""
    return SamplingPlan(**{**raw, "shells": tuple(raw["shells"])})


def parse_sequence(raw: dict[str, Any]) -> SequenceSpec:
    """The explicit scale rule r_j = c_r * j^-b if the sequence gives c_r (the
    schemas allow it under thm2 only), else the Zalcman rule."""
    scale = ExplicitScale(raw["c_r"], raw["b"]) if "c_r" in raw else ZalcmanScale()
    return SequenceSpec(
        anchor=parse_point(raw["anchor"]),
        inward=parse_point(raw["inward"]),
        c_p=raw["c_p"],
        a=raw["a"],
        scale=scale,
        j_start=raw["j_start"],
        j_end=raw["j_end"],
    )


def point_to_json(point: CPoint) -> list[list[float]]:
    return [[z.real, z.imag] for z in map(complex, point)]
