"""The config schema walker against jsonschema, the reference implementation
of JSON Schema: mutated configs of every command are accepted or rejected
by both alike."""

import copy
import importlib.util
import json
import math
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import config as config_module
from normlab.cli import main
from normlab.config import SCHEMAS, validate_config
from normlab.errors import ConfigError

_BALL = {"type": "ball", "center": [[0.0, 0.0], [0.0, 0.0]], "radius": 1.0}
_POLYDISC = {"type": "polydisc", "center": [[0.0, 0.0], [0.0, 0.0]], "radii": [1.0, 2]}
_SEQUENCE = {
    "anchor": [[1.0, 0.0], [0.0, 0.0]],
    "inward": [[-1.0, 0.0], [0.0, 0.0]],
    "c_p": 1 / (2 * math.pi),
    "a": 1.0,
    "j_start": 2,
    "j_end": 30,
}
_RESCALE = {
    "command": "rescale",
    "function": "sin(1/(1-z1))*z2",
    "dimension": 2,
    "domain": _BALL,
    "sequence": _SEQUENCE,
    "R": 1.0,
    "grid_size": 64,
    "tol": 1e-3,
    "seed": 0,
}
_VALID = [
    {
        "command": "sharp",
        "function": "z1*z2",
        "dimension": 2,
        "points": [[[1.0, 0.0], [0.5, -0.25]], [[0, 0], [0.1, 0]]],
        "h": 1e-4,
        "sphere_samples": 64,
        "seed": 3,
    },
    *(
        {
            "command": "marty-scan",
            "function": "z1*z2",
            "dimension": 2,
            "domain": domain,
            "plan": {"shells": [1, 0.5, 0.25], "points_per_shell": 4, "directions_per_point": 2, "seed": 0},
        }
        for domain in (_BALL, _POLYDISC)
    ),
    _RESCALE,
    {**_RESCALE, "domain": _POLYDISC},
    {**_RESCALE, "command": "thm2", "sequence": {**_SEQUENCE, "c_r": 1.0, "b": 2.0}},
    {"command": "counterexample", "n_max": 50, "R": 1.0, "grid_size": 16, "seed": 1},
]

# every property name in the schemas, so that an added key is often one that
# another command or the other domain kind allows
_KEYS = sorted(
    {key for schema in SCHEMAS.values() for key in schema["properties"]}
    | {"center", "radius", "radii", "type", "shells", "c_r", "b", "bogus"}
)
_NUMBERS = [-1, -0.0, 0, 0.0, 5e-324, 0.5, 1, 1.0, 1.0000000000000002, 1.5, 2, 2.0, 2.5, 3, 3.0, 1e300]
_OTHER_TYPES = [None, "x", "", [], {}, [1.0, 2.0], True, False, 1, 1.5]


def _slots(node):
    """(container, key) for every value below `node`."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _draw_copy(data, values):
    return copy.deepcopy(data.draw(st.sampled_from(values)))


def _drop(config, data):
    slots = list(_slots(config))
    if slots:
        container, key = data.draw(st.sampled_from(slots))
        del container[key]


def _add_key(config, data):
    objects = [config] + [c[k] for c, k in _slots(config) if isinstance(c[k], dict)]
    data.draw(st.sampled_from(objects))[data.draw(st.sampled_from(_KEYS))] = _draw_copy(data, _NUMBERS + _OTHER_TYPES)


def _change_type(config, data):
    slots = list(_slots(config))
    if slots:
        container, key = data.draw(st.sampled_from(slots))
        container[key] = _draw_copy(data, _OTHER_TYPES)


def _past_a_bound(config, data):
    slots = [(c, k) for c, k in _slots(config) if _is_number(c[k])]
    if slots:
        container, key = data.draw(st.sampled_from(slots))
        container[key] = data.draw(st.sampled_from(_NUMBERS))


def _lengthen_list(config, data):
    lists = [c[k] for c, k in _slots(config) if isinstance(c[k], list)]
    if lists:
        items = data.draw(st.sampled_from(lists))
        items.append(copy.deepcopy(items[0]) if items else 0.0)


def _swap_domain_kind(config, data):
    domain = config.get("domain")
    if isinstance(domain, dict):
        domain["type"] = "polydisc" if domain.get("type") == "ball" else "ball"
        if data.draw(st.booleans()):  # and the kind's own size key with it
            had_radius, had_radii = "radius" in domain, "radii" in domain
            domain.pop("radius", None), domain.pop("radii", None)
            if had_radius:
                domain["radii"] = [1.0, 1.0]
            if had_radii:
                domain["radius"] = 1.0


def _bool_or_float_for_int(config, data):
    slots = [(c, k) for c, k in _slots(config) if _is_number(c[k])]
    if slots:
        container, key = data.draw(st.sampled_from(slots))
        value = container[key]
        container[key] = data.draw(st.sampled_from([True, False, float(value), value + 0.5]))


_MUTATIONS = [
    _drop, _add_key, _change_type, _past_a_bound, _lengthen_list, _swap_domain_kind, _bool_or_float_for_int,
]


def _walker_accepts(config) -> bool:
    try:
        validate_config(config)
    except ConfigError as exc:
        # the checks after the schema (lengths, j order, the function) do not
        # concern the schema
        return "config schema violation" not in str(exc)
    return True


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_walker_agrees_with_jsonschema(data):
    base = data.draw(st.sampled_from(_VALID))
    config = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        data.draw(st.sampled_from(_MUTATIONS))(config, data)
    schema = SCHEMAS[base["command"]]
    expected = jsonschema.validators.validator_for(schema)(schema).is_valid(config)
    if config.get("command") != base["command"]:
        assert not expected
        with pytest.raises(ConfigError, match="must carry a 'command' key"):
            validate_config(config)
    else:
        assert _walker_accepts(copy.deepcopy(config)) == expected, config


def _one_ofs(node):
    """The branch lists of every oneOf below `node`."""
    if isinstance(node, dict):
        if "oneOf" in node:
            yield node["oneOf"]
        for value in node.values():
            yield from _one_ofs(value)
    elif isinstance(node, list):
        for value in node:
            yield from _one_ofs(value)


# The walker takes a value that matches one branch of a oneOf as valid and
# does not look for a second match, which JSON Schema would refuse; that is
# right only while no value can match two branches.
def test_every_one_of_fixes_a_shared_key_to_distinct_consts():
    found = list(_one_ofs(SCHEMAS))
    assert found  # the domain's
    for branches in found:
        consts = [
            {
                key: sub["const"]
                for key, sub in branch["properties"].items()
                if "const" in sub and key in branch["required"]  # an absent key would match any const
            }
            for branch in branches
        ]
        shared = set.intersection(*map(set, consts))
        assert any(len({c[key] for c in consts}) == len(branches) for key in shared), branches


@pytest.mark.parametrize("config", _VALID, ids=lambda c: c["command"])
def test_valid_configs_pass(config):
    assert validate_config(copy.deepcopy(config)) == config["command"]


@pytest.mark.parametrize(
    "change,message",
    [
        ({"grid_size": 1}, "$.grid_size: 1 is less than the minimum of 2"),
        ({"grid_size": True}, "$.grid_size: True is not of type 'integer'"),
        ({"dimension": 2.5}, "$.dimension: 2.5 is not of type 'integer'"),
        ({"R": 0}, "$.R: 0 is less than or equal to the minimum of 0"),
        ({"function": ""}, "$.function: '' is shorter than the minimum length of 1"),
        ({"bogus": 1, "extra": 2}, "$: unknown key(s) 'bogus', 'extra'"),
        ({"sequence": {**_SEQUENCE, "anchor": [[1.0, 0.0], [0.0]]}},
         "$.sequence.anchor[1]: [0.0] is shorter than the minimum length of 2"),
        ({"sequence": {**_SEQUENCE, "inward": [[-1.0, 0.0, 0.0], [0.0, 0.0]]}},
         "$.sequence.inward[0]: [-1.0, 0.0, 0.0] is longer than the maximum length of 2"),
        # the branch of the domain's own kind names the violation
        ({"domain": {**_BALL, "radius": -1}}, "$.domain.radius: -1 is less than or equal to the minimum of 0"),
        ({"domain": {**_POLYDISC, "radii": [1.0, "2"]}}, "$.domain.radii[1]: '2' is not of type 'number'"),
        ({"domain": {**_BALL, "type": "cube", "radii": [1.0]}}, "$.domain: {'type': 'cube', 'center': "),
        # a pair of numbers passes in one check; a pair with anything else is walked item by item
        ({"sequence": {**_SEQUENCE, "anchor": [[1.0, 0.0], [0.0, True]]}},
         "$.sequence.anchor[1][1]: True is not of type 'number'"),
        # a message shows the value as written, not as the walk types it
        ({"domain": {"type": "cube", "center": [[0, 0]], "radius": 1, "radii": [1]}},
         "$.domain: {'type': 'cube', 'center': [[0, 0]], 'radius': 1, 'radii': [1]} is not valid under any"),
    ],
)
def test_violation_names_its_json_path(change, message):
    with pytest.raises(ConfigError) as info:
        validate_config({**copy.deepcopy(_RESCALE), **change})
    assert str(info.value).startswith("config schema violation: " + message)


# load_config refuses such a literal, but from Python an int past the range of
# a double reached a float() cast: the walk's own (h) raised OverflowError, and
# so did cli._run_sharp's complex() of a coordinate that the pair check passed
@pytest.mark.parametrize(
    "change,path",
    [
        ({"h": 10**400}, "$.h"),
        ({"h": -(10**400)}, "$.h"),
        ({"points": [[[10**400, 0]]]}, "$.points[0][0][0]"),
        ({"seed": 10**400}, "$.seed"),  # an integer key too, as load_config refuses its literal
    ],
)
def test_integer_past_the_double_range_is_a_schema_violation(change, path):
    config = {"command": "sharp", "function": "z1", "dimension": 1, "points": [[[0.1, 0]]], **change}
    with pytest.raises(ConfigError) as info:
        validate_config(config)
    assert str(info.value) == f"config schema violation: {path}: integer of 1329 bits overflows a double"


# repr prints no int of more than 4,300 digits, so a message that printed the
# value holding one, a list or the domain object, ended in a ValueError
@pytest.mark.parametrize(
    "config,path",
    [
        ({**_VALID[1], "domain": {"type": "cube", "center": [[10**5000, 0]], "radius": 1, "radii": [1]}},
         "$.domain.center[0][0]"),  # both domain kinds fail alike
        ({**_VALID[0], "dimension": [10**5000]}, "$.dimension[0]"),  # not an integer
        ({**_VALID[0], "points": [[[10**5000]]]}, "$.points[0][0][0]"),  # too short a pair
    ],
    ids=["domain-tie", "type-mismatch", "short-pair"],
)
def test_integer_past_the_repr_limit_is_a_schema_violation(config, path):
    with pytest.raises(ConfigError) as info:
        validate_config(copy.deepcopy(config))
    assert str(info.value) == f"config schema violation: {path}: integer of 16610 bits overflows a double"


def test_integer_key_past_the_repr_limit_is_a_schema_violation():
    # JSON keys are strings, so only a Python-built config can hold such a key
    config = {"command": "sharp", "function": "z1", "dimension": 1, "points": [[[0.1, 0]]], 10**5000: 1}
    with pytest.raises(ConfigError) as info:
        validate_config(config)
    assert str(info.value) == "config schema violation: $: unknown key(s) <integer of 16610 bits>"
    # a message that prints the whole object, here the domain `oneOf` tie
    for value in (1, 10**5000):
        domain = {"type": "cube", 10**5000: value, "center": [[0, 0]], "radius": 1, "radii": [1]}
        with pytest.raises(ConfigError) as info:
            validate_config({**copy.deepcopy(_VALID[1]), "domain": domain})
        assert str(info.value) == "config schema violation: $.domain: integer of 16610 bits overflows a double"


def test_integers_up_to_the_double_range_pass():
    largest = 2**1024 - 2**970 - 1  # float() rounds it down to the largest double; one more overflows
    config = {"command": "sharp", "function": "z1", "dimension": 1, "points": [[[largest, 0]]], "h": largest}
    validate_config(config)
    assert config["h"] == 1.7976931348623157e308
    scan = copy.deepcopy(_VALID[2])  # the polydisc scan, whose radii pass in one check
    scan["domain"]["radii"] = [1, largest]
    validate_config(scan)
    assert scan["domain"]["radii"] == [1.0, 1.7976931348623157e308]
    scan["domain"]["radii"] = [1, largest + 1]
    with pytest.raises(ConfigError, match=re.escape("$.domain.radii[1]: integer of 1024 bits overflows a double")):
        validate_config(scan)


# a command that is not a string once ended in a TypeError traceback (exit 1)
@pytest.mark.parametrize("command", [["sharp"], {"sharp": 1}, None, 1, True])
def test_command_of_another_type_is_config_error(command):
    with pytest.raises(ConfigError, match="must carry a 'command' key"):
        validate_config({"command": command})


def _at(config, path, value):
    """A copy of `config` with the key at dotted `path` set to `value`."""
    config = copy.deepcopy(config)
    *parents, key = path.split(".")
    node = config
    for parent in parents:
        node = node[parent]
    node[key] = value
    return config


_SHARP, _SCAN = _VALID[0], _VALID[1]
_THM2, _COUNTEREXAMPLE = _VALID[5], _VALID[6]
_COUNTS = [
    (_SHARP, "sphere_samples"),
    (_SCAN, "plan.points_per_shell"),
    (_SCAN, "plan.directions_per_point"),
    (_RESCALE, "grid_size"),
    (_THM2, "grid_size"),
    (_THM2, "sequence.j_start"),
    (_THM2, "sequence.j_end"),
    (_COUNTEREXAMPLE, "n_max"),
    (_COUNTEREXAMPLE, "grid_size"),
]


# each count sizes an allocation; at 1e300 one ended in a MemoryError or a
# numpy ValueError traceback, or the process was killed
@pytest.mark.parametrize("value", [1e300, 2**20 + 1])
@pytest.mark.parametrize("config,path", _COUNTS, ids=lambda x: x if isinstance(x, str) else x["command"])
def test_counts_are_capped_at_two_to_the_twenty(config, path, value):
    with pytest.raises(ConfigError) as info:
        validate_config(_at(config, path, value))
    assert str(info.value) == f"config schema violation: $.{path}: {value!r} is greater than the maximum of 1048576"


@pytest.mark.parametrize("config,path", _COUNTS, ids=lambda x: x if isinstance(x, str) else x["command"])
def test_counts_at_the_cap_pass_the_schema(config, path):
    # the checks after the schema (the dimension, j order) may still object
    assert _walker_accepts(_at(config, path, 2**20))


_DIMENSIONED = [_SHARP, _SCAN, _RESCALE, _THM2]


# a sharp config of dimension 131072 passed the schema and ended in a
# MemoryError traceback: sharp_fd's memory grows as n^3
@pytest.mark.parametrize("value", [10, 131072, 2**20 + 1, 1e300])
def test_dimension_is_capped_at_nine(tmp_path, capsys, value):
    message = f"config schema violation: $.dimension: {value!r} is greater than the maximum of 9"
    for config in _DIMENSIONED:
        with pytest.raises(ConfigError) as info:
            validate_config(_at(config, "dimension", value))
        assert str(info.value) == message
    path = tmp_path / "sharp.json"
    path.write_text(json.dumps(_at(_SHARP, "dimension", value)))
    assert main(["sharp", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_dimension_at_the_cap_passes_the_schema(tmp_path):
    # z1..z9, the variables the grammar names
    for config in _DIMENSIONED:
        assert _walker_accepts(_at(config, "dimension", 9))
    config = {**_SHARP, "function": "z1*z9", "dimension": 9, "points": [[[0.5, 0.0]] * 9]}
    path = tmp_path / "sharp.json"
    path.write_text(json.dumps(config))
    assert main(["sharp", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


# each key passed its own cap, and a plan of 2^20 x 2^20 samples ended in a
# MemoryError traceback or the process was killed
@pytest.mark.parametrize(
    "shells,points,directions",
    [(1, 2**20, 2**20), (3, 2**19, 1), (2**20 + 1, 1, 1), (2, 2**10, 2**9 + 1)],
)
def test_scan_sample_count_is_capped(tmp_path, capsys, shells, points, directions):
    plan = {"shells": [1.0] * shells, "points_per_shell": points, "directions_per_point": directions}
    config = {**_SCAN, "plan": plan}
    samples = shells * points * directions
    message = (
        f"plan asks for {shells} shells x {points} points x {directions} directions"
        f" = {samples} samples, more than the cap of 1048576"
    )
    with pytest.raises(ConfigError) as info:
        validate_config(copy.deepcopy(config))
    assert str(info.value) == message
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(config))
    assert main(["marty-scan", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_scan_at_the_sample_cap_passes():
    plan = {"shells": [1.0, 0.5], "points_per_shell": 2**10, "directions_per_point": 2**9}
    assert validate_config({**copy.deepcopy(_SCAN), "plan": plan}) == "marty-scan"


# sharp_fd holds points x (4 n^2 + 1) stencil rows at once, about 0.11 MB a
# point in 9-D (374 MB peak RSS at 3,226 points): a config of 65,536 points
# passed, and by that rate would need some 7 GB
def test_sharp_stencil_row_count_is_capped(tmp_path, capsys):
    def config(points):
        return {**_SHARP, "function": "z1*z9", "dimension": 9, "points": [[[0.5, 0.0]] * 9] * points}

    assert validate_config(config(3226)) == "sharp"  # 3226 x 325 = 1048450 rows
    message = "sharp asks for 3227 points x 325 stencil rows = 1048775 rows, more than the cap of 1048576"
    with pytest.raises(ConfigError) as info:
        validate_config(config(3227))
    assert str(info.value) == message
    path = tmp_path / "sharp.json"
    path.write_text(json.dumps(config(3227)))
    assert main(["sharp", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_point_lists_are_checked_in_one_pass(monkeypatch):
    # a list of [re, im] pairs of numbers is checked in one pass, not by one
    # walk per coordinate; a list with any other item is walked item by item
    calls = []
    walk = config_module._walk

    def counted(value, schema, path, out):
        calls.append(path)
        return walk(value, schema, path, out)

    monkeypatch.setattr(config_module, "_walk", counted)
    points = [[[0.1 * k, -0.2], [0.0, 1], [2.5, 0.0]] for k in range(16)]
    sharp = {**copy.deepcopy(_SHARP), "dimension": 3, "points": points}
    validate_config(sharp)
    assert len(calls) == 8 + 16  # the top level, its 7 keys, and each point
    calls.clear()
    sharp["points"][5] = [[0.0, 0.0], [0.0, True], [1.0, 0.0]]
    with pytest.raises(ConfigError, match=re.escape("$.points[5][1][1]: True is not of type 'number'")):
        validate_config(sharp)
    assert "$.points[5][1]" in calls and "$.points[4][1]" not in calls


def test_bounded_number_lists_are_checked_in_one_pass(monkeypatch):
    # shells and radii are checked against their type and bounds in one pass,
    # not by one walk per item (2^20 shells took 1.9 s); a list that breaks
    # them is walked item by item, which names the item
    calls = []
    walk = config_module._walk

    def counted(value, schema, path, out):
        calls.append(path)
        return walk(value, schema, path, out)

    monkeypatch.setattr(config_module, "_walk", counted)
    scan = copy.deepcopy(_VALID[2])  # the polydisc scan
    scan["plan"]["shells"] = [2.0**-k for k in range(64)] + [1]
    validate_config(copy.deepcopy(scan))
    assert not [path for path in calls if "[" in path], calls
    for key, bad, message in [
        ("shells", 0, "$.plan.shells[40]: 0 is less than or equal to the minimum of 0"),
        ("shells", 1.5, "$.plan.shells[40]: 1.5 is greater than the maximum of 1"),
        ("shells", True, "$.plan.shells[40]: True is not of type 'number'"),
        ("radii", -1, "$.domain.radii[1]: -1 is less than or equal to the minimum of 0"),
    ]:
        calls.clear()
        config = copy.deepcopy(scan)
        items = config["plan"]["shells"] if key == "shells" else config["domain"]["radii"]
        items[40 if key == "shells" else 1] = bad
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(config)
        assert message.split(":")[0] in calls


# A shell's first 2n points are the signed coordinate axes.  With fewer, a
# scan never probed the last ones: a 3-D unit-ball scan of sin(1/(1-z3)) with
# 4 points per shell (shells 2^-1..2^-8, 4 directions, seed 0) read
# bounded-consistent with c 0.0144, and reads inconclusive with c 1959 at 6.
@pytest.mark.parametrize("dimension", [1, 2, 3, 9])
def test_scan_plan_has_a_point_per_signed_axis(tmp_path, capsys, dimension):
    config = {
        **_SCAN,
        "function": "z1",
        "dimension": dimension,
        "domain": {"type": "ball", "center": [[0.0, 0.0]] * dimension, "radius": 1.0},
        "plan": {**_SCAN["plan"], "points_per_shell": 2 * dimension},
    }
    assert validate_config(copy.deepcopy(config)) == "marty-scan"
    config["plan"]["points_per_shell"] = 2 * dimension - 1
    message = (
        f"plan.points_per_shell {2 * dimension - 1} is below 2 * dimension = {2 * dimension},"
        " so the scan would miss a signed coordinate axis"
    )
    with pytest.raises(ConfigError) as info:
        validate_config(copy.deepcopy(config))
    assert str(info.value) == message
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(config))
    assert main(["marty-scan", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_validation_fills_defaults_and_types_scalars():
    config = {
        "command": "marty-scan",
        "function": "z1",
        "dimension": 1.0,
        "domain": {"type": "ball", "center": [[0, 0]], "radius": 1},
        "plan": {"shells": [1], "points_per_shell": 2.0, "directions_per_point": 3},
    }
    validate_config(config)
    assert config["plan"] == {"shells": [1], "points_per_shell": 2, "directions_per_point": 3, "seed": 0}
    assert type(config["dimension"]) is type(config["plan"]["points_per_shell"]) is int
    # number arrays and the matched branch of the domain are typed too
    assert type(config["plan"]["shells"][0]) is type(config["domain"]["radius"]) is float
    polydisc = {**copy.deepcopy(config), "dimension": 2,
                "domain": {"type": "polydisc", "center": [[0, 0], [0, 0]], "radii": [1, 2]}}
    polydisc["plan"]["points_per_shell"] = 4
    validate_config(polydisc)
    assert polydisc["domain"]["radii"] == [1.0, 2.0] and set(map(type, polydisc["domain"]["radii"])) == {float}
    thm2 = {**copy.deepcopy(_THM2), "R": 2}
    del thm2["grid_size"], thm2["tol"], thm2["seed"]
    validate_config(thm2)
    assert (thm2["R"], thm2["grid_size"], thm2["tol"], thm2["seed"]) == (2.0, 64, 1e-3, 0)
    assert type(thm2["R"]) is float and type(thm2["sequence"]["j_end"]) is int


def _schema_defaults(schema, prefix=""):
    for key, subschema in schema.get("properties", {}).items():
        if "default" in subschema:
            yield prefix + key, subschema["default"]
        yield from _schema_defaults(subschema, f"{prefix}{key}.")


def test_readme_defaults_table_matches_the_schemas():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("Optional keys and their defaults"):].split("\n\n")[1]
    rows = set()
    for line in table.splitlines()[2:]:  # past the header and its rule
        commands, key, default = (cell.strip() for cell in line.strip("|").split("|"))
        for command in re.findall(r"`([^`]+)`", commands):
            rows.add((command, re.match(r"`([^`]+)`", key).group(1), float(default.strip("`"))))
    expected = {
        (command, path, default)
        for command, schema in SCHEMAS.items()
        for path, default in _schema_defaults(schema)
    }
    assert ("marty-scan", "plan.seed", 0) in expected
    assert rows == expected


def _perfbench(name):
    """A module of the benchmark, `perfbench/<name>.py`, loaded by its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_task_configs_pass_the_schema():
    # the benchmark writes its configs by hand; a schema change that rejects
    # one would make its tasks exit 2, and show only when the benchmark runs
    gen = _perfbench("gen")
    tasks = [task for name in gen.WORKLOADS for task in gen.workload(name, 31)["tasks"]]
    valid = [task["config"] for task in tasks if 2 not in task["expect"]["codes"]]
    assert len(valid) == 116
    for config in valid:
        validate_config(config)
