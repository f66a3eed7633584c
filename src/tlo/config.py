"""The documents tlo reads: scenarios (one per experiment) and designs.

Angles are degrees in a scenario and radians everywhere else. A document is
checked against its bundled schema itself (scenario.schema.json, or the
branch of design.schema.json of the scenario's kind), the one list of its
fields, JSON types and shapes (two numbers to a vector, two ends to an
attach segment). Each bound is stated once, by the code that owns the
value, so a file, a CLI override and a library call read one message. A
rule about a block's own values is stated by the block's constructor, as
a FieldError that `within` reports at the file's path: RobotModel (robot),
DesignSpace (mode), ActuatorLimits (limits), TargetSpec (targets),
OptimizerParams (optimizer), Scenario (the joint states and h_cap) and
Design (a design's wires start on LINK_0, links >= 0, fractions in
[0, 1]). parse_config states the two that tie blocks together, one angle
per joint in each joint state and arm ranges in constant mode, and
parse_design those that tie a design to its scenario: its kind and
counts, links and arm ranges. The schemas state no bound: beside a
design's kind, their only value rules are schema_version and gravity.

Errors carry the JSON path. The line it starts on is looked up once, by
load_document, which read the text, and only for a failing document: json's
own `scanstring` decodes each key, so a path reads as in `json.loads`, and
its scanner skips each scalar.
"""

from __future__ import annotations

import bisect
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .arrangement import Design, DesignSpace
from .feasibility import ActuatorLimits, Scenario, TargetSpec
from .model import FieldError, RobotModel
from .nsga2 import OptimizerParams


class ConfigError(Exception):
    """Invalid input document; message carries JSON path and line."""

    def __init__(self, message: str, path: tuple = (), line: int | None = None):
        self.message = message
        self.path = path
        where = _dotted(path) if path else "document"
        at = f" (line {line})" if line else ""
        super().__init__(f"{where}{at}: {message}")


def _dotted(path: tuple) -> str:
    out = "$"
    for p in path:
        out += f"[{p}]" if isinstance(p, int) else f".{p}"
    return out


# --- JSON path -> line index -------------------------------------------------


_SCAN = json.scanner.make_scanner(json.JSONDecoder())
_WS = json.decoder.WHITESPACE.match


def json_value_lines(text: str) -> dict[tuple, int]:
    """Line number (1-based) where each value of a valid JSON text starts, keyed by path."""
    newlines = [m.start() for m in re.finditer("\n", text)]
    lines: dict[tuple, int] = {}

    def value(i: int, path: tuple) -> int:
        i = _WS(text, i).end()
        lines[path] = bisect.bisect(newlines, i) + 1
        opening = text[i]
        if opening not in "{[":
            return _SCAN(text, i)[1]
        i = _WS(text, i + 1).end()
        k = 0
        while text[i] not in "}]":
            if opening == "{":
                key, i = json.decoder.scanstring(text, i + 1)
                i = value(_WS(text, i).end() + 1, path + (key,))  # past the ':'
            else:
                i = value(i, path + (k,))
                k += 1
            i = _WS(text, i).end()
            if text[i] == ",":
                i = _WS(text, i + 1).end()
        return i + 1

    value(0, ())
    return lines


# --- validated config --------------------------------------------------------


@dataclass
class ScenarioConfig:
    """Parsed, validated scenario plus the verbatim document for echoing."""

    name: str
    robot: RobotModel
    space: DesignSpace
    optimizer: OptimizerParams
    raw: dict
    _scenario: Scenario

    def scenario(self) -> Scenario:
        """The Scenario parse_config built: the same object on every call."""
        return self._scenario


_TYPES = {"object": (dict, "an object"), "array": (list, "an array"), "string": (str, "a string"),
          "integer": (int, "an integer"), "number": ((int, float), "a number")}


@cache
def _schema(name: str) -> dict:
    """The bundled <name>.schema.json."""
    return json.loads((resources.files("tlo") / "schemas" / f"{name}.schema.json").read_text())


def _check(node, schema: dict, path: tuple = (), root: dict | None = None) -> None:
    """Check node, the value at path, against schema, a part of the bundled
    schema root (schema itself by default); raise ConfigError at the first fault.

    Implements the keywords the bundled files use: types and shapes, const
    and enum, and no bound (each is its owner's, see the module docstring).
    An object schema with properties allows no other keys, as the files'
    additionalProperties: false says of each one.
    Stricter than JSON Schema in three ways: a number must be finite
    (Python's json reads NaN and Infinity) and within float range, a bool
    is never a number, an integer or const 1, and 3.0 is not an integer.
    """
    root = schema if root is None else root
    if "$ref" in schema:
        _check(node, root["$defs"][schema["$ref"].removeprefix("#/$defs/")], path, root)
    if "type" in schema:
        kind, word = _TYPES[schema["type"]]
        if isinstance(node, bool) or not isinstance(node, kind):
            raise ConfigError(f"expected {word}", path)
        if schema["type"] == "number" and not abs(node) <= sys.float_info.max:
            raise ConfigError("number must be finite", path)
    if "const" in schema and (isinstance(node, bool) or node != schema["const"]):
        raise ConfigError(f"{path[-1]} must be {schema['const']}", path)
    if "enum" in schema and node not in schema["enum"]:
        raise ConfigError(f"{path[-1]} must be " + " or ".join(map(repr, schema["enum"])), path)
    if "properties" in schema:  # in the schema's order
        for key, value in schema["properties"].items():
            if key in node:
                _check(node[key], value, path + (key,), root)
        for key in node:
            if key not in schema["properties"]:
                raise ConfigError("unknown field", path + (key,))
    for key in schema.get("required", ()):
        if key not in node:
            raise ConfigError(f"missing required field {_dotted(path + (key,))}", path)
    if "minItems" in schema and len(node) < schema["minItems"]:
        raise ConfigError(f"expected at least {schema['minItems']} items", path)
    if "maxItems" in schema and len(node) > schema["maxItems"]:
        raise ConfigError(f"expected at most {schema['maxItems']} items", path)
    if "items" in schema:
        for i, item in enumerate(node):
            _check(item, schema["items"], path + (i,), root)


def _given(node: dict, **keys) -> dict:
    """{parameter: node[key]} for each parameter=key that node sets; the
    constructor's default stands for the others."""
    return {param: node[key] for param, key in keys.items() if key in node}


@contextmanager
def within(section: tuple):
    """Report a FieldError, or the ConfigError of a part, as a ConfigError at section + its path."""
    try:
        yield
    except FieldError as exc:
        raise ConfigError(str(exc), section + exc.path) from None
    except ConfigError as exc:
        raise ConfigError(exc.message, section + exc.path) from None


def parse_config(doc: dict, name: str = "scenario") -> ScenarioConfig:
    """Validate a scenario document; raises ConfigError at its path.

    scenario.schema.json states the fields, types and shapes, and the
    constructors the rules about one block's values (see the module
    docstring); those here tie blocks together."""
    _check(doc, _schema("scenario"))
    robot, mode, limits, targets = doc["robot"], doc["mode"], doc["limits"], doc["targets"]
    with within(("robot",)):  # the schema's robot fields are RobotModel's parameters
        robot_model = RobotModel(**robot)
    d = robot_model.n_joints
    with within(("mode",)):
        space = DesignSpace(mode["kind"], mode["wires"], mode.get("relay_points"), d)
    if space.kind == "constant" and robot_model.moment_arm_ranges is None:
        raise ConfigError("constant mode requires robot.moment_arm_ranges", ("robot",))
    with within(("limits",)):
        actuator_limits = ActuatorLimits(*limits["tension"], *limits["wire_speed"])
    with within(("targets",)):
        target = TargetSpec(targets["force_center"], targets["force_radii"],
                            targets["velocity_radii"], **_given(targets, n_directions="directions"))
    for i, state in enumerate(doc["evaluated_joint_states"]):
        if len(state) != d:
            raise ConfigError(f"need one angle per joint ({d})", ("evaluated_joint_states", i))
    with within(("optimizer",)):
        optimizer = OptimizerParams(**doc.get("optimizer", {}))
    joint_states = np.deg2rad(np.array(doc["evaluated_joint_states"], dtype=float))
    with within(()):  # Scenario states the joint-state and h_cap rules
        scenario = Scenario(actuator_limits, target, joint_states, gravity=doc["gravity"] == "on",
                            **_given(doc, h_cap="h_cap"))
    return ScenarioConfig(doc.get("name", name), robot_model, space, optimizer, doc, scenario)


def parse_design(doc, cfg: ScenarioConfig) -> Design:
    """Validate a design document for cfg's design space; raises ConfigError
    at its path.

    The document is walked against the branch of design.schema.json of the
    config's kind, the one list of that format's fields and types, which
    designs_to_jsonable writes; the rules here tie values to the scenario,
    the wire and relay point counts among them, and Design states the
    bounds of links and fractions."""
    space, robot = cfg.space, cfg.robot
    if isinstance(doc, dict) and doc.get("kind", space.kind) != space.kind:
        raise ConfigError(f"kind must be {space.kind}, the config's mode.kind", ("kind",))
    schema = _schema("design")
    _check(doc, schema["$defs"][space.kind], root=schema)
    key = "wires" if space.kind == "variable" else "arms"
    rows = doc[key]
    if len(rows) != space.n_wires:
        raise ConfigError(f"need {space.n_wires} wires, the config's mode.wires", (key,))
    if space.kind == "constant":
        for i, row in enumerate(rows):
            if len(row) != robot.n_joints:
                raise ConfigError(f"need one arm per joint ({robot.n_joints})", ("arms", i))
        lo, hi = robot.moment_arm_ranges.T
        frac = (np.array(rows, dtype=float) - lo) / (hi - lo)
        outside = np.argwhere((frac < -1e-9) | (frac > 1 + 1e-9))
        if len(outside):
            i, j = outside[0].tolist()
            raise ConfigError(f"arm must lie within the robot's moment_arm_ranges[{j}]",
                              ("arms", i, j))
        return Design(None, np.clip(frac, 0.0, 1.0))
    for m, wire in enumerate(rows):
        if len(wire) != space.n_relay_points:
            raise ConfigError(f"need {space.n_relay_points} relay points, "
                              "the config's mode.relay_points", ("wires", m))
        for n, point in enumerate(wire):
            if point["link"] > robot.n_joints:
                raise ConfigError(f"link must be at most {robot.n_joints}, the robot's last link",
                                  ("wires", m, n, "link"))
    with within(()):  # Design states the LINK_0, link and fraction rules
        return Design([[point["link"] for point in wire] for wire in rows],
                      [[point["frac"] for point in wire] for wire in rows])


def read_json(path: str | Path, what: str = "JSON") -> tuple[object, str]:
    """A JSON file's document and text. The file is decoded as UTF-8, as RFC 8259
    requires, and a leading byte-order mark is ignored, as it allows; bytes that
    do not decode and text that does not parse raise ConfigError ("invalid
    <what>: ...") at their line."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
        return json.loads(text), text
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"invalid {what}: {exc}", (), line) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid {what}: {exc.msg}", (), exc.lineno) from exc


def load_document(path: str | Path, parse: Callable, what: str = "JSON"):
    """parse's result for the document of a JSON file, read by read_json. A
    ConfigError from parse gets the line of its path: only a document that
    fails is scanned for lines, once, here."""
    doc, text = read_json(path, what)
    try:
        return parse(doc)
    except ConfigError as exc:
        raise ConfigError(exc.message, exc.path, json_value_lines(text).get(exc.path)) from None


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file, named after it unless it names itself."""
    return load_document(path, lambda doc: parse_config(doc, name=Path(path).stem))


def load_bundled_scenario(name: str) -> ScenarioConfig:
    return load_config(resources.files("tlo") / "scenarios" / f"{name}.json")
