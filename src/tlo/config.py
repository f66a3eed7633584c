"""Scenario configuration: one JSON document per experiment.

Angles are degrees in the file and radians everywhere else. A document is
checked against the bundled scenario.schema.json itself, the one list of
fields, types and single-value bounds. The code adds only the rules that tie
values to each other, which the schema does not state: array lengths that
follow the link count, 0 < min < max tension, a wire-speed range that
straddles 0, positive link lengths and radii, non-negative masses, arm
ranges with two different ends, relay points in variable mode and arm
ranges in constant mode, and an even population within the budget.

Validation errors carry the JSON path and the line it starts on, so a bad
field in a hand-edited config points straight at the offending line. The
lines come from a walk over the text that only a document failing
validation gets: json's own `scanstring` decodes each key, so a path reads
as in `json.loads`, and its scanner skips each scalar.
"""

from __future__ import annotations

import bisect
import json
import re
import sys
from dataclasses import asdict, dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import NoReturn

import numpy as np

from .arrangement import DesignSpace
from .feasibility import ActuatorLimits, Scenario, TargetSpec
from .model import RobotModel, default_attach_segments


class ConfigError(Exception):
    """Invalid scenario document; message carries JSON path and line."""

    def __init__(self, message: str, path: tuple = (), line: int | None = None):
        self.message = message
        self.path = path
        self.line = line
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
class OptimizerParams:
    population: int = 100
    budget: int = 10000
    seed: int = 0


@dataclass
class ScenarioConfig:
    """Parsed, validated scenario plus the verbatim document for echoing."""

    name: str
    robot: RobotModel
    space: DesignSpace
    limits: ActuatorLimits
    target: TargetSpec
    gravity: bool
    joint_states: np.ndarray  # (S, D) radians
    optimizer: OptimizerParams
    h_cap: float
    raw: dict

    def scenario(self) -> Scenario:
        return Scenario(
            limits=self.limits,
            target=self.target,
            joint_states=self.joint_states,
            gravity=self.gravity,
            h_cap=self.h_cap,
        )


_TYPES = {"object": (dict, "an object"), "array": (list, "an array"), "string": (str, "a string"),
          "integer": (int, "an integer"), "number": ((int, float), "a number")}


@cache
def _scenario_schema() -> dict:
    return json.loads((resources.files("tlo") / "schemas" / "scenario.schema.json").read_text())


def _fail(message: str, path: tuple, lines: dict) -> NoReturn:
    raise ConfigError(message, path, lines.get(path))


def _check(node, schema: dict, path: tuple, lines: dict) -> None:
    """Check node, the value at path, against schema, a part of
    scenario.schema.json; raise ConfigError at the first fault.

    Implements the keywords that file uses. An object schema with properties
    allows no other keys, as the file's additionalProperties: false says of
    each one. Stricter than JSON Schema in three ways: a number must be
    finite (Python's json reads NaN and Infinity) and within float range, a
    bool is never a number, an integer or const 1, and 3.0 is not an integer.
    """
    if "$ref" in schema:
        _check(node, _scenario_schema()["$defs"][schema["$ref"].removeprefix("#/$defs/")],
               path, lines)
    if "type" in schema:
        kind, word = _TYPES[schema["type"]]
        if isinstance(node, bool) or not isinstance(node, kind):
            _fail(f"expected {word}", path, lines)
        if schema["type"] == "number" and not abs(node) <= sys.float_info.max:
            _fail("number must be finite", path, lines)
    if "const" in schema and (isinstance(node, bool) or node != schema["const"]):
        _fail(f"{path[-1]} must be {schema['const']}", path, lines)
    if "enum" in schema and node not in schema["enum"]:
        _fail(f"{path[-1]} must be " + " or ".join(map(repr, schema["enum"])), path, lines)
    if "minimum" in schema and node < schema["minimum"]:
        _fail(f"{path[-1]} must be at least {schema['minimum']}", path, lines)
    if "properties" in schema:
        for key, value in node.items():
            if key not in schema["properties"]:
                _fail("unknown field", path + (key,), lines)
            _check(value, schema["properties"][key], path + (key,), lines)
    for key in schema.get("required", ()):
        if key not in node:
            _fail(f"missing required field {_dotted(path + (key,))}", path, lines)
    if "minItems" in schema and len(node) < schema["minItems"]:
        _fail(f"expected at least {schema['minItems']} items", path, lines)
    if "maxItems" in schema and len(node) > schema["maxItems"]:
        _fail(f"expected at most {schema['maxItems']} items", path, lines)
    if "items" in schema:
        for i, item in enumerate(node):
            _check(item, schema["items"], path + (i,), lines)


def optimizer_params(population: int, budget: int, seed: int,
                     lines: dict | None = None) -> OptimizerParams:
    """Checked optimizer settings; a bad one raises ConfigError at its path."""
    lines = lines or {}
    params = {"population": population, "budget": budget, "seed": seed}
    _check(params, _scenario_schema()["properties"]["optimizer"], ("optimizer",), lines)
    if population % 2:
        _fail("population must be even and at least 2", ("optimizer", "population"), lines)
    if budget < population:
        _fail("budget must be at least the population size", ("optimizer", "budget"), lines)
    return OptimizerParams(**params)


def parse_config(doc: dict, lines: dict | None = None, name: str = "scenario") -> ScenarioConfig:
    """Validate a scenario document; raises ConfigError with path and line.

    scenario.schema.json is the one list of fields, types and single-value
    bounds; the rules here tie values to each other, which it cannot state."""
    lines = lines or {}
    _check(doc, _scenario_schema(), (), lines)
    robot, mode, targets = doc["robot"], doc["mode"], doc["targets"]

    lengths = np.array(robot["link_lengths"], dtype=float)
    if np.any(lengths <= 0):
        _fail("link lengths must be positive", ("robot", "link_lengths"), lines)
    d = len(lengths) - 1
    for key, n, per in (("link_masses", d + 1, "link"), ("attach_segments", d + 1, "link"),
                        ("moment_arm_ranges", d, "joint")):
        if key in robot and len(robot[key]) != n:
            _fail(f"need one item per {per} ({n})", ("robot", key), lines)
    masses = np.array(robot["link_masses"], dtype=float)
    if np.any(masses < 0):
        _fail("masses must be non-negative", ("robot", "link_masses"), lines)
    segs = (np.array(robot["attach_segments"], dtype=float) if "attach_segments" in robot
            else default_attach_segments(lengths))
    gravity_vec = np.array(robot.get("gravity", (0.0, -9.81)), dtype=float)
    arm_ranges = None
    if "moment_arm_ranges" in robot:
        arm_ranges = np.array(robot["moment_arm_ranges"], dtype=float)
        if np.any(arm_ranges[:, 0] == arm_ranges[:, 1]):
            _fail("each range needs two different ends", ("robot", "moment_arm_ranges"), lines)

    kind = mode["kind"]
    if kind == "variable" and "relay_points" not in mode:
        _fail("variable mode requires mode.relay_points", ("mode",), lines)
    if kind == "constant" and arm_ranges is None:
        _fail("constant mode requires robot.moment_arm_ranges", ("robot",), lines)
    space = DesignSpace(kind, mode["wires"], mode["relay_points"] if kind == "variable" else None, d)

    tension, wire_speed = (np.array(doc["limits"][key], dtype=float)
                           for key in ("tension", "wire_speed"))
    if not 0 < tension[0] < tension[1]:
        _fail("need 0 < min < max tension", ("limits", "tension"), lines)
    if not wire_speed[0] < 0 < wire_speed[1]:
        _fail("wire speed range must straddle zero", ("limits", "wire_speed"), lines)
    limits = ActuatorLimits(tension[0], tension[1], wire_speed[0], wire_speed[1])

    force_center, force_radii, velocity_radii = (
        np.array(targets[key], dtype=float)
        for key in ("force_center", "force_radii", "velocity_radii"))
    for key, radii in (("force_radii", force_radii), ("velocity_radii", velocity_radii)):
        if np.any(radii <= 0):
            _fail("radii must be positive", ("targets", key), lines)
    target = TargetSpec(force_center, force_radii, velocity_radii, targets.get("directions", 8))

    for i, state in enumerate(doc["evaluated_joint_states"]):
        if len(state) != d:
            _fail(f"need one angle per joint ({d})", ("evaluated_joint_states", i), lines)

    optimizer = optimizer_params(**{**asdict(OptimizerParams()), **doc.get("optimizer", {})},
                                 lines=lines)
    try:
        robot_model = RobotModel(lengths, masses, segs, gravity_vec, arm_ranges)
    except ValueError as exc:
        _fail(str(exc), ("robot",), lines)

    return ScenarioConfig(
        name=doc.get("name", name),
        robot=robot_model,
        space=space,
        limits=limits,
        target=target,
        gravity=doc["gravity"] == "on",
        joint_states=np.deg2rad(np.array(doc["evaluated_joint_states"], dtype=float)),
        optimizer=optimizer,
        h_cap=float(doc.get("h_cap", 10.0)),
        raw=doc,
    )


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


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a scenario file; only an invalid one is scanned for lines and parsed again."""
    doc, text = read_json(path)
    try:
        return parse_config(doc, name=Path(path).stem)
    except ConfigError:
        return parse_config(doc, json_value_lines(text), name=Path(path).stem)


def load_bundled_scenario(name: str) -> ScenarioConfig:
    return load_config(resources.files("tlo") / "scenarios" / f"{name}.json")
