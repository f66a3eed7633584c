"""Scenario configuration: one JSON document per experiment.

Angles are degrees in the file and radians everywhere else. Validation
errors carry the JSON path and the line it starts on, so a bad field in a
hand-edited config points straight at the offending line. The lines come
from a walk over the text that only a document failing validation gets:
json's own `scanstring` decodes each key, so a path reads as in
`json.loads`, and its scanner skips each scalar.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .arrangement import DesignSpace
from .feasibility import ActuatorLimits, Scenario, TargetSpec
from .model import RobotModel, default_attach_segments

SCHEMA_VERSION = 1


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


# the fields of each object of scenario.schema.json, which allows no others
SCHEMA_FIELDS = {
    (): ("schema_version", "name", "notes", "robot", "mode", "limits", "targets", "gravity",
         "evaluated_joint_states", "h_cap", "optimizer"),
    ("robot",): ("link_lengths", "link_masses", "gravity", "attach_segments",
                 "moment_arm_ranges"),
    ("mode",): ("kind", "wires", "relay_points"),
    ("limits",): ("tension", "wire_speed"),
    ("targets",): ("force_center", "force_radii", "velocity_radii", "directions"),
    ("optimizer",): ("population", "budget", "seed"),
}


class _Checker:
    def __init__(self, doc, lines):
        self.doc = doc
        self.lines = lines

    def fail(self, path, msg):
        raise ConfigError(msg, path, self.lines.get(path))

    def get(self, path, kind, required=True, default=None):
        node = self.doc
        for p in path:
            if isinstance(node, dict) and isinstance(p, str) and p in node:
                node = node[p]
            elif isinstance(node, list) and isinstance(p, int) and p < len(node):
                node = node[p]
            else:
                if required:
                    self.fail(path[:-1] if path else (), f"missing required field {_dotted(path)}")
                return default
        if kind is float:
            if isinstance(node, bool) or not isinstance(node, (int, float)):
                self.fail(path, "expected a number")
            if not math.isfinite(node):
                self.fail(path, "number must be finite")
            return float(node)
        if kind is int:
            if isinstance(node, bool) or not isinstance(node, int):
                self.fail(path, "expected an integer")
            return node
        if not isinstance(node, kind):
            self.fail(path, f"expected {kind.__name__}")
        return node

    def items(self, path, n=None, what="numbers"):
        """The paths of the items of the list at path, which must hold n if given."""
        node = self.get(path, list)
        if n is not None and len(node) != n:
            self.fail(path, f"expected {n} {what}")
        return [path + (i,) for i in range(len(node))]

    def vec(self, path, n=None):
        return np.array([self.get(item, float) for item in self.items(path, n)])

    def known(self, path, fields):
        """Reject the keys of the object at path, if it is there, outside fields."""
        for key in self.get(path, dict, required=False, default={}):
            if key not in fields:
                self.fail(path + (key,), "unknown field")


def optimizer_params(population: int, budget: int, seed: int,
                     lines: dict | None = None) -> OptimizerParams:
    """Checked optimizer settings; a bad one raises ConfigError at its path."""
    c = _Checker(None, lines or {})
    if population < 2 or population % 2:
        c.fail(("optimizer", "population"), "population must be even and at least 2")
    if budget < population:
        c.fail(("optimizer", "budget"), "budget must be at least the population size")
    if seed < 0:
        c.fail(("optimizer", "seed"), "seed must be at least 0")
    return OptimizerParams(population, budget, seed)


def parse_config(doc: dict, lines: dict | None = None, name: str = "scenario") -> ScenarioConfig:
    """Validate a scenario document; raises ConfigError with path and line."""
    lines = lines or {}
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    c = _Checker(doc, lines)

    version = c.get(("schema_version",), int)
    if version != SCHEMA_VERSION:
        c.fail(("schema_version",), f"unsupported schema_version {version}, expected {SCHEMA_VERSION}")
    for path, fields in SCHEMA_FIELDS.items():
        c.known(path, fields)
    name = c.get(("name",), str, required=False, default=name)

    lengths = c.vec(("robot", "link_lengths"))
    if len(lengths) < 2:
        c.fail(("robot", "link_lengths"), "need LINK_0 plus at least one movable link")
    if np.any(lengths <= 0):
        c.fail(("robot", "link_lengths"), "link lengths must be positive")
    d = len(lengths) - 1
    masses = c.vec(("robot", "link_masses"), len(lengths))
    if np.any(masses < 0):
        c.fail(("robot", "link_masses"), "masses must be non-negative")

    if "attach_segments" in doc.get("robot", {}):
        segs = np.array([[c.vec(point, 2) for point in c.items(segment, 2, "points")]
                         for segment in c.items(("robot", "attach_segments"))])
        if segs.shape[0] != len(lengths):
            c.fail(("robot", "attach_segments"), f"need one segment per link ({len(lengths)})")
    else:
        segs = default_attach_segments(lengths)

    gravity_vec = (
        c.vec(("robot", "gravity"), 2)
        if "gravity" in doc.get("robot", {})
        else np.array([0.0, -9.81])
    )

    arm_ranges = None
    if "moment_arm_ranges" in doc.get("robot", {}):
        rows = c.get(("robot", "moment_arm_ranges"), list)
        if len(rows) != d:
            c.fail(("robot", "moment_arm_ranges"), f"need one range per joint ({d})")
        arm_ranges = np.array([c.vec(("robot", "moment_arm_ranges", i), 2) for i in range(d)])
        if np.any(arm_ranges[:, 0] == arm_ranges[:, 1]):
            c.fail(("robot", "moment_arm_ranges"), "each range needs two different ends")

    mode_kind = c.get(("mode", "kind"), str)
    if mode_kind not in ("variable", "constant"):
        c.fail(("mode", "kind"), "kind must be 'variable' or 'constant'")
    wires = c.get(("mode", "wires"), int)
    if wires < 1:
        c.fail(("mode", "wires"), "need at least one wire")
    relay_points = None
    if mode_kind == "variable":
        relay_points = c.get(("mode", "relay_points"), int)
        if relay_points < 2:
            c.fail(("mode", "relay_points"), "need at least 2 relay points per wire")
    elif arm_ranges is None:
        c.fail(("robot",), "constant mode requires robot.moment_arm_ranges")
    space = DesignSpace(mode_kind, wires, relay_points, d)

    tension = c.vec(("limits", "tension"), 2)
    if not 0 < tension[0] < tension[1]:
        c.fail(("limits", "tension"), "need 0 < min < max tension")
    wire_speed = c.vec(("limits", "wire_speed"), 2)
    if not wire_speed[0] < 0 < wire_speed[1]:
        c.fail(("limits", "wire_speed"), "wire speed range must straddle zero")
    limits = ActuatorLimits(tension[0], tension[1], wire_speed[0], wire_speed[1])

    force_center = c.vec(("targets", "force_center"), 2)
    force_radii = c.vec(("targets", "force_radii"), 2)
    velocity_radii = c.vec(("targets", "velocity_radii"), 2)
    if np.any(force_radii <= 0):
        c.fail(("targets", "force_radii"), "radii must be positive")
    if np.any(velocity_radii <= 0):
        c.fail(("targets", "velocity_radii"), "radii must be positive")
    directions = c.get(("targets", "directions"), int, required=False, default=8)
    if directions < 3:
        c.fail(("targets", "directions"), "need at least 3 directions")
    target = TargetSpec(force_center, force_radii, velocity_radii, directions)

    gravity_flag = c.get(("gravity",), str)
    if gravity_flag not in ("on", "off"):
        c.fail(("gravity",), "gravity must be 'on' or 'off'")

    states_node = c.get(("evaluated_joint_states",), list)
    if not states_node:
        c.fail(("evaluated_joint_states",), "need at least one joint state")
    joint_states = np.deg2rad([c.vec(("evaluated_joint_states", i), d)
                               for i in range(len(states_node))])

    h_cap = c.get(("h_cap",), float, required=False, default=10.0)
    if h_cap < 1.0:
        c.fail(("h_cap",), "h_cap below 1 would distort the objectives")

    optimizer = optimizer_params(*(c.get(("optimizer", key), int, required=False,
                                         default=getattr(OptimizerParams, key))
                                   for key in ("population", "budget", "seed")), lines)

    try:
        robot = RobotModel(lengths, masses, segs, gravity_vec, arm_ranges)
    except ValueError as exc:
        c.fail(("robot",), str(exc))

    return ScenarioConfig(
        name=name,
        robot=robot,
        space=space,
        limits=limits,
        target=target,
        gravity=gravity_flag == "on",
        joint_states=joint_states,
        optimizer=optimizer,
        h_cap=h_cap,
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
