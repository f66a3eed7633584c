import copy
import json
import random
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlo import config
from tlo.arrangement import Design, DesignSpace
from tlo.cli import main
from tlo.config import (
    ConfigError,
    json_value_lines,
    load_bundled_scenario,
    load_config,
    load_document,
    parse_config,
    parse_design,
)
from tlo.feasibility import ActuatorLimits, Scenario, TargetSpec
from tlo.model import FieldError, RobotModel
from tlo.nsga2 import OptimizerParams

DATA = Path(__file__).parent / "data"
BUNDLED_NAMES = sorted(p.name.removesuffix(".json")
                       for p in (resources.files("tlo") / "scenarios").iterdir()
                       if p.name.endswith(".json"))

MINIMAL = {
    "schema_version": 1,
    "robot": {
        "link_lengths": [0.4, 0.6, 0.6],
        "link_masses": [0.0, 4.0, 4.0],
        "moment_arm_ranges": [[-0.1, 0.1], [-0.1, 0.1]],
    },
    "mode": {"kind": "variable", "wires": 3, "relay_points": 2},
    "limits": {"tension": [10.0, 200.0], "wire_speed": [-0.4, 0.4]},
    "targets": {
        "force_center": [-38.0, 8.0],
        "force_radii": [55.0, 18.0],
        "velocity_radii": [0.8, 0.8],
        "directions": 8,
    },
    "gravity": "off",
    "evaluated_joint_states": [[15, 30], [30, 45], [45, 60], [60, 75]],
    "optimizer": {"population": 40, "budget": 200, "seed": 0},
}


def with_patch(**kwargs):
    doc = json.loads(json.dumps(MINIMAL))
    for dotted, value in kwargs.items():
        node = doc
        parts = dotted.split(".")
        for p in parts[:-1]:
            node = node[p]
        if value is None:
            del node[parts[-1]]
        else:
            node[parts[-1]] = value
    return doc


class TestJsonValueLines:
    def test_nested_paths(self):
        text = '{\n "a": 1,\n "b": {\n  "c": [10,\n 20]\n }\n}'
        lines = json_value_lines(text)
        assert lines[("a",)] == 2
        assert lines[("b", "c")] == 4
        assert lines[("b", "c", 1)] == 5

    def test_strings_with_escapes(self):
        text = '{\n "a": "x\\"y",\n "b": 2\n}'
        lines = json_value_lines(text)
        assert lines[("b",)] == 3


def test_escaped_keys_decode_as_json_loads():
    lines = json_value_lines('{"a\\"b": 1,\n "c": 2}')
    assert lines == {(): 1, ('a"b',): 1, ("c",): 2}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def document_paths(node, path=()):
    """Every JSON path of a decoded document, in document order."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from document_paths(child, path + (key,))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=JSON_VALUES, indent=st.sampled_from([None, 0, 1, 2, 4]),
       separators=st.sampled_from([None, (",", ":"), (", ", ": "), (" ,", " : ")]),
       ensure_ascii=st.booleans())
def test_value_lines_follow_any_dumped_document(doc, indent, separators, ensure_ascii):
    """Escaped and non-ASCII keys, NaN and Infinity, empty containers, any layout."""
    text = json.dumps(doc, indent=indent, separators=separators, ensure_ascii=ensure_ascii)
    lines = json_value_lines(text)
    paths = list(document_paths(json.loads(text)))
    assert len(lines) == len(paths) and set(lines) == set(paths)
    in_order = [lines[p] for p in paths]
    if indent is None:
        assert set(in_order) == {1}
    else:
        assert in_order == sorted(set(in_order))
        assert in_order[-1] <= text.count("\n") + 1


class TestParsing:
    def test_minimal_parses(self):
        cfg = parse_config(MINIMAL)
        assert cfg.space.kind == "variable"
        assert cfg.robot.n_joints == 2
        assert cfg.optimizer.budget == 200
        scenario = cfg.scenario()
        np.testing.assert_allclose(scenario.joint_states[0], np.deg2rad([15, 30]))
        assert scenario.max_objective == 32.0
        assert cfg.scenario() is scenario

    def test_bundled_scenarios_parse(self):
        names = BUNDLED_NAMES
        assert set(names) == {
            "constant_relaxed",
            "target1_grav",
            "target1_nograv",
            "target2_nograv",
        }
        for name in names:
            cfg = load_bundled_scenario(name)
            assert cfg.name == name
            cfg.scenario()

    def test_bundled_scenarios_validate_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        schema = json.loads(
            (resources.files("tlo") / "schemas" / "scenario.schema.json").read_text()
        )
        for name in BUNDLED_NAMES:
            doc = json.loads(
                (resources.files("tlo") / "scenarios" / f"{name}.json").read_text()
            )
            jsonschema.validate(doc, schema)

    def test_round_trip_equivalence(self):
        cfg = parse_config(MINIMAL)
        again = parse_config(cfg.raw)
        assert again.space == cfg.space
        assert again.scenario().gravity == cfg.scenario().gravity
        assert again.optimizer == cfg.optimizer
        np.testing.assert_array_equal(again.robot.link_lengths, cfg.robot.link_lengths)
        np.testing.assert_array_equal(
            again.scenario().target.force_center, cfg.scenario().target.force_center
        )
        for a, b in zip(again.scenario().joint_states, cfg.scenario().joint_states):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "patch, path_fragment",
    [
        (dict(**{"schema_version": 2}), "schema_version"),
        (dict(**{"robot.link_lengths": [0.4]}), "link_lengths"),
        (dict(**{"robot.link_masses": [0.0, 4.0]}), "link_masses"),
        (dict(**{"mode.kind": "magic"}), "mode.kind"),
        (dict(**{"mode.relay_points": 1}), "relay_points"),
        (dict(**{"mode.wires": 0}), "wires"),
        (dict(**{"limits.tension": [0.0, 200.0]}), "tension"),
        (dict(**{"limits.wire_speed": [0.1, 0.4]}), "wire_speed"),
        (dict(**{"targets.force_radii": [0.0, 18.0]}), "force_radii"),
        (dict(**{"targets.directions": 2}), "directions"),
        (dict(**{"gravity": "maybe"}), "gravity"),
        (dict(**{"evaluated_joint_states": []}), "evaluated_joint_states"),
        (dict(**{"evaluated_joint_states": [[15.0]]}), "evaluated_joint_states"),
        (dict(**{"optimizer.population": 3}), "population"),
        (dict(**{"optimizer.budget": 10}), "budget"),
        (dict(**{"h_cap": 0.5}), "h_cap"),
        (dict(**{"targets.force_center": None}), "force_center"),
        # scenario.schema.json allows no fields but its own, at every level
        (dict(**{"optimiser": {"population": 40}}), "optimiser"),
        (dict(**{"targets.direction": 16}), "targets.direction"),
        (dict(**{"h_caps": 5.0}), "h_caps"),
        (dict(**{"robot.mass": 1.0}), "robot.mass"),
        (dict(**{"mode.relay_point": 3}), "mode.relay_point"),
        (dict(**{"limits.torque": [0.0, 1.0]}), "limits.torque"),
        (dict(**{"optimizer.seeds": 3}), "optimizer.seeds"),
        (dict(**{"robot.attach_segments": [[[0.0, 0.0], [0.4, 0.0], [0.2, 0.0]],
                                           [[0.0, 0.0], [0.6, 0.0]],
                                           [[0.0, 0.0], [0.6, 0.0]]]}),
         "robot.attach_segments[0]"),
        (dict(**{"robot.attach_segments": [[[0.0, 0.0], [0.4, 0.0]],
                                           [[0.0, 0.0], [5.0, 0.0]],
                                           [[0.0, 0.0], [0.6, 0.0]]]}),
         "robot.attach_segments[1]"),
    ],
)
def test_validation_failures_include_path(patch, path_fragment):
    doc = with_patch(**patch)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert path_fragment.split(".")[-1] in str(err.value)


# the keywords config._check implements, and those that only annotate
CHECKED_KEYWORDS = {"$ref", "type", "const", "enum", "required", "properties",
                    "additionalProperties", "items", "minItems", "maxItems"}
ANNOTATIONS = {"$schema", "$id", "title", "description", "$defs"}
DESIGN_KINDS = ("variable", "constant")


def schema_nodes(node):
    """Every schema object within a schema: the root, each property's and
    each $defs entry's schema, and each items schema."""
    yield node
    for key in ("properties", "$defs"):
        for child in node.get(key, {}).values():
            yield from schema_nodes(child)
    if "items" in node:
        yield from schema_nodes(node["items"])


def test_check_implements_every_keyword_of_the_schema():
    """A keyword added to a schema file that _check does not know would be
    skipped without notice; this fails first. _check walks the scenario
    schema and each of the design schema's $defs, one per design kind, as
    parse_design walks the one of its config's kind; the design root, a
    oneOf of those $defs, is read by JSON Schema validators alone."""
    design = config._schema("design")
    assert design["oneOf"] == [{"$ref": f"#/$defs/{kind}"} for kind in DESIGN_KINDS]
    assert set(design) - ANNOTATIONS == {"oneOf"} and list(design["$defs"]) == list(DESIGN_KINDS)
    for kind, branch in design["$defs"].items():
        assert branch["properties"]["kind"] == {"const": kind} and "kind" in branch["required"]
    nodes = [*schema_nodes(config._schema("scenario")),
             *(node for branch in design["$defs"].values() for node in schema_nodes(branch))]
    assert set().union(*nodes) <= CHECKED_KEYWORDS | ANNOTATIONS
    # _check reads properties as a closed list of fields
    closed = [node for node in nodes if "properties" in node]
    assert all(node.get("additionalProperties") is False for node in closed)
    assert sum("additionalProperties" in node for node in nodes) == len(closed)
    assert all(node["$ref"].startswith("#/$defs/") for node in nodes if "$ref" in node)


@pytest.mark.parametrize("patch, error", [
    ({"notes": 5}, "$.notes: expected an array"),
    ({"notes": [1]}, "$.notes[0]: expected a string"),
    ({"optimizer": 5}, "$.optimizer: expected an object"),
    ({"robot": []}, "$.robot: expected an object"),
    ({"evaluated_joint_states": {}}, "$.evaluated_joint_states: expected an array"),
    ({"schema_version": True}, "$.schema_version: schema_version must be 1"),
    ({"mode.wires": True}, "$.mode.wires: expected an integer"),
    ({"optimizer.seed": -1}, "$.optimizer.seed: seed must be at least 0"),
    ({"gravity": "yes"}, "$.gravity: gravity must be 'on' or 'off'"),
    ({"limits.tension": [10.0, 200.0, 300.0]}, "$.limits.tension: expected at most 2 items"),
    ({"mode.relay_points": None}, "$.mode: variable mode requires mode.relay_points"),
    ({"limits.tension": None}, "$.limits: missing required field $.limits.tension"),
])
def test_schema_errors_name_the_json_type_at_their_path(patch, error):
    with pytest.raises(ConfigError) as err:
        parse_config(with_patch(**patch))
    assert str(err.value) == error


@pytest.mark.parametrize("path, value", [
    ("h_cap", float("nan")),
    ("h_cap", float("inf")),
    ("targets.force_center", [0.0, float("-inf")]),
    ("robot.link_lengths", [0.4, 0.6, 10**400]),  # an integer beyond float range
    ("optimizer.population", 40.0),
    ("targets.directions", 8.0),
])
def test_stricter_than_json_schema(path, value):
    """Non-finite numbers and integer-valued floats, which JSON Schema would
    accept here, are rejected."""
    jsonschema = pytest.importorskip("jsonschema")
    doc = with_patch(**{path: value})
    jsonschema.Draft202012Validator(config._schema("scenario")).validate(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.path[:2] == tuple(path.split("."))[:2]


SCENARIO_FILES = [*sorted(Path(str(resources.files("tlo") / "scenarios")).glob("*.json")),
                  *sorted(p for p in DATA.glob("*.json")
                          if not p.name.startswith("golden_design"))]
# replacement values: every JSON type, but no non-finite number and no
# integer-valued float, which _check rejects on purpose (see above); numbers
# of either sign and on both sides of 1; known and unknown keys
NUMBERS = [-1, 0, 1, 2, 3, 0.5, -0.25]
STRINGS = ["", "on", "off", "variable", "constant", "x"]
POOL = [None, True, False, *NUMBERS, *STRINGS, [], [0.5, 1.5], [1, 2, 3], [[0.5, 1.5]], ["a"],
        {}, {"a": 1}]
KEYS = ["x", "seeds", "optimiser", "robots", "kind", "directions", "relay_points", "name"]


def containers(node):
    """Every object and array in a document."""
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from containers(child)


def mutate(doc, rng, keys=KEYS):
    """One random change to doc's keys, types, values or item counts, in place."""
    kind = rng.choice((dict, list))  # objects are few: pick the kind first
    node = rng.choice([n for n in containers(doc) if isinstance(n, kind)]
                      or [doc])  # a design can be left with no array
    kind = type(node)
    slots = list(node) if kind is dict else list(range(len(node)))
    move = rng.choice(("add", "drop", "type", "value"))
    if move == "add" and kind is dict:
        node[rng.choice(keys)] = copy.deepcopy(rng.choice(POOL))
    elif move == "add":  # one more item: a copy of one of its own, or any value
        node.append(copy.deepcopy(rng.choice(node + POOL)))
    elif slots and move == "drop":
        del node[rng.choice(slots)]
    elif slots:
        slot = rng.choice(slots)
        old = node[slot]
        if move == "value" and isinstance(old, (int, float)) and not isinstance(old, bool):
            node[slot] = rng.choice(NUMBERS)
        elif move == "value" and isinstance(old, str):
            node[slot] = rng.choice(STRINGS)
        else:
            node[slot] = copy.deepcopy(rng.choice(POOL))


def assert_check_agrees_with_json_schema(name, files, keys=KEYS, runs=200):
    """_check accepts each of runs seeded mutations of each file's document
    exactly when jsonschema does, and names a path that jsonschema reports
    (the parent, for an unknown field). A design is walked against the $defs
    branch of its file's kind, as parse_design walks that of its config's."""
    jsonschema = pytest.importorskip("jsonschema")
    root = config._schema(name)
    rng = random.Random(0)
    seen = {"accepted": 0, "rejected": 0}
    for path in files:
        original = json.loads(path.read_text())
        schema = root["$defs"][original["kind"]] if name == "design" else root
        validator = jsonschema.Draft202012Validator(schema)
        for _ in range(runs):
            doc = json.loads(json.dumps(original))
            for _ in range(rng.randint(1, 3)):
                mutate(doc, rng, keys)
            reported = {tuple(error.absolute_path) for error in validator.iter_errors(doc)}
            try:
                config._check(doc, schema, root=root)
            except ConfigError as err:
                seen["rejected"] += 1
                assert reported, (path.name, doc, str(err))
                at = err.path[:-1] if err.message == "unknown field" else err.path
                assert at in reported, (path.name, str(err), reported)
            else:
                seen["accepted"] += 1
                assert not reported, (path.name, doc)
    assert min(seen.values()) > 100, seen


def test_check_agrees_with_json_schema_on_mutated_scenarios():
    assert_check_agrees_with_json_schema("scenario", SCENARIO_FILES)


DESIGN_FILES = sorted(DATA.glob("golden_design*.json"))


def test_check_agrees_with_json_schema_on_mutated_designs():
    """Both kinds of design, each against its own kind's branch of
    design.schema.json."""
    kinds = {json.loads(path.read_text())["kind"] for path in DESIGN_FILES}
    assert kinds == set(DESIGN_KINDS)
    assert_check_agrees_with_json_schema("design", DESIGN_FILES,
                                         ["x", "kind", "wires", "arms", "link", "frac"], runs=500)


RELAY = {"link": 0, "frac": 0.5}


def design_config(kind: str):
    """MINIMAL with one wire of the given kind (two relay points if variable)."""
    mode = {"kind": kind, "wires": 1, **({"relay_points": 2} if kind == "variable" else {})}
    return parse_config(with_patch(mode=mode))


@pytest.mark.parametrize("doc, error", [
    ({"arms": 5, "kind": "constant"}, "$.arms: expected an array"),
    ({"kind": "constant"}, "document: missing required field $.arms"),
    ({"kind": "constant", "arms": [[0.05, 0.0]], "wires": []}, "$.wires: unknown field"),
    ({"kind": "variable"}, "document: missing required field $.wires"),
    ({"wires": [[RELAY, RELAY]], "kind": "variable", "arms": []}, "$.arms: unknown field"),
    # a schema fault is read before a bound of Design's
    ({"kind": "variable", "wires": [[RELAY, {"link": 1, "frac": 1.5, "x": 0}]]},
     "$.wires[0][1].x: unknown field"),
    ({"kind": "other", "wires": []}, "$.kind: kind must be variable, the config's mode.kind"),
    ([], "document: expected an object"),
])
def test_a_design_error_comes_from_the_branch_of_its_kind(doc, error):
    """parse_design walks the branch of design.schema.json of its config's
    kind, here the kind the document states (variable if it states none of
    the two), wherever the document's keys stand."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    with pytest.raises(ConfigError) as err:
        parse_design(doc, design_config(kind if kind in DESIGN_KINDS else "variable"))
    assert str(err.value) == error


@pytest.mark.parametrize("patch, path, message", [
    ({"robot.link_lengths": [0.4, 0.0, 0.6]}, ("robot", "link_lengths"),
     "link lengths must be positive"),
    ({"robot.link_masses": [0.0, -1.0, 4.0]}, ("robot", "link_masses"),
     "masses must be non-negative"),
    ({"robot.attach_segments": [[[0.0, 0.0], [0.4, 0.0]], [[-0.7, 0.0], [0.6, 0.0]],
                                [[0.0, 0.0], [0.6, 0.0]]]},
     ("robot", "attach_segments", 1), "attach segment extends past link 1 (length 0.6)"),
    ({"limits.tension": [300.0, 200.0]}, ("limits", "tension"), "need 0 < min < max tension"),
    ({"limits.wire_speed": [0.1, 0.4]}, ("limits", "wire_speed"),
     "wire speed range must straddle zero"),
    ({"targets.force_radii": [55.0, 0.0]}, ("targets", "force_radii"), "radii must be positive"),
    ({"targets.velocity_radii": [-0.8, 0.8]}, ("targets", "velocity_radii"),
     "radii must be positive"),
    ({"robot.moment_arm_ranges": [[-0.1, 0.1], [0.05, 0.05]]}, ("robot", "moment_arm_ranges"),
     "each range needs two different ends"),
    ({"robot.link_masses": [0.0, 4.0]}, ("robot", "link_masses"), "need one item per link (3)"),
    ({"robot.attach_segments": [[[0.0, 0.0], [0.4, 0.0]], [[0.0, 0.0], [0.6, 0.0]]]},
     ("robot", "attach_segments"), "need one item per link (3)"),
    ({"robot.moment_arm_ranges": [[-0.1, 0.1]]}, ("robot", "moment_arm_ranges"),
     "need one item per joint (2)"),
])
def test_rule_errors_name_their_path(patch, path, message):
    with pytest.raises(ConfigError) as err:
        parse_config(with_patch(**patch))
    assert (err.value.path, err.value.message) == (path, message)


@pytest.mark.parametrize("build, section, patch", [
    (lambda: RobotModel([0.4, 0.0, 0.6], [0.0, 4.0, 4.0]), ("robot",),
     {"robot.link_lengths": [0.4, 0.0, 0.6]}),
    (lambda: RobotModel([0.4, 0.6, 0.6], [0.0, 4.0]), ("robot",),
     {"robot.link_masses": [0.0, 4.0]}),
    (lambda: RobotModel([0.4, 0.6, 0.6], [0.0, 4.0, 4.0],
                        attach_segments=[[[0.0, 0.0], [0.4, 0.0]], [[-0.7, 0.0], [0.6, 0.0]],
                                         [[0.0, 0.0], [0.6, 0.0]]]),
     ("robot",), {"robot.attach_segments": [[[0.0, 0.0], [0.4, 0.0]], [[-0.7, 0.0], [0.6, 0.0]],
                                            [[0.0, 0.0], [0.6, 0.0]]]}),
    (lambda: ActuatorLimits(0.0, 200.0, -0.4, 0.4), ("limits",),
     {"limits.tension": [0.0, 200.0]}),
    (lambda: ActuatorLimits(10.0, 200.0, 0.1, 0.4), ("limits",),
     {"limits.wire_speed": [0.1, 0.4]}),
    (lambda: TargetSpec([-38.0, 8.0], [55.0, 18.0], [0.8, 0.0]), ("targets",),
     {"targets.velocity_radii": [0.8, 0.0]}),
])
def test_constructor_errors_are_the_files(build, section, patch):
    """RobotModel, ActuatorLimits and TargetSpec state each rule about their
    values once: a library caller gets a FieldError, a ValueError that names
    its field, and a file the same message at the field's JSON path."""
    with pytest.raises(FieldError) as field:
        build()
    assert isinstance(field.value, ValueError)
    with pytest.raises(ConfigError) as err:
        parse_config(with_patch(**patch))
    assert (err.value.path, err.value.message) == (section + field.value.path, str(field.value))


class OwnedBound(NamedTuple):
    """A bound that only the code owning its value states: a bundled scenario,
    the design file on it (None: the scenario is the file), the value's path,
    a value that breaks the bound and its message, the block the owner's
    FieldError path is within, the owner's direct call, given the broken
    document, and the tlo optimize flags that break it (None: none can)."""

    scenario: str
    design: str | None
    path: tuple
    value: object
    message: str
    section: tuple
    owner: Callable
    flags: list | None = None


def design_on(name: str) -> Callable:
    return lambda doc: parse_design(doc, load_bundled_scenario(name))


def design_of(doc: dict) -> Design:
    """The Design of a variable design document, built directly."""
    return Design(*([[point[key] for point in wire] for wire in doc["wires"]]
                    for key in ("link", "frac")))


LIMITS = ActuatorLimits(10.0, 200.0, -0.4, 0.4)
TARGET = TargetSpec([-38.0, 8.0], [55.0, 18.0], [0.8, 0.8])
OWNED_BOUNDS = {
    "mode.wires": OwnedBound(
        "target1_nograv", None, ("mode", "wires"), 0, "need at least one wire", ("mode",),
        lambda doc: DesignSpace("variable", 0, 2, 2)),
    "mode.relay_points": OwnedBound(
        "target1_nograv", None, ("mode", "relay_points"), 1, "relay_points must be at least 2",
        ("mode",), lambda doc: DesignSpace("variable", 3, 1, 2)),
    "constant mode.relay_points": OwnedBound(
        "constant_relaxed", None, ("mode", "relay_points"), 1, "relay_points must be at least 2",
        ("mode",), lambda doc: DesignSpace("constant", 4, 1, 2)),
    "mode.kind": OwnedBound(
        "target1_nograv", None, ("mode", "kind"), "magic", "kind must be 'variable' or 'constant'",
        ("mode",), lambda doc: DesignSpace("magic", 3, 2, 2)),
    "robot.link_lengths": OwnedBound(
        "target1_nograv", None, ("robot", "link_lengths"), [0.4],
        "need LINK_0 plus at least one movable link", ("robot",),
        lambda doc: RobotModel([0.4], [0.0])),
    "targets.directions": OwnedBound(
        "target1_nograv", None, ("targets", "directions"), 2, "need at least 3 ellipse directions",
        ("targets",), lambda doc: TargetSpec([-38.0, 8.0], [55.0, 18.0], [0.8, 0.8], 2)),
    "h_cap": OwnedBound(
        "target1_nograv", None, ("h_cap",), 0.5,
        "h_cap must be finite; below 1 it would distort the objectives", (),
        lambda doc: Scenario(LIMITS, TARGET, np.zeros((1, 2)), h_cap=0.5)),
    "evaluated_joint_states": OwnedBound(
        "target1_nograv", None, ("evaluated_joint_states",), [],
        "joint states must be a finite (S, D) array, S and D at least 1", (),
        lambda doc: Scenario(LIMITS, TARGET, np.zeros((0, 2)))),
    "optimizer.population": OwnedBound(
        "target1_nograv", None, ("optimizer", "population"), 1,
        "population must be even and at least 2", ("optimizer",),
        lambda doc: OptimizerParams(1, 10, 0), ["--population", "1"]),
    "optimizer.budget": OwnedBound(
        "target1_nograv", None, ("optimizer", "budget"), 1,
        "budget must be at least the population size", ("optimizer",),
        lambda doc: OptimizerParams(budget=1), ["--budget", "1"]),
    "optimizer.seed": OwnedBound(
        "target1_nograv", None, ("optimizer", "seed"), -1, "seed must be at least 0",
        ("optimizer",), lambda doc: OptimizerParams(seed=-1), ["--seed", "-1"]),
    "design wires": OwnedBound(
        "target1_nograv", "golden_design.json", ("wires",), [],
        "need 3 wires, the config's mode.wires", (), design_on("target1_nograv")),
    "design wire": OwnedBound(
        "target1_nograv", "golden_design.json", ("wires", 1), [{"link": 0, "frac": 0.5}],
        "need 2 relay points, the config's mode.relay_points", (), design_on("target1_nograv")),
    "design arms": OwnedBound(
        "constant_relaxed", "golden_design_constant.json", ("arms",), [],
        "need 4 wires, the config's mode.wires", (), design_on("constant_relaxed")),
    "design frac above 1": OwnedBound(
        "target1_nograv", "golden_design.json", ("wires", 1, 1, "frac"), 1.5,
        "relay fractions must lie in [0, 1]", (), design_of),
    "design frac below 0": OwnedBound(
        "target1_nograv", "golden_design.json", ("wires", 1, 1, "frac"), -0.1,
        "relay fractions must lie in [0, 1]", (), design_of),
    "design link": OwnedBound(
        "target1_nograv", "golden_design.json", ("wires", 1, 1, "link"), -1,
        "link must be at least 0", (), design_of),
}


@pytest.mark.parametrize("name", OWNED_BOUNDS)
def test_each_bound_reads_one_message_on_every_route(name, tmp_path, capsys):
    """The schemas leave each of these bounds to the code that owns the value:
    a file, parse_design for a design, the owner's direct call and a tlo
    optimize flag read one message at one path, and the file exits 2 naming
    its line, writing nothing."""
    bound = OWNED_BOUNDS[name]
    scenario = resources.files("tlo") / "scenarios" / f"{bound.scenario}.json"
    doc = json.loads((DATA / bound.design if bound.design else scenario).read_text())
    node = doc
    for key in bound.path[:-1]:
        node = node[key]
    node[bound.path[-1]] = "@marker@"  # the line the value starts on, as json.dumps lays it out
    line = next(n for n, row in enumerate(json.dumps(doc, indent=2).splitlines(), 1)
                if "@marker@" in row)
    node[bound.path[-1]] = bound.value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc, indent=2))
    at = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in bound.path)

    with pytest.raises(ConfigError) as err:
        if bound.design:
            load_document(bad, design_on(bound.scenario))
        else:
            load_config(bad)
    assert (err.value.path, str(err.value)) == (bound.path, f"{at} (line {line}): {bound.message}")
    if bound.design:
        with pytest.raises(ConfigError) as err:
            design_on(bound.scenario)(doc)
        assert str(err.value) == f"{at}: {bound.message}"
    with pytest.raises((FieldError, ConfigError)) as err:
        bound.owner(doc)
    owner = getattr(err.value, "message", str(err.value)), bound.section + err.value.path
    assert owner == (bound.message, bound.path)

    out = tmp_path / "out"
    args = (["evaluate", "--config", str(scenario), "--design", str(bad)] if bound.design
            else ["optimize", "--config", str(bad)])
    assert main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {at} (line {line}): {bound.message}\n"
    if bound.flags:
        assert main(["optimize", "--config", str(scenario), "--out", str(out), *bound.flags]) == 2
        assert capsys.readouterr().err == f"config error: {at}: {bound.message}\n"
    assert not out.exists()


@pytest.mark.parametrize("past, allowed", [(0.0, True), (0.5e-9, True), (2e-9, False),
                                           (1e-6, False)])
def test_attach_segment_rule_is_the_robot_models(past, allowed):
    """A segment end just past its link, within RobotModel's tolerance or
    beyond it: a file and a library caller reach the one rule, and get one
    answer and one message."""
    segments = [[[0.0, 0.0], [0.4, 0.0]], [[0.0, 0.0], [0.6, 0.0]], [[0.0, 0.0], [0.6 + past, 0.0]]]
    doc = with_patch(**{"robot.attach_segments": segments})
    if allowed:
        RobotModel([0.4, 0.6, 0.6], [0.0, 4.0, 4.0], attach_segments=segments)
        np.testing.assert_array_equal(parse_config(doc).robot.attach_segments, segments)
    else:
        message = "attach segment extends past link 2 (length 0.6)"
        with pytest.raises(FieldError) as field:
            RobotModel([0.4, 0.6, 0.6], [0.0, 4.0, 4.0], attach_segments=segments)
        assert (field.value.path, str(field.value)) == (("attach_segments", 2), message)
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert (err.value.path, err.value.message) == (("robot", "attach_segments", 2), message)


def test_unset_fields_take_the_constructors_defaults():
    """Gravity, attach segments, directions and h_cap a file leaves out are
    the defaults of RobotModel, TargetSpec and Scenario."""
    doc = with_patch(**{"targets.directions": None})
    assert not {"gravity", "attach_segments"} & doc["robot"].keys() and "h_cap" not in doc
    cfg = parse_config(doc)
    scenario = cfg.scenario()
    model = RobotModel(cfg.robot.link_lengths, cfg.robot.link_masses)
    np.testing.assert_array_equal(cfg.robot.gravity, model.gravity)
    np.testing.assert_array_equal(cfg.robot.attach_segments, model.attach_segments)
    target = TargetSpec(scenario.target.force_center, scenario.target.force_radii,
                        scenario.target.velocity_radii)
    assert scenario.target.n_directions == target.n_directions
    assert scenario.h_cap == Scenario(scenario.limits, target, scenario.joint_states).h_cap
    # and a set value passes through, an integer h_cap as a float
    cfg = parse_config(with_patch(**{"robot.gravity": [1.0, -2.0], "targets.directions": 5,
                                     "h_cap": 4}))
    assert cfg.robot.gravity.tolist() == [1.0, -2.0]
    assert cfg.scenario().target.n_directions == 5
    assert type(cfg.scenario().h_cap) is float and cfg.scenario().h_cap == 4.0


def test_constant_mode_requires_arm_ranges():
    doc = with_patch(**{"robot.moment_arm_ranges": None,
                        "mode": {"kind": "constant", "wires": 4}})
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "moment_arm_ranges" in str(err.value)


def bad_tension_text():
    """An indented document whose tension range is invalid, and that field's line."""
    text = json.dumps(with_patch(**{"limits.tension": [0.0, 200.0]}), indent=2)
    bad_line = next(i + 1 for i, line in enumerate(text.splitlines()) if '"tension"' in line)
    return text, bad_line


class TestFileLoading:
    def test_line_precise_error(self, tmp_path):
        text, bad_line = bad_tension_text()
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert f"line {bad_line}" in str(err.value)

    def test_constructor_error_names_its_line(self, tmp_path):
        """A rule TargetSpec states, broken in an indented file, names the
        field's JSON path and line."""
        text = json.dumps(with_patch(**{"targets.force_radii": [55.0, -18.0]}), indent=2)
        line = next(i + 1 for i, row in enumerate(text.splitlines()) if '"force_radii"' in row)
        path = tmp_path / "bad_radius.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"$.targets.force_radii (line {line}): radii must be positive"

    def test_unknown_field_names_its_line(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["optimiser"] = doc.pop("optimizer")
        text = json.dumps(doc, indent=2)
        line = next(i + 1 for i, row in enumerate(text.splitlines()) if '"optimiser"' in row)
        path = tmp_path / "misspelled.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"$.optimiser (line {line}): unknown field"

    def test_syntax_error_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "schema_version": 1,\n oops\n}')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line 3" in str(err.value)

    def test_non_utf8_bytes_are_a_config_error_at_their_line(self, tmp_path):
        """JSON files are UTF-8 (RFC 8259); a Latin-1 byte fails at its line."""
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{\n "schema_version": 1,\n "notes": "caf\xe9"\n}')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith("document (line 3): invalid JSON: 'utf-8' codec ")

    def test_utf8_bom_is_ignored_and_keeps_error_lines(self, tmp_path):
        """A leading byte-order mark (RFC 8259 lets a parser ignore it) is no
        newline: errors after it keep their lines."""
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(MINIMAL).encode())
        assert load_config(path).raw == MINIMAL
        text, bad_line = bad_tension_text()
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(f"$.limits.tension (line {bad_line}): ")
        path.write_bytes(b'\xef\xbb\xbf{\n "schema_version": 1,\n "notes": "caf\xe9"\n}')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith("document (line 3): invalid JSON: 'utf-8' codec ")

    def test_name_from_filename(self, tmp_path):
        path = tmp_path / "myscenario.json"
        path.write_text(json.dumps(MINIMAL))
        assert load_config(path).name == "myscenario"


def test_escaped_key_keeps_its_line(tmp_path):
    text, bad_line = bad_tension_text()
    escaped = text.replace('"limits"', '"l\\u0069mits"')
    assert json.loads(escaped) == json.loads(text)
    path = tmp_path / "escaped.json"
    path.write_text(escaped)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value).startswith(f"$.limits.tension (line {bad_line}): ")


class TestLazyLineMap:
    """The JSON path -> line map is built only when a document fails validation."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = config.json_value_lines

        def counted(text):
            calls.append(text)
            return scan(text)

        monkeypatch.setattr(config, "json_value_lines", counted)
        return calls

    def test_valid_scenarios_build_no_line_map(self, scans):
        for name in BUNDLED_NAMES:
            load_config(Path(str(resources.files("tlo") / "scenarios" / f"{name}.json")))
            load_bundled_scenario(name)
        assert scans == []

    def test_invalid_document_builds_it_once(self, tmp_path, scans, monkeypatch):
        """load_config parses an invalid document once, then scans its text
        once for the line of the error's path."""
        parses = []
        parse = config.parse_config

        def counted(doc, **kwargs):
            parses.append(doc)
            return parse(doc, **kwargs)

        monkeypatch.setattr(config, "parse_config", counted)
        path = tmp_path / "good.json"
        path.write_text(json.dumps(MINIMAL, indent=2))
        load_config(path)
        assert len(parses) == 1 and scans == []
        text, bad_line = bad_tension_text()
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert len(parses) == 2 and scans == [text]
        assert str(err.value) == f"$.limits.tension (line {bad_line}): need 0 < min < max tension"
