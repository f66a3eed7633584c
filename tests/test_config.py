import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlo import config
from tlo.config import (
    ConfigError,
    bundled_scenario_names,
    json_value_lines,
    load_bundled_scenario,
    load_config,
    parse_config,
)

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
        np.testing.assert_allclose(cfg.joint_states[0], np.deg2rad([15, 30]))
        scenario = cfg.scenario()
        assert scenario.max_objective == 32.0

    def test_bundled_scenarios_parse(self):
        names = bundled_scenario_names()
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
        for name in bundled_scenario_names():
            doc = json.loads(
                (resources.files("tlo") / "scenarios" / f"{name}.json").read_text()
            )
            jsonschema.validate(doc, schema)

    def test_round_trip_equivalence(self):
        cfg = parse_config(MINIMAL)
        again = parse_config(cfg.raw)
        assert again.space == cfg.space
        assert again.gravity == cfg.gravity
        assert again.optimizer == cfg.optimizer
        np.testing.assert_array_equal(again.robot.link_lengths, cfg.robot.link_lengths)
        np.testing.assert_array_equal(
            again.target.force_center, cfg.target.force_center
        )
        for a, b in zip(again.joint_states, cfg.joint_states):
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
    ],
)
def test_validation_failures_include_path(patch, path_fragment):
    doc = with_patch(**patch)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert path_fragment.split(".")[-1] in str(err.value)


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
        for name in bundled_scenario_names():
            load_config(Path(str(resources.files("tlo") / "scenarios" / f"{name}.json")))
            load_bundled_scenario(name)
        assert scans == []

    def test_invalid_document_builds_it_once(self, tmp_path, scans):
        text, bad_line = bad_tension_text()
        with pytest.raises(ConfigError) as eager:
            parse_config(json.loads(text), json_value_lines(text), name="bad")
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert len(scans) == 1
        assert str(err.value) == str(eager.value)
        assert f"line {bad_line}" in str(err.value)
