import builtins
import csv
import errno
import hashlib
import io
import json
import os
import re
import time
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import tlo.cli
import tlo.feasibility
from conftest import DEFAULT_STATES_DEG
from tlo.arrangement import Design, DesignSpace
from tlo.cli import main, optimize, run_files
from tlo.config import ScenarioConfig, load_config, parse_config
from tlo.model import FieldError
from tlo.nsga2 import OptimizerParams, evolve

SVG_NS = "{http://www.w3.org/2000/svg}"
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


BUNDLED_SCENARIOS = sorted(p.name.removesuffix(".json")
                           for p in (resources.files("tlo") / "scenarios").iterdir()
                           if p.name.endswith(".json"))


def scenario_path(name: str) -> str:
    return str(resources.files("tlo") / "scenarios" / f"{name}.json")


def load_schema_validator(name: str):
    jsonschema = pytest.importorskip("jsonschema")
    from referencing import Registry, Resource

    root = resources.files("tlo") / "schemas"
    registry = Registry()
    for doc in root.iterdir():
        if doc.name.endswith(".json"):
            schema = json.loads(doc.read_text())
            registry = registry.with_resource(
                schema["$id"], Resource.from_contents(schema)
            )
    schema = json.loads((root / f"{name}.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema, registry=registry)


def zero_center_config(tmp_path: Path, **mode) -> Path:
    doc = {
        "schema_version": 1,
        "robot": {
            "link_lengths": [0.4, 0.6, 0.6],
            "link_masses": [0.0, 4.0, 4.0],
            "moment_arm_ranges": [[-0.1, 0.1], [-0.1, 0.1]],
        },
        "mode": mode or {"kind": "variable", "wires": 3, "relay_points": 2},
        "limits": {"tension": [10.0, 200.0], "wire_speed": [-0.4, 0.4]},
        "targets": {
            "force_center": [0.0, 0.0],
            "force_radii": [40.0, 40.0],
            "velocity_radii": [1.0, 1.0],
            "directions": 8,
        },
        "gravity": "off",
        "evaluated_joint_states": DEFAULT_STATES_DEG,
        "optimizer": {"population": 40, "budget": 200, "seed": 0},
    }
    path = tmp_path / "zero_center.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def base_only_design(tmp_path: Path) -> Path:
    doc = {
        "kind": "variable",
        "wires": [
            [{"link": 0, "frac": 0.1}, {"link": 0, "frac": 0.9}],
            [{"link": 0, "frac": 0.3}, {"link": 0, "frac": 0.8}],
            [{"link": 0, "frac": 0.5}, {"link": 0, "frac": 0.7}],
        ],
    }
    path = tmp_path / "base_only.json"
    path.write_text(json.dumps(doc))
    return path


def utf16_copy(text: str, path: Path) -> Path:
    """text as UTF-16 with its byte-order mark, ff fe: what some editors save as "Unicode"."""
    path.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
    return path


def bom_copy(text: str, path: Path) -> Path:
    """text as UTF-8 behind a byte-order mark, ef bb bf, which RFC 8259 lets a parser ignore."""
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    return path


def assert_not_utf8(capsys, what: str) -> None:
    """One config error line for a file whose first byte, 0xff, is not UTF-8."""
    assert capsys.readouterr().err == (
        f"config error: document (line 1): invalid {what}: 'utf-8' codec can't decode "
        "byte 0xff in position 0: invalid start byte\n")


def value_line(doc, path: tuple) -> int:
    """The line where the value at path starts in json.dumps(doc, indent=2):
    the line of a marker put in its place."""
    marked = json.loads(json.dumps(doc))
    node = marked
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@marker@"
    return next(n for n, row in enumerate(json.dumps(marked, indent=2).splitlines(), 1)
                if "@marker@" in row)


def dotted(path: tuple) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


def golden_design(name: str) -> dict:
    return json.loads((DATA / name).read_text())


# design faults: the design file and scenario, a change to the design, and
# the error's path and message
DESIGN_FAULTS = {
    "unknown key": ("golden_design.json", "target1_nograv",
                    lambda d: d["wires"][1][1].update(x=1),
                    ("wires", 1, 1, "x"), "unknown field"),
    "missing frac": ("golden_design.json", "target1_nograv",
                     lambda d: d["wires"][1][0].pop("frac"),
                     ("wires", 1, 0), "missing required field $.wires[1][0].frac"),
    "wire not an array": ("golden_design.json", "target1_nograv",
                          lambda d: d.update(wires=[5]), ("wires", 0), "expected an array"),
    "wire count": ("golden_design.json", "target1_nograv", lambda d: d["wires"].pop(),
                   ("wires",), "need 3 wires, the config's mode.wires"),
    "ragged wire": ("golden_design.json", "target1_nograv",
                    lambda d: d["wires"][1].append({"link": 1, "frac": 0.5}),
                    ("wires", 1), "need 2 relay points, the config's mode.relay_points"),
    "link past the robot": ("golden_design.json", "target1_nograv",
                            lambda d: d["wires"][2][1].update(link=3),
                            ("wires", 2, 1, "link"), "link must be at most 2, the robot's last link"),
    "wire off the base": ("golden_design.json", "target1_nograv",
                          lambda d: d["wires"][0][0].update(link=1),
                          ("wires", 0, 0, "link"), "every wire must start on LINK_0"),
    "arms row": ("golden_design_constant.json", "constant_relaxed",
                 lambda d: d["arms"][1].append(0.0), ("arms", 1), "need one arm per joint (2)"),
    "kind": ("golden_design_constant.json", "target1_nograv", lambda d: None,
             ("kind",), "kind must be variable, the config's mode.kind"),
}


OPTIMIZE_ARTIFACTS = ("samples.csv", "pareto.json", "run_meta.json", "progress.ndjson")


def seeded_config(config: str, population: int, budget: int, seed: int) -> ScenarioConfig:
    """The config at a path with the optimizer settings tlo optimize's overrides give."""
    return replace(load_config(config), optimizer=OptimizerParams(population, budget, seed))


class TestOptimize:
    def test_budget_accounting_and_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["optimize", "--config", scenario_path("target1_nograv"),
             "--out", str(out), "--budget", "40", "--population", "40"]
        )
        assert code == 0
        with (out / "samples.csv").open() as f:
            rows = list(csv.reader(f))
        assert rows[0][:4] == ["index", "feasible", "e_force", "e_velocity"]
        assert len(rows) - 1 == 40
        assert {p.name for p in out.iterdir()} == set(OPTIMIZE_ARTIFACTS)

    def test_failed_write_keeps_previous_samples(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        args = ["optimize", "--config", scenario_path("target1_nograv"),
                "--out", str(out), "--budget", "40", "--population", "40"]
        assert main(args) == 0
        before = {name: (out / name).read_bytes() for name in OPTIMIZE_ARTIFACTS}
        real_evolve = tlo.cli.evolve

        def evolve_with_bad_row(*a, **kw):
            archive = real_evolve(*a, **kw)
            archive.objectives = archive.objectives.astype(object)
            archive.objectives[5, 0] = None  # samples.csv fails on row 5
            return archive

        monkeypatch.setattr(tlo.cli, "evolve", evolve_with_bad_row)
        with pytest.raises(TypeError):
            main(args)
        for name, data in before.items():
            assert (out / name).read_bytes() == data, name
        assert {p.name for p in out.iterdir()} == set(OPTIMIZE_ARTIFACTS)

    def test_interrupted_rerun_keeps_previous_artifacts(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        args = ["optimize", "--config", scenario_path("target1_nograv"),
                "--out", str(out), "--budget", "400", "--population", "40"]
        assert main(args) == 0
        before = {name: (out / name).read_bytes() for name in OPTIMIZE_ARTIFACTS}
        real_make_evaluator = tlo.cli.make_evaluator

        def make_interrupted_evaluator(*a):
            evaluator = real_make_evaluator(*a)
            calls = 0

            def interrupted(designs):
                nonlocal calls
                calls += 1
                if calls == 3:  # the second bred generation
                    raise KeyboardInterrupt
                return evaluator(designs)

            return interrupted

        monkeypatch.setattr(tlo.cli, "make_evaluator", make_interrupted_evaluator)
        with pytest.raises(KeyboardInterrupt):
            main(args + ["--seed", "1"])
        for name, data in before.items():
            assert (out / name).read_bytes() == data, name
        assert {p.name for p in out.iterdir()} == set(OPTIMIZE_ARTIFACTS)

    def test_failed_temp_write_keeps_the_whole_previous_folder(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        args = ["optimize", "--config", scenario_path("target1_nograv"),
                "--out", str(out), "--budget", "400", "--population", "40"]
        assert main(args) == 0
        before = {name: (out / name).read_bytes() for name in OPTIMIZE_ARTIFACTS}
        real_write_bytes = Path.write_bytes

        def write_bytes(path, data):
            if path.name.startswith(".run_meta.json."):  # the last temporary file
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", write_bytes)
        assert main(args + ["--seed", "1"]) == 1
        for name, data in before.items():
            assert (out / name).read_bytes() == data, name
        assert {p.name for p in out.iterdir()} == set(OPTIMIZE_ARTIFACTS)

    # budgets at which some front point is tied by later designs
    @pytest.mark.parametrize("scenario, budget", [("constant_relaxed", 400),
                                                  ("target2_nograv", 2000)])
    def test_front_entry_is_the_earliest_of_its_point(self, tmp_path, scenario, budget):
        out = tmp_path / "run"
        assert main(["optimize", "--config", scenario_path(scenario), "--out", str(out),
                     "--budget", str(budget), "--population", "40"]) == 0
        with (out / "samples.csv").open(newline="") as f:
            rows = [row for row in csv.DictReader(f) if row["feasible"] == "1"]
        front = json.loads((out / "pareto.json").read_text())["front"]
        points = [(entry["e_force"], entry["e_velocity"]) for entry in front]
        assert len(points) == len(set(points))
        for entry, point in zip(front, points):
            at = [row for row in rows
                  if (float(row["e_force"]), float(row["e_velocity"])) == point]
            assert entry["n_designs"] == len(at)
            genome = entry["genome"]
            assert genome["reals"] == [float(at[0][f"real_{i}"]) for i in range(len(genome["reals"]))]
            assert genome["cats"] == [int(at[0][f"cat_{i}"]) for i in range(len(genome["cats"]))]
        assert any(entry["n_designs"] > 1 for entry in front)

    def test_seed_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(
                ["optimize", "--config", scenario_path("target1_nograv"),
                 "--out", str(out), "--budget", "120", "--population", "40",
                 "--seed", "9"]
            )
            outs.append(out)
        assert (outs[0] / "samples.csv").read_bytes() == (outs[1] / "samples.csv").read_bytes()
        assert (outs[0] / "pareto.json").read_bytes() == (outs[1] / "pareto.json").read_bytes()
        meta = [json.loads((o / "run_meta.json").read_text()) for o in outs]
        for m in meta:
            m.pop("timings")
        assert meta[0] == meta[1]

    def test_outputs_validate_against_schemas(self, tmp_path):
        out = tmp_path / "run"
        main(
            ["optimize", "--config", scenario_path("target1_nograv"),
             "--out", str(out), "--budget", "200", "--population", "40"]
        )
        pareto = json.loads((out / "pareto.json").read_text())
        load_schema_validator("pareto").validate(pareto)
        meta = json.loads((out / "run_meta.json").read_text())
        load_schema_validator("run_meta").validate(meta)
        progress_validator = load_schema_validator("progress")
        lines = (out / "progress.ndjson").read_text().splitlines()
        assert len(lines) == meta["generations"] + 1
        for line in lines:
            progress_validator.validate(json.loads(line))

    def test_run_meta_times_the_evaluator_calls(self, tmp_path):
        out = tmp_path / "run"
        assert main(
            ["optimize", "--config", scenario_path("target2_nograv"),
             "--out", str(out), "--budget", "200", "--population", "40"]
        ) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        load_schema_validator("run_meta").validate(meta)
        timings = meta["timings"]
        assert 0 < timings["evaluate_s"] <= timings["total_s"]

    def test_config_echo_round_trips(self, tmp_path):
        out = tmp_path / "run"
        main(
            ["optimize", "--config", scenario_path("target1_nograv"),
             "--out", str(out), "--budget", "60", "--population", "20", "--seed", "4"]
        )
        meta = json.loads((out / "run_meta.json").read_text())
        echoed = parse_config(meta["config"])
        assert echoed.optimizer.budget == 60
        assert echoed.optimizer.population == 20
        assert echoed.optimizer.seed == 4
        assert echoed.space.kind == "variable"
        assert meta["evaluation_count"] == 60
        assert meta["n_feasible"] + meta["n_pruned"] == 60

    def test_default_scenario_front_reaches_zero_velocity(self, tmp_path):
        out = tmp_path / "run"
        main(
            ["optimize", "--config", scenario_path("target1_nograv"),
             "--out", str(out), "--budget", "2000", "--population", "40", "--seed", "0"]
        )
        front = json.loads((out / "pareto.json").read_text())["front"]
        assert any(entry["e_velocity"] == 0.0 for entry in front)

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = json.loads(Path(scenario_path("target1_nograv")).read_text())
        doc["limits"]["tension"] = [300.0, 200.0]
        bad.write_text(json.dumps(doc, indent=2))
        assert main(["optimize", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_exits_1(self, tmp_path):
        assert main(
            ["optimize", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        ) == 1

    def test_odd_population_exits_2(self, tmp_path, capsys):
        assert main(
            ["optimize", "--config", scenario_path("target1_nograv"),
             "--out", str(tmp_path / "x"), "--population", "41", "--budget", "82"]
        ) == 2
        assert capsys.readouterr().err == (
            "config error: $.optimizer.population: population must be even and at least 2\n")

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert main(
            ["optimize", "--config", scenario_path("target1_nograv"),
             "--out", str(tmp_path / "x"), "--seed", "-1"]
        ) == 2
        assert capsys.readouterr().err == "config error: $.optimizer.seed: seed must be at least 0\n"
        assert not (tmp_path / "x").exists()

    def test_negative_scenario_seed_exits_2_at_its_line(self, tmp_path, capsys):
        doc = json.loads(Path(scenario_path("target1_nograv")).read_text())
        doc["optimizer"]["seed"] = -3
        text = json.dumps(doc, indent=2)
        seed_line = next(i + 1 for i, line in enumerate(text.splitlines()) if '"seed"' in line)
        bad = tmp_path / "negative_seed.json"
        bad.write_text(text)
        assert main(["optimize", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            f"config error: $.optimizer.seed (line {seed_line}): seed must be at least 0\n")

    def test_zero_width_arm_range_exits_2_at_its_line(self, tmp_path, capsys):
        """Both ends equal would give the search a gene that changes nothing,
        and evaluate could not map the arms of its designs back to fractions."""
        doc = json.loads(Path(scenario_path("constant_relaxed")).read_text())
        doc["robot"]["moment_arm_ranges"] = [[-0.4, 0.4], [0.05, 0.05]]
        text = json.dumps(doc, indent=2)
        line = next(i + 1 for i, row in enumerate(text.splitlines()) if '"moment_arm_ranges"' in row)
        bad = tmp_path / "zero_width.json"
        bad.write_text(text)
        assert main(["optimize", "--config", str(bad), "--out", str(tmp_path / "x"),
                     "--budget", "200", "--population", "20"]) == 2
        assert capsys.readouterr().err == (
            f"config error: $.robot.moment_arm_ranges (line {line}): "
            "each range needs two different ends\n")
        assert not (tmp_path / "x").exists()

    def test_budget_below_population_exits_2(self, tmp_path, capsys):
        assert main(
            ["optimize", "--config", scenario_path("target1_nograv"),
             "--out", str(tmp_path / "x"), "--population", "40", "--budget", "20"]
        ) == 2
        assert capsys.readouterr().err == (
            "config error: $.optimizer.budget: budget must be at least the population size\n")

    def test_utf16_config_exits_2(self, tmp_path, capsys):
        config = utf16_copy(Path(scenario_path("target2_nograv")).read_text(),
                            tmp_path / "utf16.json")
        assert main(["optimize", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert_not_utf8(capsys, "JSON")
        assert not (tmp_path / "x").exists()

    def test_utf8_bom_config_runs_as_the_plain_file(self, tmp_path):
        plain = Path(scenario_path("target2_nograv"))
        config = bom_copy(plain.read_text(), tmp_path / "bom" / plain.name)
        for path, out in ((plain, "run-plain"), (config, "run-bom")):
            assert main(["optimize", "--config", str(path), "--out", str(tmp_path / out),
                         "--budget", "40", "--population", "20", "--seed", "0"]) == 0
        for name in ("samples.csv", "pareto.json", "progress.ndjson"):
            assert (tmp_path / "run-bom" / name).read_bytes() == (
                tmp_path / "run-plain" / name).read_bytes()


def search(population, budget, seed):
    """evolve on a toy space with these settings; each rule fails it before any evaluation."""
    return evolve(None, DesignSpace("constant", 1, None, 2), population, budget, seed, 1.0)


# each rule about a block's own values that its constructor states: the
# message, the section of a file the constructor's path is within, a file
# (a scenario, or a design for target1_nograv) with a change that breaks
# it at a path, the tlo optimize overrides that break it (None: none can),
# and library calls that break it
CONSTRUCTOR_RULES = {
    "odd population": (
        "population must be even and at least 2", ("optimizer",),
        "scenario", lambda d: d["optimizer"].update(population=41, budget=82),
        ("optimizer", "population"), ["--population", "41", "--budget", "82"],
        [lambda: OptimizerParams(41, 82, 0), lambda: search(41, 82, 0), lambda: search(0, 0, 0)]),
    "budget below population": (
        "budget must be at least the population size", ("optimizer",),
        "scenario", lambda d: d["optimizer"].update(population=40, budget=20),
        ("optimizer", "budget"), ["--population", "40", "--budget", "20"],
        [lambda: OptimizerParams(40, 20, 0), lambda: search(40, 20, 0)]),
    "negative seed": (
        "seed must be at least 0", ("optimizer",),
        "scenario", lambda d: d["optimizer"].update(seed=-1),
        ("optimizer", "seed"), ["--seed", "-1"],
        [lambda: OptimizerParams(seed=-1), lambda: search(40, 200, -1)]),
    "float population": (
        "expected an integer", ("optimizer",),
        "scenario", lambda d: d["optimizer"].update(population=40.0),
        ("optimizer", "population"), None,
        [lambda: OptimizerParams(40.0), lambda: OptimizerParams(True),
         lambda: search(40.0, 200, 0)]),
    "no relay points": (
        "variable mode requires mode.relay_points", ("mode",),
        "scenario", lambda d: d["mode"].pop("relay_points"), ("mode",), None,
        [lambda: DesignSpace("variable", 3, None, 2)]),
    "wire off the base": (
        "every wire must start on LINK_0", (),
        "design", lambda d: d["wires"][1][0].update(link=2), ("wires", 1, 0, "link"), None,
        [lambda: Design([[0, 1], [2, 1]], [[0.5, 0.5], [0.5, 0.5]]),
         lambda: Design([[[0, 1], [0, 1]], [[0, 1], [2, 1]]], np.full((2, 2, 2), 0.5))]),
}


@pytest.mark.parametrize("rule", CONSTRUCTOR_RULES)
def test_constructor_rule_reads_the_same_on_every_route(tmp_path, capsys, rule):
    """A file names the rule's path and line, an override its path, and a
    library caller gets a FieldError at the path within the section."""
    message, section, kind, change, path, overrides, calls = CONSTRUCTOR_RULES[rule]
    out = tmp_path / "out"
    doc = json.loads((Path(scenario_path("target1_nograv")) if kind == "scenario"
                      else DATA / "golden_design.json").read_text())
    change(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc, indent=2))
    args = (["optimize", "--config", str(bad)] if kind == "scenario" else
            ["evaluate", "--config", scenario_path("target1_nograv"), "--design", str(bad)])
    assert main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {dotted(path)} (line {value_line(doc, path)}): {message}\n")
    if overrides is not None:
        assert main(["optimize", "--config", scenario_path("target1_nograv"),
                     "--out", str(out), *overrides]) == 2
        assert capsys.readouterr().err == f"config error: {dotted(path)}: {message}\n"
    assert not out.exists()
    for call in calls:
        with pytest.raises(FieldError) as err:
            call()
        assert (str(err.value), section + err.value.path) == (message, path)


GOLDEN_RUNS = json.loads((GOLDEN / "optimize_digests.json").read_text())["runs"]


@pytest.mark.parametrize("run", GOLDEN_RUNS, ids=[r.get("id") or r["scenario"] for r in GOLDEN_RUNS])
def test_seeded_optimize_matches_golden_digests(run, tmp_path):
    """Seeded artifacts keep their bytes across commits, not only across reruns.

    The digests change only with the maths, the random draws (the blocks
    listed in the tlo.nsga2 docstring) or the artifact text format
    (cli._json_text writes pareto.json); regenerate them deliberately and
    say why in CHANGES.md. Later designs tie the constant_relaxed run's front
    points, so it also pins the front's tie rule: the earliest design of
    each point, and n_designs. The runs constant_relaxed_cut_front and
    target2_nograv_partial_generation end in a partial generation;
    constant_relaxed_cut_front (no cat genes, population 100) cuts survivors
    inside a front by crowding distance. three_joint, a config path rather
    than a bundled scenario, is a D = 3 robot: its force h comes from the
    zonotope clip, its velocity h from the LP-dual clip. three_joint_straight
    puts the straight arm, where J has rank 1, between two bent states, so
    the dual clip's rank-1 branch and a pass that stacks both ranks run too.
    three_joint_constant sends one state-independent G, (1, P, M, 3), through
    the velocity kernel's broadcast over the states; two_joint_straight puts
    a straight two-joint arm (rank-1 J, dual clip) before a bent one (J^-1 w),
    so that one velocity pass runs both kernels. two_joint_ten_wires has
    ten wires of three points: numpy adds the force kernel's sums over 8 or
    more wires pairwise, so it pins the order of those sums. three_joint_grav
    is the D = 3 robot with gravity on: its force rays leave a gravity
    center whose least-squares fit leaves a residual well above 0.
    target1_nograv_screen (budget = population = 500, seed 1000) is the
    first command of the screen_variable benchmark workload at workload
    seed 1: a random generation only, 500 genomes with cats, so it pins
    the initial population's block decode at scale.
    """
    out = tmp_path / "run"
    config = (str(Path(__file__).parents[1] / run["config"]) if "config" in run
              else scenario_path(run["scenario"]))
    code = main(
        ["optimize", "--config", config, "--out", str(out),
         "--budget", str(run["budget"]), "--population", str(run["population"]),
         "--seed", str(run["seed"])]
    )
    assert code == 0
    for name, digest in run["sha256"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    # the same run in-process, with no argparse and no disk: given main's
    # timings, run_files returns the bytes main wrote, run_meta.json included
    cfg = seeded_config(config, run["population"], run["budget"], run["seed"])
    archive, _ = optimize(cfg)
    timings = json.loads((out / "run_meta.json").read_text())["timings"]
    files = run_files(archive, cfg, timings)
    for name, digest in run["sha256"].items():
        assert hashlib.sha256(files[name].encode()).hexdigest() == digest, name
    assert {name: text.encode() for name, text in files.items()} == {
        name: (out / name).read_bytes() for name in OPTIMIZE_ARTIFACTS}


def test_run_files_reads_no_clock_and_no_file(monkeypatch):
    cfg = seeded_config(scenario_path("target2_nograv"), 20, 200, 0)
    archive, timings = optimize(cfg)
    assert timings.keys() == {"total_s", "evaluate_s"}
    fixed = {"total_s": 1.5, "evaluate_s": 0.25}

    def refuse(*args, **kwargs):
        raise AssertionError("run_files read a clock or a file")

    with monkeypatch.context() as m:
        for name in ("time", "perf_counter", "monotonic", "process_time"):
            m.setattr(time, name, refuse)
        m.setattr(builtins, "open", refuse)
        m.setattr(io, "open", refuse)
        first, second = run_files(archive, cfg, fixed), run_files(archive, cfg, fixed)
    assert list(first) == ["samples.csv", "pareto.json", "progress.ndjson", "run_meta.json"]
    assert first == second
    assert json.loads(first["run_meta.json"])["timings"] == fixed


def test_samples_csv_writes_each_float_by_its_repr():
    """run_files formats each distinct float once, keyed by its bits: the
    rows are csv.writer's rows of every value's repr, -0.0 kept apart from
    0.0 and repeated values written alike."""
    cfg = seeded_config(scenario_path("target2_nograv"), 20, 40, 0)
    archive, timings = optimize(cfg)
    archive.reals[0, :2] = -0.0, 0.0
    archive.reals[1, :2] = 0.0, -0.0
    archive.objectives[2] = -0.0, 0.0
    archive.reals[3] = archive.reals[4]
    expected = io.StringIO()
    writer = csv.writer(expected)
    for i in range(archive.evaluation_count):
        writer.writerow([i, int(archive.feasible[i]),
                         *map(repr, archive.objectives[i].tolist()),
                         *map(repr, archive.reals[i].tolist()), *archive.cats[i].tolist()])
    header, rows = run_files(archive, cfg, timings)["samples.csv"].split("\r\n", 1)
    assert rows == expected.getvalue()
    assert rows.split("\r\n")[0].split(",")[4:6] == ["-0.0", "0.0"]


def test_n_designs_counts_ties_by_float_value():
    """Each front entry's n_designs is the Counter of the feasible rows'
    objective pairs at its point: -0.0 ties with 0.0, and pruned rows do
    not count."""
    cfg = seeded_config(scenario_path("constant_relaxed"), 40, 400, 0)
    archive, timings = optimize(cfg)
    rows = np.flatnonzero(archive.feasible)
    pruned = np.flatnonzero(~archive.feasible)
    archive.objectives[rows[:4]] = [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0]]
    archive.objectives[rows[4:7]] = [[-0.0, 1.5], [0.0, 1.5], [1.5, 0.0]]
    archive.objectives[pruned[:2]] = [[0.0, 0.0], [1.5, -0.0]]
    archive.front_indices = np.concatenate((rows[[1, 5, 6]], archive.front_indices))
    ties = Counter(map(tuple, archive.objectives[archive.feasible].tolist()))
    front = json.loads(run_files(archive, cfg, timings)["pareto.json"])["front"]
    counts = [entry["n_designs"] for entry in front]
    points = map(tuple, archive.objectives[archive.front_indices].tolist())
    assert counts == [ties[point] for point in points]
    assert counts[:3] == [4, 2, 1]


class TestEvaluate:
    def test_base_only_design_scores_exactly(self, tmp_path):
        cfg = zero_center_config(tmp_path)
        design = base_only_design(tmp_path)
        out = tmp_path / "eval"
        assert main(
            ["evaluate", "--config", str(cfg), "--design", str(design), "--out", str(out)]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["feasible"] is True
        assert report["e_force"] == 32.0
        assert report["e_velocity"] == 0.0
        assert len(report["per_state"]) == 4
        load_schema_validator("report").validate(report)

    def test_each_state_built_once_and_polygons_in_one_pass(self, tmp_path, monkeypatch):
        # every state_tables call builds one StateTables, whoever calls it:
        # one stack of every state, whose gravity centers are one solve from
        # its J and gravity torque
        counts = Counter()

        def counted(name):
            function = getattr(tlo.feasibility, name)

            def call(*args):
                counts[name] += 1
                return function(*args)

            monkeypatch.setattr(tlo.feasibility, name, call)

        kernels = ("_stack", "batch_muscle_jacobian", "_force_h", "_velocity_h")
        for name in ("StateTables", "_holding_force", *kernels):
            counted(name)
        assert main(
            ["evaluate", "--config", scenario_path("target1_grav"),
             "--design", str(DATA / "golden_design_grav.json"), "--out", str(tmp_path)]
        ) == 0
        # two states in one stack, and one pass over them that scores the
        # ellipse directions and traces both polygons' rays
        assert counts == {"StateTables": 1, "_holding_force": 1, **dict.fromkeys(kernels, 1)}

    def test_three_joint_gravity_report_keeps_its_bytes(self, tmp_path):
        # the first front design of the three_joint_grav golden run (budget
        # 400, population 40, seed 0); its gravity center residuals are 1.506
        # and 0.115, where two-joint gravity configs have about 0
        assert main(
            ["evaluate", "--config", str(DATA / "three_joint_grav.json"),
             "--design", str(DATA / "golden_design_three_joint_grav.json"), "--out", str(tmp_path)]
        ) == 0
        report = (tmp_path / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == (
            "26f84f1100e8f42239dab2ced7a64105c1679c1d66bdb9097731183d9d4a2701")
        residuals = [s["gravity_center_residual"] for s in json.loads(report)["per_state"]]
        assert residuals == [pytest.approx(1.506, abs=1e-3), pytest.approx(0.115, abs=1e-3)]

    def test_infeasible_design_reports_false(self, tmp_path):
        cfg_doc = json.loads(zero_center_config(tmp_path).read_text())
        cfg_doc["gravity"] = "on"
        cfg_doc["mode"] = {"kind": "variable", "wires": 1, "relay_points": 2}
        cfg = tmp_path / "grav.json"
        cfg.write_text(json.dumps(cfg_doc))
        design = tmp_path / "one_wire.json"
        design.write_text(json.dumps(
            {"kind": "variable",
             "wires": [[{"link": 0, "frac": 0.1}, {"link": 0, "frac": 0.9}]]}
        ))
        out = tmp_path / "eval"
        assert main(
            ["evaluate", "--config", str(cfg), "--design", str(design), "--out", str(out)]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["feasible"] is False
        assert report.get("per_state") is None
        assert report["e_force"] is None
        load_schema_validator("report").validate(report)
        assert main(["plot", str(out / "report.json"), "--out", str(out / "plots")]) == 0
        assert [p.name for p in (out / "plots").iterdir()] == ["arrangement.svg"]

    def test_dimension_mismatch_exits_2(self, tmp_path):
        cfg = zero_center_config(tmp_path)  # expects M=3
        design = tmp_path / "two_wires.json"
        design.write_text(json.dumps(
            {"kind": "variable",
             "wires": [[{"link": 0, "frac": 0.0}, {"link": 1, "frac": 0.5}]] * 2}
        ))
        assert main(
            ["evaluate", "--config", str(cfg), "--design", str(design),
             "--out", str(tmp_path / "x")]
        ) == 2

    def test_too_few_rays_exits_2(self, tmp_path):
        out = tmp_path / "eval"
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--config", str(zero_center_config(tmp_path)),
                  "--design", str(base_only_design(tmp_path)), "--out", str(out),
                  "--rays", "4"])
        assert exc.value.code == 2
        assert not (out / "report.json").exists()

    def test_failed_write_keeps_previous_report(self, tmp_path, monkeypatch):
        out = tmp_path / "eval"
        args = ["evaluate", "--config", str(zero_center_config(tmp_path)),
                "--design", str(base_only_design(tmp_path)), "--out", str(out)]
        assert main(args) == 0
        before = (out / "report.json").read_bytes()
        # "design" and "e_force" serialize before e_velocity fails
        evaluate = tlo.cli.evaluate
        monkeypatch.setattr(tlo.cli, "evaluate",
                            lambda *a, **k: replace(evaluate(*a, **k), e_velocity=object()))
        with pytest.raises(TypeError, match="not JSON serializable"):
            main(args)
        assert (out / "report.json").read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["report.json"]

    def test_rerun_leaves_identical_artifacts_in_place(self, tmp_path, monkeypatch):
        cfg = zero_center_config(tmp_path)
        out = tmp_path / "eval"
        evaluate = ["evaluate", "--config", str(cfg),
                    "--design", str(base_only_design(tmp_path)), "--out", str(out)]
        plot = ["plot", str(out / "report.json"), "--out", str(out / "plots")]
        assert main(evaluate) == 0 and main(plot) == 0
        svgs = {p.name: p.read_bytes() for p in (out / "plots").iterdir()}
        replaced = []
        real_replace = os.replace

        def replace(src, dst):
            replaced.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(tlo.cli.os, "replace", replace)
        assert main(evaluate) == 0 and main(plot) == 0
        assert replaced == []
        doc = json.loads(cfg.read_text())
        doc["targets"]["force_radii"] = [50.0, 50.0]
        cfg.write_text(json.dumps(doc))
        assert main(evaluate) == 0
        assert replaced == ["report.json"]
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["targets"]["force_radii"] == [50.0, 50.0]
        assert main(plot) == 0
        changed = {name for name, data in svgs.items() if (out / "plots" / name).read_bytes() != data}
        assert changed and sorted(replaced[1:]) == sorted(changed)
        assert sorted(p.name for p in out.iterdir()) == ["plots", "report.json"]
        assert sorted(p.name for p in (out / "plots").iterdir()) == sorted(svgs)

    def test_non_object_design_exits_2(self, tmp_path, capsys):
        design = tmp_path / "list.json"
        design.write_text("[1, 2]")
        assert main(
            ["evaluate", "--config", str(zero_center_config(tmp_path)),
             "--design", str(design), "--out", str(tmp_path / "x")]
        ) == 2
        assert "config error:" in capsys.readouterr().err

    def test_utf16_design_exits_2(self, tmp_path, capsys):
        design = utf16_copy(base_only_design(tmp_path).read_text(), tmp_path / "utf16.json")
        assert main(
            ["evaluate", "--config", str(zero_center_config(tmp_path)),
             "--design", str(design), "--out", str(tmp_path / "x")]
        ) == 2
        assert_not_utf8(capsys, "design JSON")
        assert not (tmp_path / "x").exists()

    def test_utf8_bom_design_evaluates_as_the_plain_file(self, tmp_path):
        plain = base_only_design(tmp_path)
        design = bom_copy(plain.read_text(), tmp_path / "bom" / plain.name)
        config = zero_center_config(tmp_path)
        for path, out in ((plain, "eval-plain"), (design, "eval-bom")):
            assert main(["evaluate", "--config", str(config), "--design", str(path),
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "eval-bom" / "report.json").read_bytes() == (
            tmp_path / "eval-plain" / "report.json").read_bytes()

    @pytest.mark.parametrize("key, value", [
        ("link", 1.9), ("link", True), ("frac", "0.5"), ("frac", False),
    ])
    def test_relay_number_of_the_wrong_type_exits_2(self, tmp_path, capsys, key, value):
        doc = json.loads(base_only_design(tmp_path).read_text())
        doc["wires"][1][1][key] = value
        design = tmp_path / "typed.json"
        design.write_text(json.dumps(doc))
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", str(zero_center_config(tmp_path)),
                     "--design", str(design), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_non_finite_arms_exit_2(self, tmp_path, capsys):
        design = tmp_path / "nan_arms.json"
        design.write_text(json.dumps(
            {"kind": "constant", "arms": [[0.1, 0.0], [-0.1, float("nan")], [0.0, 0.1], [0.0, -0.1]]}
        ))
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", scenario_path("constant_relaxed"),
                     "--design", str(design), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("point", [False, True], ids=["top", "relay point"])
    def test_unknown_design_key_exits_2(self, tmp_path, capsys, point):
        doc = json.loads(base_only_design(tmp_path).read_text())
        key = "x" if point else "extra"
        (doc["wires"][1][1] if point else doc)[key] = 1
        design = tmp_path / "unknown.json"
        design.write_text(json.dumps(doc))
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", str(zero_center_config(tmp_path)),
                     "--design", str(design), "--out", str(out)]) == 2
        path = "$.wires[1][1].x" if point else "$.extra"
        assert capsys.readouterr().err == f"config error: {path} (line 1): unknown field\n"
        assert not out.exists()

    @pytest.mark.parametrize("fault", DESIGN_FAULTS)
    def test_design_error_names_its_path_and_line(self, tmp_path, capsys, fault):
        name, scenario, change, path, message = DESIGN_FAULTS[fault]
        doc = golden_design(name)
        change(doc)
        design = tmp_path / "design.json"
        design.write_text(json.dumps(doc, indent=2))
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", scenario_path(scenario),
                     "--design", str(design), "--out", str(out)]) == 2
        line = value_line(doc, path)
        assert line > 1
        assert capsys.readouterr().err == (
            f"config error: {dotted(path)} (line {line}): {message}\n")
        assert not out.exists()

    def test_ragged_design_exits_2(self, tmp_path, capsys):
        # target1_nograv has 2 relay points per wire; wire 1 has 3 here
        doc = json.loads((DATA / "golden_design.json").read_text())
        doc["wires"][1].append({"link": 1, "frac": 0.5})
        design = tmp_path / "ragged.json"
        design.write_text(json.dumps(doc))
        out = tmp_path / "eval"
        assert main(["evaluate", "--config", scenario_path("target1_nograv"),
                     "--design", str(design), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_constant_h_matches_oracle_within_tolerance(self, tmp_path):
        from tlo.arrangement import muscle_jacobian
        from tlo.config import load_config
        from tlo.model import joint_jacobian
        from tlo.oracle import force_polytope_exact, ray_h

        cfg_doc = json.loads(zero_center_config(tmp_path).read_text())
        cfg_doc["mode"] = {"kind": "constant", "wires": 4}
        cfg_path = tmp_path / "const.json"
        cfg_path.write_text(json.dumps(cfg_doc))
        design = tmp_path / "const_design.json"
        design.write_text(json.dumps(
            {"kind": "constant",
             "arms": [[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1], [0.0, -0.1]]}
        ))
        out = tmp_path / "eval"
        assert main(
            ["evaluate", "--config", str(cfg_path), "--design", str(design),
             "--out", str(out)]
        ) == 0
        report = json.loads((out / "report.json").read_text())
        cfg = load_config(cfg_path)
        from tlo.config import parse_design
        from tlo.feasibility import force_directions

        arrangement = parse_design(report["design"], cfg)
        scenario = cfg.scenario()
        wf = force_directions(scenario.target)
        for state in report["per_state"]:
            q = np.deg2rad(state["theta_deg"])
            G = muscle_jacobian(cfg.robot, arrangement, q)
            J = joint_jacobian(cfg.robot, q)
            poly = force_polytope_exact(G, J, scenario.limits.f_min, scenario.limits.f_max)
            for i, h in enumerate(state["h_force"]):
                ref = min(ray_h(poly, np.zeros(2), wf[i]), scenario.h_cap)
                assert h == pytest.approx(ref, abs=1e-6)


class TestPlot:
    def run_pipeline(self, tmp_path, scenario="target1_nograv", design="golden_design.json"):
        out_eval = tmp_path / "eval"
        main(
            ["evaluate", "--config", scenario_path(scenario),
             "--design", str(DATA / design), "--out", str(out_eval)]
        )
        out_plots = tmp_path / "plots"
        assert main(["plot", str(out_eval / "report.json"), "--out", str(out_plots)]) == 0
        return out_eval, out_plots

    def test_svgs_well_formed_with_one_blue_ellipse(self, tmp_path):
        _, plots = self.run_pipeline(tmp_path)
        panels = sorted(plots.glob("force_state*.svg")) + sorted(
            plots.glob("velocity_state*.svg")
        )
        assert len(panels) == 8
        for panel in panels:
            root = ET.parse(panel).getroot()
            blue = [
                e for e in root.iter(SVG_NS + "path") if e.get("stroke") == "blue"
            ]
            assert len(blue) == 1, panel.name
        arrangement = ET.parse(plots / "arrangement.svg").getroot()
        wires = [e for e in arrangement.iter(SVG_NS + "path") if e.get("class") == "wire"]
        assert len(wires) == 3

    def test_degenerate_polygon_rendered_as_marker(self, tmp_path):
        cfg = zero_center_config(tmp_path)
        design = base_only_design(tmp_path)
        out_eval = tmp_path / "eval"
        main(["evaluate", "--config", str(cfg), "--design", str(design),
              "--out", str(out_eval)])
        plots = tmp_path / "plots"
        assert main(["plot", str(out_eval / "report.json"), "--out", str(plots)]) == 0
        root = ET.parse(plots / "force_state1.svg").getroot()
        markers = [
            e for e in root.iter(SVG_NS + "circle") if e.get("class") == "feasible-point"
        ]
        assert len(markers) == 1
        regions = [
            e for e in root.iter(SVG_NS + "path") if e.get("class") == "feasible-region"
        ]
        assert not regions

    def test_report_without_scenario_exits_2(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text('{"x": 1}')
        assert main(["plot", str(report), "--out", str(tmp_path / "plots")]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_utf16_report_exits_2(self, tmp_path, capsys):
        out_eval, _ = self.run_pipeline(tmp_path)
        report = utf16_copy((out_eval / "report.json").read_text(), tmp_path / "utf16.json")
        plots = tmp_path / "utf16_plots"
        assert main(["plot", str(report), "--out", str(plots)]) == 2
        assert_not_utf8(capsys, "report JSON")
        assert not plots.exists()

    def test_utf8_bom_report_plots_as_the_plain_file(self, tmp_path):
        out_eval, plots = self.run_pipeline(tmp_path)
        report = bom_copy((out_eval / "report.json").read_text(), tmp_path / "bom" / "report.json")
        assert main(["plot", str(report), "--out", str(tmp_path / "bom_plots")]) == 0
        svgs = sorted(p.name for p in plots.iterdir())
        assert sorted(p.name for p in (tmp_path / "bom_plots").iterdir()) == svgs
        for name in svgs:
            assert (tmp_path / "bom_plots" / name).read_bytes() == (plots / name).read_bytes()

    @pytest.mark.parametrize("per_state", [
        [{}],
        "abc",
        "empty velocity polygon",
    ])
    def test_malformed_per_state_exits_2(self, tmp_path, capsys, per_state):
        out_eval = tmp_path / "eval"
        assert main(["evaluate", "--config", str(zero_center_config(tmp_path)),
                     "--design", str(base_only_design(tmp_path)),
                     "--out", str(out_eval)]) == 0
        report = json.loads((out_eval / "report.json").read_text())
        if per_state == "empty velocity polygon":
            report["per_state"][1]["velocity_polygon"] = []
        else:
            report["per_state"] = per_state
        bad = tmp_path / "bad_report.json"
        bad.write_text(json.dumps(report))
        plots = tmp_path / "plots"
        assert main(["plot", str(bad), "--out", str(plots)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not list(plots.glob("*.svg"))

    @pytest.mark.parametrize("key, value", [
        ("force_polygon", [[float("inf"), 0.0]]),
        ("theta_deg", [float("nan"), 30.0]),
        ("force_center", [0.0, float("-inf")]),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, key, value):
        # Python's json reads NaN and Infinity; the panels would print nan
        out_eval, _ = self.run_pipeline(tmp_path)
        report = json.loads((out_eval / "report.json").read_text())
        state = report["per_state"][1]
        state[key] = value + state[key][1:] if key == "force_polygon" else value
        bad = tmp_path / "non_finite.json"
        bad.write_text(json.dumps(report))
        plots = tmp_path / "non_finite_plots"
        assert main(["plot", str(bad), "--out", str(plots)]) == 2
        assert capsys.readouterr().err == (
            f"config error: $.per_state[1].{key} (line 1): every number must be finite\n")
        assert not plots.exists()

    @pytest.mark.parametrize("key, value, path, message", [
        ("force_center", [0.0, float("nan")], "$.per_state[1].force_center",
         "every number must be finite"),
        ("velocity_polygon", [], "$.per_state[1]",
         "needs theta_deg, force_center [x, y] and non-empty N x 2 force_polygon and "
         "velocity_polygon"),
    ])
    def test_bad_state_of_an_indented_report_names_its_line(self, tmp_path, capsys, key, value,
                                                             path, message):
        out_eval, _ = self.run_pipeline(tmp_path)
        report = json.loads((out_eval / "report.json").read_text())
        report["per_state"][1][key] = value
        text = json.dumps(report, indent=2)
        # the second state's key, or the brace that opens the second state
        keys = [n for n, line in enumerate(text.splitlines(), 1) if f'"{key}": ' in line]
        opens = [n - 1 for n, line in enumerate(text.splitlines(), 1)
                 if line.lstrip().startswith(f'"{next(iter(report["per_state"][1]))}": ')]
        line = keys[1] if path.endswith(key) else opens[1]
        assert line > 1
        bad = tmp_path / "indented.json"
        bad.write_text(text)
        plots = tmp_path / "indented_plots"
        assert main(["plot", str(bad), "--out", str(plots)]) == 2
        assert capsys.readouterr().err == f"config error: {path} (line {line}): {message}\n"
        assert not plots.exists()

    @pytest.mark.parametrize("point", [False, True], ids=["top", "relay point"])
    def test_unknown_design_key_exits_2(self, tmp_path, capsys, point):
        out_eval, _ = self.run_pipeline(tmp_path)
        report = json.loads((out_eval / "report.json").read_text())
        key = "x" if point else "extra"
        (report["design"]["wires"][1][1] if point else report["design"])[key] = 1
        bad = tmp_path / "unknown_report.json"
        bad.write_text(json.dumps(report))
        plots = tmp_path / "unknown_plots"
        assert main(["plot", str(bad), "--out", str(plots)]) == 2
        path = "$.design.wires[1][1].x" if point else "$.design.extra"
        assert capsys.readouterr().err == f"config error: {path} (line 1): unknown field\n"
        assert not plots.exists()

    @pytest.mark.parametrize("fault", DESIGN_FAULTS)
    def test_design_error_names_its_report_path_and_line(self, tmp_path, capsys, fault):
        name, scenario, change, path, message = DESIGN_FAULTS[fault]
        # a report of the scenario's own golden design, then the faulty design in its place
        out_eval, _ = self.run_pipeline(tmp_path, scenario, "golden_design_constant.json"
                                        if scenario == "constant_relaxed" else "golden_design.json")
        report = json.loads((out_eval / "report.json").read_text())
        report["design"] = golden_design(name)
        change(report["design"])
        bad = tmp_path / "bad_design.json"
        bad.write_text(json.dumps(report, indent=2))
        plots = tmp_path / "bad_design_plots"
        assert main(["plot", str(bad), "--out", str(plots)]) == 2
        path = ("design", *path)
        assert capsys.readouterr().err == (
            f"config error: {dotted(path)} (line {value_line(report, path)}): {message}\n")
        assert not plots.exists()

    @pytest.mark.parametrize("path, message", [
        ("$.scenario.limits.tension", "need 0 < min < max tension"),
        ("$.design.extra", "unknown field"),
    ])
    def test_bad_embedded_scenario_or_design_names_its_report_line(self, tmp_path, capsys,
                                                                   path, message):
        out_eval, _ = self.run_pipeline(tmp_path)
        report = json.loads((out_eval / "report.json").read_text())
        if path == "$.design.extra":
            report["design"]["extra"] = 1
        else:
            report["scenario"]["limits"]["tension"] = [0.0, 200.0]
        text = json.dumps(report, indent=2)
        key = path.rsplit(".", 1)[1]
        line = next(n for n, row in enumerate(text.splitlines(), 1)
                    if row.lstrip().startswith(f'"{key}": '))
        assert line > 1
        bad = tmp_path / "embedded.json"
        bad.write_text(text)
        plots = tmp_path / "embedded_plots"
        assert main(["plot", str(bad), "--out", str(plots)]) == 2
        assert capsys.readouterr().err == f"config error: {path} (line {line}): {message}\n"
        assert not plots.exists()

    def test_ragged_design_exits_2(self, tmp_path, capsys):
        out_eval, _ = self.run_pipeline(tmp_path)
        report = json.loads((out_eval / "report.json").read_text())
        report["design"]["wires"][1].append({"link": 1, "frac": 0.5})
        bad = tmp_path / "ragged_report.json"
        bad.write_text(json.dumps(report))
        plots = tmp_path / "ragged_plots"
        assert main(["plot", str(bad), "--out", str(plots)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not plots.exists()

    def test_golden_files(self, tmp_path):
        out_eval, plots = self.run_pipeline(tmp_path)
        report = json.loads((out_eval / "report.json").read_text())
        golden_report = json.loads((GOLDEN / "report.json").read_text())
        assert report == golden_report
        for golden in sorted(GOLDEN.glob("*.svg")):
            produced = plots / golden.name
            assert produced.read_bytes() == golden.read_bytes(), golden.name

    def test_gravity_golden_files(self, tmp_path):
        # two target1_grav states, whose force rays leave the gravity center
        out_eval, plots = self.run_pipeline(tmp_path, "target1_grav", "golden_design_grav.json")
        golden = GOLDEN / "target1_grav"
        report = json.loads((out_eval / "report.json").read_text())
        assert report == json.loads((golden / "report.json").read_text())
        svgs = sorted(golden.glob("*.svg"))
        assert [p.name for p in svgs] == sorted(p.name for p in plots.glob("*.svg"))
        for svg in svgs:
            assert (plots / svg.name).read_bytes() == svg.read_bytes(), svg.name

    def test_constant_golden_files(self, tmp_path):
        # the first front design of tlo optimize on constant_relaxed (budget
        # 400, population 40, seed 0): the constant branches of the design's
        # JSON form and of the arrangement panel, with its "wire k arms [m]"
        # lines, byte for byte
        out_eval, plots = self.run_pipeline(tmp_path, "constant_relaxed",
                                            "golden_design_constant.json")
        golden = GOLDEN / "constant_relaxed"
        report = json.loads((out_eval / "report.json").read_text())
        assert (report["e_force"], report["e_velocity"]) == (
            pytest.approx(0.73874, abs=1e-5), pytest.approx(1.09241, abs=1e-5))
        assert "wire 4 arms [m]" in (golden / "arrangement.svg").read_text()
        files = sorted(p.name for p in golden.iterdir())
        assert files == sorted(["report.json", *(p.name for p in plots.glob("*.svg"))])
        for name in files:
            produced = (out_eval if name == "report.json" else plots) / name
            assert produced.read_bytes() == (golden / name).read_bytes(), name


class TestOracleCommand:
    def test_clean_pass(self):
        assert main(
            ["oracle", "--config", scenario_path("constant_relaxed"),
             "--trials", "40", "--seed", "3"]
        ) == 0

    def test_gravity_branch_passes(self, tmp_path):
        doc = json.loads(Path(scenario_path("constant_relaxed")).read_text())
        doc["gravity"] = "on"
        cfg = tmp_path / "constant_grav.json"
        cfg.write_text(json.dumps(doc))
        assert main(["oracle", "--config", str(cfg), "--trials", "30"]) == 0

    def test_zero_trials_pass(self):
        assert main(
            ["oracle", "--config", scenario_path("constant_relaxed"), "--trials", "0"]
        ) == 0

    @pytest.mark.parametrize("flag, value", [
        ("--trials", "-3"), ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-0.5"),
    ])
    def test_vacuous_arguments_are_usage_errors(self, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--config", scenario_path("constant_relaxed"), flag, value])
        assert exc.value.code == 2

    def test_negative_seed_is_a_config_error(self, capsys):
        # the seed rule is OptimizerParams', as for tlo optimize --seed
        assert main(["oracle", "--config", scenario_path("constant_relaxed"),
                     "--seed", "-1"]) == 2
        assert "config error: $.optimizer.seed: seed must be at least 0" in capsys.readouterr().err

    def oracle_at_center(self, tmp_path, center):
        """tlo oracle, 5 trials, on constant_relaxed with its force target moved."""
        doc = json.loads(Path(scenario_path("constant_relaxed")).read_text())
        doc["targets"]["force_center"] = center
        cfg = tmp_path / "moved.json"
        cfg.write_text(json.dumps(doc))
        return main(["oracle", "--config", str(cfg), "--trials", "5"])

    def test_every_trial_pruned_fails(self, tmp_path, capsys):
        # a target far beyond every tension box: no trial is checked
        assert self.oracle_at_center(tmp_path, [5000.0, 5000.0]) == 1
        out, err = capsys.readouterr()
        assert "0 trials" in out
        assert "error: every trial was pruned, so no h was checked" in err

    def test_some_trials_pruned_pass_with_a_warning(self, tmp_path, capsys):
        assert self.oracle_at_center(tmp_path, [1000.0, 0.0]) == 0
        err = capsys.readouterr().err
        assert re.search(r"warning: only [1-4]/5 unpruned trials found", err)

    def test_zero_tolerance_fails(self):
        assert main(
            ["oracle", "--config", scenario_path("constant_relaxed"),
             "--trials", "25", "--seed", "3", "--tol", "0"]
        ) == 1

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_every_bundled_scenario_passes(self, name, capsys):
        assert main(["oracle", "--config", scenario_path(name), "--trials", "5"]) == 0
        assert re.search(r"5 trials, .*, 0 failures at tol 1e-06, \d+ pruned verdicts checked, "
                         r"0 wrong$", capsys.readouterr().out.strip())

    def oracle_with(self, monkeypatch, alter):
        """tlo oracle, 5 variable-mode trials, with alter applied to the first
        feasible result that evaluate returns."""
        altered = []

        def evaluate(*args):
            result = tlo.feasibility.evaluate(*args)
            if result.feasible and not altered:
                altered.append(result)
                alter(result)
            return result

        monkeypatch.setattr(tlo.cli, "evaluate", evaluate)
        code = main(["oracle", "--config", scenario_path("target1_nograv"), "--trials", "5",
                     "--seed", "2", "--tol", "5e-7"])
        assert altered
        return code

    def test_a_wrong_h_fails(self, monkeypatch, capsys):
        def shift(result):  # one h, twice the tolerance off
            result.h_force = result.h_force.copy()
            result.h_force[0, 0] += 1e-6

        assert self.oracle_with(monkeypatch, shift) == 1
        assert ", 1 failures at tol 5e-07, " in capsys.readouterr().out

    def test_a_wrong_prune_fails(self, monkeypatch, capsys):
        def prune(result):
            result.feasible = np.False_

        assert self.oracle_with(monkeypatch, prune) == 1
        assert re.search(r"5 trials, .*, 0 failures at tol 5e-07, \d+ pruned verdicts checked, "
                         r"1 wrong$", capsys.readouterr().out.strip())

    def test_three_joint_config_rejected(self, tmp_path, capsys):
        doc = json.loads((Path(__file__).parent / "data" / "three_joint.json").read_text())
        doc["mode"] = {"kind": "constant", "wires": 5}
        doc["robot"]["moment_arm_ranges"] = [[-0.1, 0.1]] * 3
        cfg = tmp_path / "three_joint_constant.json"
        cfg.write_text(json.dumps(doc))
        assert main(["oracle", "--config", str(cfg), "--trials", "5"]) == 2
        assert "$.robot.link_lengths (line 1): oracle cross-check needs a two-joint robot" \
            in capsys.readouterr().err


def test_console_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "tlo.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "tlo" in proc.stdout
