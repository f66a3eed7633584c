import csv
import hashlib
import json
import os
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import tlo.cli
from conftest import DEFAULT_STATES_DEG
from tlo.cli import main
from tlo.config import parse_config

SVG_NS = "{http://www.w3.org/2000/svg}"
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


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
        assert {p.name for p in out.iterdir()} == {
            "samples.csv", "pareto.json", "run_meta.json", "progress.ndjson"
        }

    def test_failed_write_keeps_previous_samples(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        args = ["optimize", "--config", scenario_path("target1_nograv"),
                "--out", str(out), "--budget", "40", "--population", "40"]
        assert main(args) == 0
        before = {name: (out / name).read_bytes()
                  for name in ("samples.csv", "pareto.json", "run_meta.json")}
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
        assert {p.name for p in out.iterdir()} == {
            "samples.csv", "pareto.json", "run_meta.json", "progress.ndjson"
        }

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

    def test_odd_population_exits_2(self, tmp_path):
        assert main(
            ["optimize", "--config", scenario_path("target1_nograv"),
             "--out", str(tmp_path / "x"), "--population", "41", "--budget", "82"]
        ) == 2


GOLDEN_RUNS = json.loads((GOLDEN / "optimize_digests.json").read_text())["runs"]


@pytest.mark.parametrize("run", GOLDEN_RUNS, ids=[r["scenario"] for r in GOLDEN_RUNS])
def test_seeded_optimize_matches_golden_digests(run, tmp_path):
    """Seeded artifacts keep their bytes across commits, not only across reruns.

    The digests change only with the maths; regenerate them deliberately and
    say why in CHANGES.md. The constant_relaxed run's front holds tied
    designs, so it also pins the front's tie rule.
    """
    out = tmp_path / "run"
    code = main(
        ["optimize", "--config", scenario_path(run["scenario"]), "--out", str(out),
         "--budget", str(run["budget"]), "--population", str(run["population"]),
         "--seed", str(run["seed"])]
    )
    assert code == 0
    for name, digest in run["sha256"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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
        from tlo.feasibility import EvaluationResult

        out = tmp_path / "eval"
        args = ["evaluate", "--config", str(zero_center_config(tmp_path)),
                "--design", str(base_only_design(tmp_path)), "--out", str(out)]
        assert main(args) == 0
        before = (out / "report.json").read_bytes()
        # "design" and "e_force" serialize before e_velocity fails
        bad = EvaluationResult(feasible=False, e_force=1.0, e_velocity=object())
        monkeypatch.setattr(tlo.cli, "evaluate", lambda *a: bad)
        with pytest.raises(TypeError):
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
        from tlo.arrangement import design_from_jsonable
        from tlo.feasibility import force_directions

        arrangement = design_from_jsonable(report["design"], cfg.robot)
        wf = force_directions(cfg.target)
        for state in report["per_state"]:
            q = np.deg2rad(state["theta_deg"])
            G = muscle_jacobian(cfg.robot, arrangement, q)
            J = joint_jacobian(cfg.robot, q)
            poly = force_polytope_exact(G, J, cfg.limits.f_min, cfg.limits.f_max)
            for i, h in enumerate(state["h_force"]):
                ref = min(ray_h(poly, np.zeros(2), wf[i]), cfg.h_cap)
                assert h == pytest.approx(ref, abs=1e-6)


class TestPlot:
    def run_pipeline(self, tmp_path):
        out_eval = tmp_path / "eval"
        main(
            ["evaluate", "--config", scenario_path("target1_nograv"),
             "--design", str(DATA / "golden_design.json"), "--out", str(out_eval)]
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

    def test_zero_tolerance_fails(self):
        assert main(
            ["oracle", "--config", scenario_path("constant_relaxed"),
             "--trials", "25", "--seed", "3", "--tol", "0"]
        ) == 1

    def test_variable_config_rejected(self):
        assert main(
            ["oracle", "--config", scenario_path("target1_nograv"), "--trials", "5"]
        ) == 2


def test_console_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "tlo.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "tlo" in proc.stdout
