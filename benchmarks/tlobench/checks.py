"""Checks on what every benchmarked command wrote.

Each check returns a list of problems; an empty list means the output is
correct. The checks use the library only through its public functions and
the exact geometry in tlo.oracle, never the CLI under test.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import jsonschema
import numpy as np
from referencing import Registry, Resource

from tlo.arrangement import Genome, genome_decode, muscle_jacobian
from tlo.feasibility import evaluate, force_directions, gravity_center, velocity_directions
from tlo.model import joint_jacobian
from tlo.oracle import force_polytope_exact, ray_h, velocity_polytope_exact

OBJECTIVE_TOL = 1e-9  # re-scored objectives must repeat to this
H_TOL = 1e-6  # LP h against exact polygons; the default of `tlo oracle --tol`
INSIDE_TOL = 1e-9  # polygon membership tolerance for the pruned-design check


def schema_validators(schema_dir: Path) -> dict:
    """One Draft 2020-12 validator per schema file, with $refs resolved."""
    docs = {p.name.removesuffix(".schema.json"): json.loads(p.read_text())
            for p in sorted(schema_dir.glob("*.schema.json"))}
    registry = Registry().with_resources(
        (doc["$id"], Resource.from_contents(doc)) for doc in docs.values()
    )
    return {name: jsonschema.Draft202012Validator(doc, registry=registry)
            for name, doc in docs.items()}


def hypervolume(points, ref: float) -> float:
    """Area dominated by 2-objective minimisation points below (ref, ref).

    Kept apart from tlo.nsga2.hypervolume_2d so that the metric does not
    move with the code it measures.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pts = pts[(pts[:, 0] < ref) & (pts[:, 1] < ref)]
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    area, y_prev = 0.0, ref
    for x, y in pts:
        if y < y_prev:
            area += (ref - x) * (y_prev - y)
            y_prev = y
    return area


def genome_from_doc(doc: dict) -> Genome:
    """A genome as pareto.json stores it."""
    return Genome(np.array(doc["reals"], dtype=float), np.array(doc["cats"], dtype=np.int64))


class Samples:
    """samples.csv of one optimize command: genomes, feasibility, objectives."""

    def __init__(self, path: Path):
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
        header, body = rows[0], rows[1:]
        reals = [i for i, h in enumerate(header) if h.startswith("real_")]
        cats = [i for i, h in enumerate(header) if h.startswith("cat_")]
        self.count = len(body)
        self.feasible = np.array([r[1] == "1" for r in body], dtype=bool)
        self.objectives = np.array([[float(r[2]), float(r[3])] for r in body]).reshape(-1, 2)
        self.genomes = [
            Genome(np.array([float(r[i]) for i in reals]), np.array([int(r[i]) for i in cats], dtype=np.int64))
            for r in body
        ]


class Checker:
    """Output checks for one scenario configuration."""

    def __init__(self, cfg, schema_dir: Path):
        self.cfg = cfg
        self.scenario = cfg.scenario()
        self.validators = schema_validators(schema_dir)
        self.sentinel = self.scenario.max_objective + 1.0

    def _validate(self, name: str, doc, label: str) -> list[str]:
        return [f"{label}: {e.message}" for e in self.validators[name].iter_errors(doc)]

    def optimize_outputs(self, out: Path, budget: int):
        """Schemas, budget accounting and re-scored front objectives.

        Returns (problems, pareto document, samples).
        """
        pareto = json.loads((out / "pareto.json").read_text())
        meta = json.loads((out / "run_meta.json").read_text())
        problems = self._validate("pareto", pareto, "pareto.json")
        problems += self._validate("run_meta", meta, "run_meta.json")
        lines = (out / "progress.ndjson").read_text().splitlines()
        if not lines:
            problems.append("progress.ndjson is empty")
        for n, line in enumerate(lines):
            problems += self._validate("progress", json.loads(line), f"progress.ndjson line {n + 1}")
        samples = Samples(out / "samples.csv")
        for label, count in (("pareto.json evaluation_count", pareto["evaluation_count"]),
                             ("run_meta.json evaluation_count", meta["evaluation_count"]),
                             ("samples.csv rows", samples.count)):
            if count != budget:
                problems.append(f"{label} = {count}, budget {budget}")
        for k, entry in enumerate(pareto["front"]):
            design = genome_decode(genome_from_doc(entry["genome"]), self.cfg.space)
            res = evaluate(self.cfg.robot, design, self.scenario)
            if not res.feasible:
                problems.append(f"front design {k} re-scores as pruned")
            elif not self._same_objectives((res.e_force, res.e_velocity), entry):
                problems.append(f"front design {k} re-scores to {res.e_force}, {res.e_velocity}")
        return problems, pareto, samples

    @staticmethod
    def _same_objectives(expected, doc) -> bool:
        return (abs(doc["e_force"] - expected[0]) <= OBJECTIVE_TOL
                and abs(doc["e_velocity"] - expected[1]) <= OBJECTIVE_TOL)

    def report_outputs(self, report_path: Path, plots: Path, expected) -> tuple[list[str], dict]:
        """report.json schema and objectives, and the SVG files plot wrote."""
        report = json.loads(report_path.read_text())
        problems = self._validate("report", report, "report.json")
        if not report.get("feasible"):
            problems.append("report.json: a feasible design is reported infeasible")
        elif not self._same_objectives(expected, report):
            problems.append(f"report.json objectives {report['e_force']}, {report['e_velocity']} "
                            f"differ from {expected[0]}, {expected[1]}")
        n_svg = len(list(plots.glob("*.svg")))
        want = 2 * len(self.scenario.joint_states) + 1
        if n_svg != want:
            problems.append(f"plot wrote {n_svg} SVG files, expected {want}")
        return problems, report

    def _state(self, design, k: int):
        q = self.scenario.joint_states[k]
        G = muscle_jacobian(self.cfg.robot, design, q)
        J = joint_jacobian(self.cfg.robot, q)
        if self.scenario.gravity:
            anchor = gravity_center(self.cfg.robot, q).center
        else:
            anchor = self.scenario.target.force_center
        limits = self.scenario.limits
        return G, J, anchor, force_polytope_exact(G, J, limits.f_min, limits.f_max)

    def oracle_feasible(self, design, report: dict) -> list[str]:
        """Reported h values against ray casts on the exact polygons."""
        limits, h_cap = self.scenario.limits, self.scenario.h_cap
        wf = force_directions(self.scenario.target)
        wv = velocity_directions(self.scenario.target)
        problems = []
        for k, state in enumerate(report["per_state"]):
            G, J, anchor, force_poly = self._state(design, k)
            velocity_poly = velocity_polytope_exact(G, J, limits.ldot_min, limits.ldot_max)
            for i in range(len(wf)):
                for kind, h, ref in (
                    ("force", state["h_force"][i], ray_h(force_poly, anchor, wf[i])),
                    ("velocity", state["h_velocity"][i], ray_h(velocity_poly, np.zeros(2), wv[i])),
                ):
                    if abs(h - min(ref, h_cap)) > H_TOL:
                        problems.append(f"state {k} {kind} direction {i}: h {h} against exact {ref}")
        return problems

    def oracle_pruned(self, design) -> list[str]:
        """A pruned design's force anchor must lie outside the zonotope at some state."""
        for k in range(len(self.scenario.joint_states)):
            _, _, anchor, force_poly = self._state(design, k)
            if not force_poly.contains(anchor, tol=INSIDE_TOL):
                return []
        return ["pruned design has its force anchor inside the exact zonotope at every state"]
