"""Command line tool: optimize wire layouts, evaluate and plot designs.

Subcommands: optimize, evaluate, plot, oracle. Exit codes: 0 success,
1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .arrangement import (
    ConstantArrangement,
    design_from_jsonable,
    design_to_jsonable,
    genome_decode,
    muscle_jacobian,
    space_for,
)
from .config import ConfigError, ScenarioConfig, load_config
from .feasibility import (
    MIN_RAYS,
    InfeasibleDesign,
    evaluate,
    force_directions,
    force_h_all,
    gravity_center,  # unused here; the benchmark's tracer wraps tlo.cli.gravity_center
    make_evaluator,
    state_tables,
    trace_polygon,
    velocity_h_all,
)
from .nsga2 import evolve
from .oracle import force_polytope_exact, ray_h, velocity_polytope_exact

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


@contextmanager
def _atomic_open(path: Path, newline: str | None = None):
    """Text buffer that replaces path once it has been written in full.

    The text goes to a temporary file in the same directory, which is then
    renamed over path. A path that already holds exactly these bytes is left
    as it is (move-if-change), so rerunning a command into the same folder
    does not replace identical files.
    """
    buf = io.StringIO(newline=newline)
    yield buf
    data = buf.getvalue().encode()
    try:
        if path.stat().st_size == len(data) and path.read_bytes() == data:
            return
    except OSError:
        pass
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _dump_json(path: Path, obj) -> None:
    with _atomic_open(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_text(path: Path, text: str) -> None:
    with _atomic_open(path) as f:
        f.write(text)


def _effective_raw(cfg: ScenarioConfig) -> dict:
    """Config echo with any command line overrides folded in."""
    raw = json.loads(json.dumps(cfg.raw))
    raw["optimizer"] = {
        "population": cfg.optimizer.population,
        "budget": cfg.optimizer.budget,
        "seed": cfg.optimizer.seed,
    }
    return raw


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    if args.population is not None:
        cfg.optimizer.population = args.population
    if args.budget is not None:
        cfg.optimizer.budget = args.budget
    if args.seed is not None:
        cfg.optimizer.seed = args.seed
    opt = cfg.optimizer
    if opt.population < 2 or opt.population % 2:
        raise ConfigError("population must be even and at least 2", ("optimizer", "population"))
    if opt.budget < opt.population:
        raise ConfigError("budget must be at least the population size", ("optimizer", "budget"))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario = cfg.scenario()
    evaluator = make_evaluator(cfg.robot, scenario)

    progress_path = out / "progress.ndjson"
    t0 = time.perf_counter()
    with progress_path.open("w") as stream:

        def on_generation(entry: dict):
            stream.write(json.dumps(entry, sort_keys=True) + "\n")

        archive = evolve(
            evaluator,
            cfg.space,
            population=opt.population,
            budget=opt.budget,
            seed=opt.seed,
            max_objective=scenario.max_objective,
            on_generation=on_generation,
        )
    elapsed = time.perf_counter() - t0

    with _atomic_open(out / "samples.csv", newline="") as f:
        writer = csv.writer(f)
        n_r, n_c = cfg.space.n_reals, cfg.space.n_cats
        writer.writerow(
            ["index", "feasible", "e_force", "e_velocity"]
            + [f"real_{i}" for i in range(n_r)]
            + [f"cat_{i}" for i in range(n_c)]
        )
        rows = zip(archive.feasible.tolist(), archive.objectives.tolist(),
                   archive.reals.tolist(), archive.cats.tolist())
        for idx, (feasible, (e_force, e_velocity), reals, cats) in enumerate(rows):
            writer.writerow(
                [idx, int(feasible), repr(float(e_force)), repr(float(e_velocity))]
                + [repr(v) for v in reals]
                + cats
            )

    front = [
        {
            "e_force": float(archive.objectives[i, 0]),
            "e_velocity": float(archive.objectives[i, 1]),
            "genome": {
                "reals": archive.reals[i].tolist(),
                "cats": archive.cats[i].tolist(),
            },
            "design": design_to_jsonable(genome_decode(archive.genome(i), cfg.space), cfg.robot),
        }
        for i in archive.front_indices
    ]
    _dump_json(
        out / "pareto.json",
        {
            "schema_version": 1,
            "seed": archive.seed,
            "evaluation_count": archive.evaluation_count,
            "front": front,
        },
    )
    n_feasible = int(archive.feasible.sum())
    _dump_json(
        out / "run_meta.json",
        {
            "schema_version": 1,
            "seed": archive.seed,
            "budget": opt.budget,
            "population": opt.population,
            "generations": archive.generations,
            "evaluation_count": archive.evaluation_count,
            "n_feasible": n_feasible,
            "n_pruned": archive.evaluation_count - n_feasible,
            "timings": {"total_s": elapsed},
            "tool_version": __version__,
            "config": _effective_raw(cfg),
        },
    )
    print(
        f"{cfg.name}: {archive.evaluation_count} evaluations, "
        f"{n_feasible} feasible, front size {len(archive.front_indices)} -> {out}"
    )
    return EXIT_OK


def _load_design(path: str, cfg: ScenarioConfig):
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid design JSON: {exc.msg}", (), exc.lineno) from exc
    return _parse_design(doc, cfg)


def _parse_design(doc, cfg: ScenarioConfig):
    """Design document -> arrangement matching the config's design space."""
    try:
        design = design_from_jsonable(doc, cfg.robot)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad design document: {exc}") from exc
    space = space_for(design, cfg.robot.n_joints)
    if space != cfg.space:
        raise ConfigError(
            f"design shape {space.kind} M={space.n_wires} N={space.n_relay_points} "
            f"does not match config mode {cfg.space.kind} M={cfg.space.n_wires} "
            f"N={cfg.space.n_relay_points}"
        )
    return design


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    design = _load_design(args.design, cfg)
    scenario = cfg.scenario()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = evaluate(cfg.robot, design, scenario)
    report = {
        "schema_version": 1,
        "feasible": result.feasible,
        "design": design_to_jsonable(design, cfg.robot),
        "scenario": _effective_raw(cfg),
        "e_force": result.e_force,
        "e_velocity": result.e_velocity,
    }
    if result.feasible:
        per_state = []
        for k, q in enumerate(scenario.joint_states):
            state = state_tables(cfg.robot, q, scenario.target, scenario.gravity)
            force_poly, velocity_poly = (
                trace_polygon(cfg.robot, design, state, which, scenario.limits, args.rays)
                for which in ("force", "velocity")
            )
            per_state.append(
                {
                    "theta_deg": np.rad2deg(q).tolist(),
                    "h_force": result.h_force[k].tolist(),
                    "h_velocity": result.h_velocity[k].tolist(),
                    "force_center": state.anchor.tolist(),
                    "gravity_center_residual": state.residual,
                    "force_polygon": np.round(force_poly, 12).tolist(),
                    "velocity_polygon": np.round(velocity_poly, 12).tolist(),
                }
            )
        report["per_state"] = per_state
    path = out / "report.json"
    _dump_json(path, report)
    print(
        f"feasible={result.feasible} e_force={result.e_force} "
        f"e_velocity={result.e_velocity} -> {path}"
    )
    return EXIT_OK


def _plot_states(report: dict) -> list[list[np.ndarray]]:
    """Each per_state entry as float arrays: theta, force center, force and velocity polygons."""
    states = report.get("per_state", [])
    if not isinstance(states, list):
        raise ConfigError("report 'per_state' must be a list")
    keys = ("theta_deg", "force_center", "force_polygon", "velocity_polygon")
    parsed = []
    for k, state in enumerate(states):
        try:
            arrays = [np.asarray(state[key], dtype=float) for key in keys]
        except (KeyError, TypeError, ValueError):
            arrays = None
        if arrays is None or arrays[0].ndim != 1 or arrays[1].shape != (2,) or not all(
            p.ndim == 2 and p.shape[1] == 2 and len(p) for p in arrays[2:]
        ):
            raise ConfigError(
                f"report per_state[{k}] needs theta_deg, force_center [x, y] and "
                "non-empty N x 2 force_polygon and velocity_polygon"
            )
        parsed.append(arrays)
    return parsed


def cmd_plot(args) -> int:
    try:
        report = json.loads(Path(args.report).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid report JSON: {exc.msg}", (), exc.lineno) from exc
    from .config import parse_config
    from .svgplot import arrangement_panel, space_panel

    if not isinstance(report, dict) or not {"scenario", "design"} <= report.keys():
        raise ConfigError("report needs 'scenario' and 'design' entries (see tlo evaluate)")
    cfg = parse_config(report["scenario"])
    design = _parse_design(report["design"], cfg)
    states = _plot_states(report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for k, (theta_deg, center, force_poly, velocity_poly) in enumerate(states, 1):
        theta = ", ".join(f"{v:.0f}" for v in theta_deg)
        force = space_panel(
            force_poly,
            center,
            cfg.target.force_radii,
            f"force space, state {k} (theta = {theta} deg)",
            "N",
            "F",
        )
        velocity = space_panel(
            velocity_poly,
            np.zeros(2),
            cfg.target.velocity_radii,
            f"velocity space, state {k} (theta = {theta} deg)",
            "m/s",
            "v",
        )
        for name, text in ((f"force_state{k}.svg", force), (f"velocity_state{k}.svg", velocity)):
            _write_text(out / name, text)
            written.append(name)
    q0 = cfg.joint_states[0]
    theta = ", ".join(f"{v:.0f}" for v in np.rad2deg(q0))
    _write_text(
        out / "arrangement.svg",
        arrangement_panel(cfg.robot, design, q0, f"wire arrangement (theta = {theta} deg)"),
    )
    written.append("arrangement.svg")
    print(f"wrote {len(written)} SVG files -> {out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    if cfg.space.kind != "constant":
        raise ConfigError("oracle cross-check needs a constant-mode config", ("mode", "kind"))
    scenario = cfg.scenario()
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.optimizer.seed)
    wf = force_directions(scenario.target)
    worst = 0.0
    failures = 0
    done = 0
    attempts = 0
    while done < args.trials and attempts < 200 * max(args.trials, 1) + 1000:
        attempts += 1
        q = rng.uniform(-np.pi / 2, np.pi / 2, size=cfg.robot.n_joints)
        state = state_tables(cfg.robot, q, scenario.target, scenario.gravity)
        if abs(np.linalg.det(state.J)) < 0.05:
            continue
        design = ConstantArrangement(rng.random((cfg.space.n_wires, cfg.robot.n_joints)))
        G = muscle_jacobian(cfg.robot, design, q)
        hf = force_h_all(G, state.rhs, state.force_cols, scenario.limits, scenario.h_cap)
        if hf is None:
            continue  # pruned design: both routes agree it is infeasible
        hv = velocity_h_all(G, state.J, state.velocity_dirs, scenario.limits, scenario.h_cap)
        force_poly = force_polytope_exact(G, state.J, scenario.limits.f_min, scenario.limits.f_max)
        velocity_poly = velocity_polytope_exact(
            G, state.J, scenario.limits.ldot_min, scenario.limits.ldot_max
        )
        for i in range(scenario.target.n_directions):
            ref = min(ray_h(force_poly, state.anchor, wf[i]), scenario.h_cap)
            worst = max(worst, abs(hf[i] - ref))
            failures += abs(hf[i] - ref) > args.tol
            ref = min(ray_h(velocity_poly, np.zeros(2), state.velocity_dirs[i]), scenario.h_cap)
            worst = max(worst, abs(hv[i] - ref))
            failures += abs(hv[i] - ref) > args.tol
        done += 1
    print(
        f"oracle cross-check: {done} trials, max |h_lp - h_geometric| = {worst:.3e}, "
        f"{failures} failures at tol {args.tol:g}"
    )
    if done < args.trials:
        print(f"warning: only {done}/{args.trials} unpruned trials found", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


def _count_at_least(low: int, what: str):
    def count(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"need at least {low} {what}, got {n}")
        return n

    return count


def _tolerance(text: str) -> float:
    tol = float(text)
    if not math.isfinite(tol) or tol < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and not negative, got {text}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlo",
        description="Wire arrangement optimization for planar tendon-driven manipulators",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="run the evolutionary search on a scenario")
    p.add_argument("--config", required=True, help="scenario JSON path")
    p.add_argument("--out", default="tlo-out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override optimizer.seed")
    p.add_argument("--budget", type=int, default=None, help="override optimizer.budget")
    p.add_argument("--population", type=int, default=None, help="override optimizer.population")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("evaluate", help="score one design and trace its feasible spaces")
    p.add_argument("--config", required=True)
    p.add_argument("--design", required=True, help="design JSON path")
    p.add_argument("--out", default="tlo-out")
    p.add_argument("--rays", type=_count_at_least(MIN_RAYS, "rays"), default=64,
                   help=f"boundary rays per polygon (at least {MIN_RAYS})")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("plot", help="render SVG panels from an evaluation report")
    p.add_argument("report", help="report.json produced by the evaluate command")
    p.add_argument("--out", default="tlo-out")
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("oracle", help="cross-check LP scores against exact geometry")
    p.add_argument("--config", required=True, help="constant-mode scenario JSON")
    p.add_argument("--trials", type=_count_at_least(0, "trials"), default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.set_defaults(fn=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleDesign as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
