"""Command line tool: optimize wire layouts, evaluate and plot designs.

Subcommands: optimize, evaluate, plot, oracle. Exit codes: 0 success,
1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .arrangement import (
    Design,
    design_to_jsonable,
    designs_to_jsonable,
    genome_rows_decode,
    muscle_jacobian,
)
from .config import (ConfigError, ScenarioConfig, load_config, load_document, optimizer_params,
                     parse_config, parse_design)
from .feasibility import (
    MIN_RAYS,
    evaluate,
    force_directions,
    gravity_center,  # unused here; the benchmark's tracer wraps tlo.cli.gravity_center
    make_evaluator,
    velocity_directions,
)
from .model import joint_jacobian
from .nsga2 import evolve
from .oracle import force_polytope_exact, ray_h, velocity_polytope_exact

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _write_files(folder: Path, files: dict[str, str]) -> None:
    """Write each {name: text} of files into folder, replacing no file
    until every text is written.

    Every text goes to a temporary file in the folder first; only once all
    are written are they renamed over their targets, back to back. A target
    that already holds exactly its new bytes is left as it is
    (move-if-change), so rerunning a command into the same folder does not
    replace identical files. The caller builds every text before this runs,
    so a failure there writes nothing.
    """
    folder.mkdir(parents=True, exist_ok=True)
    temps = {}
    try:
        for name, text in files.items():
            path, data = folder / name, text.encode()
            try:
                if path.stat().st_size == len(data) and path.read_bytes() == data:
                    continue
            except OSError:
                pass
            temps[path] = path.with_name(f".{name}.{os.getpid()}.tmp")
            temps[path].write_bytes(data)
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def _json_text(obj) -> str:
    # one line: indent= would run json's pure-Python encoder instead of the C one
    return json.dumps(obj, sort_keys=True) + "\n"


def _effective_raw(cfg: ScenarioConfig) -> dict:
    """Config echo with the optimizer values written out, defaults included."""
    opt = cfg.optimizer
    return {**cfg.raw, "optimizer": {"population": opt.population, "budget": opt.budget,
                                     "seed": opt.seed}}


def optimize(cfg: ScenarioConfig):
    """The search a config describes -> (archive, timings): total_s, the wall
    time of evolve, and evaluate_s, the time inside evaluator calls."""
    scenario = cfg.scenario()
    evaluator = make_evaluator(cfg.robot, scenario)
    evaluate_s = 0.0

    def timed_evaluator(reals, cats):
        nonlocal evaluate_s
        t = time.perf_counter()
        try:
            return evaluator(reals, cats)
        finally:
            evaluate_s += time.perf_counter() - t

    opt = cfg.optimizer
    t0 = time.perf_counter()
    archive = evolve(timed_evaluator, cfg.space, population=opt.population, budget=opt.budget,
                     seed=opt.seed, max_objective=scenario.max_objective)
    return archive, {"total_s": time.perf_counter() - t0, "evaluate_s": evaluate_s}


def run_files(archive, cfg: ScenarioConfig, timings: dict) -> dict[str, str]:
    """The texts of tlo optimize's four artifacts, {name: text}, in writing
    order; built from the arguments alone, with no clock and no file."""
    # csv.writer's bytes: no field needs quoting, and rows end in \r\n.
    # Children inherit most genes, so each distinct float is formatted once,
    # keyed by its bits (which keep -0.0 apart from 0.0); float.__repr__ is
    # repr for floats, and an object column fails the int64 view
    n_r, n_c = cfg.space.n_reals, cfg.space.n_cats
    header = (["index", "feasible", "e_force", "e_velocity"]
              + [f"real_{i}" for i in range(n_r)] + [f"cat_{i}" for i in range(n_c)])
    floats = np.concatenate((archive.objectives, archive.reals), axis=1)
    bits, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    columns = [
        map(str, range(archive.evaluation_count)),
        map(str, archive.feasible.astype(int).tolist()),
        *texts[inverse.reshape(floats.shape)].T.tolist(),
        *(map(str, column) for column in archive.cats.T.tolist()),
    ]
    samples = [",".join(header), *map(",".join, zip(*columns))]

    f = archive.front_indices
    designs = designs_to_jsonable(
        genome_rows_decode(archive.reals[f], archive.cats[f], cfg.space), cfg.robot)
    # each front point's feasible rows, counted by float value (-0.0 is 0.0):
    # a pair as a complex number sorts by e_force, then e_velocity
    tied = np.sort(archive.objectives[archive.feasible].view(np.complex128)[:, 0])
    points = archive.objectives[f].view(np.complex128)[:, 0]
    ties = np.searchsorted(tied, points, "right") - np.searchsorted(tied, points, "left")
    front = [
        {
            "e_force": e_force,
            "e_velocity": e_velocity,
            "n_designs": n_designs,
            "genome": {"reals": reals, "cats": cats},
            "design": design,
        }
        for (e_force, e_velocity), n_designs, reals, cats, design in zip(
            archive.objectives[f].tolist(), ties.tolist(), archive.reals[f].tolist(),
            archive.cats[f].tolist(), designs)
    ]
    n_feasible = int(archive.feasible.sum())
    return {
        "samples.csv": "\r\n".join(samples) + "\r\n",
        "pareto.json": _json_text({
            "schema_version": 2,
            "seed": archive.seed,
            "evaluation_count": archive.evaluation_count,
            "front": front,
        }),
        "progress.ndjson": "".join(map(_json_text, archive.history)),
        "run_meta.json": _json_text({
            "schema_version": 1,
            "seed": archive.seed,
            "budget": cfg.optimizer.budget,
            "population": cfg.optimizer.population,
            "generations": archive.generations,
            "evaluation_count": archive.evaluation_count,
            "n_feasible": n_feasible,
            "n_pruned": archive.evaluation_count - n_feasible,
            "timings": timings,
            "tool_version": __version__,
            "config": _effective_raw(cfg),
        }),
    }


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    opt = cfg.optimizer
    cfg = replace(cfg, optimizer=optimizer_params(
        opt.population if args.population is None else args.population,
        opt.budget if args.budget is None else args.budget,
        opt.seed if args.seed is None else args.seed))
    archive, timings = optimize(cfg)
    out = Path(args.out)
    _write_files(out, run_files(archive, cfg, timings))
    print(
        f"{cfg.name}: {archive.evaluation_count} evaluations, "
        f"{int(archive.feasible.sum())} feasible, front size {len(archive.front_indices)} -> {out}"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    design = load_document(args.design, lambda doc: parse_design(doc, cfg), "design JSON")
    # one kernel pass scores the design and traces both boundaries
    result = evaluate(cfg.robot, design, cfg.scenario(), args.rays)
    feasible = bool(result.feasible)
    # a pruned design's NaN scores are written as null
    e_force, e_velocity = (result.e_force, result.e_velocity) if feasible else (None, None)
    report = {
        "schema_version": 1,
        "feasible": feasible,
        "design": design_to_jsonable(design, cfg.robot),
        "scenario": _effective_raw(cfg),
        "e_force": e_force,
        "e_velocity": e_velocity,
    }
    if feasible:
        states = result.states
        columns = {  # one row per state
            "theta_deg": np.rad2deg(states.q),
            "h_force": result.h_force,
            "h_velocity": result.h_velocity,
            "force_center": states.anchor,
            # a row of None without gravity
            "gravity_center_residual": np.broadcast_to(states.residual, len(states.q)),
            "force_polygon": np.round(result.force_boundary, 12),
            "velocity_polygon": np.round(result.velocity_boundary, 12),
        }
        report["per_state"] = [dict(zip(columns, row))
                               for row in zip(*(column.tolist() for column in columns.values()))]
    path = Path(args.out) / "report.json"
    _write_files(path.parent, {path.name: _json_text(report)})
    print(f"feasible={feasible} e_force={e_force} e_velocity={e_velocity} -> {path}")
    return EXIT_OK


def _plot_states(report: dict) -> list[list[np.ndarray]]:
    """Each per_state entry as float arrays of finite numbers: theta, force
    center, force and velocity polygons."""
    states = report.get("per_state", [])
    if not isinstance(states, list):
        raise ConfigError("must be a list", ("per_state",))
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
                "needs theta_deg, force_center [x, y] and "
                "non-empty N x 2 force_polygon and velocity_polygon", ("per_state", k)
            )
        for key, array in zip(keys, arrays):
            if not np.isfinite(array).all():  # JSON text may hold NaN and Infinity
                raise ConfigError("every number must be finite", ("per_state", k, key))
        parsed.append(arrays)
    return parsed


def _read_report(report) -> tuple[ScenarioConfig, Design, list[list[np.ndarray]]]:
    """A report's scenario, design and states; an error in its embedded
    scenario or design is named at its path in the report."""
    if not isinstance(report, dict) or not {"scenario", "design"} <= report.keys():
        raise ConfigError("report needs 'scenario' and 'design' entries (see tlo evaluate)")
    within = ("scenario",)  # the part of the report being read
    try:
        cfg = parse_config(report["scenario"])
        within = ("design",)
        design = parse_design(report["design"], cfg)
    except ConfigError as exc:
        raise ConfigError(exc.message, within + exc.path) from None
    return cfg, design, _plot_states(report)


def cmd_plot(args) -> int:
    cfg, design, states = load_document(args.report, _read_report, "report JSON")
    from .svgplot import arrangement_panel, space_panel

    svgs = {}
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
        svgs[f"force_state{k}.svg"] = force
        svgs[f"velocity_state{k}.svg"] = velocity
    q0 = cfg.joint_states[0]
    theta = ", ".join(f"{v:.0f}" for v in np.rad2deg(q0))
    svgs["arrangement.svg"] = arrangement_panel(
        cfg.robot, design, q0, f"wire arrangement (theta = {theta} deg)")
    out = Path(args.out)
    _write_files(out, svgs)
    print(f"wrote {len(svgs)} SVG files -> {out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    def parse(doc):  # a config the oracle cannot check fails with its line
        cfg = parse_config(doc, name=Path(args.config).stem)
        if cfg.space.kind != "constant":
            raise ConfigError("oracle cross-check needs a constant-mode config", ("mode", "kind"))
        if cfg.robot.n_joints != 2:
            raise ConfigError("oracle cross-check needs a two-joint robot",
                              ("robot", "link_lengths"))
        return cfg

    cfg = load_document(args.config, parse)
    scenario = cfg.scenario()
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.optimizer.seed)
    wf = force_directions(scenario.target)
    wv = velocity_directions(scenario.target)
    limits, h_cap = scenario.limits, scenario.h_cap
    worst = 0.0
    failures = 0
    done = 0
    attempts = 0
    while done < args.trials and attempts < 200 * max(args.trials, 1) + 1000:
        attempts += 1
        q = rng.uniform(-np.pi / 2, np.pi / 2, size=cfg.robot.n_joints)
        J = joint_jacobian(cfg.robot, q)
        if abs(np.linalg.det(J)) < 0.05:
            continue
        design = Design(None, rng.random((cfg.space.n_wires, cfg.robot.n_joints)))
        result = evaluate(cfg.robot, design, replace(scenario, joint_states=q[None]))
        if not result.feasible:
            continue  # pruned design: both routes agree it is infeasible
        hf, hv, anchor = result.h_force[0], result.h_velocity[0], result.states.anchor[0]
        G = muscle_jacobian(cfg.robot, design, q)
        force_poly = force_polytope_exact(G, J, limits.f_min, limits.f_max)
        velocity_poly = velocity_polytope_exact(G, J, limits.ldot_min, limits.ldot_max)
        refs = [(min(ray_h(force_poly, anchor, f), h_cap),
                 min(ray_h(velocity_poly, np.zeros(2), v), h_cap)) for f, v in zip(wf, wv)]
        errors = np.abs(np.column_stack((hf, hv)) - refs)
        worst = max(worst, float(errors.max()))
        failures += int((errors > args.tol).sum())
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
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {n}")
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
    p.add_argument("--seed", type=_count_at_least(0, "seed"), default=None)
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
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
