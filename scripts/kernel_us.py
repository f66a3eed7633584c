"""Median microseconds per call of the batch kernels and of NSGA-II's
generation step, printed as JSON.

    PYTHONPATH=src python scripts/kernel_us.py [--repeat 200] [--seed 0]

Times arrangement.batch_muscle_jacobian and the force and velocity kernels
of tlo.feasibility (_force_h, _velocity_h) on S joint states and P designs,
at the shapes the evaluator's passes give them:

- (S, P) = (1, 500) on target1_nograv: the first pass of a random
  500-genome generation, the screening shape;
- (1, 40): the first pass of a population-40 search generation, on
  target1_nograv and on tests/data/three_joint.json (D = 3);
- (3, 28): the second pass, states 1-3 on designs that state 0 admits;
- (2, 1): one design at two states, the shape of evaluate and
  trace_polygon on a two-state scenario.

Bred designs come from a seeded desk search (budget 2000, population 40):
its last generation for S = 1, its first feasible designs for S > 1.
Random ones are uniform genome rows. The velocity kernel runs on the
designs that every state's force LP admits (the rows _force_h returns),
as in the evaluator.

The "nsga2" section times tlo.nsga2's non_dominated_sort (of the merged
2P rows), _survivors (of them), crowding_distance (of the P survivors, as
the tournament takes it), _offspring and extend_front (of the last
generation's rows) on the last merged generation of a seeded desk search
(budget 2000) at population 40 and 100, on constant_relaxed and on
target1_nograv; "fronts" counts the fronts among the merged rows.

Each function is called --repeat times per case, after a few untimed
calls; the medians are wall-clock microseconds of this process.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from unittest import mock

import numpy as np

from tlo.arrangement import batch_muscle_jacobian, genome_rows_decode
from tlo.config import load_bundled_scenario, load_config
from tlo.feasibility import (
    _force_h,
    _stack,
    _velocity_h,
    force_directions,
    make_evaluator,
    state_tables,
    velocity_directions,
)
from tlo import nsga2
from tlo.nsga2 import (
    _offspring,
    _survivors,
    crowding_distance,
    evolve,
    extend_front,
    non_dominated_sort,
    pareto_front_indices,
)

ROOT = Path(__file__).resolve().parents[1]
CASES = (  # (config, S, P, designs)
    ("target1_nograv", 2, 1, "bred"),
    ("target1_nograv", 1, 40, "bred"),
    ("target1_nograv", 3, 28, "bred"),
    ("target1_nograv", 1, 500, "random"),
    ("tests/data/three_joint.json", 1, 40, "bred"),
)
GENERATION_CASES = (  # (config, population)
    ("constant_relaxed", 40),
    ("constant_relaxed", 100),
    ("target1_nograv", 40),
    ("target1_nograv", 100),
)
BUDGET = 2000
WARMUP = 3


def _config(name):
    return load_config(ROOT / name) if name.endswith(".json") else load_bundled_scenario(name)


def _designs(cfg, s, p, kind, seed):
    """(reals, cats) rows of P designs for a case at S states."""
    space = cfg.space
    if kind == "random":
        rng = np.random.default_rng(seed)
        return (rng.random((p, space.n_reals)),
                rng.integers(0, space.cat_cardinality, size=(p, space.n_cats)))
    scenario = cfg.scenario()
    archive = evolve(make_evaluator(cfg.robot, scenario), space, population=40, budget=2000,
                     seed=seed, max_objective=scenario.max_objective)
    rows = np.flatnonzero(archive.feasible)[:p] if s > 1 else np.arange(2000 - p, 2000)
    return archive.reals[rows], archive.cats[rows]


def _median_us(fn, repeat):
    for _ in range(WARMUP):
        fn()
    samples = []
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t)
    return round(float(np.median(samples)) * 1e6, 1)


def time_case(name, s, p, kind, repeat, seed):
    cfg = _config(name)
    model, scenario = cfg.robot, cfg.scenario()
    q = scenario.joint_states
    tables = state_tables(model, q[:1] if s == 1 else q[1 : 1 + s], scenario.target,
                          scenario.gravity)
    pose, force, velocity = _stack(model, tables, force_directions(scenario.target),
                                   velocity_directions(scenario.target))
    designs = genome_rows_decode(*_designs(cfg, s, p, kind, seed), cfg.space)
    G = batch_muscle_jacobian(model, designs, pose)
    limits, h_cap = scenario.limits, scenario.h_cap
    admitted, _ = _force_h(G, force, limits, h_cap)
    G_admitted = G[:, admitted]
    return {
        "config": name,
        "S": s,
        "P": p,
        "designs": kind,
        "admitted": len(admitted),
        "batch_muscle_jacobian": _median_us(
            lambda: batch_muscle_jacobian(model, designs, pose), repeat),
        "_force_h": _median_us(lambda: _force_h(G, force, limits, h_cap), repeat),
        "_velocity_h": _median_us(lambda: _velocity_h(G_admitted, velocity, limits, h_cap),
                                  repeat),
    }


def time_generation(name, population, repeat, seed):
    """The generation step's functions on the last merged generation of a
    seeded desk search: the arguments of its last _survivors and _offspring
    calls, and the archive rows before its last generation."""
    cfg = _config(name)
    scenario = cfg.scenario()
    with mock.patch.object(nsga2, "_survivors", wraps=_survivors) as selected, \
            mock.patch.object(nsga2, "_offspring", wraps=_offspring) as bred:
        archive = evolve(make_evaluator(cfg.robot, scenario), cfg.space, population, BUDGET,
                         seed, scenario.max_objective)
    merged, merged_rank, _ = selected.call_args.args
    rank, crowd, reals, cats, space, _ = bred.call_args.args
    survivors = _survivors(merged, merged_rank, population)
    objs, survivor_rank = merged[survivors], merged_rank[survivors]
    start = BUDGET - population
    objectives, feasible = archive.objectives, archive.feasible
    front = pareto_front_indices(objectives[:start], feasible[:start])
    rng = np.random.default_rng(seed)
    return {
        "config": name,
        "P": population,
        "fronts": int(merged_rank.max()) + 1,
        "non_dominated_sort": _median_us(lambda: non_dominated_sort(merged), repeat),
        "_survivors": _median_us(lambda: _survivors(merged, merged_rank, population), repeat),
        "crowding_distance": _median_us(lambda: crowding_distance(objs, survivor_rank), repeat),
        "_offspring": _median_us(lambda: _offspring(rank, crowd, reals, cats, space, rng), repeat),
        "extend_front": _median_us(lambda: extend_front(objectives, feasible, front, start),
                                   repeat),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=200,
                        help="timed calls per function and case")
    parser.add_argument("--seed", type=int, default=0, help="seed of the designs")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    cases = [time_case(*case, args.repeat, args.seed) for case in CASES]
    generations = [time_generation(*case, args.repeat, args.seed) for case in GENERATION_CASES]
    print(json.dumps({"unit": "us", "statistic": "median", "repeat": args.repeat,
                      "seed": args.seed, "python": platform.python_version(),
                      "numpy": np.__version__, "cases": cases, "nsga2": generations},
                     indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
