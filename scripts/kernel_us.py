"""Median microseconds per call of the batch kernels and of NSGA-II's
generation step, printed as JSON.

    PYTHONPATH=src python scripts/kernel_us.py [--repeat 200] [--seed 0]

Times arrangement.batch_muscle_jacobian and the force and velocity kernels
of tlo.feasibility (_force_h, _velocity_h) on S joint states and P designs,
at the shapes the evaluator's passes give them. A batch of at most
SCREEN_ROWS rows, such as a search generation, takes one pass over all S
states; a larger one is screened on state 0 first (feasibility._passes):

- (S, P) = (4, 40) on target1_nograv and (2, 40) on
  tests/data/three_joint.json (D = 3): a population-40 search generation;
- (1, 500) on target1_nograv: the screen's state-0 pass over a random
  500-genome batch;
- (2, 1): one design at two states, the shape of evaluate (and of a
  tlo evaluate report) on a two-state scenario.

The Jacobian takes the link tables that the evaluator builds once per
state stack (feasibility._stack). Bred designs come from a seeded desk
search (budget 2000, population 40): its last generation, and for P = 1
the first design of its front. Random ones are uniform genome rows. The
velocity kernel runs on the designs that every state's force LP admits
(the rows _force_h returns), as in the evaluator; "admitted" counts them.
_force_h casts and clips its rays for those rows only, so its time
depends on that count as well as on P: the random (1, 500) case is nearly
all pruned, the bred ones mostly admitted.

The "evaluator" section times tlo.feasibility._score, the evaluator's
scoring of a batch, in each kernel pass layout on the same rows:
"one_pass", all S states in one pass, and "screened", state 0 on every
row, then the later states on the rows it admits. The two calls alternate
within the process, so that its drift touches both alike. The P rows are
uniform genome rows, or the last P rows of a seeded desk search (budget
2000) at population min(P, 100): its last generation at P = 40 and 100,
its last two and five at 200 and 500. P is 40, 100, 200 and 500, on
target1_nograv, constant_relaxed and tests/data/three_joint.json (D = 3).
"pick" is the layout that the evaluator's rule (feasibility._passes)
takes for the batch (one pass for constant designs at any P),
"screen_rows" is its SCREEN_ROWS, and "feasible" counts the rows that
every state admits.

The "nsga2" section times tlo.nsga2's non_dominated_sort (of the merged
2P rows), _survivors (of them), crowding_distance (of the P survivors, as
the tournament takes it), _offspring and extend_front (of the last
generation's rows) on the last merged generation of a seeded desk search
(budget 2000) at population 40 and 100, on constant_relaxed and on
target1_nograv; "fronts" counts the fronts among the merged rows.

The "state_tables" section times tlo.feasibility.state_tables, the one
forward kinematics call of a state stack with the J, force right-hand
sides and anchors built from its pose, at S = 2 joint states (the first
two) on target1_nograv and on target1_grav, where it adds the gravity
torque and the gravity centers' lstsq solves.

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
    SCREEN_ROWS,
    _force_h,
    _passes,
    _score,
    _stack,
    _take,
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
CASES = (  # (config, S, P, designs): the first S states
    ("target1_nograv", 2, 1, "bred"),
    ("target1_nograv", 4, 40, "bred"),
    ("target1_nograv", 1, 500, "random"),
    ("tests/data/three_joint.json", 2, 40, "bred"),
)
GENERATION_CASES = (  # (config, population)
    ("constant_relaxed", 40),
    ("constant_relaxed", 100),
    ("target1_nograv", 40),
    ("target1_nograv", 100),
)
STATE_TABLE_CASES = ("target1_nograv", "target1_grav")  # without and with gravity, S = 2
EVALUATOR_CASES = tuple(  # (config, P, designs)
    (name, p, kind)
    for name in ("target1_nograv", "constant_relaxed", "tests/data/three_joint.json")
    for kind in ("random", "bred") for p in (40, 100, 200, 500))
BUDGET = 2000
WARMUP = 3


def _config(name):
    return load_config(ROOT / name) if name.endswith(".json") else load_bundled_scenario(name)


def _designs(cfg, p, kind, seed):
    """(reals, cats) rows of P designs for a case."""
    space = cfg.space
    if kind == "random":
        rng = np.random.default_rng(seed)
        return (rng.random((p, space.n_reals)),
                rng.integers(0, space.cat_cardinality, size=(p, space.n_cats)))
    scenario = cfg.scenario()
    archive = evolve(make_evaluator(cfg.robot, scenario), space, population=40, budget=2000,
                     seed=seed, max_objective=scenario.max_objective)
    rows = archive.front_indices[:1] if p == 1 else np.arange(2000 - p, 2000)
    return archive.reals[rows], archive.cats[rows]


def _median_us(fn, repeat):
    return _medians_us([fn], repeat)[0]


def _medians_us(fns, repeat):
    """Median microseconds per call of each function (see _round_times)."""
    return [round(float(np.median(times)) * 1e6, 1) for times in _round_times(fns, repeat)]


def _round_times(fns, repeat):
    """Seconds of each of repeat calls of each function, one list per
    function: each round calls them all, in turn, in alternating order,
    after WARMUP untimed rounds."""
    for _ in range(WARMUP):
        for fn in fns:
            fn()
    samples = [[] for _ in fns]
    for k in range(repeat):
        for fn, times in list(zip(fns, samples))[:: 1 if k % 2 else -1]:
            t = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t)
    return samples


def time_case(name, s, p, kind, repeat, seed):
    cfg = _config(name)
    model, scenario = cfg.robot, cfg.scenario()
    tables = state_tables(model, scenario.joint_states[:s], scenario.target, scenario.gravity)
    links, force, velocity = _stack(model, tables, force_directions(scenario.target),
                                    velocity_directions(scenario.target), scenario.h_cap)
    designs = genome_rows_decode(*_designs(cfg, p, kind, seed), cfg.space)
    G = batch_muscle_jacobian(model, designs, links)
    limits = scenario.limits
    admitted, _ = _force_h(G, force, limits)
    G_admitted = G[:, admitted]
    return {
        "config": name,
        "S": s,
        "P": p,
        "designs": kind,
        "admitted": len(admitted),
        "batch_muscle_jacobian": _median_us(
            lambda: batch_muscle_jacobian(model, designs, links), repeat),
        "_force_h": _median_us(lambda: _force_h(G, force, limits), repeat),
        "_velocity_h": _median_us(lambda: _velocity_h(G_admitted, velocity, limits), repeat),
    }


def time_evaluator(name, p, kind, repeat, seed):
    """_score of P rows in each kernel pass layout: P uniform rows, or the
    last P rows of a seeded desk search at population min(P, 100)."""
    cfg = _config(name)
    model, scenario = cfg.robot, cfg.scenario()
    target = scenario.target
    tables = state_tables(model, scenario.joint_states, target, scenario.gravity)
    stack = _stack(model, tables, force_directions(target), velocity_directions(target),
                   scenario.h_cap)
    if kind == "random":
        reals, cats = _designs(cfg, p, kind, seed)
    else:
        archive = evolve(make_evaluator(model, scenario), cfg.space, min(p, 100), BUDGET, seed,
                         scenario.max_objective)
        reals, cats = archive.reals[-p:], archive.cats[-p:]
    designs = genome_rows_decode(reals, cats, cfg.space)
    layouts = {"one_pass": (stack, None),
               "screened": (_take(stack, slice(1)), _take(stack, slice(1, None)))}
    times = _medians_us([lambda passes=passes: _score(model, passes, scenario, designs)
                         for passes in layouts.values()], repeat)
    return {
        "config": name,
        "S": len(tables.q),
        "P": p,
        "designs": kind,
        "feasible": int(_score(model, layouts["one_pass"], scenario, designs)[1].sum()),
        **dict(zip(layouts, times)),
        "pick": "one_pass" if _passes(stack, designs)[1] is None else "screened",
    }


def time_state_tables(name, repeat):
    """state_tables of the first two joint states of a scenario."""
    cfg = _config(name)
    scenario = cfg.scenario()
    q = scenario.joint_states[:2]
    return {
        "config": name,
        "S": len(q),
        "gravity": scenario.gravity,
        "state_tables": _median_us(
            lambda: state_tables(cfg.robot, q, scenario.target, scenario.gravity), repeat),
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
    evaluators = [time_evaluator(*case, args.repeat, args.seed) for case in EVALUATOR_CASES]
    generations = [time_generation(*case, args.repeat, args.seed) for case in GENERATION_CASES]
    tables = [time_state_tables(name, args.repeat) for name in STATE_TABLE_CASES]
    print(json.dumps({"unit": "us", "statistic": "median", "repeat": args.repeat,
                      "seed": args.seed, "python": platform.python_version(),
                      "numpy": np.__version__, "cases": cases, "screen_rows": SCREEN_ROWS,
                      "evaluator": evaluators, "nsga2": generations,
                      "state_tables": tables}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
