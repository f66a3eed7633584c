"""The evaluator's feasible mask is "the force anchor lies in the torque
zonotope Z at every state", decided again without the kernels.

On every bundled scenario and tests/data config, two kinds of genome rows
are scored: uniform random ones, which most states prune, and the last rows
of a short seeded search, which most admit. Each kind is scored as one
batch of SCREEN_ROWS + 1 rows, which the evaluator screens on state 0
first, and its first 40 rows as a batch that takes one pass over every
state. Each row's feasibility is then decided state by state from its G:
- by the reference simplex of tests/reference_lp.py on the force LP with a
  zero direction column, -G^T f - h 0 = rhs with f in the tension box,
  which is feasible exactly when some tension holds rhs (any D);
- by the exact tip-force polygon of tlo.oracle, which must contain the
  anchor, where D = 2 and J is regular.
"""

from functools import cache
from pathlib import Path

import numpy as np
import pytest

from reference_lp import LinearProgram, solve_lp_max
from tlo.arrangement import genome_rows_decode, muscle_jacobian
from tlo.config import load_bundled_scenario, load_config
from tlo.feasibility import SCREEN_ROWS, make_evaluator, state_tables
from tlo.nsga2 import evolve
from tlo.oracle import force_polytope_exact

DATA = Path(__file__).parent / "data"
EVERY_CONFIG = ("target1_nograv", "target1_grav", "target2_nograv", "constant_relaxed",
                *(path.stem for path in sorted(DATA.glob("*.json"))
                  if not path.stem.startswith("golden")))
ROWS = SCREEN_ROWS + 1
ONE_PASS = 40


@cache
def config(name):
    path = DATA / f"{name}.json"
    return load_config(path) if path.exists() else load_bundled_scenario(name)


def genome_rows(name, kind):
    """ROWS uniform random rows, or the last ROWS rows of a seeded search
    (population 40)."""
    cfg = config(name)
    space = cfg.space
    if kind == "random":
        rng = np.random.default_rng(0)
        return (rng.random((ROWS, space.n_reals)),
                rng.integers(0, space.cat_cardinality, (ROWS, space.n_cats)))
    scenario = cfg.scenario()
    archive = evolve(make_evaluator(cfg.robot, scenario), space, 40, ROWS + 200, 0,
                     scenario.max_objective)
    return archive.reals[-ROWS:], archive.cats[-ROWS:]


def simplex_holds(G, rhs, limits):
    """Whether the force LP of a zero direction column is feasible."""
    m, d = G.shape
    lp = LinearProgram(objective=[1.0] + [0.0] * m, a_eq=np.column_stack([np.zeros(d), -G.T]),
                       b_eq=rhs, lower=[0.0] + [limits.f_min] * m,
                       upper=[np.inf] + [limits.f_max] * m)
    return solve_lp_max(lp).status != "infeasible"


def regular(J):
    return J.shape == (2, 2) and abs(np.linalg.det(J)) >= 1e-12 and np.linalg.cond(J) <= 1e6


def oracle_holds(G, J, anchor, limits):
    """Whether the exact tip-force polygon contains the anchor."""
    poly = force_polytope_exact(G, J, limits.f_min, limits.f_max)
    return poly.contains(anchor, tol=1e-9 * (1.0 + np.abs(poly.vertices).max()))


@pytest.mark.parametrize("kind", ["random", "bred"])
@pytest.mark.parametrize("name", EVERY_CONFIG)
def test_feasible_exactly_where_the_anchor_lies_in_z(name, kind):
    cfg = config(name)
    model, scenario = cfg.robot, cfg.scenario()
    limits = scenario.limits
    reals, cats = genome_rows(name, kind)
    evaluator = make_evaluator(model, scenario)
    feasible = evaluator(reals, cats)[1]
    one_pass = evaluator(reals[:ONE_PASS], cats[:ONE_PASS])[1]
    assert one_pass.tolist() == feasible[:ONE_PASS].tolist()
    tables = state_tables(model, scenario.joint_states, scenario.target, scenario.gravity)
    designs = genome_rows_decode(reals, cats, cfg.space)
    by_simplex, by_oracle = [], 0
    for i in range(ROWS):
        holds = []
        for q, J, rhs, anchor in zip(tables.q, tables.J, tables.rhs, tables.anchor):
            G = muscle_jacobian(model, designs[i], q)
            holds.append(simplex_holds(G, rhs, limits))
            if regular(J):
                assert oracle_holds(G, J, anchor, limits) == holds[-1], (i, q)
                by_oracle += 1
        by_simplex.append(all(holds))
    assert feasible.tolist() == by_simplex
    assert by_oracle or model.n_joints != 2
