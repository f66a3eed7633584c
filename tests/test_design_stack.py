"""evaluate and trace_polygon on a stack of designs against one call per
design, bit for bit.

A Design's leading axes stack designs of one shape, and evaluate scores
them all in one kernel pass. The reference is one evaluate per design, the
only form evaluate had before it took a stack: every field of each design
(feasible, e_force, e_velocity, h_force, h_velocity) must keep its bytes,
NaN where the design is pruned, and the evaluator of make_evaluator must
give the same rows the same mask and objectives.

The cases draw variable and constant designs at D = 2 and D = 3
(target1_nograv, target1_grav, constant_relaxed and the three-joint
configs of tests/data), gravity on and off, and P in {1, 3, 40} genome
rows. Each row is a row of a short seeded search, which most states admit,
or a uniform random one, which most prune, so that pruned rows sit among
the scored ones.
"""

from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tlo.arrangement import Genome, genome_decode, genome_rows_decode
from tlo.config import load_bundled_scenario, load_config
from tlo.feasibility import evaluate, make_evaluator, trace_polygon
from tlo.nsga2 import evolve

EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)
FIELDS = ("feasible", "e_force", "e_velocity", "h_force", "h_velocity")
DATA = Path(__file__).parent / "data"
CONFIGS = ("target1_nograv", "target1_grav", "constant_relaxed", "three_joint",
           "three_joint_grav", "three_joint_constant")


@cache
def searched(name):
    """A config and the last 100 genome rows of a seeded search on it
    (budget 200, population 20)."""
    cfg = load_config(DATA / f"{name}.json") if name.startswith("three") else (
        load_bundled_scenario(name))
    scenario = cfg.scenario()
    archive = evolve(make_evaluator(cfg.robot, scenario), cfg.space, 20, 200, 0,
                     scenario.max_objective)
    return cfg, archive.reals[-100:], archive.cats[-100:]


@st.composite
def cases(draw):
    """(model, scenario, space, reals, cats)."""
    cfg, reals, cats = searched(draw(st.sampled_from(CONFIGS)))
    p = draw(st.sampled_from([1, 3, 40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pick = rng.integers(len(reals), size=p)
    reals, cats = reals[pick], cats[pick]
    space, fresh = cfg.space, rng.random(p) < 0.4
    reals[fresh] = rng.random((fresh.sum(), space.n_reals))
    cats[fresh] = rng.integers(0, space.cat_cardinality, (fresh.sum(), space.n_cats))
    scenario = replace(cfg.scenario(), gravity=draw(st.booleans()))
    return cfg.robot, scenario, space, reals, cats


@EXAMPLES
@given(cases())
def test_a_stack_scores_as_one_design_at_a_time(case):
    model, scenario, space, reals, cats = case
    stack = genome_rows_decode(reals, cats, space)
    result = evaluate(model, stack, scenario)
    p, s = len(reals), len(scenario.joint_states)
    assert result.feasible.shape == result.e_force.shape == result.e_velocity.shape == (p,)
    assert result.h_force.shape == result.h_velocity.shape == (p, s, 8)
    for i in range(p):
        one = evaluate(model, genome_decode(Genome(reals[i], cats[i]), space), scenario)
        assert np.shape(one.feasible) == np.shape(one.e_force) == ()
        for field in FIELDS:
            assert getattr(result, field)[i].tobytes() == np.asarray(getattr(one, field)).tobytes()
    pruned = ~result.feasible
    for field in FIELDS[1:]:
        assert np.isnan(getattr(result, field)[pruned]).all()
        assert not np.isnan(getattr(result, field)[~pruned]).any()
    # more leading axes regroup the same bytes
    regrouped = evaluate(model, stack.reshape(1, p), scenario)
    for field in FIELDS:
        value = getattr(regrouped, field)
        assert value.shape[:2] == (1, p)
        assert value.tobytes() == getattr(result, field).tobytes()
    # the search's evaluator scores the same rows alike
    objectives, feasible = make_evaluator(model, scenario)(reals, cats)
    assert feasible.tobytes() == result.feasible.tobytes()
    scores = np.column_stack((result.e_force, result.e_velocity))
    assert objectives[feasible].tobytes() == scores[feasible].tobytes()


@EXAMPLES
@given(cases())
def test_a_stack_traces_as_one_design_at_a_time(case):
    model, scenario, space, reals, cats = case
    stack = genome_rows_decode(reals, cats, space)
    result = evaluate(model, stack, scenario)
    rows = np.flatnonzero(result.feasible)
    if not len(rows):
        return
    force, velocity = trace_polygon(model, stack[rows], result.states, scenario.limits,
                                    n_rays=16)
    assert force.shape == velocity.shape == (len(rows), len(scenario.joint_states), 16, 2)
    for k, i in enumerate(rows):
        f, v = trace_polygon(model, stack[i], result.states, scenario.limits, n_rays=16)
        assert force[k].tobytes() == f.tobytes() and velocity[k].tobytes() == v.tobytes()
