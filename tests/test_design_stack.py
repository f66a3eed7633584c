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

A batch of more than SCREEN_ROWS rows is screened on state 0 before the
later states, a smaller one takes every state in one pass; that changes
the cost of a call and never its bytes: every bundled scenario and
tests/data config scores bred, mixed and random rows, P in {1, 2, 40, 100,
500}, alike in one call past SCREEN_ROWS and in calls of at most
SCREEN_ROWS rows.
"""

from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlo.feasibility
from tlo.arrangement import Genome, batch_muscle_jacobian, genome_decode, genome_rows_decode
from tlo.config import load_bundled_scenario, load_config
from tlo.feasibility import (MIN_RAYS, SCREEN_ROWS, evaluate, force_directions, make_evaluator,
                             trace_polygon, velocity_directions)
from tlo.nsga2 import evolve

EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)
FIELDS = ("feasible", "e_force", "e_velocity", "h_force", "h_velocity")
DATA = Path(__file__).parent / "data"
CONFIGS = ("target1_nograv", "target1_grav", "constant_relaxed", "three_joint",
           "three_joint_grav", "three_joint_constant")
EVERY_CONFIG = ("target1_nograv", "target1_grav", "target2_nograv", "constant_relaxed",
                *(path.stem for path in sorted(DATA.glob("*.json"))
                  if not path.stem.startswith("golden")))


@cache
def searched(name):
    """A config and the last 100 genome rows of a seeded search on it
    (budget 200, population 20)."""
    path = DATA / f"{name}.json"
    cfg = load_config(path) if path.exists() else load_bundled_scenario(name)
    scenario = cfg.scenario()
    archive = evolve(make_evaluator(cfg.robot, scenario), cfg.space, 20, 200, 0,
                     scenario.max_objective)
    return cfg, archive.reals[-100:], archive.cats[-100:]


@st.composite
def cases(draw, configs=CONFIGS, sizes=(1, 3, 40), shares=st.just(0.4)):
    """(model, scenario, space, reals, cats): P of sizes searched rows, a
    share of them, drawn from shares, replaced by random ones."""
    cfg, reals, cats = searched(draw(st.sampled_from(configs)))
    p = draw(st.sampled_from(sizes))
    share = draw(shares)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pick = rng.integers(len(reals), size=p)
    reals, cats = reals[pick], cats[pick]
    space, fresh = cfg.space, rng.random(p) < share
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases(EVERY_CONFIG, (1, 3, 40, 250), st.sampled_from([0.0, 0.4, 1.0])),
       st.sampled_from([MIN_RAYS, 64, 100]))
def test_a_report_pass_equals_evaluate_then_trace_polygon(case, n_rays):
    """evaluate(..., n_rays) scores and traces in one pass what evaluate and
    trace_polygon give in two, bit for bit: its boundary rays, capped at
    RAY_CAP, change no score, and sharing the pass with the ellipse
    directions, capped at h_cap, changes no boundary point. Past
    SCREEN_ROWS the rays ride the screen's two passes."""
    model, scenario, space, reals, cats = case
    stack = genome_rows_decode(reals, cats, space)
    report = evaluate(model, stack, scenario, n_rays)
    scored = evaluate(model, stack, scenario)
    for field in FIELDS:
        assert getattr(report, field).tobytes() == getattr(scored, field).tobytes()
    shape = (len(reals), len(scenario.joint_states), n_rays, 2)
    assert report.force_boundary.shape == report.velocity_boundary.shape == shape
    rows = np.flatnonzero(scored.feasible)
    traced = (trace_polygon(model, stack[rows], scored.states, scenario.limits, n_rays)
              if len(rows) else (np.empty((0,) + shape[1:]),) * 2)
    for boundary, expected in zip((report.force_boundary, report.velocity_boundary), traced):
        assert boundary[rows].tobytes() == expected.tobytes()
        assert np.isnan(np.delete(boundary, rows, axis=0)).all()
    one = evaluate(model, stack[0], scenario, n_rays)  # a design with no leading axes
    assert one.force_boundary.tobytes() == report.force_boundary[0].tobytes()
    assert one.velocity_boundary.tobytes() == report.velocity_boundary[0].tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases(EVERY_CONFIG, (1, 2, 40, 100, 500), st.sampled_from([0.0, 0.4, 1.0])))
def test_the_screen_changes_no_byte(case):
    model, scenario, space, reals, cats = case
    evaluator = make_evaluator(model, scenario)
    rows = np.arange(max(len(reals), SCREEN_ROWS + 1)) % len(reals)
    reals, cats = reals[rows], cats[rows]
    screened = evaluator(reals, cats)
    parts = [evaluator(reals[i : i + SCREEN_ROWS], cats[i : i + SCREEN_ROWS])
             for i in range(0, len(reals), SCREEN_ROWS)]
    for a, b in zip(screened, map(np.concatenate, zip(*parts))):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, states", [("target1_nograv", 4), ("three_joint_constant", 2),
                                          ("target1_nograv", 1)])
def test_the_batch_size_picks_the_passes(name, states, monkeypatch):
    # searched rows, which state 0 admits; at one state no later state is
    # left, and constant designs take one pass at any size
    cfg, reals, cats = searched(name)
    scenario = cfg.scenario()
    scenario = replace(scenario, joint_states=scenario.joint_states[:states])
    calls = []
    monkeypatch.setattr(tlo.feasibility, "batch_muscle_jacobian",
                        lambda *args: calls.append(args) or batch_muscle_jacobian(*args))
    evaluator = make_evaluator(cfg.robot, scenario)
    rows = np.arange(SCREEN_ROWS + 1) % len(reals)
    screened = 1 if states == 1 or cfg.space.kind == "constant" else 2
    for n, passes in ((SCREEN_ROWS, 1), (SCREEN_ROWS + 1, screened)):
        designs = genome_rows_decode(reals[rows[:n]], cats[rows[:n]], cfg.space)
        calls.clear()
        assert evaluator(reals[rows[:n]], cats[rows[:n]])[1].any()
        assert len(calls) == passes, n
        calls.clear()  # evaluate follows the same rule
        evaluate(cfg.robot, designs, scenario)
        assert len(calls) == passes, n


@pytest.mark.parametrize("name", ["constant_relaxed", "three_joint_constant"])
def test_constant_designs_take_one_pass_at_any_size(name, monkeypatch):
    """A 500-row batch of constant designs, searched and random rows, takes
    one kernel pass over every state, with the bytes of the screen's two."""
    cfg, reals, cats = searched(name)
    rng = np.random.default_rng(0)
    rows = rng.integers(len(reals), size=500)
    reals, cats = reals[rows], cats[rows]
    fresh = rng.random(500) < 0.4
    reals[fresh] = rng.random((fresh.sum(), cfg.space.n_reals))
    scenario = cfg.scenario()
    designs = genome_rows_decode(reals, cats, cfg.space)
    tables = tlo.feasibility.state_tables(cfg.robot, scenario.joint_states, scenario.target,
                                          scenario.gravity)
    stack = tlo.feasibility._stack(cfg.robot, tables, force_directions(scenario.target),
                                   velocity_directions(scenario.target), scenario.h_cap)
    screen = (tlo.feasibility._take(stack, slice(1)), tlo.feasibility._take(stack, slice(1, None)))
    expected = tlo.feasibility._score(cfg.robot, screen, scenario, designs)
    calls = []
    pass_ = tlo.feasibility._pass
    monkeypatch.setattr(tlo.feasibility, "_pass",
                        lambda *args: calls.append(len(args[2].fractions)) or pass_(*args))
    objectives, feasible = make_evaluator(cfg.robot, scenario)(reals, cats)
    assert calls == [500]
    assert 0 < feasible.sum() < 500
    assert feasible.tobytes() == expected[1].tobytes()
    assert objectives[feasible].tobytes() == expected[0][feasible].tobytes()
