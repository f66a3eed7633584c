import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    PAPER_LENGTHS,
    PAPER_MASSES,
    all_on_base_design,
    encode_rows,
    evaluate_via_center,
    random_constant_design,
    random_variable_design,
    worked_constant_design,
)
import tlo.arrangement
import tlo.feasibility
import tlo.model
from tlo.arrangement import (
    Design,
    DesignSpace,
    Genome,
    genome_decode,
    genome_rows_decode,
    muscle_jacobian,
)
from tlo.config import load_bundled_scenario, parse_design
from tlo.feasibility import (
    DEFAULT_H_CAP,
    MIN_RAYS,
    RAY_CAP,
    SCREEN_ROWS,
    ActuatorLimits,
    Scenario,
    TargetSpec,
    evaluate,
    force_directions,
    force_h_all,
    gravity_center,
    make_evaluator,
    state_tables,
    velocity_directions,
    velocity_h_all,
)
from tlo.model import FieldError, RobotModel, forward_kinematics, gravity_torque, joint_jacobian
from tlo.nsga2 import evolve
from tlo.oracle import force_polytope_exact, ray_h, velocity_polytope_exact

Q_BENT = np.array([0.0, np.pi / 2])
GOLDEN_DESIGN = Path(__file__).parent / "data" / "golden_design.json"


def kernel_inputs(model, design, q, target, gravity=False):
    """Muscle Jacobian and state tables: what force_h_all/velocity_h_all read."""
    return muscle_jacobian(model, design, q), state_tables(model, q, target, gravity)


def force_h_one(model, design, q, target, limits, i, gravity=False, h_cap=DEFAULT_H_CAP):
    """h along force direction i alone, or None when the anchor lies outside Z."""
    G, st = kernel_inputs(model, design, q, target, gravity)
    hs = force_h_all(G, st.rhs, force_directions(target)[i : i + 1] @ st.J, limits, h_cap)
    return None if hs is None else float(hs[0])


def velocity_h_one(model, design, q, target, limits, i, h_cap=DEFAULT_H_CAP):
    """h along velocity direction i alone, or None when that LP is infeasible."""
    G, st = kernel_inputs(model, design, q, target)
    hs = velocity_h_all(G, st.J, velocity_directions(target)[i : i + 1], limits, h_cap)
    return None if hs is None else float(hs[0])


def unpruned_constant_sample(model, scenario, rng, min_det=0.05):
    """Random constant design and state pair that survives every LP."""
    while True:
        q = rng.uniform(-np.pi / 2, np.pi / 2, 2)
        if abs(np.linalg.det(joint_jacobian(model, q))) < min_det:
            continue
        design = random_constant_design(rng)
        res = evaluate(model, design, Scenario(
            scenario.limits, scenario.target, [q], scenario.gravity, scenario.h_cap))
        if res.feasible:
            return design, q, res


class TestDirections:
    def test_force_directions_formula(self, zero_center_target):
        w = force_directions(zero_center_target)
        ang = 2 * np.pi * np.arange(8) / 8
        np.testing.assert_allclose(w[:, 0], 40 * np.cos(ang), atol=1e-12)
        np.testing.assert_allclose(w[:, 1], 40 * np.sin(ang), atol=1e-12)

    def test_velocity_directions_use_velocity_radii(self):
        t = TargetSpec([0, 0], [40, 40], [2.0, 0.5], 8)
        w = velocity_directions(t)
        np.testing.assert_allclose(w[0], [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(w[2], [0.0, 0.5], atol=1e-12)


class TestForceH:
    def test_worked_example_uncapped(self, paper_model, paper_limits, zero_center_target):
        target = TargetSpec([0, 0], [1, 1], [1, 1], 8)
        h = force_h_one(
            paper_model, worked_constant_design(), Q_BENT, target, paper_limits, 0,
            h_cap=100.0,
        )
        assert h == pytest.approx(19.0 / 0.6, abs=1e-9)

    def test_worked_example_capped(self, paper_model, paper_limits):
        target = TargetSpec([0, 0], [1, 1], [1, 1], 8)
        h = force_h_one(paper_model, worked_constant_design(), Q_BENT, target, paper_limits, 0)
        assert h == 10.0

    def test_zero_g_zero_center(self, paper_model, paper_limits, zero_center_target):
        for i in range(8):
            h = force_h_one(
                paper_model, all_on_base_design(), Q_BENT, zero_center_target,
                paper_limits, i,
            )
            assert h == 0.0

    def test_gravity_unreachable_prunes(self, paper_model, paper_limits, zero_center_target):
        # a single base-only wire cannot hold any gravity torque
        design = all_on_base_design(m=1)
        assert force_h_one(
            paper_model, design, Q_BENT, zero_center_target, paper_limits, 0,
            gravity=True,
        ) is None

    def test_scale_covariance(self, paper_model, paper_limits):
        rng = np.random.default_rng(4)
        compared = 0
        for _ in range(20):
            design = random_constant_design(rng)
            q = rng.uniform(-1.2, 1.2, 2)
            t1 = TargetSpec([0, 0], [20, 20], [1, 1], 8)
            t2 = TargetSpec([0, 0], [40, 40], [1, 1], 8)
            h1 = force_h_one(paper_model, design, q, t1, paper_limits, 1, h_cap=1e9)
            h2 = force_h_one(paper_model, design, q, t2, paper_limits, 1, h_cap=1e9)
            if h1 is None or h2 is None:
                continue
            assert h2 == pytest.approx(h1 / 2, abs=1e-12)
            compared += 1
        assert compared >= 7  # 7 of the 20 draws hold their anchor in Z


class TestVelocityH:
    def test_worked_example(self, paper_model, paper_limits):
        target = TargetSpec([0, 0], [1, 1], [1, 1], 8)
        h = velocity_h_one(
            paper_model, worked_constant_design(), Q_BENT, target, paper_limits, 2,
            h_cap=100.0,
        )
        assert h == pytest.approx(2.4, abs=1e-6)

    def test_zero_g_hits_cap(self, paper_model, paper_limits, zero_center_target):
        h = velocity_h_one(
            paper_model, all_on_base_design(), Q_BENT, zero_center_target, paper_limits, 0
        )
        assert h == 10.0

    def test_homogeneity_in_radii(self, paper_model, paper_limits):
        t1 = TargetSpec([0, 0], [1, 1], [1, 1], 8)
        t2 = TargetSpec([0, 0], [1, 1], [2, 2], 8)
        h1 = velocity_h_one(paper_model, worked_constant_design(), Q_BENT, t1, paper_limits, 2,
                            h_cap=1e6)
        h2 = velocity_h_one(paper_model, worked_constant_design(), Q_BENT, t2, paper_limits, 2,
                            h_cap=1e6)
        assert h2 == pytest.approx(h1 / 2, rel=1e-9)


class TestGravityCenter:
    def test_zero_torque(self, paper_model):
        model = RobotModel([0.4, 0.6, 0.6], [0.0, 4.0, 4.0], gravity=[0.0, 0.0])
        gc = gravity_center(model, Q_BENT)
        np.testing.assert_allclose(gc.center, [0.0, 0.0], atol=1e-12)

    def test_bent_pose_solves_system(self, paper_model):
        gc = gravity_center(paper_model, Q_BENT)
        jt = joint_jacobian(paper_model, Q_BENT).T
        np.testing.assert_allclose(jt @ gc.center, gravity_torque(paper_model, Q_BENT),
                                   atol=1e-9)
        assert gc.residual < 1e-9

    def test_singular_pose_reports_residual(self, paper_model):
        gc = gravity_center(paper_model, np.zeros(2))
        # straight arm: torque has a component outside range(J^T)
        assert gc.residual > 1e-6
        # least-squares minimum-norm solution still minimizes the residual
        jt = joint_jacobian(paper_model, np.zeros(2)).T
        tau = gravity_torque(paper_model, np.zeros(2))
        rng = np.random.default_rng(0)
        for _ in range(20):
            other = gc.center + rng.normal(size=2)
            assert np.linalg.norm(jt @ other - tau) >= gc.residual - 1e-12


class TestEvaluate:
    def test_degenerate_design_exact_scores(self, paper_model, zero_center_scenario):
        res = evaluate(paper_model, all_on_base_design(), zero_center_scenario)
        assert res.feasible
        assert res.e_force == 32.0
        assert res.e_velocity == 0.0

    def test_everything_covered_scores_zero(self, paper_model, paper_limits, default_states):
        # tiny targets that any antagonist pair covers
        target = TargetSpec([0.0, 0.0], [1e-6, 1e-6], [1e-6, 1e-6], 8)
        design = worked_constant_design()
        res = evaluate(paper_model, design, Scenario(paper_limits, target, default_states))
        assert res.feasible
        assert res.e_force == 0.0
        assert res.e_velocity == 0.0

    def test_objective_bounds(self, paper_model, zero_center_scenario):
        rng = np.random.default_rng(9)
        cap = zero_center_scenario.max_objective
        for _ in range(50):
            design = random_variable_design(rng)
            res = evaluate(paper_model, design, zero_center_scenario)
            if not res.feasible:
                assert np.isnan(res.e_force) and np.isnan(res.e_velocity)
                continue
            assert 0.0 <= res.e_force <= cap
            assert 0.0 <= res.e_velocity <= cap

    def test_infeasible_result_shape(self, paper_model, paper_limits, default_states):
        target = TargetSpec([500.0, 0.0], [1.0, 1.0], [1.0, 1.0], 8)
        res = evaluate(paper_model, worked_constant_design(),
                       Scenario(paper_limits, target, default_states))
        assert not res.feasible
        assert np.isnan(res.e_force) and np.isnan(res.e_velocity)
        assert res.h_force.shape == res.h_velocity.shape == (len(default_states), 8)
        assert np.isnan(res.h_force).all() and np.isnan(res.h_velocity).all()

    def test_h_cap_invariance_exact(self, paper_model, paper_limits, default_states):
        rng = np.random.default_rng(21)
        target = TargetSpec([-20.0, 5.0], [30.0, 15.0], [0.8, 0.8], 8)
        results = []
        design_pool = [random_constant_design(rng) for _ in range(30)]
        for cap in (1.0, 10.0, 100.0):
            scen = Scenario(paper_limits, target, default_states, h_cap=cap)
            results.append(np.array([  # by bytes: a pruned design reads NaN
                (r.feasible, r.e_force, r.e_velocity)
                for r in (evaluate(paper_model, d, scen) for d in design_pool)
            ]).tobytes())
        assert results[0] == results[1] == results[2]

    def test_gravity_identity(self, paper_model, paper_limits, zero_center_target):
        rng = np.random.default_rng(13)
        count = 0
        while count < 20:
            q = rng.uniform(-np.pi / 2, np.pi / 2, 2)
            if abs(np.linalg.det(joint_jacobian(paper_model, q))) < 0.05:
                continue
            design = random_constant_design(rng)
            scen = Scenario(paper_limits, zero_center_target, [q], gravity=True)
            via_torque = evaluate(paper_model, design, scen)
            via_center = evaluate_via_center(paper_model, design, scen)
            assert via_torque.feasible == via_center.feasible
            if via_torque.feasible:
                assert via_torque.e_force == pytest.approx(via_center.e_force, abs=1e-9)
                assert via_torque.e_velocity == via_center.e_velocity
            count += 1

    def test_monotone_in_tension_ceiling(self, paper_model, zero_center_target, default_states):
        rng = np.random.default_rng(17)
        lo = ActuatorLimits(10.0, 200.0, -0.4, 0.4)
        hi = ActuatorLimits(10.0, 400.0, -0.4, 0.4)
        cap = 1e6
        checked = 0
        while checked < 10:
            design = random_constant_design(rng)
            q = rng.uniform(-1.2, 1.2, 2)
            G, st = kernel_inputs(paper_model, design, q, zero_center_target)
            cols = force_directions(zero_center_target) @ st.J
            h_lo = force_h_all(G, st.rhs, cols, lo, cap)
            h_hi = force_h_all(G, st.rhs, cols, hi, cap)
            if h_lo is None or h_hi is None:
                continue
            assert all(b >= a - 1e-9 for a, b in zip(h_lo, h_hi))
            checked += 1


def reference_scores(model, scenario, design):
    """(e_force, e_velocity) of one design from a plain loop over the states
    and the public kernels, or (None, k) when state k prunes it."""
    h_force, h_velocity = [], []
    for k, q in enumerate(scenario.joint_states):
        st = state_tables(model, q, scenario.target, scenario.gravity)
        G = muscle_jacobian(model, design, q)
        hf = force_h_all(G, st.rhs, force_directions(scenario.target) @ st.J, scenario.limits,
                         scenario.h_cap)
        hv = None if hf is None else velocity_h_all(G, st.J, velocity_directions(scenario.target),
                                                    scenario.limits, scenario.h_cap)
        if hv is None:
            return None, k
        h_force.append(hf)
        h_velocity.append(hv)
    return (sum(np.maximum(1.0 - hf, 0.0).sum() for hf in h_force),
            sum(np.maximum(1.0 - hv, 0.0).sum() for hv in h_velocity))


def random_genome_rows(space, n, rng):
    """n random genomes; every third has its fractions rounded to 0 or 1,
    which makes coincident relay points and so degenerate wire segments."""
    reals = rng.random((n, space.n_reals))
    reals[::3] = reals[::3].round()
    cats = rng.integers(0, space.cat_cardinality, (n, space.n_cats))
    return reals, cats


def searched_genome_rows(model, scenario, space, n):
    """The last n genomes of a short seeded search, where most designs pass
    the first state, every third with its fractions rounded to 0 or 1, then
    every searched genome that the reference loop prunes after state 0."""
    archive = evolve(make_evaluator(model, scenario), space, 40, n + 400, 0,
                     scenario.max_objective)
    reals, cats = archive.reals[-n:].copy(), archive.cats[-n:]
    reals[::3] = reals[::3].round()
    scores = [reference_scores(model, scenario, genome_decode(Genome(r, c), space))
              for r, c in zip(archive.reals, archive.cats)]
    later = [i for i, (e_force, state) in enumerate(scores) if e_force is None and state > 0]
    return (np.concatenate([reals, archive.reals[later]]),
            np.concatenate([cats, archive.cats[later]]))


def check_batch_identity(model, scenario, space, reals, cats):
    """One batch call scores every row bit for bit as one call per row, as
    evaluate and as the reference loop; returns the state index of each
    pruned row. A batch of more than SCREEN_ROWS rows is screened and a row
    alone is not, so both kernel layouts score every row: a smaller batch
    is also scored tiled past SCREEN_ROWS."""
    evaluator = make_evaluator(model, scenario)
    designs = genome_rows_decode(reals, cats, space)
    objectives, feasible = evaluator(designs)
    assert objectives.shape == (len(reals), 2) and feasible.shape == (len(reals),)
    if len(reals) <= SCREEN_ROWS:
        tiled = np.arange(SCREEN_ROWS + 1) % len(reals)
        for a, b in zip(evaluator(designs[tiled]), (objectives, feasible)):
            assert a.tobytes() == b[tiled].tobytes()
    pruned_at = []
    for i in range(len(reals)):
        one, one_feasible = evaluator(designs[i : i + 1])
        design = genome_decode(Genome(reals[i], cats[i]), space)
        result = evaluate(model, design, scenario)
        ref = reference_scores(model, scenario, design)
        assert feasible[i] == one_feasible[0] == result.feasible == (ref[0] is not None), i
        if ref[0] is None:
            pruned_at.append(ref[1])
            continue
        bits = objectives[i].view(np.uint64).tolist()
        assert bits == one[0].view(np.uint64).tolist(), i
        assert bits == np.array([result.e_force, result.e_velocity]).view(np.uint64).tolist(), i
        assert bits == np.array(ref, dtype=float).view(np.uint64).tolist(), i
    return pruned_at


def three_joint_pruned_at(middle):
    """check_batch_identity on 24 random three-joint designs at the states
    (20, 30, 30), middle and (60, 10, -20) degrees."""
    model = RobotModel([0.4, 0.4, 0.4, 0.4], [0.0, 4.0, 4.0, 4.0],
                       moment_arm_ranges=[[-0.1, 0.1]] * 3)
    limits = ActuatorLimits(10.0, 200.0, -0.4, 0.4)
    target = TargetSpec([0.0, 0.0], [20.0, 15.0], [0.6, 0.6], 8)
    scenario = Scenario(limits, target, [np.deg2rad([20, 30, 30]), np.deg2rad(middle),
                                         np.deg2rad([60, 10, -20])])
    rng = np.random.default_rng(3)
    pruned_at = []
    for space in (DesignSpace("variable", 4, 3, 3), DesignSpace("constant", 5, None, 3)):
        reals, cats = random_genome_rows(space, 12, rng)
        pruned_at += check_batch_identity(model, scenario, space, reals, cats)
    return pruned_at


class TestBatchEvaluator:
    # the searches of target1_nograv prune at its first state only
    @pytest.mark.parametrize("name, later_prunes", [
        ("target1_nograv", False), ("target1_grav", True), ("target2_nograv", True),
        ("constant_relaxed", True)])
    def test_batch_equals_one_design_at_a_time(self, name, later_prunes):
        cfg = load_bundled_scenario(name)
        scenario = cfg.scenario()
        reals, cats = searched_genome_rows(cfg.robot, scenario, cfg.space, 200)
        pruned_at = check_batch_identity(cfg.robot, scenario, cfg.space, reals, cats)
        assert 0 < len(pruned_at) < len(reals)
        if later_prunes:  # a design dropped at a later state, after passing the first
            assert max(pruned_at) > 0

    # random rows, as a screening run scores them: most fail the first state
    @pytest.mark.parametrize("name, later_prunes", [
        ("target1_nograv", False), ("target2_nograv", True)])
    def test_screen_shaped_batch(self, name, later_prunes):
        cfg = load_bundled_scenario(name)
        reals, cats = random_genome_rows(cfg.space, 500, np.random.default_rng(0))
        pruned_at = check_batch_identity(cfg.robot, cfg.scenario(), cfg.space, reals, cats)
        assert 0 < len(pruned_at) < len(reals)
        assert 0 in pruned_at
        assert (max(pruned_at) > 0) == later_prunes

    def test_singular_state_after_regular_ones(self):
        # with gravity the force slack differs per state, and at q = (0, 0)
        # J is exactly singular: the screened batch's second pass and every
        # one-row pass stack a regular state and one whose velocity h comes
        # from the singular branch
        cfg = load_bundled_scenario("constant_relaxed")
        base = cfg.scenario()
        states = [np.deg2rad([30.0, 45.0]), np.deg2rad([60.0, 75.0]), np.zeros(2)]
        scenario = Scenario(base.limits, base.target, states, True, base.h_cap)
        assert [np.linalg.det(joint_jacobian(cfg.robot, q)) == 0 for q in states] == [
            False, False, True]
        reals, cats = random_genome_rows(cfg.space, 200, np.random.default_rng(1))
        searched = searched_genome_rows(cfg.robot, scenario, cfg.space, 200)
        reals, cats = np.concatenate([reals, searched[0]]), np.concatenate([cats, searched[1]])
        assert len(reals) > SCREEN_ROWS
        pruned_at = check_batch_identity(cfg.robot, scenario, cfg.space, reals, cats)
        assert 0 < len(pruned_at) < len(reals)
        assert set(pruned_at) == {0, 1, 2}

    def test_slack_of_each_state_in_a_stack(self, paper_model):
        # the gravity torque of state 2 lies outside the torque zonotope by
        # more than its own phase-1 allowance, 1e-9 |tau_2|_inf, and by less
        # than that of state 1, which every pass that scores state 2 stacks
        # with it: the design's own one, and the second of its tiled batch
        states = [np.deg2rad(q) for q in ([30.0, 45.0], [15.0, 30.0], [60.0, 75.0])]
        tau = [gravity_torque(paper_model, q) for q in states]
        allowance = [1e-9 * np.abs(t).max() for t in tau]
        assert allowance[2] < allowance[1]
        # arms (0.1, 0), (0, 0.1), (0, -0.1): the zonotope's x range starts at 0.1 f_min
        design = Design(None, [[1.0, 0.5], [0.5, 1.0], [0.5, 0.0]])
        f_min = (tau[2][0] + 0.5 * (allowance[1] + allowance[2])) / 0.1
        scenario = Scenario(ActuatorLimits(f_min, 1000.0, -0.4, 0.4),
                            TargetSpec([0.0, 0.0], [20.0, 20.0], [0.5, 0.5], 8), states, True)
        reals, cats = encode_rows([design])
        assert check_batch_identity(paper_model, scenario, DesignSpace("constant", 3, None, 2),
                                    reals, cats) == [2]

    def test_three_joint_robot(self):
        # D = 3: force is clipped against Z and velocity bounded by the LP
        # dual, both on the whole stack; three states put a stack of two
        # states through the second pass of each batch's tiled call
        assert 0 < len(three_joint_pruned_at([40, 20, 10])) < 24

    def test_three_joint_robot_at_a_straight_arm(self):
        # at q = 0 J has rank 1, so every pass of states 1-2 stacks the dual clip's two ranks
        assert 0 < len(three_joint_pruned_at([0, 0, 0])) < 24

    def test_poses_are_built_once_per_evaluator(self, monkeypatch):
        # every module that looks forward_kinematics up is wrapped, so a call
        # through joint_jacobian, gravity_torque or gravity_center counts too
        calls = []
        for module in (tlo.model, tlo.feasibility, tlo.arrangement):
            monkeypatch.setattr(module, "forward_kinematics",
                                lambda *args: calls.append(args) or forward_kinematics(*args))
        for name, design in (("target1_grav", "golden_design_grav.json"),
                             ("target1_nograv", "golden_design.json")):
            cfg = load_bundled_scenario(name)
            scenario = cfg.scenario()
            calls.clear()
            evaluator = make_evaluator(cfg.robot, scenario)
            # one stacked call on all S states; the tables, the anchors and
            # each kernel pass's link tables read its pose
            assert len(calls) == 1, name
            np.testing.assert_array_equal(calls[0][1], scenario.joint_states)
            designs = genome_rows_decode(
                *random_genome_rows(cfg.space, SCREEN_ROWS + 1, np.random.default_rng(0)), cfg.space)
            calls.clear()
            assert evaluator(designs[:-1])[1].any()  # one pass
            assert evaluator(designs)[1].any()  # screened
            assert not calls, name
            # a report's evaluate, rays and all, builds one stack too
            design = parse_design(json.loads((GOLDEN_DESIGN.parent / design).read_text()), cfg)
            assert evaluate(cfg.robot, design, scenario, MIN_RAYS).feasible
            assert len(calls) == 1, name
            np.testing.assert_array_equal(calls[0][1], scenario.joint_states)

    def test_empty_batches_and_malformed_genes(self, paper_model, zero_center_scenario):
        # the evaluator scores an empty stack of either family; genes that
        # make no design of the space never reach it: the codec refuses them
        evaluator = make_evaluator(paper_model, zero_center_scenario)
        variable, constant = DesignSpace("variable", 3, 2, 2), DesignSpace("constant", 3, None, 2)
        for space in (variable, constant):
            designs = genome_rows_decode(np.empty((0, space.n_reals)),
                                         np.empty((0, space.n_cats), dtype=np.int64), space)
            objectives, feasible = evaluator(designs)
            assert objectives.shape == (0, 2) and feasible.shape == (0,)
        with pytest.raises(ValueError, match="scores a \\(P,\\) stack"):
            evaluator(designs[0:0].reshape(0, 1))
        for n_reals, n_cats, space in ((7, 2, variable), (5, 0, constant)):
            with pytest.raises(ValueError, match="genome length mismatch"):
                genome_rows_decode(np.full((1, n_reals), 0.5),
                                   np.zeros((1, n_cats), dtype=np.int64), space)
        with pytest.raises(ValueError, match=r"relay fractions must lie in \[0, 1\]"):
            genome_rows_decode(np.full((1, 6), 1.5), np.zeros((1, 3), dtype=np.int64), variable)


class TestOracleAgreement:
    def test_constant_designs_match_geometry(self, paper_model, paper_limits,
                                             zero_center_target):
        rng = np.random.default_rng(23)
        scen = Scenario(paper_limits, zero_center_target, [np.zeros(2)])
        wf = force_directions(zero_center_target)
        wv = velocity_directions(zero_center_target)
        done = 0
        while done < 25:
            design, q, res = unpruned_constant_sample(paper_model, scen, rng)
            G = muscle_jacobian(paper_model, design, q)
            J = joint_jacobian(paper_model, q)
            fp = force_polytope_exact(G, J, paper_limits.f_min, paper_limits.f_max)
            vp = velocity_polytope_exact(G, J, paper_limits.ldot_min, paper_limits.ldot_max)
            for i in range(8):
                ref = min(ray_h(fp, zero_center_target.force_center, wf[i]), scen.h_cap)
                assert res.h_force[0][i] == pytest.approx(ref, abs=1e-6)
                ref = min(ray_h(vp, np.zeros(2), wv[i]), scen.h_cap)
                assert res.h_velocity[0][i] == pytest.approx(ref, abs=1e-6)
            done += 1


class TestTracePolygon:
    """The force and velocity boundaries that evaluate(..., n_rays) traces."""

    def test_polygon_on_zonotope_boundary(self, paper_model, paper_limits, zero_center_target):
        design = worked_constant_design()
        scenario = Scenario(paper_limits, zero_center_target, Q_BENT[None])
        (poly,) = evaluate(paper_model, design, scenario, n_rays=64).force_boundary
        G = muscle_jacobian(paper_model, design, Q_BENT)
        J = joint_jacobian(paper_model, Q_BENT)
        zono = force_polytope_exact(G, J, paper_limits.f_min, paper_limits.f_max)
        for p in poly:
            assert zono.contains(p, tol=1e-6)
            # each traced point sits on the boundary: pushing outward leaves the set
            d = p - poly.mean(axis=0)
            assert not zono.contains(p + 1e-4 * d / np.linalg.norm(d), tol=1e-9)

    def test_gravity_polygon_on_zonotope_boundary(self):
        # rays leave the gravity center with rhs = tau_g and end on the
        # boundary of the same tip-force zonotope
        cfg = load_bundled_scenario("target1_grav")
        scen = cfg.scenario()
        q = scen.joint_states[0]
        scenario = replace(scen, joint_states=q[None], gravity=True)
        rng = np.random.default_rng(0)
        while True:
            design = random_variable_design(rng, m=4, n=3)
            result = evaluate(cfg.robot, design, scenario, n_rays=32)
            if not result.feasible:
                continue
            break
        state = result.states
        assert state.residual[0] < 1e-9
        (poly,) = result.force_boundary
        G = muscle_jacobian(cfg.robot, design, q)
        zono = force_polytope_exact(G, state.J[0], scen.limits.f_min, scen.limits.f_max)
        assert zono.contains(state.anchor[0], tol=1e-6)
        ang = 2 * np.pi * np.arange(32) / 32
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        for p, d in zip(poly, dirs):
            assert zono.contains(p, tol=1e-6)
            assert not zono.contains(p + 1e-4 * d, tol=1e-9)

    def test_velocity_rays_end_at_the_formal_box(self, paper_model, paper_limits,
                                                  zero_center_target):
        # with G = 0 no wire speed binds, so a ray stops where some |qdot_k|
        # reaches the 1e6 formal box, h = 1e6 / max_k |(J^-1 d)_k|, or at
        # RAY_CAP; the box binds wherever max_k |(J^-1 d)_k| > 1
        ang = 2 * np.pi * np.arange(64) / 64
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        for q in (Q_BENT, np.array([0.3, 1e-3]), np.array([-1.0, np.pi - 1e-3])):
            result = evaluate(paper_model, all_on_base_design(),
                              Scenario(paper_limits, zero_center_target, q[None]), n_rays=64)
            (poly,) = result.velocity_boundary
            reach = np.abs(np.linalg.solve(result.states.J[0], dirs.T)).max(axis=0)
            expected = np.minimum(1e6 / reach, RAY_CAP)
            np.testing.assert_allclose(np.sum(poly * dirs, axis=1), expected, rtol=1e-9)
            assert np.any(reach > 1)
            if q is Q_BENT:
                assert np.any(reach < 1)  # and some rays run to RAY_CAP

    def test_velocity_rays_at_singular_j(self, paper_limits):
        # an exactly singular J: only rays along its range move, as far as the
        # formal box lets qdot go; every other ray has h = 0
        J = np.array([[1.0, 2.0], [0.5, 1.0]])
        hs = velocity_h_all(np.zeros((3, 2)), J, np.array([[1.0, 0.5], [0.0, 1.0]]),
                            paper_limits, 1e7)
        assert hs.tolist() == [3e6, 0.0]

    def test_degenerate_force_polygon_is_point(self, paper_model, paper_limits,
                                               zero_center_target):
        scenario = Scenario(paper_limits, zero_center_target, Q_BENT[None])
        (poly,) = evaluate(paper_model, all_on_base_design(), scenario, n_rays=16).force_boundary
        assert np.max(np.ptp(poly, axis=0)) < 1e-9

    def test_convexity_random_designs(self, paper_model, paper_limits, zero_center_target):
        rng = np.random.default_rng(31)
        done = 0
        while done < 20:
            design = random_constant_design(rng)
            q = rng.uniform(-1.2, 1.2, (1, 2))
            scenario = Scenario(paper_limits, zero_center_target, q)
            result = evaluate(paper_model, design, scenario, n_rays=32)
            if not result.feasible:
                continue
            (poly,) = result.force_boundary
            if np.max(np.ptp(poly, axis=0)) < 1e-9:
                continue
            nxt = np.roll(poly, -1, axis=0)
            e1 = nxt - poly
            e2 = np.roll(nxt, -1, axis=0) - poly
            cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            scale = np.abs(poly).max() ** 2
            assert np.all(cross >= -1e-7 * scale)
            done += 1

    def test_states_trace_together_as_one_by_one(self):
        # one pass over every state draws each state's boundaries bit for bit
        # as a pass over that state alone
        cfg = load_bundled_scenario("target1_nograv")
        scen = cfg.scenario()
        design = parse_design(json.loads(GOLDEN_DESIGN.read_text()), cfg)
        q = scen.joint_states
        result = evaluate(cfg.robot, design, scen, n_rays=16)
        assert result.force_boundary.shape == result.velocity_boundary.shape == (len(q), 16, 2)
        for k in range(len(q)):
            one = evaluate(cfg.robot, design, replace(scen, joint_states=q[k : k + 1]), n_rays=16)
            np.testing.assert_array_equal(result.force_boundary[k], one.force_boundary[0])
            np.testing.assert_array_equal(result.velocity_boundary[k], one.velocity_boundary[0])

    def test_unreachable_anchor_at_one_state_prunes(self, paper_limits, zero_center_target):
        # with every relay point on the base G = 0, which holds no gravity
        # torque; gravity along the straight arm of the first state exerts none
        model = RobotModel(PAPER_LENGTHS, PAPER_MASSES, gravity=[-9.81, 0.0])
        q = np.array([[0.0, 0.0], Q_BENT])
        free, both = (evaluate(model, all_on_base_design(),
                               Scenario(paper_limits, zero_center_target, s, gravity=True), 64)
                      for s in (q[:1], q))
        assert free.states.rhs.tolist() == [[0.0, 0.0]]
        assert free.feasible and not np.isnan(free.force_boundary).any()
        assert not both.feasible
        assert both.force_boundary.shape == both.velocity_boundary.shape == (2, 64, 2)
        assert np.isnan(both.force_boundary).all() and np.isnan(both.velocity_boundary).all()

    def test_ray_count_validation(self, paper_model, paper_limits, zero_center_target):
        scenario = Scenario(paper_limits, zero_center_target, Q_BENT[None])
        with pytest.raises(ValueError):
            evaluate(paper_model, all_on_base_design(), scenario, n_rays=4)

    def test_evaluate_traces_no_rays_or_at_least_min_rays(self, paper_model,
                                                          zero_center_scenario):
        design = all_on_base_design()
        result = evaluate(paper_model, design, zero_center_scenario)
        states = len(zero_center_scenario.joint_states)
        assert result.force_boundary.shape == result.velocity_boundary.shape == (states, 0, 2)
        for n_rays in (-1, 1, MIN_RAYS - 1):
            with pytest.raises(ValueError):
                evaluate(paper_model, design, zero_center_scenario, n_rays)


class TestValidation:
    """NaN and infinities fail the constructors' checks, as out-of-range values do."""

    @pytest.mark.parametrize("center, force_radii, velocity_radii", [
        ([np.nan, 0.0], [1.0, 1.0], [1.0, 1.0]),
        ([0.0, np.inf], [1.0, 1.0], [1.0, 1.0]),
        ([0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.inf], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, 1.0], [1.0, np.nan]),
        ([0.0, 0.0], [1.0, 1.0], [np.inf, 1.0]),
        ([0.0, 0.0], [0.0, 1.0], [1.0, 1.0]),
    ])
    def test_target(self, center, force_radii, velocity_radii):
        with pytest.raises(ValueError):
            TargetSpec(center, force_radii, velocity_radii, 8)

    def test_target_directions(self):
        with pytest.raises(ValueError, match="need at least 3 ellipse directions"):
            TargetSpec([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], 2)

    @pytest.mark.parametrize("vectors, key", [
        (([0, 0], [1, 2, 3], [1, 1]), "force_radii"),
        (([0, 0], [[1], [2]], [1, 1]), "force_radii"),
        (([0], [1, 1], [1, 1]), "force_center"),
        (([0, 0], [1, 1], 1.0), "velocity_radii"),
    ])
    def test_target_vectors_are_two_numbers(self, vectors, key):
        with pytest.raises(FieldError) as err:
            TargetSpec(*vectors)
        assert (err.value.path, str(err.value)) == ((key,), f"{key} must be two numbers")

    @pytest.mark.parametrize("n", [8.5, 8.0, True, "8"])
    def test_target_directions_are_an_integer(self, n):
        with pytest.raises(FieldError) as err:
            TargetSpec([0, 0], [1, 1], [1, 1], n)
        assert (err.value.path, str(err.value)) == (("directions",), "expected an integer")

    def test_target_directions_may_be_a_numpy_integer(self):
        target = TargetSpec([0, 0], [1, 1], [1, 1], np.int32(5))
        assert type(target.n_directions) is int and target.n_directions == 5
        assert len(force_directions(target)) == 5

    @pytest.mark.parametrize("limits", [(10.0, np.inf, -0.4, 0.4), (10.0, 200.0, -np.inf, 0.4),
                                        (10.0, 200.0, -0.4, np.inf), (np.nan, 200.0, -0.4, 0.4)])
    def test_limits(self, limits):
        with pytest.raises(ValueError):
            ActuatorLimits(*limits)

    @pytest.mark.parametrize("h_cap", [np.nan, np.inf, 0.5])
    def test_h_cap(self, paper_limits, zero_center_target, h_cap):
        with pytest.raises(ValueError, match="h_cap"):
            Scenario(paper_limits, zero_center_target, [Q_BENT], h_cap=h_cap)

    def test_joint_states(self, paper_limits, zero_center_target):
        with pytest.raises(ValueError, match="joint states"):
            Scenario(paper_limits, zero_center_target, [Q_BENT, [0.3, np.nan]])

    @pytest.mark.parametrize("joint_states", [[[0.1, 0.2], [0.3]], [0.1, 0.2], [], [[]],
                                              np.zeros((1, 2, 2))])
    def test_malformed_joint_states(self, paper_limits, zero_center_target, joint_states):
        # ragged, one state without its stack axis, no state, no joint, one axis too many
        with pytest.raises(ValueError, match="joint states"):
            Scenario(paper_limits, zero_center_target, joint_states)
