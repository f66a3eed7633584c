"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Desk-scale trend checks (criteria 6-8) use the bundled
target1_nograv scenario with fixed seeds, mirroring the experiment matrix
at a budget that keeps the whole gate under a few minutes.
"""

import csv
import time
from importlib import resources
from statistics import median

import numpy as np

from conftest import (
    all_on_base_design,
    evaluate_via_center,
    random_constant_design,
    random_variable_design,
)
from tlo.arrangement import DesignSpace, muscle_jacobian, wire_lengths
from tlo.cli import main
from tlo.config import load_bundled_scenario
from tlo.feasibility import (
    ActuatorLimits,
    Scenario,
    TargetSpec,
    evaluate,
    force_directions,
    force_h_all,
    make_evaluator,
    velocity_directions,
)
from tlo.model import forward_kinematics, joint_jacobian
from tlo.nsga2 import evolve, hypervolume_2d, random_search
from tlo.oracle import force_polytope_exact, ray_h, velocity_polytope_exact

BUDGET = 2000
POPULATION = 40
REFERENCE_POINT = (33.0, 33.0)

_cfg = load_bundled_scenario("target1_nograv")
MODEL = _cfg.robot
SCENARIO = _cfg.scenario()
LIMITS = SCENARIO.limits

_run_cache: dict = {}


def desk_run(kind: str, m: int, n: int | None, seed: int):
    key = (kind, m, n, seed)
    if key not in _run_cache:
        space = DesignSpace(kind, m, n, MODEL.n_joints)
        evaluator = make_evaluator(MODEL, SCENARIO)
        _run_cache[key] = evolve(
            evaluator, space, POPULATION, BUDGET, seed, SCENARIO.max_objective
        )
    return _run_cache[key]


def front_min_e_force(archive) -> float:
    if not len(archive.front_indices):
        return np.inf  # every sample pruned: worse than any scored design
    return float(archive.objectives[archive.front_indices, 0].min())


def front_has_zero_velocity(archive) -> bool:
    return bool(np.any(archive.objectives[archive.front_indices, 1] == 0.0))


def report(num: int, passed: bool, detail: str):
    print(f"\n[criterion {num:2d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_1_jacobian_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    step = 1e-6
    worst = 0.0
    for _ in range(100):
        design = random_variable_design(rng, m=3, n=int(rng.integers(2, 4)))
        q = rng.uniform(-np.pi, np.pi, 2)
        g = muscle_jacobian(MODEL, design, q)
        j = joint_jacobian(MODEL, q)
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            fd_g = (
                wire_lengths(MODEL, design, q + e) - wire_lengths(MODEL, design, q - e)
            ) / (2 * step)
            fd_j = (
                forward_kinematics(MODEL, q + e).ee_position
                - forward_kinematics(MODEL, q - e).ee_position
            ) / (2 * step)
            worst = max(worst, np.max(np.abs(g[:, k] - fd_g) / np.maximum(np.abs(fd_g), 1e-3)))
            worst = max(worst, np.max(np.abs(j[:, k] - fd_j) / np.maximum(np.abs(fd_j), 1e-3)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 5.0
    report(1, ok, f"max relative FD error {worst:.2e} (tol 1e-5), {elapsed:.1f}s (limit 5s)")


def test_criterion_2_lp_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    target = TargetSpec([0.0, 0.0], [40.0, 40.0], [1.0, 1.0], 8)
    wf = force_directions(target)
    wv = velocity_directions(target)
    cap = 10.0
    worst = 0.0
    done = 0
    while done < 100:
        q = rng.uniform(-np.pi / 2, np.pi / 2, 2)
        J = joint_jacobian(MODEL, q)
        if abs(np.linalg.det(J)) < 0.05:
            continue
        design = random_constant_design(rng)
        scen = Scenario(LIMITS, target, [q], h_cap=cap)
        res = evaluate(MODEL, design, scen)
        if not res.feasible:
            continue
        G = muscle_jacobian(MODEL, design, q)
        fp = force_polytope_exact(G, J, LIMITS.f_min, LIMITS.f_max)
        vp = velocity_polytope_exact(G, J, LIMITS.ldot_min, LIMITS.ldot_max)
        for i in range(8):
            ref = min(ray_h(fp, target.force_center, wf[i]), cap)
            worst = max(worst, abs(res.h_force[0][i] - ref))
            ref = min(ray_h(vp, np.zeros(2), wv[i]), cap)
            worst = max(worst, abs(res.h_velocity[0][i] - ref))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    report(2, ok, f"max |h_lp - h_geometric| {worst:.2e} over 100 designs "
                  f"(tol 1e-6), {elapsed:.1f}s (limit 30s)")


def test_criterion_3_degenerate_exactness():
    target = TargetSpec([0.0, 0.0], [40.0, 40.0], [1.0, 1.0], 8)
    scen = Scenario(LIMITS, target, SCENARIO.joint_states)
    res = evaluate(MODEL, all_on_base_design(), scen)
    ok = res.feasible and res.e_force == 32.0 and res.e_velocity == 0.0
    report(3, ok, f"all-on-base design scored ({res.e_force}, {res.e_velocity}), "
                  f"expected exactly (32.0, 0.0)")


def test_criterion_4_objective_bounds_and_cap_invariance():
    rng = np.random.default_rng(404)
    # zero-center target keeps plenty of constant designs feasible, so the
    # bounds check bites; variable designs exercise the pruned path
    target = TargetSpec([0.0, 0.0], [40.0, 40.0], [1.0, 1.0], 8)
    designs = [random_constant_design(rng) for _ in range(500)]
    designs += [random_variable_design(rng, m=3, n=2) for _ in range(500)]
    caps = (1.0, 10.0, 100.0)
    outcomes = []
    bounds_ok = True
    for cap in caps:
        scen = Scenario(LIMITS, target, SCENARIO.joint_states, h_cap=cap)
        evaluator = make_evaluator(MODEL, scen)
        rows = []
        for design in designs:
            res = evaluator(design)
            rows.append((res.feasible, res.e_force, res.e_velocity))
            if res.feasible:
                for e in (res.e_force, res.e_velocity):
                    bounds_ok &= 0.0 <= e <= scen.max_objective
        outcomes.append(rows)
    invariant = outcomes[0] == outcomes[1] == outcomes[2]
    n_feasible = sum(1 for f, *_ in outcomes[0] if f)
    ok = bounds_ok and invariant
    report(4, ok, f"1000 designs ({n_feasible} feasible): bounds 0 <= E <= 32 "
                  f"{'held' if bounds_ok else 'VIOLATED'}; E exactly equal across "
                  f"h_cap in {{1, 10, 100}}: {invariant}")


def test_criterion_5_tension_monotonicity():
    rng = np.random.default_rng(505)
    target = SCENARIO.target
    wf = force_directions(target)
    checked = 0
    violations = 0
    worst_drop = 0.0
    while checked < 50:
        design = random_constant_design(rng)
        q = rng.uniform(-np.pi / 2, np.pi / 2, 2)
        G = muscle_jacobian(MODEL, design, q)
        J = joint_jacobian(MODEL, q)
        rhs = J.T @ target.force_center
        h_200 = force_h_all(G, rhs, wf @ J, ActuatorLimits(10, 200, -0.4, 0.4), 1e9)
        if h_200 is None:
            continue
        h_400 = force_h_all(G, rhs, wf @ J, ActuatorLimits(10, 400, -0.4, 0.4), 1e9)
        assert h_400 is not None  # enlarging the box cannot remove solutions
        drop = float(np.max(h_200 - h_400))
        worst_drop = max(worst_drop, drop)
        violations += drop > 1e-9
        checked += 1
    ok = violations == 0
    report(5, ok, f"raising f_max 200->400 N on 50 designs: worst h decrease "
                  f"{worst_drop:.2e} (tol 1e-9), {violations} violations")


def test_criterion_6_optimizer_beats_random_search():
    t0 = time.perf_counter()
    space = DesignSpace("variable", 3, 2, 2)
    evaluator = make_evaluator(MODEL, SCENARIO)
    wins = 0
    pairs = []
    for seed in range(5):
        nsga = evolve(evaluator, space, POPULATION, BUDGET, seed, SCENARIO.max_objective)
        rand = random_search(evaluator, space, BUDGET, seed, SCENARIO.max_objective)
        hv_n = hypervolume_2d(nsga.objectives[nsga.front_indices], REFERENCE_POINT)
        hv_r = hypervolume_2d(rand.objectives[rand.front_indices], REFERENCE_POINT)
        pairs.append((hv_n, hv_r))
        wins += hv_n >= hv_r
    elapsed = time.perf_counter() - t0
    ok = wins >= 4 and elapsed < 120.0
    detail = ", ".join(f"{a:.0f}v{b:.0f}" for a, b in pairs)
    report(6, ok, f"NSGA-II vs random hypervolume wins {wins}/5 [{detail}], "
                  f"{elapsed:.1f}s (limit 120s)")


def test_criterion_7_relay_points_help_and_zero_velocity_present():
    mins = {2: [], 3: []}
    ev0 = []
    for n in (2, 3):
        for seed in (0, 1, 2):
            arch = desk_run("variable", 4, n, seed)
            mins[n].append(front_min_e_force(arch))
            ev0.append(front_has_zero_velocity(arch))
    med2, med3 = median(mins[2]), median(mins[3])
    ok = med3 <= med2 and all(ev0)
    report(7, ok, f"median min E_force: N=3 {med3:.2f} <= N=2 {med2:.2f}; "
                  f"E_velocity=0 present in {sum(ev0)}/6 variable runs")


def test_criterion_8_constant_arms_trail_variable():
    wins = 0
    rows = []
    for seed in range(5):
        v = front_min_e_force(desk_run("variable", 4, 3, seed))
        c = front_min_e_force(desk_run("constant", 4, None, seed))
        rows.append((c, v))
        wins += c > v
    ok = wins >= 4
    detail = ", ".join(
        f"C {'none' if np.isinf(c) else f'{c:.2f}'} vs V {v:.2f}" for c, v in rows
    )
    report(8, ok, f"constant min E_force exceeds variable in {wins}/5 seeds [{detail}] "
                  f"(empty constant fronts count as pruned-out, i.e. worse)")


def test_criterion_9_seeded_runs_are_identical(tmp_path):
    cfg = str(resources.files("tlo") / "scenarios" / "target1_nograv.json")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            ["optimize", "--config", cfg, "--out", str(out),
             "--budget", "120", "--population", "40", "--seed", "17"]
        )
        assert code == 0
        outs.append(out)
    same_csv = (outs[0] / "samples.csv").read_bytes() == (outs[1] / "samples.csv").read_bytes()
    same_front = (outs[0] / "pareto.json").read_bytes() == (outs[1] / "pareto.json").read_bytes()
    with (outs[0] / "samples.csv").open() as f:
        n_rows = sum(1 for _ in csv.reader(f)) - 1
    ok = same_csv and same_front and n_rows == 120
    report(9, ok, f"same-seed reruns: samples.csv identical {same_csv}, "
                  f"pareto.json identical {same_front}, {n_rows} rows for budget 120")


def test_criterion_10_gravity_identity():
    rng = np.random.default_rng(1010)
    worst = 0.0
    agreed_prunes = 0
    compared = 0
    while compared < 50:
        q = rng.uniform(-np.pi / 2, np.pi / 2, 2)
        if abs(np.linalg.det(joint_jacobian(MODEL, q))) < 0.05:
            continue
        design = random_constant_design(rng)
        scen = Scenario(LIMITS, SCENARIO.target, [q], gravity=True)
        via_torque = evaluate(MODEL, design, scen)
        via_center = evaluate_via_center(MODEL, design, scen)
        assert via_torque.feasible == via_center.feasible
        if not via_torque.feasible:
            agreed_prunes += 1
            continue
        worst = max(
            worst,
            abs(via_torque.e_force - via_center.e_force),
            abs(via_torque.e_velocity - via_center.e_velocity),
            max(
                float(np.max(np.abs(a - b)))
                for a, b in zip(via_torque.h_force, via_center.h_force)
            ),
        )
        compared += 1
    ok = worst < 1e-9
    report(10, ok, f"rhs=tau_g vs rhs=J^T F_c on 50 feasible non-singular states: "
                   f"max |dE|, |dh| {worst:.2e} (tol 1e-9); "
                   f"{agreed_prunes} additional states pruned identically by both")
