from __future__ import annotations

import numpy as np
import pytest

from tlo.arrangement import Design, muscle_jacobian
from tlo.feasibility import (
    ActuatorLimits,
    EvaluationResult,
    Scenario,
    TargetSpec,
    force_directions,
    force_h_all,
    state_tables,
    velocity_directions,
    velocity_h_all,
)
from tlo.model import RobotModel

PAPER_LENGTHS = [0.4, 0.6, 0.6]
PAPER_MASSES = [0.0, 4.0, 4.0]
PAPER_ARM_RANGES = [[-0.1, 0.1], [-0.1, 0.1]]
DEFAULT_STATES_DEG = [[15.0, 30.0], [30.0, 45.0], [45.0, 60.0], [60.0, 75.0]]


@pytest.fixture
def paper_model() -> RobotModel:
    return RobotModel(PAPER_LENGTHS, PAPER_MASSES, moment_arm_ranges=PAPER_ARM_RANGES)


@pytest.fixture
def paper_limits() -> ActuatorLimits:
    return ActuatorLimits(10.0, 200.0, -0.4, 0.4)


@pytest.fixture
def default_states() -> np.ndarray:
    return np.deg2rad(DEFAULT_STATES_DEG)


@pytest.fixture
def zero_center_target() -> TargetSpec:
    return TargetSpec([0.0, 0.0], [40.0, 40.0], [1.0, 1.0], 8)


@pytest.fixture
def zero_center_scenario(paper_limits, default_states, zero_center_target) -> Scenario:
    return Scenario(paper_limits, zero_center_target, default_states)


def random_variable_design(rng: np.random.Generator, m=3, n=3, d=2) -> Design:
    links = np.zeros((m, n), dtype=np.int64)
    fractions = np.empty((m, n))
    for w in range(m):
        fractions[w, 0] = rng.random()
        for i in range(1, n):
            links[w, i] = rng.integers(0, d + 1)
            fractions[w, i] = rng.random()
    return Design(links, fractions)


def random_constant_design(rng: np.random.Generator, m=4, d=2) -> Design:
    return Design(None, rng.random((m, d)))


def encode_rows(designs) -> tuple[np.ndarray, np.ndarray]:
    """Genome rows of designs of one shape, (P, n_reals) reals and
    (P, n_cats) int64 cats, that genome_rows_decode turns back into them:
    the fractions row by row, then every wire's links after its first."""
    reals = np.array([design.fractions.ravel() for design in designs], dtype=float)
    cats = np.array([np.empty(0) if design.links is None else design.links[:, 1:].ravel()
                     for design in designs], dtype=np.int64)
    return reals, cats


def stack_designs(designs) -> Design:
    """Designs of one shape as one (P,) Design stack."""
    links = None if designs[0].links is None else np.stack([design.links for design in designs])
    return Design(links, np.stack([design.fractions for design in designs]))


def all_on_base_design(m=3) -> Design:
    i = np.arange(m)
    return Design(np.zeros((m, 2), dtype=np.int64),
                  np.column_stack([0.1 + 0.2 * i, 0.9 - 0.1 * i]))


def worked_constant_design() -> Design:
    # arm rows (0.1, 0), (-0.1, 0), (0, 0.1), (0, -0.1) under ranges [-0.1, 0.1]
    arms = np.array([[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1], [0.0, -0.1]])
    return Design(None, (arms + 0.1) / 0.2)


def evaluate_via_center(model, design, scenario: Scenario) -> EvaluationResult:
    """Score a one-state gravity scenario with the force LP right-hand side
    routed through the gravity center, rhs = J^T F_c, instead of tau_g."""
    (q,) = scenario.joint_states
    st = state_tables(model, q, scenario.target, gravity=True)
    G = muscle_jacobian(model, design, q)
    limits, cap = scenario.limits, scenario.h_cap
    hf = force_h_all(G, st.J.T @ st.anchor, force_directions(scenario.target) @ st.J, limits, cap)
    hv = None if hf is None else velocity_h_all(G, st.J, velocity_directions(scenario.target),
                                                limits, cap)
    if hv is None:
        return EvaluationResult(feasible=False)
    e_force = float(np.maximum(1.0 - hf, 0.0).sum())
    e_velocity = float(np.maximum(1.0 - hv, 0.0).sum())
    return EvaluationResult(True, hf[None], hv[None], e_force, e_velocity)
