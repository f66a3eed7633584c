"""The stacked state tables against one state at a time, bit for bit.

state_tables and gravity_center take a stack of joint states (S, D) and
give every field that leading axis. The reference below is their code for
one state of shape (D,), before they took a stack: a state's tables, their
pose among them, and the force columns force_dirs @ J that a kernel pass
builds from them, must keep their bytes (signed zeros count) whichever way
they are formed.

The cases draw D = 1-4 joints, S in {1, 3} states, gravity on and off,
random link lengths and masses, and a straight arm among the states, where
J is singular and the gravity center leaves a residual.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tlo.feasibility import (
    DEFAULT_H_CAP,
    TargetSpec,
    _stack,
    force_directions,
    gravity_center,
    state_tables,
    velocity_directions,
)
from tlo.model import RobotModel, forward_kinematics, gravity_torque, joint_jacobian

EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True)


def reference_gravity_center(model, q):
    tau_g = gravity_torque(model, q)
    jt = joint_jacobian(model, q).T
    center, *_ = np.linalg.lstsq(jt, tau_g, rcond=None)
    residual = float(np.linalg.norm(jt @ center - tau_g))
    return center, residual


def reference_state_tables(model, q, target, gravity):
    """(q, J, rhs, anchor, residual, pose) of one joint state q (D,)."""
    J = joint_jacobian(model, q)
    if gravity:
        rhs = gravity_torque(model, q)
        anchor, residual = reference_gravity_center(model, q)
    else:
        anchor, residual = target.force_center, None
        rhs = J.T @ anchor
    return q, J, rhs, anchor, residual, forward_kinematics(model, q)


@st.composite
def cases(draw):
    """(model, q (S, D), target, gravity); some draws put a straight arm in q."""
    d = draw(st.integers(1, 4))
    s = draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = RobotModel(rng.uniform(0.1, 1.0, d + 1), rng.uniform(0.5, 5.0, d + 1))
    q = rng.uniform(-np.pi, np.pi, (s, d))
    if draw(st.booleans()):
        q[rng.integers(s)] = 0.0
    target = TargetSpec(rng.uniform(-50.0, 50.0, 2), [30.0, 30.0], [1.0, 1.0],
                        draw(st.integers(3, 12)))
    return model, q, target, draw(st.booleans())


@EXAMPLES
@given(cases())
def test_stacked_tables_equal_one_state_at_a_time(case):
    model, q, target, gravity = case
    tables = state_tables(model, q, target, gravity)
    rows = [reference_state_tables(model, q_k, target, gravity) for q_k in q]
    for i, (field, stacked) in enumerate(zip(tables._fields, tables)):
        reference = [row[i] for row in rows]
        if field == "residual" and not gravity:
            assert stacked is None and reference == [None] * len(q)
            continue
        if field == "pose":
            for name, part in vars(stacked).items():
                one = np.array([getattr(pose, name) for pose in reference])
                assert part.shape == one.shape and part.tobytes() == one.tobytes(), name
            continue
        stacked = np.asarray(stacked)
        assert stacked.shape == (len(q),) + np.shape(reference[0]), field
        assert stacked.tobytes() == np.array(reference).tobytes(), field
    dirs = force_directions(target)
    _, force, _ = _stack(model, tables, dirs, velocity_directions(target), DEFAULT_H_CAP)
    assert force.cols.tobytes() == np.array([dirs @ row[1] for row in rows]).tobytes()
    straight = ~q.any(axis=1)
    if gravity and straight.any() and model.n_joints > 1:
        assert (tables.residual[straight] > 0).all()


@EXAMPLES
@given(cases())
def test_gravity_center_of_one_state_keeps_its_shape(case):
    model, q, _, _ = case
    center, residual = gravity_center(model, q[0])
    reference = reference_gravity_center(model, q[0])
    assert center.shape == (2,) and residual.shape == ()
    assert center.tobytes() == reference[0].tobytes()
    assert float(residual) == reference[1]
