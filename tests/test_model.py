import numpy as np
import pytest

from tlo.model import (
    RobotModel,
    forward_kinematics,
    gravity_torque,
    joint_jacobian,
    potential_energy,
    rot90,
)


def homogeneous_fk_oracle(lengths, q):
    """End-effector position via explicit 3x3 homogeneous transforms."""

    def rot(a):
        return np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]])

    def trans(x):
        return np.array([[1, 0, x], [0, 1, 0], [0, 0, 1]])

    t = trans(lengths[0])
    for k, ang in enumerate(q):
        t = t @ rot(ang) @ trans(lengths[k + 1])
    return t[:2, 2]


def test_straight_arm_identity(paper_model):
    pose = forward_kinematics(paper_model, np.zeros(2))
    np.testing.assert_allclose(pose.joint_positions, [[0.4, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(pose.ee_position, [1.6, 0.0])


def test_single_right_angle(paper_model):
    pose = forward_kinematics(paper_model, np.array([0.0, np.pi / 2]))
    np.testing.assert_allclose(pose.ee_position, [1.0, 0.6], atol=1e-12)


def test_double_right_angle_matches_transform_oracle(paper_model):
    q = np.array([np.pi / 2, np.pi / 2])
    pose = forward_kinematics(paper_model, q)
    np.testing.assert_allclose(pose.ee_position, [-0.2, 0.6], atol=1e-12)
    np.testing.assert_allclose(
        pose.ee_position, homogeneous_fk_oracle(paper_model.link_lengths, q), atol=1e-12
    )


def test_fk_matches_transform_oracle_random(paper_model):
    rng = np.random.default_rng(42)
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, 2)
        pose = forward_kinematics(paper_model, q)
        np.testing.assert_allclose(
            pose.ee_position, homogeneous_fk_oracle(paper_model.link_lengths, q), atol=1e-12
        )


def test_fk_two_pi_periodic(paper_model):
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 2)
        shift = 2 * np.pi * rng.integers(-2, 3, size=2)
        a = forward_kinematics(paper_model, q).ee_position
        b = forward_kinematics(paper_model, q + shift).ee_position
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_fk_dimension_mismatch(paper_model):
    with pytest.raises(ValueError):
        forward_kinematics(paper_model, np.zeros(3))


def test_jacobian_colinear_arm(paper_model):
    j = joint_jacobian(paper_model, np.zeros(2))
    np.testing.assert_allclose(j, [[0.0, 0.0], [1.2, 0.6]], atol=1e-12)


def test_jacobian_bent_arm_columns(paper_model):
    j = joint_jacobian(paper_model, np.array([0.0, np.pi / 2]))
    np.testing.assert_allclose(j[:, 0], [-0.6, 0.6], atol=1e-12)
    np.testing.assert_allclose(j[:, 1], [-0.6, 0.0], atol=1e-12)


def test_jacobian_matches_finite_differences(paper_model):
    rng = np.random.default_rng(0)
    step = 1e-6
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 2)
        j = joint_jacobian(paper_model, q)
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            fd = (
                forward_kinematics(paper_model, q + e).ee_position
                - forward_kinematics(paper_model, q - e).ee_position
            ) / (2 * step)
            denom = np.maximum(np.abs(fd), 1e-3)
            assert np.all(np.abs(j[:, k] - fd) / denom < 1e-5)


def test_gravity_torque_straight_arm(paper_model):
    tau = gravity_torque(paper_model, np.zeros(2))
    np.testing.assert_allclose(tau, [47.088, 11.772], atol=1e-9)


def test_gravity_torque_zero_gravity():
    model = RobotModel([0.4, 0.6, 0.6], [0.0, 4.0, 4.0], gravity=[0.0, 0.0])
    np.testing.assert_allclose(gravity_torque(model, np.array([0.3, -1.1])), [0.0, 0.0])


def test_gravity_torque_hanging_pose(paper_model):
    # both movable links point straight down: COMs directly below the joints
    tau = gravity_torque(paper_model, np.array([-np.pi / 2, 0.0]))
    np.testing.assert_allclose(tau, [0.0, 0.0], atol=1e-12)


def test_gravity_torque_matches_potential_gradient(paper_model):
    rng = np.random.default_rng(3)
    step = 1e-6
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, 2)
        tau = gravity_torque(paper_model, q)
        for k in range(2):
            e = np.zeros(2)
            e[k] = step
            fd = (
                potential_energy(paper_model, q + e) - potential_energy(paper_model, q - e)
            ) / (2 * step)
            assert abs(tau[k] - fd) < 1e-4


def test_rot90():
    np.testing.assert_allclose(rot90(np.array([2.0, 3.0])), [-3.0, 2.0])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(link_lengths=[0.4], link_masses=[0.0]),
        dict(link_lengths=[0.4, -0.6], link_masses=[0.0, 4.0]),
        dict(link_lengths=[0.4, 0.6], link_masses=[0.0, -1.0]),
        dict(link_lengths=[0.4, 0.6], link_masses=[0.0]),
        dict(link_lengths=[0.4, 0.6], link_masses=[0.0, 4.0], moment_arm_ranges=[[0.05, 0.05]]),
    ],
)
def test_model_validation(kwargs):
    with pytest.raises(ValueError):
        RobotModel(**kwargs)


def test_attach_segment_bounds():
    with pytest.raises(ValueError):
        RobotModel(
            [0.4, 0.6],
            [0.0, 4.0],
            attach_segments=[[[0.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.6, 0.0]]],
        )
