import numpy as np
import pytest

from tlo.model import (
    FieldError,
    Pose,
    RobotModel,
    forward_kinematics,
    gravity_torque,
    joint_jacobian,
    link_centers_of_mass,
    rot90,
)
from reference_geometry import potential_energy


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


# The single-state kinematics as loops over the joints: the reference for
# the stacked forms.


def loop_forward_kinematics(model, q):
    d = model.n_joints
    angles = np.zeros(d + 1)
    angles[1:] = np.cumsum(q)
    origins = np.zeros((d + 1, 2))
    for k in range(1, d + 1):
        a = angles[k - 1]
        origins[k] = origins[k - 1] + model.link_lengths[k - 1] * np.array(
            [np.cos(a), np.sin(a)]
        )
    ee = origins[d] + model.link_lengths[d] * np.array(
        [np.cos(angles[d]), np.sin(angles[d])]
    )
    return Pose(angles, origins, origins[1:], ee)


def loop_joint_jacobian(model, q):
    pose = loop_forward_kinematics(model, q)
    return rot90(pose.ee_position - pose.joint_positions).T


def loop_gravity_torque(model, q):
    pose = loop_forward_kinematics(model, q)
    d = model.n_joints
    coms = np.empty((d, 2))
    for k in range(1, d + 1):
        a = pose.link_angles[k]
        coms[k - 1] = pose.link_origins[k] + 0.5 * model.link_lengths[k] * np.array(
            [np.cos(a), np.sin(a)]
        )
    tau = np.zeros(d)
    for k in range(d):
        arms = rot90(coms[k:] - pose.joint_positions[k])
        tau[k] = np.sum(model.link_masses[k + 1 :] * (-(arms @ model.gravity)))
    return tau


POSE_FIELDS = ("link_angles", "link_origins", "joint_positions", "ee_position")


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_stacked_kinematics_equal_per_state_and_loop_forms(d, s):
    rng = np.random.default_rng(10 * d + s)
    lengths, masses = rng.uniform(0.1, 1.0, d + 1), rng.uniform(0.0, 5.0, d + 1)
    states = rng.uniform(-np.pi, np.pi, (s, d))
    # With gravity along an axis, as in every bundled scenario, each moment
    # is one exact product, so the loop form's (D - k, 2) @ gravity rounds as
    # the stacked form does. Off the axes numpy's one-row product (k = D - 1)
    # may round the last moment differently by an ulp, so there the loop form
    # is matched to within a few ulps of the largest possible moment sum.
    for gravity in ([0.0, -rng.uniform(1, 20)], [rng.uniform(-20, 20), 0.0], rng.normal(size=2)):
        model = RobotModel(lengths, masses, gravity=gravity)
        pose = forward_kinematics(model, states)
        jac = joint_jacobian(model, states)
        tau = gravity_torque(model, states)
        assert jac.shape == (s, 2, d) and tau.shape == (s, d)
        # at the states' Pose, which passes through, they keep their bytes
        assert joint_jacobian(model, pose).tobytes() == jac.tobytes()
        assert gravity_torque(model, pose).tobytes() == tau.tobytes()
        for i, q in enumerate(states):
            one, ref = forward_kinematics(model, q), loop_forward_kinematics(model, q)
            for name in POSE_FIELDS:
                np.testing.assert_array_equal(getattr(pose, name)[i], getattr(one, name))
                np.testing.assert_array_equal(getattr(pose, name)[i], getattr(ref, name))
            np.testing.assert_array_equal(jac[i], joint_jacobian(model, q))
            np.testing.assert_array_equal(jac[i], loop_joint_jacobian(model, q))
            np.testing.assert_array_equal(tau[i], gravity_torque(model, q))
            if not np.all(gravity):
                np.testing.assert_array_equal(tau[i], loop_gravity_torque(model, q))
            else:
                bound = masses.sum() * lengths.sum() * np.linalg.norm(gravity)
                np.testing.assert_allclose(tau[i], loop_gravity_torque(model, q), rtol=0,
                                           atol=4 * np.finfo(float).eps * bound)


def test_leading_axes_lead_every_output(paper_model):
    states = np.random.default_rng(4).uniform(-np.pi, np.pi, (3, 4, 2))
    pose = forward_kinematics(paper_model, states)
    assert [getattr(pose, name).shape for name in POSE_FIELDS] == [
        (3, 4, 3), (3, 4, 3, 2), (3, 4, 2, 2), (3, 4, 2)]
    assert link_centers_of_mass(paper_model, pose).shape == (3, 4, 2, 2)
    assert joint_jacobian(paper_model, states).shape == (3, 4, 2, 2)
    assert gravity_torque(paper_model, states).shape == (3, 4, 2)
    # one energy per state, never the states added together
    energy = potential_energy(paper_model, states)
    assert energy.shape == (3, 4)
    assert energy[2, 1] == potential_energy(paper_model, states[2, 1])


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
        # NaN and infinities, which fail no comparison written as "x <= 0"
        dict(link_lengths=[0.4, np.nan], link_masses=[0.0, 4.0]),
        dict(link_lengths=[0.4, np.inf], link_masses=[0.0, 4.0]),
        dict(link_lengths=[0.4, 0.6], link_masses=[0.0, np.nan]),
        dict(link_lengths=[0.4, 0.6], link_masses=[0.0, np.inf]),
        dict(link_lengths=[0.4, 0.6], link_masses=[0.0, 4.0], gravity=[0.0, np.nan]),
        dict(link_lengths=[0.4, 0.6], link_masses=[0.0, 4.0], gravity=[np.inf, -9.81]),
        dict(link_lengths=[0.4, 0.6], link_masses=[0.0, 4.0], moment_arm_ranges=[[np.nan, 0.1]]),
        dict(link_lengths=[0.4, 0.6], link_masses=[0.0, 4.0], moment_arm_ranges=[[-0.1, np.inf]]),
        dict(link_lengths=[0.4, 0.6], link_masses=[0.0, 4.0],
             attach_segments=[[[0.0, 0.0], [0.4, 0.0]], [[0.0, 0.0], [np.nan, 0.0]]]),
        dict(link_lengths=[0.4, 0.6], link_masses=[0.0, 4.0],
             attach_segments=[[[0.0, 0.0], [0.4, 0.0]], [[0.0, 0.0], [0.6, np.nan]]]),
    ],
)
def test_model_validation(kwargs):
    with pytest.raises(ValueError):
        RobotModel(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(attach_segments=[[0.0, 0.0], [0.4, 0.0]]), r"attach_segments must be \(D\+1, 2, 2\)"),
    (dict(attach_segments=np.zeros((2, 3, 2))), r"attach_segments must be \(D\+1, 2, 2\)"),
    (dict(moment_arm_ranges=[[-0.1, 0.1, 0.0]]), r"moment_arm_ranges must be \(D, 2\)"),
    (dict(moment_arm_ranges=[-0.1, 0.1]), r"moment_arm_ranges must be \(D, 2\)"),
    (dict(link_masses=4.0), r"link_masses must be \(D\+1,\)"),
    (dict(link_masses=[[0.0], [4.0]]), r"link_masses must be \(D\+1,\)"),
])
def test_shape_errors_name_their_field(kwargs, message):
    """An array whose items are misshaped reads its shape, whatever its item count."""
    with pytest.raises(FieldError, match=message) as err:
        RobotModel(**{"link_lengths": [0.4, 0.6], "link_masses": [0.0, 4.0], **kwargs})
    assert err.value.path == tuple(kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(link_masses=[0.0, 4.0, 4.0]), "need one item per link (2)"),
    (dict(attach_segments=[[[0.0, 0.0], [0.4, 0.0]]]), "need one item per link (2)"),
    (dict(moment_arm_ranges=[[-0.1, 0.1], [-0.1, 0.1]]), "need one item per joint (1)"),
])
def test_item_counts_name_their_field(kwargs, message):
    """Well-shaped items of the wrong count read the count a scenario file reads."""
    with pytest.raises(FieldError) as err:
        RobotModel(**{"link_lengths": [0.4, 0.6], "link_masses": [0.0, 4.0], **kwargs})
    assert (err.value.path, str(err.value)) == (tuple(kwargs), message)


def test_unset_gravity_and_segments_take_their_defaults():
    model = RobotModel([0.4, 0.6], [0.0, 4.0], attach_segments=None, gravity=None)
    assert model.gravity.tolist() == [0.0, -9.81]
    assert model.attach_segments.tolist() == [[[0.0, 0.0], [0.4, 0.0]], [[0.0, 0.0], [0.6, 0.0]]]


def test_attach_segment_bounds():
    with pytest.raises(ValueError, match=r"attach segment extends past link 0 \(length 0\.4\)"):
        RobotModel(
            [0.4, 0.6],
            [0.0, 4.0],
            attach_segments=[[[0.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.6, 0.0]]],
        )
    with pytest.raises(ValueError, match=r"attach segment extends past link 1 \(length 0\.6\)"):
        RobotModel([0.4, 0.6], [0.0, 4.0],
                   attach_segments=[[[0.0, 0.0], [0.4, 0.0]], [[-0.7, 0.0], [0.6, 0.0]]])
