"""Planar serial-chain kinematics for a tendon-driven manipulator.

The robot is a fixed base link (LINK_0) followed by D revolute joints and
D movable links, all in the x-y plane. LINK_0 lies along the world +x axis
from the origin; joint k rotates link k counterclockwise (z out of plane).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SEGMENT_X_TOL = 1e-9  # how far an attach segment's |x| may exceed its link's length, m


class FieldError(ValueError):
    """A constructor argument that breaks a rule. path names the field as a
    file does within its block, such as ("attach_segments", 1)."""

    def __init__(self, message: str, *path):
        super().__init__(message)
        self.path = path


def integer_field(value, *path) -> int:
    """value as an int if it is a Python or numpy integer, not a bool; else a FieldError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise FieldError("expected an integer", *path)
    return int(value)


def rot90(v: np.ndarray) -> np.ndarray:
    """Rotate a 2-vector (or an array of them, last axis 2) by +90 degrees."""
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def default_attach_segments(link_lengths) -> np.ndarray:
    """Full-centerline attach segments: (0,0) to (L,0) in each link frame."""
    lengths = np.asarray(link_lengths, dtype=float)
    segs = np.zeros((len(lengths), 2, 2))
    segs[:, 1, 0] = lengths
    return segs


@dataclass
class RobotModel:
    """Geometry and inertial data of the planar chain.

    link_lengths has D+1 entries (LINK_0..LINK_D), meters. link_masses is
    aligned with it; the LINK_0 mass is never used. attach_segments gives,
    per link, the two endpoints (in the link frame) of the straight segment
    that wire relay points may occupy. moment_arm_ranges is only consulted
    for constant-moment-arm designs: per joint, the (start, end) arm values
    in meters that fractions 0 and 1 map to, two different values. A value
    that breaks a rule raises a FieldError naming its field.
    """

    link_lengths: np.ndarray
    link_masses: np.ndarray
    attach_segments: np.ndarray | None = None
    gravity: np.ndarray | None = None  # None: (0, -9.81) m/s^2
    moment_arm_ranges: np.ndarray | None = None

    def __post_init__(self):
        lengths = self.link_lengths = np.asarray(self.link_lengths, dtype=float)
        masses = self.link_masses = np.asarray(self.link_masses, dtype=float)
        if lengths.ndim != 1 or len(lengths) < 2:
            raise FieldError("need LINK_0 plus at least one movable link", "link_lengths")
        n = len(lengths)
        # each check is written so that NaN and infinities fail it
        if not np.all((lengths > 0) & (lengths < np.inf)):
            raise FieldError("link lengths must be positive", "link_lengths")
        if masses.ndim != 1:
            raise FieldError("link_masses must be (D+1,)", "link_masses")
        if len(masses) != n:
            raise FieldError(f"need one item per link ({n})", "link_masses")
        if not np.all((masses >= 0) & (masses < np.inf)):
            raise FieldError("masses must be non-negative", "link_masses")
        if self.attach_segments is None:
            self.attach_segments = default_attach_segments(lengths)
        segments = self.attach_segments = np.asarray(self.attach_segments, dtype=float)
        if segments.shape[1:] != (2, 2):
            raise FieldError("attach_segments must be (D+1, 2, 2)", "attach_segments")
        if len(segments) != n:
            raise FieldError(f"need one item per link ({n})", "attach_segments")
        if not np.isfinite(segments).all():
            raise FieldError("attach segments must be finite", "attach_segments")
        past = np.abs(segments[..., 0]).max(axis=1) > lengths + _SEGMENT_X_TOL
        if past.any():
            k = int(past.argmax())
            raise FieldError(f"attach segment extends past link {k} (length {lengths[k]:g})",
                             "attach_segments", k)
        self.gravity = np.asarray((0.0, -9.81) if self.gravity is None else self.gravity,
                                  dtype=float)
        if self.gravity.shape != (2,) or not np.isfinite(self.gravity).all():
            raise FieldError("gravity must be a finite 2-vector", "gravity")
        if self.moment_arm_ranges is not None:
            arms = self.moment_arm_ranges = np.asarray(self.moment_arm_ranges, dtype=float)
            if arms.shape[1:] != (2,):
                raise FieldError("moment_arm_ranges must be (D, 2)", "moment_arm_ranges")
            if len(arms) != n - 1:
                raise FieldError(f"need one item per joint ({n - 1})", "moment_arm_ranges")
            if not np.isfinite(arms).all():
                raise FieldError("moment arm ranges must be finite", "moment_arm_ranges")
            if np.any(arms[:, 0] == arms[:, 1]):
                raise FieldError("each range needs two different ends", "moment_arm_ranges")

    @property
    def n_joints(self) -> int:
        return len(self.link_lengths) - 1


@dataclass
class Pose:
    """World-frame placement of every link at a given joint state.

    link_angles[d] / link_origins[d] define link d's frame: a local point p
    maps to origin + R(angle) p. joint_positions[k] is revolute joint k+1,
    i.e. the origin of link k+1. ee_position is the tip of the last link.
    """

    link_angles: np.ndarray
    link_origins: np.ndarray
    joint_positions: np.ndarray
    ee_position: np.ndarray


def forward_kinematics(model: RobotModel, q: np.ndarray) -> Pose:
    """Pose of every link for joint angles q (radians), (..., D); the leading
    axes of q lead every Pose field."""
    q = np.asarray(q, dtype=float)
    d = model.n_joints
    if q.shape[-1:] != (d,):
        raise ValueError(f"expected {d} joint angles, got shape {q.shape}")
    # cumulative sums as np.add.accumulate, np.cumsum's ufunc without its
    # per-call overhead: most calls are one state
    angles = np.zeros(q.shape[:-1] + (d + 1,))
    np.add.accumulate(q, axis=-1, out=angles[..., 1:])
    # each link's step from its origin to the next one, summed in link order:
    # the origins of links 1..D and, last, the tip
    ends = np.add.accumulate(model.link_lengths[:, None] * _directions(angles), axis=-2)
    origins = np.zeros_like(ends)
    origins[..., 1:, :] = ends[..., :-1, :]
    return Pose(angles, origins, origins[..., 1:, :], ends[..., -1, :])


def _directions(angles: np.ndarray) -> np.ndarray:
    """Unit vectors (cos a, sin a), (..., 2)."""
    out = np.empty(angles.shape + (2,))
    out[..., 0], out[..., 1] = np.cos(angles), np.sin(angles)
    return out


def joint_jacobian(model: RobotModel, q: np.ndarray | Pose) -> np.ndarray:
    """(..., 2, D) Jacobian of the end-effector position wrt joint angles q
    (..., D), or at their forward_kinematics Pose, which passes through."""
    pose = q if isinstance(q, Pose) else forward_kinematics(model, q)
    return np.swapaxes(rot90(pose.ee_position[..., None, :] - pose.joint_positions), -1, -2)


def link_centers_of_mass(model: RobotModel, pose: Pose) -> np.ndarray:
    """World COM of each movable link (midpoint, uniform density), (..., D, 2)."""
    half = 0.5 * model.link_lengths[1:, None]
    return pose.link_origins[..., 1:, :] + half * _directions(pose.link_angles[..., 1:])


def gravity_torque(model: RobotModel, q: np.ndarray | Pose) -> np.ndarray:
    """Joint torque (..., D) that holds the pose statically against gravity,
    at joint angles q (..., D) or at their Pose, as joint_jacobian takes them.

    Equals the gradient of the movable links' gravitational potential
    energy wrt the joint angles.
    """
    pose = q if isinstance(q, Pose) else forward_kinematics(model, q)
    coms = link_centers_of_mass(model, pose)
    # moments[..., k, j]: link j+1's weight about joint_positions[k]; that
    # joint moves links k+1..D, so only j >= k counts
    arms = rot90(coms[..., None, :, :] - pose.joint_positions[..., :, None, :])
    moments = model.link_masses[1:] * (-(arms @ model.gravity))
    return np.sum(np.triu(moments), axis=-1)
