"""Wire-arrangement encodings and the muscle Jacobian.

Two design families are supported. A *variable* arrangement routes each
wire through an ordered list of relay points, each pinned to a link at a
fractional position along that link's attach segment; moment arms then
change with the joint angles. A *constant* arrangement abstracts the
routing away and directly assigns each wire a fixed moment arm per joint
(pulley-style), stored as fractions of the model's per-joint arm range.

Sign conventions: wire length rates follow ldot = G(theta) qdot and wire
tensions f (pulling, positive) produce joint torque tau = -G^T f. For a
constant design with arm value a[m, d], G[m, d] = -a[m, d], so a positive
arm yields positive torque per unit tension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Pose, RobotModel, forward_kinematics, rot90

DEGENERATE_SEGMENT = 1e-9


@dataclass
class VariableArrangement:
    """Relay points as matching (M, N) arrays, one row per wire.

    links[m, n] is the link that point n of wire m is pinned to and
    fractions[m, n] its position along that link's attach segment. The
    first point of every wire sits on LINK_0.
    """

    links: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        if np.size(self.links) and np.asarray(self.links).dtype.kind not in "iu":
            raise TypeError("relay links must be integers")
        self.links = np.asarray(self.links, dtype=np.int64)
        self.fractions = np.asarray(self.fractions, dtype=float)
        if self.links.ndim != 2 or self.links.shape != self.fractions.shape:
            raise ValueError("links and fractions must be matching (M, N) arrays")
        if not len(self.links):
            raise ValueError("need at least one wire")
        if self.links.shape[1] < 2:
            raise ValueError("every wire needs at least 2 relay points")
        if self.links[:, 0].any():
            raise ValueError("every wire must start on LINK_0")
        if not 0.0 <= self.fractions.min() <= self.fractions.max() <= 1.0:  # NaN fails
            raise ValueError("relay fractions must lie in [0, 1]")
        if self.links.min() < 0:
            raise ValueError("negative link index")

    @property
    def n_wires(self) -> int:
        return len(self.links)


@dataclass
class ConstantArrangement:
    """Constant moment arms as an (M, D) matrix of range fractions in [0, 1]."""

    fractions: np.ndarray

    def __post_init__(self):
        self.fractions = np.asarray(self.fractions, dtype=float)
        if self.fractions.ndim != 2 or self.fractions.shape[0] < 1:
            raise ValueError("fractions must be an (M, D) matrix")
        if np.any(self.fractions < 0) or np.any(self.fractions > 1):
            raise ValueError("arm fractions must lie in [0, 1]")

    @property
    def n_wires(self) -> int:
        return self.fractions.shape[0]


WireArrangement = VariableArrangement | ConstantArrangement


def relay_world_positions(
    model: RobotModel, design: VariableArrangement, q: np.ndarray, pose: Pose | None = None
) -> np.ndarray:
    """World positions of every relay point, (M, N, 2)."""
    if not isinstance(design, VariableArrangement):
        raise TypeError("relay points exist only for variable arrangements")
    if pose is None:
        pose = forward_kinematics(model, q)
    return _relay_points(model, design.links, design.fractions, pose)


def _relay_points(model: RobotModel, links: np.ndarray, fractions: np.ndarray,
                  pose: Pose) -> np.ndarray:
    """World positions (..., 2) of relay points given as matching link and
    fraction arrays; a pose with a leading state axis (state_poses) adds
    that axis in front."""
    # checked before indexing, where numpy would wrap a negative link around
    if links.size:
        lo, hi = links.min(), links.max()
        if lo < 0 or hi >= len(model.link_lengths):
            raise ValueError(f"relay link {lo if lo < 0 else hi} out of range")
    seg = model.attach_segments[links]
    local = seg[..., 0, :] + fractions[..., None] * (seg[..., 1, :] - seg[..., 0, :])
    x, y = local[..., 0], local[..., 1]
    # cos and sin once per link and state, then looked up per relay point
    c, s = np.cos(pose.link_angles)[..., links], np.sin(pose.link_angles)[..., links]
    return pose.link_origins[..., links, :] + np.stack([c * x - s * y, s * x + c * y], axis=-1)


def wire_lengths(model: RobotModel, design: VariableArrangement, q: np.ndarray) -> np.ndarray:
    """Total polyline length of each wire, meters."""
    segments = np.diff(relay_world_positions(model, design, q), axis=1)
    return np.linalg.norm(segments, axis=2).sum(axis=1)


def _arm_values(model: RobotModel, fractions: np.ndarray) -> np.ndarray:
    if model.moment_arm_ranges is None:
        raise ValueError("model has no moment_arm_ranges for constant designs")
    lo = model.moment_arm_ranges[:, 0]
    hi = model.moment_arm_ranges[:, 1]
    return lo + fractions * (hi - lo)


def constant_arms(model: RobotModel, design: ConstantArrangement) -> np.ndarray:
    """Moment arm values in meters, (M, D), from fractions and model ranges."""
    return _arm_values(model, design.fractions)


def muscle_jacobian(model: RobotModel, design: WireArrangement, q: np.ndarray) -> np.ndarray:
    """(M, D) matrix G with ldot = G qdot; see batch_muscle_jacobian."""
    if isinstance(design, ConstantArrangement):
        return batch_muscle_jacobian(model, None, design.fractions, None)[0]
    return batch_muscle_jacobian(model, design.links, design.fractions, state_poses(model, [q]))[0]


def state_poses(model: RobotModel, joint_states) -> Pose:
    """The poses of S joint states, every Pose field with a leading state axis."""
    poses = [forward_kinematics(model, q) for q in joint_states]
    return Pose(np.array([p.link_angles for p in poses]), np.array([p.link_origins for p in poses]),
                np.array([p.joint_positions for p in poses]), np.array([p.ee_position for p in poses]))


def batch_muscle_jacobian(model: RobotModel, links: np.ndarray | None, fractions: np.ndarray,
                          pose: Pose | None) -> np.ndarray:
    """G (S, ..., M, D) of designs of one shape at the S joint states of pose
    (state_poses), the designs stacked along the axes after the first.

    Variable designs come as matching (..., M, N) link and fraction arrays;
    the polyline lengths are differentiated analytically, and segments
    shorter than DEGENERATE_SEGMENT contribute nothing (the derivative is
    undefined there, and zero keeps the objective continuous). Constant
    designs come as links=None and (..., M, D) arm fractions; their G is the
    negated arm matrix, independent of q (pose is not read), so it is
    computed once and comes as (1, ..., M, D), to broadcast against the
    states.
    """
    d = model.n_joints
    if links is None:
        if model.moment_arm_ranges is not None and np.shape(fractions)[-1] != d:
            raise ValueError("arm matrix does not match joint count")
        return -_arm_values(model, fractions)[None]

    pts = _relay_points(model, links, fractions, pose)
    joints = pose.joint_positions.reshape((len(pts),) + (1,) * links.ndim + (d, 2))
    # dpts[s, ..., m, n, k, :] = d p_mn / d theta_k at state s: rot90 about
    # joint k when the point's link moves with that joint, else zero
    dpts = rot90(pts[..., None, :] - joints)
    dpts *= (links[..., None] >= np.arange(1, d + 1))[..., None]
    seg = np.diff(pts, axis=-2)
    norms = np.linalg.norm(seg, axis=-1)
    ok = norms > DEGENERATE_SEGMENT
    # degenerate segments divide by 1, not by their length, and are dropped
    # after the dot product
    unit = seg / np.where(ok, norms, 1.0)[..., None]
    rates = np.einsum("...si,...ski->...sk", unit, np.diff(dpts, axis=-3))
    return np.where(ok[..., None], rates, 0.0).sum(axis=-2)


# --- genome codec -----------------------------------------------------------
#
# Variable layout, per wire: reals [l_1, l_2, ..., l_N] and categoricals
# [d_2, ..., d_N] (the first point is always on LINK_0, so it has no link
# gene). Constant layout: reals are the M*D arm fractions, no categoricals.


@dataclass(frozen=True)
class Genome:
    """Flat design encoding: unit-interval reals plus link-choice categoricals."""

    reals: np.ndarray
    cats: np.ndarray

    def __len__(self) -> int:
        return len(self.reals) + len(self.cats)


@dataclass(frozen=True)
class DesignSpace:
    """Shape of the searchable design family for a given robot."""

    kind: str  # "variable" | "constant"
    n_wires: int
    n_relay_points: int | None
    n_joints: int

    def __post_init__(self):
        if self.kind not in ("variable", "constant"):
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.n_wires < 1:
            raise ValueError("need at least one wire")
        if self.kind == "variable":
            if self.n_relay_points is None or self.n_relay_points < 2:
                raise ValueError("variable designs need >= 2 relay points")
        if self.n_joints < 1:
            raise ValueError("need at least one joint")

    @property
    def n_reals(self) -> int:
        if self.kind == "variable":
            return self.n_wires * self.n_relay_points
        return self.n_wires * self.n_joints

    @property
    def n_cats(self) -> int:
        if self.kind == "variable":
            return self.n_wires * (self.n_relay_points - 1)
        return 0

    @property
    def cat_cardinality(self) -> int:
        return self.n_joints + 1  # link choices 0..D


def genome_space(n_reals: int, n_cats: int, n_joints: int) -> DesignSpace:
    """The design space whose genomes have these gene counts.

    Only variable designs have link genes, M * (N - 1) of them beside
    M * N fractions, so the counts fix the family and its shape.
    """
    if not n_cats:
        if n_reals < n_joints or n_reals % n_joints:
            raise ValueError(f"{n_reals} arm genes do not fill rows of {n_joints} joints")
        return DesignSpace("constant", n_reals // n_joints, None, n_joints)
    m = n_reals - n_cats
    if m < 1 or n_reals % m:
        raise ValueError(f"no variable design has {n_reals} fraction and {n_cats} link genes")
    return DesignSpace("variable", m, n_reals // m, n_joints)


def genome_rows_decode(reals: np.ndarray, cats: np.ndarray, space: DesignSpace):
    """Genome rows, (P, n_reals) and (P, n_cats), as batch_muscle_jacobian's
    (links, fractions): (P, M, N) arrays for variable designs and
    (None, (P, M, D) arm fractions) for constant ones."""
    reals = np.asarray(reals, dtype=float)
    cats = np.asarray(cats)
    p = len(reals)
    if reals.shape != (p, space.n_reals) or cats.shape != (p, space.n_cats):
        raise ValueError(
            f"genome length mismatch: got ({reals.shape[-1]}, {cats.shape[-1]}), "
            f"expected ({space.n_reals}, {space.n_cats})"
        )
    if not np.all((reals >= 0.0) & (reals <= 1.0)):  # NaN fails
        raise ValueError("genome reals must lie in [0, 1]")
    if space.kind == "constant":
        return None, reals.reshape(p, space.n_wires, space.n_joints)
    links = np.zeros((p, space.n_wires, space.n_relay_points), dtype=np.int64)
    links[..., 1:] = cats.reshape(p, space.n_wires, space.n_relay_points - 1)
    return links, reals.reshape(links.shape)


def genome_decode(genome: Genome, space: DesignSpace) -> WireArrangement:
    """One genome as its design; validates gene counts and ranges."""
    links, fractions = genome_rows_decode(
        np.reshape(genome.reals, (1, -1)), np.reshape(genome.cats, (1, -1)), space
    )
    if links is None:
        return ConstantArrangement(fractions[0])
    return VariableArrangement(links[0], fractions[0])


def space_for(design: WireArrangement, n_joints: int) -> DesignSpace:
    if isinstance(design, ConstantArrangement):
        return DesignSpace("constant", design.n_wires, None, n_joints)
    return DesignSpace("variable", *design.links.shape, n_joints)


# --- JSON form: variable as relay point lists, constant as arm values in meters


def design_to_jsonable(design: WireArrangement, model: RobotModel) -> dict:
    links = None if isinstance(design, ConstantArrangement) else design.links[None]
    return designs_to_jsonable(links, design.fractions[None], model)[0]


def designs_to_jsonable(links: np.ndarray | None, fractions: np.ndarray,
                        model: RobotModel) -> list[dict]:
    """The JSON form of each design of one shape, given as
    genome_rows_decode returns them."""
    if links is None:
        arms = _arm_values(model, fractions).tolist()
        return [{"kind": "constant", "arms": design_arms} for design_arms in arms]
    return [
        {
            "kind": "variable",
            "wires": [
                [{"link": link, "frac": frac} for link, frac in zip(wire_links, wire_fracs)]
                for wire_links, wire_fracs in zip(design_links, design_fracs)
            ],
        }
        for design_links, design_fracs in zip(links.tolist(), fractions.tolist())
    ]


def _json_number(value, integer: bool = False):
    """value, if it is a JSON number (an integer if asked); bools are neither."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise TypeError(f"expected a JSON {'integer' if integer else 'number'}, got {value!r}")
    return value


def design_from_jsonable(doc: dict, model: RobotModel) -> WireArrangement:
    if not isinstance(doc, dict):
        raise TypeError("design document must be a JSON object")
    kind = doc.get("kind")
    if kind == "variable":
        wires = doc["wires"]
        if len({len(wire) for wire in wires}) > 1:
            raise ValueError("all wires need the same number of relay points")
        design = VariableArrangement(
            [[_json_number(p["link"], integer=True) for p in wire] for wire in wires],
            [[_json_number(p["frac"]) for p in wire] for wire in wires],
        )
        if design.links.max() >= len(model.link_lengths):
            raise ValueError(f"relay link {design.links.max()} out of range for this robot")
        return design
    if kind == "constant":
        if model.moment_arm_ranges is None:
            raise ValueError("constant designs need robot.moment_arm_ranges")
        arms = np.array([[_json_number(v) for v in row] for row in doc["arms"]], dtype=float)
        lo = model.moment_arm_ranges[:, 0]
        hi = model.moment_arm_ranges[:, 1]
        if arms.ndim != 2 or arms.shape[1] != model.n_joints:
            raise ValueError("arms must be an (M, D) matrix")
        frac = (arms - lo) / (hi - lo)
        if not np.all((frac >= -1e-9) & (frac <= 1 + 1e-9)):  # NaN fails both
            raise ValueError("arm values outside the robot's moment_arm_ranges")
        return ConstantArrangement(np.clip(frac, 0.0, 1.0))
    raise ValueError(f"unknown design kind {kind!r}")
