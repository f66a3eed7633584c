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


@dataclass(frozen=True)
class RelayPoint:
    """A wire routing point: link index and fraction along its attach segment."""

    link: int
    fraction: float


@dataclass
class VariableArrangement:
    """Per-wire relay point lists; the first point of every wire sits on LINK_0."""

    wires: list[list[RelayPoint]]

    def __post_init__(self):
        if not self.wires:
            raise ValueError("need at least one wire")
        for m, wire in enumerate(self.wires):
            if len(wire) < 2:
                raise ValueError(f"wire {m} needs at least 2 relay points")
            if wire[0].link != 0:
                raise ValueError(f"wire {m} must start on LINK_0")
            for p in wire:
                if not 0.0 <= p.fraction <= 1.0:
                    raise ValueError(f"wire {m}: fraction {p.fraction} outside [0, 1]")
                if p.link < 0:
                    raise ValueError(f"wire {m}: negative link index")

    @property
    def n_wires(self) -> int:
        return len(self.wires)


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


def attach_point_local(model: RobotModel, link: int, fraction: float) -> np.ndarray:
    seg = model.attach_segments[link]
    return seg[0] + fraction * (seg[1] - seg[0])


def relay_world_positions(
    model: RobotModel, design: VariableArrangement, q: np.ndarray, pose: Pose | None = None
) -> list[np.ndarray]:
    """World positions of every relay point, one (N_m, 2) array per wire."""
    if not isinstance(design, VariableArrangement):
        raise TypeError("relay points exist only for variable arrangements")
    if pose is None:
        pose = forward_kinematics(model, q)
    n_links = len(model.link_lengths)
    out = []
    for wire in design.wires:
        pts = np.empty((len(wire), 2))
        for n, p in enumerate(wire):
            if not 0 <= p.link < n_links:
                raise ValueError(f"relay link {p.link} out of range")
            pts[n] = pose.world_point(p.link, attach_point_local(model, p.link, p.fraction))
        out.append(pts)
    return out


def wire_lengths(model: RobotModel, design: VariableArrangement, q: np.ndarray) -> np.ndarray:
    """Total polyline length of each wire, meters."""
    positions = relay_world_positions(model, design, q)
    return np.array([np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1)) for p in positions])


def constant_arms(model: RobotModel, design: ConstantArrangement) -> np.ndarray:
    """Moment arm values in meters, (M, D), from fractions and model ranges."""
    if model.moment_arm_ranges is None:
        raise ValueError("model has no moment_arm_ranges for constant designs")
    lo = model.moment_arm_ranges[:, 0]
    hi = model.moment_arm_ranges[:, 1]
    return lo + design.fractions * (hi - lo)


def muscle_jacobian(model: RobotModel, design: WireArrangement, q: np.ndarray) -> np.ndarray:
    """(M, D) matrix G with ldot = G qdot.

    Variable mode differentiates the polyline lengths analytically; segments
    shorter than DEGENERATE_SEGMENT contribute nothing (the derivative is
    undefined there, and zero keeps the objective continuous). Constant mode
    returns the negated arm matrix, independent of q.
    """
    d = model.n_joints
    if isinstance(design, ConstantArrangement):
        arms = constant_arms(model, design)
        if arms.shape[1] != d:
            raise ValueError("arm matrix does not match joint count")
        return -arms

    pose = forward_kinematics(model, q)
    positions = relay_world_positions(model, design, q, pose)
    g = np.zeros((design.n_wires, d))
    for m, (wire, pts) in enumerate(zip(design.wires, positions)):
        links = np.array([p.link for p in wire])
        # dpts[n, k] = d p_n / d theta_k: rot90 about joint k when the point's
        # link moves with that joint, else zero
        dpts = rot90(pts[:, None, :] - pose.joint_positions[None, :, :])
        dpts *= (links[:, None] >= np.arange(1, d + 1)[None, :])[:, :, None]
        seg = np.diff(pts, axis=0)
        norms = np.linalg.norm(seg, axis=1)
        ok = norms > DEGENERATE_SEGMENT
        if not np.any(ok):
            continue
        unit = seg[ok] / norms[ok, None]
        dseg = (dpts[1:] - dpts[:-1])[ok]
        g[m] = np.einsum("si,ski->sk", unit, dseg).sum(axis=0)
    return g


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


def genome_decode(genome: Genome, space: DesignSpace) -> WireArrangement:
    """Inverse of genome_encode; validates gene counts and ranges."""
    if len(genome.reals) != space.n_reals or len(genome.cats) != space.n_cats:
        raise ValueError(
            f"genome length mismatch: got ({len(genome.reals)}, {len(genome.cats)}), "
            f"expected ({space.n_reals}, {space.n_cats})"
        )
    if space.kind == "constant":
        return ConstantArrangement(
            np.asarray(genome.reals, dtype=float).reshape(space.n_wires, space.n_joints)
        )
    n = space.n_relay_points
    reals = np.asarray(genome.reals, dtype=float).reshape(space.n_wires, n)
    cats = np.asarray(genome.cats).reshape(space.n_wires, n - 1)
    wires = []
    for m in range(space.n_wires):
        wire = [RelayPoint(0, float(reals[m, 0]))]
        wire += [RelayPoint(int(cats[m, i]), float(reals[m, i + 1])) for i in range(n - 1)]
        wires.append(wire)
    return VariableArrangement(wires)


def genome_encode(design: WireArrangement) -> Genome:
    """Flatten a design into its genome; genome_decode inverts it exactly."""
    if isinstance(design, ConstantArrangement):
        return Genome(design.fractions.ravel().copy(), np.empty(0, dtype=np.int64))
    n = len(design.wires[0])
    if any(len(w) != n for w in design.wires):
        raise ValueError("all wires must have the same relay point count")
    reals = np.array([p.fraction for w in design.wires for p in w])
    cats = np.array([p.link for w in design.wires for p in w[1:]], dtype=np.int64)
    return Genome(reals, cats)


def space_for(design: WireArrangement, n_joints: int) -> DesignSpace:
    if isinstance(design, ConstantArrangement):
        return DesignSpace("constant", design.n_wires, None, n_joints)
    return DesignSpace("variable", design.n_wires, len(design.wires[0]), n_joints)


# --- JSON form: variable as relay point lists, constant as arm values in meters


def design_to_jsonable(design: WireArrangement, model: RobotModel) -> dict:
    if isinstance(design, ConstantArrangement):
        return {"kind": "constant", "arms": constant_arms(model, design).tolist()}
    return {
        "kind": "variable",
        "wires": [
            [{"link": p.link, "frac": p.fraction} for p in wire] for wire in design.wires
        ],
    }


def design_from_jsonable(doc: dict, model: RobotModel) -> WireArrangement:
    if not isinstance(doc, dict):
        raise TypeError("design document must be a JSON object")
    kind = doc.get("kind")
    if kind == "variable":
        wires = [
            [RelayPoint(int(p["link"]), float(p["frac"])) for p in wire]
            for wire in doc["wires"]
        ]
        design = VariableArrangement(wires)
        n_links = len(model.link_lengths)
        for wire in design.wires:
            for p in wire:
                if p.link >= n_links:
                    raise ValueError(f"relay link {p.link} out of range for this robot")
        return design
    if kind == "constant":
        if model.moment_arm_ranges is None:
            raise ValueError("constant designs need robot.moment_arm_ranges")
        arms = np.asarray(doc["arms"], dtype=float)
        lo = model.moment_arm_ranges[:, 0]
        hi = model.moment_arm_ranges[:, 1]
        if arms.ndim != 2 or arms.shape[1] != model.n_joints:
            raise ValueError("arms must be an (M, D) matrix")
        frac = (arms - lo) / (hi - lo)
        if np.any(frac < -1e-9) or np.any(frac > 1 + 1e-9):
            raise ValueError("arm values outside the robot's moment_arm_ranges")
        return ConstantArrangement(np.clip(frac, 0.0, 1.0))
    raise ValueError(f"unknown design kind {kind!r}")
