"""Wire-arrangement designs and the muscle Jacobian.

Two design families are supported. A *variable* arrangement routes each
wire through an ordered list of relay points, each pinned to a link at a
fractional position along that link's attach segment; moment arms then
change with the joint angles. A *constant* arrangement abstracts the
routing away and directly assigns each wire a fixed moment arm per joint
(pulley-style), stored as fractions of the model's per-joint arm range.

Both families are one type, Design: relay links (..., M, N), or None for
constant arms, and fractions (..., M, N) or (..., M, D). The leading axes
stack designs of one shape. genome_rows_decode gives one per genome row,
and a design file gives one design, with no leading axes. relay_points
and batch_muscle_jacobian take any leading axes, and the one-design forms
(muscle_jacobian, design_to_jsonable, genome_decode) call the same code.

Sign conventions: wire length rates follow ldot = G(theta) qdot and wire
tensions f (pulling, positive) produce joint torque tau = -G^T f. For a
constant design with arm value a[m, d], G[m, d] = -a[m, d], so a positive
arm yields positive torque per unit tension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Pose, RobotModel, forward_kinematics

DEGENERATE_SEGMENT = 1e-9


@dataclass
class Design:
    """Designs of one shape, stacked along the leading axes, checked once, here.

    Variable designs: links[..., m, n] is the link that point n of wire m
    is pinned to and fractions[..., m, n] its position along that link's
    attach segment. The first point of every wire sits on LINK_0. Constant
    designs: links is None and fractions[..., m, d] is wire m's moment arm
    at joint d, as a fraction of the model's arm range.
    """

    links: np.ndarray | None
    fractions: np.ndarray

    def __post_init__(self):
        constant = self.links is None
        if not constant:
            if np.size(self.links) and np.asarray(self.links).dtype.kind not in "iu":
                raise TypeError("relay links must be integers")
            links = self.links = np.asarray(self.links, dtype=np.int64)
        fractions = self.fractions = np.asarray(self.fractions, dtype=float)
        if constant:
            if fractions.ndim < 2 or fractions.shape[-2] < 1:
                raise ValueError("fractions must be an (M, D) matrix")
        elif links.ndim < 2 or links.shape != fractions.shape:
            raise ValueError("links and fractions must be matching (M, N) arrays")
        elif not links.shape[-2]:
            raise ValueError("need at least one wire")
        elif links.shape[-1] < 2:
            raise ValueError("every wire needs at least 2 relay points")
        elif links[..., 0].any():
            raise ValueError("every wire must start on LINK_0")
        if not np.all((fractions >= 0.0) & (fractions <= 1.0)):  # NaN fails
            raise ValueError(f"{'arm' if constant else 'relay'} fractions must lie in [0, 1]")
        if not constant and (links < 0).any():
            raise ValueError("negative link index")

    @property
    def shape(self) -> tuple:
        """The leading axes."""
        return self.fractions.shape[:-2]

    def __getitem__(self, index) -> Design:
        """The designs at index of the leading axes."""
        return Design(None if self.links is None else self.links[index], self.fractions[index])

    def reshape(self, *shape: int) -> Design:
        """The same designs with leading axes of the given shape, not checked
        again: regrouping the leading axes leaves every design as it was."""
        view = object.__new__(Design)
        view.links, view.fractions = (None if a is None else a.reshape(shape + a.shape[-2:])
                                      for a in (self.links, self.fractions))
        return view


def relay_points(model: RobotModel, designs: Design, pose: Pose) -> np.ndarray:
    """World positions (..., M, N, 2) of the relay points of variable designs
    at a pose; a pose with leading state axes adds them in front."""
    links = designs.links
    if links is None:
        raise TypeError("relay points exist only for variable arrangements")
    # checked before indexing, where numpy would wrap a negative link around
    if links.size:
        lo, hi = links.min(), links.max()
        if lo < 0 or hi >= len(model.link_lengths):
            raise ValueError(f"relay link {lo if lo < 0 else hi} out of range")
    # per-link tables, looked up per relay point: each attach segment's start
    # and step in the link frame, and each link's cos, sin and origin per state
    seg = model.attach_segments
    x0, y0, dx, dy = np.take(np.concatenate((seg[:, 0], seg[:, 1] - seg[:, 0]), axis=1).T,
                             links, axis=1)
    x = x0 + designs.fractions * dx
    y = y0 + designs.fractions * dy
    angles, origins = pose.link_angles, pose.link_origins
    c, s, ox, oy = np.take(np.stack((np.cos(angles), np.sin(angles),
                                     origins[..., 0], origins[..., 1])), links, axis=-1)
    pts = np.empty(c.shape + (2,))
    pts[..., 0] = ox + (c * x - s * y)
    pts[..., 1] = oy + (s * x + c * y)
    return pts


def wire_lengths(model: RobotModel, design: Design, q: np.ndarray) -> np.ndarray:
    """Total polyline length of each wire, meters."""
    segments = np.diff(relay_points(model, design, forward_kinematics(model, q)), axis=-2)
    return np.linalg.norm(segments, axis=-1).sum(axis=-1)


def _arm_values(model: RobotModel, fractions: np.ndarray) -> np.ndarray:
    if model.moment_arm_ranges is None:
        raise ValueError("model has no moment_arm_ranges for constant designs")
    lo = model.moment_arm_ranges[:, 0]
    hi = model.moment_arm_ranges[:, 1]
    return lo + fractions * (hi - lo)


def muscle_jacobian(model: RobotModel, design: Design, q: np.ndarray) -> np.ndarray:
    """(M, D) matrix G with ldot = G qdot at joint angles q (D,); see batch_muscle_jacobian."""
    pose = forward_kinematics(model, np.asarray(q, dtype=float)[None])
    return batch_muscle_jacobian(model, design, pose)[0]


def batch_muscle_jacobian(model: RobotModel, designs: Design, pose: Pose | None) -> np.ndarray:
    """G (S, ..., M, D) of designs at the S joint states of pose
    (forward_kinematics of an (S, D) stack), the designs' leading axes
    after the first.

    Variable designs' polyline lengths are differentiated analytically, and
    segments shorter than DEGENERATE_SEGMENT contribute nothing (the
    derivative is undefined there, and zero keeps the objective continuous).
    A constant design's G is its negated arm matrix, independent of q (pose
    is not read), so it is computed once and comes as (1, ..., M, D), to
    broadcast against the states.
    """
    d = model.n_joints
    links = designs.links
    if links is None:
        if model.moment_arm_ranges is not None and designs.fractions.shape[-1] != d:
            raise ValueError("arm matrix does not match joint count")
        return -_arm_values(model, designs.fractions)[None]

    pts = relay_points(model, designs, pose)
    joints = pose.joint_positions.reshape((len(pts),) + (1,) * links.ndim + (d, 2))
    # dpts[s, ..., m, n, k, :] = d p_mn / d theta_k at state s: rot90 about
    # joint k when the point's link moves with that joint, else zero
    arm = pts[..., None, :] - joints
    moves = links[..., None] >= np.arange(1, d + 1)
    dpts = np.empty_like(arm)
    np.multiply(np.negative(arm[..., 1]), moves, out=dpts[..., 0])
    np.multiply(arm[..., 0], moves, out=dpts[..., 1])
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


def genome_rows_decode(reals: np.ndarray, cats: np.ndarray, space: DesignSpace) -> Design:
    """Genome rows, (..., n_reals) and (..., n_cats), as the Design of each
    row, with the rows' leading axes."""
    reals = np.asarray(reals, dtype=float)
    cats = np.asarray(cats)
    lead = reals.shape[:-1]
    if reals.shape != lead + (space.n_reals,) or cats.shape != lead + (space.n_cats,):
        raise ValueError(
            f"genome length mismatch: got ({reals.shape[-1]}, {cats.shape[-1]}), "
            f"expected ({space.n_reals}, {space.n_cats})"
        )
    if space.kind == "constant":
        return Design(None, reals.reshape(lead + (space.n_wires, space.n_joints)))
    links = np.zeros(lead + (space.n_wires, space.n_relay_points), dtype=np.int64)
    links[..., 1:] = cats.reshape(lead + (space.n_wires, space.n_relay_points - 1))
    return Design(links, reals.reshape(links.shape))


def genome_decode(genome: Genome, space: DesignSpace) -> Design:
    """One genome as its design, with no leading axes."""
    return genome_rows_decode(genome.reals, genome.cats, space)


# --- JSON form: variable as relay point lists, constant as arm values in meters


def design_to_jsonable(design: Design, model: RobotModel) -> dict:
    """The JSON form of one design, with no leading axes."""
    return designs_to_jsonable(design.reshape(1), model)[0]


def designs_to_jsonable(designs: Design, model: RobotModel) -> list[dict]:
    """The JSON form of each design of a (P,) stack."""
    if designs.links is None:
        arms = _arm_values(model, designs.fractions).tolist()
        return [{"kind": "constant", "arms": design_arms} for design_arms in arms]
    return [
        {
            "kind": "variable",
            "wires": [
                [{"link": link, "frac": frac} for link, frac in zip(wire_links, wire_fracs)]
                for wire_links, wire_fracs in zip(design_links, design_fracs)
            ],
        }
        for design_links, design_fracs in zip(designs.links.tolist(), designs.fractions.tolist())
    ]


def _json_number(value, integer: bool = False):
    """value, if it is a JSON number (an integer if asked); bools are neither."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise TypeError(f"expected a JSON {'integer' if integer else 'number'}, got {value!r}")
    return value


def design_from_jsonable(doc: dict, model: RobotModel) -> Design:
    """A design document as its Design, with no leading axes."""
    if not isinstance(doc, dict):
        raise TypeError("design document must be a JSON object")
    kind = doc.get("kind")
    if kind == "variable":
        wires = doc["wires"]
        if len({len(wire) for wire in wires}) > 1:
            raise ValueError("all wires need the same number of relay points")
        design = Design(
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
        if not np.all((frac >= -1e-9) & (frac <= 1 + 1e-9)):  # NaN fails
            raise ValueError("arm values outside the robot's moment_arm_ranges")
        return Design(None, np.clip(frac, 0.0, 1.0))
    raise ValueError(f"unknown design kind {kind!r}")
