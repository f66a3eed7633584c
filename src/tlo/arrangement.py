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
Both compute in component layout, x and y as separate arrays whose inner
loops run over all relay points of all designs, and look each point's
link up in LinkTables, which the evaluator builds once per state stack.

Sign conventions: wire length rates follow ldot = G(theta) qdot and wire
tensions f (pulling, positive) produce joint torque tau = -G^T f. For a
constant design with arm value a[m, d], G[m, d] = -a[m, d], so a positive
arm yields positive torque per unit tension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import FieldError, Pose, RobotModel, forward_kinematics

DEGENERATE_SEGMENT = 1e-9


@dataclass
class Design:
    """Designs of one shape, stacked along the leading axes, checked once, here.

    Variable designs: links[..., m, n] is the link that point n of wire m
    is pinned to and fractions[..., m, n] its position along that link's
    attach segment. The first point of every wire sits on LINK_0, or a
    FieldError names it as a design file does. Constant designs: links is
    None and fractions[..., m, d] is wire m's moment arm at joint d, as a
    fraction of the model's arm range. Both arrays are read-only copies,
    so a built design stays the checked one, whatever a caller later writes
    into the arrays it passed in.
    """

    links: np.ndarray | None
    fractions: np.ndarray

    def __post_init__(self):
        constant = self.links is None
        if not constant:
            if np.size(self.links) and np.asarray(self.links).dtype.kind not in "iu":
                raise TypeError("relay links must be integers")
            links = self.links = _read_only(self.links, np.int64)
        fractions = self.fractions = _read_only(self.fractions, float)
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
            m = int(np.argwhere(links[..., 0])[0, -1])
            raise FieldError("every wire must start on LINK_0", "wires", m, 0, "link")
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


def _read_only(array, dtype) -> np.ndarray:
    copy = np.array(array, dtype=dtype)
    copy.flags.writeable = False
    return copy


class LinkTables(NamedTuple):
    """What relay points look up per link at joint states (...), built once
    per state stack, the components leading. Joint k is the origin of link k."""

    segments: np.ndarray  # (4, D + 1): each attach segment's start x, y and step x, y
    frames: np.ndarray  # (4, ..., D + 1): each link's cos, sin and origin x, y per state


def link_tables(model: RobotModel, pose: Pose | LinkTables) -> LinkTables:
    """The LinkTables of the joint states of pose; tables pass through."""
    if isinstance(pose, LinkTables):
        return pose
    seg = model.attach_segments
    angles, origins = pose.link_angles, pose.link_origins
    frames = np.empty((4,) + angles.shape)
    np.cos(angles, out=frames[0])
    np.sin(angles, out=frames[1])
    frames[2], frames[3] = origins[..., 0], origins[..., 1]
    return LinkTables(np.concatenate((seg[:, 0], seg[:, 1] - seg[:, 0]), axis=1).T, frames)


def _relay_xy(model: RobotModel, designs: Design, tables: LinkTables):
    """x and y, (..., M, N) each, of the relay points of variable designs,
    the states' axes in front of the designs'."""
    links = designs.links
    if links is None:
        raise TypeError("relay points exist only for variable arrangements")
    # Design holds links >= 0 but does not know the robot
    if links.size and links.max() >= len(model.link_lengths):
        raise ValueError(f"relay link {links.max()} out of range")
    x0, y0, dx, dy = np.take(tables.segments, links, axis=1)
    x = x0 + designs.fractions * dx
    y = y0 + designs.fractions * dy
    c, s, ox, oy = np.take(tables.frames, links, axis=-1)
    return ox + (c * x - s * y), oy + (s * x + c * y)


def relay_points(model: RobotModel, designs: Design, pose: Pose | LinkTables) -> np.ndarray:
    """World positions (..., M, N, 2) of the relay points of variable designs
    at a pose, or at the states of its link_tables; a pose with leading
    state axes adds them in front."""
    return np.stack(_relay_xy(model, designs, link_tables(model, pose)), axis=-1)


def _arm_values(model: RobotModel, fractions: np.ndarray) -> np.ndarray:
    if model.moment_arm_ranges is None:
        raise ValueError("model has no moment_arm_ranges for constant designs")
    lo = model.moment_arm_ranges[:, 0]
    hi = model.moment_arm_ranges[:, 1]
    return lo + fractions * (hi - lo)


def muscle_jacobian(model: RobotModel, design: Design, q: np.ndarray) -> np.ndarray:
    """(M, D) matrix G with ldot = G qdot at joint angles q (D,); see batch_muscle_jacobian."""
    q = np.asarray(q, dtype=float)[None]
    pose = None if design.links is None else forward_kinematics(model, q)
    return batch_muscle_jacobian(model, design, pose)[0]


def batch_muscle_jacobian(model: RobotModel, designs: Design,
                          pose: Pose | LinkTables | None) -> np.ndarray:
    """G (S, ..., M, D), C-contiguous, of designs at the S joint states of
    pose (forward_kinematics of an (S, D) stack, or its link_tables), the
    designs' leading axes after the first.

    Variable designs' polyline lengths are differentiated analytically, and
    segments shorter than DEGENERATE_SEGMENT contribute nothing (the
    derivative is undefined there, and zero keeps the objective continuous).
    A constant design's G is its negated arm matrix, independent of q (pose
    is not read), so it is computed once and comes as (1, ..., M, D), to
    broadcast against the states.

    x and y are separate arrays, and the joint axis k leads: (k, S, ..., M,
    N). The values are those of the plain layout (tests/reference_kernels.py),
    rounding for rounding; only the sign of a zero rate may differ, and
    adding +0 to every rate makes it +0, as the plain layout's einsum has it.
    """
    d = model.n_joints
    links = designs.links
    if links is None:
        if model.moment_arm_ranges is not None and designs.fractions.shape[-1] != d:
            raise ValueError("arm matrix does not match joint count")
        return -_arm_values(model, designs.fractions)[None]

    tables = link_tables(model, pose)
    px, py = _relay_xy(model, designs, tables)
    joints = tables.frames[2:, :, 1:].swapaxes(1, 2)  # joint k: the origin of link k
    jx, jy = joints.reshape((2, d, len(px)) + (1,) * links.ndim)
    # d p / d theta_k: rot90(p - joint k) where the point's link moves with
    # joint k, else zero; jy - py is -(py - jy)
    moves = links >= np.arange(1, d + 1).reshape((d, 1) + (1,) * links.ndim)
    dpx = (jy - py) * moves
    dpy = (px - jx) * moves
    sx = px[..., 1:] - px[..., :-1]
    sy = py[..., 1:] - py[..., :-1]
    norms = np.sqrt(sx * sx + sy * sy)
    # a degenerate segment divides by inf: its unit vector and rates are 0
    scale = np.where(norms > DEGENERATE_SEGMENT, norms, np.inf)
    ux = sx / scale
    uy = sy / scale
    # the segments are summed from an (S, ..., M, N - 1, k) array, as the
    # plain layout sums them: in order, and pairwise at one joint, where they
    # are its inner axis
    rates = np.empty((len(px),) + links.shape[:-1] + (links.shape[-1] - 1, d))
    np.add(ux * (dpx[..., 1:] - dpx[..., :-1]), uy * (dpy[..., 1:] - dpy[..., :-1]),
           out=np.moveaxis(rates, -1, 0))
    rates += 0.0  # a -0 rate becomes +0
    return rates.sum(axis=-2)


# --- genome codec -----------------------------------------------------------
#
# Variable layout, per wire: reals [l_1, l_2, ..., l_N] and categoricals
# [d_2, ..., d_N] (the first point is always on LINK_0, so it has no link
# gene). Constant layout: reals are the M*D arm fractions, no categoricals.


@dataclass(frozen=True)
class Genome:
    """Flat design encoding: unit-interval reals plus link-choice categoricals.

    Kept, with genome_decode, for benchmarks/ only (ROADMAP item 1): the
    program decodes genome rows with genome_rows_decode.
    """

    reals: np.ndarray
    cats: np.ndarray

    def __len__(self) -> int:
        return len(self.reals) + len(self.cats)


@dataclass(frozen=True)
class DesignSpace:
    """Shape of the searchable design family for a given robot: a scenario's
    mode block. n_relay_points is required in variable mode, and checked
    whenever it is given, in either mode."""

    kind: str  # "variable" | "constant"
    n_wires: int
    n_relay_points: int | None
    n_joints: int

    def __post_init__(self):
        if self.kind not in ("variable", "constant"):
            raise FieldError("kind must be 'variable' or 'constant'", "kind")
        if self.n_wires < 1:
            raise FieldError("need at least one wire", "wires")
        if self.n_relay_points is None:
            if self.kind == "variable":
                raise FieldError("variable mode requires mode.relay_points")
        elif self.n_relay_points < 2:
            raise FieldError("relay_points must be at least 2", "relay_points")
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
    cats = cats.reshape(lead + (space.n_wires, space.n_relay_points - 1))
    links = np.concatenate((np.zeros_like(cats[..., :1]), cats), axis=-1)  # Design checks the type
    return Design(links, reals.reshape(links.shape))


def genome_decode(genome: Genome, space: DesignSpace) -> Design:
    """One genome as its design, with no leading axes (kept for benchmarks/,
    see Genome)."""
    return genome_rows_decode(genome.reals, genome.cats, space)


# --- JSON form: variable as relay point lists, constant as arm values in meters;
# design.schema.json states it, and tlo.config.parse_design reads it back


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
