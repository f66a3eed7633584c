"""Scoring of wire arrangements against target force/velocity ellipses.

For every evaluated joint state and every ellipse direction, a small LP
defines the factor h by which the feasible operational space covers the
target along that direction: h >= 1 means covered. The objectives to
minimize are E_force and E_velocity, the summed shortfalls max(1-h, 0).
Both LPs have closed forms at every joint count D. The force ray is
clipped against the torque zonotope. The velocity ray is bounded through
J^-1 where D = 2 and J is regular, and everywhere else by the least of the
LP dual's vertex bounds, one per choice of D + 1 - rank J rows of [G; I_D].

Designs are scored in batches of one shape, as one arrangement.Design with
leading axes: make_evaluator's evaluator maps a generation's genome rows to
objectives and a feasible mask, with G and both kernels carrying leading
(state, design) axes. A batch of more than SCREEN_ROWS variable designs
at S > 1 states is screened in two kernel passes: state 0 on every design,
then all later states stacked on the designs state 0 admits. A smaller
batch, such as a search generation, and any batch of constant designs
take one pass over all states (see _passes). The
choice changes the cost, never a result: a design's per-state arithmetic
does not depend on the pass that scores it.
A design is feasible when its force anchor lies in the torque zonotope Z
at every state, so that h = 0 solves every force LP: qdot = 0 solves every
velocity LP. The force kernel decides that first and casts and clips its
rays only for the designs that every state of the pass admits. The joint
states are one (S, D) stack, and what does not depend on the design
(state_tables' J, force right-hand sides and anchors; each link's cos,
sin and origin and the attach segments that relay points look up, rays,
the velocity table, J^-1 w and its qdot-box bound at D = 2) is built once
per evaluator, with a state axis, and each pass takes its states from it
by index. evaluate scores designs with any leading axes, a whole
front or one design, by the same rule, and casts n_rays unit directions
(boundary rays) after the ellipse directions in the same passes: it is
the one tracer of the force and velocity boundaries.
force_h_all and velocity_h_all (never None) are the one-state, one-design
case, and take the design's G; force_h_all gives None for a pruned one.

Every min, max, all and any that the kernels take over a short axis (slab
normals, joint columns, wires, directions) runs over a leading contiguous
axis, which numpy reduces row by row; over the last axis its inner loop
would be a few elements long and cost several times more. Sums and
matmuls keep their layout: numpy adds 8 or more trailing elements
pairwise, and BLAS does not round like an elementwise sum. So every h has
the bits of the plain layout, which tests/reference_kernels.py keeps.

The h variable is unbounded inside the LPs; reported values are clipped to
h_cap afterwards (boundary rays to RAY_CAP). That makes every score
independent of the cap (any cap >= 1 yields identical objectives, since
contributions vanish at h >= 1) and turns genuinely unbounded velocity
sets into a plain h = h_cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .arrangement import (Design, batch_muscle_jacobian, genome_rows_decode, genome_space,
                          link_tables)
from .model import RobotModel, forward_kinematics, gravity_torque, joint_jacobian

DEFAULT_H_CAP = 10.0
MIN_RAYS = 8  # fewest boundary rays evaluate casts, when it casts any
RAY_CAP = 1e6  # where a boundary ray through an unbounded set stops
QDOT_BOX = 1e6  # formal box on each |qdot_k| in the velocity LPs; binds only on long rays
_SLACK_TOL = 1e-9  # force rays may miss Z by this times max(1, |rhs|_inf) in the L1 norm
_MINOR_TOL = 1e-14  # rounding bound of a velocity dual candidate's mu.omega, relative
SCREEN_ROWS = 200  # a larger batch is screened on state 0 first (see _passes)


@dataclass
class TargetSpec:
    """Target force ellipse (center + radii, N) and velocity ellipse (radii, m/s)."""

    force_center: np.ndarray
    force_radii: np.ndarray
    velocity_radii: np.ndarray
    n_directions: int = 8

    def __post_init__(self):
        self.force_center = np.asarray(self.force_center, dtype=float).reshape(2)
        self.force_radii = np.asarray(self.force_radii, dtype=float).reshape(2)
        self.velocity_radii = np.asarray(self.velocity_radii, dtype=float).reshape(2)
        if not np.isfinite(self.force_center).all():
            raise ValueError("force center must be finite")
        radii = np.concatenate((self.force_radii, self.velocity_radii))
        if not np.all((radii > 0) & (radii < np.inf)):  # NaN fails
            raise ValueError("ellipse radii must be positive and finite")
        if self.n_directions < 3:
            raise ValueError("need at least 3 ellipse directions")


@dataclass
class ActuatorLimits:
    f_min: float
    f_max: float
    ldot_min: float
    ldot_max: float

    def __post_init__(self):
        if not 0 < self.f_min < self.f_max < np.inf:  # NaN fails
            raise ValueError("need 0 < f_min < f_max, all finite")
        if not -np.inf < self.ldot_min < 0 < self.ldot_max < np.inf:
            raise ValueError("need ldot_min < 0 < ldot_max, all finite")


@dataclass
class Scenario:
    """Evaluation context: limits, targets, gravity switch, joint states."""

    limits: ActuatorLimits
    target: TargetSpec
    joint_states: np.ndarray  # (S, D) radians
    gravity: bool = False
    h_cap: float = DEFAULT_H_CAP

    def __post_init__(self):
        try:
            q = self.joint_states = np.asarray(self.joint_states, dtype=float)
        except ValueError:  # ragged rows
            q = np.empty(0)
        if q.ndim != 2 or 0 in q.shape or not np.isfinite(q).all():
            raise ValueError("joint states must be a finite (S, D) array, S and D at least 1")
        if not 1.0 <= self.h_cap < np.inf:  # NaN fails
            raise ValueError("h_cap must be finite; below 1 it would distort the objectives")

    @property
    def max_objective(self) -> float:
        return float(self.target.n_directions * len(self.joint_states))


@dataclass
class EvaluationResult:
    """Of designs with leading axes (...): the feasible mask (...), force and
    velocity h (..., S, directions), the summed shortfalls (...), NaN where
    pruned, the states' tables, and the force and velocity boundaries
    (..., S, n_rays, 2) that evaluate traces, NaN where pruned."""

    feasible: np.ndarray
    h_force: np.ndarray | None = None
    h_velocity: np.ndarray | None = None
    e_force: np.ndarray | None = None
    e_velocity: np.ndarray | None = None
    states: StateTables | None = None
    force_boundary: np.ndarray | None = None
    velocity_boundary: np.ndarray | None = None


class GravityCenter(NamedTuple):
    center: np.ndarray  # (..., 2)
    residual: np.ndarray  # (...)


def ellipse_directions(radii: np.ndarray, n_directions: int) -> np.ndarray:
    """Direction vectors w_i = (rx cos(2 pi i / N), ry sin(2 pi i / N))."""
    ang = 2.0 * np.pi * np.arange(n_directions) / n_directions
    return np.column_stack([radii[0] * np.cos(ang), radii[1] * np.sin(ang)])


def force_directions(target: TargetSpec) -> np.ndarray:
    return ellipse_directions(target.force_radii, target.n_directions)


def velocity_directions(target: TargetSpec) -> np.ndarray:
    return ellipse_directions(target.velocity_radii, target.n_directions)


def gravity_center(model: RobotModel, q: np.ndarray) -> GravityCenter:
    """Minimum-norm tip force whose joint torque equals the gravity torque,
    at joint angles q (..., D): center (..., 2) and residual (...).

    This is the force anchor in gravity mode; the LPs use the torque
    directly. Where no force holds the torque (J singular, or D > 2) it is
    the least-squares minimum-norm solution. lstsq takes one state a call.
    """
    tau_g = gravity_torque(model, q)
    jt = joint_jacobian(model, q).swapaxes(-1, -2)
    center = np.empty(tau_g.shape[:-1] + (2,))
    residual = np.empty(tau_g.shape[:-1])
    for k in np.ndindex(residual.shape):
        center[k] = np.linalg.lstsq(jt[k], tau_g[k], rcond=None)[0]
        residual[k] = np.linalg.norm(jt[k] @ center[k] - tau_g[k])
    return GravityCenter(center, residual)


class StateTables(NamedTuple):
    """Design-independent pieces of evaluated joint states; the leading axes
    of q, (S,) for a stack of S states, lead every field."""

    q: np.ndarray  # (..., D)
    J: np.ndarray  # (..., 2, D)
    rhs: np.ndarray  # (..., D) force LP right-hand side: J^T anchor, or the gravity torque
    anchor: np.ndarray  # (..., 2) tip force the force rays leave from
    residual: np.ndarray | None  # (...) gravity_center residual; None without gravity


def state_tables(model: RobotModel, q: np.ndarray, target: TargetSpec,
                 gravity: bool) -> StateTables:
    """The one force-anchor rule: J, the force LP right-hand side and the
    anchor at joint angles q (..., D).

    Without gravity the anchor is the ellipse center and rhs = J^T center.
    With gravity rhs is the gravity torque and the anchor is the force that
    holds it (gravity_center); the two agree whenever J is invertible.
    """
    J = joint_jacobian(model, q)
    if gravity:
        rhs = gravity_torque(model, q)
        anchor, residual = gravity_center(model, q)
    else:
        anchor = np.broadcast_to(target.force_center, J.shape[:-2] + (2,))
        rhs, residual = J.swapaxes(-1, -2) @ target.force_center, None
    return StateTables(q, J, rhs, anchor, residual)


def force_h_all(G, rhs, cols, limits, h_cap):
    """h for every force direction, or None when rhs lies outside the torque
    zonotope Z = {-G^T f}: no tension in the box holds the anchor.

    G is the (M, D) muscle Jacobian, rhs the joint-space right-hand side at
    the anchor (J^T times the ellipse center, or the gravity torque) and
    each row of cols the joint-space image J^T w_i of one direction.
    Direction i asks for the largest h >= 0 with -G^T f - h (J^T w_i) = rhs
    for some f in the tension box. Values are clipped to h_cap, which an
    unbounded ray reads as well. The ray is clipped against Z in closed
    form, at any D.
    """
    rows, h = _force_h(np.asarray(G, dtype=float)[None, None], _force_rays([rhs], [cols], h_cap),
                       limits)
    return h[0, 0] if len(rows) else None


def velocity_h_all(G, J, dirs, limits, h_cap):
    """h for every velocity direction, never None: qdot = 0 always holds.

    G is the (M, D) muscle Jacobian, J the (2, D) joint Jacobian and each row
    of dirs one operational-space direction w_i. Direction i asks for the
    largest h >= 0 with J qdot = h w_i, G qdot inside the wire-speed box and
    qdot inside a wide formal box. Values are clipped to h_cap, which an
    unbounded ray reads as well. h has a closed form: qdot = h J^-1 w_i
    where D = 2 and det J != 0, the LP dual's least vertex bound elsewhere.
    """
    return _velocity_h(np.asarray(G, dtype=float)[None, None], _velocity_rays([J], dirs, h_cap),
                       limits)[0, 0]


# --- the kernels on S joint states and P designs: h (S, P, directions); force
# gives it only for the rows of the designs that every state admits
#
# G comes as (S, P, M, D), or as (1, P, M, D) for designs whose G does not
# depend on the state; the inputs of each state come stacked along a
# leading axis, built once per evaluator. Each direction's h is clipped to
# its own cap, which its rays carry: h_cap on the ellipse directions,
# RAY_CAP on boundary rays. No direction reads another, so a pass over
# several blocks of directions gives each block the bytes of a pass of its own.


class _ForceRays(NamedTuple):
    """The force LP inputs of S joint states."""

    rhs: np.ndarray  # (S, D)
    cols: np.ndarray  # (S, directions, D)
    slack: np.ndarray  # (S,) a ray's phase-1 allowance per unit |n|_inf: 1e-9 max(1, |rhs|_inf)
    cap: np.ndarray  # the most h of each direction: 0-d if one for all, else (directions, 1, 1)


class _VelocityRays(NamedTuple):
    """The velocity LP inputs of S joint states: the (R, W) of dual[r] feed the
    dual clip of the states where J has rank r (see _velocity_h_dual), except
    at D = 2, where the W of dual[2] is J^-1 w, for _velocity_h_planar."""

    rank: np.ndarray  # (S,) rank of J, decided by its error-free 2x2 column minors
    reach: np.ndarray  # (S, directions) whether w lies on range(J); h = 0 off it
    dual: list  # [None, (v, -w_r) at r = 1, (minors of J, w_0 J_1 - w_1 J_0 or J^-1 w) at r = 2]
    box: np.ndarray | None  # (S, directions) at D = 2: min(cap, QDOT_BOX / max_k |(J^-1 w)_k|)
    cap: np.ndarray  # the most h of each direction: 0-d if one for all, else (directions,)


def _force_rays(rhs, cols, cap) -> _ForceRays:
    """cap is one for all directions, or one per direction; a single one
    stays 0-d, which numpy broadcasts at no cost, and a row of them is laid
    out against _force_h's (directions, states, designs) axes."""
    rhs = np.asarray(rhs, dtype=float)
    cap = np.asarray(cap, dtype=float)
    return _ForceRays(rhs, np.asarray(cols, dtype=float),
                      _SLACK_TOL * np.maximum(1.0, np.abs(rhs).max(axis=1)),
                      cap[:, None, None] if cap.ndim else cap)


def _velocity_rays(J, dirs, cap) -> _VelocityRays:
    """Every product of two entries of J, or of J and w, is taken error-free
    (_diff_of_products): the 2x2 minors of J decide its rank exactly, the
    rank-1 range test is the same kind of minor, and W = w_0 J_1 - w_1 J_0 is
    formed once. At D = 2 J^-1 w = (W_1, -W_0) / det J replaces it, laid out
    (2, S, directions) for the planar matmul; 0 - W_0 keeps +0 at W_0 = 0.
    Its bound on h from the qdot box, QDOT_BOX / max_k |(J^-1 w)_k|, does
    not depend on the design and is taken here too, together with the cap
    (one for all directions, or one per direction)."""
    J = np.asarray(J, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    cap = np.asarray(cap, dtype=float)
    s, d = np.arange(len(J)), J.shape[2]
    pairs = _combinations(d, 2).tolist()  # a few states and pairs: Python floats are faster
    minors = np.array([[_diff_of_products(j0[a], j1[b], j0[b], j1[a]) for a, b in pairs]
                       for j0, j1 in J.tolist()]).reshape(len(J), len(pairs))
    rank = np.where(minors.any(axis=1), 2, np.where(J.any(axis=(1, 2)), 1, 0))
    reach = np.where((rank == 2)[:, None], True, ~dirs.any(axis=1))  # at J = 0, only w = 0
    dual = [None, None, None]
    if (rank == 1).any():  # J's largest row spans its row space, its largest column range(J)
        row = np.abs(J).max(axis=2).argmax(axis=1)
        col = J[s, :, np.abs(J).max(axis=1).argmax(axis=1)]
        on_line = _diff_of_products(col[:, None, 0], dirs[:, 1], col[:, None, 1], dirs[:, 0]) == 0
        reach |= (rank == 1)[:, None] & on_line
        dual[1] = J[s, row], -dirs.T[row][..., None]
    W = _diff_of_products(dirs[:, 0, None], J[:, None, 1], dirs[:, 1, None], J[:, None, 0])
    box = None
    if d == 2:
        det = np.where(rank == 2, minors[:, 0], 1.0)[:, None]  # no other state reads it
        inverse = np.stack((W[..., 1], 0.0 - W[..., 0])) / det
        with np.errstate(divide="ignore"):
            box = np.minimum(QDOT_BOX / np.maximum.reduce(np.abs(inverse)), cap)
        W = inverse.transpose(1, 2, 0)
    dual[2] = minors, W
    return _VelocityRays(rank, reach, dual, box, cap)


def _velocity_h(G, rays, limits):
    """h (S, P, directions), never masked: J^-1 w at rank 2 and D = 2, else the dual clip."""
    planar = G.shape[3] == 2
    if planar and (rays.rank == 2).all():
        return _velocity_h_planar(G, rays.dual[2][1], rays.box, limits)
    G = np.broadcast_to(G, (len(rays.rank),) + G.shape[1:])
    h = np.full(G.shape[:2] + rays.reach.shape[1:], rays.cap)  # at J = 0, w = 0 is reached at any h
    for r in (1, 2):
        states = np.flatnonzero(rays.rank == r)
        if len(states):
            R, W = rays.dual[r]
            h[states] = (_velocity_h_planar(G[states], W[states], rays.box[states], limits)
                         if planar and r == 2 else
                         _velocity_h_dual(G[states], r, R[states], W[states], limits, rays.cap))
    return np.where(rays.reach[:, None], h, 0.0)


# --- closed forms ------------------------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's constant for splitting a double


def _two_product(a, b):
    """(p, e) with p = fl(a * b) and p + e == a * b exactly (Dekker)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _diff_of_products(a, b, c, d):
    """a * b - c * d to a few ulps, also where the two products cancel."""
    p, e = _two_product(a, b)
    q, f = _two_product(c, d)
    return (p - q) + (e - f)


def _force_h(G, rays, limits):
    """Liang-Barsky clip of each ray rhs + t col, t >= 0, against Z = {-G^T f}:
    the rows of the designs that every state admits and their h, (S, rows,
    directions).

    Z is the center c0 = -(f_min + f_max)/2 sum_m g_m plus the generators
    (f_max - f_min)/2 g_m, so for any normal n it lies in the slab
    |n . (x - c0)| <= w(n) = (f_max - f_min)/2 sum_m |n . g_m|. The slabs of
    _normals cut out Z exactly, also a flat one. A design is feasible at a
    state when rhs lies in Z, with an allowance: 1e-9 max(1, |rhs|_inf) from
    Z in the L1 norm, so a slab may be missed by |n|_inf times that along n.
    It is the residual that the reference simplex of the tests allows in its
    phase 1. Feasibility is decided first, from the slab offsets alone, and
    the rays are built and clipped only for the designs that every state
    admits: h is where the ray leaves Z, clipped to the direction's cap.
    """
    normals = _normals(G)
    # the slab normals lead from here on, then the directions: every min,
    # max, all and any over them runs over leading axes, (normals,
    # directions, states, designs); sums and matmuls keep their layout
    width = (0.5 * (limits.f_max - limits.f_min)
             * np.add.reduce(np.abs(normals @ G.swapaxes(2, 3)), axis=3)).transpose(2, 0, 1)
    middle = rays.rhs[:, None] + 0.5 * (limits.f_min + limits.f_max) * np.add.reduce(G, axis=2)
    offset = (normals @ middle[..., None])[..., 0].transpose(2, 0, 1)
    slack = rays.slack[:, None] * np.maximum.reduce(
        np.abs(normals.transpose(3, 2, 0, 1), order="C"))  # times the largest |n_k|
    rows = np.flatnonzero(np.logical_and.reduce(np.abs(offset) <= width + slack, axis=(0, 1)))
    if len(rows) < offset.shape[2]:
        width, offset, slack = width[..., rows], offset[..., rows], slack[..., rows]
        normals = normals[:, rows]
    rate = (rays.cols[:, None] @ normals.swapaxes(2, 3)).transpose(3, 2, 0, 1).copy()
    # a ray that drifts across a slab by no more than the allowance over its
    # whole capped length runs along it: that slab bounds no h
    rate[np.abs(rate) * rays.cap <= slack[:, None]] = 0.0
    speed = np.abs(rate)
    along = np.sign(rate)
    along *= offset[:, None]  # rhs's offset from the mid-line, signed along the ray
    # 0/0 (a zero normal, or a ray along a zero-width slab) bounds nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.fmin.reduce((width[:, None] - along) / speed)
    return rows, np.maximum(np.fmin(h, rays.cap), 0.0).transpose(1, 2, 0)


def _normals(G):
    """Slab normals of Z = {-G^T f} for generators G (..., M, D), (..., K, D)
    and C-contiguous, since matmul rounds some sums differently on a strided
    array: the generalized cross products of every K = C(M + D, D - 1)
    choice of D - 1 rows of [G; I_D], (-1)^k det(the rows without column k).

    Every facet normal of a full-dimensional Z is the product of D - 1
    generators (Gouttefarde and Krut, ARK 2010; Bouchard, Gosselin and
    Moore, J. Mech. Robot. 2(1), 2010); the products with axes close a flat
    Z. For D = 2 they are perp(g_m) and the two axes, for D = 1 just [1].
    """
    return _minors(G, G.shape[-1] - 1)


def _minors(G, k):
    """The k x k minors of [G; I_D], (..., C(M + D, k), C(D, k)), of every k
    rows in the columns left by each choice c of D - k columns to drop,
    signed (-1)^(sum c + (D - k)(D - k - 1) / 2), so that for Q of D - k rows
    det([rows; Q]) = (-1)^(k (D - k)) sum_c minors[c] det(Q[:, c])."""
    m, d = G.shape[-2:]
    index, eye, signs = _minor_index(m + d, d, k)
    rows = np.empty(G.shape[:-2] + ((m + d) * d,))  # [G; I_D], flattened
    rows[..., : m * d] = G.reshape(G.shape[:-2] + (m * d,))
    rows[..., m * d :] = eye
    return _det(np.take(rows, index, axis=-1)) * signs


@cache
def _minor_index(n_rows, d, k):
    """_minors' gather indices (K, C, k, k) into n_rows flattened rows of D
    entries, I_D flattened, and its signs as a (K, C) array, which
    multiplies faster than a broadcast (C,) row."""
    drops = list(combinations(range(d), d - k))
    cols = np.array([[c for c in range(d) if c not in drop] for drop in drops], dtype=int)
    index = d * _combinations(n_rows, k)[:, None, :, None] + cols[None, :, None, :]
    signs = [(-1.0) ** (sum(drop) + (d - k) * (d - k - 1) // 2) for drop in drops]
    return index, np.eye(d).ravel(), np.tile(signs, (index.shape[0], 1))


@cache
def _combinations(n, k):
    """Every choice of k of range(n), (C(n, k), k), in combinations order."""
    return np.array(list(combinations(range(n), k)), dtype=int).reshape(comb(n, k), k)


@cache
def _faces(n, k):
    """For each choice of k of range(n): where it is without its i-th member
    among the choices of k - 1, (C(n, k), k)."""
    where = {c: i for i, c in enumerate(combinations(range(n), k - 1))}
    return np.array([[where[c[:i] + c[i + 1 :]] for i in range(k)]
                     for c in combinations(range(n), k)], dtype=int).reshape(comb(n, k), k)


def _det(a):
    """Determinants of the (..., n, n) stack by cofactor expansion along the
    first row: exact for n = 1, a d - b c for n = 2."""
    n = a.shape[-1]
    if n <= 1:
        return a[..., 0, 0] if n else np.ones(a.shape[:-2])
    return sum((-1) ** i * a[..., 0, i] * _det(np.delete(a[..., 1:, :], i, axis=-1))
               for i in range(n))


def _velocity_h_planar(G, inverse, box, limits):
    """min over wires of the speed bound along a = G J^-1 w, and box, the
    cap and the qdot box's bound (S, directions)."""
    # the wires lead: (wires, states, designs, directions)
    a = (inverse[:, None] @ G.swapaxes(2, 3)).transpose(3, 0, 1, 2).copy()
    with np.errstate(divide="ignore"):
        h = np.minimum.reduce(np.where(a > 0, limits.ldot_max, -limits.ldot_min) / np.abs(a))
    return np.minimum(h, box[:, None])


def _velocity_h_dual(G, r, R, W, limits, cap):
    """h from the LP dual, at states where J has rank r and w lies on range(J).

    With R the r rows that span J's row space, the LP asks for the largest h
    with R qdot = h omega and lo <= H qdot <= up, H = [G; I_D] (wire speeds,
    formal qdot box). Any y, mu with H^T y + R^T mu = 0 and mu.omega != 0
    bound it: h <= sum_i max(s y_i up_i, s y_i lo_i) / |mu.omega| with
    s = -sign(mu.omega), and by LP duality h is the least bound of the dual's
    vertices: the null vectors of [H_S^T | R^T], S any D + 1 - r rows of H,
    y_i = (-1)^i det([H_(S-i); R]) and mu.omega = det([H_S; W]) (by _minors,
    up to a shared sign). R and W enter by their minors: at r = 2 the 2x2
    minors of J and w_0 J_1 - w_1 J_0, error-free, so J enters only through
    error-free products; at r = 1 v and -omega. Every candidate is
    dual-feasible: no feasibility test, only a minimum. An S degenerate
    together with R (repeated, parallel or zero rows, rows in range(J^T)) has
    y = 0 and mu = 0 exactly: a y_i or mu.omega within its rounding bound,
    _MINOR_TOL prod_(rows) |h|_1 |R|_1 or |W|_1, is taken as 0, and such an S
    bounds nothing, as 0/0 in the force clip. h is clipped to cap, 0-d or
    (directions,).
    """
    m, d = G.shape[2:]
    k = d + 1 - r
    norms = np.concatenate((np.abs(G).sum(axis=3), np.ones(G.shape[:2] + (d,))), axis=2)
    scale = [_MINOR_TOL * norms[..., _combinations(m + d, j)].prod(axis=3) for j in (k - 1, k)]
    y = (_minors(G, k - 1) @ R[:, None, :, None])[..., 0]
    y[np.abs(y) <= scale[0] * np.abs(R).sum(axis=1)[:, None, None]] = 0.0
    y = y[..., _faces(m + d, k)] * (-1.0) ** np.arange(k)  # (states, designs, choices, k)
    lo = np.repeat([limits.ldot_min, -QDOT_BOX], [m, d])[_combinations(m + d, k)]
    up = np.repeat([limits.ldot_max, QDOT_BOX], [m, d])[_combinations(m + d, k)]
    rise = np.where(y > 0, y * up, y * lo).sum(axis=3)[..., None]  # s = 1, where mu.omega < 0
    fall = np.where(y < 0, -y * up, -y * lo).sum(axis=3)[..., None]
    mu = _minors(G, k) @ W[:, None].swapaxes(2, 3)  # (states, designs, choices, directions)
    mu[np.abs(mu) <= scale[1][..., None] * np.abs(W).sum(axis=2)[:, None, None]] = 0.0
    # the choices lead: (choices, states, designs, directions)
    mu = mu.transpose(2, 0, 1, 3).copy()
    rise, fall = rise.transpose(2, 0, 1, 3), fall.transpose(2, 0, 1, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.fmin.reduce(np.where(mu < 0, rise, fall) / np.abs(mu))
    return np.fmin(h, cap, out=h)


# --- scoring designs over the joint states -----------------------------------------


def _score(model, passes, scenario, designs):
    """Objectives (P, 2) and the feasible mask (P,) of a (P,) stack of
    designs, and the force and velocity h, (S, F, directions), of the F
    feasible ones in row order. The objectives read the first
    n_directions directions, the ellipse's; any after them (boundary rays)
    are scored alongside.

    passes holds the _stack of the states the first kernel pass scores on
    every design, and that of the later states, or None: they are scored,
    stacked, on the designs the first pass admits (see _passes). A design
    is feasible when every state admits it. Its objectives are s_0 + s_1 +
    ..., s_k its summed shortfall at state k, added in state order.
    """
    first, rest = passes
    rows, hf, hv = _pass(model, first, designs, scenario.limits)
    if rest is not None and len(rows):
        kept, hf_rest, hv_rest = _pass(model, rest, designs[rows], scenario.limits)
        rows = rows[kept]
        hf = np.concatenate((hf[:, kept], hf_rest))
        hv = np.concatenate((hv[:, kept], hv_rest))
    n = scenario.target.n_directions
    shortfall = np.maximum(1.0 - np.stack((hf[..., :n], hv[..., :n]), axis=2), 0.0).sum(axis=3)
    totals = np.zeros((len(designs.fractions), 2))
    totals[rows] = np.add.accumulate(shortfall)[-1]
    feasible = np.zeros(len(designs.fractions), dtype=bool)
    feasible[rows] = True
    return totals, feasible, hf, hv


def _pass(model, states, designs, limits):
    """The rows of a (P,) stack of designs that every state's force LP of one
    pass admits, and their force and velocity h, (S, rows, directions)."""
    links, force, velocity = states
    G = batch_muscle_jacobian(model, designs, links)
    rows, hf = _force_h(G, force, limits)
    if len(rows) < G.shape[1]:
        G = G[:, rows]
    return rows, hf, _velocity_h(G, velocity, limits)


def _stack(model: RobotModel, tables: StateTables, force_dirs, velocity_dirs, cap):
    """The design-independent inputs of one kernel pass over the S states of
    tables along the (directions, 2) tip-space directions, each clipped to
    its cap (a scalar or one per direction): the link tables that relay
    points look up, and rays."""
    return (link_tables(model, forward_kinematics(model, tables.q)),
            _force_rays(tables.rhs, force_dirs @ tables.J, cap),
            _velocity_rays(tables.J, velocity_dirs, cap))


def _passes(stack, designs: Design):
    """_score's passes for a (P,) stack of designs over a _stack: state 0,
    then the later states, when the batch has more than SCREEN_ROWS
    variable designs and there is a later state; else the whole stack in
    one pass.

    The screen spares the later states the rows that state 0 prunes, for
    the fixed cost of a second pass, and a pass over every state costs
    more than its share per row on a large batch. On the last rows of a
    desk search (scripts/kernel_us.py) one pass is the cheaper at 40 and
    100 rows, the screen at 500, and they cross near 200. Constant designs
    take one pass at any size: their G does not depend on the state, so
    the screen spares no Jacobian work, and one pass is the cheaper on
    every constant_relaxed case there."""
    if (designs.links is None or len(designs.fractions) <= SCREEN_ROWS
            or len(stack[1].rhs) == 1):
        return stack, None
    return _take(stack, slice(1)), _take(stack, slice(1, None))


def _take(stack, states: slice):
    """The inputs of one kernel pass over the states of a _stack that a
    slice picks, as views: the state axis follows the link tables' components
    and leads every other field but the caps, which have none."""
    links, force, velocity = stack
    dual = [None if part is None else tuple(a[states] for a in part) for part in velocity.dual]
    box = None if velocity.box is None else velocity.box[states]
    return (links._replace(frames=links.frames[:, states]),
            _ForceRays(*(a[states] for a in force[:3]), force.cap),
            _VelocityRays(velocity.rank[states], velocity.reach[states], dual, box, velocity.cap))


def make_evaluator(model: RobotModel, scenario: Scenario):
    """Batch evaluator over per-state inputs built once.

    It maps genome rows, reals (P, n_reals) and cats (P, n_cats), to
    (objectives, feasible): the (P, 2) (e_force, e_velocity) scores and the
    (P,) mask of designs that every state's LPs admit. Rows the mask marks
    pruned carry no score. The gene counts fix the design family (see
    genome_space). The batch's size picks its kernel passes (_passes),
    never its bytes.
    """
    target = scenario.target
    tables = state_tables(model, scenario.joint_states, target, scenario.gravity)
    stack = _stack(model, tables, force_directions(target), velocity_directions(target),
                   scenario.h_cap)

    def run(reals: np.ndarray, cats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        reals = np.asarray(reals, dtype=float)
        cats = np.asarray(cats)
        space = genome_space(reals.shape[1], cats.shape[1], model.n_joints)
        designs = genome_rows_decode(reals, cats, space)
        return _score(model, _passes(stack, designs), scenario, designs)[:2]

    return run


def evaluate(model: RobotModel, designs: Design, scenario: Scenario,
             n_rays: int = 0) -> EvaluationResult:
    """Score designs over all evaluated joint states, with their per-state h
    and the tables of those states; with n_rays > 0 (at least MIN_RAYS),
    trace their force and velocity boundaries too, anchor + h * ray along
    n_rays uniform rays from each state's anchor (force) or the origin.

    The rays are cast in the scoring pass: one kernel pass takes the
    ellipse directions, capped at h_cap, followed by the n_rays boundary
    rays, capped at RAY_CAP, and every value has the bytes of a pass of
    its own. The result's fields take the designs' leading axes, and a
    design with none gives numpy scalars. Pruned designs read NaN, their
    boundaries too. The designs' count picks the kernel passes, as it does
    for the evaluator."""
    target = scenario.target
    tables = state_tables(model, scenario.joint_states, target, scenario.gravity)
    rays = _unit_rays(n_rays) if n_rays else np.empty((0, 2))
    n = target.n_directions
    stack = _stack(model, tables, np.concatenate((force_directions(target), rays)),
                   np.concatenate((velocity_directions(target), rays)),
                   np.repeat([scenario.h_cap, RAY_CAP], [n, n_rays]))
    flat = designs.reshape(-1)
    totals, feasible, hf, hv = _score(model, _passes(stack, flat), scenario, flat)
    h = np.full((2, len(feasible)) + hf.shape[::2], np.nan)  # (force|velocity, P, S, directions)
    h[:, feasible] = np.stack((hf, hv)).swapaxes(1, 2)
    totals[~feasible] = np.nan
    fields = (feasible, *h[..., :n], *totals.T, *_boundaries(tables, h[..., n:], rays))
    fields = [a.reshape(designs.shape + a.shape[1:])[()] for a in fields]
    return EvaluationResult(*fields[:5], tables, *fields[5:])


def _unit_rays(n_rays: int) -> np.ndarray:
    """n_rays uniform unit directions, (n_rays, 2)."""
    if n_rays < MIN_RAYS:
        raise ValueError(f"need at least {MIN_RAYS} rays")
    return ellipse_directions(np.ones(2), n_rays)


def _boundaries(states: StateTables, h, rays):
    """The force and velocity boundary points anchor + h * ray, (2, P, S,
    rays, 2), of h (2, P, S, rays): force rays leave each state's anchor,
    velocity rays the origin."""
    anchors = np.stack((states.anchor, np.zeros_like(states.anchor)))
    return anchors[:, None, :, None] + h[..., None] * rays
