"""Scoring of wire arrangements against target force/velocity ellipses.

For every evaluated joint state and every ellipse direction, a small LP
defines the factor h by which the feasible operational space covers the
target along that direction: h >= 1 means covered. The objectives to
minimize are E_force and E_velocity, the summed shortfalls max(1-h, 0).
For the planar two-joint robots (D = 2) both LPs have closed forms, a ray
clipped against the torque zonotope and a ray bounded through J^-1 (at an
exactly singular J, a two-variable LP along null(J)), which are what runs;
the simplex solves them for any other D, one design at a time.

Designs are scored in batches of one shape: make_evaluator's evaluator maps
a generation's genome rows to objectives and a feasible mask, with G and
both kernels carrying leading (state, design) axes. It runs the kernels in
two passes: state 0 on every design, then all later states stacked on the
designs state 0 admits. A design is feasible when every state admits it.
Everything that does not depend on the design (poses, right-hand sides,
J^-1 w) is built once per evaluator. evaluate scores one design, all its
states in one pass; force_h_all and velocity_h_all are the one-state,
one-design case.

The h variable is unbounded inside the LPs; reported values are clipped to
h_cap afterwards. That makes every score independent of the cap (any cap
>= 1 yields identical objectives, since contributions vanish at h >= 1)
and turns genuinely unbounded velocity sets into a plain h = h_cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import simplex
from .arrangement import (
    ConstantArrangement,
    WireArrangement,
    batch_muscle_jacobian,
    genome_rows_decode,
    genome_space,
    muscle_jacobian,
    state_poses,
)
from .model import RobotModel, gravity_torque, joint_jacobian

DEFAULT_H_CAP = 10.0
MIN_RAYS = 8  # fewest boundary rays trace_polygon accepts
RAY_CAP = 1e6  # where trace_polygon stops a ray through an unbounded set
_THETA_DOT_BOUND = 1e6  # formal box on joint velocities; binds only on long rays
_SLACK_TOL = 1e-9  # force rays may miss Z by this much, scaled like the simplex's phase 1
_SINGULAR_RESIDUAL = 1e-6


class InfeasibleDesign(Exception):
    """Raised when trace_polygon cannot reach its anchor; the design is pruned."""


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
        if np.any(self.force_radii <= 0) or np.any(self.velocity_radii <= 0):
            raise ValueError("ellipse radii must be positive")
        if self.n_directions < 3:
            raise ValueError("need at least 3 ellipse directions")


@dataclass
class ActuatorLimits:
    f_min: float
    f_max: float
    ldot_min: float
    ldot_max: float

    def __post_init__(self):
        if not 0 < self.f_min < self.f_max:
            raise ValueError("need 0 < f_min < f_max")
        if not self.ldot_min < 0 < self.ldot_max:
            raise ValueError("need ldot_min < 0 < ldot_max")


@dataclass
class Scenario:
    """Evaluation context: limits, targets, gravity switch, joint states."""

    limits: ActuatorLimits
    target: TargetSpec
    joint_states: list[np.ndarray]
    gravity: bool = False
    h_cap: float = DEFAULT_H_CAP

    def __post_init__(self):
        if not self.joint_states:
            raise ValueError("need at least one evaluated joint state")
        self.joint_states = [np.asarray(q, dtype=float) for q in self.joint_states]
        if self.h_cap < 1.0:
            raise ValueError("h_cap below 1 would distort the objectives")

    @property
    def max_objective(self) -> float:
        return float(self.target.n_directions * len(self.joint_states))


@dataclass
class EvaluationResult:
    """Per-state h arrays and the summed shortfall objectives."""

    feasible: bool
    h_force: list[np.ndarray] | None = None
    h_velocity: list[np.ndarray] | None = None
    e_force: float | None = None
    e_velocity: float | None = None


class GravityCenter(NamedTuple):
    center: np.ndarray
    residual: float

    @property
    def singular(self) -> bool:
        return self.residual > _SINGULAR_RESIDUAL


def ellipse_directions(radii: np.ndarray, n_directions: int) -> np.ndarray:
    """Direction vectors w_i = (rx cos(2 pi i / N), ry sin(2 pi i / N))."""
    ang = 2.0 * np.pi * np.arange(n_directions) / n_directions
    return np.column_stack([radii[0] * np.cos(ang), radii[1] * np.sin(ang)])


def force_directions(target: TargetSpec) -> np.ndarray:
    return ellipse_directions(target.force_radii, target.n_directions)


def velocity_directions(target: TargetSpec) -> np.ndarray:
    return ellipse_directions(target.velocity_radii, target.n_directions)


def gravity_center(model: RobotModel, q: np.ndarray) -> GravityCenter:
    """Minimum-norm tip force whose joint torque equals the gravity torque.

    This is the force anchor in gravity mode; the LPs use the torque
    directly. Falls back to the least-squares minimum-norm solution at a
    singular J and reports the residual.
    """
    tau_g = gravity_torque(model, q)
    jt = joint_jacobian(model, q).T
    center, *_ = np.linalg.lstsq(jt, tau_g, rcond=None)
    residual = float(np.linalg.norm(jt @ center - tau_g))
    return GravityCenter(center, residual)


class StateTables(NamedTuple):
    """Design-independent pieces of one evaluated joint state."""

    q: np.ndarray
    J: np.ndarray
    rhs: np.ndarray  # force LP right-hand side: J^T anchor, or the gravity torque
    anchor: np.ndarray  # tip force the force rays leave from
    residual: float | None  # gravity_center residual; None without gravity
    force_cols: np.ndarray  # J^T w_i, one row per direction
    velocity_dirs: np.ndarray


def state_tables(model: RobotModel, q: np.ndarray, target: TargetSpec,
                 gravity: bool) -> StateTables:
    """The one force-anchor rule, plus the per-direction LP inputs at q.

    Without gravity the anchor is the ellipse center and rhs = J^T center.
    With gravity rhs is the gravity torque and the anchor is the force that
    holds it (gravity_center); the two agree whenever J is invertible.
    """
    J = joint_jacobian(model, q)
    if gravity:
        rhs = gravity_torque(model, q)
        anchor, residual = gravity_center(model, q)
    else:
        anchor, residual = target.force_center, None
        rhs = J.T @ anchor
    return StateTables(q, J, rhs, anchor, residual, force_directions(target) @ J,
                       velocity_directions(target))


def _clip_h(code: int, value: float, h_cap: float) -> float | None:
    if code == simplex.INFEASIBLE:
        return None
    if code == simplex.UNBOUNDED:
        return h_cap
    return min(value, h_cap)


def force_h_all(G, rhs, cols, limits, h_cap):
    """h for every force direction, or None when any direction is infeasible.

    G is the (M, D) muscle Jacobian, rhs the joint-space right-hand side at
    the anchor (J^T times the ellipse center, or the gravity torque) and
    each row of cols the joint-space image J^T w_i of one direction.
    Direction i asks for the largest h >= 0 with -G^T f - h (J^T w_i) = rhs
    for some f in the tension box. Values are clipped to h_cap, which an
    unbounded ray reads as well. For D = 2 the ray is clipped against the
    torque zonotope in closed form; other D solve one LP per direction.
    """
    h, feasible = _force_h(np.asarray(G, dtype=float)[None, None], _force_rays([rhs], [cols]),
                           limits, h_cap)
    return h[0, 0] if feasible[0, 0] else None


def velocity_h_all(G, J, dirs, limits, h_cap):
    """h for every velocity direction, or None when any direction is infeasible.

    G is the (M, D) muscle Jacobian, J the (2, D) joint Jacobian and each row
    of dirs one operational-space direction w_i. Direction i asks for the
    largest h >= 0 with J qdot = h w_i, G qdot inside the wire-speed box and
    qdot inside a wide formal box. Values are clipped to h_cap, which an
    unbounded ray reads as well. For D = 2 h has a closed form: qdot =
    h J^-1 w_i where det J != 0, a two-variable LP along null(J) where J is
    exactly singular. Other D solve one LP per direction.
    """
    h, feasible = _velocity_h(np.asarray(G, dtype=float)[None, None], _velocity_rays([J], dirs),
                              limits, h_cap)
    return h[0, 0] if feasible[0, 0] else None


# --- the kernels on S joint states and P designs: h (S, P, directions), feasible (S, P)
#
# G comes as (S, P, M, D), or as (1, P, M, D) for designs whose G does not
# depend on the state; the inputs of each state come stacked along a
# leading axis, built once per evaluator.


class _ForceRays(NamedTuple):
    """The force LP inputs of S joint states."""

    rhs: np.ndarray  # (S, D)
    cols: np.ndarray  # (S, directions, D)
    slack: np.ndarray  # (S,) a ray's phase-1 allowance per unit |n|_inf: 1e-9 max(1, |rhs|_inf)


class _VelocityRays(NamedTuple):
    """The velocity LP inputs of S joint states; the last two only for D = 2."""

    J: np.ndarray  # (S, 2, D)
    dirs: np.ndarray  # (directions, 2), the same at every state
    inverse: np.ndarray | None  # (S, directions, 2) J^-1 w, 0 where J is singular
    singular: np.ndarray | None  # (S,) whether J is exactly singular (compensated det == 0)


def _force_rays(rhs, cols) -> _ForceRays:
    rhs = np.asarray(rhs, dtype=float)
    return _ForceRays(rhs, np.asarray(cols, dtype=float),
                      _SLACK_TOL * np.maximum(1.0, np.abs(rhs).max(axis=1)))


def _velocity_rays(J, dirs) -> _VelocityRays:
    """J^-1 w = adj(J) w / det J, each entry a difference of two error-free
    products, like the det itself."""
    J = np.asarray(J, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    if J.shape[2] != 2:
        return _VelocityRays(J, dirs, None, None)
    det = np.array([_diff_of_products(j00, j11, j01, j10) for (j00, j01), (j10, j11) in J.tolist()])
    singular = det == 0.0
    adj = J[:, [[1, 0], [0, 1]], [[1, 0], [1, 0]]]  # [[J11, J00], [J01, J10]] per state
    p, e = _two_product(adj[:, None], dirs[:, _ADJ_PAIRS])
    u = (p[:, :, 0] - p[:, :, 1]) + (e[:, :, 0] - e[:, :, 1])
    u /= np.where(singular, 1.0, det)[:, None, None]
    u[singular] = 0.0
    return _VelocityRays(J, dirs, u, singular)


def _force_h(G, rays, limits, h_cap):
    if G.shape[3] == 2:
        return _force_h_planar(G, rays, limits, h_cap)
    return _each_design(_force_h_simplex, G, rays.cols.shape[1], (rays.rhs, rays.cols),
                        limits, h_cap)


def _velocity_h(G, rays, limits, h_cap):
    if G.shape[3] != 2:
        return _each_design(_velocity_h_simplex, G, len(rays.dirs), (rays.J,), rays.dirs,
                            limits, h_cap)
    shape = (len(rays.J), G.shape[1])
    if rays.singular.any():
        G = np.broadcast_to(G, shape + G.shape[2:])
        regular = ~rays.singular
        h = np.empty(shape + (len(rays.dirs),))
        h[regular] = _velocity_h_planar(G[regular], rays.inverse[regular], limits, h_cap)
        for s in np.flatnonzero(rays.singular):
            h[s] = _velocity_h_singular(G[s], rays.J[s], rays.dirs, limits, h_cap)
    else:
        h = _velocity_h_planar(G, rays.inverse, limits, h_cap)
    return h, np.ones(shape, dtype=bool)  # qdot = 0 always holds


def _each_design(kernel, G, n_dirs, per_state, *shared):
    """A one-design kernel (h or None) run on every state and design of the
    stack; per_state holds the kernel's (S, ...) inputs that vary with the
    state, shared the ones after them."""
    shape = (len(per_state[0]), G.shape[1])
    G = np.broadcast_to(G, shape + G.shape[2:])
    h = np.zeros(shape + (n_dirs,))
    feasible = np.ones(shape, dtype=bool)
    for s, k in np.ndindex(shape):
        hk = kernel(G[s, k], *(a[s] for a in per_state), *shared)
        if hk is None:
            feasible[s, k] = False
        else:
            h[s, k] = hk
    return h, feasible


# --- closed forms for D = 2 ---------------------------------------------------

_PERP = np.array([[0.0, 1.0], [-1.0, 0.0]])  # g @ _PERP is g turned by +90 degrees
_AXES = np.eye(2)
_ADJ_PAIRS = np.array([[0, 1], [1, 0]])  # dirs[:, _ADJ_PAIRS][k] = [[w0, w1], [w1, w0]]
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


def _force_h_planar(G, rays, limits, h_cap):
    """Liang-Barsky clip of each ray rhs + t col, t >= 0, against Z = {-G^T f}.

    Z is the center c0 = -(f_min + f_max)/2 sum_m g_m plus the generators
    (f_max - f_min)/2 g_m, so for any normal n it lies in the slab
    |n . (x - c0)| <= w(n) = (f_max - f_min)/2 sum_m |n . g_m|. The facet
    normals perp(g_m) cut out a full-dimensional Z exactly. The two axes are
    redundant there, but they close a segment (rank-1 G: a segment is never
    perpendicular to both axes) and a point (rank-0 G). h is where the ray
    leaves Z, also when rhs lies outside Z and the ray enters it. Whether a
    ray meets Z at all is decided with the simplex's phase-1 allowance: a
    slab may be missed by 1e-9 max(1, |rhs|_inf) in the L1 norm of the
    phase-1 residual, which is that times |n|_inf along n. A design is
    infeasible at a state when some ray misses Z there.
    """
    m = G.shape[2]
    normals = np.empty(G.shape[:2] + (m + 2, 2))
    normals[:, :, :m] = G @ _PERP
    normals[:, :, m:] = _AXES
    width = 0.5 * (limits.f_max - limits.f_min) * np.abs(normals @ G.swapaxes(2, 3)).sum(axis=3)
    middle = rays.rhs[:, None] + 0.5 * (limits.f_min + limits.f_max) * G.sum(axis=2)
    offset = (normals @ middle[..., None])[..., 0]
    slack = rays.slack[:, None, None] * np.abs(normals).max(axis=3)
    rate = rays.cols[:, None] @ normals.swapaxes(2, 3)  # (states, designs, directions, normals)
    # a ray that drifts across a slab by no more than the allowance over its
    # whole capped length runs along it: that slab bounds no h
    rate[np.abs(rate) * h_cap <= slack[:, :, None]] = 0.0
    speed = np.abs(rate)
    along = np.sign(rate) * offset[:, :, None]  # rhs's offset from the mid-line, signed along the ray
    inside = np.abs(offset) <= width + slack
    feasible = inside.all(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        if not feasible.all():  # rhs outside Z: every ray has to enter it
            enter = np.fmax.reduce(((-width - slack)[:, :, None] - along) / speed, axis=3)
            leave = np.fmin.reduce(((width + slack)[:, :, None] - along) / speed, axis=3)
            feasible |= (~((speed == 0) & ~inside[:, :, None]).any(axis=(2, 3))
                         & ((enter <= leave) & (leave >= 0)).all(axis=2))
        # 0/0 (a zero normal, or a ray along a zero-width slab) bounds nothing
        h = np.fmin.reduce((width[:, :, None] - along) / speed, axis=3)
    return np.maximum(np.fmin(h, h_cap), 0.0), feasible


def _velocity_h_planar(G, inverse, limits, h_cap):
    """min over wires of the speed bound along a = G J^-1 w, and the qdot box."""
    a = inverse[:, None] @ G.swapaxes(2, 3)  # (states, designs, directions, wires)
    with np.errstate(divide="ignore"):
        h = (np.where(a > 0, limits.ldot_max, -limits.ldot_min) / np.abs(a)).min(
            axis=3, initial=h_cap)
        return np.minimum(h, (_THETA_DOT_BOUND / np.abs(inverse).max(axis=2))[:, None])


def _velocity_h_singular(G, J, dirs, limits, h_cap):
    """h at an exactly singular J (compensated det J == 0).

    J qdot = h w has a solution only for w on range(J), decided with the
    same error-free products as det J; off it, h = 0. With v a nonzero row
    of J and n = perp(v) spanning null(J), qdot = h s v + t n for the scalar
    s = w_r / |v|^2 solves J qdot = h w, so h s ranges over the extent, in
    its first coordinate, of one polygon in (h s, t) per design: the 2M
    wire-speed lines and the 4 qdot-box lines. J = 0 and w = 0 leave h
    unbounded.
    """
    n_designs, m = G.shape[:2]
    if not J.any():
        return np.tile(np.where(dirs.any(axis=1), 0.0, h_cap), (n_designs, 1))
    r = int(np.argmax(np.abs(J).max(axis=1)))
    c = int(np.argmax(np.abs(J).max(axis=0)))  # a nonzero column spans range(J)
    on_range = _diff_of_products(J[0, c], dirs[:, 1], J[1, c], dirs[:, 0]) == 0.0
    v = J[r]
    n = np.array([-v[1], v[0]])
    s = dirs[:, r] / (v @ v)
    # a (h s) + b t <= bound: ldot_min <= G qdot <= ldot_max and |qdot_k| <= 1e6
    gv, gn = G @ v, G @ n
    box_a = np.broadcast_to([v[0], -v[0], v[1], -v[1]], (n_designs, 4))
    box_b = np.broadcast_to([n[0], -n[0], n[1], -n[1]], (n_designs, 4))
    a = np.concatenate((gv, -gv, box_a), axis=1)
    b = np.concatenate((gn, -gn, box_b), axis=1)
    bound = np.concatenate((np.full(m, limits.ldot_max), np.full(m, -limits.ldot_min),
                            np.full(4, _THETA_DOT_BOUND)))
    most, least = _lp_max_first(a, b, bound)[:, None], _lp_max_first(-a, b, bound)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(s > 0, most / s, np.where(s < 0, least / -s, np.inf))
    return np.where(on_range, np.minimum(h, h_cap), 0.0)


def _lp_max_first(a, b, c):
    """max x over {(x, t): a x + b t <= c}, one polygon per row, all c >= 0.

    Eliminating t (Fourier-Motzkin) leaves the constraints with b = 0 and
    one per pair of constraints that bound t from opposite sides; each that
    bounds x from above does so at the vertex of its two lines. Since c >= 0
    the origin is feasible, and the least of these bounds is the maximum
    (inf where none bounds x).
    """
    ai, bi, ci = a[:, :, None], b[:, :, None], c[:, None]
    aj, bj, cj = a[:, None, :], b[:, None, :], c[None, :]
    k = _diff_of_products(aj, bi, ai, bj)
    pair = (bi > 0) & (bj < 0) & (k > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where(pair, (cj * bi - ci * bj) / k, np.inf)  # both terms >= 0
        flat = np.where((b == 0) & (a > 0), c / a, np.inf)
    return np.minimum(vertex.min(axis=(1, 2)), flat.min(axis=1))


# --- the LP per direction: any D -----------------------------------------------


def _force_h_simplex(G, rhs, cols, limits, h_cap):
    """One LP per row of cols, in variables (h, f): -G^T f - h col = rhs."""
    m_wires, d = G.shape
    n = 1 + m_wires
    a = np.empty((d, n))
    a[:, 1:] = -G.T
    c = np.zeros(n)
    c[0] = 1.0
    lo = np.empty(n)
    up = np.empty(n)
    lo[0], up[0] = 0.0, np.inf
    lo[1:], up[1:] = limits.f_min, limits.f_max
    out = np.empty(len(cols))
    for i, col in enumerate(cols):
        a[:, 0] = -col
        code, _, value = simplex.solve_arrays(a, rhs, c, lo, up)
        h = _clip_h(code, value, h_cap)
        if h is None:
            return None
        out[i] = h
    return out


def _velocity_h_simplex(G, J, dirs, limits, h_cap):
    """One LP per row of dirs, in variables (h, qdot, y): J qdot = h w, y = G qdot."""
    m_wires, d = G.shape
    n = 1 + d + m_wires
    rows = 2 + m_wires
    a = np.zeros((rows, n))
    a[:2, 1 : 1 + d] = J
    a[2:, 1 : 1 + d] = G
    a[2:, 1 + d :] = -np.eye(m_wires)
    b = np.zeros(rows)
    c = np.zeros(n)
    c[0] = 1.0
    lo = np.empty(n)
    up = np.empty(n)
    lo[0], up[0] = 0.0, np.inf
    lo[1 : 1 + d], up[1 : 1 + d] = -_THETA_DOT_BOUND, _THETA_DOT_BOUND
    lo[1 + d :], up[1 + d :] = limits.ldot_min, limits.ldot_max
    out = np.empty(len(dirs))
    for i, w in enumerate(dirs):
        a[0, 0] = -w[0]
        a[1, 0] = -w[1]
        code, _, value = simplex.solve_arrays(a, b, c, lo, up)
        h = _clip_h(code, value, h_cap)
        if h is None:
            return None
        out[i] = h
    return out


# --- scoring designs over the joint states -----------------------------------------


def _score(model, passes, scenario, links, fractions):
    """Objectives (P, 2) and the feasible mask (P,) of P designs of one
    shape, and the force and velocity h, (S, F, directions), of the F
    feasible ones in row order.

    links and fractions are batch_muscle_jacobian's inputs. passes holds
    the _stack of the states the first kernel pass scores on every design,
    and that of the later states, or None: they are scored, stacked, on the
    designs the first pass admits. A design is feasible when every state
    admits it. Its objectives are s_0 + s_1 + ..., s_k its summed shortfall
    at state k, added in state order.
    """
    first, rest = passes
    limits, h_cap = scenario.limits, scenario.h_cap
    rows, hf, hv = _pass(model, first, links, fractions, limits, h_cap)
    if rest is not None and len(rows):
        kept, hf_rest, hv_rest = _pass(model, rest, None if links is None else links[rows],
                                       fractions[rows], limits, h_cap)
        rows = rows[kept]
        hf = np.concatenate((hf[:, kept], hf_rest))
        hv = np.concatenate((hv[:, kept], hv_rest))
    shortfall = np.maximum(1.0 - np.stack((hf, hv), axis=2), 0.0).sum(axis=3)
    totals = np.zeros((len(fractions), 2))
    totals[rows] = np.add.accumulate(shortfall)[-1]
    feasible = np.zeros(len(fractions), dtype=bool)
    feasible[rows] = True
    return totals, feasible, hf, hv


def _pass(model, states, links, fractions, limits, h_cap):
    """The rows of the P designs that every state of one pass admits, and
    their force and velocity h, (S, rows, directions)."""
    pose, force, velocity = states
    G = batch_muscle_jacobian(model, links, fractions, pose)
    hf, ok = _force_h(G, force, limits, h_cap)
    rows = np.flatnonzero(ok.all(axis=0))
    hv, ok = _velocity_h(G[:, rows], velocity, limits, h_cap)
    ok = ok.all(axis=0)
    return rows[ok], hf[:, rows[ok]], hv[:, ok]


def _stack(model: RobotModel, tables: list[StateTables]):
    """The design-independent inputs of one kernel pass over the states of
    tables: their poses, force rays and velocity rays."""
    return (state_poses(model, [t.q for t in tables]),
            _force_rays([t.rhs for t in tables], [t.force_cols for t in tables]),
            _velocity_rays([t.J for t in tables], tables[0].velocity_dirs))


def _scenario_tables(model: RobotModel, scenario: Scenario) -> list[StateTables]:
    return [state_tables(model, q, scenario.target, scenario.gravity)
            for q in scenario.joint_states]


def make_evaluator(model: RobotModel, scenario: Scenario):
    """Batch evaluator over per-state inputs built once.

    It maps genome rows, reals (P, n_reals) and cats (P, n_cats), to
    (objectives, feasible): the (P, 2) (e_force, e_velocity) scores and the
    (P,) mask of designs that every state's LPs admit. Rows the mask marks
    pruned carry no score. The gene counts fix the design family (see
    genome_space). Most designs of a generation fail the first state, so it
    is scored on its own, before the rest.
    """
    tables = _scenario_tables(model, scenario)
    passes = (_stack(model, tables[:1]), _stack(model, tables[1:]) if len(tables) > 1 else None)

    def run(reals: np.ndarray, cats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        reals = np.asarray(reals, dtype=float)
        cats = np.asarray(cats)
        space = genome_space(reals.shape[1], cats.shape[1], model.n_joints)
        links, fractions = genome_rows_decode(reals, cats, space)
        return _score(model, passes, scenario, links, fractions)[:2]

    return run


def evaluate(model: RobotModel, design: WireArrangement, scenario: Scenario) -> EvaluationResult:
    """Score one design over all evaluated joint states, with its per-state h.

    All states go through one kernel pass: one design saves nothing by
    leaving the later states to the designs the first one admits."""
    links = None if isinstance(design, ConstantArrangement) else design.links[None]
    passes = _stack(model, _scenario_tables(model, scenario)), None
    totals, feasible, hf, hv = _score(model, passes, scenario, links, design.fractions[None])
    if not feasible[0]:
        return EvaluationResult(feasible=False)
    return EvaluationResult(True, list(hf[:, 0]), list(hv[:, 0]),
                            float(totals[0, 0]), float(totals[0, 1]))


def trace_polygon(model, design, state: StateTables, which: str, limits,
                  n_rays: int = 64) -> np.ndarray:
    """Boundary of the feasible force or velocity set by LP ray casting.

    Rays leave the anchor (force: state.anchor, velocity: the origin) in
    n_rays uniform directions; each boundary point is anchor + h * dir.
    Unbounded directions stop at RAY_CAP. Raises InfeasibleDesign when the
    anchor itself is not reachable.
    """
    if n_rays < MIN_RAYS:
        raise ValueError(f"need at least {MIN_RAYS} rays")
    if which not in ("force", "velocity"):
        raise ValueError("which must be 'force' or 'velocity'")
    ang = 2.0 * np.pi * np.arange(n_rays) / n_rays
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    G = muscle_jacobian(model, design, state.q)
    if which == "force":
        anchor = state.anchor
        hs = force_h_all(G, state.rhs, dirs @ state.J, limits, RAY_CAP)
    else:
        anchor = np.zeros(2)
        hs = velocity_h_all(G, state.J, dirs, limits, RAY_CAP)
    if hs is None:
        raise InfeasibleDesign(f"{which} anchor unreachable at q={state.q}")
    return anchor + hs[:, None] * dirs
