"""Scoring of wire arrangements against target force/velocity ellipses.

For every evaluated joint state and every ellipse direction, a small LP
defines the factor h by which the feasible operational space covers the
target along that direction: h >= 1 means covered. The objectives to
minimize are E_force and E_velocity, the summed shortfalls max(1-h, 0).
For the planar two-joint robots (D = 2) both LPs have closed forms, a ray
clipped against the torque zonotope and a ray bounded through J^-1, which
are what runs; the simplex solves them for any other D and a singular J.

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
from .arrangement import ConstantArrangement, WireArrangement, muscle_jacobian
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
    if G.shape[1] == 2:
        return _force_h_planar(G, rhs, cols, limits, h_cap)
    return _force_h_simplex(G, rhs, cols, limits, h_cap)


def velocity_h_all(G, J, dirs, limits, h_cap):
    """h for every velocity direction, or None when any direction is infeasible.

    G is the (M, D) muscle Jacobian, J the (2, D) joint Jacobian and each row
    of dirs one operational-space direction w_i. Direction i asks for the
    largest h >= 0 with J qdot = h w_i, G qdot inside the wire-speed box and
    qdot inside a wide formal box. Values are clipped to h_cap, which an
    unbounded ray reads as well. For D = 2 and det J != 0, qdot = h J^-1 w_i
    gives h in closed form; other D and an exactly singular J solve one LP
    per direction.
    """
    if G.shape[1] == 2:
        (j00, j01), (j10, j11) = J.tolist()
        det = _diff_of_products(j00, j11, j01, j10)
        if det != 0.0:
            return _velocity_h_planar(G, J, np.asarray(dirs, dtype=float), det, limits, h_cap)
    return _velocity_h_simplex(G, J, dirs, limits, h_cap)


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


def _force_h_planar(G, rhs, cols, limits, h_cap):
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
    phase-1 residual, which is that times |n|_inf along n.
    """
    normals = np.concatenate((G @ _PERP, _AXES))
    width = 0.5 * (limits.f_max - limits.f_min) * np.abs(normals @ G.T).sum(axis=1)
    offset = normals @ (rhs + 0.5 * (limits.f_min + limits.f_max) * G.sum(axis=0))
    slack = _SLACK_TOL * max(1.0, float(np.abs(rhs).max())) * np.abs(normals).max(axis=1)
    rate = cols @ normals.T  # (directions, normals)
    # a ray that drifts across a slab by no more than the allowance over its
    # whole capped length runs along it: that slab bounds no h
    rate[np.abs(rate) * h_cap <= slack] = 0.0
    speed = np.abs(rate)
    along = np.sign(rate) * offset  # rhs's offset from the slab's mid-line, signed along the ray
    inside = np.abs(offset) <= width + slack
    with np.errstate(divide="ignore", invalid="ignore"):
        if not inside.all():  # rhs outside Z: every ray has to enter it
            if np.any((speed == 0) & ~inside):
                return None
            enter = np.fmax.reduce((-width - slack - along) / speed, axis=1)
            leave = np.fmin.reduce((width + slack - along) / speed, axis=1)
            if not np.all((enter <= leave) & (leave >= 0)):
                return None
        # 0/0 (a zero normal, or a ray along a zero-width slab) bounds nothing
        h = np.fmin.reduce((width - along) / speed, axis=1)
    return np.maximum(np.fmin(h, h_cap), 0.0)


def _velocity_h_planar(G, J, dirs, det, limits, h_cap):
    """min over wires of the speed bound along a = G J^-1 w, and the qdot box."""
    # J^-1 w = adj(J) w / det, each entry a difference of two products
    adj = np.array([[J[1, 1], J[0, 0]], [J[0, 1], J[1, 0]]])
    p, e = _two_product(adj, dirs[:, _ADJ_PAIRS])
    u = ((p[:, 0] - p[:, 1]) + (e[:, 0] - e[:, 1])) / det
    a = u @ G.T
    with np.errstate(divide="ignore"):
        h = (np.where(a > 0, limits.ldot_max, -limits.ldot_min) / np.abs(a)).min(
            axis=1, initial=h_cap)
        return np.minimum(h, _THETA_DOT_BOUND / np.abs(u).max(axis=1))


# --- the LP per direction: any D, and singular J --------------------------------


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


def make_evaluator(model: RobotModel, scenario: Scenario):
    """Closure scoring designs against per-state tables built once."""
    tables = [state_tables(model, q, scenario.target, scenario.gravity)
              for q in scenario.joint_states]

    def run(design: WireArrangement) -> EvaluationResult:
        constant = isinstance(design, ConstantArrangement)
        G = muscle_jacobian(model, design, tables[0].q) if constant else None
        h_force, h_velocity = [], []
        for t in tables:
            Gq = G if constant else muscle_jacobian(model, design, t.q)
            hf = force_h_all(Gq, t.rhs, t.force_cols, scenario.limits, scenario.h_cap)
            if hf is None:
                return EvaluationResult(feasible=False)
            hv = velocity_h_all(Gq, t.J, t.velocity_dirs, scenario.limits, scenario.h_cap)
            if hv is None:
                return EvaluationResult(feasible=False)
            h_force.append(hf)
            h_velocity.append(hv)
        e_force = float(sum(np.maximum(1.0 - hf, 0.0).sum() for hf in h_force))
        e_velocity = float(sum(np.maximum(1.0 - hv, 0.0).sum() for hv in h_velocity))
        return EvaluationResult(True, h_force, h_velocity, e_force, e_velocity)

    return run


def evaluate(model: RobotModel, design: WireArrangement, scenario: Scenario) -> EvaluationResult:
    """Score one design over all evaluated joint states."""
    return make_evaluator(model, scenario)(design)


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
