"""Scoring of wire arrangements against target force/velocity ellipses.

For every evaluated joint state and every ellipse direction, a small LP
finds the factor h by which the feasible operational space covers the
target along that direction: h >= 1 means covered. The objectives to
minimize are E_force and E_velocity, the summed shortfalls max(1-h, 0).

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
_THETA_DOT_BOUND = 1e6  # formal box on joint velocities; never binds below h_cap
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
    """h for every force direction, or None at the first infeasible LP.

    G is the (M, D) muscle Jacobian, rhs the joint-space right-hand side at
    the anchor (J^T times the ellipse center, or the gravity torque) and
    each row of cols the joint-space image J^T w_i of one direction.
    One LP per row, in variables (h, f): -G^T f - h (J^T w_i) = rhs, f in
    its box, h >= 0. Values are clipped to h_cap, which an unbounded ray
    reads as well.
    """
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


def velocity_h_all(G, J, dirs, limits, h_cap):
    """h for every velocity direction, or None at the first infeasible LP.

    G is the (M, D) muscle Jacobian, J the (2, D) joint Jacobian and each row
    of dirs one operational-space direction w_i. One LP per row, in variables
    (h, qdot, y): J qdot = h w_i and y = G qdot with y boxed by the wire-speed
    limits; qdot carries a wide formal box. Values are clipped to h_cap,
    which an unbounded ray reads as well.
    """
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
