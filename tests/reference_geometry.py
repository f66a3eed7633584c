"""Finite-difference references for the package's analytic derivatives.

wire_lengths is the polyline length whose joint-angle gradient is the
muscle Jacobian G (tlo.arrangement.batch_muscle_jacobian), and
potential_energy the gravitational energy whose gradient is the gravity
torque (tlo.model.gravity_torque). The package differentiates both in
closed form and never evaluates either; the tests difference them.
"""

from __future__ import annotations

import numpy as np

from tlo.arrangement import relay_points
from tlo.model import forward_kinematics, link_centers_of_mass


def wire_lengths(model, design, q) -> np.ndarray:
    """Total polyline length of each wire of a variable design, meters."""
    segments = np.diff(relay_points(model, design, forward_kinematics(model, q)), axis=-2)
    return np.linalg.norm(segments, axis=-1).sum(axis=-1)


def potential_energy(model, q) -> np.ndarray:
    """Gravitational potential energy of the movable links, one per state of q."""
    coms = link_centers_of_mass(model, forward_kinematics(model, q))
    return np.sum(model.link_masses[1:] * (-(coms @ model.gravity)), axis=-1)
