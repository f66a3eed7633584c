"""Reference copies of the batch kernels, in their plain numpy layout.

The kernels of tlo.feasibility and tlo.arrangement lay their arrays out so
that every min, max, all and any over a short axis (slab normals, joint
columns, wires, directions) runs over a leading axis, compute the force h
only for the designs every state admits, and build design-independent
tables once. These are the same computations in the plain layout: every
reduction over the axis where it falls, h for every design, and the
per-point lookups and qdot box inline. tests/test_kernel_layout.py
requires the package's results to have the same bytes as these.

force_h returns (h, feasible), h (S, P, directions) for every design and
feasible (S, P) per state, where rhs lies in Z; velocity_h_planar takes
J^-1 w as it is laid out in _VelocityRays.dual[2] and bounds the qdot box
itself.
"""

from __future__ import annotations

import numpy as np

from tlo.arrangement import DEGENERATE_SEGMENT, _arm_values
from tlo.feasibility import QDOT_BOX, _MINOR_TOL, _combinations, _faces, _minors, _normals
from tlo.model import rot90


def relay_points(model, links, fractions, pose):
    seg = model.attach_segments[links]
    local = seg[..., 0, :] + fractions[..., None] * (seg[..., 1, :] - seg[..., 0, :])
    x, y = local[..., 0], local[..., 1]
    c, s = np.cos(pose.link_angles)[..., links], np.sin(pose.link_angles)[..., links]
    return pose.link_origins[..., links, :] + np.stack([c * x - s * y, s * x + c * y], axis=-1)


def batch_muscle_jacobian(model, links, fractions, pose):
    d = model.n_joints
    if links is None:
        return -_arm_values(model, fractions)[None]
    pts = relay_points(model, links, fractions, pose)
    joints = pose.joint_positions.reshape((len(pts),) + (1,) * links.ndim + (d, 2))
    dpts = rot90(pts[..., None, :] - joints)
    dpts *= (links[..., None] >= np.arange(1, d + 1))[..., None]
    seg = np.diff(pts, axis=-2)
    norms = np.linalg.norm(seg, axis=-1)
    ok = norms > DEGENERATE_SEGMENT
    unit = seg / np.where(ok, norms, 1.0)[..., None]
    rates = np.einsum("...si,...ski->...sk", unit, np.diff(dpts, axis=-3))
    # summed in C order, as the package sums them: the order of numpy's sum
    # follows the memory layout, and einsum lays its result out after that
    # of pts, whose states relay_points interleaves
    return np.ascontiguousarray(np.where(ok[..., None], rates, 0.0)).sum(axis=-2)


def force_h(G, rays, limits, h_cap):
    normals = _normals(G)
    width = 0.5 * (limits.f_max - limits.f_min) * np.abs(normals @ G.swapaxes(2, 3)).sum(axis=3)
    middle = rays.rhs[:, None] + 0.5 * (limits.f_min + limits.f_max) * G.sum(axis=2)
    offset = (normals @ middle[..., None])[..., 0]
    slack = rays.slack[:, None, None] * np.abs(normals).max(axis=3)
    feasible = (np.abs(offset) <= width + slack).all(axis=2)
    rate = rays.cols[:, None] @ normals.swapaxes(2, 3)
    rate[np.abs(rate) * h_cap <= slack[:, :, None]] = 0.0
    speed = np.abs(rate)
    along = np.sign(rate) * offset[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.fmin.reduce((width[:, :, None] - along) / speed, axis=3)
    return np.maximum(np.fmin(h, h_cap), 0.0), feasible


def velocity_h_planar(G, inverse, limits, h_cap):
    a = inverse[:, None] @ G.swapaxes(2, 3)
    with np.errstate(divide="ignore"):
        h = (np.where(a > 0, limits.ldot_max, -limits.ldot_min) / np.abs(a)).min(
            axis=3, initial=h_cap)
        return np.minimum(h, (QDOT_BOX / np.abs(inverse).max(axis=2))[:, None])


def velocity_h_dual(G, r, R, W, limits, h_cap):
    m, d = G.shape[2:]
    k = d + 1 - r
    norms = np.concatenate((np.abs(G).sum(axis=3), np.ones(G.shape[:2] + (d,))), axis=2)
    scale = [_MINOR_TOL * norms[..., _combinations(m + d, j)].prod(axis=3) for j in (k - 1, k)]
    y = (_minors(G, k - 1) @ R[:, None, :, None])[..., 0]
    y[np.abs(y) <= scale[0] * np.abs(R).sum(axis=1)[:, None, None]] = 0.0
    y = y[..., _faces(m + d, k)] * (-1.0) ** np.arange(k)
    lo = np.repeat([limits.ldot_min, -QDOT_BOX], [m, d])[_combinations(m + d, k)]
    up = np.repeat([limits.ldot_max, QDOT_BOX], [m, d])[_combinations(m + d, k)]
    rise = np.where(y > 0, y * up, y * lo).sum(axis=3)[..., None]
    fall = np.where(y < 0, -y * up, -y * lo).sum(axis=3)[..., None]
    mu = _minors(G, k) @ W[:, None].swapaxes(2, 3)
    mu[np.abs(mu) <= scale[1][..., None] * np.abs(W).sum(axis=2)[:, None, None]] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmin.reduce(np.where(mu < 0, rise, fall) / np.abs(mu), axis=2, initial=h_cap)


def velocity_h(G, rays, limits, h_cap):
    """The velocity kernels' dispatch over the ranks of J, on these copies."""
    planar = G.shape[3] == 2
    if planar and (rays.rank == 2).all():
        return velocity_h_planar(G, rays.dual[2][1], limits, h_cap)
    G = np.broadcast_to(G, (len(rays.rank),) + G.shape[1:])
    h = np.full(G.shape[:2] + rays.reach.shape[1:], h_cap)
    for r in (1, 2):
        states = np.flatnonzero(rays.rank == r)
        if len(states):
            R, W = rays.dual[r]
            h[states] = (velocity_h_planar(G[states], W[states], limits, h_cap)
                         if planar and r == 2 else
                         velocity_h_dual(G[states], r, R[states], W[states], limits, h_cap))
    return np.where(rays.reach[:, None], h, 0.0)
