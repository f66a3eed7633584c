"""Exact geometric cross-checks for the coverage scores h (D=2).

For a fixed joint state the feasible tip-force set is the image of the
tension box under F = J^{-T} (-G^T f): a zonotope. The feasible tip-velocity
set is the image under J of the box-constrained joint velocities: a halfplane
intersection. Both are built here exactly and probed with ray casts, giving
an independent check of every h value the coverage kernels produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feasibility import QDOT_BOX

_GEOM_TOL = 1e-12
_DUP_TOL = 64 * np.finfo(float).eps  # vertices this close, relative to the coordinates, merge
_ROW_TOL = 1e-12


def cross2(a, b) -> float:
    """Scalar cross product of 2-vectors."""
    return float(a[0] * b[1] - a[1] * b[0])


@dataclass
class ConvexPolygon:
    """Counterclockwise vertex list; degenerate cases keep 1 or 2 vertices."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        if len(v) == 0:
            raise ValueError("polygon needs at least one vertex")
        self.vertices = _canonicalize(v)

    @property
    def degenerate(self) -> bool:
        return len(self.vertices) < 3

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        p = np.asarray(point, dtype=float)
        v = self.vertices
        if len(v) == 1:
            return bool(np.linalg.norm(p - v[0]) <= tol)
        if len(v) == 2:
            seg = v[1] - v[0]
            t = np.dot(p - v[0], seg) / np.dot(seg, seg)
            t = min(1.0, max(0.0, t))
            return bool(np.linalg.norm(v[0] + t * seg - p) <= tol)
        nxt = np.roll(v, -1, axis=0)
        cross = (nxt[:, 0] - v[:, 0]) * (p[1] - v[:, 1]) - (nxt[:, 1] - v[:, 1]) * (
            p[0] - v[:, 0]
        )
        return bool(np.all(cross >= -tol * (1 + np.abs(v).max())))

    def area(self) -> float:
        return 0.0 if self.degenerate else _signed_area(self.vertices)


def _canonicalize(v: np.ndarray) -> np.ndarray:
    """Dedupe and orient CCW, dropping collinear vertices; start at lex-min.

    Only vertices a few ulps apart merge, and collinearity is the sine of a
    turn, so a thin polygon with edges far below the coordinates stays 2-D.
    """
    scale = 1.0 + np.abs(v).max()
    keep = [v[0]]
    for p in v[1:]:
        if np.linalg.norm(p - keep[-1]) > _DUP_TOL * scale:
            keep.append(p)
    while len(keep) > 1 and np.linalg.norm(keep[0] - keep[-1]) <= _DUP_TOL * scale:
        keep.pop()
    v = np.array(keep)
    if len(v) < 3:
        return v
    if _signed_area(v) < 0:
        v = v[::-1]
    # drop collinear/reflex-free duplicates
    out = []
    n = len(v)
    for i in range(n):
        a, b, c = v[i - 1], v[i], v[(i + 1) % n]
        if cross2(b - a, c - b) > _GEOM_TOL * np.linalg.norm(b - a) * np.linalg.norm(c - b):
            out.append(b)
    if len(out) < 3:
        # collinear point set: keep the pair farthest apart, lex-min first
        # (the least and greatest x fall short on a nearly vertical line)
        far = v[np.argmax(np.linalg.norm(v - v[0], axis=1))]
        v = np.array([far, v[np.argmax(np.linalg.norm(v - far, axis=1))]])
        return v[np.lexsort((v[:, 1], v[:, 0]))]
    v = np.array(out)
    start = np.lexsort((v[:, 1], v[:, 0]))[0]
    return np.roll(v, -start, axis=0)


def _signed_area(v: np.ndarray) -> float:
    nxt = np.roll(v, -1, axis=0)
    return 0.5 * float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull, CCW, no interior or duplicated points."""
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def build(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross2(chain[-1] - chain[-2], p - chain[-2]) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    return hull


def force_polytope_exact(G: np.ndarray, J: np.ndarray, f_min: float, f_max: float) -> ConvexPolygon:
    """Feasible tip-force zonotope for constant G at an invertible J.

    Minkowski sum of the per-wire segments (-G^T spans of the tension box),
    centered at the box-midpoint image, mapped through J^{-T}.
    """
    G = np.asarray(G, dtype=float)
    J = np.asarray(J, dtype=float)
    if abs(np.linalg.det(J)) < 1e-12:
        raise ValueError("J is singular; the force zonotope needs J^{-T}")
    center = -G.T @ np.full(G.shape[0], 0.5 * (f_min + f_max))
    gens = -G * (0.5 * (f_max - f_min))  # rows are torque-space generators
    gens = gens[np.linalg.norm(gens, axis=1) > _ROW_TOL]
    inv_jt = np.linalg.inv(J.T)
    if len(gens) == 0:
        return ConvexPolygon((inv_jt @ center)[None, :])
    # orient generators into the upper halfplane, walk them in angle order
    flip = (gens[:, 1] < 0) | ((gens[:, 1] == 0) & (gens[:, 0] < 0))
    gens[flip] *= -1
    gens = gens[np.argsort(np.arctan2(gens[:, 1], gens[:, 0]), kind="stable")]
    start = center - gens.sum(axis=0)
    verts = [start]
    p = start
    for g in gens:
        p = p + 2 * g
        verts.append(p)
    for g in gens:
        p = p - 2 * g
        verts.append(p)
    verts = np.array(verts[:-1]) @ inv_jt.T
    return ConvexPolygon(verts)


def velocity_polytope_exact(
    G: np.ndarray, J: np.ndarray, ldot_min: float, ldot_max: float
) -> ConvexPolygon:
    """Feasible tip-velocity polygon.

    Intersects the 2M halfplanes ldot_min <= g_m . qdot <= ldot_max in joint
    velocity space (near-zero rows are vacuous) with the formal box
    |qdot_k| <= QDOT_BOX that the kernels also impose, so a strip
    (rank(G) < 2) or an unconstrained plane is bounded as it is there, and
    maps the result through J. Vertices are enumerated from constraint-line
    pairs, which is exact and cheap at these sizes.
    """
    G = np.asarray(G, dtype=float)
    J = np.asarray(J, dtype=float)
    if abs(np.linalg.det(J)) < 1e-12:
        raise ValueError("J is singular; the velocity polygon needs an invertible J")
    rows = G[np.linalg.norm(G, axis=1) > _ROW_TOL]
    normals = np.vstack([rows, -rows, np.eye(2), -np.eye(2)])
    offsets = np.concatenate([np.full(len(rows), ldot_max), np.full(len(rows), -ldot_min),
                              np.full(4, QDOT_BOX)])
    pts = []
    k = len(normals)
    for i in range(k):
        for jdx in range(i + 1, k):
            a = np.array([normals[i], normals[jdx]])
            det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            if abs(det) < 1e-12:
                continue
            p = np.linalg.solve(a, np.array([offsets[i], offsets[jdx]]))
            if np.all(normals @ p <= offsets + 1e-9):
                pts.append(p)
    hull = convex_hull(np.array(pts))
    return ConvexPolygon(hull @ J.T)


def ray_h(polygon: ConvexPolygon | None, center: np.ndarray, w: np.ndarray) -> float:
    """Largest h >= 0 with center + h*w inside the region; inf when unbounded.

    A center outside the region scores 0, matching the convention that
    coverage is measured from an interior anchor.
    """
    if polygon is None:
        return np.inf
    center = np.asarray(center, dtype=float)
    w = np.asarray(w, dtype=float)
    v = polygon.vertices
    scale = 1.0 + np.abs(v).max()
    if len(v) == 1:
        return 0.0  # a point region never extends along any ray
    if len(v) == 2:
        if not polygon.contains(center, tol=1e-9 * scale):
            return 0.0
        seg = v[1] - v[0]
        seg_u = seg / np.linalg.norm(seg)
        cr = cross2(seg_u, w)
        if abs(cr) > 1e-9 * np.linalg.norm(w):
            return 0.0
        along = float(np.dot(w, seg_u))
        if along == 0.0:
            return 0.0
        end = v[1] if along > 0 else v[0]
        return float(np.dot(end - center, seg_u) / along)
    if not polygon.contains(center, tol=1e-9 * scale):
        return 0.0
    best = np.inf
    n_v = len(v)
    for i in range(n_v):
        p, qv = v[i], v[(i + 1) % n_v]
        edge = qv - p
        normal = np.array([edge[1], -edge[0]])  # outward for CCW
        denom = float(normal @ w)
        if denom > _GEOM_TOL * scale:
            t = float(normal @ (p - center)) / denom
            best = min(best, max(t, 0.0))
    return best
