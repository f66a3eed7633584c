"""Hand-rolled SVG output for target/feasible panels and wire diagrams.

SVG is assembled directly (no plotting library) so files are byte-stable
across environments and can be golden-tested. All coordinates are printed
with fixed precision; target ellipses are stroked blue, feasible regions
red, matching the usual target-versus-achieved reading.
"""

from __future__ import annotations

import numpy as np

TARGET_COLOR = "blue"
FEASIBLE_COLOR = "red"
AXIS_COLOR = "#444444"
_SIZE = 420.0
_MARGIN = 52.0
_POINT_EXTENT = 1e-9  # polygons tighter than this render as a marker
_ANGLES = np.linspace(0, 2 * np.pi, 32)
# a space panel's frame spans its target ellipse at these 32 unit-circle points
_CIRCLE = np.column_stack((np.cos(_ANGLES), np.sin(_ANGLES)))


class _Frame:
    """Maps data coordinates into the SVG viewport (y up)."""

    def __init__(self, xs, ys, size=_SIZE, margin=_MARGIN):
        self.x0, self.x1 = float(np.min(xs)), float(np.max(xs))
        self.y0, self.y1 = float(np.min(ys)), float(np.max(ys))
        pad_x = 0.08 * (self.x1 - self.x0 or 1.0)
        pad_y = 0.08 * (self.y1 - self.y0 or 1.0)
        self.x0 -= pad_x
        self.x1 += pad_x
        self.y0 -= pad_y
        self.y1 += pad_y
        self.size = size
        self.margin = margin
        span = max(self.x1 - self.x0, self.y1 - self.y0)
        self.scale = (size - 2 * margin) / span

    def px(self, x: float) -> float:
        return self.margin + (x - self.x0) * self.scale

    def py(self, y: float) -> float:
        return self.size - self.margin - (y - self.y0) * self.scale

    def coords(self, points: np.ndarray) -> list[str]:
        """Each (x, y) row as its "x y" pixel string, px and py applied to whole columns."""
        xs, ys = self.px(points[:, 0]).tolist(), self.py(points[:, 1]).tolist()
        return ["%.3f %.3f" % xy for xy in zip(xs, ys)]


def _ellipse_path(frame: _Frame, center, radii) -> str:
    cx, cy = frame.px(center[0]), frame.py(center[1])
    rx = radii[0] * frame.scale
    ry = radii[1] * frame.scale
    return (
        f'<path class="target-ellipse" fill="none" stroke="{TARGET_COLOR}" stroke-width="1.5" d="'
        f"M {cx + rx:.3f} {cy:.3f} "
        f"A {rx:.3f} {ry:.3f} 0 1 0 {cx - rx:.3f} {cy:.3f} "
        f"A {rx:.3f} {ry:.3f} 0 1 0 {cx + rx:.3f} {cy:.3f} Z\"/>"
    )


def _polygon_element(frame: _Frame, polygon: np.ndarray) -> str:
    poly = np.asarray(polygon, dtype=float)
    extent = float(np.max(np.ptp(poly, axis=0))) if len(poly) > 1 else 0.0
    if len(poly) < 3 or extent < _POINT_EXTENT:
        c = poly.mean(axis=0)
        return (
            f'<circle class="feasible-point" cx="{frame.px(c[0]):.3f}" '
            f'cy="{frame.py(c[1]):.3f}" r="3" fill="{FEASIBLE_COLOR}"/>'
        )
    d = "M " + " L ".join(frame.coords(poly)) + " Z"
    return (
        f'<path class="feasible-region" fill="none" stroke="{FEASIBLE_COLOR}" '
        f'stroke-width="1.5" d="{d}"/>'
    )


def _axes(frame: _Frame, x_label: str, y_label: str) -> list[str]:
    parts = []
    m, s = frame.margin, frame.size
    parts.append(
        f'<line x1="{m:.3f}" y1="{s - m:.3f}" x2="{s - m:.3f}" y2="{s - m:.3f}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{m:.3f}" y1="{m:.3f}" x2="{m:.3f}" y2="{s - m:.3f}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        x = frame.x0 + frac * (frame.x1 - frame.x0)
        y = frame.y0 + frac * (frame.y1 - frame.y0)
        parts.append(
            f'<text x="{frame.px(x):.3f}" y="{s - m + 16:.3f}" font-size="11" '
            f'text-anchor="middle" fill="{AXIS_COLOR}">{x:.3g}</text>'
        )
        parts.append(
            f'<text x="{m - 6:.3f}" y="{frame.py(y) + 4:.3f}" font-size="11" '
            f'text-anchor="end" fill="{AXIS_COLOR}">{y:.3g}</text>'
        )
    # zero grid lines when visible
    if frame.x0 < 0 < frame.x1:
        parts.append(
            f'<line x1="{frame.px(0):.3f}" y1="{m:.3f}" x2="{frame.px(0):.3f}" '
            f'y2="{s - m:.3f}" stroke="#cccccc" stroke-width="0.7"/>'
        )
    if frame.y0 < 0 < frame.y1:
        parts.append(
            f'<line x1="{m:.3f}" y1="{frame.py(0):.3f}" x2="{s - m:.3f}" '
            f'y2="{frame.py(0):.3f}" stroke="#cccccc" stroke-width="0.7"/>'
        )
    parts.append(
        f'<text x="{s / 2:.3f}" y="{s - 12:.3f}" font-size="13" '
        f'text-anchor="middle" fill="{AXIS_COLOR}">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{s / 2:.3f}" font-size="13" text-anchor="middle" '
        f'fill="{AXIS_COLOR}" transform="rotate(-90 14 {s / 2:.3f})">{y_label}</text>'
    )
    return parts


def _document(title: str, body: list[str]) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" height="{_SIZE:.0f}" '
        f'viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        f'<title>{title}</title>',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{_SIZE / 2:.3f}" y="22" font-size="14" text-anchor="middle" '
        f'fill="black">{title}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def space_panel(
    polygon: np.ndarray,
    center,
    radii,
    title: str,
    unit: str,
    symbol: str,
) -> str:
    """One target-versus-feasible panel (force or velocity space)."""
    polygon = np.asarray(polygon, dtype=float)
    center = np.asarray(center, dtype=float)
    radii = np.asarray(radii, dtype=float)
    ell = center + radii * _CIRCLE
    pts = np.vstack([polygon, ell])
    frame = _Frame(pts[:, 0], pts[:, 1])
    body = _axes(frame, f"{symbol}_x [{unit}]", f"{symbol}_y [{unit}]")
    body.append(_ellipse_path(frame, center, radii))
    body.append(_polygon_element(frame, polygon))
    return _document(title, body)


def arrangement_panel(model, design, q, title: str) -> str:
    """Robot links at pose q with one design's relay points and wire
    polylines; the design has no leading axes.

    Constant designs have no drawable routing, so the links are annotated
    with each wire's moment arm values instead.
    """
    from .arrangement import design_to_jsonable, relay_points
    from .model import forward_kinematics

    pose = forward_kinematics(model, np.asarray(q, dtype=float))
    d = model.n_joints
    joints = np.vstack([np.zeros(2), pose.link_origins[1:], pose.ee_position[None, :]])
    wires = None
    pts = joints
    if design.links is not None:
        wires = relay_points(model, design, pose)
        pts = np.vstack([joints, wires.reshape(-1, 2)])
    frame = _Frame(pts[:, 0], pts[:, 1])
    body = _axes(frame, "x [m]", "y [m]")
    # links as thick bars
    ends = np.vstack([pose.link_origins[1:], pose.ee_position[None, :]])
    for k in range(d + 1):
        a = joints[k]
        b = ends[k]
        body.append(
            f'<line class="link" x1="{frame.px(a[0]):.3f}" y1="{frame.py(a[1]):.3f}" '
            f'x2="{frame.px(b[0]):.3f}" y2="{frame.py(b[1]):.3f}" '
            f'stroke="#888888" stroke-width="7" stroke-linecap="round"/>'
        )
    for k in range(1, d + 1):
        j = pose.link_origins[k]
        body.append(
            f'<circle class="joint" cx="{frame.px(j[0]):.3f}" cy="{frame.py(j[1]):.3f}" '
            f'r="5" fill="white" stroke="black" stroke-width="1.5"/>'
        )
    if wires is not None:
        for poly in wires:
            path = "M " + " L ".join(frame.coords(poly))
            body.append(
                f'<path class="wire" fill="none" stroke="{FEASIBLE_COLOR}" '
                f'stroke-width="1.5" d="{path}"/>'
            )
            for p in poly:
                body.append(
                    f'<circle class="relay" cx="{frame.px(p[0]):.3f}" '
                    f'cy="{frame.py(p[1]):.3f}" r="3" fill="{FEASIBLE_COLOR}"/>'
                )
    else:
        for m, row in enumerate(design_to_jsonable(design, model)["arms"]):
            vals = ", ".join(f"{v:+.3f}" for v in row)
            body.append(
                f'<text x="{_MARGIN:.3f}" y="{40 + 16 * m:.3f}" font-size="12" '
                f'fill="black">wire {m + 1} arms [m]: {vals}</text>'
            )
    return _document(title, body)
