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


def _fmt(v: float) -> str:
    return f"{v:.3f}"


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
        return [f"{_fmt(x)} {_fmt(y)}" for x, y in zip(xs, ys)]


def _ellipse_path(frame: _Frame, center, radii) -> str:
    cx, cy = frame.px(center[0]), frame.py(center[1])
    rx = radii[0] * frame.scale
    ry = radii[1] * frame.scale
    return (
        f'<path class="target-ellipse" fill="none" stroke="{TARGET_COLOR}" stroke-width="1.5" d="'
        f"M {_fmt(cx + rx)} {_fmt(cy)} "
        f"A {_fmt(rx)} {_fmt(ry)} 0 1 0 {_fmt(cx - rx)} {_fmt(cy)} "
        f"A {_fmt(rx)} {_fmt(ry)} 0 1 0 {_fmt(cx + rx)} {_fmt(cy)} Z\"/>"
    )


def _polygon_element(frame: _Frame, polygon: np.ndarray) -> str:
    poly = np.asarray(polygon, dtype=float)
    extent = float(np.max(np.ptp(poly, axis=0))) if len(poly) > 1 else 0.0
    if len(poly) < 3 or extent < _POINT_EXTENT:
        c = poly.mean(axis=0)
        return (
            f'<circle class="feasible-point" cx="{_fmt(frame.px(c[0]))}" '
            f'cy="{_fmt(frame.py(c[1]))}" r="3" fill="{FEASIBLE_COLOR}"/>'
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
        f'<line x1="{_fmt(m)}" y1="{_fmt(s - m)}" x2="{_fmt(s - m)}" y2="{_fmt(s - m)}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(m)}" y1="{_fmt(m)}" x2="{_fmt(m)}" y2="{_fmt(s - m)}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        x = frame.x0 + frac * (frame.x1 - frame.x0)
        y = frame.y0 + frac * (frame.y1 - frame.y0)
        parts.append(
            f'<text x="{_fmt(frame.px(x))}" y="{_fmt(s - m + 16)}" font-size="11" '
            f'text-anchor="middle" fill="{AXIS_COLOR}">{x:.3g}</text>'
        )
        parts.append(
            f'<text x="{_fmt(m - 6)}" y="{_fmt(frame.py(y) + 4)}" font-size="11" '
            f'text-anchor="end" fill="{AXIS_COLOR}">{y:.3g}</text>'
        )
    # zero grid lines when visible
    if frame.x0 < 0 < frame.x1:
        parts.append(
            f'<line x1="{_fmt(frame.px(0))}" y1="{_fmt(m)}" x2="{_fmt(frame.px(0))}" '
            f'y2="{_fmt(s - m)}" stroke="#cccccc" stroke-width="0.7"/>'
        )
    if frame.y0 < 0 < frame.y1:
        parts.append(
            f'<line x1="{_fmt(m)}" y1="{_fmt(frame.py(0))}" x2="{_fmt(s - m)}" '
            f'y2="{_fmt(frame.py(0))}" stroke="#cccccc" stroke-width="0.7"/>'
        )
    parts.append(
        f'<text x="{_fmt(s / 2)}" y="{_fmt(s - 12)}" font-size="13" '
        f'text-anchor="middle" fill="{AXIS_COLOR}">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(s / 2)}" font-size="13" text-anchor="middle" '
        f'fill="{AXIS_COLOR}" transform="rotate(-90 14 {_fmt(s / 2)})">{y_label}</text>'
    )
    return parts


def _document(title: str, body: list[str]) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" height="{_SIZE:.0f}" '
        f'viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        f'<title>{title}</title>',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{_fmt(_SIZE / 2)}" y="22" font-size="14" text-anchor="middle" '
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
    angles = np.linspace(0, 2 * np.pi, 32)
    ell = center + radii * np.column_stack((np.cos(angles), np.sin(angles)))
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
            f'<line class="link" x1="{_fmt(frame.px(a[0]))}" y1="{_fmt(frame.py(a[1]))}" '
            f'x2="{_fmt(frame.px(b[0]))}" y2="{_fmt(frame.py(b[1]))}" '
            f'stroke="#888888" stroke-width="7" stroke-linecap="round"/>'
        )
    for k in range(1, d + 1):
        j = pose.link_origins[k]
        body.append(
            f'<circle class="joint" cx="{_fmt(frame.px(j[0]))}" cy="{_fmt(frame.py(j[1]))}" '
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
                    f'<circle class="relay" cx="{_fmt(frame.px(p[0]))}" '
                    f'cy="{_fmt(frame.py(p[1]))}" r="3" fill="{FEASIBLE_COLOR}"/>'
                )
    else:
        for m, row in enumerate(design_to_jsonable(design, model)["arms"]):
            vals = ", ".join(f"{v:+.3f}" for v in row)
            body.append(
                f'<text x="{_fmt(_MARGIN)}" y="{_fmt(40 + 16 * m)}" font-size="12" '
                f'fill="black">wire {m + 1} arms [m]: {vals}</text>'
            )
    return _document(title, body)
