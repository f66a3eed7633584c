"""svgplot._Frame.coords against the per-vertex and per-value formatting it
replaced."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlo.svgplot import _Frame


def _fmt(v):
    """One SVG number, one format call each, as svgplot printed them before
    coords printed a vertex with one "%.3f %.3f"."""
    return f"{v:.3f}"


def per_vertex_coords(frame, points):
    """Each vertex through the scalar px/py, one at a time: the reference."""
    return [f"{_fmt(frame.px(x))} {_fmt(frame.py(y))}" for x, y in points]


UNIT = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0))


@given(
    st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=40),
    st.sampled_from([1e-12, 1e-9, 3e-9, 1.0, 1e4]),  # span of the drawn polygon
    st.sampled_from([0.0, -0.0, 1.0, -250.0]),  # its offset
    st.sampled_from(["none", "x", "y", "both"]),  # columns squashed to one value
    st.integers(1, 40),  # the frame spans the first k vertices; later ones may fall outside
)
# a vertex just left of the frame's first pixel column, which prints as -0.000
@example([(0.0, 0.0), (1.0, 1.0), (-0.2708868, 0.5)], 1.0, 0.0, "none", 2)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_coords_match_per_vertex_formatting(units, span, offset, flat, k):
    points = offset + span * np.array(units)
    if flat in ("x", "both"):
        points[:, 0] = points[0, 0]
    if flat in ("y", "both"):
        points[:, 1] = points[0, 1]
    frame = _Frame(points[:k, 0], points[:k, 1])
    assert frame.coords(points) == per_vertex_coords(frame, points)


def per_value_coords(frame, points):
    """px and py on whole columns, then each value through _fmt: the reference."""
    xs, ys = frame.px(points[:, 0]).tolist(), frame.py(points[:, 1]).tolist()
    return [f"{_fmt(x)} {_fmt(y)}" for x, y in zip(xs, ys)]


# signed zeros, magnitudes near the float limit, ties at the third decimal
# (exact in binary, as 0.0625, or only in decimal, as .0005) and values that
# round to a signed zero
PIXEL = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 0.0005, -0.0005, 1.0005, 0.0015, 0.0625,
                     -2.4375, 1e-4, -1e-4]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.lists(st.tuples(PIXEL, PIXEL), min_size=1, max_size=64))
@example([(-0.0, 1e300), (-1e300, 0.0005), (1.0005, -2.4375), (0.0625, -0.0005), (1e-4, 0.0)])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_coords_print_each_pixel_value_as_one_format_call_did(pixels):
    points = np.array(pixels)
    frame = _Frame([0.0, 1.0], [0.0, 1.0])
    # px(x) = -0.0 + (x - 0.0) * 1.0 is x, bit for bit (signed zeros too), and
    # py(y) = (-0.0 - -0.0) - (y - 0.0) * 1.0 is 0.0 - y: the drawn values are
    # the pixel values printed
    frame.x0 = frame.y0 = 0.0
    frame.scale = 1.0
    frame.margin = frame.size = -0.0
    assert frame.px(points[:, 0]).tobytes() == points[:, 0].tobytes()
    assert frame.py(points[:, 1]).tobytes() == (0.0 - points[:, 1]).tobytes()
    assert frame.coords(points) == per_value_coords(frame, points)
