"""svgplot._Frame.coords against the per-vertex formatting it replaced."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlo.svgplot import _Frame, _fmt


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
