"""The batch kernels against their plain-layout copies in
tests/reference_kernels.py, bit for bit.

The package's force, velocity and muscle Jacobian kernels move every min,
max, all and any over a short axis to a leading axis, clip the force h
only for the designs every state admits, and look relay points up in
per-link tables. None of that may change a result: h is compared by its
bytes (signed zeros count), and so are the admitted rows and G.

The cases draw D = 1-4 joints, M = 1-12 wires, P in {1, 2, 40, 500}
designs and S in {1, 3} states, G per state or one constant G with a
leading axis of 1, zero (also G = 0), parallel and repeated wire rows, right-hand sides
inside, on and outside Z, rays along a generator and zero rays, J of rank
0, 1 and 2, and h_cap 10 and RAY_CAP. M is capped so that C(M + D, D) P S,
the size of the velocity dual's largest minor stack, stays below
SIZE_BUDGET: the large P come with few wires.
"""

from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as reference
from tlo.arrangement import Design, batch_muscle_jacobian, relay_points
from tlo.feasibility import (
    RAY_CAP,
    ActuatorLimits,
    _force_h,
    _force_rays,
    _velocity_h,
    _velocity_rays,
    ellipse_directions,
)
from tlo.model import RobotModel, forward_kinematics

EXAMPLES = settings(max_examples=120, deadline=None, derandomize=True)
SIZE_BUDGET = 40_000


@st.composite
def shapes(draw):
    """(D, M, P, S), M capped by SIZE_BUDGET."""
    d = draw(st.integers(1, 4))
    p = draw(st.sampled_from([1, 2, 40, 500]))
    s = draw(st.sampled_from([1, 3]))
    m_max = max(m for m in range(1, 13) if m == 1 or comb(m + d, d) * p * s <= SIZE_BUDGET)
    return d, draw(st.integers(1, m_max)), p, s


def _degenerate_rows(draw, rng, G):
    """Make some designs' wire rows zero (one or all, so that only the qdot
    box bounds velocity), parallel to or copies of another row."""
    m = G.shape[2]
    designs = rng.random(G.shape[1]) < 0.5
    kind = draw(st.sampled_from(["none", "zero", "all_zero", "parallel", "repeated"]))
    if kind == "all_zero":
        G[:, designs] = 0.0
    if kind in ("none", "all_zero") or m < 2 and kind != "zero":
        return G
    j = rng.integers(m)
    if kind == "zero":
        G[:, designs, j] = 0.0
    else:
        scale = 1.0 if kind == "repeated" else draw(st.sampled_from([-1.0, 2.0, 0.5, -3.0]))
        G[:, designs, j] = scale * G[:, designs, (j + 1) % m]
    return G


@st.composite
def force_cases(draw):
    """(G, rays, limits, h_cap): G (S or 1, P, M, D) and the rays of S states."""
    d, m, p, s = draw(shapes())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f_min = draw(st.floats(1.0, 50.0))
    limits = ActuatorLimits(f_min, f_min + draw(st.floats(1.0, 300.0)), -0.4, 0.4)
    constant = draw(st.booleans())
    G = _degenerate_rows(draw, rng, rng.uniform(-0.5, 0.5, (1 if constant else s, p, m, d)))
    rhs = []
    for k in range(s):
        g = G[0 if constant else k, 0]  # design 0's generators at state k
        kind = draw(st.sampled_from(["inside", "vertex", "random", "far", "zero"]))
        if kind in ("inside", "vertex"):
            f = (rng.uniform(limits.f_min, limits.f_max, m) if kind == "inside"
                 else np.where(rng.random(m) < 0.5, limits.f_min, limits.f_max))
            rhs.append(-g.T @ f)
        else:
            rhs.append({"random": rng.uniform(-60, 60, d), "far": np.full(d, 1e3),
                        "zero": np.zeros(d)}[kind])
    cols = rng.uniform(-40, 40, (s, draw(st.sampled_from([1, 3, 8])), d))
    if draw(st.booleans()):
        cols[:, 0] = 0.0  # J^T w = 0
    if draw(st.booleans()):
        cols[:, -1] = G[:, 0, 0]  # along a generator of design 0
    h_cap = draw(st.sampled_from([10.0, RAY_CAP]))
    return G, _force_rays(rhs, cols), limits, h_cap


@EXAMPLES
@given(force_cases())
def test_force_kernel_equals_the_reference_bit_for_bit(case):
    G, rays, limits, h_cap = case
    rows, h = _force_h(G, rays, limits, h_cap)
    h_ref, feasible = reference.force_h(G, rays, limits, h_cap)
    rows_ref = np.flatnonzero(feasible.all(axis=0))
    assert rows.tolist() == rows_ref.tolist()
    assert h.shape == (len(rays.rhs), len(rows), rays.cols.shape[1])
    assert h.tobytes() == h_ref[:, rows_ref].tobytes()


@st.composite
def velocity_cases(draw):
    """(G, rays, limits, h_cap): G (S or 1, P, M, D) and J of rank 0-2 per state."""
    d, m, p, s = draw(shapes())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    limits = ActuatorLimits(10.0, 200.0, -draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0)))
    constant = draw(st.booleans())
    G = _degenerate_rows(draw, rng, rng.uniform(-0.5, 0.5, (1 if constant else s, p, m, d)))
    J = rng.uniform(-0.8, 0.8, (s, 2, d))
    for k in range(s):
        kind = draw(st.sampled_from(["regular", "regular", "rank1", "zero"]))
        if kind == "rank1":
            J[k] = np.outer(rng.uniform(-1, 1, 2), rng.uniform(-0.8, 0.8, d))
        elif kind == "zero":
            J[k] = 0.0
    dirs = ellipse_directions(rng.uniform(0.05, 3.0, 2), draw(st.sampled_from([3, 8])))
    if draw(st.booleans()):
        dirs = np.concatenate((dirs, J[:1, :, 0], np.zeros((1, 2))))  # on range(J_0), and 0
    h_cap = draw(st.sampled_from([10.0, RAY_CAP]))
    return G, _velocity_rays(J, dirs), limits, h_cap


@EXAMPLES
@given(velocity_cases())
def test_velocity_kernel_equals_the_reference_bit_for_bit(case):
    G, rays, limits, h_cap = case
    h = _velocity_h(G, rays, limits, h_cap)
    h_ref = reference.velocity_h(G, rays, limits, h_cap)
    assert h.shape == h_ref.shape
    assert h.tobytes() == h_ref.tobytes()


@st.composite
def jacobian_cases(draw):
    """(model, links, fractions, pose): P variable designs of M wires with N
    relay points at S states; some consecutive points coincide."""
    d, m, p, s = draw(shapes())
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = rng.uniform(0.2, 0.8, d + 1)
    segments = None
    if draw(st.booleans()):  # attach segments off the centerline, inside each link's length
        segments = rng.uniform(-0.5, 0.5, (d + 1, 2, 2)) * lengths[:, None, None]
    model = RobotModel(lengths, np.ones(d + 1), attach_segments=segments)
    links = rng.integers(0, d + 1, (p, m, n))
    links[..., 0] = 0
    fractions = rng.choice([0.0, 0.25, 1.0, rng.random()], size=(p, m, n))
    if draw(st.booleans()):  # repeated points: zero-length segments
        links[..., 1], fractions[..., 1] = links[..., 0], fractions[..., 0]
    q = rng.uniform(-np.pi, np.pi, (s, d))
    if draw(st.booleans()):
        q[0] = 0.0  # the straight arm
    return model, links, fractions, forward_kinematics(model, q)


@EXAMPLES
@given(jacobian_cases())
def test_muscle_jacobian_equals_the_reference_bit_for_bit(case):
    model, links, fractions, pose = case
    G = batch_muscle_jacobian(model, Design(links, fractions), pose)
    G_ref = reference.batch_muscle_jacobian(model, links, fractions, pose)
    assert G.shape == G_ref.shape
    assert G.tobytes() == G_ref.tobytes()


@EXAMPLES
@given(jacobian_cases())
def test_relay_points_equal_the_reference_bit_for_bit(case):
    """One design at one state, and every design at every state."""
    model, links, fractions, pose = case
    q = np.linspace(-1.0, 2.0, model.n_joints)
    one = forward_kinematics(model, q)
    pts = relay_points(model, Design(links[0], fractions[0]), one)
    ref = reference.relay_points(model, links[0], fractions[0], one)
    assert pts.tobytes() == ref.tobytes()
    pts = relay_points(model, Design(links, fractions), pose)
    assert pts.tobytes() == reference.relay_points(model, links, fractions, pose).tobytes()
