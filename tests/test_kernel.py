"""Differential tests of the coverage kernels force_h_all / velocity_h_all.

For D = 2 the kernels are closed forms. Each generated case is checked
against the same LP built here from the public LinearProgram/solve_lp_max,
against scipy's linprog, and (velocity) against an exact rational
evaluation of the closed form on the same floating-point inputs; wherever
J is regular the exact polygons of tlo.oracle are a third reference. The cases
aim at the degenerate geometry: rank-0/1 and parallel-row G, joint states
near q2 = 0 and q2 = pi, exactly singular J, force directions with
J^T w ~ 0, anchors on the zonotope boundary, h at exactly 1 and at h_cap,
and a single ray that starts outside the zonotope and enters it; the
gravity torque of a real target1_grav state is put on the zonotope's
boundary by scaling G. Robots
with D != 2 are scored by the simplex; they are checked against linprog.
"""

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import (
    PAPER_LENGTHS,
    PAPER_MASSES,
    random_constant_design,
    random_variable_design,
)
from tlo import simplex
from tlo.arrangement import muscle_jacobian
from tlo.feasibility import (
    ActuatorLimits,
    Scenario,
    TargetSpec,
    ellipse_directions,
    force_h_all,
    make_evaluator,
    state_tables,
    velocity_h_all,
)
from tlo.config import load_config
from tlo.model import RobotModel, gravity_torque, joint_jacobian
from tlo.oracle import force_polytope_exact, ray_h, velocity_polytope_exact
from tlo.simplex import LinearProgram, solve_lp_max

FORMAL_BOX = 1e6  # the kernels' bound on |qdot_k|
EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True)
PAPER_MODEL = RobotModel(PAPER_LENGTHS, PAPER_MASSES)


# --- references ----------------------------------------------------------------


def capped(h, h_cap):
    return None if h is None else min(h, h_cap)


def _simplex_h(lp):
    res = solve_lp_max(lp)
    return {"optimal": res.value, "infeasible": None, "unbounded": np.inf}[res.status]


def lp_force_h(G, rhs, col, limits):
    """max h s.t. -G^T f - h col = rhs, f in the box, h >= 0; None if infeasible."""
    m = len(G)
    return _simplex_h(LinearProgram(
        objective=[1.0] + [0.0] * m,
        a_eq=np.column_stack([-np.asarray(col), -G.T]),
        b_eq=rhs,
        lower=[0.0] + [limits.f_min] * m,
        upper=[np.inf] + [limits.f_max] * m,
    ))


def linprog_force_h(G, rhs, col, limits):
    m = len(G)
    res = linprog(
        c=[-1.0] + [0.0] * m,
        A_eq=np.column_stack([-np.asarray(col), -G.T]),
        b_eq=rhs,
        bounds=[(0, None)] + [(limits.f_min, limits.f_max)] * m,
        method="highs",
    )
    return _linprog_h(res)


def _linprog_h(res):
    assert res.status in (0, 2, 3), res.message
    if res.status == 2:
        return None
    return np.inf if res.status == 3 else -res.fun


def _velocity_lp(G, J, w, limits):
    """Variables (h, qdot, y): J qdot - h w = 0, G qdot - y = 0."""
    m, d = G.shape
    a = np.zeros((2 + m, 1 + d + m))
    a[:2, 0] = -np.asarray(w)
    a[:2, 1 : 1 + d] = J
    a[2:, 1 : 1 + d] = G
    a[2:, 1 + d :] = -np.eye(m)
    lower = [0.0] + [-FORMAL_BOX] * d + [limits.ldot_min] * m
    upper = [np.inf] + [FORMAL_BOX] * d + [limits.ldot_max] * m
    return a, lower, upper


def lp_velocity_h(G, J, w, limits):
    a, lower, upper = _velocity_lp(G, J, w, limits)
    return _simplex_h(LinearProgram([1.0] + [0.0] * (a.shape[1] - 1), a, np.zeros(len(a)),
                                    lower, upper))


def linprog_velocity_h(G, J, w, limits):
    a, lower, upper = _velocity_lp(G, J, w, limits)
    res = linprog(
        c=[-1.0] + [0.0] * (a.shape[1] - 1), A_eq=a, b_eq=np.zeros(len(a)),
        bounds=list(zip(lower, [None if u == np.inf else u for u in upper])),
        method="highs",
    )
    return _linprog_h(res)


def exact_velocity_h(G, J, w, limits, h_cap):
    """The closed form in rationals on the same float inputs; None at det J = 0."""
    (a, b), (c, d) = [[Fraction(x) for x in row] for row in J.tolist()]
    det = a * d - b * c
    if det == 0:
        return None
    w0, w1 = Fraction(w[0]), Fraction(w[1])
    u = ((d * w0 - b * w1) / det, (a * w1 - c * w0) / det)
    h = Fraction(h_cap)
    for g0, g1 in G.tolist():
        rate = Fraction(g0) * u[0] + Fraction(g1) * u[1]
        if rate > 0:
            h = min(h, Fraction(limits.ldot_max) / rate)
        elif rate < 0:
            h = min(h, Fraction(limits.ldot_min) / rate)
    top = max(abs(u[0]), abs(u[1]))
    if top:
        h = min(h, Fraction(FORMAL_BOX) / top)
    return h


def regular(J):
    """J is regular enough for the exact polygons, which map through its inverse."""
    return abs(np.linalg.det(J)) >= 1e-12 and np.linalg.cond(J) <= 1e6


def oracle_force_h(G, J, rhs, cols, limits):
    """Exit of each ray from the exact tip-force zonotope; None when the start
    J^-T rhs lies outside it, where ray_h has no answer for a ray that enters."""
    poly = force_polytope_exact(G, J, limits.f_min, limits.f_max)
    inv_jt = np.linalg.inv(J.T)
    start = inv_jt @ rhs
    if not poly.contains(start, tol=1e-9 * (1.0 + np.abs(poly.vertices).max())):
        return None
    return [ray_h(poly, start, inv_jt @ col) for col in cols]


def oracle_velocity_h(G, J, w, limits, h_cap):
    """Exit from the exact tip-velocity polygon, which includes the formal
    qdot box (so a strip of rank(G) < 2 is bounded too)."""
    poly = velocity_polytope_exact(G, J, limits.ldot_min, limits.ldot_max)
    return min(ray_h(poly, np.zeros(2), w), h_cap)


def rounding_slack(poly):
    """Bound on |dh| / h from the oracle's float vertices. Each is off by a
    few ulp of the largest coordinate, about 1e-10 where a strip meets the
    1e6 qdot box, and that moves an exit across an edge at distance d from
    the origin by h / d times as much."""
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    d = np.abs(e[:, 0] * v[:, 1] - e[:, 1] * v[:, 0]) / np.hypot(e[:, 0], e[:, 1])
    return 8 * np.finfo(float).eps * np.abs(v).max() / d.min()


def zonotope_center(G, limits):
    return -0.5 * (limits.f_min + limits.f_max) * G.sum(axis=0)


def boundary_point(G, limits, j, s):
    """A point on the edge of Z = {-G^T f} normal to perp(g_j), at s in [-1, 1]."""
    n = np.array([-G[j, 1], G[j, 0]]) if np.any(G[j]) else np.array([1.0, 0.0])
    side = np.sign(G @ n)
    side[side == 0] = s
    # -G^T f is largest along n where f_m = f_min for n.g_m > 0, f_max for n.g_m < 0
    f = 0.5 * (limits.f_min + limits.f_max) - 0.5 * (limits.f_max - limits.f_min) * side
    return -G.T @ f


# --- generated cases -------------------------------------------------------------


@dataclass
class Case:
    G: np.ndarray
    J: np.ndarray
    limits: ActuatorLimits
    h_cap: float
    rng: np.random.Generator


@st.composite
def planar_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 6))
    g_kind = draw(st.sampled_from(["full", "rank0", "rank1", "parallel"]))
    if g_kind == "full":
        G = rng.uniform(-0.5, 0.5, (m, 2))
    elif g_kind == "rank0":
        G = np.zeros((m, 2))
    elif g_kind == "rank1":
        G = np.outer(rng.uniform(-1, 1, m) * (rng.random(m) < 0.8), rng.uniform(-0.5, 0.5, 2))
    else:
        # some rows repeated, negated or scaled
        G = rng.uniform(-0.5, 0.5, (m, 2))
        scale = draw(st.sampled_from([1.0, -1.0, 2.0, 0.5]))
        G = np.concatenate([G, scale * G[: draw(st.integers(1, m))]])
    q_kind = draw(st.sampled_from(["regular", "near0", "nearpi", "singular"]))
    if q_kind == "singular":
        col = rng.uniform(-0.8, 0.8, 2)
        J = np.column_stack([col, col * draw(st.sampled_from([0.0, 0.5, -2.0, 1.0]))])
    else:
        eps = 10.0 ** -draw(st.floats(3, 9)) * draw(st.sampled_from([1.0, -1.0]))
        q2 = {"regular": rng.uniform(0.2, np.pi - 0.2) * np.sign(eps), "near0": eps,
              "nearpi": np.pi - eps}[q_kind]
        J = joint_jacobian(PAPER_MODEL, np.array([rng.uniform(-np.pi, np.pi), q2]))
    f_min = draw(st.floats(1.0, 50.0))
    limits = ActuatorLimits(f_min, f_min + draw(st.floats(1.0, 300.0)),
                            -draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0)))
    return Case(G, J, limits, draw(st.sampled_from([1.0, 10.0, 100.0])), rng)


@st.composite
def force_cases(draw):
    """(case, rhs, cols): the ray inputs of force_h_all."""
    case = draw(planar_cases())
    G, J, limits, rng = case.G, case.J, case.limits, case.rng
    dirs = ellipse_directions(rng.uniform(1.0, 60.0, 2), 8)
    kind = draw(st.sampled_from(["center", "torque", "boundary", "entering", "exit_at", "null"]))
    center = zonotope_center(G, limits)
    edge = boundary_point(G, limits, rng.integers(len(G)), rng.uniform(-1, 1))
    cols = dirs @ J
    if kind == "center":
        rhs = J.T @ rng.uniform(-60, 60, 2)
    elif kind == "torque":
        rhs = rng.uniform(-30, 30, 2)
    elif kind == "boundary":
        rhs = edge
    elif kind == "entering":
        # further out than Z reaches, aimed through its center: h is the far exit
        aim = ellipse_directions(np.ones(2), 360)[rng.integers(360)]
        rhs = center - rng.uniform(2.0, 50.0) * (1 + limits.f_max * np.abs(G).sum()) * aim
        cols = rng.uniform(0.1, 2.0) * aim[None]
    elif kind == "exit_at":
        # from the center to a boundary point in exactly k steps: h = k
        rhs = center
        cols = (edge - center)[None] / draw(st.sampled_from([1.0, case.h_cap]))
    else:
        # J^T w ~ 0: w along J's left singular vector of least gain, and exactly 0
        rhs = edge if draw(st.booleans()) else center
        y = np.linalg.svd(J)[0][:, 1]
        cols = np.stack([40.0 * y @ J, np.zeros(2), dirs[0] @ J])
    if draw(st.booleans()):
        cols = cols[[draw(st.integers(0, len(cols) - 1))]]
    return case, rhs, cols


@st.composite
def velocity_cases(draw):
    """(case, dirs): the inputs of velocity_h_all."""
    case = draw(planar_cases())
    G, J, limits, rng = case.G, case.J, case.limits, case.rng
    kind = draw(st.sampled_from(["ellipse", "exactly_one", "at_cap"]))
    if kind == "ellipse":
        dirs = ellipse_directions(rng.uniform(0.05, 3.0, 2), 8)
    else:
        # w = J u with u scaled so that the binding wire reaches its speed
        # limit at h = k: at qdot = h u that wire runs at h * use of its limit
        u = rng.uniform(-1, 1, 2)
        rates = G @ u
        use = np.maximum(rates / limits.ldot_max, rates / limits.ldot_min).max(initial=0.0)
        k = 1.0 if kind == "exactly_one" else case.h_cap
        dirs = (J @ (u / ((use if use > 0 else 1.0) * k)))[None]
    return case, dirs


# --- the differential tests ------------------------------------------------------


def assert_close(value, ref, rel, abs_tol=0.0, what=""):
    assert value == pytest.approx(ref, rel=rel, abs=abs_tol), what


@EXAMPLES
@given(force_cases())
def test_force_kernel_matches_the_lps(data):
    case, rhs, cols = data
    G, limits, cap = case.G, case.limits, case.h_cap
    hs = force_h_all(G, rhs, cols, limits, cap)
    simplex_h = [capped(lp_force_h(G, rhs, c, limits), cap) for c in cols]
    highs_h = [capped(linprog_force_h(G, rhs, c, limits), cap) for c in cols]
    # the kernel prunes exactly when some direction's LP is infeasible
    assert (hs is None) == any(h is None for h in simplex_h)
    assert (hs is None) == any(h is None for h in highs_h)
    if hs is None:
        return
    # torque-space rounding of size ~1e-13 * scale moves the exit of a slow
    # ray (small |J^T w|) by that over |J^T w|
    scale = max(1.0, np.abs(rhs).max(), limits.f_max * np.abs(G).sum())
    for h, col, ref_s, ref_h in zip(hs, cols, simplex_h, highs_h):
        assert 0.0 <= h <= cap
        slow = 1e-13 * scale / max(np.abs(col).max(), 1e-300)
        assert_close(h, ref_s, rel=1e-9, abs_tol=max(1e-9, slow), what="simplex")
        assert_close(h, ref_h, rel=1e-7, abs_tol=max(1e-7, slow), what="linprog")


@EXAMPLES
@given(velocity_cases())
def test_velocity_kernel_matches_exact_and_lps(data):
    case, dirs = data
    G, J, limits, cap = case.G, case.J, case.limits, case.h_cap
    hs = velocity_h_all(G, J, dirs, limits, cap)
    assert hs is not None  # qdot = 0 is always feasible
    # The LPs lose accuracy as J nears singularity: the simplex (with its
    # 1e6 box on qdot) by up to about 2e-8 cond(J) relative, linprog by far
    # less, and beyond cond(J) = 1e6 both by more; there the exact reference
    # alone holds.
    cond = np.linalg.cond(J)
    for h, w in zip(hs, dirs):
        assert 0.0 <= h <= cap
        exact = exact_velocity_h(G, J, w, limits, cap)
        if exact is None:  # exactly singular J: the kernel is the simplex
            assert h == pytest.approx(capped(lp_velocity_h(G, J, w, limits), cap), abs=1e-12)
            continue
        assert abs(Fraction(float(h)) - exact) <= Fraction(1, 10**12) * exact
        if cond <= 1e6:
            ref = capped(lp_velocity_h(G, J, w, limits), cap)
            assert_close(h, ref, rel=1e-7 * cond, abs_tol=1e-9, what="simplex")
            ref = capped(linprog_velocity_h(G, J, w, limits), cap)
            assert_close(h, ref, rel=1e-11 * cond, abs_tol=1e-9, what="linprog")


# --- the exact polygons of tlo.oracle as a third reference, where J is regular ----
#
# These are tests of their own rather than more asserts in the two above:
# hypothesis derives derandomized examples from a test's source, so editing
# those would change the cases they have always checked.


def check_force_against_oracle(G, J, rhs, cols, limits, cap):
    """Compare where the oracle has an answer; True if it had one."""
    hs = force_h_all(G, rhs, cols, limits, cap)
    ref = oracle_force_h(G, J, rhs, cols, limits)
    if ref is None:
        return False
    assert hs is not None  # no ray from inside Z misses it
    scale = max(1.0, np.abs(rhs).max(), limits.f_max * np.abs(G).sum())
    for h, col, ref_o in zip(hs, cols, ref):
        slow = 1e-13 * scale / max(np.abs(col).max(), 1e-300)
        assert_close(h, min(ref_o, cap), rel=1e-7, abs_tol=max(1e-7, slow), what="oracle")
    return True


@EXAMPLES
@given(force_cases())
def test_force_kernel_matches_the_exact_zonotope(data):
    case, rhs, cols = data
    assume(regular(case.J))
    check_force_against_oracle(case.G, case.J, rhs, cols, case.limits, case.h_cap)


@EXAMPLES
@given(velocity_cases())
def test_velocity_kernel_matches_the_exact_polygon(data):
    case, dirs = data
    G, J, limits, cap = case.G, case.J, case.limits, case.h_cap
    assume(regular(J))
    cond = np.linalg.cond(J)
    # only the formal box bounds a strip (rank(G) < 2) along its length
    slack = 0.0
    if np.linalg.matrix_rank(G, tol=1e-9) < 2:
        slack = rounding_slack(velocity_polytope_exact(G, J, limits.ldot_min, limits.ldot_max))
    for h, w in zip(velocity_h_all(G, J, dirs, limits, cap), dirs):
        ref = oracle_velocity_h(G, J, w, limits, cap)
        assert_close(h, ref, rel=1e-11 * cond, abs_tol=1e-9 + slack * ref, what="oracle")


GRAVITY = load_config(resources.files("tlo") / "scenarios" / "target1_grav.json")


def far_boundary_scale(G, tau, limits):
    """Largest u with u tau in Z = {-G^T f}, from the exact torque zonotope
    (force_polytope_exact at J = I); None when the line through tau misses Z."""
    v = force_polytope_exact(G, np.eye(2), limits.f_min, limits.f_max).vertices
    scales = []
    for p, e in zip(v, np.roll(v, -1, axis=0) - v):
        a = np.column_stack([tau, -e])
        if len(v) > 2 and abs(np.linalg.det(a)) > 1e-12 * np.abs(a).max() ** 2:
            u, lam = np.linalg.solve(a, p)
            if -1e-12 <= lam <= 1 + 1e-12:
                scales.append(u)
    return max(scales) if scales and max(scales) > 0 else None


@EXAMPLES
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(GRAVITY.joint_states))),
       st.integers(2, 6))
def test_gravity_torque_on_the_zonotope_boundary(seed, k, m):
    """rhs is the gravity torque of a target1_grav state and G is scaled so
    that it lies on the far boundary of Z, where rays pointing out leave at once."""
    limits, cap = GRAVITY.limits, GRAVITY.h_cap
    q = GRAVITY.joint_states[k]
    state = state_tables(GRAVITY.robot, q, GRAVITY.target, gravity=True)
    assert np.array_equal(state.rhs, gravity_torque(GRAVITY.robot, q))
    G = np.random.default_rng(seed).uniform(-0.5, 0.5, (m, 2))
    u = far_boundary_scale(G, state.rhs, limits)
    assume(u is not None)
    G = G / u  # Z(G / u) = Z(G) / u: the gravity torque sits on its boundary
    # on dZ: inside Z, and a step further out is not
    assert force_h_all(G, state.rhs, np.zeros((1, 2)), limits, cap) is not None
    assert force_h_all(G, state.rhs * (1 + 1e-6), np.zeros((1, 2)), limits, cap) is None
    hs = force_h_all(G, state.rhs, state.force_cols, limits, cap)
    assert hs is not None
    assert min(hs) == pytest.approx(0.0, abs=1e-7)  # some ray points out of Z
    scale = max(1.0, np.abs(state.rhs).max(), limits.f_max * np.abs(G).sum())
    for h, col in zip(hs, state.force_cols):
        slow = 1e-13 * scale / max(np.abs(col).max(), 1e-300)
        ref = capped(lp_force_h(G, state.rhs, col, limits), cap)
        assert_close(h, ref, rel=1e-9, abs_tol=max(1e-9, slow), what="simplex")
        ref = capped(linprog_force_h(G, state.rhs, col, limits), cap)
        assert_close(h, ref, rel=1e-7, abs_tol=max(1e-7, slow), what="linprog")
    np.testing.assert_allclose(np.linalg.solve(state.J.T, state.rhs), state.anchor, rtol=1e-12)
    assert check_force_against_oracle(G, state.J, state.rhs, state.force_cols, limits, cap)


def test_generated_cases_reach_the_corners():
    """Spot checks that the corner cases above really produce what they name."""
    limits = ActuatorLimits(10.0, 200.0, -0.4, 0.4)
    G = np.array([[-0.1, 0.05], [0.08, 0.02], [0.0, -0.1]])
    c0 = zonotope_center(G, limits)
    b = boundary_point(G, limits, 1, 0.3)
    # the boundary point is on dZ: in Z, and a step further out is not
    assert force_h_all(G, b, np.zeros((1, 2)), limits, 10.0) is not None
    assert force_h_all(G, b + 1e-6 * (b - c0), np.zeros((1, 2)), limits, 10.0) is None
    # h exactly at 1 and at the cap
    assert force_h_all(G, c0, (b - c0)[None], limits, 100.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert force_h_all(G, c0, ((b - c0) / 10.0)[None], limits, 10.0)[0] == pytest.approx(10.0)
    # a single ray from outside that enters: h is the far exit, not None
    start = c0 + 100 * (b - c0)
    h = force_h_all(G, start, (c0 - start)[None], limits, 1e9)
    assert h is not None and h[0] > 1.0
    # the same start with the ray turned away is pruned
    assert force_h_all(G, start, (start - c0)[None], limits, 1e9) is None


# --- robots with D != 2 go through the simplex -------------------------------------


def _robot(d):
    return RobotModel([0.4] + [1.2 / d] * d, [0.0] + [4.0] * d,
                      moment_arm_ranges=[[-0.1, 0.1]] * d)


def _random_design(rng, d):
    if rng.random() < 0.5:
        return random_constant_design(rng, m=5, d=d)
    return random_variable_design(rng, m=4, n=3, d=d)


@pytest.mark.parametrize("d", [1, 3])
def test_other_joint_counts_match_linprog(d, monkeypatch):
    calls = []
    solve = simplex.solve_arrays
    monkeypatch.setattr(simplex, "solve_arrays", lambda *a: calls.append(1) or solve(*a))
    model = _robot(d)
    limits = ActuatorLimits(10.0, 200.0, -0.4, 0.4)
    target = TargetSpec([0.0, 0.0], [30.0, 20.0], [0.6, 0.6], 8)
    rng = np.random.default_rng(d)
    scored = pruned = 0
    while scored < 10:
        assert pruned < 400
        q = rng.uniform(-np.pi / 2, np.pi / 2, d)
        tables = state_tables(model, q, target, gravity=bool(rng.random() < 0.3))
        G = muscle_jacobian(model, _random_design(rng, d), q)
        hf = force_h_all(G, tables.rhs, tables.force_cols, limits, 10.0)
        ref = [capped(linprog_force_h(G, tables.rhs, c, limits), 10.0) for c in tables.force_cols]
        assert (hf is None) == any(h is None for h in ref)
        if hf is None:
            pruned += 1
            continue
        np.testing.assert_allclose(hf, ref, rtol=1e-7, atol=1e-7)
        hv = velocity_h_all(G, tables.J, tables.velocity_dirs, limits, 10.0)
        ref = [capped(linprog_velocity_h(G, tables.J, w, limits), 10.0)
               for w in tables.velocity_dirs]
        np.testing.assert_allclose(hv, ref, rtol=1e-7, atol=1e-7)
        scored += 1
    assert pruned >= 1
    assert len(calls) >= 16 * scored  # the simplex, not a closed form, scored them
    # whole designs score through make_evaluator as well
    scenario = Scenario(limits, target, [rng.uniform(-1, 1, d) for _ in range(2)])
    evaluator = make_evaluator(model, scenario)
    results = [evaluator(_random_design(rng, d)) for _ in range(20)]
    assert any(res.feasible for res in results)
    for res in results:
        if res.feasible:
            assert 0.0 <= res.e_force <= scenario.max_objective
            assert 0.0 <= res.e_velocity <= scenario.max_objective
