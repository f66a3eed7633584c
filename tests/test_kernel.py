"""Differential tests of the coverage kernels force_h_all / velocity_h_all.

Both kernels are closed forms at every D: force a ray clipped against the
torque zonotope, velocity a ray bounded through J^-1 (D = 2, regular J) or
by the LP dual's vertices (any other D or J). Each generated planar case is
checked against the same LP solved by the reference simplex of
tests/reference_lp.py, against scipy's linprog, and (velocity) against an
exact rational evaluation of the closed form on the same floating-point
inputs (at an exactly singular J, of its two-variable LP along null(J));
wherever J is regular the exact polygons of tlo.oracle are a third
reference. The cases
aim at the degenerate geometry: rank-0/1 and parallel-row G, joint states
near q2 = 0 and q2 = pi, exactly singular J, force directions with
J^T w ~ 0, anchors on the zonotope boundary, h at exactly 1 and at h_cap,
and a single ray that starts outside the zonotope and enters it; the
gravity torque of a real target1_grav state is put on the zonotope's
boundary by scaling G. Robots with D != 2 are checked against the LP and
linprog, force also on flat zonotopes, and velocity against an exact
rational vertex enumeration of its LP at D = 1-4, on degenerate G and J and
near a singular three-joint J."""

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import (
    PAPER_LENGTHS,
    PAPER_MASSES,
    encode_rows,
    random_constant_design,
    random_variable_design,
)
from reference_lp import LinearProgram, solve_lp_max
from tlo.arrangement import muscle_jacobian
from tlo.feasibility import (
    ActuatorLimits,
    Scenario,
    TargetSpec,
    _diff_of_products,
    _two_product,
    _velocity_rays,
    ellipse_directions,
    force_directions,
    force_h_all,
    make_evaluator,
    state_tables,
    velocity_directions,
    velocity_h_all,
)
from tlo.config import load_config
from tlo.model import RobotModel, gravity_torque, joint_jacobian
from tlo.oracle import force_polytope_exact, ray_h, velocity_polytope_exact

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
    """The closed form in rationals on the same float inputs (the singular-J
    LP where det J = 0)."""
    (a, b), (c, d) = [[Fraction(x) for x in row] for row in J.tolist()]
    det = a * d - b * c
    if det == 0:
        return exact_singular_velocity_h(G, ((a, b), (c, d)), w, limits, h_cap)
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


def exact_singular_velocity_h(G, J, w, limits, h_cap):
    """max h with J qdot = h w, G qdot in the wire-speed box and qdot in the
    formal box, in rationals, for a J of rank 1 or 0.

    Off range(J) only h = 0 solves J qdot = h w. On it, qdot = h p + t n
    with p along a nonzero row v of J, J p = w, and n perpendicular to v,
    so that J n = 0. Eliminating t (Fourier-Motzkin) from the constraints
    alpha h + beta t <= gamma leaves the bounds on h alone.
    """
    w = (Fraction(w[0]), Fraction(w[1]))
    rows = [row for row in J if row != (0, 0)]
    if not rows:
        return Fraction(h_cap) if w == (0, 0) else Fraction(0)
    col = next(col for col in zip(*J) if col != (0, 0))
    if col[0] * w[1] - col[1] * w[0] != 0:
        return Fraction(0)
    r = J.index(rows[0])
    v = rows[0]
    p = [w[r] / (v[0] ** 2 + v[1] ** 2) * x for x in v]
    n = (-v[1], v[0])
    cons = []
    for g in G.tolist():
        gp = Fraction(g[0]) * p[0] + Fraction(g[1]) * p[1]
        gn = Fraction(g[0]) * n[0] + Fraction(g[1]) * n[1]
        cons += [(gp, gn, Fraction(limits.ldot_max)), (-gp, -gn, -Fraction(limits.ldot_min))]
    for k in range(2):
        cons += [(p[k], n[k], Fraction(FORMAL_BOX)), (-p[k], -n[k], Fraction(FORMAL_BOX))]
    bounds = [gamma / alpha for alpha, beta, gamma in cons if beta == 0 and alpha > 0]
    for ai, bi, ci in cons:
        for aj, bj, cj in cons:
            if bi > 0 > bj and aj * bi - ai * bj > 0:
                bounds.append((cj * bi - ci * bj) / (aj * bi - ai * bj))
    return min(bounds + [Fraction(h_cap)])


def _row_reduce(rows, n_cols):
    """Reduced row echelon form of rational rows over their first n_cols
    columns: (rows, pivot columns); the rows past the rank are zero there."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(n_cols):
        i = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        top = len(pivots)
        rows[top], rows[i] = rows[i], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for j, row in enumerate(rows):
            if j != top and row[c]:
                rows[j] = [a - row[c] * b for a, b in zip(row, rows[top])]
        pivots.append(c)
    return rows, pivots


def exact_lp_velocity_h(G, J, w, limits, h_cap):
    """The velocity LP in rationals at any D, by vertex enumeration: max h
    with J qdot = h w, G qdot in the wire-speed box and qdot in the formal
    box. Its solutions are qdot = h p + Z t, J p = w and Z a basis of
    null(J); the largest h is at a vertex of the polytope in (h, t), where
    1 + dim null(J) of the rows of [G; I_D] sit on a bound. w = 0 leaves h
    unbounded, and w off range(J) allows only h = 0."""
    w = [Fraction(x) for x in w]
    if not any(w):
        return Fraction(h_cap)
    m, d = G.shape
    augmented = [[Fraction(x) for x in row] + [b] for row, b in zip(J.tolist(), w)]
    rows, pivots = _row_reduce(augmented, d)
    if any(row[d] and not any(row[:d]) for row in rows):
        return Fraction(0)
    p = [Fraction(0)] * d
    for row, c in zip(rows, pivots):
        p[c] = row[d]
    basis = [p]
    for f in (c for c in range(d) if c not in pivots):
        z = [Fraction(int(c == f)) for c in range(d)]
        for row, c in zip(rows, pivots):
            z[c] = -row[f]
        basis.append(z)
    H = [[Fraction(x) for x in g] for g in G.tolist()] + [[Fraction(int(i == j)) for j in range(d)]
                                                          for i in range(d)]
    coef = [[sum(a * b for a, b in zip(h, v)) for v in basis] for h in H]  # rows of H in (h, t)
    bounds = ([(Fraction(limits.ldot_min), Fraction(limits.ldot_max))] * m
              + [(-Fraction(FORMAL_BOX), Fraction(FORMAL_BOX))] * d)
    k, best = len(basis), Fraction(0)
    for S in combinations(range(len(H)), k):
        inverse, rank = _row_reduce([coef[i] + [Fraction(int(i == j)) for j in S] for i in S], k)
        if len(rank) < k:
            continue
        inverse = [row[k:] for row in inverse]
        for b in product(*(bounds[i] for i in S)):
            h = sum(a * c for a, c in zip(inverse[0], b))
            if h <= best:
                continue
            x = [h] + [sum(a * c for a, c in zip(row, b)) for row in inverse[1:]]
            if all(lo <= sum(a * c for a, c in zip(row, x)) <= up
                   for row, (lo, up) in zip(coef, bounds)):
                best = h
    return min(best, Fraction(h_cap))


def exact_singular(J):
    (a, b), (c, d) = [[Fraction(x) for x in row] for row in J.tolist()]
    return a * d == b * c


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
    d = d[d > 0]  # an edge through the origin only bounds rays at h = 0, where no slack applies
    return 8 * np.finfo(float).eps * np.abs(v).max() / d.min() if len(d) else 0.0


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
        if exact_singular(J):
            assert abs(Fraction(float(h)) - exact) <= Fraction(1, 10**12) * min(exact, 1)
            # Off range(J) only h = 0 solves J qdot = h w, but an LP solver's
            # feasibility tolerance admits more there (the simplex ~1e-9, and
            # up to h_cap for a w = J u off range by rounding alone), so the
            # LP reference is linprog, on range(J).
            if exact > 0:
                ref = capped(linprog_velocity_h(G, J, w, limits), cap)
                assert_close(h, ref, rel=1e-9, abs_tol=1e-9, what="linprog")
            continue
        assert abs(Fraction(float(h)) - exact) <= Fraction(1, 10**12) * exact
        if cond <= 1e6:
            ref = capped(lp_velocity_h(G, J, w, limits), cap)
            assert_close(h, ref, rel=1e-7 * cond, abs_tol=1e-9, what="simplex")
            ref = capped(linprog_velocity_h(G, J, w, limits), cap)
            assert_close(h, ref, rel=1e-11 * cond, abs_tol=1e-9, what="linprog")


@st.composite
def singular_range_cases(draw):
    """(case, dirs) with J exactly singular and every w on range(J): w is a
    power-of-two multiple of a column of J, so that no rounding moves it off."""
    case = draw(planar_cases())
    rng = case.rng
    col = rng.uniform(-0.8, 0.8, 2)
    case.J = np.column_stack([col, col * draw(st.sampled_from([0.0, 0.5, -2.0, 1.0]))])
    if draw(st.booleans()):
        case.J = case.J[:, ::-1]
    scales = 2.0 ** rng.integers(-4, 5, 3) * rng.choice([-1.0, 1.0], 3)
    return case, scales[:, None] * col


@EXAMPLES
@given(singular_range_cases())
def test_velocity_kernel_on_the_range_of_a_singular_j(data):
    """At an exactly singular J qdot also moves along null(J), which the
    closed form resolves as a two-variable LP."""
    case, dirs = data
    G, J, limits, cap = case.G, case.J, case.limits, case.h_cap
    hs = velocity_h_all(G, J, dirs, limits, cap)
    assert hs is not None
    for h, w in zip(hs, dirs):
        exact = exact_velocity_h(G, J, w, limits, cap)
        assert exact > 0
        assert abs(Fraction(float(h)) - exact) <= Fraction(1, 10**12) * min(exact, 1)
        ref = capped(linprog_velocity_h(G, J, w, limits), cap)
        assert_close(h, ref, rel=1e-9, abs_tol=1e-9, what="linprog")
    # w = 0 is reached at any h; at J = 0 nothing else is reached at all
    zero = np.zeros((1, 2))
    assert velocity_h_all(G, J, zero, limits, cap).tolist() == [cap]
    hs = velocity_h_all(G, np.zeros((2, 2)), np.concatenate([dirs, zero]), limits, cap)
    assert hs.tolist() == [0.0] * len(dirs) + [cap]


def test_singular_j_off_its_range_scores_zero_not_pruned():
    """qdot = 0 satisfies the velocity LP at every J, so no design is pruned
    by it. This J is exactly singular and w lies off its range by ~5e-18,
    so h = 0 exactly; the simplex's phase 1 had called it infeasible."""
    G = np.array([[-0.0, -0.0], [0.131210200689243, 0.07629125940050786], [-0.0, -0.0]])
    J = np.array([[-0.2726941285749057, 0.5453882571498114],
                  [0.03915649586903647, -0.07831299173807293]])
    w = np.array([[0.066635781132518, -0.00956831634872818]])
    limits = ActuatorLimits(1.0, 2.0, -0.4981219187431265, 1.0)
    assert exact_singular(J)
    assert exact_velocity_h(G, J, w[0], limits, 1.0) == 0
    assert velocity_h_all(G, J, w, limits, 1.0).tolist() == [0.0]


def adjugate_inverse(J, dirs):
    """J^-1 w = adj(J) w / det J of a stack of 2x2 J, (S, directions, 2), from
    error-free products of adj(J) = [[J11, -J01], [-J10, J00]] with w, in the
    memory order that this gather leaves: the reference for _velocity_rays'
    (W_1, -W_0) / det J. Singular states are divided by 1."""
    adj = J[:, [[1, 0], [0, 1]], [[1, 0], [1, 0]]]  # [[J11, J00], [J01, J10]] per state
    p, e = _two_product(adj[:, None], dirs[:, [[0, 1], [1, 0]]])  # w as [[w0, w1], [w1, w0]]
    det = _diff_of_products(J[:, 0, 0], J[:, 1, 1], J[:, 0, 1], J[:, 1, 0])
    inverse = (p[:, :, 0] - p[:, :, 1]) + (e[:, :, 0] - e[:, :, 1])
    return inverse / np.where(det != 0, det, 1.0)[:, None, None]


@st.composite
def planar_inverse_cases(draw):
    """(J, dirs): S = 1-3 two-joint J with entries of magnitude 1e-6 to 1e3,
    some near-singular (the second column a multiple of the first up to a
    relative 1e-6, or exactly), and ellipse or random directions, exact 0s
    included."""
    magnitude = st.floats(1e-6, 1e3)
    entry = st.builds(lambda m, sign: sign * m, magnitude, st.sampled_from([-1.0, 1.0]))
    J = np.array(draw(st.lists(st.lists(entry, min_size=4, max_size=4), min_size=1,
                               max_size=3))).reshape(-1, 2, 2)
    for k in range(len(J)):
        if draw(st.booleans()):
            scale = draw(st.sampled_from([1.0, -0.5, 3.0]))
            J[k, :, 1] = J[k, :, 0] * scale * (1.0 + draw(st.floats(-1e-6, 1e-6)))
    if draw(st.booleans()):
        radii = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=2, max_size=2)))
        dirs = ellipse_directions(radii, draw(st.integers(3, 16)))
    else:
        component = st.one_of(st.just(0.0), entry)
        dirs = np.array(draw(st.lists(st.lists(component, min_size=2, max_size=2), min_size=1,
                                      max_size=8)))
    return J, dirs


@EXAMPLES
@given(planar_inverse_cases())
def test_planar_inverse_is_the_adjugate_formula_bit_for_bit(data):
    """At D = 2 _velocity_rays keeps J^-1 w = (W_1, -W_0) / det J, with
    W = w_0 J_1 - w_1 J_0, in dual[2]: since Dekker's products are exact it
    has the bits and the (2, S, directions) memory order of adj(J) w / det J
    at every regular J, +0 where a component is 0 included."""
    J, dirs = data
    rays = _velocity_rays(J, dirs)
    inverse, ref = rays.dual[2][1], adjugate_inverse(J, dirs)
    assert inverse.shape == ref.shape
    assert ([k for k, n in zip(inverse.strides, inverse.shape) if n > 1]
            == [k for k, n in zip(ref.strides, ref.shape) if n > 1])  # a length-1 axis has any
    regular = rays.rank == 2
    assert inverse[regular].tobytes() == ref[regular].tobytes()


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


def _pinned_velocity_case(G, J, ldot_min, ldot_max):
    """A falsifying example hypothesis once found, at h_cap 1 with the 8
    ellipse directions of radii (r0, r1) it drew."""
    def case(r0, r1):
        return (Case(np.array(G), np.array(J), ActuatorLimits(1.0, 2.0, ldot_min, ldot_max), 1.0,
                     np.random.default_rng(0)), ellipse_directions(np.array([r0, r1]), 8))
    return case


# one wire at a J of cond ~1e6: the image of the strip is a genuinely
# two-dimensional polygon whose short edges are ~5e-7 long, and the exit
# at ~1e-7 crosses one of its long edges
_THIN_STRIP = _pinned_velocity_case(
    [[0.44305610557236763, 0.011327552814361597]],
    [[5.2425854679682971e-07, -2.9180956678347730e-01],
     [2.9180982896725993e-07, 5.2425869256850599e-01]], -0.25, 0.125)
# the same shape around a symmetric strip, whose mid-line runs through the origin
_THIN_SYMMETRIC_STRIP = _pinned_velocity_case(
    [[0.37024920397008465, -0.21318279091244463]],
    [[1.0328373856172135e-07, 5.9104359432543574e-01],
     [-5.9104354288574967e-07, 1.0328344304325676e-01]], -0.125, 0.125)


@EXAMPLES
@given(velocity_cases())
@example(data=_THIN_STRIP(1.8416997043853376, 1.1606354239129542))
@example(data=_THIN_SYMMETRIC_STRIP(2.1624201573305175, 2.7503713554469971))
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
    cols = force_directions(GRAVITY.target) @ state.J
    hs = force_h_all(G, state.rhs, cols, limits, cap)
    assert hs is not None
    assert min(hs) == pytest.approx(0.0, abs=1e-7)  # some ray points out of Z
    scale = max(1.0, np.abs(state.rhs).max(), limits.f_max * np.abs(G).sum())
    for h, col in zip(hs, cols):
        slow = 1e-13 * scale / max(np.abs(col).max(), 1e-300)
        ref = capped(lp_force_h(G, state.rhs, col, limits), cap)
        assert_close(h, ref, rel=1e-9, abs_tol=max(1e-9, slow), what="simplex")
        ref = capped(linprog_force_h(G, state.rhs, col, limits), cap)
        assert_close(h, ref, rel=1e-7, abs_tol=max(1e-7, slow), what="linprog")
    np.testing.assert_allclose(np.linalg.solve(state.J.T, state.rhs), state.anchor, rtol=1e-12)
    assert check_force_against_oracle(G, state.J, state.rhs, cols, limits, cap)


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


# --- robots with D != 2: force clipped against Z, velocity by the LP dual ---------------


def _robot(d):
    return RobotModel([0.4] + [1.2 / d] * d, [0.0] + [4.0] * d,
                      moment_arm_ranges=[[-0.1, 0.1]] * d)


def _random_design(rng, d):
    # four joints take more wires before a random design is often feasible
    constant, variable = (9, 8) if d >= 4 else (5, 4)
    if rng.random() < 0.5:
        return random_constant_design(rng, m=constant, d=d)
    return random_variable_design(rng, m=variable, n=3, d=d)


@pytest.mark.parametrize("d", [1, 3, 4])
def test_other_joint_counts_match_linprog(d):
    model = _robot(d)
    limits = ActuatorLimits(10.0, 200.0, -0.4, 0.4)
    target = TargetSpec([0.0, 0.0], [30.0, 20.0], [0.6, 0.6], 8)
    wf, wv = force_directions(target), velocity_directions(target)
    rng = np.random.default_rng(d)
    scored = pruned = 0
    while scored < 10:
        assert pruned < 400
        q = rng.uniform(-np.pi / 2, np.pi / 2, d)
        tables = state_tables(model, q, target, gravity=bool(rng.random() < 0.3))
        G = muscle_jacobian(model, _random_design(rng, d), q)
        cols = wf @ tables.J
        ref_lp = [capped(lp_force_h(G, tables.rhs, c, limits), 10.0) for c in cols]
        ref = [capped(linprog_force_h(G, tables.rhs, c, limits), 10.0) for c in cols]
        hf = force_h_all(G, tables.rhs, cols, limits, 10.0)
        assert (hf is None) == any(h is None for h in ref) == any(h is None for h in ref_lp)
        if hf is None:
            pruned += 1
            continue
        np.testing.assert_allclose(hf, ref_lp, rtol=0, atol=1e-9)
        np.testing.assert_allclose(hf, ref, rtol=1e-7, atol=1e-7)
        hv = velocity_h_all(G, tables.J, wv, limits, 10.0)
        ref = [capped(linprog_velocity_h(G, tables.J, w, limits), 10.0) for w in wv]
        np.testing.assert_allclose(hv, ref, rtol=1e-7, atol=1e-7)
        scored += 1
    assert pruned >= 1
    # whole designs score through make_evaluator as well, one batch per shape
    scenario = Scenario(limits, target, [rng.uniform(-1, 1, d) for _ in range(2)])
    evaluator = make_evaluator(model, scenario)
    designs = [_random_design(rng, d) for _ in range(20)]
    scored = []
    for constant in dict.fromkeys(design.links is None for design in designs):
        batch = [x for x in designs if (x.links is None) == constant]
        objectives, feasible = evaluator(*encode_rows(batch))
        scored += objectives[feasible].tolist()
    assert scored
    for e_force, e_velocity in scored:
        assert 0.0 <= e_force <= scenario.max_objective
        assert 0.0 <= e_velocity <= scenario.max_objective


def _flat_generators(rng, m, d):
    """G of every rank below D that the normals must close, and a full one."""
    kinds = {"rank0": np.zeros((m, d)),
             "rank1": np.outer(rng.uniform(-1, 1, m), rng.uniform(-0.5, 0.5, d)),
             "zero_column": rng.uniform(-0.5, 0.5, (m, d)) * (np.arange(d) != rng.integers(d)),
             "full": rng.uniform(-0.5, 0.5, (m, d))}
    if d >= 3:
        kinds["rank2"] = rng.uniform(-0.5, 0.5, (m, 2)) @ rng.uniform(-1, 1, (2, d))
    return kinds


def _anchors(rng, G, limits):
    """Z's center, a vertex, a point on the facet spanned by the first D - 1
    generators (on the relative boundary where Z is flat), and the center
    mirrored through the vertex, outside Z unless G = 0."""
    m, d = G.shape

    def extreme(normal):  # the tensions of a point of Z that maximizes normal . x
        return np.where(G @ normal > 0, limits.f_min, limits.f_max)

    facet = extreme(np.array([(-1) ** k * np.linalg.det(np.delete(G[: d - 1], k, axis=1))
                              for k in range(d)]))
    facet[: d - 1] = rng.uniform(limits.f_min, limits.f_max, d - 1)
    center, vertex = zonotope_center(G, limits), -G.T @ extreme(rng.normal(size=d))
    return {"center": center, "vertex": vertex, "facet": -G.T @ facet,
            "beyond": 2 * vertex - center}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_force_kernel_on_flat_zonotopes(d):
    """Rank-deficient G at every D, with the anchor at Z's center, at a
    vertex, on a facet and outside; rays point anywhere, nowhere, along a
    generator and to the center."""
    limits = ActuatorLimits(10.0, 200.0, -0.4, 0.4)
    rng = np.random.default_rng(d)
    for G in (G for _ in range(2) for G in _flat_generators(rng, 5, d).values()):
        for rhs in _anchors(rng, G, limits).values():
            cols = np.concatenate((rng.uniform(-40, 40, (3, d)), np.zeros((1, d)),
                                   G[:1], (zonotope_center(G, limits) - rhs)[None]))
            hs = force_h_all(G, rhs, cols, limits, 10.0)
            for reference in (lp_force_h, linprog_force_h):
                ref = [capped(reference(G, rhs, c, limits), 10.0) for c in cols]
                what = reference.__name__
                assert (hs is None) == any(h is None for h in ref), what
                if hs is not None:
                    np.testing.assert_allclose(hs, ref, rtol=0, atol=1e-9, err_msg=what)


def _exact_rank(J):
    """rank J from its 2x2 column minors in rationals."""
    J = [[Fraction(x) for x in row] for row in J.tolist()]
    if any(J[0][a] * J[1][b] != J[0][b] * J[1][a] for a, b in combinations(range(len(J[0])), 2)):
        return 2
    return 1 if any(x for row in J for x in row) else 0


def check_velocity_against_exact(G, J, dirs, limits, cap):
    """h within 1e-12 of the exact LP on every direction, and the LPs in
    agreement at the tolerances of test_velocity_kernel_matches_exact_and_lps
    where rank J = 2 and cond(J) <= 1e6."""
    hs = velocity_h_all(G, J, dirs, limits, cap)
    assert hs is not None  # qdot = 0 is always feasible
    cond = np.linalg.cond(J) if _exact_rank(J) == 2 else np.inf
    for h, w in zip(hs, dirs):
        exact = exact_lp_velocity_h(G, J, w, limits, cap)
        assert abs(Fraction(float(h)) - exact) <= Fraction(1, 10**12) * exact, (h, float(exact))
        if cond <= 1e6:
            ref = capped(lp_velocity_h(G, J, w, limits), cap)
            assert_close(h, ref, rel=1e-7 * cond, abs_tol=1e-9, what="simplex")
            ref = capped(linprog_velocity_h(G, J, w, limits), cap)
            assert_close(h, ref, rel=1e-11 * cond, abs_tol=1e-9, what="linprog")
    return hs


def _degenerate_generators(rng, m, d, J):
    """G of rank 0, 1 and 2 and a full one, each with a duplicate, a x3-scaled
    and a zero row appended, and one wire with J's rows and 2 J_1 appended,
    rows in range(J^T) that bind."""
    kinds = {"rank0": np.zeros((m, d)),
             "rank1": np.outer(rng.uniform(-1, 1, m), rng.uniform(-0.5, 0.5, d)),
             "rank2": rng.uniform(-0.5, 0.5, (m, 2)) @ rng.uniform(-1, 1, (2, d)),
             "full": rng.uniform(-0.5, 0.5, (m, d))}
    kinds = {kind: np.concatenate((G, G[:1], 3 * G[1:2], np.zeros((1, d))))
             for kind, G in kinds.items()}
    kinds["range"] = np.concatenate((rng.uniform(-0.5, 0.5, (1, d)), J, 2 * J[1:]))
    return kinds


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_velocity_kernel_on_degenerate_inputs(d):
    """Rank-deficient, repeated, scaled and zero rows of G, and rows in
    range(J^T), at a bent arm (rank 2 for D >= 2), rows v and -2 v and a
    straight arm (q = 0), both of rank 1 exactly, and J = 0; directions off
    range(J), on it (power-of-two multiples of a column of J) and w = 0. At
    D = 2 the bent arm takes J^-1 w."""
    limits = ActuatorLimits(10.0, 200.0, -0.4, 0.25)
    rng = np.random.default_rng(d)
    model = _robot(d)
    bent = rng.choice([-1, 1], d) * rng.uniform(0.3, 1.2, d)
    v = rng.uniform(-1, 1, d)
    for J, rank in ((joint_jacobian(model, bent), min(d, 2)), (np.stack((v, -2.0 * v)), 1),
                    (joint_jacobian(model, np.zeros(d)), 1), (np.zeros((2, d)), 0)):
        assert _exact_rank(J) == rank and (rank < 2 or np.linalg.cond(J) < 1e3)
        col = J[:, np.abs(J).max(axis=0).argmax()]
        dirs = np.concatenate((ellipse_directions(rng.uniform(0.1, 1.0, 2), 4),
                               [0.125 * col, -2.0 * col, np.zeros(2)]))
        for kind, G in _degenerate_generators(rng, 2 if d == 4 else 3, d, J).items():
            hs = check_velocity_against_exact(G, J, dirs, limits, 10.0)
            if d == 2 and _exact_rank(J) < 2:  # the two-joint closed form agrees
                assert [exact_velocity_h(G, J, w, limits, 10.0) for w in dirs] == [
                    exact_lp_velocity_h(G, J, w, limits, 10.0) for w in dirs]
            assert hs[-1] == 10.0  # w = 0 is reached at any h


def test_velocity_kernel_near_a_singular_three_joint_j():
    """A three-joint arm bent by eps at its outer joints: cond(J) from ~1e3
    to ~1e9, with directions along J's range, where w_0 J_1 - w_1 J_0
    cancels. h stays within 1e-12 of exact, since J enters the dual clip
    only through error-free products; the simplex is off by up to ~2e-8
    cond(J) there."""
    model = _robot(3)
    limits = ActuatorLimits(10.0, 200.0, -0.4, 0.25)
    rng = np.random.default_rng(7)
    conds = []
    for eps in 10.0 ** -np.arange(2.0, 9.5, 0.5):
        J = joint_jacobian(model, np.array([rng.uniform(-1, 1), eps, -0.6 * eps]))
        conds.append(np.linalg.cond(J))
        u = np.linalg.svd(J)[0]
        dirs = np.concatenate((ellipse_directions(rng.uniform(0.1, 1.0, 2), 4), u.T,
                               [u[:, 0] + 1e-6 * u[:, 1]], J @ rng.uniform(-1, 1, (3, 2))))
        G = rng.uniform(-0.5, 0.5, (4, 3))
        check_velocity_against_exact(G, J, dirs, limits, 10.0)
    assert min(conds) < 1e3 and max(conds) > 1e9
