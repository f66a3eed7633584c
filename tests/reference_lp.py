"""Dense two-phase simplex for small box-bounded linear programs.

Solves: maximize c.x subject to A x = b and lower <= x <= upper, where the
bounds may be infinite, on the bounded-variable tableau (nonbasic variables
rest at a finite bound) with Bland's rule for the entering and leaving
choices (Bland, Math. Oper. Res. 2(2), 1977), so it is deterministic and
free of cycling. The LPs here have a few rows and at most a few dozen
columns, so the tableau is dense and held in Python lists of floats: at
these sizes every numpy call costs more than the arithmetic it does, and a
vectorised numpy formulation is slower per LP.

The tests use it as a reference LP next to scipy's linprog and an exact
rational evaluation. The package does not: its coverage kernels are closed
forms at every joint count, a singular J included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = 0
INFEASIBLE = 1
UNBOUNDED = 2
_STALLED = 3

_EPS_COST = 1e-9  # optimality tolerance on reduced costs
_EPS_PIVOT = 1e-11  # entries below this never pivot
_EPS_FEAS = 1e-9  # phase-1 residual tolerance (scaled by |b|)
_INF = float("inf")


def _iterate(T, xB, basis, stat, xval, lo, up, d, enter_limit):
    """Run bounded-variable simplex until optimal (0), unbounded (2) or stalled (3),
    updating the lists T, xB, basis, stat (0 at lower, 1 at upper, 2 basic,
    3 free at zero) and xval in place."""
    for _ in range(1000 * (len(lo) + 1)):
        # entering variable: Bland's rule, the lowest eligible index
        for j in range(enter_limit):
            s = stat[j]
            if s == 2 or up[j] - lo[j] <= 0.0:
                continue
            if d[j] > _EPS_COST and s != 1:
                sigma = 1.0
                break
            if d[j] < -_EPS_COST and s != 0:
                sigma = -1.0
                break
        else:
            return OPTIMAL

        # ratio test: the first blocking bound among the basics, ties to the
        # lowest basic index; a bound flip wins ties with the span
        col = [row[j] for row in T]
        t_best = up[j] - lo[j]  # may be inf
        leave = -1
        for i, tij in enumerate(col):
            w = sigma * tij
            bi = basis[i]
            if w > _EPS_PIVOT and lo[bi] != -_INF:
                t = (xB[i] - lo[bi]) / w
            elif w < -_EPS_PIVOT and up[bi] != _INF:
                t = (xB[i] - up[bi]) / w
            else:
                continue
            if t < 0.0:
                t = 0.0
            if t < t_best:
                t_best, leave = t, i
            elif t == t_best and leave >= 0 and bi < basis[leave]:
                leave = i
        if t_best == _INF:
            return UNBOUNDED

        step = sigma * t_best
        xB[:] = [x - step * tij for x, tij in zip(xB, col)]
        if leave < 0:  # bound flip: the variable crosses its span, the basis stays
            xval[j], stat[j] = (up[j], 1) if stat[j] == 0 else (lo[j], 0)
            continue

        out = basis[leave]
        xval[out], stat[out] = (lo[out], 0) if sigma * col[leave] > 0.0 else (up[out], 1)
        xB[leave] = xval[j] + step
        piv = col[leave]
        prow = T[leave] = [v / piv for v in T[leave]]
        for i, f in enumerate(col):
            if i != leave and f != 0.0:
                row = T[i] = [a - f * p for a, p in zip(T[i], prow)]
                row[j] = 0.0
        dj = d[j]
        if dj != 0.0:
            d = [a - dj * p for a, p in zip(d, prow)]
        d[j] = 0.0
        stat[j], basis[leave] = 2, j
    return _STALLED


def _solve_core(A, b, c, lo, up):
    """Two-phase solve; returns (status, x, value)."""
    m, n = A.shape
    A, b, c, lo, up = A.tolist(), b.tolist(), c.tolist(), lo.tolist(), up.tolist()
    if any(l > u for l, u in zip(lo, up)):
        return INFEASIBLE, np.zeros(n), 0.0

    # start vertex: each variable at a finite bound, else free at zero; the
    # m artificials follow at zero, bounded below by 0 only
    stat = [0 if l > -_INF else 1 if u < _INF else 3 for l, u in zip(lo, up)] + [0] * m
    xval = [l if l > -_INF else u if u < _INF else 0.0 for l, u in zip(lo, up)] + [0.0] * m
    lo, up = lo + [0.0] * m, up + [_INF] * m

    # artificial basis diag(sign(residual)); premultiplying by its inverse
    # keeps the tableau's artificial block an identity
    T, xB = [], []
    for i, (row, r) in enumerate(zip(A, b)):
        for a, v in zip(row, xval):
            r -= a * v
        s = 1.0 if r >= 0.0 else -1.0
        T.append([s * a for a in row] + [0.0] * i + [1.0] + [0.0] * (m - 1 - i))
        xB.append(s * r)
    basis = list(range(n, n + m))
    bscale = max([1.0] + [abs(v) for v in b])

    if m:
        # phase 1: maximize -(sum of artificials); the structurals' reduced
        # costs are the tableau's column sums, the basic artificials' zero
        d = [0.0] * n
        for row in T:
            d = [a + t for a, t in zip(d, row)]
        if _iterate(T, xB, basis, stat, xval, lo, up, d + [0.0] * m, n + m) == _STALLED:
            return _STALLED, np.zeros(n), 0.0
        infeas = 0.0
        for v in [v for k, v in zip(basis, xB) if k >= n]:
            infeas += v
        if infeas > _EPS_FEAS * bscale:
            return INFEASIBLE, np.zeros(n), 0.0
        # artificials stay pinned at zero from here on
        up[n:] = xval[n:] = [0.0] * m

    # phase 2: c's reduced costs on the basis phase 1 left
    d = c + [0.0] * m
    for row, k in zip(T, basis):
        if k < n and (cb := c[k]) != 0.0:
            d = [v - cb * t for v, t in zip(d, row)]
    for k in basis:
        d[k] = 0.0
    code = _iterate(T, xB, basis, stat, xval, lo, up, d, n)
    if code != OPTIMAL:
        return code, np.zeros(n), 0.0

    for k, v in zip(basis, xB):
        if k < n:
            xval[k] = v
    value = 0.0
    for cj, xj in zip(c, xval):
        value += cj * xj
    return OPTIMAL, np.array(xval[:n], dtype=float), value


def solve_arrays(A, b, c, lo, up):
    """(status code, x, value) of the LP of solve_lp_max from float arrays
    A (m, n), b (m,), c, lo, up (n,); called by solve_lp_max and the tests."""
    code, x, value = _solve_core(A, b, c, lo, up)
    if code == _STALLED:  # pragma: no cover - Bland's rule prevents cycling
        raise RuntimeError("simplex iteration limit exceeded")
    return code, x, value


@dataclass
class LinearProgram:
    """maximize objective . x subject to a_eq x = b_eq, lower <= x <= upper."""

    objective: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = len(self.objective)
        self.a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n)
        self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if len(self.b_eq) != self.a_eq.shape[0]:
            raise ValueError("b_eq length does not match a_eq rows")
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bounds must match the variable count")
        if not np.all(np.isfinite(self.objective)) or not np.all(np.isfinite(self.a_eq)):
            raise ValueError("objective and constraint coefficients must be finite")


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None = None
    x: np.ndarray | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp_max(lp: LinearProgram) -> LPResult:
    """Deterministically maximize lp; infeasible/unbounded are results, not errors."""
    code, x, value = solve_arrays(lp.a_eq, lp.b_eq, lp.objective, lp.lower, lp.upper)
    if code == OPTIMAL:
        return LPResult("optimal", value, x)
    if code == INFEASIBLE:
        return LPResult("infeasible")
    return LPResult("unbounded")
