"""Dense two-phase simplex for small box-bounded linear programs.

Solves: maximize c.x subject to A x = b and lower <= x <= upper, where the
bounds may be infinite. The solver works on the bounded-variable tableau
(nonbasic variables rest at a finite bound), uses Bland's rule for both the
entering and leaving choices, and is therefore deterministic and free of
cycling. Problems here have at most a few dozen variables, so a dense
tableau beats any sparse machinery. The pivot loops are scalar Python: at
these tableau sizes (a few rows by a few columns) a vectorised numpy
formulation is slower per LP.

The coverage kernels call it only for robots with D != 2 joints: for D = 2
both LPs have closed forms, a singular J included, and never reach it. The
tests also use it as a reference LP next to scipy's linprog.
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


def _iterate(T, xB, basis, stat, xval, lo, up, d, enter_limit, max_iter):
    """Run bounded-variable simplex until optimal (0), unbounded (2) or stalled (3)."""
    m = T.shape[0]
    for _ in range(max_iter):
        # entering variable: Bland's rule, smallest eligible index
        j = -1
        sigma = 0.0
        for jj in range(enter_limit):
            s = stat[jj]
            if s == 2:
                continue
            if up[jj] - lo[jj] <= 0.0:
                continue
            dj = d[jj]
            if s == 0:
                if dj > _EPS_COST:
                    j = jj
                    sigma = 1.0
                    break
            elif s == 1:
                if dj < -_EPS_COST:
                    j = jj
                    sigma = -1.0
                    break
            else:  # free at zero
                if dj > _EPS_COST:
                    j = jj
                    sigma = 1.0
                    break
                if dj < -_EPS_COST:
                    j = jj
                    sigma = -1.0
                    break
        if j < 0:
            return OPTIMAL

        # ratio test: first blocking bound among basics, else a bound flip
        t_best = up[j] - lo[j]  # may be inf
        leave = -1
        for i in range(m):
            w = sigma * T[i, j]
            bi = basis[i]
            if w > _EPS_PIVOT:
                if lo[bi] == -np.inf:
                    continue
                t = (xB[i] - lo[bi]) / w
            elif w < -_EPS_PIVOT:
                if up[bi] == np.inf:
                    continue
                t = (xB[i] - up[bi]) / w
            else:
                continue
            if t < 0.0:
                t = 0.0
            if t < t_best:
                t_best = t
                leave = i
            elif t == t_best and leave >= 0 and bi < basis[leave]:
                leave = i

        if t_best == np.inf:
            return UNBOUNDED

        if leave < 0:
            # bound flip: variable crosses its span, basis unchanged
            if stat[j] == 0:
                xval[j] = up[j]
                stat[j] = 1
            else:
                xval[j] = lo[j]
                stat[j] = 0
            for i in range(m):
                xB[i] -= sigma * t_best * T[i, j]
            continue

        vj = xval[j] + sigma * t_best
        w_leave = sigma * T[leave, j]
        out = basis[leave]
        for i in range(m):
            xB[i] -= sigma * t_best * T[i, j]
        if w_leave > 0.0:
            stat[out] = 0
            xval[out] = lo[out]
        else:
            stat[out] = 1
            xval[out] = up[out]
        xB[leave] = vj

        piv = T[leave, j]
        T[leave] /= piv
        for i in range(m):
            if i != leave:
                f = T[i, j]
                if f != 0.0:
                    T[i] -= f * T[leave]
                    T[i, j] = 0.0
        dj = d[j]
        if dj != 0.0:
            d -= dj * T[leave]
        d[j] = 0.0
        stat[j] = 2
        basis[leave] = j
    return _STALLED


def _solve_core(A, b, c, lo, up):
    """Two-phase solve; returns (status, x, value)."""
    m, n = A.shape
    x = np.zeros(n)
    for j in range(n):
        if lo[j] > up[j]:
            return INFEASIBLE, x, 0.0

    total = n + m
    xval = np.zeros(total)
    stat = np.zeros(total, dtype=np.int64)
    for j in range(n):
        if lo[j] > -np.inf:
            xval[j] = lo[j]
            stat[j] = 0
        elif up[j] < np.inf:
            xval[j] = up[j]
            stat[j] = 1
        else:
            xval[j] = 0.0
            stat[j] = 3

    lo_all = np.empty(total)
    up_all = np.empty(total)
    for j in range(n):
        lo_all[j] = lo[j]
        up_all[j] = up[j]
    for i in range(m):
        lo_all[n + i] = 0.0
        up_all[n + i] = np.inf

    # artificial basis diag(sign(residual)); premultiplying by its inverse
    # keeps the tableau's artificial block an identity
    T = np.zeros((m, total))
    xB = np.zeros(m)
    basis = np.empty(m, dtype=np.int64)
    bscale = 1.0
    for i in range(m):
        r = b[i]
        for j in range(n):
            r -= A[i, j] * xval[j]
        s = 1.0 if r >= 0.0 else -1.0
        for j in range(n):
            T[i, j] = s * A[i, j]
        T[i, n + i] = 1.0
        xB[i] = s * r
        basis[i] = n + i
        if abs(b[i]) > bscale:
            bscale = abs(b[i])

    max_iter = 1000 * (total + 1)

    if m > 0:
        # phase 1: maximize -(sum of artificials); artificial basis costs -1
        d = np.zeros(total)
        for j in range(total):
            acc = 0.0
            for i in range(m):
                acc += T[i, j]
            d[j] = acc
        for j in range(n, total):
            d[j] -= 1.0
        for i in range(m):
            d[basis[i]] = 0.0
        code = _iterate(T, xB, basis, stat, xval, lo_all, up_all, d, total, max_iter)
        if code == _STALLED:
            return _STALLED, x, 0.0
        infeas = 0.0
        for i in range(m):
            if basis[i] >= n:
                infeas += xB[i]
        if infeas > _EPS_FEAS * bscale:
            return INFEASIBLE, x, 0.0
        # artificials stay pinned at zero from here on
        for j in range(n, total):
            up_all[j] = 0.0
            xval[j] = 0.0

    d = np.zeros(total)
    for j in range(n):
        d[j] = c[j]
    for i in range(m):
        cb = 0.0
        if basis[i] < n:
            cb = c[basis[i]]
        if cb != 0.0:
            for j in range(total):
                d[j] -= cb * T[i, j]
    for i in range(m):
        d[basis[i]] = 0.0

    code = _iterate(T, xB, basis, stat, xval, lo_all, up_all, d, n, max_iter)
    if code == _STALLED:
        return _STALLED, x, 0.0
    if code == UNBOUNDED:
        return UNBOUNDED, x, 0.0

    for j in range(n):
        x[j] = xval[j]
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = xB[i]
    value = 0.0
    for j in range(n):
        value += c[j] * x[j]
    return OPTIMAL, x, value


def solve_arrays(A, b, c, lo, up):
    """Low-level entry used by the evaluation hot path; see solve_lp_max."""
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
