"""The reference simplex of tests/reference_lp.py, against brute-force vertex
enumeration and its own seeded bits; and that the package ships no LP solver."""

import hashlib
import itertools
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tlo
from reference_lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    solve_arrays,
    solve_lp_max,
)


def test_the_package_ships_no_lp_solver(tmp_path):
    """Importing tlo, tlo.cli and every other tlo module loads neither the
    reference LP nor a tlo.simplex, and there is no tlo.simplex to find."""
    src = Path(tlo.__file__).resolve().parent
    script = (
        "import importlib, importlib.util, pkgutil, sys\n"
        "import tlo, tlo.cli\n"
        "for module in pkgutil.iter_modules(tlo.__path__, 'tlo.'):\n"
        "    importlib.import_module(module.name)\n"
        "assert 'tlo.simplex' not in sys.modules and 'reference_lp' not in sys.modules\n"
        "assert importlib.util.find_spec('tlo.simplex') is None\n"
        "print(' '.join(sorted(name for name in sys.modules if name.startswith('tlo.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src.parent)})
    assert proc.returncode == 0, proc.stderr
    # every module file of the package was imported, so none was left unchecked
    assert {f"tlo.{p.stem}" for p in src.glob("*.py") if p.stem != "__init__"} <= set(
        proc.stdout.split())


def enumerate_vertices_max(a, b, c, lo, up):
    """Brute-force oracle: maximize over all basic feasible points.

    A vertex fixes n - m variables at finite bounds and solves the equality
    block for the rest. Returns (status, value) with status in
    {"optimal", "infeasible"}; only call on LPs with a bounded optimum.
    """
    m, n = a.shape
    best = None
    feasible = False
    for free in itertools.combinations(range(n), m):
        fixed = [j for j in range(n) if j not in free]
        sub = a[:, list(free)]
        if np.linalg.matrix_rank(sub, tol=1e-10) < m:
            continue
        for pattern in itertools.product(*[
            [v for v in (lo[j], up[j]) if np.isfinite(v)] or [0.0] for j in fixed
        ]):
            x = np.zeros(n)
            for j, v in zip(fixed, pattern):
                x[j] = v
            rhs = b - a[:, fixed] @ np.array(pattern) if fixed else b.copy()
            try:
                x[list(free)] = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(x < lo - 1e-9) or np.any(x > up + 1e-9):
                continue
            feasible = True
            val = c @ x
            if best is None or val > best:
                best = val
    if m == 0:
        # bounds-only: optimum at the bound favored by each coefficient
        x = np.where(c >= 0, up, lo)
        if np.all(np.isfinite(x)):
            return "optimal", float(c @ x)
    if not feasible:
        return "infeasible", None
    return "optimal", float(best)


class TestExamples:
    def test_bounds_only_maximum(self):
        lp = LinearProgram([1.0], np.empty((0, 1)), [], [0.0], [5.0])
        res = solve_lp_max(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(5.0, abs=1e-12)

    def test_contradictory_row_infeasible(self):
        lp = LinearProgram([1.0], [[0.0]], [1.0], [0.0], [np.inf])
        assert solve_lp_max(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram([1.0], np.empty((0, 1)), [], [0.0], [np.inf])
        assert solve_lp_max(lp).status == "unbounded"

    def test_simple_allocation(self):
        lp = LinearProgram([1, 1, 0], [[1, 1, 1]], [10], [0, 0, 0], [4, 3, np.inf])
        res = solve_lp_max(lp)
        assert res.value == pytest.approx(7.0, abs=1e-9)
        np.testing.assert_allclose(res.x, [4, 3, 3], atol=1e-9)

    def test_inverted_bounds_infeasible(self):
        lp = LinearProgram([1.0], np.empty((0, 1)), [], [2.0], [1.0])
        assert solve_lp_max(lp).status == "infeasible"

    def test_free_variable_equality(self):
        # maximize -x with x free, x = 3 forced by the row
        lp = LinearProgram([-1.0], [[1.0]], [3.0], [-np.inf], [np.inf])
        res = solve_lp_max(lp)
        assert res.value == pytest.approx(-3.0, abs=1e-9)

    def test_degenerate_lp_terminates(self):
        # multiple identical rows force degenerate pivots; Bland's rule must exit
        a = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        lp = LinearProgram([1, 2, 3], a, [1.0, 1.0], [0, 0, 0], [1, 1, 1])
        res = solve_lp_max(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0, abs=1e-9)


class TestVertexOracle:
    def test_random_three_variable_lps(self):
        rng = np.random.default_rng(12)
        checked = 0
        for trial in range(400):
            n = 3
            m = int(rng.integers(1, 3))
            a = rng.normal(size=(m, n))
            c = rng.normal(size=n)
            lo = rng.normal(size=n) - 1.5
            up = lo + np.abs(rng.normal(size=n)) + 0.1
            if trial % 4 == 0:
                b = rng.normal(size=m)  # frequently infeasible
            else:
                x0 = lo + rng.random(n) * (up - lo)
                b = a @ x0  # feasible by construction
            status, ref = enumerate_vertices_max(a, b, c, lo, up)
            code, x, val = solve_arrays(a, b, c, lo, up)
            if status == "infeasible":
                assert code == INFEASIBLE
            else:
                assert code == OPTIMAL
                assert val == pytest.approx(ref, abs=1e-8)
                checked += 1
        assert checked > 250

    def test_infinite_bounds_against_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = 3
            m = int(rng.integers(1, 3))
            a = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            c = rng.normal(size=n)
            lo = rng.normal(size=n) - 1.5
            up = lo + np.abs(rng.normal(size=n)) + 0.1
            # open one upper bound; the rest keep the LP bounded often enough
            j = int(rng.integers(0, n))
            up = up.copy()
            up[j] = np.inf
            code, x, val = solve_arrays(a, b, c, lo, up)
            if code != OPTIMAL:
                assert code in (INFEASIBLE, UNBOUNDED)
                continue
            status, ref = enumerate_vertices_max(a, b, c, lo, up)
            assert status == "optimal"
            assert val == pytest.approx(ref, abs=1e-8)


class TestScipyCross:
    def test_against_linprog(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(0, min(n, 3) + 1))
            a = rng.normal(size=(m, n))
            a[rng.random(size=a.shape) < 0.3] = 0.0
            b = rng.normal(size=m) * 2
            c = rng.normal(size=n)
            lo = np.where(rng.random(n) < 0.15, -np.inf, rng.normal(size=n) - 2)
            up = np.where(rng.random(n) < 0.15, np.inf, rng.normal(size=n) + 2)
            code, x, val = solve_arrays(a, b, c, lo, up)
            ref = linprog(
                -c,
                A_eq=a if m else None,
                b_eq=b if m else None,
                bounds=list(zip(lo, up)),
                method="highs",
            )
            if ref.status == 0:
                assert code == OPTIMAL
                assert val == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
                if m:
                    assert np.max(np.abs(a @ x - b)) < 1e-7
                assert np.all(x >= lo - 1e-9) and np.all(x <= up + 1e-9)
            elif ref.status == 2:
                assert code == INFEASIBLE
            elif ref.status == 3:
                assert code == UNBOUNDED


def test_deterministic_repeat():
    rng = np.random.default_rng(77)
    a = rng.normal(size=(3, 6))
    b = rng.normal(size=3)
    c = rng.normal(size=6)
    lo = np.zeros(6)
    up = np.full(6, 4.0)
    first = solve_arrays(a, b, c, lo, up)
    for _ in range(5):
        code, x, val = solve_arrays(a, b, c, lo, up)
        assert code == first[0]
        assert np.array_equal(x, first[1])
        assert val == first[2]


def test_linear_program_validation():
    with pytest.raises(ValueError):
        LinearProgram([1.0, np.nan], np.empty((0, 2)), [], [0, 0], [1, 1])
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[1.0]], [1.0, 2.0], [0.0], [1.0])


def _seeded_lps():
    """Two seeded LP sets: Gaussian coefficients with some bounds opened
    (free, lower-only and upper-only variables), and small integer
    coefficients, which make ties in the ratio test and degenerate pivots
    common. Both include m = 0."""
    rng = np.random.default_rng(2025)
    for trial in range(600):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, min(n, 4) + 1))
        if trial % 2:
            a = rng.integers(-2, 3, size=(m, n)).astype(float)
            b = rng.integers(-3, 4, size=m).astype(float)
            c = rng.integers(-2, 3, size=n).astype(float)
            lo = rng.integers(-2, 1, size=n).astype(float)
            up = lo + rng.integers(0, 3, size=n)
        else:
            a = rng.normal(size=(m, n))
            a[rng.random(size=a.shape) < 0.3] = 0.0
            b = rng.normal(size=m) * 2
            c = rng.normal(size=n)
            lo = rng.normal(size=n) - 2
            up = rng.normal(size=n) + 2
        kind = rng.random(n)
        lo[kind < 0.35] = -np.inf
        up[(kind < 0.15) | (kind > 0.8)] = np.inf
        yield a, b, c, lo, up


def test_seeded_solutions_keep_their_bits():
    """(code, x, value) of every seeded LP, bit for bit: a change to any
    pivot rule, tolerance or float operation order shows here."""
    digest = hashlib.sha256()
    codes = []
    free = empty = 0
    for a, b, c, lo, up in _seeded_lps():
        code, x, value = solve_arrays(a, b, c, lo, up)
        assert x.shape == (a.shape[1],) and x.dtype == float
        digest.update(struct.pack("<q", code) + x.tobytes() + struct.pack("<d", value))
        codes.append(code)
        free += bool(np.any(np.isinf(lo) & np.isinf(up)))
        empty += a.shape[0] == 0
    counts = [codes.count(k) for k in (OPTIMAL, INFEASIBLE, UNBOUNDED)]
    assert min(counts) >= 50 and free >= 100 and empty >= 50, (counts, free, empty)
    assert digest.hexdigest() == "a5bd58a4a445444f9fc9ac3ad6da085314c6e35c144598a45257ad196d579412"
