import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import OptimizeResult

import nodedp.lp
from nodedp.lp import FEAS_TOL, solve_lp
from nodedp.rng import spawn

from oracles import dense_simplex_max, vertex_enum_max


def test_simple_box_max():
    sol = solve_lp([1.0], None, None, [(0.0, 1.0)], maximize=True)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible():
    # x <= 0 and x >= 1, the second row negated.
    A = sparse.csr_matrix(np.array([[1.0], [-1.0]]))
    assert solve_lp([1.0], A, np.array([0.0, -1.0]), [(None, None)]).status == "infeasible"


def test_unbounded():
    assert solve_lp([1.0], None, None, [(0.0, None)], maximize=True).status == "unbounded"


def test_equality_rows_and_residual():
    # x0 + x1 = 4 as x0 + x1 <= 4 and -x0 - x1 <= -4.
    A = sparse.csr_matrix(np.array([[1.0, 1.0], [-1.0, -1.0]]))
    sol = solve_lp([1.0, 2.0], A, np.array([4.0, -4.0]), [(0.0, 5.0), (0.0, 5.0)],
                   maximize=True)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(8.0, abs=1e-8)
    assert sol.residual <= FEAS_TOL


def test_random_block_instances_match_vertex_oracle():
    # 20-variable problems assembled from four independent 5-variable blocks;
    # the oracle enumerates basic feasible points per block.
    rng = spawn(83, 0)
    for trial in range(8):
        total = 0.0
        all_c, blocks, all_rhs, bounds = [], [], [], []
        for b in range(4):
            c = rng.uniform(-1, 1, 5)
            A = rng.uniform(-1, 1, (3, 5))
            rhs = rng.uniform(0.5, 2.0, 3)
            bnds = [(0.0, float(u)) for u in rng.uniform(0.5, 3.0, 5)]
            best = vertex_enum_max(c, A, rhs, bnds)
            assert best is not None
            total += best
            all_c.append(c)
            blocks.append(A)
            all_rhs.append(rhs)
            bounds.extend(bnds)
        A_ub = sparse.csr_matrix(sparse.block_diag(blocks))
        sol = solve_lp(np.concatenate(all_c), A_ub, np.concatenate(all_rhs), bounds,
                       maximize=True)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(total, abs=1e-7)


def test_random_instances_match_dense_simplex():
    rng = spawn(89, 0)
    for trial in range(10):
        n, m = 6, 4
        c = rng.uniform(0.0, 1.0, n)
        A = rng.uniform(0.0, 1.0, (m, n))
        b = rng.uniform(1.0, 3.0, m)
        sol = solve_lp(c, sparse.csr_matrix(A), b, [(0.0, None)] * n, maximize=True)
        assert sol.status == "optimal"
        oracle = dense_simplex_max(c, A, b)
        assert sol.objective == pytest.approx(oracle, abs=1e-7)


def test_other_highs_status_is_failed_with_its_message(monkeypatch):
    # Status 4 is HiGHS's "numerical difficulties"; anything but 0, 2 and 3
    # maps to "failed" and keeps the solver's message.
    monkeypatch.setattr(nodedp.lp, "linprog", lambda *a, **kw: OptimizeResult(
        status=4, x=None, message="numerical trouble"))
    sol = solve_lp([1.0], None, None, [(0.0, 1.0)])
    assert (sol.status, sol.x, sol.objective) == ("failed", None, None)
    assert sol.message == "numerical trouble"


def test_solution_outside_the_rows_is_failed_with_its_residual(monkeypatch):
    # A solver answer that breaks x <= 1 by 1e-6 (past FEAS_TOL) is no optimum.
    monkeypatch.setattr(nodedp.lp, "linprog", lambda *a, **kw: OptimizeResult(
        status=0, x=np.array([1.0 + 1e-6]), message="ok"))
    sol = solve_lp([1.0], sparse.csr_matrix(np.array([[1.0]])), np.array([1.0]),
                   [(0.0, None)], maximize=True)
    assert (sol.status, sol.x, sol.objective) == ("failed", None, None)
    assert sol.residual == pytest.approx(1e-6)
    assert "1e-06" in sol.message
