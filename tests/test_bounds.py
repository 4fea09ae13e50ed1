import itertools
import math

import numpy as np
import pytest

from nodedp import (
    LabelAssignment,
    LowerBoundQuery,
    lb_packing,
    lb_packing_solve,
    lb_pure,
    lb_stable,
    loss_worst_case,
    stability_success_cap,
)
from nodedp.rng import spawn


def test_lb_packing_vacuous_when_eta_large():
    q = LowerBoundQuery(n=100, k=2, xi=0.05, eta=1.0)
    assert lb_packing(q, 0.0) == 0.0


def test_lb_packing_positive_case_matches_independent_arithmetic():
    q = LowerBoundQuery(n=100, k=2, xi=1.0 / 100, eta=0.01, delta=0.0)
    got = lb_packing(q, 0.0)
    # Second, independently coded path.
    xn = 1.0
    m_minus_1 = 0.5 * (4 * math.e * q.xi) ** (-xn) - 1.0
    expected = math.log(max(1.0, (1 - q.eta) * m_minus_1 / q.eta)) / (4 * xn)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got > 0


def test_lb_packing_monotone_in_eta():
    for eta1, eta2 in [(0.01, 0.02), (0.05, 0.2)]:
        q1 = LowerBoundQuery(n=200, k=2, xi=0.01, eta=eta1)
        q2 = LowerBoundQuery(n=200, k=2, xi=0.01, eta=eta2)
        assert lb_packing(q1, 0.1) >= lb_packing(q2, 0.1)


def test_lb_packing_solve_fixed_point():
    q = LowerBoundQuery(n=150, k=2, xi=0.02, eta=0.02, delta=1e-9)
    eps = lb_packing_solve(q)
    assert abs(lb_packing(q, eps) - eps) < 1e-5
    # Vacuous bound solves to zero.
    q0 = LowerBoundQuery(n=100, k=2, xi=0.05, eta=1.0)
    assert lb_packing_solve(q0) == 0.0


def test_lb_pure_values():
    # xi = 1/(4e): the first log term vanishes.
    n = 1000
    xi = 1.0 / (4.0 * math.e)
    q = LowerBoundQuery(n=n, k=2, xi=xi, eta=0.01)
    assert lb_pure(q) == pytest.approx(math.log(1 / (8 * 0.01)) / (4 * xi * n))
    # Boundary eta = 1/2 accepted.
    lb_pure(LowerBoundQuery(n=100, k=2, xi=0.1, eta=0.5))
    with pytest.raises(ValueError):
        lb_pure(LowerBoundQuery(n=100, k=2, xi=0.1, eta=0.6))
    # eta = 0 is a valid query, but the bound's log(1/(8 eta)) is unbounded.
    with pytest.raises(ValueError, match="eta"):
        lb_pure(LowerBoundQuery(n=100, k=2, xi=0.1, eta=0.0))


def test_lb_pure_log_growth():
    # xi = eta = 1/n: the bound grows like log n.
    vals = []
    for n in (100, 1000, 10_000):
        q = LowerBoundQuery(n=n, k=2, xi=1.0 / n, eta=1.0 / n)
        vals.append(lb_pure(q))
    ratios = [vals[1] / vals[0], vals[2] / vals[1]]
    # log-linear growth: successive differences of log n are equal, so the
    # ratio of increments stays near 1.
    incr = [vals[1] - vals[0], vals[2] - vals[1]]
    assert incr[0] > 0 and incr[1] > 0
    assert abs(incr[1] / incr[0] - 1.0) < 0.35


def test_lb_stable_values():
    q = LowerBoundQuery(n=100, k=2, xi=0.1, eta=0.1, delta=0.0)
    assert lb_stable(q) == pytest.approx(0.5 * math.log(0.8 / 0.2), abs=1e-12)
    assert lb_stable(q) == pytest.approx(math.log(2.0) / 2.0 * 2.0, abs=1e-9)
    # Vacuous when the good mass is dominated.
    q2 = LowerBoundQuery(n=100, k=2, xi=0.3, eta=0.3, delta=0.1)
    assert lb_stable(q2) == -math.inf
    # k=2 drops the log(k-1) term.
    q3 = LowerBoundQuery(n=120, k=3, xi=0.1, eta=0.1, delta=0.0)
    assert lb_stable(q3) == pytest.approx(
        0.5 * math.log(0.8 / 0.2) + 0.5 * math.log(2.0), abs=1e-12
    )


def test_stability_success_cap_values():
    assert stability_success_cap(2, 1e9, 0.0, 0.1) == pytest.approx(1.0)
    assert stability_success_cap(2, 0.0, 0.0, 0.0) == pytest.approx(0.5)
    # Nonincreasing in k at delta = 0.
    for k in range(2, 7):
        assert (
            stability_success_cap(k + 1, 0.5, 0.0, 0.05)
            <= stability_success_cap(k, 0.5, 0.0, 0.05) + 1e-15
        )


def test_stability_cap_small_instance_monte_carlo():
    # A symmetrized eps=0 mechanism (fixed balanced labeling conjugated by a
    # uniform node permutation) on n=12, k=2: empirical success probability at
    # xi=0.1 stays below the cap + 3 sigma.
    n, k, xi = 12, 2, 0.1
    theta = LabelAssignment(np.repeat([0, 1], n // 2), k)
    fixed = np.repeat([0, 1], n // 2)
    rng = spawn(281, 0)
    trials = 10_000
    success = 0
    for _ in range(trials):
        perm = rng.permutation(n)
        out = np.empty(n, dtype=np.int64)
        out[perm] = fixed
        if loss_worst_case(LabelAssignment(out, k), theta) <= xi:
            success += 1
    cap = stability_success_cap(k, 0.0, 0.0, xi)
    sigma = math.sqrt(cap * (1 - cap) / trials)
    assert success / trials <= cap + 3 * sigma


def test_duplicated_formula_oracle_random_inputs():
    rng = spawn(283, 0)
    for _ in range(500):
        n = int(rng.integers(20, 1000))
        xi = float(rng.uniform(1.0 / n, 0.32))
        eta = float(rng.uniform(1e-4, 0.5))
        delta = float(rng.uniform(0.0, 1e-3))
        xn = xi * n
        eps_guess = float(rng.uniform(0.0, min(2.0, 150.0 / xn)))
        q = LowerBoundQuery(n=n, k=2, xi=xi, eta=eta, delta=delta)
        # lb_packing duplicate
        lead = 1 - eta - 4 * delta * xn * math.exp(4 * eps_guess * xn)
        m1 = 0.5 * (4 * math.e * xi) ** (-xn) - 1.0
        if lead <= 0:
            expected = 0.0
        else:
            expected = math.log(max(1.0, lead * m1 / eta)) / (4 * xn)
        assert lb_packing(q, eps_guess) == pytest.approx(expected, abs=1e-12)
        # lb_pure duplicate
        q_pure = LowerBoundQuery(n=n, k=2, xi=xi, eta=min(eta, 0.5), delta=0.0)
        expected_pure = (
            math.log(1 / (4 * math.e * xi)) / 4
            + math.log(1 / (8 * q_pure.eta)) / (4 * xi * n)
        )
        assert lb_pure(q_pure) == pytest.approx(expected_pure, abs=1e-12)
        # lb_stable duplicate (require a valid balanced configuration)
        k = int(rng.integers(2, 5))
        n_bal = k * int(rng.integers(6, 40))
        q_st = LowerBoundQuery(n=n_bal, k=k, xi=xi if xi < 1 / 3 else 0.2,
                               eta=eta, delta=delta)
        bad = q_st.eta + q_st.xi + 2 * k * q_st.delta
        if 0 < bad < 1:
            expected_st = 0.5 * math.log((1 - bad) / bad) + 0.5 * math.log(k - 1)
            assert lb_stable(q_st) == pytest.approx(expected_st, abs=1e-12)
        # stability cap duplicate
        epsv = float(rng.uniform(0, 5))
        cap = stability_success_cap(k, epsv, delta, 0.2)
        raw = 1 / ((1 - 0.2) * (1 + (k - 1) * math.exp(-2 * epsv)))
        raw += 2 * (k - 1) * delta / (1 - 0.2)
        assert cap == pytest.approx(min(1.0, raw), abs=1e-12)
