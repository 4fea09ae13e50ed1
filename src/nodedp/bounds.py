"""Closed-form lower-bound calculators on the privacy parameter eps required
for accurate community estimation.

All calculators are pure arithmetic; the packing bound is stated implicitly
in eps, so both a one-step evaluation and a bisection solver are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LowerBoundQuery:
    n: int
    k: int
    xi: float
    eta: float
    delta: float = 0.0

    def __post_init__(self):
        if self.n < 2 or self.k < 2:
            raise ValueError("need n >= 2 and k >= 2")
        if self.xi <= 0 or self.eta < 0 or not (0.0 <= self.delta <= 1.0):
            raise ValueError("invalid query parameters")


def lb_packing(q: LowerBoundQuery, eps_guess: float) -> float:
    """One-step evaluation of the packing lower bound (k = 2, implicit in eps):

        rhs(eps) = log(max{1, (1 - eta - 4 delta xi n e^{4 eps xi n})
                             * ((4 e xi)^{-xi n}/2 - 1) / eta}) / (4 xi n).
    """
    if q.k != 2:
        raise ValueError("packing bound applies to k = 2")
    if q.xi < 1.0 / q.n:
        raise ValueError("need xi >= 1/n")
    xn = q.xi * q.n
    # Guard the exponentials: a gigantic delta penalty makes the bound
    # vacuous, and a gigantic packing count is evaluated in log space.
    if q.delta > 0:
        log_pen = math.log(4.0 * q.delta * xn) + 4.0 * eps_guess * xn
        pen = math.inf if log_pen > 700.0 else math.exp(log_pen)
    else:
        pen = 0.0
    leading = 1.0 - q.eta - pen
    if leading <= 0.0:
        return 0.0
    log_m = -xn * math.log(4.0 * math.e * q.xi)
    if q.eta <= 0:
        return math.inf if log_m > math.log(2.0) else 0.0
    if log_m > 700.0:
        # m - 1 ~ (4 e xi)^{-xi n} / 2 dominates; log of the argument directly.
        val = (math.log(leading) + log_m - math.log(2.0) - math.log(q.eta)) / (4.0 * xn)
        return max(0.0, val)
    m_minus_1 = 0.5 * math.exp(log_m) - 1.0
    inner = max(1.0, leading * m_minus_1 / q.eta)
    return math.log(inner) / (4.0 * xn)


# lb_packing_solve bisects to within _PACKING_TOL and never above _PACKING_EPS_MAX.
_PACKING_TOL = 1e-6
_PACKING_EPS_MAX = 1e6


def lb_packing_solve(q: LowerBoundQuery) -> float:
    """Fixed point of eps = lb_packing(q, eps), found by bisection.

    The right-hand side is nonincreasing in eps, so f(eps) = rhs(eps) - eps
    is strictly decreasing and has a unique root (0 if the bound is vacuous).
    """
    f0 = lb_packing(q, 0.0)
    if f0 <= 0.0:
        return 0.0
    lo, hi = 0.0, min(f0, _PACKING_EPS_MAX)  # the fixed point is <= rhs(0)
    while hi - lo > _PACKING_TOL:
        mid = 0.5 * (lo + hi)
        if lb_packing(q, mid) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lb_pure(q: LowerBoundQuery) -> float:
    """Pure-DP packing corollary (k = 2):

        eps >= log(1/(4 e xi))/4 + log(1/(8 eta))/(4 xi n).
    """
    if q.k != 2:
        raise ValueError("pure-DP bound applies to k = 2")
    if q.eta > 0.5:
        raise ValueError("need eta <= 1/2")
    if q.xi < 1.0 / q.n:
        raise ValueError("need xi >= 1/n")
    return (
        math.log(1.0 / (4.0 * math.e * q.xi)) / 4.0
        + math.log(1.0 / (8.0 * q.eta)) / (4.0 * q.xi * q.n)
    )


def lb_stable(q: LowerBoundQuery) -> float:
    """Stability lower bound for symmetric mechanisms:

        eps >= (1/2) log((1 - eta - xi - 2 k delta)/(eta + xi + 2 k delta))
               + (1/2) log(k - 1).

    Returns -inf when the log argument is nonpositive (vacuous bound).
    """
    if q.n // q.k < 6 or q.n % q.k != 0:
        raise ValueError("need balanced communities of size n/k >= 6")
    if not (0.0 < q.xi < 1.0 / 3.0):
        raise ValueError("need xi in (0, 1/3)")
    bad = q.eta + q.xi + 2.0 * q.k * q.delta
    good = 1.0 - bad
    if good <= 0.0 or bad <= 0.0:
        return -math.inf
    return 0.5 * math.log(good / bad) + 0.5 * math.log(q.k - 1.0)


def stability_success_cap(k: int, eps: float, delta: float, xi: float) -> float:
    """Upper bound on P(worst-case loss <= xi) for a symmetric (eps, delta)
    node-DP mechanism:

        1/((1 - xi)(1 + (k-1) e^{-2 eps})) + 2 (k-1) delta/(1 - xi),

    clamped to [0, 1].
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if not (0.0 <= xi < 1.0 / 3.0):
        raise ValueError("need xi in [0, 1/3)")
    if eps < 0 or delta < 0:
        raise ValueError("eps and delta must be nonnegative")
    value = 1.0 / ((1.0 - xi) * (1.0 + (k - 1) * math.exp(-2.0 * eps)))
    value += 2.0 * (k - 1) * delta / (1.0 - xi)
    return min(1.0, max(0.0, value))
