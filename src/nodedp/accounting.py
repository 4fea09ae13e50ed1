"""Privacy budget algebra: zCDP/DP conversions, composition, group privacy,
the sensitivity-driven rescaling used by the generic reductions, and
CALIBRATION, the table of every noise constant the pipelines use.

Budgets are immutable values carrying a provenance trail (which rule produced
them) so that a pipeline's budget chain can be audited and serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable


@dataclass(frozen=True)
class PrivacyBudget:
    """A privacy guarantee: pure DP (eps), approximate DP (eps, delta), or zCDP (rho)."""

    kind: str  # "pure" | "approx" | "zcdp"
    eps: float = 0.0
    delta: float = 0.0
    rho: float = 0.0
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("pure", "approx", "zcdp"):
            raise ValueError(f"unknown budget kind {self.kind!r}")
        if self.eps < 0 or self.rho < 0 or not (0.0 <= self.delta <= 1.0):
            raise ValueError("budget parameters must be nonnegative (delta <= 1)")
        if self.kind == "pure" and self.delta != 0:
            raise ValueError("pure DP has delta = 0")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "provenance": list(self.provenance)}
        if self.kind == "zcdp":
            d["rho"] = self.rho
        else:
            d["eps"] = self.eps
            d["delta"] = self.delta
        return d


def pure_dp(eps: float, note: str = "") -> PrivacyBudget:
    return PrivacyBudget("pure", eps=eps, provenance=(note,) if note else ())


def approx_dp(eps: float, delta: float, note: str = "") -> PrivacyBudget:
    return PrivacyBudget("approx", eps=eps, delta=delta,
                         provenance=(note,) if note else ())


def zcdp(rho: float, note: str = "") -> PrivacyBudget:
    return PrivacyBudget("zcdp", rho=rho, provenance=(note,) if note else ())


def compose_zcdp(budgets: Iterable[PrivacyBudget]) -> PrivacyBudget:
    """Additive composition: rho = sum(rho_i)."""
    budgets = list(budgets)
    if not budgets:
        raise ValueError("need at least one budget")
    if any(b.kind != "zcdp" for b in budgets):
        raise ValueError("compose_zcdp requires zCDP budgets")
    return zcdp(sum(b.rho for b in budgets), note=f"compose_zcdp[{len(budgets)}]")


def group_zcdp(budget: PrivacyBudget, T: int) -> PrivacyBudget:
    """Group privacy for zCDP: groups of size T give T^2 * rho."""
    if budget.kind != "zcdp":
        raise ValueError("group_zcdp requires a zCDP budget")
    if T < 1:
        raise ValueError("T must be >= 1")
    return zcdp(T * T * budget.rho, note=f"group_zcdp[T={T}]")


def zcdp_to_dp(budget: PrivacyBudget, delta: float) -> PrivacyBudget:
    """Convert rho-zCDP to (rho + sqrt(4 rho log(1/delta)), delta)-DP."""
    if budget.kind != "zcdp":
        raise ValueError("zcdp_to_dp requires a zCDP budget")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    eps = budget.rho + math.sqrt(4.0 * budget.rho * math.log(1.0 / delta))
    return approx_dp(eps, delta, note=f"zcdp_to_dp[delta={delta:g}]")


def exp_capped(x: float) -> float:
    """e^x saturating to +inf instead of overflowing (deltas get capped at 1)."""
    return math.inf if x > 700.0 else math.exp(x)


def group_dp(budget: PrivacyBudget, T: int) -> PrivacyBudget:
    """Group privacy for (eps, delta)-DP: (T eps, T delta e^{(T-1) eps})."""
    if budget.kind not in ("pure", "approx"):
        raise ValueError("group_dp requires a DP budget")
    if T < 1:
        raise ValueError("T must be >= 1")
    eps = T * budget.eps
    if budget.delta == 0.0:
        delta = 0.0
    else:
        delta = min(1.0, T * budget.delta * exp_capped((T - 1) * budget.eps))
    kind = "pure" if delta == 0 else "approx"
    return PrivacyBudget(kind, eps=eps, delta=delta,
                         provenance=(f"group_dp[T={T}]",))


def adaptive_compose_dp(eps: float, delta: float, T: int, slack: float) -> PrivacyBudget:
    """Advanced composition of T (eps, delta)-DP mechanisms with slack delta~:

    eps~ = T eps (e^eps - 1) + eps sqrt(2 T log(1/slack)),  delta~ = T delta + slack.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if not (0.0 < slack <= 1.0):
        raise ValueError("slack must lie in (0, 1]")
    eps_t = T * eps * math.expm1(eps) + eps * math.sqrt(2.0 * T * math.log(1.0 / slack))
    delta_t = min(1.0, T * delta + slack)
    return approx_dp(eps_t, delta_t, note=f"adaptive_compose[T={T},slack={slack:g}]")


def reduction_total(base: PrivacyBudget, eps1: float, delta1: float) -> PrivacyBudget:
    """The generic reduction's node-DP guarantee, for a sensitivity release at
    (eps1, delta1 > 0) and a base run whose guarantee is `base`: (eps1 + eps2,
    e^{eps1} delta1) for a pure (eps2)-DP base and (eps1 + 2 eps2, e^{eps1}
    (delta1 + delta2 e^{2 eps2})) for an (eps2, delta2)-DP one, delta capped at 1."""
    if base.kind == "pure":
        return approx_dp(eps1 + base.eps, min(1.0, exp_capped(eps1) * delta1),
                         "generic reduction (pure base)")
    if base.kind != "approx":
        raise ValueError(f"the reduction takes a DP base, not {base.kind}")
    eps2, delta2 = base.eps, base.delta
    group_term = 0.0 if delta2 == 0.0 else delta2 * exp_capped(2.0 * eps2)  # not inf * 0
    return approx_dp(eps1 + 2.0 * eps2, min(1.0, exp_capped(eps1) * (delta1 + group_term)),
                     "generic reduction (approx base)")


def reduction_budgets(eps2: float, delta2: float, Lhat: float) -> tuple[float, float]:
    """Rescale downstream budgets by the private sensitivity bound: (eps2/L, delta2/L)."""
    if Lhat < 0.5:
        raise ValueError("Lhat must be at least 1/2")
    return eps2 / Lhat, delta2 / Lhat


# CALIBRATION: every noise constant of the pipelines, one row per release: the norm
# and adjacent inputs its sensitivity is proven on, the sensitivity, the noise
# parameter derived from it, and why. Split rows give the mechanism's eps as eps /
# sensitivity, Laplace rows draw at scale sensitivity / eps, and Gaussian rows at
# sigma with rho >= sensitivity^2 / (2 sigma^2) per draw (zCDP; Bun & Steinke, TCC
# 2016). tests/test_acceptance.py audits each row. Not here: subspace_estimation's
# and good_center's constants, which hold per row chunk by construction (its clip
# radius r and counts) and depend on the run's t and q.
_NODE_D, _NODE_2D = "node-adjacent, both max degree <= D", "node-adjacent, both max degree <= 2D"


def _split(inputs, count, why, norm="releases at eps"):
    return SimpleNamespace(norm=norm, inputs=inputs, sensitivity=count, why=why,
                           noise=lambda eps, k, D: eps / count(k, D))


def _laplace(sensitivity, why, inputs="node-adjacent", **more):
    return SimpleNamespace(norm="l1", inputs=inputs, sensitivity=sensitivity, why=why,
                           noise=lambda eps, *args: sensitivity(*args) / eps, **more)


def _gaussian(sensitivity, sigma, why):
    return SimpleNamespace(norm="l2", inputs="edge-adjacent", sensitivity=sensitivity, why=why,
                           noise=sigma, rho=lambda e, d: e * e / (4.0 * math.log(1.0 / d)))


CALIBRATION = {
    "edge_slots": _split(_NODE_2D, lambda k, D: 4.0 * D, "a rewired node loses <= 2D edges "
                         "and gains <= 2D", norm="edges changed"),
    "subspace_chunks": _split(_NODE_2D, lambda k, D: 5.0 * D, "its own row and the <= 4D rows "
                              "of its changed edges: 1 + 4D <= 5D", norm="row chunks changed"),
    "pca_split": _split(_NODE_D, lambda k, D: 2.0, "mean degree (eps), one draw (<= eps / 3)"),
    "deflation_split": _split(_NODE_D, lambda k, D: 2.0 * k, "k draws (<= eps / 3 each) and k "
                              "Rayleigh quotients (eps each)"),
    "mean_degree": _laplace(lambda: 2.0, "sum(A) / n moves by <= 2 (n - 1) / n"),
    "rayleigh": _laplace(lambda D: 2.0 * D * D, "the quotient is clamped to [-D^2, D^2]"),
    "lhat": _laplace(lambda: 8.0, "L_hat adds 2 d_T, and d_T moves by <= 4; the shift covers "
                     "the noise with probability >= 1 - delta1",
                     shift=lambda eps1, delta1: 8.0 * math.log(1.0 / delta1) / eps1),
    # pointwise: ||Av||^2 + sum_i d_i^2 moves by <= D^2 + 3 D^2 - D (not 3 D^2; criterion 2).
    "extension": SimpleNamespace(
        norm="spread of v'(A^2 - A'^2)v over unit v", inputs=_NODE_D,
        sensitivity=lambda D: 2.0 * D * D, pointwise=lambda D: 4.0 * D * D - D,
        noise=lambda eps, D: eps / (6.0 * D * D), why="A^2, A'^2 are PSD with top "
        "eigenvalue <= D^2, and the score's v-free part cancels: a draw costs <= eps / 3"),
    "two_community": _gaussian(
        lambda n, gap: 2.0 * math.sqrt(2.0) / (n * gap),
        lambda e, d, n, gap: math.sqrt(96.0 * math.log(1.0 / d) / (n * n * e * e * gap)),
        "a toggle moves 2 entries of the rescaled A by 2 / (n gap), and the projection is "
        "non-expansive; rho holds for gap = n (p - q) >= 1/6"),
    "power_method": _gaussian(
        lambda: math.sqrt(2.0),
        lambda eps, delta, k, L: math.sqrt(4.0 * k * L * math.log(1.0 / delta)) / eps,
        "(A - A')X is 2 rows of the orthonormal X; L steps cost eps^2 / (4 k log(1/delta)), "
        "so rho is k-fold conservative"),
}
