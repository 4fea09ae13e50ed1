"""Graph-based boosting: thin the graph into T overlapping subgraphs, run a
base estimator on each, pick a witness estimate close to a majority of the
others, align everything to it, and take per-node majority votes.

Includes the thinned-Bernoulli correlation helper used to validate the
dependence analysis behind the boosting guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import accounting as acc
from .estimators import BoundedDegreeEstimator, EstimatorOutput
from .graphs import Graph, LabelAssignment, thin_graph
from .metrics import align, loss_overall, relabel
from .rng import spawn


@dataclass(frozen=True)
class BoostConfig:
    T: int
    xi: float
    k: int

    def __post_init__(self):
        if self.T < 1 or self.T % 2 == 0:
            raise ValueError("T must be an odd positive integer")
        if not (0.0 < self.xi < 1.0 / (8.0 * self.k)):
            raise ValueError("xi must lie in (0, 1/(8k))")


def graph_boost(
    g: Graph,
    cfg: BoostConfig,
    base: BoundedDegreeEstimator,
    eps: float,
    delta: float,
    seed: int,
    noise_off: bool = False,
) -> EstimatorOutput:
    """Boost a constant-success-probability estimator to high probability.

    Runs base on T edge-thinned subgraphs in one run_batch call, sub-run j
    drawing from spawn(seed, 1, j) (the thinning and the witness draw come
    from spawn(seed, 0)). An estimate within overall loss 2*xi of at least
    (T+1)/2 estimates, counted on one T x T agreement matrix, is a witness;
    one is drawn uniformly (typed bot-failure if none exists), every estimate
    is aligned to it, and each node takes its majority label, a row tie going
    to the witness's label. The budget is T times one base run's guarantee
    (base.guarantee(eps, delta)): T eps and T delta (capped at 1) for a DP
    run, T rho for a zCDP one, spent whether or not a vote is taken.
    """
    rng = spawn(seed, 0)
    subgraphs = thin_graph(g, cfg.T, rng)
    outputs = base.run_batch(subgraphs, [eps] * cfg.T, [delta] * cfg.T,
                             [spawn(seed, 1, j) for j in range(cfg.T)], noise_off=noise_off)
    run = base.guarantee(eps, delta)
    if run.kind == "zcdp":
        budget = [acc.zcdp(cfg.T * run.rho, f"boosting: {cfg.T} x {run.rho:g}-zCDP base runs")]
    else:
        note = f"boosting: {cfg.T} x ({run.eps:g}, {run.delta:g}) base runs"
        budget = [acc.PrivacyBudget(run.kind, eps=cfg.T * run.eps,
                                    delta=min(1.0, cfg.T * run.delta), provenance=(note,))]

    def failed(reason):
        return EstimatorOutput(labels=None, budget=budget,
                               diagnostics={"failure": reason, "noise_off": noise_off})

    if any(o.labels is None for o in outputs):
        return failed("base-estimator-failure")
    estimates = [o.labels for o in outputs]
    # close[a, b]: estimates a and b agree up to 2*xi; a row counts its own estimate.
    close = np.array([[loss_overall(a, b) <= 2.0 * cfg.xi for b in estimates]
                      for a in estimates])
    valid = np.flatnonzero(close.sum(axis=1) >= (cfg.T + 1) // 2)
    if valid.size == 0:
        return failed("no-majority-witness")
    j_star = int(valid[rng.integers(len(valid))])
    aligned = np.stack([relabel(e, align(e, estimates[j_star])).labels for e in estimates])
    return EstimatorOutput(
        labels=LabelAssignment(_majority_vote(aligned, aligned[j_star], cfg.k), cfg.k),
        budget=budget,
        diagnostics={"j_star": j_star, "valid_witnesses": int(valid.size),
                     "noise_off": noise_off},
    )


def _majority_vote(votes, witness, k):
    """Each node's most common label among the rows of votes (T, n); a row
    tie (possible for k >= 3) goes to the witness's label if it is among the
    winners, else to the lowest winner."""
    n = votes.shape[1]
    counts = np.bincount((np.arange(n) * k + votes).ravel(), minlength=n * k).reshape(n, k)
    winners = counts == counts.max(axis=1, keepdims=True)
    return np.where(winners[np.arange(n), witness], witness, winners.argmax(axis=1))


def hgr_thinned_bernoulli(p: float, q: float) -> float:
    """Maximal (= Pearson) correlation of (Z R1, Z R2) for independent
    Z ~ Ber(q), R1, R2 ~ Ber(p): p (1 - q) / (1 - p q)."""
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("p and q must be probabilities")
    if p * q >= 1.0:
        raise ValueError("need p q < 1")
    return p * (1.0 - q) / (1.0 - p * q)
