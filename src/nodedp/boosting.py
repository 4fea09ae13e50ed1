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
    from spawn(seed, 0)). Then selects a witness index whose estimate is
    within overall loss 2*xi of at least (T+1)/2 estimates (uniform
    tie-break; typed bot-failure if none exists), aligns all estimates to the
    witness, and majority-votes per node, breaking row ties toward the
    witness's label. The total budget is T times the base budget.
    """
    rng = spawn(seed, 0)
    subgraphs = thin_graph(g, cfg.T, rng)
    outputs = base.run_batch(subgraphs, [eps] * cfg.T, [delta] * cfg.T,
                             [spawn(seed, 1, j) for j in range(cfg.T)], noise_off=noise_off)
    if any(o.labels is None for o in outputs):
        return EstimatorOutput(
            labels=None,
            budget=_boosted_budget(base, eps, delta, cfg.T),
            diagnostics={"failure": "base-estimator-failure", "noise_off": noise_off},
        )
    estimates = [o.labels for o in outputs]

    # Witness selection: counts include j itself (distance 0).
    valid = []
    pair_loss = {}
    for j_star in range(cfg.T):
        count = 0
        for j in range(cfg.T):
            key = (min(j, j_star), max(j, j_star))
            if key not in pair_loss:
                pair_loss[key] = loss_overall(estimates[key[0]], estimates[key[1]])
            if pair_loss[key] <= 2.0 * cfg.xi:
                count += 1
        if count >= (cfg.T + 1) // 2:
            valid.append(j_star)
    if not valid:
        return EstimatorOutput(
            labels=None,
            budget=_boosted_budget(base, eps, delta, cfg.T),
            diagnostics={"failure": "no-majority-witness", "noise_off": noise_off},
        )
    j_star = valid[int(rng.integers(len(valid)))]

    aligned = []
    for j in range(cfg.T):
        sigma = align(estimates[j], estimates[j_star])
        aligned.append(relabel(estimates[j], sigma).labels)
    out_labels = _majority_vote(np.stack(aligned), aligned[j_star], cfg.k)
    return EstimatorOutput(
        labels=LabelAssignment(out_labels, cfg.k),
        budget=_boosted_budget(base, eps, delta, cfg.T),
        diagnostics={
            "j_star": j_star,
            "valid_witnesses": len(valid),
            "noise_off": noise_off,
        },
    )


def _majority_vote(votes, witness, k):
    """Each node's most common label among the rows of votes (T, n); a row
    tie (possible for k >= 3) goes to the witness's label if it is among the
    winners, else to the lowest winner."""
    n = votes.shape[1]
    counts = np.bincount((np.arange(n) * k + votes).ravel(), minlength=n * k).reshape(n, k)
    winners = counts == counts.max(axis=1, keepdims=True)
    return np.where(winners[np.arange(n), witness], witness, winners.argmax(axis=1))


def _boosted_budget(base, eps, delta, T):
    if base.privacy_form == "pure":
        return [acc.pure_dp(T * eps, f"boosting: {T} x ({eps:g}, 0) base runs")]
    return [
        acc.approx_dp(
            T * eps, min(1.0, T * delta), f"boosting: {T} x ({eps:g}, {delta:g}) base runs"
        )
    ]


def hgr_thinned_bernoulli(p: float, q: float) -> float:
    """Maximal (= Pearson) correlation of (Z R1, Z R2) for independent
    Z ~ Ber(q), R1, R2 ~ Ber(p): p (1 - q) / (1 - p q)."""
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("p and q must be probabilities")
    if p * q >= 1.0:
        raise ValueError("need p q < 1")
    return p * (1.0 - q) / (1.0 - p * q)
