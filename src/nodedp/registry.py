"""Estimator registry: one table of the six pipelines, run directly or as
bounded-degree bases.

A direct run takes mechanism-level parameters. A bounded base reads (eps, delta)
as a node-DP budget on graphs of max degree <= 2D and divides eps down to the
mechanism's own parameter: a rewired node in that class touches at most 4D edge
slots, so edge-level mechanisms run at eps/(4D) (5D for the chunked subspace
method, matching its analysis), private PCA at eps/2, and the deflation
pipeline splits its budget over 2k releases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .accounting import approx_dp, pure_dp
from .estimators import (
    BoundedDegreeEstimator,
    EstimatorOutput,
    ef_spectral,
    eigvec_deflation_cluster,
    matrix_estimation,
    private_pca_lipschitz,
    subspace_estimation,
    two_community_convex,
)


@dataclass(frozen=True)
class Pipeline:
    """One pipeline's entry in `PIPELINES`."""

    guarantee: Callable  # (eps, delta) -> PrivacyBudget of one bounded-base run
    divisor: Callable  # (k, D) -> node-level eps / mechanism eps
    weighted: bool  # samples a WeightedGraph when the SBM has a weight model
    call: Callable  # (graph, p, kw) -> EstimatorOutput; p holds k, eps, delta and D
    options: tuple = ()  # keys of p passed on to the estimator as keywords, when present
    batched: bool = False  # call takes a list of graphs, with lists of eps, delta and seeds
    reads_D: bool = False  # a direct run reads p["D"]; a bounded base sets it to its own D


# Parameters every pipeline accepts; anything else must be one of its options.
_COMMON_PARAMS = frozenset({"k", "B", "D", "eps", "delta"})


def _n_scaled_pair(graph, params):
    """(B11, B12) in the n-scaled convention (n times the edge probabilities)."""
    B = np.asarray(params["B"], dtype=float)
    return graph.n * float(B[0, 0]), graph.n * float(B[0, 1])


def _pure(eps, delta):
    return pure_dp(eps)


# Adapters look their pipeline up in this module's globals at call time, so a
# function patched onto nodedp.registry is the one that runs.
PIPELINES = {
    "ef_spectral": Pipeline(_pure, lambda k, D: 4.0 * D, False, lambda g, p, kw: (
        ef_spectral(g, p["k"], p["eps"], **kw))),
    "pca_lipschitz": Pipeline(_pure, lambda k, D: 2.0, False, lambda g, p, kw: (
        private_pca_lipschitz(g, p["D"], p["eps"], **kw)), reads_D=True),
    "eig_deflation": Pipeline(_pure, lambda k, D: 2.0 * k, False, lambda g, p, kw: (
        eigvec_deflation_cluster(g, p["k"], p["D"], p["eps"], **kw)),
        options=("use_lipschitz",), reads_D=True),
    "two_community": Pipeline(approx_dp, lambda k, D: 4.0 * D, False, lambda g, p, kw: (
        two_community_convex(g, *_n_scaled_pair(g, p), p["eps"], p["delta"], **kw))),
    "matrix_estimation": Pipeline(approx_dp, lambda k, D: 4.0 * D, False, lambda g, p, kw: (
        matrix_estimation(g, p["k"], p["eps"], p["delta"], **kw)), batched=True),
    "subspace_estimation": Pipeline(approx_dp, lambda k, D: 5.0 * D, True, lambda g, p, kw: (
        subspace_estimation(g, p["k"], p["eps"], p["delta"], **kw)),
        options=("zeta", "C1", "Cprime")),
}


def check_params(estimator_id, params) -> None:
    """Raise ValueError for a parameter that the pipeline would not read."""
    unknown = set(params) - _COMMON_PARAMS - set(PIPELINES[estimator_id].options)
    if unknown:
        raise ValueError(f"unknown {estimator_id} parameter(s): {', '.join(sorted(unknown))}")


def check_direct_params(estimator_id, params) -> None:
    """check_params, then ValueError if a direct run would read a D not given."""
    check_params(estimator_id, params)
    if PIPELINES[estimator_id].reads_D and "D" not in params:
        raise ValueError(f"{estimator_id} run directly needs parameter D")


def _call(entry, graph, p, seed, noise_off) -> EstimatorOutput:
    kw = {key: p[key] for key in entry.options if key in p}
    return entry.call(graph, p, dict(kw, seed=seed, noise_off=noise_off))


def run_pipeline(estimator_id, graph, params, seed, noise_off=False) -> EstimatorOutput:
    """Run one pipeline directly with explicit mechanism-level parameters."""
    entry, p = PIPELINES[estimator_id], dict(params)
    check_direct_params(estimator_id, p)
    p.update(k=int(p.get("k", 2)), eps=float(p.get("eps", 1.0)),
             delta=float(p.get("delta", 1e-6)))
    if "D" in p:
        p["D"] = float(p["D"])
    return _call(entry, graph, p, seed, noise_off)


def make_bounded_base(estimator_id, k, D, params) -> BoundedDegreeEstimator:
    """Adapter: (eps, delta) interpreted as a node-DP budget on max degree
    <= 2D graphs, converted to the mechanism's own parameter. A batched
    pipeline gets the whole batch in one call, the others one call per graph."""
    entry, params = PIPELINES[estimator_id], dict(params)
    check_params(estimator_id, params)

    def run_batch(graphs, eps, delta, seeds, noise_off=False):
        p = {**params, "k": k, "D": D, "eps": [e / entry.divisor(k, D) for e in eps],
             "delta": list(delta)}
        if entry.batched:
            return _call(entry, list(graphs), p, list(seeds), noise_off)
        return [_call(entry, g, dict(p, eps=e, delta=d), s, noise_off)
                for g, e, d, s in zip(graphs, p["eps"], p["delta"], seeds)]

    return BoundedDegreeEstimator(estimator_id, run_batch, entry.guarantee)
