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

    privacy_form: str  # "pure" | "approx": the form of the bounded base's guarantee
    divisor: Callable  # (k, D) -> node-level eps / mechanism eps
    weighted: bool  # samples a WeightedGraph when the SBM has a weight model
    call: Callable  # (graph, p, kw) -> EstimatorOutput; p holds k, eps, delta and D


def _n_scaled_pair(graph, params):
    """(B11, B12) in the n-scaled convention (n times the edge probabilities)."""
    if "B11" in params and "B12" in params:
        return float(params["B11"]), float(params["B12"])
    B = np.asarray(params["B"], dtype=float)
    return graph.n * float(B[0, 0]), graph.n * float(B[0, 1])


# Adapters look their pipeline up in this module's globals at call time, so a
# function patched onto nodedp.registry is the one that runs.
PIPELINES = {
    "ef_spectral": Pipeline("pure", lambda k, D: 4.0 * D, False, lambda g, p, kw: (
        ef_spectral(g, p["k"], p["eps"], **kw))),
    "pca_lipschitz": Pipeline("pure", lambda k, D: 2.0, False, lambda g, p, kw: (
        private_pca_lipschitz(g, p["D"], p["eps"], **kw))),
    "eig_deflation": Pipeline("pure", lambda k, D: 2.0 * k, False, lambda g, p, kw: (
        eigvec_deflation_cluster(g, p["k"], p["D"], p["eps"],
                                 use_lipschitz=bool(p.get("use_lipschitz", False)), **kw))),
    "two_community": Pipeline("approx", lambda k, D: 4.0 * D, False, lambda g, p, kw: (
        two_community_convex(g, *_n_scaled_pair(g, p), p["eps"], p["delta"],
                             tol=float(p.get("tol", 1e-8)),
                             max_iter=int(p.get("max_iter", 5000)), **kw))),
    "matrix_estimation": Pipeline("approx", lambda k, D: 4.0 * D, False, lambda g, p, kw: (
        matrix_estimation(g, p["k"], p["eps"], p["delta"], L=p.get("L"), **kw))),
    "subspace_estimation": Pipeline("approx", lambda k, D: 5.0 * D, True, lambda g, p, kw: (
        subspace_estimation(g, p["k"], p["eps"], p["delta"], zeta=float(p.get("zeta", 0.1)),
                            C1=float(p.get("C1", 1.0)), Cprime=float(p.get("Cprime", 3.0)),
                            r_mult=float(p.get("r_mult", 1.0)), **kw))),
}


def _call(entry, graph, p, seed, noise_off) -> EstimatorOutput:
    kw = {"gamma": float(p.get("gamma", 1.0)), "seed": seed, "noise_off": noise_off}
    return entry.call(graph, p, kw)


def run_pipeline(estimator_id, graph, params, seed, noise_off=False) -> EstimatorOutput:
    """Run one pipeline directly with explicit mechanism-level parameters."""
    entry, p = PIPELINES[estimator_id], dict(params)
    p.update(k=int(p.get("k", 2)), eps=float(p.get("eps", 1.0)),
             delta=float(p.get("delta", 1e-6)))
    if "D" in p:
        p["D"] = float(p["D"])
    return _call(entry, graph, p, seed, noise_off)


def make_bounded_base(estimator_id, k, D, params) -> BoundedDegreeEstimator:
    """Adapter: (eps, delta) interpreted as a node-DP budget on max degree
    <= 2D graphs, converted to the mechanism's own parameter."""
    entry, params = PIPELINES[estimator_id], dict(params)

    def run(graph, eps, delta, seed, noise_off=False):
        p = {**params, "k": k, "D": D, "eps": eps / entry.divisor(k, D), "delta": delta}
        return _call(entry, graph, p, seed, noise_off)

    return BoundedDegreeEstimator(estimator_id, entry.privacy_form, run)
