import inspect
import math

import numpy as np
import pytest

import nodedp.estimators
import nodedp.lp
import nodedp.truncation
from nodedp import (
    Graph,
    SbmParams,
    WeightModel,
    align,
    ef_spectral,
    eigvec_deflation,
    eigvec_deflation_cluster,
    good_center,
    loss_overall,
    matrix_estimation,
    max_degree,
    private_pca_lipschitz,
    reduce_to_node_private,
    relabel,
    sample_sbm,
    sample_weighted_sbm,
    subspace_estimation,
    two_community_convex,
)
from nodedp.accounting import CALIBRATION, approx_dp, pure_dp
from nodedp.clustering import approx_kmeans, sym_eigs
from nodedp.estimators import AssumptionViolation, BoundedDegreeEstimator, _dykstra_psd_diag
from nodedp.registry import PIPELINES, make_bounded_base, run_pipeline
from nodedp.rng import spawn

from oracles import batch_of

PARAMS_400 = SbmParams(n=400, k=2, B=np.array([[0.3, 0.05], [0.05, 0.3]]))


def star(n):
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[0, 1:] = 1
    adj[1:, 0] = 1
    return Graph(n, adj)


# ---------------------------------------------------------------------------
# Edge-flip pipeline


def test_ef_spectral_infinite_eps_matches_plain_spectral():
    g = sample_sbm(PARAMS_400, spawn(201, 0))
    out = ef_spectral(g, 2, math.inf, seed=spawn(201, 1))
    _, vecs = sym_eigs(g.as_float(), 2)
    base, _, _ = approx_kmeans(vecs, 2, seed=spawn(201, 2))
    assert loss_overall(out.labels, base) == 0.0
    assert out.budget[0].kind == "pure"


def test_ef_spectral_runs_past_float_overflow_of_exp_eps():
    g = sample_sbm(PARAMS_400, spawn(201, 0))
    out = ef_spectral(g, 2, 1e4, seed=spawn(201, 3))
    assert out.labels is not None
    assert loss_overall(out.labels, ef_spectral(g, 2, math.inf, seed=0).labels) == 0.0


def test_ef_spectral_eps_zero_is_random_guessing():
    # Flip probability 1/2 destroys the signal: mean loss near the k=2
    # random-guess value 1.0 (within +-0.1 over 50 seeds).
    params = SbmParams(n=200, k=2, B=np.array([[0.3, 0.05], [0.05, 0.3]]))
    losses = []
    for seed in range(50):
        g = sample_sbm(params, spawn(203, seed, 0))
        out = ef_spectral(g, 2, 0.0, seed=spawn(203, seed, 1))
        losses.append(loss_overall(out.labels, params.theta))
    assert abs(np.mean(losses) - 1.0) <= 0.1


# ---------------------------------------------------------------------------
# Private PCA via extension score


def test_pca_lipschitz_noise_free_recovers():
    for seed in range(5):
        g = sample_sbm(PARAMS_400, spawn(207, seed))
        out = private_pca_lipschitz(g, D=360, eps=1.0, seed=spawn(207, seed, 1),
                                    noise_off=True)
        assert loss_overall(out.labels, PARAMS_400.theta) <= 0.05
        assert out.diagnostics["noise_off"] is True
        assert out.budget[0].eps == pytest.approx(2.0)


def test_pca_lipschitz_empty_graph_degenerate():
    g = Graph(12, np.zeros((12, 12), dtype=np.uint8))
    out = private_pca_lipschitz(g, D=2, eps=5.0, seed=0)
    assert out.labels.n == 12
    assert 0.0 <= out.diagnostics["sigma_hat"] <= 12.0


def test_pca_lipschitz_pilot_threshold():
    # n=300, d ~ 60, D = 3d, eps = D^2 log n: loss <= 0.2 in >= 80% of 30 seeds
    # (threshold pinned by pilot).
    params = SbmParams(n=300, k=2, B=np.array([[0.2, 0.02], [0.02, 0.2]]))
    D = 3 * params.d
    eps = D * D * math.log(300)
    good = 0
    for seed in range(30):
        g = sample_sbm(params, spawn(209, seed, 0))
        out = private_pca_lipschitz(g, D=D, eps=eps, seed=spawn(209, seed, 1))
        if loss_overall(out.labels, params.theta) <= 0.2:
            good += 1
    assert good >= 24


def test_pca_lipschitz_slow_path_uses_extension():
    # Hub degree exceeds D: the sampling path goes through the extension LP.
    g = star(6)
    out = private_pca_lipschitz(g, D=2, eps=3.0, seed=3)
    assert out.diagnostics["fast_path"] is False
    assert out.labels.n == 6


@pytest.mark.parametrize("m, quadratic", [(5, True), (6, False)])
def test_top_vector_path_follows_extension_is_quadratic(m, quadratic, monkeypatch):
    # star(m) at D = 2 has max degree m - 1 > D and largest A^2 row sum m - 1.
    # At m = 5 that is D^2: the extension score is quadratic and both
    # pipelines draw from the sphere sampler with no LP. At m = 6 every draw
    # goes through the LP-extension sampler.
    import nodedp.truncation

    calls = {"sample_sphere_exp": 0, "sample_lipschitz_exp": 0, "solve_lp": 0}
    for mod, name in [(nodedp.estimators, "sample_sphere_exp"),
                      (nodedp.estimators, "sample_lipschitz_exp"),
                      (nodedp.truncation, "solve_lp")]:
        def spy(*args, _real=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, spy)
    out = private_pca_lipschitz(star(m), D=2, eps=3.0, seed=spawn(233, m, 0))
    eigvec_deflation(star(m), 2, 2, 3.0, use_lipschitz=True, seed=spawn(233, m, 1))
    assert out.diagnostics["fast_path"] is quadratic
    if quadratic:
        assert calls == {"sample_sphere_exp": 3, "sample_lipschitz_exp": 0, "solve_lp": 0}
    else:
        assert calls["sample_sphere_exp"] == 0 and calls["sample_lipschitz_exp"] == 3
        assert calls["solve_lp"] >= 3


def test_zero_eps_rejected_unless_noise_off():
    g = sample_sbm(SbmParams(n=40, k=2, B=np.array([[0.6, 0.2], [0.2, 0.6]])), 0)
    with pytest.raises(ValueError, match="eps must be positive"):
        private_pca_lipschitz(g, D=40, eps=0.0, seed=0)
    with pytest.raises(ValueError, match="eps must be positive"):
        eigvec_deflation(g, 2, D=40, eps=0.0, use_lipschitz=False, seed=0)
    with pytest.raises(ValueError, match="eps must be positive"):
        eigvec_deflation_cluster(g, 2, D=40, eps=0.0, use_lipschitz=True, seed=0)
    assert private_pca_lipschitz(g, D=40, eps=0.0, seed=0, noise_off=True).labels.n == 40
    out = eigvec_deflation_cluster(g, 2, D=40, eps=0.0, seed=0, noise_off=True)
    assert out.labels.n == 40 and out.diagnostics["accepted_after"] == [0, 0]


def test_perfbench_trace_patches_resolve(monkeypatch):
    # perfbench/spans.py patches estimators' module names (the samplers,
    # sym_eigs, approx_kmeans, ...); a name removed from the program would
    # break every traced benchmark run.
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    patches = tracer.patches()
    plan = [(m, a) for m, a, _ in patches]
    assert (nodedp.estimators, "sample_sphere_exp") in plan
    assert (nodedp.truncation, "solve_lp") in plan
    assert (nodedp.lp, "linprog") in plan
    # lp.rows and lp.nnz are read from linprog's keyword A_ub. K_{3,3} at
    # D = 2 reaches HiGHS (its high-node M is singular, so round one is not
    # certified), solved in one round over the 6 node variables, with one row
    # per node (its own x and its 3 neighbours': 4 nonzeros).
    k33 = np.zeros((6, 6), dtype=np.uint8)
    k33[:3, 3:] = k33[3:, :3] = 1
    with spans.installed(patches):
        nodedp.truncation.degree_truncate(Graph(6, k33), 2)
    assert (tracer.counts["lp.vars"], tracer.counts["lp.rows"],
            tracer.counts["lp.nnz"]) == (6, 6, 24)


# ---------------------------------------------------------------------------
# Eigenvector deflation


def test_deflation_k1_single_draw():
    g = sample_sbm(SbmParams(n=40, k=2, B=np.array([[0.6, 0.2], [0.2, 0.6]])), 0)
    diag = {}
    vecs = eigvec_deflation(g, 1, D=40, eps=50.0, use_lipschitz=False, seed=1,
                            diagnostics=diag)
    assert len(vecs) == 1
    assert np.linalg.norm(vecs[0]) == pytest.approx(1.0, abs=1e-12)
    assert len(diag["sigmas"]) == 1


def test_deflation_noise_free_matches_eigenvalues():
    # Block-diagonal matrix: the noise-free Rayleigh quotients equal the top
    # eigenvalues of A^2 (D chosen so the clamp is inactive).
    adj = np.zeros((10, 10), dtype=np.uint8)
    adj[:5, :5] = 1
    adj[5:, 5:] = 1
    np.fill_diagonal(adj, 0)
    g = Graph(10, adj)
    A2 = g.as_float() @ g.as_float()
    true_vals = np.sort(np.linalg.eigvalsh(A2))[::-1]
    diag = {}
    eigvec_deflation(g, 2, D=10, eps=1.0, use_lipschitz=False, seed=0,
                     noise_off=True, diagnostics=diag)
    assert diag["sigmas"][0] == pytest.approx(true_vals[0], abs=1e-6)
    assert diag["sigmas"][1] == pytest.approx(true_vals[1], abs=1e-6)


def test_deflation_residual_rank_k():
    # Exact deflation of a rank-k PSD matrix leaves spectral norm ~ 0.
    rng = spawn(211, 0)
    adj = np.zeros((12, 12), dtype=np.uint8)
    adj[:6, :6] = 1
    adj[6:, 6:] = 1
    np.fill_diagonal(adj, 0)
    g = Graph(12, adj)
    A2 = g.as_float() @ g.as_float()  # rank 4, but top-2 dominates
    k = int(np.linalg.matrix_rank(A2))
    diag = {}
    vecs = eigvec_deflation(g, k, D=12, eps=1.0, use_lipschitz=False, seed=0,
                            noise_off=True, diagnostics=diag)
    residual = A2 - sum(
        s * np.outer(v, v) for s, v in zip(diag["sigmas"], vecs)
    )
    assert np.linalg.norm(residual, 2) <= 1e-6 * np.linalg.norm(A2, 2)


def test_deflation_cluster_noise_free():
    g = sample_sbm(PARAMS_400, spawn(213, 0))
    out = eigvec_deflation_cluster(g, 2, D=360, eps=1.0, seed=1, noise_off=True)
    assert loss_overall(out.labels, PARAMS_400.theta) <= 0.05
    assert out.budget[0].eps == pytest.approx(2.0 * 2 * 1.0)


def test_deflation_lipschitz_cap_applied():
    # With use_lipschitz the noisy Rayleigh quotient is capped at n^2.
    g = star(5)
    diag = {}
    eigvec_deflation(g, 2, D=1, eps=0.5, use_lipschitz=True, seed=7,
                     diagnostics=diag)
    assert all(s <= 25.0 + 1e-9 for s in diag["sigmas"])


# ---------------------------------------------------------------------------
# Two-community convex optimization


def test_dykstra_fixed_point():
    # A matrix already in the feasible set is its own projection.
    rng = spawn(217, 0)
    n = 20
    Q = rng.standard_normal((n, n))
    Y = Q @ Q.T
    Y = Y / np.trace(Y) * 1.0
    d = np.diag(Y).copy()
    # Rescale rows/cols so the diagonal is exactly 1/n while staying PSD.
    s = 1.0 / np.sqrt(d * n)
    Y = Y * np.outer(s, s)
    X, iters, resid = _dykstra_psd_diag(Y, 1.0 / n, 1e-10, 5000)
    assert np.max(np.abs(X - Y)) < 1e-8


def test_two_community_noise_free_exact_on_planted():
    params = SbmParams(n=300, k=2, B=np.array([[0.3, 0.05], [0.05, 0.3]]))
    g = sample_sbm(params, spawn(219, 0))
    out = two_community_convex(g, 300 * 0.3, 300 * 0.05, eps=1.0, delta=1e-6,
                               seed=1, noise_off=True)
    assert loss_overall(out.labels, params.theta) == 0.0


def test_two_community_pilot_threshold():
    # n=300, dense regime, eps = D^2 log n with D = 3d: loss <= 0.2 in >= 80%
    # of 30 seeds (pinned by pilot).
    params = SbmParams(n=300, k=2, B=np.array([[0.62, 0.1], [0.1, 0.62]]))
    D = 3 * params.d
    eps = D * D * math.log(300)
    good = 0
    for seed in range(30):
        g = sample_sbm(params, spawn(223, seed, 0))
        out = two_community_convex(g, 300 * 0.62, 300 * 0.1, eps=eps, delta=1e-6,
                                   seed=spawn(223, seed, 1))
        if loss_overall(out.labels, params.theta) <= 0.2:
            good += 1
    assert good >= 24


def test_two_community_budget_and_guards():
    g = sample_sbm(SbmParams(n=20, k=2, B=np.full((2, 2), 0.3) + 0.2 * np.eye(2)), 0)
    out = two_community_convex(g, 10.0, 4.0, eps=2.0, delta=1e-4, seed=0)
    assert out.budget[0].kind == "zcdp"
    assert out.budget[0].rho == pytest.approx(4.0 / (4.0 * math.log(1e4)))
    with pytest.raises(AssumptionViolation):
        two_community_convex(g, 1.0, 2.0, eps=1.0, delta=1e-4, seed=0)


@pytest.fixture()
def dykstra_calls(monkeypatch):
    """One entry per Dykstra projection that two_community_convex runs."""
    calls = []
    real = nodedp.estimators._dykstra_psd_diag

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(nodedp.estimators, "_dykstra_psd_diag", spy)
    return calls


def test_two_community_projects_once_per_graph_with_unchanged_output(dykstra_calls):
    # The projection does not depend on eps: one Dykstra solve serves every
    # grid point of a graph, and each output equals that on a fresh copy of
    # the graph (no memo) bit for bit.
    params = SbmParams(n=120, k=2, B=np.array([[0.5, 0.1], [0.1, 0.5]]))
    g = sample_sbm(params, spawn(227, 0))
    fresh = [two_community_convex(Graph(g.n, g.adj), 60.0, 12.0, eps=eps, delta=1e-6,
                                  seed=spawn(227, 1, i)) for i, eps in enumerate([50.0, 500.0])]
    assert len(dykstra_calls) == 2
    dykstra_calls.clear()
    for i, eps in enumerate([50.0, 500.0]):
        out = two_community_convex(g, 60.0, 12.0, eps=eps, delta=1e-6, seed=spawn(227, 1, i))
        assert np.array_equal(out.labels.labels, fresh[i].labels.labels)
        assert out.diagnostics == fresh[i].diagnostics
    assert len(dykstra_calls) == 1
    # Other block parameters are a new solve.
    two_community_convex(g, 60.0, 13.0, eps=50.0, delta=1e-6, seed=0)
    assert len(dykstra_calls) == 2


def test_two_community_dykstra_failure_raises_at_every_call(dykstra_calls, monkeypatch):
    g = sample_sbm(SbmParams(n=40, k=2, B=np.array([[0.5, 0.1], [0.1, 0.5]])), spawn(229, 0))
    monkeypatch.setattr(nodedp.estimators, "_DYKSTRA_TOL", 0.0)
    monkeypatch.setattr(nodedp.estimators, "_DYKSTRA_MAX_ITER", 2)
    for eps in (1.0, 2.0):
        with pytest.raises(nodedp.estimators.DykstraFailure):
            two_community_convex(g, 20.0, 4.0, eps=eps, delta=1e-4, seed=0)
    assert len(dykstra_calls) == 2


def test_adjacency_square_is_computed_once_per_graph(monkeypatch):
    # Above D every candidate of the PCA draw scores by the extension LP;
    # A @ A is formed once for all of them and for later calls on the graph.
    # A draw here takes a few candidates on average, so of four draws at
    # least one takes more than one.
    calls = []
    real = Graph.as_float

    def spy(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(Graph, "as_float", spy)
    g = star(8)
    outs = [private_pca_lipschitz(g, D=2, eps=1.0, seed=spawn(231, s)) for s in range(4)]
    assert not any(out.diagnostics["fast_path"] for out in outs)
    assert max(out.diagnostics["accepted_after"] for out in outs) > 1
    assert len(calls) == 4 + 1  # the mean degree at each call, and A @ A once
    eigvec_deflation(g, 2, 2, 1.0, use_lipschitz=True, seed=spawn(231, 4))
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# Matrix estimation


def test_matrix_estimation_noise_free_reconstruction():
    # Noise-free PPM with many iterations reproduces the best rank-2k
    # approximation of A up to the next singular value.
    params = SbmParams(n=120, k=2, B=np.array([[0.6, 0.1], [0.1, 0.6]]))
    g = sample_sbm(params, 3)
    A = g.as_float()
    k = 2
    svals = np.linalg.svd(A, compute_uv=False)
    out = matrix_estimation(g, k, eps=1.0, delta=1e-6, seed=4, noise_off=True)
    # The pipeline output itself should cluster perfectly here, at its own
    # iteration count ceil(12 ln n).
    assert out.diagnostics["iterations"] == math.ceil(12 * math.log(120)) == 58
    assert loss_overall(out.labels, params.theta) == 0.0
    # Direct reconstruction check via the dense SVD oracle.
    U, s, Vt = np.linalg.svd(A)
    A2k = (U[:, : 2 * k] * s[: 2 * k]) @ Vt[: 2 * k]
    assert np.linalg.norm(A - A2k, 2) <= svals[2 * k] + 1e-6 * np.linalg.norm(A, 2)


def _matrix_estimation_reference(g, k, eps, delta, seed, noise_off=False, restarts=20):
    """matrix_estimation's iteration, then the n x n SVD of the rank-2k
    reconstruction X_prev @ Y.T; returns (U[:, :k], labels, k-means cost)."""
    rng = spawn(*seed)
    n, A = g.n, g.as_float()
    L, p = max(1, math.ceil(12.0 * math.log(n))), min(2 * k, n)
    sigma = 0.0 if noise_off else CALIBRATION["power_method"].noise(eps, delta, k, L)
    X, _ = np.linalg.qr(rng.standard_normal((n, p)))
    for _ in range(L):
        G = sigma * rng.standard_normal((n, p)) if sigma > 0 else 0.0
        Y = A @ X + G
        X_prev, X = X, np.linalg.qr(Y)[0]
    U = np.linalg.svd(X_prev @ Y.T)[0][:, :k]
    labels, _, cost = approx_kmeans(U, k, restarts=restarts, seed=rng)
    return U, labels, cost


def _two_cliques(sizes):
    adj = np.zeros((sum(sizes), sum(sizes)), dtype=np.uint8)
    start = 0
    for m in sizes:
        adj[start:start + m, start:start + m] = 1
        start += m
    np.fill_diagonal(adj, 0)
    return Graph(len(adj), adj)


@pytest.mark.parametrize("case", ["sbm-eps2000", "sbm-eps50", "rank2-noise-off"])
def test_matrix_estimation_factor_svd_matches_full_svd(case, monkeypatch):
    # The left singular vectors come from the p x p factor of the last QR; they
    # must equal the n x n SVD's column by column up to sign, and so must the labels.
    if case == "rank2-noise-off":
        g, eps, noise_off = _two_cliques((30, 20)), 1.0, True  # singular values 29, 19, 0...
    else:
        g = sample_sbm(PARAMS_400, spawn(229, 0))
        eps, noise_off = float(case.removeprefix("sbm-eps")), False
    seen = []
    real = nodedp.estimators.approx_kmeans
    monkeypatch.setattr(nodedp.estimators, "approx_kmeans",
                        lambda U, *a, **kw: seen.append(U) or real(U, *a, **kw))
    out = matrix_estimation(g, 2, eps, 1e-6, seed=spawn(229, 1), noise_off=noise_off)
    U_ref, labels_ref, cost_ref = _matrix_estimation_reference(
        g, 2, eps, 1e-6, (229, 1), noise_off=noise_off)
    ((U,),) = seen  # one batched call, on a stack of one embedding
    assert U.shape == U_ref.shape == (g.n, 2)
    for j in range(2):
        sign = np.sign(U[:, j] @ U_ref[:, j])
        np.testing.assert_allclose(sign * U[:, j], U_ref[:, j], rtol=0, atol=1e-10)
    np.testing.assert_array_equal(out.labels.labels, labels_ref.labels)
    assert out.diagnostics["kmeans_cost"] == pytest.approx(cost_ref, rel=1e-9)


def _matrix_estimation_lone_loop(g, k, eps, delta, rng, noise_off=False):
    """One run of the noisy power method as a 2-D loop: (labels, k-means cost)."""
    n, A = g.n, g.as_float()
    L, p = max(1, math.ceil(12.0 * math.log(n))), min(2 * k, n)
    sigma = 0.0 if noise_off else CALIBRATION["power_method"].noise(eps, delta, k, L)
    X, _ = np.linalg.qr(rng.standard_normal((n, p)))
    for _ in range(L):
        G = sigma * rng.standard_normal((n, p)) if sigma > 0 else 0.0
        X_prev, (X, R) = X, np.linalg.qr(A @ X + G)
    labels, _, cost = approx_kmeans(X_prev @ np.linalg.svd(R.T)[0][:, :k], k, seed=rng)
    return labels, cost


@pytest.mark.parametrize("noise_off, eps", [
    (False, [30.0, 300.0, 3000.0]),
    (True, [30.0, 300.0, 3000.0]),
    # eps = inf is noise scale 0 beside noisy runs; L = 58 is no multiple of
    # the iterations whose noise is drawn at once.
    (False, [300.0, math.inf, 30.0]),
], ids=["False", "True", "inf-beside-noisy"])
def test_batched_matrix_estimation_equals_lone_calls(noise_off, eps):
    # Three graphs of one size at three budgets run in lockstep: every output,
    # and where every stream is left, equals three lone calls and a 2-D loop.
    params = SbmParams(n=120, k=2, B=np.array([[0.5, 0.1], [0.1, 0.5]]))
    graphs = [sample_sbm(params, spawn(233, j, 0)) for j in range(3)]
    delta = [1e-6, 1e-3, 1e-6]
    streams = [[spawn(233, j, 1) for j in range(3)] for _ in range(3)]
    batch = matrix_estimation(graphs, 2, eps, delta, seed=streams[0], noise_off=noise_off)
    for j, out in enumerate(batch):
        lone = matrix_estimation(graphs[j], 2, eps[j], delta[j], seed=streams[1][j],
                                 noise_off=noise_off)
        labels, cost = _matrix_estimation_lone_loop(graphs[j], 2, eps[j], delta[j],
                                                    streams[2][j], noise_off)
        assert np.array_equal(out.labels.labels, lone.labels.labels)
        assert np.array_equal(out.labels.labels, labels.labels)
        assert out.diagnostics == lone.diagnostics
        assert out.diagnostics["kmeans_cost"] == cost
        assert out.budget == lone.budget
        after = [s[j].bit_generator.state for s in streams]
        assert after[0] == after[1] == after[2]
    assert len({out.diagnostics["kmeans_cost"] for out in batch}) == 3


def test_matrix_estimation_k_zero_rejected():
    g = sample_sbm(SbmParams(n=20, k=2, B=np.full((2, 2), 0.3) + 0.2 * np.eye(2)), 0)
    with pytest.raises(ValueError):
        matrix_estimation(g, 0, eps=1.0, delta=1e-6, seed=0)


def test_matrix_estimation_pilot_threshold():
    # n=400 planted SBM at large eps: loss <= 0.1 in >= 80% of 30 seeds.
    good = 0
    for seed in range(30):
        g = sample_sbm(PARAMS_400, spawn(227, seed, 0))
        out = matrix_estimation(g, 2, eps=2000.0, delta=1e-6,
                                seed=spawn(227, seed, 1))
        if loss_overall(out.labels, PARAMS_400.theta) <= 0.1:
            good += 1
    assert good >= 24


def test_matrix_estimation_budget():
    g = sample_sbm(SbmParams(n=30, k=2, B=np.full((2, 2), 0.3) + 0.2 * np.eye(2)), 0)
    out = matrix_estimation(g, 2, eps=3.0, delta=1e-5, seed=0)
    assert out.budget[0].rho == pytest.approx(9.0 / (4.0 * math.log(1e5)))


# ---------------------------------------------------------------------------
# Subspace estimation and GoodCenter


def test_subspace_test_mode_matches_plain_spectral():
    # t=1 forced in noise-off mode: losses agree with plain spectral
    # clustering within 0.05 over 20 seeds.
    params = SbmParams(n=200, k=2, B=np.array([[0.3, 0.05], [0.05, 0.3]]))
    for seed in range(20):
        g = sample_sbm(params, spawn(229, seed, 0))
        out = subspace_estimation(g, 2, eps=1.0, delta=1e-6, zeta=0.1,
                                  seed=spawn(229, seed, 1), noise_off=True)
        assert out.diagnostics["t"] == 1
        _, vecs = sym_eigs(g.as_float(), 2)
        base, _, _ = approx_kmeans(vecs, 2, seed=spawn(229, seed, 2))
        diff = abs(loss_overall(out.labels, params.theta)
                   - loss_overall(base, params.theta))
        assert diff <= 0.05


def test_subspace_q_rounding():
    g = sample_sbm(SbmParams(n=24, k=2, B=np.full((2, 2), 0.4) + 0.2 * np.eye(2)), 0)
    out = subspace_estimation(g, 1, eps=1.0, delta=1e-6, zeta=0.3, seed=0,
                              noise_off=True, Cprime=3.0)
    assert out.diagnostics["q"] == 3


def test_subspace_assumption_violation_reports_range():
    g = sample_sbm(SbmParams(n=40, k=2, B=np.full((2, 2), 0.4) + 0.2 * np.eye(2)), 0)
    with pytest.raises(AssumptionViolation, match="admissible range"):
        subspace_estimation(g, 2, eps=1e9, delta=1e-6, zeta=0.1, seed=0)
    with pytest.raises(AssumptionViolation):
        subspace_estimation(g, 1, eps=1.0, delta=1e-6, zeta=1e-9, seed=0)


def test_subspace_weighted_pilot_threshold():
    # Weighted SBM with Gaussian weights (s^2 ~ a_n), n=400, at the largest
    # feasible eps for the theorem-consistent chunk constant: loss <= 0.2 in
    # >= 70% of 30 seeds (pinned by pilot).
    wm = WeightModel(means=np.array([[1.0, 0.2], [0.2, 1.0]]), scale=math.sqrt(0.3))
    params = SbmParams(n=400, k=2, B=np.array([[0.3, 0.05], [0.05, 0.3]]),
                       weight_model=wm)
    n, delta = 400, 1e-6
    D = 3 * params.d
    eps = D * D * math.log(n)
    C1 = 2.01 * eps / math.sqrt(n * math.log(n) * math.log(1 / delta))
    good = 0
    for seed in range(30):
        wg = sample_weighted_sbm(params, spawn(233, seed, 0))
        out = subspace_estimation(wg, 2, eps=eps, delta=delta, zeta=0.1,
                                  seed=spawn(233, seed, 1), C1=C1)
        if loss_overall(out.labels, params.theta) <= 0.2:
            good += 1
    assert good >= 21


def test_good_center_identical_points():
    pts = np.tile(np.array([0.5, -0.25, 0.125]), (40, 1))
    center, radius = good_center(pts, R_max=8.0, r_min=1e-3, zeta=0.1,
                                 rho=1.0, seed=0, noise_off=True)
    assert np.linalg.norm(center - pts[0]) <= 1e-3
    assert radius <= 1e-3


def test_good_center_two_clusters_noise_off():
    rng = spawn(239, 0)
    big = np.array([2.0, 0.0]) + 0.01 * rng.standard_normal((80, 2))
    small = np.array([-6.0, 0.0]) + 0.01 * rng.standard_normal((20, 2))
    pts = np.vstack([big, small])
    center, radius = good_center(pts, R_max=16.0, r_min=1e-3, zeta=0.1,
                                 rho=1.0, seed=0, noise_off=True)
    inside = np.linalg.norm(big - center, axis=1) <= radius
    assert inside.all()


def test_good_center_statistical_coverage():
    # Coverage >= t/2 with probability >= (1 - zeta) - 3 sigma across trials.
    trials, t, n = 200, 600, 20
    cover = 0
    for trial in range(trials):
        rng = spawn(241, trial)
        c = rng.uniform(-1, 1, n)
        pts = c + 0.02 * rng.standard_normal((t, n)) / math.sqrt(n)
        tau = 0.01
        pts = np.clip(np.round(pts / tau) * tau, -1.5, 1.5)
        center, radius = good_center(pts, 1.5 * math.sqrt(n), tau / 2.0,
                                     0.1, 1.0, rng)
        if int((np.linalg.norm(pts - center, axis=1) <= radius).sum()) >= t // 2:
            cover += 1
    threshold = (1 - 0.1) - 3 * math.sqrt(0.1 * 0.9 / trials)
    assert cover / trials >= threshold


# ---------------------------------------------------------------------------
# Generic reduction and symmetrization


def test_reduction_noop_graph_and_budget_passthrough(monkeypatch):
    monkeypatch.setattr(nodedp.truncation, "private_sensitivity_bound", lambda *a, **kw: 1.0)
    g = sample_sbm(PARAMS_400, spawn(251, 0))
    D = 360
    assert max_degree(g) <= D
    seen = {}

    def run(graph, eps, delta, seed, noise_off=False):
        seen["adj"] = graph.adj
        seen["eps"] = eps
        seen["delta"] = delta
        return ef_spectral(graph, 2, math.inf, seed=seed)

    base = BoundedDegreeEstimator("probe", batch_of(run), lambda e, d: pure_dp(e))
    out = reduce_to_node_private(g, base, D, 1.0, 1e-6, eps2=8.0, delta2=0.0, seed=1)
    assert np.array_equal(seen["adj"], g.adj)  # graph passed through unchanged
    assert seen["eps"] == pytest.approx(8.0)  # L_hat = 1: no rescale
    assert out.diagnostics["d_T"] == 0.0


def test_reduction_total_budget_formulas():
    g = sample_sbm(SbmParams(n=40, k=2, B=np.full((2, 2), 0.3) + 0.2 * np.eye(2)), 0)

    def run(graph, eps, delta, seed, noise_off=False):
        return ef_spectral(graph, 2, math.inf, seed=seed)

    for form, eps1, delta1, eps2, delta2 in [
        ("pure", 0.7, 1e-7, 11.0, 0.0),
        ("approx", 1.3, 1e-6, 5.0, 1e-8),
    ]:
        guarantee = (lambda e, d: pure_dp(e)) if form == "pure" else approx_dp
        base = BoundedDegreeEstimator("probe", batch_of(run), guarantee)
        out = reduce_to_node_private(g, base, 40, eps1, delta1, eps2, delta2, seed=3)
        total = out.budget[-1]
        if form == "pure":
            assert total.eps == pytest.approx(eps1 + eps2, abs=1e-12)
            assert total.delta == pytest.approx(math.exp(eps1) * delta1, abs=1e-18)
        else:
            assert total.eps == pytest.approx(eps1 + 2 * eps2, abs=1e-12)
            expected = math.exp(eps1) * (delta1 + delta2 * math.exp(2 * eps2))
            assert total.delta == pytest.approx(expected, rel=1e-12)
        assert out.budget[0].eps == pytest.approx(eps1)


def test_reduction_rescales_budgets_by_Lhat(monkeypatch):
    monkeypatch.setattr(nodedp.truncation, "private_sensitivity_bound", lambda *a, **kw: 25.0)
    g = sample_sbm(SbmParams(n=30, k=2, B=np.full((2, 2), 0.3) + 0.2 * np.eye(2)), 0)
    seen = {}

    def run(graph, eps, delta, seed, noise_off=False):
        seen["eps"], seen["delta"] = eps, delta
        return ef_spectral(graph, 2, math.inf, seed=seed)

    base = BoundedDegreeEstimator("probe", batch_of(run), approx_dp)
    out = reduce_to_node_private(g, base, 30, 1.0, 1e-6, 10.0, 1e-6, seed=5)
    assert seen["eps"] == pytest.approx(10.0 / 25.0)
    assert seen["delta"] == pytest.approx(1e-6 / 25.0)
    assert out.diagnostics["L_hat"] == 25.0


def test_reduction_degree_bound_composition():
    # Output of the truncation inside the wrapper always has degree <= 2D.
    rng = spawn(257, 0)
    adj = np.triu((rng.random((50, 50)) < 0.6).astype(np.uint8), 1)
    g = Graph(50, adj | adj.T)
    seen = {}

    def run(graph, eps, delta, seed, noise_off=False):
        seen["maxdeg"] = max_degree(graph)
        return ef_spectral(graph, 2, math.inf, seed=seed)

    base = BoundedDegreeEstimator("probe", batch_of(run), lambda e, d: pure_dp(e))
    D = 5
    reduce_to_node_private(g, base, D, 1.0, 1e-6, 5.0, 0.0, seed=1)
    assert seen["maxdeg"] <= 2 * D


def test_registry_bounded_bases_scale_mechanism_parameters():
    g = sample_sbm(SbmParams(n=40, k=2, B=np.full((2, 2), 0.3) + 0.2 * np.eye(2)), 0)
    D = 10
    base = make_bounded_base("ef_spectral", 2, D, {})
    out = base.run(g, 4.0 * D * 2.5, 0.0, spawn(277, 0))
    # Internal flip parameter is eps/(4D) = 2.5; budget records it.
    assert out.budget[0].eps == pytest.approx(2.5)
    base2 = make_bounded_base("eig_deflation", 2, D, {})
    out2 = base2.run(g, 8.0, 0.0, spawn(277, 1))
    # (2k) * (eps/(2k)) = eps at the pure node level on bounded degree.
    assert out2.budget[0].eps == pytest.approx(8.0)


# k=2, D=20: node-level eps divided by 4D=80, 2, 2k=4, 4D=80, 4D=80 and 5D=100.
@pytest.mark.parametrize("estimator_id, divisor, form, eps", [
    ("ef_spectral", 80.0, "pure", 800.0),
    ("pca_lipschitz", 2.0, "pure", 50.0),
    ("eig_deflation", 4.0, "pure", 50.0),
    ("two_community", 80.0, "approx", 800.0),
    ("matrix_estimation", 80.0, "approx", 800.0),
    ("subspace_estimation", 100.0, "approx", 1000.0),
])
def test_registry_bounded_base_is_direct_run_at_divided_eps(estimator_id, divisor, form, eps):
    g = sample_sbm(SbmParams(n=40, k=2, B=np.full((2, 2), 0.3) + 0.2 * np.eye(2)), 0)
    k, D, delta = 2, 20, 1e-6
    assert max_degree(g) <= D  # the sphere samplers stay off the LP-extension path
    params = {"B": [[0.5, 0.3], [0.3, 0.5]]}
    if estimator_id == "subspace_estimation":
        params["zeta"] = 0.1
    base = make_bounded_base(estimator_id, k, D, params)
    assert base.guarantee(eps, delta).kind == form
    bounded = base.run(g, eps, delta, spawn(278, 0))
    direct = run_pipeline(estimator_id, g,
                          {**params, "k": k, "eps": eps / divisor, "delta": delta, "D": D},
                          spawn(278, 0))
    assert bounded.labels is not None and direct.labels is not None
    np.testing.assert_array_equal(bounded.labels.labels, direct.labels.labels)
    assert [b.to_dict() for b in bounded.budget] == [b.to_dict() for b in direct.budget]
    # A batch (forwarded whole by matrix_estimation, run by run elsewhere)
    # divides each entry's eps and gives each run's lone output.
    batch = base.run_batch([g, g], [eps, 2.0 * eps], [delta, delta],
                           [spawn(278, 0), spawn(278, 1)])
    for out, e, path in zip(batch, (eps, 2.0 * eps), (0, 1)):
        lone = base.run(g, e, delta, spawn(278, path))
        np.testing.assert_array_equal(out.labels.labels, lone.labels.labels)
        assert [b.to_dict() for b in out.budget] == [b.to_dict() for b in lone.budget]


def test_registry_unknown_id_raises_key_error():
    g = Graph(4, np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(KeyError):
        run_pipeline("nope", g, {}, 0)
    with pytest.raises(KeyError):
        make_bounded_base("nope", 2, 3, {})


def test_registry_rejects_a_parameter_the_pipeline_does_not_read():
    g = Graph(4, np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match="gamma"):
        run_pipeline("ef_spectral", g, {"eps": 1.0, "gamma": 1.0}, 0)
    with pytest.raises(ValueError, match="use_lipschitz"):
        make_bounded_base("pca_lipschitz", 2, 3, {"use_lipschitz": True})


def test_registry_options_are_keywords_of_the_estimators():
    # Each option is a keyword of the estimator its pipeline calls, with a
    # default there (the registry states none). Shipped configs go through
    # the load-time parameter check in test_shipped_configs_load_and_cover_every_pipeline.
    estimators = {
        "ef_spectral": ef_spectral, "pca_lipschitz": private_pca_lipschitz,
        "eig_deflation": eigvec_deflation_cluster, "two_community": two_community_convex,
        "matrix_estimation": matrix_estimation, "subspace_estimation": subspace_estimation,
    }
    assert estimators.keys() == PIPELINES.keys()
    for estimator_id, entry in PIPELINES.items():
        params = inspect.signature(estimators[estimator_id]).parameters
        for option in entry.options:
            assert option in params, (estimator_id, option)
            assert params[option].kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                           inspect.Parameter.KEYWORD_ONLY)
            assert params[option].default is not inspect.Parameter.empty


@pytest.mark.parametrize("estimator_id", ["pca_lipschitz", "eig_deflation"])
def test_registry_direct_run_without_D_raises_value_error(estimator_id):
    # The error a sweep config without D gets at load, from the same check,
    # where the pipeline would fail reading p["D"]; with D the run goes ahead.
    g = Graph(4, np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match=f"{estimator_id} run directly needs parameter D"):
        run_pipeline(estimator_id, g, {"eps": 1.0}, 0)
    assert run_pipeline(estimator_id, g, {"eps": 1.0, "D": 2}, 0, noise_off=True).labels.n == 4
