import math

import numpy as np
import pytest

import nodedp.estimators
from nodedp import (
    Graph,
    LabelAssignment,
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
    spectral_cluster,
    subspace_estimation,
    symmetrize,
    two_community_convex,
)
from nodedp.clustering import approx_kmeans
from nodedp.estimators import AssumptionViolation, BoundedDegreeEstimator, _dykstra_psd_diag
from nodedp.registry import make_bounded_base, run_pipeline
from nodedp.rng import spawn

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
    base = spectral_cluster(g.as_float(), 2, seed=spawn(201, 2))
    assert loss_overall(out.labels, base) == 0.0
    assert out.budget[0].kind == "pure"


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
    out = matrix_estimation(g, k, eps=1.0, delta=1e-6, seed=4, L=200,
                            noise_off=True)
    # The pipeline output itself should cluster perfectly here.
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
    sigma = 0.0 if noise_off else math.sqrt(4.0 * k * L * math.log(1.0 / delta)) / eps
    X, _ = np.linalg.qr(rng.standard_normal((n, p)))
    for _ in range(L):
        G = sigma * rng.standard_normal((n, p)) if sigma > 0 else 0.0
        Y = A @ X + G
        X_prev, X = X, np.linalg.qr(Y)[0]
    U = np.linalg.svd(X_prev @ Y.T)[0][:, :k]
    labels, _, cost = approx_kmeans(U, k, gamma=1.0, restarts=restarts, seed=rng)
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
    real = nodedp.estimators._cluster_rows
    monkeypatch.setattr(nodedp.estimators, "_cluster_rows",
                        lambda U, *a, **kw: seen.append(U) or real(U, *a, **kw))
    out = matrix_estimation(g, 2, eps, 1e-6, seed=spawn(229, 1), noise_off=noise_off)
    U_ref, labels_ref, cost_ref = _matrix_estimation_reference(
        g, 2, eps, 1e-6, (229, 1), noise_off=noise_off)
    (U,) = seen
    assert U.shape == U_ref.shape == (g.n, 2)
    for j in range(2):
        sign = np.sign(U[:, j] @ U_ref[:, j])
        np.testing.assert_allclose(sign * U[:, j], U_ref[:, j], rtol=0, atol=1e-10)
    np.testing.assert_array_equal(out.labels.labels, labels_ref.labels)
    assert out.diagnostics["kmeans_cost"] == pytest.approx(cost_ref, rel=1e-9)


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
        base = spectral_cluster(g.as_float(), 2, seed=spawn(229, seed, 2))
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
    center, radius = good_center(pts, 0.0, R_max=8.0, r_min=1e-3, zeta=0.1,
                                 rho=1.0, seed=0, noise_off=True)
    assert np.linalg.norm(center - pts[0]) <= 1e-3
    assert radius <= 1e-3


def test_good_center_two_clusters_noise_off():
    rng = spawn(239, 0)
    big = np.array([2.0, 0.0]) + 0.01 * rng.standard_normal((80, 2))
    small = np.array([-6.0, 0.0]) + 0.01 * rng.standard_normal((20, 2))
    pts = np.vstack([big, small])
    center, radius = good_center(pts, 0.0, R_max=16.0, r_min=1e-3, zeta=0.1,
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
        center, radius = good_center(pts, 0.0, 1.5 * math.sqrt(n), tau / 2.0,
                                     0.1, 1.0, rng)
        if int((np.linalg.norm(pts - center, axis=1) <= radius).sum()) >= t // 2:
            cover += 1
    threshold = (1 - 0.1) - 3 * math.sqrt(0.1 * 0.9 / trials)
    assert cover / trials >= threshold


# ---------------------------------------------------------------------------
# Generic reduction and symmetrization


def test_reduction_noop_graph_and_budget_passthrough():
    g = sample_sbm(PARAMS_400, spawn(251, 0))
    D = 360
    assert max_degree(g) <= D
    seen = {}

    def run(graph, eps, delta, seed, noise_off=False):
        seen["adj"] = graph.adj
        seen["eps"] = eps
        seen["delta"] = delta
        return ef_spectral(graph, 2, math.inf, seed=seed)

    base = BoundedDegreeEstimator("probe", "pure", run)
    out = reduce_to_node_private(g, base, D, 1.0, 1e-6, eps2=8.0, delta2=0.0,
                                 seed=1, force_Lhat=1.0)
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
        base = BoundedDegreeEstimator("probe", form, run)
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


def test_reduction_rescales_budgets_by_Lhat():
    g = sample_sbm(SbmParams(n=30, k=2, B=np.full((2, 2), 0.3) + 0.2 * np.eye(2)), 0)
    seen = {}

    def run(graph, eps, delta, seed, noise_off=False):
        seen["eps"], seen["delta"] = eps, delta
        return ef_spectral(graph, 2, math.inf, seed=seed)

    base = BoundedDegreeEstimator("probe", "approx", run)
    out = reduce_to_node_private(g, base, 30, 1.0, 1e-6, 10.0, 1e-6, seed=5,
                                 force_Lhat=25.0)
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

    base = BoundedDegreeEstimator("probe", "pure", run)
    D = 5
    reduce_to_node_private(g, base, D, 1.0, 1e-6, 5.0, 0.0, seed=1)
    assert seen["maxdeg"] <= 2 * D


def test_symmetrize_identity_labeler():
    # Identity labeler: output after symmetrization is a relabeled copy with
    # zero loss to the base labeling.
    n = 12
    fixed = LabelAssignment(np.repeat([0, 1], n // 2), 2)

    def run(graph, eps, delta, seed, noise_off=False):
        from nodedp.estimators import EstimatorOutput
        return EstimatorOutput(labels=fixed, budget=[], diagnostics={})

    base = BoundedDegreeEstimator("const", "pure", run)
    sym = symmetrize(base)
    g = sample_sbm(SbmParams(n=n, k=2, B=np.full((2, 2), 0.4) + 0.2 * np.eye(2)), 0)
    out = sym.run(g, 1.0, 0.0, spawn(263, 0))
    assert sorted(out.labels.counts().tolist()) == [6, 6]


def test_symmetrize_deterministic_base_agrees_after_align():
    params = SbmParams(n=60, k=2, B=np.array([[0.6, 0.1], [0.1, 0.6]]))
    g = sample_sbm(params, 7)

    def run(graph, eps, delta, seed, noise_off=False):
        from nodedp.estimators import EstimatorOutput
        labels = spectral_cluster(graph.as_float(), 2, seed=9)
        return EstimatorOutput(labels=labels, budget=[], diagnostics={})

    sym = symmetrize(BoundedDegreeEstimator("spec", "pure", run))
    out1 = sym.run(g, 1.0, 0.0, spawn(269, 0))
    out2 = sym.run(g, 1.0, 0.0, spawn(269, 1))
    assert loss_overall(out1.labels, out2.labels) == 0.0


def test_symmetrize_uniformizes_node_zero():
    # Under random conjugation, node 0's label matches the base histogram:
    # chi-square goodness of fit p-value > 0.01.
    from scipy.stats import chisquare

    n = 10
    fixed = LabelAssignment(np.array([0] * 3 + [1] * 7), 2)

    def run(graph, eps, delta, seed, noise_off=False):
        from nodedp.estimators import EstimatorOutput
        return EstimatorOutput(labels=fixed, budget=[], diagnostics={})

    sym = symmetrize(BoundedDegreeEstimator("const", "pure", run))
    g = Graph(n, np.zeros((n, n), dtype=np.uint8))
    counts = np.zeros(2)
    reps = 4000
    for i in range(reps):
        out = sym.run(g, 1.0, 0.0, spawn(271, i))
        counts[out.labels.labels[0]] += 1
    _, p = chisquare(counts, f_exp=np.array([0.3, 0.7]) * reps)
    assert p > 0.01


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
    params = {"B": [[0.5, 0.3], [0.3, 0.5]], "zeta": 0.1}
    base = make_bounded_base(estimator_id, k, D, params)
    assert base.privacy_form == form
    bounded = base.run(g, eps, delta, spawn(278, 0))
    direct = run_pipeline(estimator_id, g,
                          {**params, "k": k, "eps": eps / divisor, "delta": delta, "D": D},
                          spawn(278, 0))
    assert bounded.labels is not None and direct.labels is not None
    np.testing.assert_array_equal(bounded.labels.labels, direct.labels.labels)
    assert [b.to_dict() for b in bounded.budget] == [b.to_dict() for b in direct.budget]


def test_registry_unknown_id_raises_key_error():
    g = Graph(4, np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(KeyError):
        run_pipeline("nope", g, {}, 0)
    with pytest.raises(KeyError):
        make_bounded_base("nope", 2, 3, {})


@pytest.mark.parametrize("estimator_id", ["pca_lipschitz", "eig_deflation"])
def test_registry_direct_run_without_D_raises_key_error(estimator_id):
    g = Graph(4, np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(KeyError):
        run_pipeline(estimator_id, g, {"eps": 1.0}, 0)
