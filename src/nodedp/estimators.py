"""The six private community-estimation pipelines, the symmetrization wrapper,
and the generic reduction that composes degree truncation with any estimator
that is private on bounded-degree graphs.

Every pipeline accepts a ``noise_off`` flag used by oracle-equivalence tests:
all noise scales become zero and exponential-mechanism draws are replaced by
exact leading eigenvectors. The flag is recorded in the output diagnostics so
no private run can silently disable noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import accounting as acc
from .accounting import PrivacyBudget
from .clustering import approx_kmeans, sym_eigs
from .graphs import Graph, LabelAssignment, WeightedGraph, max_degree
from .mechanisms import laplace, sample_lipschitz_exp, sample_sphere_exp
from .mechanisms import edge_flip as _edge_flip
from .mechanisms import debias_flip as _debias_flip
from .rng import SeedLike, as_generator
from .truncation import (
    extension_score_concentration,
    lipschitz_extension_score,
    truncate_with_certificate,
)


@dataclass
class EstimatorOutput:
    labels: LabelAssignment | None
    budget: list[PrivacyBudget] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.labels is None


class DykstraFailure(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"Dykstra projection did not reach tolerance after {iterations} "
            f"iterations (residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


class AssumptionViolation(ValueError):
    pass


def _cluster_rows(U, k, gamma, rng, restarts=20):
    labels, _, cost = approx_kmeans(U, k, gamma=gamma, restarts=restarts, seed=rng)
    return labels, cost


# ---------------------------------------------------------------------------
# Edge-flip spectral clustering


def ef_spectral(
    g: Graph,
    k: int,
    eps: float,
    gamma: float = 1.0,
    seed: SeedLike = 0,
    noise_off: bool = False,
    restarts: int = 20,
) -> EstimatorOutput:
    """Randomized-response edge flip, debias, then spectral clustering.

    Satisfies (eps, 0)-edge DP; noise_off (equivalently eps = inf) reduces to
    plain spectral clustering of the adjacency matrix.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    rng = as_generator(seed)
    eps_eff = math.inf if noise_off else eps
    flipped = _edge_flip(g, eps_eff, rng)
    debiased = _debias_flip(flipped.as_float(), eps_eff)
    _, vecs = sym_eigs(debiased, k, by_abs=True)
    labels, cost = _cluster_rows(vecs, k, gamma, rng, restarts)
    return EstimatorOutput(
        labels=labels,
        budget=[acc.pure_dp(eps, "edge-flip randomized response (edge level)")],
        diagnostics={"noise_off": noise_off, "kmeans_cost": cost},
    )


# ---------------------------------------------------------------------------
# Private PCA via the extension score (two communities)


def private_pca_lipschitz(
    g: Graph,
    D: float,
    eps: float,
    gamma: float = 1.0,
    seed: SeedLike = 0,
    noise_off: bool = False,
    restarts: int = 20,
    trial_cap: int = 10_000_000,
) -> EstimatorOutput:
    """Two-community pipeline: private average degree, one exponential-mechanism
    eigenvector of the recentered squared adjacency matrix, then k-means.

    The clamped noisy average degree costs eps; the sphere sample is drawn
    from exp(eps/(6 D^2) * shat'(v)) with shat the extension score
    (extension_score_concentration), which costs at most eps/3 <= eps on
    inputs of max degree <= D. Designed budget: (2 eps, 0) at the node level,
    proven on inputs of max degree <= D.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    rng = as_generator(seed)
    n = g.n
    A = g.as_float()
    mean_deg = float(A.sum()) / n
    noise = 0.0 if noise_off else laplace(2.0 / eps, rng)
    sigma_hat = min(max(mean_deg + noise, 0.0), float(n))

    A2 = A @ A
    M = A2 - (sigma_hat**2 / n) * np.ones((n, n))
    diagnostics = {"noise_off": noise_off, "sigma_hat": sigma_hat}
    if noise_off:
        _, top = sym_eigs(M, 1, by_abs=False)
        u20 = top[:, 0]
        diagnostics["fast_path"] = True
    else:
        conc = extension_score_concentration(eps, D)
        if max_degree(g) <= D:
            # Bounded degree: the extension equals the raw score, so the
            # density is the Bingham law of M itself.
            sample = sample_sphere_exp(M, conc, rng, trial_cap=trial_cap)
            diagnostics["fast_path"] = True
        else:
            const = float(A2.sum())

            def score(v):
                return lipschitz_extension_score(g, v, D) - (sigma_hat**2 / n) * float(
                    np.sum(v)
                ) ** 2

            sample = sample_lipschitz_exp(
                score, M, conc, rng, upper_bound_constant=const, trial_cap=trial_cap
            )
            diagnostics["fast_path"] = False
        u20 = sample.v
        diagnostics["accepted_after"] = sample.accepted_after

    centered = u20 - u20.mean()
    norm = float(np.linalg.norm(centered))
    if norm < 1e-12:
        # Degenerate draw parallel to the all-ones vector; fall back to a
        # fixed unit vector orthogonal to it.
        centered = np.zeros(n)
        centered[0], centered[1] = 1.0, -1.0
        norm = math.sqrt(2.0)
    u2 = centered / norm
    U = np.column_stack([np.full(n, 1.0 / math.sqrt(n)), u2])
    labels, cost = _cluster_rows(U, 2, gamma, rng, restarts)
    diagnostics["kmeans_cost"] = cost
    return EstimatorOutput(
        labels=labels,
        budget=[
            acc.pure_dp(2.0 * eps, "noisy degree + extension-score exponential mechanism (node level)")
        ],
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Eigenvector deflation


def eigvec_deflation(
    g: Graph,
    k: int,
    D: float,
    eps: float,
    use_lipschitz: bool,
    seed: SeedLike = 0,
    noise_off: bool = False,
    trial_cap: int = 10_000_000,
    diagnostics: dict | None = None,
) -> list[np.ndarray]:
    """Iteratively sample near-top eigenvectors of A^2, deflating by noisy
    Rayleigh quotients in between. Returns the k sampled unit vectors.

    Each draw has concentration eps/(6 D^2) (extension_score_concentration),
    which costs at most eps/3 <= eps on inputs of max degree <= D; each
    clamped Rayleigh quotient is released with Laplace(2 D^2/eps) noise and
    costs eps. With use_lipschitz the score is the extension shat_{A^2}
    minus the accumulated deflation, intended to be (2 k eps, 0)-node DP on
    all graphs (proven for max degree <= D); without it the raw quadratic
    score is used, which is private only on bounded-degree inputs. The
    variant with the extension additionally caps the noisy Rayleigh quotient
    at n^2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if D < 1 or eps < 0:
        raise ValueError("need D >= 1 and eps >= 0")
    rng = as_generator(seed)
    n = g.n
    A = g.as_float()
    A2 = A @ A
    D2 = float(D) * float(D)
    conc = 0.0 if eps == 0 else extension_score_concentration(eps, D)
    use_extension_lp = use_lipschitz and float(np.max(A2.sum(axis=1), initial=0.0)) > D2
    ext_const = float(A2.sum())

    deflation = np.zeros((n, n))
    vectors, sigmas, accepts = [], [], []
    for i in range(k):
        Ai = A2 - deflation
        if noise_off:
            _, top = sym_eigs(Ai, 1, by_abs=False)
            v = top[:, 0]
            accepts.append(0)
        elif use_extension_lp:
            S = deflation.copy()

            def score(v, S=S):
                return lipschitz_extension_score(g, v, D) - float(v @ S @ v)

            sample = sample_lipschitz_exp(
                score, Ai, conc, rng, upper_bound_constant=ext_const, trial_cap=trial_cap
            )
            v = sample.v
            accepts.append(sample.accepted_after)
        else:
            sample = sample_sphere_exp(Ai, conc, rng, trial_cap=trial_cap)
            v = sample.v
            accepts.append(sample.accepted_after)
        rayleigh = float(v @ Ai @ v)
        noise = 0.0 if noise_off else laplace(2.0 * D2 / eps, rng) if eps > 0 else 0.0
        sigma = min(max(rayleigh, -D2), D2) + noise
        if use_lipschitz:
            sigma = min(sigma, float(n) ** 2)
        vectors.append(v)
        sigmas.append(sigma)
        if i < k - 1:
            deflation = deflation + sigma * np.outer(v, v)
    if diagnostics is not None:
        diagnostics.update(
            {
                "sigmas": sigmas,
                "accepted_after": accepts,
                "noise_off": noise_off,
                "use_lipschitz": use_lipschitz,
            }
        )
    return vectors


def eigvec_deflation_cluster(
    g: Graph,
    k: int,
    D: float,
    eps: float,
    use_lipschitz: bool = False,
    gamma: float = 1.0,
    seed: SeedLike = 0,
    noise_off: bool = False,
    restarts: int = 20,
    trial_cap: int = 10_000_000,
) -> EstimatorOutput:
    """Deflation pipeline: cluster the rows of the sampled eigenvector matrix."""
    rng = as_generator(seed)
    diag: dict = {}
    vectors = eigvec_deflation(
        g, k, D, eps, use_lipschitz, rng, noise_off=noise_off,
        trial_cap=trial_cap, diagnostics=diag,
    )
    U = np.column_stack(vectors)
    labels, cost = _cluster_rows(U, k, gamma, rng, restarts)
    diag["kmeans_cost"] = cost
    scope = "node level" if use_lipschitz else "bounded-degree node level"
    return EstimatorOutput(
        labels=labels,
        budget=[acc.pure_dp(2.0 * k * eps, f"eigenvector deflation ({scope})")],
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# Two-community convex optimization


def _dykstra_psd_diag(Y: np.ndarray, diag_value: float, tol: float, max_iter: int):
    """Frobenius projection of Y onto {X >= 0 (PSD), X_ii = diag_value} via
    Dykstra's alternating projections."""
    n = Y.shape[0]
    X = Y.copy()
    p = np.zeros_like(Y)
    q = np.zeros_like(Y)
    resid = math.inf
    for it in range(1, max_iter + 1):
        X_prev = X
        # PSD projection with correction p.
        Zp = X + p
        vals, vecs = np.linalg.eigh(Zp)
        pos = vals > 0
        Ypsd = (vecs[:, pos] * vals[pos]) @ vecs[:, pos].T
        p = Zp - Ypsd
        # Affine projection (set the diagonal) with correction q.
        Zq = Ypsd + q
        X = Zq.copy()
        np.fill_diagonal(X, diag_value)
        q = Zq - X
        resid = float(np.linalg.norm(X - X_prev))
        if resid <= tol:
            return X, it, resid
    raise DykstraFailure(resid, max_iter)


def two_community_convex(
    g: Graph,
    B11: float,
    B12: float,
    eps: float,
    delta: float,
    seed: SeedLike = 0,
    noise_off: bool = False,
    gamma: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> EstimatorOutput:
    """Two-community recovery by projecting the rescaled adjacency matrix onto
    {X PSD, X_ii = 1/n} and reading off the sign of the leading eigenvector of
    the noisy projection.

    B11 and B12 follow the n-scaled convention of the method's source: they
    are n times the within/between edge probabilities (so B11 - B12 = n(p-q)
    and the recentering (B11+B12)/n equals p+q). The Gaussian release is
    eps^2 / (4 log(1/delta))-zCDP at the edge level.
    """
    if not B11 > B12:
        raise AssumptionViolation("need B11 > B12")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if eps <= 0 and not noise_off:
        raise ValueError("eps must be positive")
    rng = as_generator(seed)
    n = g.n
    A = g.as_float()
    Y = (2.0 / (n * (B11 - B12))) * (A - ((B11 + B12) / n) * np.ones((n, n)))
    Xhat, iters, resid = _dykstra_psd_diag(Y, 1.0 / n, tol, max_iter)
    if noise_off:
        noisy = Xhat
    else:
        var = 96.0 * math.log(1.0 / delta) / (n * n * eps * eps * (B11 - B12))
        N = math.sqrt(var) * rng.standard_normal((n, n))
        N = np.triu(N) + np.triu(N, k=1).T
        noisy = Xhat + N
    _, top = sym_eigs(noisy, 1, by_abs=False)
    labels = LabelAssignment((top[:, 0] >= 0).astype(np.int64), 2)
    rho = 0.0 if noise_off else eps * eps / (4.0 * math.log(1.0 / delta))
    return EstimatorOutput(
        labels=labels,
        budget=[acc.zcdp(rho, "Gaussian release of projected matrix (edge level)")],
        diagnostics={
            "noise_off": noise_off,
            "dykstra_iterations": iters,
            "dykstra_residual": resid,
        },
    )


# ---------------------------------------------------------------------------
# Low-rank matrix estimation (noisy power method)


def matrix_estimation(
    g: Graph,
    k: int,
    eps: float,
    delta: float,
    gamma: float = 1.0,
    seed: SeedLike = 0,
    L: int | None = None,
    noise_off: bool = False,
    restarts: int = 20,
) -> EstimatorOutput:
    """Noisy subspace iteration on n x 2k blocks with per-iteration Gaussian
    noise N(0, 4 k L log(1/delta)/eps^2), followed by a rank-2k reconstruction,
    SVD, and k-means on the first k left singular vectors. The iteration is
    eps^2/(4 log(1/delta))-zCDP at the edge level.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if eps <= 0 and not noise_off:
        raise ValueError("eps must be positive")
    rng = as_generator(seed)
    n = g.n
    A = g.as_float()
    if L is None:
        L = max(1, math.ceil(12.0 * math.log(n)))
    p = min(2 * k, n)
    sigma = 0.0 if noise_off else math.sqrt(4.0 * k * L * math.log(1.0 / delta)) / eps
    X, _ = np.linalg.qr(rng.standard_normal((n, p)))
    for _ in range(L):
        G = sigma * rng.standard_normal((n, p)) if sigma > 0 else 0.0
        Y = A @ X + G
        X_next, R = np.linalg.qr(Y)
        X_prev, X = X, X_next
    # Rank-2k reconstruction from the penultimate basis and the last product,
    # Ahat = X_prev @ Y.T = X_prev @ R.T @ X.T. Both bases are orthonormal, so
    # Ahat's left singular vectors are X_prev times those of the p x p factor R.T.
    W, _, _ = np.linalg.svd(R.T)
    Uk = X_prev @ W[:, :k]
    labels, cost = _cluster_rows(Uk, k, gamma, rng, restarts)
    rho = 0.0 if noise_off else eps * eps / (4.0 * math.log(1.0 / delta))
    return EstimatorOutput(
        labels=labels,
        budget=[acc.zcdp(rho, "noisy power method (edge level)")],
        diagnostics={"noise_off": noise_off, "iterations": L, "kmeans_cost": cost},
    )


# ---------------------------------------------------------------------------
# GoodCenter and subspace estimation


def good_center(
    points: np.ndarray,
    theta0,
    R_max: float,
    r_min: float,
    zeta: float,
    rho: float,
    seed: SeedLike = 0,
    noise_off: bool = False,
) -> tuple[np.ndarray, float]:
    """Noisy average-and-radius ball finder.

    Runs S = ceil(log2(R_max/r_min)) + 1 halving stages with noisy sums and
    counts; returns (center, radius) of a ball that with probability at least
    1 - zeta covers at least half of the points, assuming the point count is
    large enough relative to the stage threshold Y = sqrt(2 S log(4S/zeta)/rho).
    Always returns a ball.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a (t, n) array")
    t, n = pts.shape
    theta = np.zeros(n) + np.asarray(theta0, dtype=np.float64)
    if not (0.0 < zeta < 1.0):
        raise ValueError("zeta must lie in (0, 1)")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if r_min <= 0 or R_max <= r_min:
        raise ValueError("need 0 < r_min < R_max")
    rng = as_generator(seed)
    S = math.ceil(math.log2(R_max / r_min)) + 1
    Y = 0.0 if noise_off else math.sqrt(2.0 * S * math.log(4.0 * S / zeta) / rho)
    sigma2 = S / rho
    cur = pts
    n_cur = float(t)
    r_cur = float(R_max)
    for _ in range(S):
        inside = np.linalg.norm(cur - theta, axis=1) <= r_cur
        cur = cur[inside]
        delta_sum = (
            np.zeros(n)
            if noise_off
            else math.sqrt(4.0 * r_cur * r_cur * sigma2) * rng.standard_normal(n)
        )
        # The guarantee regime has t >> 2 S Y; the clamp keeps degenerate
        # calls well-defined (a ball is always returned).
        mu = (cur.sum(axis=0) + delta_sum) / max(n_cur, 1.0)
        out_count = int(np.count_nonzero(np.linalg.norm(cur - mu, axis=1) > r_cur / 2.0))
        delta_count = 0.0 if noise_off else math.sqrt(sigma2) * rng.standard_normal()
        triggered = (out_count > 0) if noise_off else (out_count + delta_count >= Y)
        if triggered:
            return theta, r_cur
        r_cur /= 2.0
        n_cur -= 2.0 * Y
        theta = mu
    return theta, r_cur


def subspace_estimation(
    g: Graph | WeightedGraph,
    k: int,
    eps: float,
    delta: float,
    zeta: float = 0.1,
    seed: SeedLike = 0,
    noise_off: bool = False,
    gamma: float = 1.0,
    C1: float = 1.0,
    Cprime: float = 3.0,
    r_mult: float = 1.0,
    beta0: float = 0.9,
    restarts: int = 20,
) -> EstimatorOutput:
    """Private approximate subspace estimation with per-chunk projections,
    GoodCenter aggregation of projected Gaussian reference points, and a final
    SVD + k-means step. Works for unweighted and weighted graphs.

    noise_off forces a single chunk (t = 1) and disables all noise, reducing
    the pipeline to plain spectral clustering of the chunk projection.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if not (0.0 < zeta < 1.0 / 3.0):
        raise AssumptionViolation("zeta must lie in (0, 1/3)")
    if 3 * k < math.log(2.0 / zeta):
        raise AssumptionViolation("need 3k >= log(2/zeta)")
    rng = as_generator(seed)
    M = g.weights if isinstance(g, WeightedGraph) else g.as_float()
    n = g.n

    logn = math.log(n)
    log1d = math.log(1.0 / delta)
    if noise_off:
        t = 1
        t_real = 1.0
    else:
        if eps <= 0:
            raise ValueError("eps must be positive")
        t_real = C1 * math.sqrt(n * logn * log1d) / eps
        if not (2.0 <= t_real <= n**beta0):
            lo = C1 * math.sqrt(n * logn * log1d) / (n**beta0)
            hi = C1 * math.sqrt(n * logn * log1d) / 2.0
            raise AssumptionViolation(
                f"chunk-count assumption violated: eps={eps:g} admissible range "
                f"is [{lo:.6g}, {hi:.6g}]"
            )
        t = max(2, int(round(t_real)))

    q = max(1, round(Cprime * k))
    rho = math.inf if noise_off else eps * eps / (32.0 * q * log1d)
    R_max = math.sqrt(n) * logn
    r_min = 1.0 / n**3

    # Random row chunks.
    perm = rng.permutation(n)
    chunk_ids = np.array_split(perm, t)

    # Per-chunk rank-k row-space projections, stored as orthonormal bases.
    # The row space of Pi_j A_j (Pi_j = top-k left projector of A_j) is the
    # span of A_j's top-k right singular vectors.
    bases = []
    for ids in chunk_ids:
        Aj = M[ids, :]
        _, _, Vjt = np.linalg.svd(Aj, full_matrices=False)
        kk = min(k, Vjt.shape[0])
        bases.append(Vjt[:kk, :].T)  # n x kk orthonormal

    Z = rng.standard_normal((n, q))
    grid_half = R_max / math.sqrt(n)
    r = r_mult * (
        math.sqrt(logn) / (n**2 * math.sqrt(n))
        + (log1d**0.25 / (logn**2.5 * math.sqrt(eps)) + math.sqrt(log1d) / (logn**5 * eps))
        * logn
        if not noise_off
        else 0.0
    )

    zhat_cols = []
    for i in range(q):
        proj = np.stack([Vj @ (Vj.T @ Z[:, i]) for Vj in bases])  # (t, n)
        snapped = np.clip(np.round(proj / r_min) * r_min, -grid_half, grid_half)
        center, _ = good_center(
            snapped, 0.0, R_max, r_min / 2.0, zeta / q,
            1.0 if noise_off else rho, rng, noise_off=noise_off,
        )
        if noise_off:
            truncated = proj
            sigma = 0.0
        else:
            offsets = proj - center
            norms = np.linalg.norm(offsets, axis=1, keepdims=True)
            scale = np.minimum(1.0, r / np.maximum(norms, 1e-300))
            truncated = center + offsets * scale
            sigma = 2.0 * r / (t * math.sqrt(2.0 * rho))
        noise = sigma * rng.standard_normal(n) if sigma > 0 else 0.0
        zhat_cols.append(truncated.mean(axis=0) + noise)

    Zhat = np.column_stack(zhat_cols)
    U, _, _ = np.linalg.svd(Zhat, full_matrices=False)
    Uk = U[:, :k]
    labels, cost = _cluster_rows(Uk, k, gamma, rng, restarts)
    rho_total = 0.0 if noise_off else 2.0 * q * rho
    return EstimatorOutput(
        labels=labels,
        budget=[
            acc.zcdp(rho_total, "GoodCenter + noisy means over row chunks (chunk level)")
        ],
        diagnostics={
            "noise_off": noise_off,
            "t": t,
            "t_real": t_real,
            "q": q,
            "rho_per_call": 0.0 if noise_off else rho,
            "truncation_radius": r,
            "kmeans_cost": cost,
        },
    )


# ---------------------------------------------------------------------------
# Generic reduction to node privacy, and symmetrization


class BoundedDegreeEstimator:
    """An estimator declaring its privacy form on graphs of max degree <= 2D.

    ``run(graph, eps, delta, seed, noise_off)`` must satisfy
    (eps, delta)_{2D}-node DP (pure estimators ignore delta).
    """

    def __init__(self, name: str, privacy_form: str, run_fn):
        if privacy_form not in ("pure", "approx"):
            raise ValueError("privacy_form must be 'pure' or 'approx'")
        self.name = name
        self.privacy_form = privacy_form
        self._run = run_fn

    def run(self, graph, eps, delta, seed, noise_off=False) -> EstimatorOutput:
        return self._run(graph, eps, delta, seed, noise_off)


def reduce_to_node_private(
    g: Graph | WeightedGraph,
    base: BoundedDegreeEstimator,
    D: int,
    eps1: float,
    delta1: float,
    eps2: float,
    delta2: float,
    seed: SeedLike = 0,
    noise_off: bool = False,
    force_Lhat: float | None = None,
) -> EstimatorOutput:
    """Compose degree truncation with a bounded-degree-private estimator.

    Truncates to max degree <= 2D, privately bounds the projection's local
    sensitivity by L_hat, and runs the base estimator on the truncated graph
    with budgets (eps2/L_hat, delta2/L_hat). The released pair is
    (eps1 + eps2, e^{eps1} delta1)-node DP for pure bases and
    (eps1 + 2 eps2, e^{eps1}(delta1 + delta2 e^{2 eps2}))-node DP for
    approximate ones.
    """
    rng = as_generator(seed)
    cert = truncate_with_certificate(g, D, eps1, delta1, rng, noise_off=noise_off)
    truncated, d_T = cert.truncated, cert.d_T
    L_hat = cert.L_hat if force_Lhat is None else float(force_Lhat)
    eps2p, delta2p = acc.reduction_budgets(eps2, delta2, L_hat)
    out = base.run(truncated, eps2p, delta2p, rng, noise_off=noise_off)
    if base.privacy_form == "pure":
        slack = 0.0 if delta1 == 0.0 else min(1.0, acc.exp_capped(eps1) * delta1)
        total = acc.approx_dp(eps1 + eps2, slack, "generic reduction (pure base)")
    else:
        group_term = (
            0.0 if delta2 == 0.0 else delta2 * acc.exp_capped(2.0 * eps2)
        )
        slack = min(1.0, acc.exp_capped(eps1) * (delta1 + group_term))
        if delta1 == 0.0 and group_term == 0.0:
            slack = 0.0
        total = acc.approx_dp(eps1 + 2.0 * eps2, slack,
                              "generic reduction (approx base)")
    chain = [acc.pure_dp(eps1, "private sensitivity bound release")] + out.budget + [total]
    diag = {
        "L_hat": L_hat,
        "d_T": d_T,
        "D": D,
        "base": base.name,
        "base_eps": eps2p,
        "base_delta": delta2p,
        "noise_off": noise_off,
    }
    diag.update({f"base_{k}": v for k, v in out.diagnostics.items()})
    return EstimatorOutput(labels=out.labels, budget=chain, diagnostics=diag)


def symmetrize(base: BoundedDegreeEstimator) -> BoundedDegreeEstimator:
    """Wrap an estimator so its output law is invariant to node relabeling:
    conjugate the input by a uniform random permutation and undo it on the
    output labels."""

    def run(graph, eps, delta, seed, noise_off=False):
        rng = as_generator(seed)
        perm = rng.permutation(graph.n)
        if isinstance(graph, WeightedGraph):
            permuted = WeightedGraph(graph.n, graph.weights[np.ix_(perm, perm)])
        else:
            permuted = Graph(graph.n, graph.adj[np.ix_(perm, perm)])
        out = base.run(permuted, eps, delta, rng, noise_off)
        if out.labels is None:
            return out
        unpermuted = np.empty(graph.n, dtype=np.int64)
        unpermuted[perm] = out.labels.labels
        return EstimatorOutput(
            labels=LabelAssignment(unpermuted, out.labels.k),
            budget=out.budget,
            diagnostics=dict(out.diagnostics, symmetrized=True),
        )

    return BoundedDegreeEstimator(f"symmetrized({base.name})", base.privacy_form, run)
