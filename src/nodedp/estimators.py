"""The six private community-estimation pipelines and the generic reduction
that composes degree truncation with any estimator that is private on
bounded-degree graphs.

Every pipeline accepts a ``noise_off`` flag used by oracle-equivalence tests:
all noise scales become zero and exponential-mechanism draws are replaced by
exact leading eigenvectors. The flag is recorded in the output diagnostics so
no private run can silently disable noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import accounting as acc
from .accounting import PrivacyBudget
from .clustering import approx_kmeans, sym_eigs
from .graphs import Graph, LabelAssignment, WeightedGraph, adjacency_squared, memo
from .mechanisms import laplace, sample_lipschitz_exp, sample_sphere_exp
from .mechanisms import edge_flip as _edge_flip
from .mechanisms import debias_flip as _debias_flip
from .rng import SeedLike, as_generator
from .truncation import (
    extension_is_quadratic,
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


def _top_vector(g, Q, D, eps, rng, noise_off, extension=True):
    """One draw of the extension-score exponential mechanism over Q: returns
    (v, accepted_after, fast).

    Q is A^2 minus a term R = A^2 - Q that the caller subtracts from the score
    (the PCA recentering, or deflation). noise_off gives Q's top eigenvector.
    Otherwise v has density proportional to exp(c * (shat(v) - v'Rv)), with
    c = extension_score_concentration(eps, D) and shat the extension score:
    when extension_is_quadratic(g, D) (or extension is False, which scores
    the raw quadratic), shat(v) - v'Rv is v'Qv plus a constant, so the draw is
    the Bingham law of Q (fast); else every candidate solves the extension LP.
    """
    if noise_off:
        _, top = sym_eigs(Q, 1, by_abs=False)
        return top[:, 0], 0, True
    conc = extension_score_concentration(eps, D)
    if not extension or extension_is_quadratic(g, D):
        sample = sample_sphere_exp(Q, conc, rng)
        return sample.v, sample.accepted_after, True
    A2 = adjacency_squared(g)
    R = A2 - Q

    def score(v):
        return lipschitz_extension_score(g, v, D) - float(v @ R @ v)

    # shat(v) <= v'A^2 v + sum(A^2), so score(v) <= v'Qv + sum(A^2).
    sample = sample_lipschitz_exp(score, Q, conc, rng, upper_bound_constant=float(A2.sum()))
    return sample.v, sample.accepted_after, False


# ---------------------------------------------------------------------------
# Edge-flip spectral clustering


def ef_spectral(
    g: Graph,
    k: int,
    eps: float,
    seed: SeedLike = 0,
    noise_off: bool = False,
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
    labels, _, cost = approx_kmeans(vecs, k, seed=rng)
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
    seed: SeedLike = 0,
    noise_off: bool = False,
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
    if eps <= 0 and not noise_off:
        raise ValueError("eps must be positive")
    rng = as_generator(seed)
    n = g.n
    A = g.as_float()
    mean_deg = float(A.sum()) / n
    noise = 0.0 if noise_off else laplace(2.0 / eps, rng)
    sigma_hat = min(max(mean_deg + noise, 0.0), float(n))

    M = adjacency_squared(g) - sigma_hat**2 / n
    u20, accepted, fast = _top_vector(g, M, D, eps, rng, noise_off)
    diagnostics = {"noise_off": noise_off, "sigma_hat": sigma_hat, "fast_path": fast}
    if not noise_off:
        diagnostics["accepted_after"] = accepted

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
    labels, _, cost = approx_kmeans(U, 2, seed=rng)
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
    if D < 1:
        raise ValueError("D must be >= 1")
    if eps <= 0 and not noise_off:
        raise ValueError("eps must be positive")
    rng = as_generator(seed)
    n = g.n
    A2 = adjacency_squared(g)
    D2 = float(D) * float(D)

    deflation, Ai = 0.0, A2
    vectors, sigmas, accepts = [], [], []
    for i in range(k):
        v, accepted, _ = _top_vector(g, Ai, D, eps, rng, noise_off, extension=use_lipschitz)
        accepts.append(accepted)
        rayleigh = float(v @ Ai @ v)
        noise = 0.0 if noise_off else laplace(2.0 * D2 / eps, rng)
        sigma = min(max(rayleigh, -D2), D2) + noise
        if use_lipschitz:
            sigma = min(sigma, float(n) ** 2)
        vectors.append(v)
        sigmas.append(sigma)
        if i < k - 1:
            deflation = deflation + sigma * np.outer(v, v)
            Ai = A2 - deflation
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
    seed: SeedLike = 0,
    noise_off: bool = False,
) -> EstimatorOutput:
    """Deflation pipeline: cluster the rows of the sampled eigenvector matrix."""
    rng = as_generator(seed)
    diag: dict = {}
    vectors = eigvec_deflation(
        g, k, D, eps, use_lipschitz, rng, noise_off=noise_off, diagnostics=diag
    )
    U = np.column_stack(vectors)
    labels, _, cost = approx_kmeans(U, k, seed=rng)
    diag["kmeans_cost"] = cost
    scope = "node level" if use_lipschitz else "bounded-degree node level"
    return EstimatorOutput(
        labels=labels,
        budget=[acc.pure_dp(2.0 * k * eps, f"eigenvector deflation ({scope})")],
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# Two-community convex optimization


# two_community_convex's Dykstra stopping rule: step norm <= tol within max_iter.
_DYKSTRA_TOL = 1e-8
_DYKSTRA_MAX_ITER = 5000


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

    def project():
        A = g.as_float()
        Y = (2.0 / (n * (B11 - B12))) * (A - (B11 + B12) / n)
        return _dykstra_psd_diag(Y, 1.0 / n, _DYKSTRA_TOL, _DYKSTRA_MAX_ITER)

    # The projection does not depend on eps: one solve per graph.
    Xhat, iters, resid = memo(g, ("dykstra", B11, B12), project)
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


# Power iterations whose noise each stream draws in one call: a block holds
# 16 x n x 2k doubles per run, and the calls per run fall from L to L / 16.
_NOISE_BLOCK = 16


def matrix_estimation(
    g: Graph,
    k: int,
    eps: float,
    delta: float,
    seed: SeedLike = 0,
    noise_off: bool = False,
) -> EstimatorOutput:
    """Noisy subspace iteration, L = ceil(12 ln n) steps on n x 2k blocks with
    per-iteration Gaussian noise N(0, 4 k L log(1/delta)/eps^2), followed by a
    rank-2k reconstruction, SVD, and k-means on the first k left singular
    vectors. The iteration is eps^2/(4 log(1/delta))-zCDP at the edge level.

    The stream gives, in order: the n x 2k start block, one n x 2k noise
    block per iteration (none when the noise scale is 0), then the k-means
    seedings.

    A list of graphs of one size is a batch: eps, delta and seed are then
    lists of the same length, and the result is the list of outputs that
    lone calls would give, bit for bit, each drawing from its own stream in
    the order above. The runs go in lockstep, with one stacked matmul and one
    stacked QR per iteration, and one k-means call for all of them.
    """
    batch = isinstance(g, list)
    graphs, epss, deltas, seeds = (g, eps, delta, seed) if batch else ([g], [eps], [delta], [seed])
    if k < 1:
        raise ValueError("k must be >= 1")
    for e, d in zip(epss, deltas):
        if not (0.0 < d < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if e <= 0 and not noise_off:
            raise ValueError("eps must be positive")
    n = graphs[0].n
    if any(gj.n != n for gj in graphs):
        raise ValueError("a batch needs graphs with one node count")
    rngs = [as_generator(s) for s in seeds]
    L = max(1, math.ceil(12.0 * math.log(n)))
    p = min(2 * k, n)
    sigmas = [0.0 if noise_off else math.sqrt(4.0 * k * L * math.log(1.0 / d)) / e
              for e, d in zip(epss, deltas)]
    A = np.empty((len(graphs), n, n))
    X = np.empty((len(graphs), n, p))
    for Aj, Xj, gj, rng in zip(A, X, graphs, rngs):
        Aj[...] = gj.adj
        rng.standard_normal(out=Xj)
    X, _ = np.linalg.qr(X)
    Y = np.empty_like(X)
    # A stream's block of noise comes in the order per-iteration calls would
    # draw it. Runs at noise scale 0 draw nothing; their zero noise still
    # adds +0.0 to A @ X.
    G = np.zeros((len(graphs), min(L, _NOISE_BLOCK), n, p))
    scale = np.array(sigmas)[:, None, None, None]
    for i in range(L):
        b = i % G.shape[1]
        if b == 0:
            m = min(G.shape[1], L - i)
            for Gj, rng, sigma in zip(G, rngs, sigmas):
                if sigma > 0:
                    rng.standard_normal(out=Gj[:m])
            G[:, :m] *= scale
        np.matmul(A, X, out=Y)
        Y += G[:, b]
        X_prev, (X, R) = X, np.linalg.qr(Y)
    # Rank-2k reconstruction from the penultimate basis and the last product,
    # Ahat = X_prev @ Y.T = X_prev @ R.T @ X.T. Both bases are orthonormal, so
    # Ahat's left singular vectors are X_prev times those of the p x p factor R.T.
    Uk = X_prev @ np.linalg.svd(R.transpose(0, 2, 1))[0][..., :k]
    outs = []
    for (labels, _, cost), e, d in zip(approx_kmeans(Uk, k, seed=rngs), epss, deltas):
        rho = 0.0 if noise_off else e * e / (4.0 * math.log(1.0 / d))
        outs.append(EstimatorOutput(
            labels=labels,
            budget=[acc.zcdp(rho, "noisy power method (edge level)")],
            diagnostics={"noise_off": noise_off, "iterations": L, "kmeans_cost": cost},
        ))
    return outs if batch else outs[0]


# ---------------------------------------------------------------------------
# GoodCenter and subspace estimation


def good_center(
    points: np.ndarray,
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
    theta = np.zeros(n)
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
    C1: float = 1.0,
    Cprime: float = 3.0,
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
        if not (2.0 <= t_real <= n**0.9):
            lo = C1 * math.sqrt(n * logn * log1d) / (n**0.9)
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
    r = (
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
            snapped, R_max, r_min / 2.0, zeta / q,
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
    labels, _, cost = approx_kmeans(Uk, k, seed=rng)
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
# Generic reduction to node privacy


@dataclass(frozen=True)
class BoundedDegreeEstimator:
    """An estimator private on graphs of max degree <= 2D.

    ``run_batch(graphs, eps, delta, seeds, noise_off)`` takes lists, one
    entry per run, and returns one output per run; each run must satisfy
    (eps, delta)_{2D}-node DP (pure estimators ignore delta). ``run`` is a
    batch of one. ``guarantee(eps, delta)`` is one run's budget.
    """

    name: str
    run_batch: Callable
    guarantee: Callable  # (eps, delta) -> PrivacyBudget

    def run(self, graph, eps, delta, seed, noise_off=False) -> EstimatorOutput:
        return self.run_batch([graph], [eps], [delta], [seed], noise_off)[0]


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
) -> EstimatorOutput:
    """Compose degree truncation with a bounded-degree-private estimator.

    Truncates to max degree <= 2D, privately bounds the projection's local
    sensitivity by L_hat, and runs the base estimator on the truncated graph
    with budgets (eps2/L_hat, delta2/L_hat). The released guarantee is
    accounting.reduction_total of the base's guarantee at (eps2, delta2).

    A list of graphs is a batch: eps2, delta2 and seed are then lists of the
    same length, each graph's certificate draws from its own seed, the base
    gets every truncated graph in one run_batch call, and the result is the
    list of outputs that lone calls would give.
    """
    batch = isinstance(g, list)
    graphs, eps2s, delta2s, seeds = (
        (g, eps2, delta2, seed) if batch else ([g], [eps2], [delta2], [seed]))
    rngs = [as_generator(s) for s in seeds]
    certs = [truncate_with_certificate(gj, D, eps1, delta1, rng, noise_off=noise_off)
             for gj, rng in zip(graphs, rngs)]
    budgets = [acc.reduction_budgets(e, d, cert.L_hat)
               for e, d, cert in zip(eps2s, delta2s, certs)]
    outs = base.run_batch([cert.truncated for cert in certs], [b[0] for b in budgets],
                          [b[1] for b in budgets], rngs, noise_off=noise_off)
    results = []
    for out, cert, (eps2p, delta2p), e2, d2 in zip(outs, certs, budgets, eps2s, delta2s):
        total = acc.reduction_total(base.guarantee(e2, d2), eps1, delta1)
        chain = [acc.pure_dp(eps1, "private sensitivity bound release")] + out.budget + [total]
        diag = {
            "L_hat": cert.L_hat,
            "d_T": cert.d_T,
            "D": D,
            "base": base.name,
            "base_eps": eps2p,
            "base_delta": delta2p,
            "noise_off": noise_off,
        }
        diag.update({f"base_{k}": v for k, v in out.diagnostics.items()})
        results.append(EstimatorOutput(labels=out.labels, budget=chain, diagnostics=diag))
    return results if batch else results[0]
