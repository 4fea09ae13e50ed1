"""Noise and sampling primitives.

Laplace and Gaussian noise, the symmetric edge-flip randomized response for
adjacency matrices, and exact rejection sampling from exponential-mechanism
densities on the unit sphere (Bingham-type laws) using an angular central
Gaussian envelope.

The Laplace sampler uses a plain inverse-CDF transform of a 64-bit uniform;
it is a research artifact and carries no floating-point side-channel
hardening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .graphs import Graph, is_symmetric
from .rng import SeedLike, as_generator


class RejectionCapExceeded(RuntimeError):
    """Raised when the sphere sampler exhausts its trial budget.

    Exceeding the cap is surfaced as an error rather than returning a biased
    sample; the worst-case runtime off the bounded-degree set is exponential.
    """

    def __init__(self, trials: int, cap: int):
        super().__init__(f"rejection sampler exceeded {cap} trials ({trials} attempted)")
        self.trials = trials
        self.cap = cap


DEFAULT_TRIAL_CAP = 10_000_000
_LIPSCHITZ_BATCH = 64  # candidates per batch in sample_lipschitz_exp
_CHUNK = 32  # candidates solved and scored at a time within a batch


def laplace(scale: float, seed: SeedLike) -> float:
    """Draw a symmetric Laplace variate with the given scale (inverse CDF)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = as_generator(seed)
    u = rng.random() - 0.5  # in [-0.5, 0.5)
    # log1p keeps precision near u = 0; the open endpoint avoids log(0).
    return -scale * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))


def gaussian_vec(dim: int, sigma: float, seed: SeedLike) -> np.ndarray:
    """i.i.d. N(0, sigma^2) vector; sigma = 0 yields the exact zero vector."""
    if dim < 1:
        raise ValueError("dim must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return np.zeros(dim)
    rng = as_generator(seed)
    return sigma * rng.standard_normal(dim)


def edge_flip(g: Graph, eps: float, seed: SeedLike) -> Graph:
    """Symmetric edge-flip randomized response.

    Each upper-triangular entry is independently flipped with probability
    1/(1 + e^eps) and kept with probability e^eps/(1 + e^eps); the result is
    symmetrized. eps = inf returns the input unchanged. Satisfies
    (eps, 0)-edge DP.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if math.isinf(eps):
        return g
    rng = as_generator(seed)
    n = g.n
    p_flip = 1.0 / (1.0 + math.exp(eps))
    flips = np.triu(rng.random((n, n)) < p_flip, k=1)
    upper = np.triu(g.adj, k=1) ^ flips
    return Graph(n, (upper | upper.T).astype(np.uint8))


def debias_flip(m: np.ndarray, eps: float) -> np.ndarray:
    """Recenter a flipped adjacency matrix: M - (e^eps+1)^{-1} (11^T - I).

    eps = inf is the identity map.
    """
    m = np.asarray(m, dtype=np.float64)
    if math.isinf(eps):
        return m.copy()
    n = m.shape[0]
    return m - (np.ones((n, n)) - np.eye(n)) / (math.exp(eps) + 1.0)


@dataclass(frozen=True)
class SphereSample:
    """Unit vectors drawn by rejection sampling plus the trial counts used.

    A single draw (size=None) holds one vector of shape (n,) and an int; a
    batched draw (size=k) holds shape (k, n) and an int array of shape (k,),
    one candidate count per draw.
    """

    v: np.ndarray
    accepted_after: int | np.ndarray


def _envelope(Q: np.ndarray, concentration: float):
    """Angular-central-Gaussian envelope for density exp(c * v'Qv) on the sphere.

    Returns (Abar, lmax, L, log_bound) where lmax is the top eigenvalue of Q,
    Abar = c (lmax I - Q) >= 0, the envelope is ACG with inverse covariance
    Omega = I + Abar (Cholesky factor L), and log_bound bounds log of
    exp(-v'Abar v) * (v'Omega v)^{n/2}. This is the one eigendecomposition of
    Q per sampler call.
    """
    n = Q.shape[0]
    evals = np.linalg.eigvalsh(Q)
    lmax, lmin = float(evals[-1]), float(evals[0])
    Abar = concentration * (lmax * np.eye(n) - Q)
    Omega = np.eye(n) + Abar
    L = cholesky(Omega, lower=True)
    # sup_w [-w + (n/2) log(1+w)] over the achievable range of w = v'Abar v.
    wmax = concentration * (lmax - lmin)
    wstar = min(max(n / 2.0 - 1.0, 0.0), wmax)
    log_bound = -wstar + 0.5 * n * math.log1p(wstar)
    return Abar, lmax, L, log_bound


def _rejection_sample(score, Q, constant, concentration, rng, trial_cap, batch, size):
    """Core rejection loop for density exp(concentration * score(v)).

    score is the unshifted score; the caller guarantees score(v) <= v'Qv +
    constant for every unit v. The log-target is shifted by lmax + constant,
    with lmax from the envelope, so that it is bounded by -v'Abar v.
    Candidates come in batches of `batch`: a batch's normals and then its
    uniforms are drawn whole, and its candidates are then solved and scored
    _CHUNK at a time, in stream order, only until the last draw is accepted.
    score maps a chunk, an (m, n) array, to an iterable of its m scores and
    is read lazily, so a score that maps one vector at a time is called on no
    candidate past the last accepted one. size=None returns one draw; size=k
    returns k i.i.d. draws from the one envelope, carrying the unused
    candidates of a batch over to the next draw. trial_cap bounds the
    candidates of each draw.
    """
    if size is not None and size < 1:
        raise ValueError("size must be None or positive")
    n = Q.shape[0]
    Abar, lmax, L, log_bound = _envelope(Q, concentration)
    shift = lmax + constant

    def candidates(m):
        """(v, accepted) for the m candidates of one batch, in stream order."""
        z = rng.standard_normal((m, n))
        logu = np.log(rng.random(m))
        start = 0
        # A triangular solve gives each column the same bits in any chunk of
        # two or more columns, but one column runs another kernel: a batch's
        # last single row joins the chunk before it.
        for stop in [*range(_CHUNK, m - 1, _CHUNK), m]:
            # x ~ N(0, Omega^{-1}): solve L^T x = z^T in place of z (both are
            # finite by construction), then project onto the sphere in place.
            v = solve_triangular(L.T, z[start:stop].T, lower=False, overwrite_b=True,
                                 check_finite=False).T
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            log_env = 0.5 * n * np.log1p(np.einsum("ij,ij->i", v @ Abar, v))
            for vi, s, lu, le in zip(v, score(v), logu[start:stop], log_env):
                yield vi, lu < concentration * (s - shift) + le - log_bound
            start = stop

    count = 1 if size is None else size
    draws = np.empty((count, n))
    counts = np.zeros(count, dtype=np.int64)
    k = trials = 0  # draws accepted; candidates tried for draw k
    while k < count:
        if trials >= trial_cap:
            raise RejectionCapExceeded(trials, trial_cap)
        for v, accepted in candidates(min(batch, trial_cap - trials)):
            trials += 1
            if accepted:
                draws[k], counts[k] = v, trials
                k, trials = k + 1, 0
                if k == count:
                    break
    if size is None:
        return SphereSample(v=draws[0], accepted_after=int(counts[0]))
    return SphereSample(v=draws, accepted_after=counts)


def sample_sphere_exp(
    M: np.ndarray,
    concentration: float,
    seed: SeedLike,
    trial_cap: int = DEFAULT_TRIAL_CAP,
    size: int | None = None,
) -> SphereSample:
    """Exact sample from density proportional to exp(concentration * v'Mv) on
    the unit sphere, by rejection from the angular central Gaussian envelope
    with inverse covariance I + concentration (lmax(M) I - M).

    size=None draws one vector; size=k draws k i.i.d. vectors from one
    envelope (see SphereSample), with trial_cap applied to each draw. A
    single draw consumes the random stream exactly as size=1 does.
    """
    M = np.asarray(M, dtype=np.float64)
    if concentration < 0:
        raise ValueError("concentration must be nonnegative")
    if not is_symmetric(M, atol=1e-10):
        raise ValueError("M must be symmetric")
    rng = as_generator(seed)
    return _rejection_sample(lambda V: np.einsum("ij,ij->i", V @ M, V), M, 0.0,
                             concentration, rng, trial_cap, batch=256, size=size)


def sample_lipschitz_exp(
    score,
    upper_bound_quadratic: np.ndarray,
    concentration: float,
    seed: SeedLike,
    upper_bound_constant: float = 0.0,
    trial_cap: int = DEFAULT_TRIAL_CAP,
    size: int | None = None,
) -> SphereSample:
    """Exact sample from density proportional to exp(concentration * score(v)).

    The caller guarantees score(v) <= v' Q v + upper_bound_constant for all
    unit v, where Q = upper_bound_quadratic; the envelope is built from Q
    exactly as in sample_sphere_exp, so the acceptance ratio stays bounded
    even when score is only an extension of the quadratic form.

    score takes one unit vector and is called once per candidate, only until
    a draw is accepted, which suits a costly score such as the LP extension.
    size and trial_cap behave as in sample_sphere_exp.
    """
    Q = np.asarray(upper_bound_quadratic, dtype=np.float64)
    if concentration < 0:
        raise ValueError("concentration must be nonnegative")
    if not is_symmetric(Q, atol=1e-10):
        raise ValueError("upper_bound_quadratic must be symmetric")
    rng = as_generator(seed)
    return _rejection_sample(lambda V: map(score, V), Q, upper_bound_constant,
                             concentration, rng, trial_cap, batch=_LIPSCHITZ_BATCH,
                             size=size)
