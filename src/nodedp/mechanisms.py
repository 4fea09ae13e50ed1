"""Noise and sampling primitives.

Laplace noise, the symmetric edge-flip randomized response for adjacency
matrices, and exact rejection sampling from exponential-mechanism densities
on the unit sphere (Bingham-type laws) using an angular central Gaussian
envelope (Kent, Ganeiber & Mardia 2018, "A new unified approach for the
simulation of a wide class of directional distributions", JCGS 27(2)). One
envelope serves every concentration: it is shifted by the top eigenvalue of
the quadratic form from sym_eigs' eigensolver (the quadratic form is checked
once, on entry), and its scale b is set from the trace; any shift that keeps
the envelope's inverse covariance positive definite gives the same law at any
b in (0, n] (see _envelope). Candidates are drawn _CHUNK at a time, a batch
size that does not change the law. The Cholesky and triangular solves import
scipy.linalg on the first sampler call.

The Laplace sampler uses a plain inverse-CDF transform of a 64-bit uniform;
it is a research artifact and carries no floating-point side-channel
hardening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accounting import exp_capped
from .clustering import sym_eigs_unchecked
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
_CHUNK = 32  # candidates drawn, solved and scored at a time


def cholesky(a, **kwargs):  # scipy.linalg's, imported on the first call; tests patch this name
    import scipy.linalg
    return scipy.linalg.cholesky(a, **kwargs)


def solve_triangular(a, b, **kwargs):  # as cholesky
    import scipy.linalg
    return scipy.linalg.solve_triangular(a, b, **kwargs)


def laplace(scale: float, seed: SeedLike) -> float:
    """Draw a symmetric Laplace variate with the given scale (inverse CDF)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = as_generator(seed)
    u = rng.random()
    while u == 0.0:  # u - 0.5 = -0.5 would give log1p(-1); every other draw is kept
        u = rng.random()
    u -= 0.5  # in (-0.5, 0.5); log1p keeps precision near u = 0
    return -scale * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))


def edge_flip(g: Graph, eps: float, seed: SeedLike) -> Graph:
    """Symmetric edge-flip randomized response.

    Each upper-triangular entry is independently flipped with probability
    1/(1 + e^eps) and kept with probability e^eps/(1 + e^eps); the result is
    symmetrized. e^eps saturates to inf above eps = 700 (exp_capped), where
    nothing flips; eps = inf returns the input unchanged. Satisfies
    (eps, 0)-edge DP.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if math.isinf(eps):
        return g
    rng = as_generator(seed)
    n = g.n
    p_flip = 1.0 / (1.0 + exp_capped(eps))
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
    out = m - 1.0 / (exp_capped(eps) + 1.0)
    np.fill_diagonal(out, m.diagonal())
    return out


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
    """Angular-central-Gaussian envelope for density exp(c * v'Qv) on the sphere
    (Kent, Ganeiber & Mardia 2018).

    Returns (theta, b, L, log_bound): the envelope has inverse covariance
    Omega = I + (2c/b)(theta I - Q), with Cholesky factor L. For a unit v,
    w = v'Omega v - 1 = 2a/b with a = c (theta - v'Qv), and the target over
    the envelope is proportional to exp(-a + (n/2) log1p(2a/b)), whose sup
    over a > -b/2 is log_bound = -(n - b)/2 + (n/2) log(n/b). So the law is
    exact for any b in (0, n] and any theta at which Omega is positive
    definite (the Cholesky succeeds); theta and b set only the acceptance
    rate. theta is the top eigenvalue of Q from sym_eigs_unchecked (a
    certified Ritz value; the caller has checked Q), and b solves Kent et
    al.'s equation sum_i 1/(b + 2 a_i) = 1 with every eigenvalue a_i of
    c (theta I - Q) replaced by their mean: b = n - 2c (theta - tr Q/n),
    clipped to [1, n]. If the solver raises LinAlgError, the Cholesky fails,
    or n = 1, theta is the top eigenvalue from eigvalsh instead, through the
    same formula. At c = 0 the envelope
    is uniform: Omega = I.
    """
    n = Q.shape[0]
    c = concentration
    if c == 0:
        return 0.0, float(n), np.eye(n), 0.0

    def at(theta):
        b = min(max(n - 2.0 * c * (theta - float(np.trace(Q)) / n), 1.0), float(n))
        s = 2.0 * c / b
        omega = -s * Q  # Omega as one new array, its diagonal 1 + s (theta - Q_ii)
        np.fill_diagonal(omega, 1.0 + s * (theta - Q.diagonal()))
        L = cholesky(omega, lower=True, overwrite_a=True, check_finite=False)
        return theta, b, L, -(n - b) / 2.0 + 0.5 * n * math.log(n / b)

    if n >= 2:
        try:
            return at(float(sym_eigs_unchecked(Q, 1, by_abs=False)[0][0]))
        except np.linalg.LinAlgError:
            pass
    return at(float(np.linalg.eigvalsh(Q)[-1]))


def _rejection_sample(score, Q, constant, concentration, rng, trial_cap, size):
    """Core rejection loop for density exp(concentration * score(v)).

    score is the unshifted score; the caller guarantees score(v) <= v'Qv +
    constant for every unit v. The log-target is shifted by theta + constant,
    with theta and b from the envelope, so that it is bounded by -(b/2) w,
    where w = v'Omega v - 1 = |z|^2 / |x|^2 - 1 for the normal z and its
    solve x. score None stands for v'Qv itself (sample_sphere_exp), whose
    shifted log-target is exactly -(b/2) w: it needs no product with Q.
    Candidates come in batches of m = min(_CHUNK, what the draw's cap leaves):
    a batch's m x n normals and then its m uniforms are drawn, and the batch
    is solved in one triangular solve. score maps a batch, an (m, n) array,
    to an iterable of its m scores and is read lazily, in stream order, so a
    score that maps one vector at a time is called on no candidate past the
    last accepted one. size=None returns one draw; size=k returns k i.i.d.
    draws from the one envelope, carrying the unused candidates of a batch
    over to the next draw. trial_cap bounds the candidates of each draw.
    """
    if size is not None and size < 1:
        raise ValueError("size must be None or positive")
    n = Q.shape[0]
    theta, b, L, log_bound = _envelope(Q, concentration)
    shift = theta + constant

    def candidates(m):
        """(v, accepted) for the m candidates of one batch, in stream order."""
        z = rng.standard_normal((m, n))
        logu = np.log(rng.random(m))
        zz = np.einsum("ij,ij->i", z, z)
        # x ~ N(0, Omega^{-1}): solve L^T x = z^T in place of z (both are
        # finite by construction), then project onto the sphere in place.
        v = solve_triangular(L.T, z.T, lower=False, overwrite_b=True, check_finite=False).T
        norms = np.linalg.norm(v, axis=1)
        v /= norms[:, None]
        w = zz / norms**2 - 1.0
        log_env = 0.5 * n * np.log1p(w)
        gains = -0.5 * b * w if score is None else (concentration * (s - shift)
                                                    for s in score(v))
        for vi, g, lu, le in zip(v, gains, logu, log_env):
            yield vi, lu < g + le - log_bound

    count = 1 if size is None else size
    draws = np.empty((count, n))
    counts = np.zeros(count, dtype=np.int64)
    k = trials = 0  # draws accepted; candidates tried for draw k
    while k < count:
        if trials >= trial_cap:
            raise RejectionCapExceeded(trials, trial_cap)
        for v, accepted in candidates(min(_CHUNK, trial_cap - trials)):
            trials += 1
            if accepted:
                draws[k], counts[k] = v, trials
                k, trials = k + 1, 0
                if k == count:
                    break
    if size is None:
        return SphereSample(v=draws[0], accepted_after=int(counts[0]))
    return SphereSample(v=draws, accepted_after=counts)


def _checked(M, name, concentration) -> np.ndarray:
    """M as float64; ValueError for a concentration outside [0, inf) (NaN or
    inf would accept no candidate) or an asymmetric M: the samplers' one check."""
    M = np.asarray(M, dtype=np.float64)
    if not 0.0 <= concentration < math.inf:
        raise ValueError("concentration must be finite and nonnegative")
    if not is_symmetric(M, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    return M


def sample_sphere_exp(
    M: np.ndarray,
    concentration: float,
    seed: SeedLike,
    trial_cap: int = DEFAULT_TRIAL_CAP,
    size: int | None = None,
) -> SphereSample:
    """Exact sample from density proportional to exp(concentration * v'Mv) on
    the unit sphere, by rejection from the angular central Gaussian envelope
    with inverse covariance I + (2 concentration / b)(theta I - M), theta a
    Ritz value of M at or near its top eigenvalue and b set from the trace
    (see _envelope).

    size=None draws one vector; size=k draws k i.i.d. vectors from one
    envelope (see SphereSample), with trial_cap applied to each draw. A
    single draw consumes the random stream exactly as size=1 does.
    """
    M = _checked(M, "M", concentration)
    rng = as_generator(seed)
    return _rejection_sample(None, M, 0.0, concentration, rng, trial_cap, size)


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
    Q = _checked(upper_bound_quadratic, "upper_bound_quadratic", concentration)
    rng = as_generator(seed)
    return _rejection_sample(lambda V: map(score, V), Q, upper_bound_constant,
                             concentration, rng, trial_cap, size)
