"""Partial symmetric eigendecomposition (ARPACK, with a dense branch),
spectral embeddings, and approximate k-means (k-means++ seeding plus Lloyd
iterations, best of several restarts).

Multi-restart k-means++ stands in for the paper's (1 + gamma)-approximate
k-means solver; its guarantee here is empirical.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import ArpackError, eigsh

from .graphs import LabelAssignment, is_symmetric
from .rng import SeedLike, as_generator


# Every eigsh call, here and in mechanisms, draws its random vectors from this
# fixed seed, never from the caller's stream or np.random's. sym_eigs starts
# from such a vector. mechanisms._envelope starts from the all-ones vector
# instead, which overlaps the Perron vector of an entrywise nonnegative A^2; a
# Krylov space grown from it never leaves the vectors that the symmetries of
# the matrix fix, so a top eigenvector outside them (e0 - e1 when rows 0 and 1
# mirror each other) goes unseen, which only slows the sampler down.
ARPACK_SEED = 0


def sym_eigs(M: np.ndarray, k: int, by_abs: bool = True):
    """Top-k eigenpairs of a symmetric matrix, sorted by |lambda| (or by
    lambda when by_abs is False), largest first.

    The pairs come from ARPACK's implicitly restarted Lanczos (eigsh, to
    machine precision) started from a vector drawn from ARPACK_SEED, so two
    calls agree bit for bit. A full dense eigh runs instead at k = n, which
    ARPACK cannot solve, and when eigsh raises (a zero matrix, say, or no
    convergence).
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= n")
    if not is_symmetric(M, atol=1e-10 * max(1.0, float(np.abs(M).max()))):
        raise ValueError("M must be symmetric")

    def top(vals, vecs):
        sel = (np.argsort(-np.abs(vals)) if by_abs else np.argsort(-vals))[:k]
        return vals[sel], vecs[:, sel]

    if k < n:
        try:
            return top(*eigsh(M, k, which="LM" if by_abs else "LA", rng=ARPACK_SEED))
        except ArpackError:
            pass
    return top(*np.linalg.eigh(M))


def _sq_dist(pT, centers):
    """Squared distances (..., n) of the points, held as d x n in pT, to
    centers (..., d), adding the dimensions in order."""
    d2 = (pT[0] - centers[..., 0, None]) ** 2
    for j in range(1, pT.shape[0]):
        d2 += (pT[j] - centers[..., j, None]) ** 2
    return d2


def _kmeans_pp_init(points, k, rng):
    """k-means++ seeding: k centers drawn from the rows of points.

    Distances add the dimensions in order, as _assign does, so for d <= 7
    every bit equals ``np.sum((points - c) ** 2, axis=1)``. At d >= 8 numpy
    adds pairwise instead, so distances, and with them the seeding
    probabilities, may differ from that form's in the last bits.
    """
    n = points.shape[0]
    pT = np.ascontiguousarray(points.T)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = _sq_dist(pT, centers[0])
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c:] = points[rng.integers(n, size=k - c)]
            break
        centers[c] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, _sq_dist(pT, centers[c]))
    return centers


def _assign(pT, centers):
    """Nearest center for each restart: labels (R, n), the lowest index on
    ties as argmin takes it, and the squared distance to it (R, n). pT holds
    the points as d x n, centers is (R, k, d)."""
    R, k = centers.shape[:2]
    labels = np.zeros((R, pT.shape[1]), dtype=np.intp)
    dmin = np.full(labels.shape, np.inf)
    for c in range(k):
        d2 = _sq_dist(pT, centers[:, c])
        labels[d2 < dmin] = c
        np.minimum(dmin, d2, out=dmin)
    return labels, dmin


def _lloyd_restarts(points, centers, max_iter=100):
    """Lloyd iterations for R restarts at once; centers (R, k, d) is updated
    in place. Returns labels (R, n), centers and costs (R,).

    Each restart takes the steps a lone Lloyd run would: it stops when its
    labels repeat (its centers are then left alone, so it keeps reproducing
    itself), an empty cluster is re-seeded at the restart's point farthest
    from its center, and max_iter bounds its center updates. Distances add
    dimensions in order and center sums add points in order, so for
    2 <= d <= 7 every bit equals a per-restart loop of
    ``((points[:, None] - centers[None]) ** 2).sum(axis=2)`` and
    ``points[mask].mean(axis=0)``. At d = 1 (numpy's mean) and d >= 8 (its
    distance sum) numpy adds pairwise instead, so centers and costs there may
    differ from such a loop in the last bits.
    """
    R, k, d = centers.shape
    pT = np.ascontiguousarray(points.T)
    labels = np.full((R, points.shape[0]), -1)  # so every restart moves at first
    live = np.arange(R)
    for _ in range(max_iter):
        new, dmin = _assign(pT, centers[live])
        moved = (new != labels[live]).any(axis=1)
        live, new, dmin = live[moved], new[moved], dmin[moved]
        if live.size == 0:
            break
        labels[live] = new
        flat = (np.arange(live.size)[:, None] * k + new).ravel()
        bins = live.size * k
        counts = np.bincount(flat, minlength=bins).reshape(-1, k)
        sums = np.stack([np.bincount(flat, weights=np.tile(pT[j], live.size), minlength=bins)
                         for j in range(d)], axis=-1)
        means = sums.reshape(-1, k, d) / np.maximum(counts, 1)[:, :, None]
        # Re-seed an empty cluster at the point farthest from its center.
        r, c = np.nonzero(counts == 0)
        means[r, c] = points[dmin[r].argmax(axis=1)]
        centers[live] = means
    labels, dmin = _assign(pT, centers)
    return labels, centers, dmin.sum(axis=1)


def approx_kmeans(
    points: np.ndarray,
    k: int,
    restarts: int = 20,
    seed: SeedLike = 0,
):
    """Best of `restarts` k-means++-seeded Lloyd runs.

    Returns (membership, centers, cost) where cost is the squared Frobenius
    objective. Non-finite points raise ValueError before anything is drawn
    from `seed`.

    The seedings draw from the stream one restart after another; the Lloyd
    runs then go together. The first restart of cost 0 ends the search: the
    result is that restart, and the stream is left where its seeding left it.
    """
    points = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(points)):
        raise ValueError("embedding must be finite")
    if points.ndim != 2:
        raise ValueError("points must be 2-D")
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError("k must not exceed the number of points")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = as_generator(seed)
    inits, states = [], []
    for _ in range(restarts):
        inits.append(_kmeans_pp_init(points, k, rng))
        states.append(rng.bit_generator.state)
    labels, centers, costs = _lloyd_restarts(points, np.stack(inits))
    best = costs.argmin()
    if costs[best] == 0.0:
        rng.bit_generator.state = states[best]
    return LabelAssignment(labels[best], k), centers[best], float(costs[best])


def spectral_cluster(M: np.ndarray, k: int, seed: SeedLike = 0) -> LabelAssignment:
    """Cluster the rows of the top-k (by absolute eigenvalue) eigenvector
    matrix of M with approximate k-means."""
    _, vecs = sym_eigs(M, k, by_abs=True)
    labels, _, _ = approx_kmeans(vecs, k, seed=seed)
    return labels
