"""Partial symmetric eigendecomposition (block Lanczos in numpy, with a dense
branch), spectral embeddings, and approximate k-means (k-means++ seeding plus
Lloyd iterations, best of several restarts).

Multi-restart k-means++ stands in for the paper's (1 + gamma)-approximate
k-means solver; its guarantee here is empirical.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import LabelAssignment, is_symmetric
from .rng import SeedLike, as_generator


def _top(vals, k, by_abs):  # indices of the k largest (|vals| when by_abs), largest first
    return (np.argsort(-np.abs(vals)) if by_abs else np.argsort(-vals))[:k]


def _lanczos(M, k, by_abs):
    """Top-k Ritz pairs of the symmetric M, or None if no Krylov space
    smaller than the whole space certifies them.

    Block Lanczos (Golub & Van Loan, Matrix Computations, 4th ed., ch. 10) from
    k random vectors, so an eigenvalue repeated among the top k shows all its
    copies. Each step multiplies the newest k basis vectors by M and
    orthogonalises the products against the basis by classical Gram-Schmidt,
    twice; the coefficients fill H = Q M Q^T, and what is left, orthonormal, is
    the next block. The wanted Ritz pairs (theta, Q^T s) of H are accepted once
    each residual |what is left @ s| <= 1e-10 max |theta|, checked at 2k + 6
    vectors, then where the residual's fall since the last check, extrapolated,
    meets that bound (3 to m/2 further; else a quarter further). A breakdown (a
    vector left below 1e-12 of its |M q|) draws a fresh random vector
    orthogonal to the basis, with no check. Random vectors come from
    np.random.default_rng(0): two calls agree.
    """
    n, rng = M.shape[0], np.random.default_rng(0)
    Q, H = np.empty((n, n)), np.empty((n, n))  # basis vectors as rows; upper triangle of Q M Q^T
    W, scale = rng.standard_normal((n, k)), np.zeros(k)  # the next block, not yet orthonormal
    check, last = min(2 * k + 6, n - k), None
    for m in range(0, n - k + 1, k):  # W becomes Q[m:m + k]
        broke = False
        for i in range(k):
            w, C = W[:, i].copy(), Q[m:m + i]  # W is already orthogonal to Q[:m]
            for _ in range(2 if i else 0):
                w -= (C @ w) @ C
            if w @ w <= 1e-24 * scale[i]:  # breakdown
                broke, w, C = True, rng.standard_normal(n), Q[:m + i]
                for _ in range(2):
                    w -= (C @ w) @ C
            Q[m + i] = w / math.sqrt(w @ w)
        if m >= check and not broke:
            theta, S = np.linalg.eigh(H[:m, :m], UPLO="U")
            sel = _top(theta, k, by_abs)
            res, tol = np.linalg.norm(W @ S[m - k:, sel], axis=0).max(), 1e-10 * np.abs(theta).max()
            if res <= tol:
                return theta[sel], Q[:m].T @ S[:, sel]
            step = max(3, m // 4)
            if last and 0 < tol < res < last[1]:
                step = min(max(3, int((m - last[0]) * math.log(tol / res) / math.log(res / last[1]))), m // 2)
            last, check = (m, res), m + step
        B, W = Q[:m + k], M @ Q[m:m + k].T
        scale = np.einsum("ij,ij->j", W, W)
        c = B @ W
        W -= B.T @ c
        d = B @ W
        W -= B.T @ d
        H[:m + k, m:m + k] = c + d
    return None


def sym_eigs(M: np.ndarray, k: int, by_abs: bool = True):
    """Top-k eigenpairs of a symmetric matrix, sorted by |lambda| (or by
    lambda when by_abs is False), largest first: _lanczos's, or a full dense
    eigh's at k = n and where Lanczos certifies nothing short of the whole
    space (a zero matrix, say, breaks down at every step).
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= n")
    if not is_symmetric(M):
        raise ValueError("M must be finite and symmetric")
    return sym_eigs_unchecked(M, k, by_abs)


def sym_eigs_unchecked(M: np.ndarray, k: int, by_abs: bool):
    """sym_eigs without its checks: M float64 and symmetric, 1 <= k <= n."""
    if k < M.shape[0] and (pairs := _lanczos(M, k, by_abs)) is not None:
        return pairs
    vals, vecs = np.linalg.eigh(M)
    sel = _top(vals, k, by_abs)
    return vals[sel], vecs[:, sel]


def _sq_dist(pT, centers):
    """Squared distances (..., n) of the points, held as (..., d, n) in pT, to
    centers (..., d), adding the dimensions in order."""
    d2 = np.subtract(pT[..., 0, :], centers[..., 0, None])
    d2 *= d2
    term = np.empty_like(d2)
    for j in range(1, pT.shape[-2]):
        np.subtract(pT[..., j, :], centers[..., j, None], out=term)
        term *= term
        d2 += term
    return d2


def _kmeans_pp_seed(sets, k, rngs, restarts):
    """k-means++ seedings of every restart of every point set: centers
    (S, R, k, d) drawn from the rows of sets (S, n, d), restart r of set s
    from rngs[s] after restarts 0..r-1 of that set.

    Each stream draws what a lone seeding does: integers(n) for the first
    center, then for each further center the one uniform that
    ``Generator.choice(n, p=d2 / total)`` consumes once its checks pass,
    mapped to a row by the same cumsum, normalisation and right-side search;
    or, once the mass runs out (total <= 0), integers(n, size=k - c) for the
    rest. Where one restart's draws stop, and so where the next restart's
    start, depends on its own draws (distinct rows whose squared distance
    underflows to 0 need not cover each other), so the restarts of a set go
    one after another; the sets go together. Distances add the dimensions in
    order, as _assign does, so for d <= 7 every bit equals
    ``np.sum((points - c) ** 2, axis=1)``; at d >= 8 numpy adds pairwise
    instead, so the seeding probabilities may differ from that form's in the
    last bits.
    """
    S, n, d = sets.shape
    pT = np.ascontiguousarray(sets.transpose(0, 2, 1))
    centers = np.empty((S, restarts, k, d))
    for r in range(restarts):
        live = np.arange(S)
        centers[:, r, 0] = sets[live, [rng.integers(n) for rng in rngs]]
        d2 = _sq_dist(pT, centers[:, r, 0])
        for c in range(1, k):
            total = d2.sum(axis=1)
            if np.isinf(total).any():  # where choice(p=d2 / total) raised
                raise ValueError("squared distances overflow")
            spent = total <= 0
            if spent.any():
                for s in live[spent]:
                    centers[s, r, c:] = sets[s, rngs[s].integers(n, size=k - c)]
                live, d2, total = live[~spent], d2[~spent], total[~spent]
            cdf = (d2 / total[:, None]).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            u = np.array([rngs[s].random() for s in live])
            centers[live, r, c] = sets[live, (cdf <= u[:, None]).sum(axis=1)]
            if c + 1 < k:
                np.minimum(d2, _sq_dist(pT[live], centers[live, r, c]), out=d2)
    return centers


def _assign(pT, centers):
    """Nearest center for each restart: labels (R, n), the lowest index on
    ties as argmin takes it, and the squared distance to it (R, n). pT holds
    the points as d x n, or one d x n set per restart as (R, d, n); centers
    is (R, k, d)."""
    labels = np.zeros((centers.shape[0], pT.shape[-1]), dtype=np.intp)
    dmin = _sq_dist(pT, centers[:, 0])
    for c in range(1, centers.shape[1]):
        d2 = _sq_dist(pT, centers[:, c])
        labels[d2 < dmin] = c
        np.minimum(dmin, d2, out=dmin)
    return labels, dmin


def _lloyd_restarts(points, centers, max_iter=100):
    """Lloyd iterations for R restarts on each of S point sets at once:
    points is (S, n, d), and restart r of set s starts from centers[s, r] of
    the (S, R, k, d) centers. Returns labels (S, R, n), centers (S, R, k, d)
    and costs (S, R).

    Each restart takes the steps a lone Lloyd run on its own set would: it
    stops when its labels repeat (its centers are then left alone, so it
    keeps reproducing itself), an empty cluster is re-seeded at the point of
    its set farthest from its center, and max_iter bounds its center updates.
    Distances add dimensions in order and center sums add points in order, so
    for 2 <= d <= 7 every bit equals a per-restart loop of
    ``((points[:, None] - centers[None]) ** 2).sum(axis=2)`` and
    ``points[mask].mean(axis=0)``. At d = 1 (numpy's mean) and d >= 8 (its
    distance sum) numpy adds pairwise instead, so centers and costs there may
    differ from such a loop in the last bits.
    """
    S, R, k, d = centers.shape
    n = points.shape[1]
    pT = np.ascontiguousarray(points.transpose(0, 2, 1))  # (S, d, n)
    owner = np.repeat(np.arange(S), R)  # the point set of each restart
    centers = centers.reshape(S * R, k, d)
    labels = np.full((S * R, n), -1)  # so every restart moves at first
    costs = np.empty(S * R)
    live = np.arange(S * R)
    for _ in range(max_iter):
        pts = pT[owner[live]]
        new, dmin = _assign(pts, centers[live])
        moved = (new != labels[live]).any(axis=1)
        costs[live[~moved]] = dmin[~moved].sum(axis=1)  # stopped: labels are final
        live, new, dmin, pts = live[moved], new[moved], dmin[moved], pts[moved]
        if live.size == 0:
            break
        labels[live] = new
        flat = (np.arange(live.size)[:, None] * k + new).ravel()
        bins = live.size * k
        counts = np.bincount(flat, minlength=bins).reshape(-1, k)
        sums = np.stack([np.bincount(flat, weights=pts[:, j].ravel(), minlength=bins)
                         for j in range(d)], axis=-1)
        means = sums.reshape(-1, k, d) / np.maximum(counts, 1)[:, :, None]
        # Re-seed an empty cluster at its set's point farthest from its center.
        r, c = np.nonzero(counts == 0)
        means[r, c] = points[owner[live[r]], dmin[r].argmax(axis=1)]
        centers[live] = means
    else:  # the restarts still live at max_iter
        labels[live], dmin = _assign(pT[owner[live]], centers[live])
        costs[live] = dmin.sum(axis=1)
    return labels.reshape(S, R, n), centers.reshape(S, R, k, d), costs.reshape(S, R)


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
    runs then go together. The result is the first restart of least cost,
    and the stream is left where the last seeding left it.

    A stack of S point sets, (S, n, d), with a sequence of S seeds is a
    batch: each set's seedings draw from its own stream, in the order above,
    the sets' seedings go together, every Lloyd run of every set goes in one
    loop, and the result is a list of S triples, each bit for bit what a
    lone call on that set and seed returns (and leaves its stream where that
    call would).
    """
    points = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(points)):
        raise ValueError("embedding must be finite")
    if points.ndim not in (2, 3):
        raise ValueError("points must be 2-D, or 3-D for a batch")
    batch = points.ndim == 3
    sets, seeds = (points, list(seed)) if batch else (points[None], [seed])
    if len(seeds) != len(sets):
        raise ValueError("a batch needs one seed per point set")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > sets.shape[1]:
        raise ValueError("k must not exceed the number of points")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rngs = [as_generator(s) for s in seeds]
    labels, centers, costs = _lloyd_restarts(sets, _kmeans_pp_seed(sets, k, rngs, restarts))
    out = [(LabelAssignment(labels[s, b], k), centers[s, b], float(costs[s, b]))
           for s, b in enumerate(costs.argmin(axis=1))]
    return out if batch else out[0]
