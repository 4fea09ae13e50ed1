"""Misclassification losses and permutation alignment between label assignments.

All three minimize over the k! relabelings of the estimate, each scored in
O(k) from one k x k confusion matrix; k is assumed small (guard at k <= 8),
so exhaustive enumeration is exact and fast.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graphs import LabelAssignment

_MAX_K = 8


def _confusion(theta_hat: LabelAssignment, theta: LabelAssignment):
    """(perms, hits, sizes): every relabeling s of theta_hat as a row of perms,
    in lexicographic order; hits[q, i], the nodes that theta_hat labels i and
    theta labels s_q(i); and sizes[j] = |C_j| under theta. k is the larger of
    the two label counts."""
    if theta_hat.n != theta.n:
        raise ValueError("label assignments have different lengths")
    k = max(theta_hat.k, theta.k)
    if k > _MAX_K:
        raise ValueError(f"k={k} exceeds the exhaustive-permutation guard ({_MAX_K})")
    conf = np.bincount(theta_hat.labels * k + theta.labels, minlength=k * k).reshape(k, k)
    perms = np.array(list(itertools.permutations(range(k))))
    return perms, conf[np.arange(k), perms], conf.sum(axis=0)


def loss_overall(theta_hat: LabelAssignment, theta: LabelAssignment) -> float:
    """Overall misclassification: min over permutations s of (2/n) #{s(hat_i) != theta_i}."""
    _, hits, _ = _confusion(theta_hat, theta)
    return 2.0 * int(theta.n - hits.sum(axis=1).max()) / theta.n


def loss_worst_case(theta_hat: LabelAssignment, theta: LabelAssignment) -> float:
    """Worst-community misclassification: min over permutations of the max over
    communities j of (2/|C_j|) #{i in C_j : s(hat_i) != j}."""
    perms, hits, sizes = _confusion(theta_hat, theta)
    if np.any(sizes[: theta.k] == 0):
        raise ValueError("every ground-truth community must be non-empty")
    size = sizes[perms]  # |C_j| for j = s_q(i); empty communities score 0
    err = np.where(size > 0, 2.0 * (size - hits) / np.maximum(size, 1), 0.0)
    return float(err.max(axis=1).min())


def align(theta_a: LabelAssignment, theta_b: LabelAssignment) -> tuple[int, ...]:
    """Permutation sigma minimizing the relabeling mismatch of theta_a to theta_b.

    Equivalent to argmin over permutation matrices J of ||Theta_a J - Theta_b||_0.
    Ties break toward the lexicographically smallest permutation.
    """
    perms, hits, _ = _confusion(theta_a, theta_b)
    return tuple(int(i) for i in perms[np.argmax(hits.sum(axis=1))])


def relabel(theta: LabelAssignment, sigma: tuple[int, ...]) -> LabelAssignment:
    """Apply a label permutation: new label = sigma[old label]."""
    return LabelAssignment(np.asarray(sigma)[theta.labels], theta.k)
