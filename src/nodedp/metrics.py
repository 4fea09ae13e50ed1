"""Misclassification losses and permutation alignment between label assignments.

Both losses minimize over all k! relabelings of the estimate; k is assumed
small (guard at k <= 8), so exhaustive enumeration is exact and fast.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graphs import LabelAssignment

_MAX_K = 8


def _check_pair(theta_hat: LabelAssignment, theta: LabelAssignment) -> int:
    if theta_hat.n != theta.n:
        raise ValueError("label assignments have different lengths")
    k = max(theta_hat.k, theta.k)
    if k > _MAX_K:
        raise ValueError(f"k={k} exceeds the exhaustive-permutation guard ({_MAX_K})")
    return k


def _mismatches(sigma: np.ndarray, a: np.ndarray, b: np.ndarray) -> int:
    return int(np.count_nonzero(sigma[a] != b))


def loss_overall(theta_hat: LabelAssignment, theta: LabelAssignment) -> float:
    """Overall misclassification: min over permutations s of (2/n) #{s(hat_i) != theta_i}."""
    k = _check_pair(theta_hat, theta)
    n = theta.n
    a, b = theta_hat.labels, theta.labels
    best = min(
        _mismatches(np.array(p), a, b) for p in itertools.permutations(range(k))
    )
    return 2.0 * best / n


def loss_worst_case(theta_hat: LabelAssignment, theta: LabelAssignment) -> float:
    """Worst-community misclassification: min over permutations of the max over
    communities j of (2/|C_j|) #{i in C_j : s(hat_i) != j}."""
    k = _check_pair(theta_hat, theta)
    a, b = theta_hat.labels, theta.labels
    members = [np.flatnonzero(b == j) for j in range(k)]
    if any(m.size == 0 for m in members[: theta.k]):
        raise ValueError("every ground-truth community must be non-empty")
    best = np.inf
    for p in itertools.permutations(range(k)):
        sigma = np.array(p)
        worst = 0.0
        for j, idx in enumerate(members):
            if idx.size == 0:
                continue
            err = 2.0 * np.count_nonzero(sigma[a[idx]] != j) / idx.size
            worst = max(worst, err)
        best = min(best, worst)
    return float(best)


def align(theta_a: LabelAssignment, theta_b: LabelAssignment) -> tuple[int, ...]:
    """Permutation sigma minimizing the relabeling mismatch of theta_a to theta_b.

    Equivalent to argmin over permutation matrices J of ||Theta_a J - Theta_b||_0.
    Ties break toward the lexicographically smallest permutation.
    """
    k = _check_pair(theta_a, theta_b)
    a, b = theta_a.labels, theta_b.labels
    # k x k confusion counts let each permutation be scored in O(k).
    conf = np.zeros((k, k), dtype=np.int64)
    np.add.at(conf, (a, b), 1)
    best_p, best_cost = None, np.inf
    for p in itertools.permutations(range(k)):
        cost = a.size - sum(conf[i, p[i]] for i in range(k))
        if cost < best_cost:
            best_p, best_cost = p, cost
    return best_p


def relabel(theta: LabelAssignment, sigma: tuple[int, ...]) -> LabelAssignment:
    """Apply a label permutation: new label = sigma[old label]."""
    return LabelAssignment(np.asarray(sigma)[theta.labels], theta.k)
