import itertools

import numpy as np
import pytest

from nodedp import LabelAssignment, align, loss_overall, loss_worst_case, relabel
from nodedp.rng import spawn

from oracles import brute_align, brute_loss_overall, brute_loss_worst


def labels(seq, k):
    return LabelAssignment(np.array(seq), k)


def test_zero_loss_on_equal_and_relabeled():
    theta = labels([0, 0, 1, 1, 2, 2], 3)
    assert loss_overall(theta, theta) == 0.0
    assert loss_worst_case(theta, theta) == 0.0
    swapped = labels([1, 1, 2, 2, 0, 0], 3)
    assert loss_overall(swapped, theta) == 0.0


def test_one_flip_values():
    # Balanced k=2, n=10: one differing node gives overall 0.2, worst-case 0.4.
    theta = labels([0] * 5 + [1] * 5, 2)
    hat = labels([1] + [0] * 4 + [1] * 5, 2)
    assert loss_overall(hat, theta) == pytest.approx(0.2)
    assert loss_worst_case(hat, theta) == pytest.approx(0.4)


def test_constant_estimate_worst_case_two():
    theta = labels([0] * 5 + [1] * 5, 2)
    hat = labels([0] * 10, 2)
    assert loss_worst_case(hat, theta) == pytest.approx(2.0)
    assert loss_overall(hat, theta) == pytest.approx(1.0)


def test_length_mismatch_and_k_guard():
    with pytest.raises(ValueError):
        loss_overall(labels([0, 1], 2), labels([0, 1, 1], 2))
    big = LabelAssignment(np.arange(9), 9)
    with pytest.raises(ValueError):
        loss_overall(big, big)


def test_align_identity_and_swap():
    theta = labels([0, 0, 1, 1], 2)
    assert align(theta, theta) == (0, 1)
    assert align(labels([1, 1, 0, 0], 2), theta) == (1, 0)


def test_align_matches_bruteforce_k3():
    rng = spawn(23, 0)
    for _ in range(25):
        a = labels(rng.integers(0, 3, 12), 3)
        b = labels(rng.integers(0, 3, 12), 3)
        sigma = align(a, b)
        brute = brute_align(a.labels, b.labels, 3)
        cost = np.count_nonzero(np.asarray(sigma)[a.labels] != b.labels)
        brute_cost = np.count_nonzero(np.asarray(brute)[a.labels] != b.labels)
        assert cost == brute_cost


def test_align_lexicographic_tie_break():
    # Both permutations have the same cost on this instance.
    a = labels([0, 1], 2)
    b = labels([0, 0], 2)
    assert align(a, b) == (0, 1)


def test_losses_match_bruteforce():
    rng = spawn(29, 0)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 13))
        a = rng.integers(0, k, n)
        b = rng.integers(0, k, n)
        if len(set(b)) < k:
            b[:k] = np.arange(k)
        la, lb = labels(a, k), labels(b, k)
        assert loss_overall(la, lb) == pytest.approx(brute_loss_overall(a, b, k))
        assert loss_worst_case(la, lb) == pytest.approx(brute_loss_worst(b=b, a=a, k=k))


def test_overall_loss_symmetry():
    rng = spawn(31, 0)
    for _ in range(30):
        a = labels(rng.integers(0, 3, 9), 3)
        b = labels(rng.integers(0, 3, 9), 3)
        assert loss_overall(a, b) == pytest.approx(loss_overall(b, a))


def test_triangle_inequality_exhaustive_small():
    # L satisfies the triangle inequality; exhaustive on n=4, k=2 and random
    # triples for n <= 8, k <= 3.
    k, n = 2, 4
    all_labels = list(itertools.product(range(k), repeat=n))
    las = [labels(list(t), k) for t in all_labels]
    for a in las[:8]:
        for b in las:
            for c in las[::3]:
                assert loss_overall(a, c) <= loss_overall(a, b) + loss_overall(b, c) + 1e-12
    rng = spawn(37, 0)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        a, b, c = (labels(rng.integers(0, 3, n), 3) for _ in range(3))
        assert loss_overall(a, c) <= loss_overall(a, b) + loss_overall(b, c) + 1e-12


def test_worst_case_at_most_k_times_overall_when_balanced():
    rng = spawn(41, 0)
    for _ in range(100):
        k = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        n = k * m
        theta = labels(np.repeat(np.arange(k), m), k)
        hat = labels(rng.integers(0, k, n), k)
        assert loss_worst_case(hat, theta) <= k * loss_overall(hat, theta) + 1e-12


def test_loss_report_and_relabel():
    theta = labels([0, 0, 1, 1], 2)
    hat = labels([1, 1, 0, 0], 2)
    overall, worst = loss_overall(hat, theta), loss_worst_case(hat, theta)
    assert overall == 0.0 and worst == 0.0
    assert 0 <= overall <= worst <= 2
    assert np.array_equal(relabel(hat, align(hat, theta)).labels, theta.labels)
