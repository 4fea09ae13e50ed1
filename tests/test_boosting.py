import itertools
from collections import Counter

import numpy as np
import pytest

from nodedp import (
    BoostConfig,
    BoundedDegreeEstimator,
    LabelAssignment,
    SbmParams,
    graph_boost,
    hgr_thinned_bernoulli,
    loss_overall,
    sample_sbm,
)
from nodedp.accounting import approx_dp, pure_dp, zcdp
from nodedp.boosting import _majority_vote
from nodedp.graphs import thin_graph
from nodedp.estimators import EstimatorOutput
from nodedp.metrics import align, relabel
from nodedp.rng import as_generator, spawn

from oracles import batch_of, boost_select_ref, majority_vote_ref


def pure(eps, delta):
    return pure_dp(eps)


def const_base(labels, guarantee=pure):
    def run(graph, eps, delta, seed, noise_off=False):
        return EstimatorOutput(labels=labels, budget=[], diagnostics={})

    return BoundedDegreeEstimator("const", batch_of(run), guarantee)


def corrupting_base(theta, flips, seen=None):
    """Returns the truth with `flips` uniformly chosen nodes moved to another
    label, drawn uniformly; appends each output's labels to `seen`."""

    def run(graph, eps, delta, seed, noise_off=False):
        rng = as_generator(seed)
        lab = theta.labels.copy()
        idx = rng.choice(lab.size, size=flips, replace=False)
        lab[idx] = (lab[idx] + rng.integers(1, theta.k, size=flips)) % theta.k
        est = LabelAssignment(lab, theta.k)
        if seen is not None:
            seen.append(est)
        return EstimatorOutput(labels=est, budget=[], diagnostics={})

    return BoundedDegreeEstimator("corrupt", batch_of(run), pure)


def test_boost_config_validation():
    with pytest.raises(ValueError):
        BoostConfig(T=4, xi=0.01, k=2)  # even T
    with pytest.raises(ValueError):
        BoostConfig(T=3, xi=0.2, k=2)  # xi >= 1/(8k)
    BoostConfig(T=3, xi=0.05, k=2)


def test_boost_T1_equals_base():
    params = SbmParams(n=40, k=2, B=np.array([[0.6, 0.2], [0.2, 0.6]]))
    g = sample_sbm(params, 0)
    theta = params.theta
    base = const_base(theta)
    cfg = BoostConfig(T=1, xi=0.05, k=2)
    out = graph_boost(g, cfg, base, eps=1.0, delta=0.0, seed=11)
    assert loss_overall(out.labels, theta) == 0.0
    assert out.budget[0].eps == pytest.approx(1.0)


def test_boost_identical_outputs_pass_through():
    params = SbmParams(n=30, k=2, B=np.full((2, 2), 0.4) + 0.2 * np.eye(2))
    g = sample_sbm(params, 1)
    fixed = LabelAssignment(np.repeat([1, 0], 15), 2)
    cfg = BoostConfig(T=5, xi=0.05, k=2)
    out = graph_boost(g, cfg, const_base(fixed, approx_dp), eps=0.5,
                      delta=1e-7, seed=13)
    assert np.array_equal(out.labels.labels, fixed.labels)
    # Budget multiplies by T for both parameters (basic composition).
    assert out.budget[0].eps == pytest.approx(2.5)
    assert out.budget[0].delta == pytest.approx(5e-7)
    pure_out = graph_boost(g, cfg, const_base(fixed), eps=0.5, delta=0.0, seed=13)
    assert pure_out.budget[0].kind == "pure"
    assert pure_out.budget[0].eps == pytest.approx(2.5)


def test_boost_composes_a_zcdp_run_to_T_rho():
    params = SbmParams(n=30, k=2, B=np.full((2, 2), 0.4) + 0.2 * np.eye(2))
    g = sample_sbm(params, 1)
    fixed = LabelAssignment(np.repeat([1, 0], 15), 2)
    out = graph_boost(g, BoostConfig(T=5, xi=0.05, k=2),
                      const_base(fixed, lambda e, d: zcdp(0.03)), eps=0.5, delta=1e-7, seed=13)
    assert len(out.budget) == 1
    assert out.budget[0].kind == "zcdp"
    assert out.budget[0].rho == pytest.approx(5 * 0.03, rel=1e-12)


def test_boost_bot_failure_is_typed():
    # Base alternates between two far-apart labelings depending on its seed,
    # so no index is within 2 xi of a majority.
    params = SbmParams(n=32, k=2, B=np.full((2, 2), 0.4) + 0.2 * np.eye(2))
    g = sample_sbm(params, 2)
    state = {"i": 0}

    def run(graph, eps, delta, seed, noise_off=False):
        state["i"] += 1
        # Cycle through pairwise-distant labelings.
        lab = np.roll(np.repeat([0, 1], 16), state["i"] * 3) ^ (state["i"] % 2)
        return EstimatorOutput(labels=LabelAssignment(lab, 2), budget=[],
                               diagnostics={})

    base = BoundedDegreeEstimator("adversarial", batch_of(run), pure)
    cfg = BoostConfig(T=5, xi=0.001, k=2)
    out = graph_boost(g, cfg, base, eps=1.0, delta=0.0, seed=17)
    assert out.failed
    assert out.diagnostics["failure"] == "no-majority-witness"


def test_boost_error_bound_with_corrupting_base():
    # With few flips per sub-estimate, the premise holds and the boosted
    # worst-case loss respects the xi*T bound trial by trial. The labels are a
    # per-node loop's votes over the estimates aligned to the witness; at k = 3
    # a node moved to two different labels ties its row, which the witness breaks.
    from nodedp import loss_worst_case

    for k, n, T, xi, flips in ((2, 200, 11, 0.06, 2), (3, 600, 3, 0.041, 12)):
        params = SbmParams(n=n, k=k, B=np.full((k, k), 0.05) + 0.25 * np.eye(k))
        theta = params.theta
        cfg = BoostConfig(T=T, xi=xi, k=k)
        checked = ties = 0
        for trial in range(20):
            g = sample_sbm(params, spawn(19, trial, 0))
            seen = []
            base = corrupting_base(theta, flips=flips, seen=seen)
            out = graph_boost(g, cfg, base, eps=0.1, delta=0.0,
                              seed=int(spawn(19, trial, 1).integers(2**31)))
            assert not out.failed
            assert loss_worst_case(out.labels, theta) <= cfg.xi * cfg.T + 1e-12
            j_star = out.diagnostics["j_star"]
            votes = np.stack([relabel(e, align(e, seen[j_star])).labels for e in seen])
            assert np.array_equal(out.labels.labels,
                                  majority_vote_ref(votes, votes[j_star], k))
            counts = np.stack([np.bincount(col, minlength=k) for col in votes.T])
            ties += int(((counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
            checked += 1
        assert checked == 20
        assert ties > 0 if k == 3 else ties == 0


def test_witness_selection_matches_per_pair_reference():
    # Each sub-run fails with probability 0.02, else moves up to `spread` of
    # the first 3 nodes and permutes the labels, all drawn from its own stream:
    # some runs have fewer witnesses than T, some none, and at k >= 3 some rows
    # tie. The reference draws its witness from spawn(seed, 0) after thinning.
    outcomes = Counter()
    for T, k in itertools.product((1, 3, 5, 7, 9), (2, 3, 4)):
        params = SbmParams(n=48, k=k, B=np.full((k, k), 0.1) + 0.4 * np.eye(k))
        theta = params.theta
        g = sample_sbm(params, spawn(197, T, k))
        for case, (spread, share) in enumerate(((1, 0.9), (3, 0.9), (3, 0.4))):
            xi = share / (8 * k)
            seed = 100 * T + 10 * k + case
            seen = []

            def run(graph, eps, delta, s, noise_off=False):
                rng = as_generator(s)
                if rng.random() < 0.02:
                    seen.append(None)
                    return EstimatorOutput(labels=None, budget=[], diagnostics={})
                lab = theta.labels.copy()
                flips = int(rng.integers(spread + 1))
                idx = rng.choice(3, size=flips, replace=False)
                lab[idx] = (lab[idx] + rng.integers(1, k, size=flips)) % k
                seen.append(rng.permutation(k)[lab])
                return EstimatorOutput(labels=LabelAssignment(seen[-1], k), budget=[],
                                       diagnostics={})

            out = graph_boost(g, BoostConfig(T=T, xi=xi, k=k),
                              BoundedDegreeEstimator("noisy", batch_of(run), pure),
                              eps=1.0, delta=0.0, seed=seed)
            rng = spawn(seed, 0)
            thin_graph(g, T, rng)
            labels, diagnostics = boost_select_ref(seen, xi, k, rng)
            assert {key: v for key, v in out.diagnostics.items() if key != "noise_off"} \
                == diagnostics
            if labels is None:
                assert out.labels is None
                outcomes[diagnostics["failure"]] += 1
                continue
            assert np.array_equal(out.labels.labels, labels)
            outcomes["fewer witnesses than T"] += diagnostics["valid_witnesses"] < T
            estimates = [LabelAssignment(lab, k) for lab in seen]
            witness = estimates[diagnostics["j_star"]]
            votes = np.stack([relabel(e, align(e, witness)).labels for e in estimates])
            counts = np.stack([np.bincount(col, minlength=k) for col in votes.T])
            outcomes[f"row ties at k={k}"] += int(
                ((counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1).any())
    assert outcomes["no-majority-witness"] and outcomes["base-estimator-failure"]
    assert outcomes["fewer witnesses than T"]
    assert outcomes["row ties at k=3"] and outcomes["row ties at k=4"]


def test_majority_vote_matches_per_node_loop():
    # Few labels over many rows: every kind of row tie, with the witness's
    # label among the winners or not.
    rng = spawn(191, 0)
    for case in range(60):
        k, T, n = int(rng.integers(2, 6)), int(rng.integers(1, 8)), int(rng.integers(1, 50))
        votes = rng.integers(k, size=(T, n))
        witness = votes[int(rng.integers(T))]
        assert np.array_equal(_majority_vote(votes, witness, k),
                              majority_vote_ref(votes, witness, k))


def test_hgr_closed_form_points():
    assert hgr_thinned_bernoulli(0.3, 1.0) == 0.0
    assert hgr_thinned_bernoulli(0.5, 0.5) == pytest.approx(1.0 / 3.0)
    assert hgr_thinned_bernoulli(0.0, 0.4) == 0.0
    with pytest.raises(ValueError):
        hgr_thinned_bernoulli(1.0, 1.0)
    with pytest.raises(ValueError):
        hgr_thinned_bernoulli(1.2, 0.5)


def test_hgr_matches_empirical_correlation_single_point():
    p, q = 0.4, 0.6
    rng = spawn(23, 0)
    z = rng.random(100_000) < q
    r1 = rng.random(100_000) < p
    r2 = rng.random(100_000) < p
    x, y = z * r1, z * r2
    emp = np.corrcoef(x, y)[0, 1]
    assert abs(emp - hgr_thinned_bernoulli(p, q)) < 0.02
