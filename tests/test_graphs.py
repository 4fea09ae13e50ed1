import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nodedp import (
    Graph,
    LabelAssignment,
    SbmParams,
    WeightedGraph,
    WeightModel,
    balanced_labels,
    max_degree,
    read_graph,
    sample_sbm,
    sample_weighted_sbm,
    thin_graph,
    write_graph,
)
from nodedp.graphs import adjacency_squared, memo, read_labels, write_labels
from nodedp.rng import spawn


def complete_graph(n):
    return Graph(n, np.ones((n, n), dtype=np.uint8) - np.eye(n, dtype=np.uint8))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]]))  # not symmetric
    with pytest.raises(ValueError):
        Graph(2, np.array([[1, 0], [0, 0]]))  # diagonal
    g = complete_graph(4)
    assert not g.adj.flags.writeable


def test_label_assignment_membership():
    theta = LabelAssignment(np.array([0, 1, 1, 0]), 2)
    m = theta.to_membership()
    assert m.shape == (4, 2)
    assert np.all(m.sum(axis=1) == 1)
    assert list(theta.counts()) == [2, 2]


def test_sbm_params_validation():
    with pytest.raises(ValueError):
        SbmParams(n=10, k=3, B=np.full((3, 3), 0.5))  # n not divisible
    with pytest.raises(ValueError):
        SbmParams(n=9, k=3, B=np.zeros((3, 3)))  # entries outside (0, 1]
    unbalanced = LabelAssignment(np.array([0] * 7 + [1] * 3), 2)
    with pytest.raises(ValueError):
        SbmParams(n=10, k=2, B=np.full((2, 2), 0.5), theta=unbalanced)


def test_sbm_density_warning():
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SbmParams(n=100, k=2, B=np.array([[0.05, 0.01], [0.01, 0.05]]))
    assert any("density" in str(w.message) for w in caught)


def test_sbm_density_warning_points_at_the_caller():
    with pytest.warns(UserWarning, match="SBM density below the analysis floor") as caught:
        SbmParams(n=100, k=2, B=np.array([[0.05, 0.01], [0.01, 0.05]]))
    assert [w.filename for w in caught] == [__file__]


def test_sample_sbm_all_ones_gives_complete_graph():
    params = SbmParams(n=8, k=2, B=np.ones((2, 2)))
    g = sample_sbm(params, 0)
    assert g.edge_count() == 8 * 7 // 2


def test_sample_sbm_symmetry_and_diagonal():
    params = SbmParams(n=40, k=2, B=np.array([[0.6, 0.2], [0.2, 0.6]]))
    for seed in range(5):
        g = sample_sbm(params, seed)
        assert np.array_equal(g.adj, g.adj.T)
        assert np.all(np.diag(g.adj) == 0)


def test_sample_sbm_mean_degree():
    # n=200, k=2, B=[[0.3,0.05],[0.05,0.3]]: expected mean degree
    # 99*0.3 + 100*0.05 = 34.7; empirical mean over 100 seeds within +-1.0.
    params = SbmParams(n=200, k=2, B=np.array([[0.3, 0.05], [0.05, 0.3]]))
    means = [sample_sbm(params, spawn(5, s)).degrees().mean() for s in range(100)]
    assert abs(np.mean(means) - 34.7) < 1.0


def test_degree_concentration():
    # All degrees < 2d in >= 99 of 100 seeds at n=400 with d >= 25 log n.
    params = SbmParams(n=400, k=2, B=np.array([[0.4, 0.1], [0.1, 0.4]]))
    d = params.d
    assert d >= 25 * np.log(400)
    good = sum(
        max_degree(sample_sbm(params, spawn(7, s))) < 2 * d for s in range(100)
    )
    assert good >= 99


def test_weighted_point_mass_equals_unweighted():
    params = SbmParams(
        n=30,
        k=2,
        B=np.array([[0.5, 0.2], [0.2, 0.5]]),
        weight_model=WeightModel(means=np.ones((2, 2)), scale=0.0),
    )
    w = sample_weighted_sbm(params, 3)
    g = sample_sbm(params, 3)
    assert np.array_equal(w.binarize().adj, g.adj)
    assert np.array_equal(w.weights, g.as_float())


def test_weighted_gaussian_weight_mean():
    # Present-edge weight mean (within-community block) over resamples within
    # 3 standard errors of mu.
    mu = 1.5
    scale = 0.5
    wm = WeightModel(means=np.array([[mu, mu / 3], [mu / 3, mu]]), scale=scale)
    params = SbmParams(
        n=20,
        k=2,
        B=np.ones((2, 2)),  # complete graph: every edge present
        weight_model=wm,
    )
    same = params.theta.labels[:, None] == params.theta.labels[None, :]
    iu = np.triu_indices(20, 1)
    draws = []
    for s in range(200):
        w = sample_weighted_sbm(params, spawn(11, s))
        draws.extend(w.weights[iu][same[iu]])
    draws = np.asarray(draws)
    se = scale / np.sqrt(draws.size)
    assert abs(draws.mean() - mu) < 3 * se
    # Absent edge => weight exactly 0.
    params2 = SbmParams(n=20, k=2, B=np.full((2, 2), 0.2) + 0.3 * np.eye(2),
                        weight_model=wm)
    w2 = sample_weighted_sbm(params2, 0)
    assert np.all(w2.weights[w2.binarize().adj == 0] == 0)


def test_weighted_requires_semidefinite_means():
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-1
    params = SbmParams(
        n=8, k=2, B=np.full((2, 2), 0.5),
        weight_model=WeightModel(means=bad, scale=0.1),
    )
    with pytest.raises(ValueError, match="PSD or NSD"):
        sample_weighted_sbm(params, 0)


def test_thin_graph_identity_and_empty():
    g = complete_graph(10)
    (only,) = thin_graph(g, 1, 0)
    assert np.array_equal(only.adj, g.adj)
    empty = Graph(10, np.zeros((10, 10), dtype=np.uint8))
    for sub in thin_graph(empty, 4, 0):
        assert sub.edge_count() == 0
    with pytest.raises(ValueError):
        thin_graph(g, 0, 0)


def test_thin_graph_expected_edge_count():
    # Complete graph on n=100, T=5: expected edges per subgraph = 4950/5 = 990,
    # empirical mean over 200 seeds within +-30.
    g = complete_graph(100)
    counts = []
    for s in range(40):  # 40 seeds x 5 subgraphs = 200 subgraph draws
        counts.extend(sub.edge_count() for sub in thin_graph(g, 5, spawn(13, s)))
    assert abs(np.mean(counts) - 990.0) < 30.0


def test_thin_graph_marginal_law():
    # Each subgraph behaves like an SBM with probability matrix B/T: the
    # empirical within/between edge frequencies sit within 3 sigma.
    params = SbmParams(n=60, k=2, B=np.array([[0.6, 0.3], [0.3, 0.6]]))
    T = 3
    within_trials = within_hits = 0
    between_trials = between_hits = 0
    same = params.theta.labels[:, None] == params.theta.labels[None, :]
    iu = np.triu_indices(60, 1)
    same_u = same[iu]
    for s in range(50):
        g = sample_sbm(params, spawn(17, s, 0))
        for sub in thin_graph(g, T, spawn(17, s, 1)):
            vals = sub.adj[iu]
            within_hits += int(vals[same_u].sum())
            within_trials += int(same_u.sum())
            between_hits += int(vals[~same_u].sum())
            between_trials += int((~same_u).sum())
    for hits, trials, p in (
        (within_hits, within_trials, 0.6 / T),
        (between_hits, between_trials, 0.3 / T),
    ):
        sigma = np.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 3 * sigma


def test_max_degree():
    assert max_degree(Graph(5, np.zeros((5, 5), dtype=np.uint8))) == 0
    assert max_degree(complete_graph(6)) == 5
    path = np.zeros((3, 3), dtype=np.uint8)
    path[0, 1] = path[1, 0] = path[1, 2] = path[2, 1] = 1
    assert max_degree(Graph(3, path)) == 2


def test_graph_file_roundtrip(tmp_path):
    params = SbmParams(n=25, k=5, B=np.full((5, 5), 0.4) + 0.2 * np.eye(5))
    g = sample_sbm(params, 1)
    path = tmp_path / "g.graph"
    write_graph(path, g)
    assert read_graph(path).adj.tolist() == g.adj.tolist()

    wm = WeightModel(means=np.full((5, 5), 1.0), scale=0.3)
    wparams = SbmParams(n=25, k=5, B=params.B, weight_model=wm)
    w = sample_weighted_sbm(wparams, 1)
    wpath = tmp_path / "w.graph"
    write_graph(wpath, w)
    back = read_graph(wpath)
    assert isinstance(back, WeightedGraph)
    assert np.allclose(back.weights, w.weights)

    lpath = tmp_path / "g.labels"
    write_labels(lpath, params.theta)
    assert np.array_equal(read_labels(lpath).labels, params.theta.labels)


def test_balanced_labels():
    theta = balanced_labels(12, 3)
    assert list(theta.counts()) == [4, 4, 4]
    with pytest.raises(ValueError):
        balanced_labels(10, 3)


def test_memo_computes_once_per_key_on_success_only():
    g, other = complete_graph(4), complete_graph(4)
    calls = []

    def compute():
        calls.append(1)
        return np.arange(3.0), 2.0

    first = memo(g, "key", compute)
    assert memo(g, "key", compute) is first and len(calls) == 1
    assert not first[0].flags.writeable
    memo(g, "other key", compute)
    memo(other, "key", compute)
    assert len(calls) == 3

    def fail():
        calls.append(1)
        raise RuntimeError("no result")

    for _ in range(2):
        with pytest.raises(RuntimeError):
            memo(g, "failing", fail)
    assert len(calls) == 5


def test_memo_computes_once_across_threads():
    # The first caller holds the compute on an event while a second thread
    # asks for the same key: it waits, then gets the first value. After a
    # failing first compute, the waiting caller computes the key itself.
    for first_fails in (False, True):
        g = complete_graph(4)
        started, release = threading.Event(), threading.Event()
        calls, got = [], {}

        def compute():
            calls.append(threading.current_thread().name)
            if len(calls) == 1:
                started.set()
                assert release.wait(10)
                if first_fails:
                    raise RuntimeError("first compute fails")
            return np.arange(3.0)

        def call(name):
            try:
                got[name] = memo(g, "key", compute)
            except RuntimeError as err:
                got[name] = err

        first = threading.Thread(target=call, args=("first",), name="first")
        first.start()
        assert started.wait(10)
        second = threading.Thread(target=call, args=("second",), name="second")
        second.start()
        second.join(0.2)
        assert second.is_alive()  # waiting on the key, not computing
        release.set()
        first.join(10)
        second.join(10)
        if first_fails:
            assert calls == ["first", "second"]
            assert isinstance(got["first"], RuntimeError)
            assert np.array_equal(got["second"], np.arange(3.0))
        else:
            assert calls == ["first"]
            assert got["second"] is got["first"]
    # More threads than cores, switching often: still one compute.
    g, calls = complete_graph(4), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(
                lambda _: memo(g, "key", lambda: calls.append(1) or np.arange(3.0)), range(64)))
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 1 and all(value is got[0] for value in got)


def test_adjacency_squared_exact_read_only_and_memoised():
    g = sample_sbm(SbmParams(n=60, k=2, B=np.array([[0.5, 0.1], [0.1, 0.5]])), spawn(7, 0))
    A2 = adjacency_squared(g)
    A = g.adj.astype(np.int64)
    assert np.array_equal(A2, (A @ A).astype(np.float64))
    assert not A2.flags.writeable
    assert adjacency_squared(g) is A2
