import warnings

import numpy as np
import pytest
import nodedp.clustering
from nodedp import (
    LabelAssignment,
    SbmParams,
    approx_kmeans,
    debias_flip,
    edge_flip,
    loss_overall,
    sample_sbm,
    sym_eigs,
)
from nodedp.clustering import _kmeans_pp_seed, _lanczos, _lloyd_restarts
from nodedp.rng import spawn

from oracles import (
    approx_kmeans_ref,
    kmeans_pp_init_ref,
    lloyd_ref,
    power_iteration_eigs,
    sym_eigs_ref,
)


def test_sym_eigs_diag_by_abs():
    # The eigenvalues sit within a few ulps of the diagonal, in order.
    vals, vecs = sym_eigs(np.diag([3.0, -5.0, 1.0]), 2, by_abs=True)
    assert vals.tolist() == pytest.approx([-5.0, 3.0], rel=1e-14)
    assert np.abs(vecs) == pytest.approx(np.eye(3)[:, [1, 0]], abs=1e-14)
    vals2, _ = sym_eigs(np.diag([3.0, -5.0, 1.0]), 2, by_abs=False)
    assert vals2.tolist() == pytest.approx([3.0, 1.0], rel=1e-14)


def test_sym_eigs_identity():
    vals, vecs = sym_eigs(np.eye(4), 1)
    assert vals[0] == pytest.approx(1.0)
    assert np.linalg.norm(vecs[:, 0]) == pytest.approx(1.0)


def test_sym_eigs_residual_and_oracle():
    rng = spawn(139, 0)
    M = rng.standard_normal((50, 50))
    M = (M + M.T) / 2.0
    vals, vecs = sym_eigs(M, 5, by_abs=True)
    norm = np.linalg.norm(M, 2)
    for lam, v in zip(vals, vecs.T):
        assert np.linalg.norm(M @ v - lam * v) <= 1e-8 * norm
    ovals, ovecs = power_iteration_eigs(M, 5, seed=1)
    assert np.allclose(np.sort(np.abs(vals)), np.sort(np.abs(ovals)), atol=1e-6)
    for lam, v in zip(vals, vecs.T):
        j = int(np.argmin(np.abs(ovals - lam)))
        assert abs(abs(v @ ovecs[:, j]) - 1.0) < 1e-5


def test_sym_eigs_guards():
    with pytest.raises(ValueError):
        sym_eigs(np.eye(3), 4)
    with pytest.raises(ValueError):
        sym_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def _assert_matches_eigh(M, k, by_abs=True):
    """sym_eigs against the full-eigh oracle, issuing no RuntimeWarning:
    eigenvalues to 1e-10 relative and |<v, v_ref>| >= 1 - 1e-10."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals, vecs = sym_eigs(M, k, by_abs=by_abs)
    ref_vals, ref_vecs = sym_eigs_ref(M, k, by_abs)
    assert np.all(np.abs(vals - ref_vals) <= 1e-10 * np.abs(ref_vals))
    assert np.all(np.abs(np.sum(vecs * ref_vecs, axis=0)) >= 1.0 - 1e-10)
    return vals, vecs


def test_sym_eigs_near_degenerate_edge_flip_matrix():
    # At flip eps = 0.3 the debiased noise swamps the two-block signal: the top
    # |lambda| are bulk-edge eigenvalues a few percent apart.
    params = SbmParams(n=400, k=2, B=np.array([[0.3, 0.05], [0.05, 0.3]]))
    flipped = edge_flip(sample_sbm(params, spawn(211, 0)), 0.3, spawn(211, 1))
    M = debias_flip(flipped.as_float(), 0.3)
    top = np.sort(np.abs(np.linalg.eigvalsh(M)))[::-1][:4]
    assert top[3] > 0.95 * top[0]
    _assert_matches_eigh(M, 2)


def test_sym_eigs_recentred_two_community_matrix():
    n = 300
    params = SbmParams(n=n, k=2, B=np.array([[0.62, 0.1], [0.1, 0.62]]))
    A = sample_sbm(params, spawn(212, 0)).as_float()
    Y = (2.0 / (n * 0.52)) * (A - (0.72 / n) * np.ones((n, n)))
    for by_abs in (False, True):
        _assert_matches_eigh(Y, 1, by_abs)


def test_sym_eigs_top_vector_orthogonal_to_ones():
    # Rows 0 and 1 mirror each other, so the top eigenvector (e0 - e1)/sqrt(2),
    # eigenvalue 4, is orthogonal to every vector with equal entries 0 and 1,
    # and a Krylov space grown from the all-ones vector holds only such
    # vectors. Lanczos starts from a random vector instead, and certifies 4
    # itself, without the dense branch.
    n = 40
    M = np.diag(np.linspace(0.0, 3.0, n))
    M[0, 0] = M[1, 1] = 2.0
    M[0, 1] = M[1, 0] = -2.0
    assert _lanczos(M, 1, by_abs=False)[0] == pytest.approx([4.0], rel=1e-12)
    for k in (1, 2):
        for by_abs in (False, True):
            vals, vecs = _assert_matches_eigh(M, k, by_abs)
            assert vals[0] == pytest.approx(4.0)
            assert abs(vecs[0, 0] + vecs[1, 0]) < 1e-12


def test_sym_eigs_keeps_a_repeated_eigenvalue_among_the_top_k():
    # Disjoint copies of one G(20, 0.3) graph: every eigenvalue is repeated.
    # A single start vector sees one copy of each, so its Krylov space would
    # certify the top eigenvalue once and then the next distinct one; a block
    # of k start vectors sees every copy among the top k. The eigenvectors of
    # a repeated eigenvalue are not unique, so they are checked by residual.
    rng = np.random.default_rng(3)
    a = np.triu(rng.random((20, 20)) < 0.3, 1).astype(float)
    a = a + a.T
    for copies, k in ((2, 2), (4, 2), (3, 3)):
        M = np.kron(np.eye(copies), a)
        for by_abs in (False, True):
            ref_vals, _ = sym_eigs_ref(M, k, by_abs)
            assert ref_vals[0] == pytest.approx(ref_vals[1], rel=1e-12)
            for vals, vecs in (_lanczos(M, k, by_abs), sym_eigs(M, k, by_abs)):
                assert np.all(np.abs(vals - ref_vals) <= 1e-10 * np.abs(ref_vals))
                assert np.abs(vecs.T @ vecs - np.eye(k)).max() < 1e-12
                assert np.abs(M @ vecs - vecs * vals).max() < 1e-9 * np.abs(vals).max()


def test_sym_eigs_certifies_every_wanted_pair():
    # The top eigenvalue, 10, stands far off and its pair converges in a few
    # steps; the second, 1, sits 0.1 from the third and the bulk, so its pair
    # takes many more. Lanczos must not stop when the first pair is certified.
    n = 120
    Q = np.linalg.qr(spawn(216, 0).standard_normal((n, n)))[0]
    M = (Q * np.concatenate(([10.0, 1.0, 0.9], np.linspace(-0.9, 0.9, n - 3)))) @ Q.T
    M = (M + M.T) / 2.0
    for by_abs in (False, True):
        assert _lanczos(M, 2, by_abs) is not None
        _assert_matches_eigh(M, 2, by_abs)


def test_sym_eigs_by_abs_certifies_plus_minus_pairs_and_a_negative_top():
    # By |lambda|, Lanczos runs on M^2, where lambda and -lambda are one
    # eigenvalue; in exact arithmetic a Krylov space of M^2 holds one
    # direction of their plane per start vector. Each case must be certified
    # by _lanczos itself, without the dense branch:
    # - a bipartite graph, every eigenvalue in a +-pair, at k = 1 and k = 2.
    #   Rounding breaks the tie of lambda_max and -lambda_min, in the
    #   reference as here, so k = 1 compares |lambda| and k = 2 the pair in
    #   sorted order;
    # - a largest |lambda| that is negative: -10 beside 9.99, and a negated
    #   SBM adjacency matrix.
    rng = spawn(217, 0)
    cross = (rng.random((70, 50)) < 0.2).astype(float)
    bipartite = np.block([[np.zeros((70, 70)), cross], [cross.T, np.zeros((50, 50))]])
    n = 120
    Q = np.linalg.qr(spawn(217, 1).standard_normal((n, n)))[0]
    near = (Q * np.concatenate(([-10.0, 9.99, -5.0], np.linspace(-4.0, 4.0, n - 3)))) @ Q.T
    near = (near + near.T) / 2.0
    sbm = sample_sbm(SbmParams(n=n, k=2, B=np.array([[0.4, 0.1], [0.1, 0.4]])),
                     spawn(217, 2)).as_float()
    for M, k, tied in ((bipartite, 1, True), (bipartite, 2, True), (near, 1, False),
                       (near, 2, False), (-sbm, 1, False), (-sbm, 2, False)):
        ref_vals, _ = sym_eigs_ref(M, k)
        lanczos = _lanczos(M, k, by_abs=True)
        assert lanczos is not None
        got = sym_eigs(M, k, by_abs=True)
        assert all(_same_bits(a, b) for a, b in zip(got, lanczos))
        vals, vecs = got
        if tied:
            vals, ref_vals = (np.abs(vals), np.abs(ref_vals)) if k == 1 else (np.sort(vals),
                                                                             np.sort(ref_vals))
        else:
            assert ref_vals[0] < 0
        assert np.all(np.abs(vals - ref_vals) <= 1e-10 * np.abs(ref_vals))
        residual = np.linalg.norm(M @ got[1] - got[1] * got[0], axis=0)
        assert residual.max() <= 1e-10 * np.abs(got[0]).max()


def test_sym_eigs_zero_matrix_takes_the_dense_branch():
    # Every Lanczos step breaks down (each vector maps to zero), so no Krylov
    # space short of the whole space is checked, and Lanczos certifies nothing.
    for by_abs in (False, True):
        assert _lanczos(np.zeros((6, 6)), 2, by_abs) is None
    for by_abs in (False, True):
        got, ref = sym_eigs(np.zeros((6, 6)), 2, by_abs), sym_eigs_ref(np.zeros((6, 6)), 2, by_abs)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_sym_eigs_dense_branch_only_at_k_equal_n(monkeypatch):
    rng = spawn(213, 0)
    Q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    M = (Q * np.arange(1.0, 13.0)) @ Q.T
    M = (M + M.T) / 2.0
    calls = []
    monkeypatch.setattr(nodedp.clustering, "_lanczos",
                        lambda M, k, by_abs: calls.append(k) or _lanczos(M, k, by_abs))
    got = _assert_matches_eigh(M, 12)
    assert calls == []
    assert all(np.array_equal(a, b) for a, b in zip(got, sym_eigs_ref(M, 12)))
    _assert_matches_eigh(M, 11)
    assert calls == [11]


def test_sym_eigs_falls_back_to_eigh_without_convergence(monkeypatch):
    monkeypatch.setattr(nodedp.clustering, "_lanczos", lambda M, k, by_abs: None)  # uncertified
    M = sample_sbm(SbmParams(n=60, k=2, B=np.array([[0.5, 0.1], [0.1, 0.5]])),
                   spawn(214, 0)).as_float()
    for by_abs in (False, True):
        got, ref = sym_eigs(M, 2, by_abs), sym_eigs_ref(M, 2, by_abs)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_sym_eigs_is_deterministic_and_leaves_global_state_alone():
    M = sample_sbm(SbmParams(n=200, k=2, B=np.array([[0.5, 0.1], [0.1, 0.5]])),
                   spawn(215, 0)).as_float()
    before = np.random.get_state()
    first = sym_eigs(M, 2)
    second = sym_eigs(M, 2)
    after = np.random.get_state()
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


def test_kmeans_exact_on_k_distinct_rows():
    points = np.repeat(np.eye(3), [5, 7, 4], axis=0)
    labels, centers, cost = approx_kmeans(points, 3, seed=0)
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert len(set(labels.labels[:5])) == 1
    assert len(set(labels.labels[5:12])) == 1


def test_kmeans_single_cluster_identical_points():
    points = np.ones((6, 2))
    labels, centers, cost = approx_kmeans(points, 1, seed=0)
    assert cost == pytest.approx(0.0)
    assert np.all(labels.labels == 0)


def test_kmeans_planted_gaussians():
    # Three well-separated Gaussians (separation 10 sigma): perfect recovery
    # over 20 seeds after permutation alignment.
    sigma = 0.1
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    truth = LabelAssignment(np.repeat(np.arange(3), 10), 3)
    for seed in range(20):
        rng = spawn(149, seed)
        pts = centers[truth.labels] + sigma * rng.standard_normal((30, 2))
        labels, _, _ = approx_kmeans(pts, 3, restarts=20, seed=rng)
        assert loss_overall(labels, truth) == 0.0


def test_kmeans_guards():
    with pytest.raises(ValueError):
        approx_kmeans(np.zeros((2, 2)), 3, seed=0)
    with pytest.raises(ValueError):
        approx_kmeans(np.zeros((5, 2)), 2, restarts=0, seed=0)


def test_lloyd_cost_monotone():
    rng = spawn(151, 0)
    pts = rng.standard_normal((40, 3))
    centers = pts[rng.choice(40, 4, replace=False)].copy()
    costs = []
    cur = centers
    for _ in range(8):
        _, cur, cost = _lloyd_restarts(pts[None], cur[None, None], 1)
        cur = cur[0, 0]
        costs.append(float(cost[0, 0]))
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_matches_reference(points, k, restarts, path, exact=True):
    """approx_kmeans against the sequential reference, both drawing from
    spawn(*path): labels, centers, cost and the generator's next draw. With
    exact=False (d = 1 or d >= 8, where numpy adds pairwise) labels and the
    next draw must still match, and cost to 1e-12 relative. Returns the cost."""
    rng, ref_rng = spawn(*path), spawn(*path)
    labels, centers, cost = approx_kmeans(points, k, restarts=restarts, seed=rng)
    ref_labels, ref_centers, ref_cost = approx_kmeans_ref(points, k, ref_rng, restarts)
    assert np.array_equal(labels.labels, ref_labels)
    if exact:
        assert _same_bits(centers, ref_centers)
        assert _same_bits(cost, ref_cost)
    else:
        assert cost == pytest.approx(ref_cost, rel=1e-12, abs=1e-300)
    assert _same_bits(rng.random(), ref_rng.random())
    return cost


def test_kmeans_matches_sequential_reference_random():
    for case in range(60):
        rng = spawn(167, case)
        d, k = int(rng.integers(2, 8)), int(rng.integers(1, 6))
        n = int(rng.integers(k, 120))
        points = rng.standard_normal((n, d)) * rng.uniform(0.01, 100.0)
        _assert_matches_reference(points, k, int(rng.integers(1, 21)), (167, case, 1))


def test_kmeans_matches_sequential_reference_duplicate_rows():
    # At most k distinct rows: k-means++ runs out of mass, Lloyd meets empty
    # clusters, and the first restart already has cost 0 (integer rows, so
    # the means are exact). That restart is the result, and the stream is
    # left where the last restart's seeding left it.
    for case in range(20):
        rng = spawn(173, case)
        d, k = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        distinct = rng.integers(-5, 6, (int(rng.integers(1, k + 1)), d)).astype(float)
        points = distinct[rng.integers(len(distinct), size=int(rng.integers(k, 60)))]
        assert _assert_matches_reference(points, k, 20, (173, case, 1)) == 0.0


def test_batched_kmeans_equals_lone_calls():
    # One batch of three sets per d in 1..7, with k drawn from 2..5, and per d
    # in (1, 4) with k = 1: random rows, and two sets of at most k distinct
    # integer rows, whose Lloyd runs meet empty clusters and whose first
    # restart has cost 0. Each stream ends where its last seeding left it.
    for path in [(193, d) for d in range(1, 8)] + [(195, 1), (195, 4)]:
        rng, d = spawn(*path), path[1]
        k = int(rng.integers(2, 6)) if path[0] == 193 else 1
        n = int(rng.integers(20, 90))
        sets = [rng.standard_normal((n, d)) * rng.uniform(0.01, 100.0)]
        for _ in range(2):
            distinct = rng.integers(-5, 6, (int(rng.integers(1, k + 1)), d)).astype(float)
            sets.append(distinct[rng.integers(len(distinct), size=n)])
        batch_rngs = [spawn(*path, s) for s in range(3)]
        lone_rngs = [spawn(*path, s) for s in range(3)]
        batch = approx_kmeans(np.stack(sets), k, restarts=7, seed=batch_rngs)
        for s, (labels, centers, cost) in enumerate(batch):
            ref_labels, ref_centers, ref_cost = approx_kmeans(sets[s], k, restarts=7,
                                                              seed=lone_rngs[s])
            assert np.array_equal(labels.labels, ref_labels.labels)
            assert _same_bits(centers, ref_centers)
            assert _same_bits(cost, ref_cost)
            assert _same_bits(batch_rngs[s].random(), lone_rngs[s].random())
        assert batch[1][2] == batch[2][2] == 0.0


def test_kmeans_pp_seeding_matches_reference_bit_for_bit():
    # Per-dimension distances give np.sum's bits for d <= 7; rows drawn from a
    # few integer points also run the seeding out of mass (total <= 0). So do
    # rows on a grid of step 1e-162 (cases 70-79), where the squared distance
    # of neighbours underflows to 0 but that of rows two steps apart does
    # not, so how many centers a restart draws before it runs out depends on
    # which rows it drew.
    for case in range(80):
        rng = spawn(171, case)
        d, k = 1 + case % 7, int(rng.integers(1, 6))
        n = int(rng.integers(k, 200))
        if case >= 70:
            points = rng.integers(0, 6, size=(n, d)) * 1e-162
        elif case % 5 == 4:
            distinct = rng.integers(0, 3, size=(int(rng.integers(1, k + 1)), d)).astype(float)
            points = distinct[rng.integers(0, len(distinct), size=n)]
        else:
            points = rng.standard_normal((n, d)) * rng.uniform(0.01, 100.0)
        got_rng, ref_rng = spawn(171, case, 1), spawn(171, case, 1)
        (got,) = _kmeans_pp_seed(points[None], k, [got_rng], 2)
        for r in range(2):  # the second restart draws where the first stopped
            assert _same_bits(got[r], kmeans_pp_init_ref(points, k, ref_rng))
        assert _same_bits(got_rng.random(), ref_rng.random())


class _CountingRanOut:
    """A Generator for kmeans_pp_init_ref that counts the centers drawn after
    the mass ran out (the choice calls with uniform weights)."""

    def __init__(self, rng):
        self.rng, self.ran_out = rng, 0

    def integers(self, n):
        return self.rng.integers(n)

    def choice(self, n, p):
        self.ran_out += bool((p == 1.0 / n).all())
        return self.rng.choice(n, p=p)


def test_kmeans_pp_seeding_maps_uniforms_where_a_restart_runs_out_of_mass():
    # The default 20 restarts of two sets seeded together: rows on a grid of
    # step 1e-162, where some restarts run out of mass and others do not,
    # and rows drawn from at most k distinct points, where every restart
    # does. A restart that runs out before the last of its set maps its own
    # remaining uniforms with weights 1/n; the later restarts' centers and
    # the next draw show that it consumed exactly those.
    restarts, ran_out_early = 20, 0
    for case in range(24):
        rng = spawn(172, case)
        d, k = 1 + case % 4, int(rng.integers(2, 6))
        n = int(rng.integers(2 * k, 100))
        distinct = rng.integers(0, 3, size=(int(rng.integers(1, k + 1)), d)).astype(float)
        sets = np.stack([rng.integers(0, 6, size=(n, d)) * 1e-162,
                         distinct[rng.integers(0, len(distinct), size=n)]])
        got_rngs = [spawn(172, case, s) for s in range(2)]
        got = _kmeans_pp_seed(sets, k, got_rngs, restarts)
        for s, points in enumerate(sets):
            ref_rng = _CountingRanOut(spawn(172, case, s))
            for r in range(restarts):
                before = ref_rng.ran_out
                assert _same_bits(got[s, r], kmeans_pp_init_ref(points, k, ref_rng))
                ran_out_early += r < restarts - 1 and ref_rng.ran_out > before
            assert _same_bits(got_rngs[s].random(), ref_rng.rng.random())
    assert ran_out_early > 0


def test_lloyd_restarts_match_reference_at_max_iter_and_empty_clusters():
    # Two point sets in one batch, each re-seeding from its own rows.
    rng = spawn(179, 0)
    sets = np.stack([rng.standard_normal((300, 3)), 10.0 + rng.standard_normal((300, 3))])
    inits = np.stack([[kmeans_pp_init_ref(points, 5, rng) for _ in range(6)]
                      for points in sets])
    # Two restarts of each set start with a repeated center, so their first
    # step leaves a cluster empty and re-seeds it.
    inits[:, 4, 1] = inits[:, 4, 0]
    inits[:, 5, 2:] = inits[:, 5, :1]
    stopped_early = False
    for max_iter in (0, 1, 2, 3, 100):
        labels, centers, costs = _lloyd_restarts(sets, inits.copy(), max_iter)
        for s, points in enumerate(sets):
            for r in range(inits.shape[1]):
                ref_labels, ref_centers, ref_cost = lloyd_ref(points, inits[s, r].copy(),
                                                              max_iter)
                assert _same_bits(labels[s, r], ref_labels)
                assert _same_bits(centers[s, r], ref_centers)
                assert _same_bits(costs[s, r], ref_cost)
                full_labels = lloyd_ref(points, inits[s, r].copy(), 100)[0]
                stopped_early |= not np.array_equal(ref_labels, full_labels)
    assert stopped_early  # some runs were cut by max_iter


def test_kmeans_matches_sequential_reference_on_sbm_embedding():
    params = SbmParams(n=400, k=2, B=np.array([[0.3, 0.05], [0.05, 0.3]]))
    _, vecs = sym_eigs(sample_sbm(params, spawn(181, 0)).as_float(), 2)
    _assert_matches_reference(vecs, 2, 20, (181, 1))


def test_kmeans_matches_reference_to_rounding_at_d1_and_d8_plus():
    for case, d in enumerate((1, 1, 1, 8, 9, 12)):
        rng = spawn(191, case)
        k = int(rng.integers(1, 6))
        points = rng.standard_normal((int(rng.integers(40, 150)), d))
        _assert_matches_reference(points, k, 10, (191, case, 1), exact=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("k", [1, 2])
def test_kmeans_rejects_non_finite_before_drawing(bad, k):
    points = spawn(193, 0).standard_normal((10, 2))
    points[3, 1] = bad
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="finite"):
        approx_kmeans(points, k, seed=rng)
    assert rng.bit_generator.state == state


def test_embedding_rejects_non_finite():
    approx_kmeans(np.zeros((3, 2)), 1, seed=0)
    # The check runs before anything is drawn from the stream.
    rng = spawn(167, 0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        approx_kmeans(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1, seed=rng)
    assert rng.bit_generator.state == state


def test_kmeans_rejects_squared_distances_that_overflow():
    # Finite rows 1e200 apart: the seeding's total is inf, where the
    # sequential reference's Generator.choice raises.
    points = np.array([[0.0], [1e200], [-1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            kmeans_pp_init_ref(points, 2, spawn(197, 0))
        with pytest.raises(ValueError, match="overflow"):
            approx_kmeans(points, 2, seed=spawn(197, 0))
