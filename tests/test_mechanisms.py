import math

import numpy as np
import pytest

from nodedp import (
    Graph,
    RejectionCapExceeded,
    debias_flip,
    edge_flip,
    laplace,
    sample_lipschitz_exp,
    sample_sphere_exp,
)

import nodedp.clustering
import nodedp.mechanisms
from nodedp.accounting import exp_capped
from nodedp.clustering import sym_eigs, sym_eigs_unchecked
from nodedp.harness import ExperimentConfig, run_sweep
from nodedp.mechanisms import _CHUNK, DEFAULT_TRIAL_CAP, _envelope, _rejection_sample
from nodedp.rng import spawn

from oracles import (RejectionCapRef, quadrature_masses, rejection_sample_ref,
                     sphere_marginal_tvs, tv_distance)


def random_graph(n, p, seed):
    rng = spawn(seed, 0)
    adj = np.triu((rng.random((n, n)) < p).astype(np.uint8), 1)
    return Graph(n, adj | adj.T)


def test_laplace_mean_and_tail():
    b = 2.0
    rng = spawn(51, 0)
    draws = np.array([laplace(b, rng) for _ in range(100_000)])
    se = b * math.sqrt(2) / math.sqrt(draws.size)
    assert abs(draws.mean()) < 3 * se
    # P(|X| > b log(1/delta)) = delta at delta = 1e-3, binomial 3 sigma.
    delta = 1e-3
    hits = np.mean(np.abs(draws) > b * math.log(1 / delta))
    sigma = math.sqrt(delta * (1 - delta) / draws.size)
    assert abs(hits - delta) < 3 * sigma
    assert abs(np.median(draws)) < 0.05
    with pytest.raises(ValueError):
        laplace(0.0, 0)


def test_laplace_redraws_a_zero_uniform():
    # u = 0.0 would give log1p(-1); laplace draws again, and keeps every other u.
    class ZeroFirst(np.random.Generator):
        def __init__(self, seed):
            super().__init__(np.random.PCG64(seed))
            self.calls = 0

        def random(self, *args, **kwargs):
            self.calls += 1
            return 0.0 if self.calls == 1 else super().random(*args, **kwargs)

    rng, ref = ZeroFirst(3), np.random.Generator(np.random.PCG64(3))
    x = laplace(2.0, rng)
    assert math.isfinite(x) and rng.calls == 2
    assert x == laplace(2.0, ref)  # the second draw is the first of an unmodified stream


def test_edge_flip_identity_at_infinity():
    g = random_graph(30, 0.4, 1)
    assert np.array_equal(edge_flip(g, math.inf, 0).adj, g.adj)


def test_edge_flip_and_debias_past_float_overflow_of_exp_eps():
    # e^eps overflows a float from eps ~ 709.8: the flip probability and the
    # debias offset are then 0, and the flip still draws its n x n uniforms.
    g = random_graph(30, 0.4, 1)
    rng, ref = spawn(61, 0), spawn(61, 0)
    assert np.array_equal(edge_flip(g, 1e4, rng).adj, g.adj)
    ref.random((30, 30))
    assert rng.random() == ref.random()
    m = g.as_float()
    assert np.array_equal(debias_flip(m, 1e4), m)


@pytest.mark.parametrize("eps", [0.0, 2.0])
def test_edge_flip_frequency(eps):
    g = random_graph(100, 0.5, 2)
    flipped = edge_flip(g, eps, spawn(57, int(eps)))
    iu = np.triu_indices(100, 1)
    frac = np.mean(flipped.adj[iu] != g.adj[iu])
    p = 1.0 / (1.0 + math.exp(eps))
    sigma = math.sqrt(p * (1 - p) / iu[0].size)
    assert abs(frac - p) < 3 * sigma


def test_edge_flip_likelihood_ratio():
    # Per-edge randomized response is its own privacy certificate: the
    # empirical ratio P(keep)/P(flip) approximates e^eps.
    eps = 1.5
    n_trials = 200_000
    rng = spawn(59, 0)
    g1 = Graph(2, np.array([[0, 1], [1, 0]], dtype=np.uint8))
    kept = sum(edge_flip(g1, eps, rng).adj[0, 1] == 1 for _ in range(n_trials // 100))
    p_keep = kept / (n_trials // 100)
    ratio = p_keep / (1 - p_keep)
    assert math.exp(eps) * 0.8 < ratio < math.exp(eps) * 1.25


def test_debias_flip():
    m = np.zeros((4, 4))
    out = debias_flip(m, 0.0)
    expected = -(np.ones((4, 4)) - np.eye(4)) / 2.0
    assert np.allclose(out, expected)
    g = random_graph(5, 0.5, 3)
    assert np.array_equal(debias_flip(g.as_float(), math.inf), g.as_float())


@pytest.mark.parametrize("n", [1, 2, 5, 200, 400])
def test_debias_flip_matches_the_matrix_formula_bit_for_bit(n):
    # The offset is subtracted from every entry and the diagonal copied back,
    # in place of forming 11^T - I: the same bits as the formula, including
    # its -0.0 entries and a saturated e^eps.
    m = random_graph(n, 0.3, n).as_float() - 0.5
    m[0, 0] = -0.0
    for eps in (0.0, 0.3, 1.0, 5.0, 30.0, 700.0, 800.0, math.inf):
        formula = m - (np.ones((n, n)) - np.eye(n)) / (exp_capped(eps) + 1.0)
        assert debias_flip(m, eps).tobytes() == formula.tobytes()


def test_debias_flip_unbiasedness():
    # Randomized-response algebra: a flipped entry has mean
    # A_ij (e^e - 1)/(e^e + 1) + 1/(e^e + 1), so after subtracting the
    # additive offset, E[debias(flip(A))] = c A with c = (e^e-1)/(e^e+1)
    # on the off-diagonal entries (proportional to A, which is what the
    # spectral step needs).
    g = random_graph(20, 0.4, 4)
    eps = 1.0
    c = math.expm1(eps) / (math.exp(eps) + 1.0)
    rng = spawn(61, 0)
    acc = np.zeros((20, 20))
    reps = 4000
    for _ in range(reps):
        acc += debias_flip(edge_flip(g, eps, rng).as_float(), eps)
    mean = acc / reps
    p_flip = 1.0 / (1.0 + math.exp(eps))
    # Var of a debiased entry is p(1-p); off-diagonal 4.5 sigma band over
    # 190 entries.
    sigma = math.sqrt(p_flip * (1 - p_flip) / reps)
    iu = np.triu_indices(20, 1)
    assert np.max(np.abs(mean[iu] - c * g.as_float()[iu])) < 4.5 * sigma


def test_sphere_sampler_unit_norm_and_uniform_case():
    rng = spawn(63, 0)
    M = np.zeros((6, 6))
    draws = np.stack([sample_sphere_exp(M, 0.0, rng).v for _ in range(4000)])
    assert np.allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-12)
    assert np.linalg.norm(draws.mean(axis=0)) < 3.0 / math.sqrt(4000)


def test_sphere_sampler_identity_matches_uniform():
    # v'Iv = 1 on the sphere, so the law is uniform for any concentration.
    rng = spawn(65, 0)
    draws = np.stack([sample_sphere_exp(np.eye(4), 5.0, rng).v for _ in range(4000)])
    assert np.linalg.norm(draws.mean(axis=0)) < 4.0 / math.sqrt(4000)
    second = draws[:, 0] ** 2
    assert abs(second.mean() - 0.25) < 0.02


def test_sphere_sampler_concentrates_on_top_eigenvector():
    # M = e1 e1', concentration 50, n=20. Oracle: t = (v'e1)^2 has density
    # proportional to e^{kt} t^{-1/2} (1-t)^{(n-3)/2}; the 1-D integral gives
    # E[t] ~ 0.806 at these parameters. Check the sampler against it.
    n, kappa = 20, 50.0
    t_grid = np.linspace(1e-9, 1 - 1e-9, 200_001)
    log_dens = kappa * t_grid - 0.5 * np.log(t_grid) + ((n - 3) / 2.0) * np.log1p(-t_grid)
    w = np.exp(log_dens - log_dens.max())
    oracle = float((w * t_grid).sum() / w.sum())  # uniform-grid Riemann ratio
    assert 0.75 < oracle < 0.85  # sanity on the oracle itself

    M = np.zeros((n, n))
    M[0, 0] = 1.0
    rng = spawn(67, 0)
    vals = np.array([sample_sphere_exp(M, kappa, rng).v[0] ** 2 for _ in range(2000)])
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - oracle) < 4 * se


def test_sphere_sampler_exactness_small_grid():
    # Coarse check against the quadrature-normalized density for n=3
    # (the full acceptance-criterion version lives in test_acceptance).
    M = np.diag([1.5, 0.0, -1.0])
    conc = 2.0
    rng = spawn(69, 0)
    draws = np.stack([sample_sphere_exp(M, conc, rng).v for _ in range(20_000)])
    masses = quadrature_masses(
        lambda V: conc * np.einsum("ij,jk,ik->i", V, M, V), nth=300, nph=600
    )
    theta_mass = masses.reshape(30, 10, 600).sum(axis=(1, 2))
    thetas = np.arccos(np.clip(draws[:, 2], -1, 1))
    emp = np.histogram(thetas, bins=30, range=(0, np.pi))[0] / draws.shape[0]
    assert tv_distance(emp, theta_mass) < 0.05


def test_lipschitz_sampler_matches_quadratic_law():
    # score(v) = v'Mv with the same quadratic bound draws from the same law
    # as the direct sampler; compare first-axis second moments.
    M = np.diag([2.0, 0.5, -0.5, 0.0])
    rng1, rng2 = spawn(71, 0), spawn(71, 1)
    direct = [sample_sphere_exp(M, 3.0, rng1).v[0] ** 2 for _ in range(3000)]
    viaext = [
        sample_lipschitz_exp(lambda v: float(v @ M @ v), M, 3.0, rng2).v[0] ** 2
        for _ in range(3000)
    ]
    se = math.sqrt(np.var(direct) / 3000 + np.var(viaext) / 3000)
    assert abs(np.mean(direct) - np.mean(viaext)) < 4 * se


def test_lipschitz_sampler_uniform_at_zero_concentration():
    rng = spawn(73, 0)
    M = np.diag([1.0, 2.0, 3.0])
    draws = np.stack(
        [sample_lipschitz_exp(lambda v: 0.0, M, 0.0, rng).v for _ in range(2000)]
    )
    assert np.linalg.norm(draws.mean(axis=0)) < 4.0 / math.sqrt(2000)


def test_rejection_cap():
    n = 30
    M = np.zeros((n, n))
    M[0, 0] = 1.0
    with pytest.raises(RejectionCapExceeded):
        # Tiny cap with a concentrated target forces the error path.
        sample_sphere_exp(M, 200.0, 0, trial_cap=1)


def _reference_single_draw(M, conc, rng):
    # Plain single-draw ACG rejection loop, written out independently of the
    # library: the reference for how one draw consumes the random stream. The
    # envelope is shifted by the top eigenvalue, at the scale b from the trace,
    # and candidates come _CHUNK at a time.
    n = M.shape[0]
    lmax = np.linalg.eigvalsh(M)[-1]
    b = min(max(n - 2 * conc * (lmax - np.trace(M) / n), 1.0), n)
    Abar = (2 * conc / b) * (lmax * np.eye(n) - M)
    L = np.linalg.cholesky(np.eye(n) + Abar)
    log_bound = -(n - b) / 2 + n / 2 * math.log(n / b)
    trials = 0
    while True:
        z = rng.standard_normal((_CHUNK, n))
        x = np.linalg.solve(L.T, z.T).T
        v = x / np.linalg.norm(x, axis=1, keepdims=True)
        logu = np.log(rng.random(_CHUNK))
        for i in range(_CHUNK):
            trials += 1
            w = v[i] @ Abar @ v[i]
            log_accept = conc * (v[i] @ M @ v[i] - lmax) + 0.5 * n * math.log1p(w) - log_bound
            if logu[i] < log_accept:
                return v[i], trials


def test_single_draw_matches_reference_loop_and_stream():
    M = np.array([[1.0, 0.4, 0.0, 0.2], [0.4, -0.5, 0.3, 0.0],
                  [0.0, 0.3, 0.8, -0.6], [0.2, 0.0, -0.6, 0.1]])
    for k in range(5):
        rng_lib, rng_ref = spawn(85, k), spawn(85, k)
        got = sample_sphere_exp(M, 6.0, rng_lib)
        v_ref, trials_ref = _reference_single_draw(M, 6.0, rng_ref)
        assert got.accepted_after == trials_ref
        np.testing.assert_allclose(got.v, v_ref, atol=1e-12)
        # Both consumed the same number of variates from the stream.
        assert rng_lib.random() == rng_ref.random()


@pytest.fixture()
def eigvalsh_calls(monkeypatch):
    """The shape of every eigvalsh the code runs from here on."""
    calls = []
    real = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


def fail_eigensolver(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_samplers_run_eigvalsh_only_on_the_exact_path(monkeypatch, eigvalsh_calls):
    # No concentration has a path of its own: at high and low concentration,
    # single and batched, neither sampler runs an eigvalsh. When the solver
    # raises, each sampler call runs exactly one, and only for theta.
    M = np.diag([2.0, 0.5, -0.5, 0.0])

    def calls(conc):
        eigvalsh_calls.clear()
        sample_sphere_exp(M, conc, 0)
        sample_lipschitz_exp(lambda v: float(v @ M @ v), M, conc, 0)
        sample_sphere_exp(M, conc, 0, size=50)
        sample_lipschitz_exp(lambda v: float(v @ M @ v), M, conc, 0, size=50)
        return len(eigvalsh_calls)

    assert calls(3.0) == calls(0.1) == 0
    monkeypatch.setattr(nodedp.mechanisms, "sym_eigs_unchecked", fail_eigensolver)
    assert calls(3.0) == calls(0.1) == 4


def test_batched_draws_shape_norms_and_counts():
    M = np.diag([1.5, 0.0, -1.0, 0.5, 0.2])
    s = sample_sphere_exp(M, 4.0, spawn(87, 0), size=300)
    assert s.v.shape == (300, 5)
    assert np.allclose(np.linalg.norm(s.v, axis=1), 1.0, atol=1e-12)
    assert s.accepted_after.shape == (300,)
    assert s.accepted_after.dtype.kind == "i" and s.accepted_after.min() >= 1
    # Concentration 0 accepts every candidate: one trial per draw, so a cap
    # of 1 holds per draw even though 40 candidates are used in total.
    z = sample_lipschitz_exp(lambda v: 0.0, M, 0.0, spawn(87, 1), trial_cap=1, size=40)
    assert z.v.shape == (40, 5)
    assert np.array_equal(z.accepted_after, np.ones(40, dtype=np.int64))
    with pytest.raises(ValueError):
        sample_sphere_exp(M, 4.0, 0, size=0)


def test_batched_draw_that_hits_its_cap_raises():
    # Q = 0 and constant 0: score 0 is accepted at once, score -inf never.
    # The first three draws succeed, the fourth exhausts its own cap.
    calls = []

    def score(v):
        calls.append(1)
        return 0.0 if len(calls) <= 3 else -math.inf

    with pytest.raises(RejectionCapExceeded) as err:
        sample_lipschitz_exp(score, np.zeros((3, 3)), 1.0, spawn(89, 0),
                             trial_cap=10, size=5)
    assert (err.value.trials, err.value.cap) == (10, 10)
    assert len(calls) == 3 + 10


def test_vectorized_score_matches_per_vector_score():
    # Same stream, same law: scoring a batch at once or one candidate at a
    # time accepts the same candidates.
    M = np.diag([2.0, 0.5, -0.5, 0.0])
    lazy = sample_lipschitz_exp(lambda v: float(v @ M @ v), M, 3.0, spawn(91, 0),
                                upper_bound_constant=0.5, size=200)
    batched = _rejection_sample(lambda V: np.einsum("ij,ij->i", V @ M, V), M, 0.5,
                                3.0, spawn(91, 0), DEFAULT_TRIAL_CAP, size=200)
    assert np.array_equal(lazy.accepted_after, batched.accepted_after)
    np.testing.assert_allclose(lazy.v, batched.v, atol=1e-12)


def test_single_draw_equals_first_of_size_one():
    M = np.array([[1.0, 0.8, 0.0], [0.8, -0.5, 0.3], [0.0, 0.3, 0.2]])
    for seed in range(4):
        one = sample_sphere_exp(M, 3.0, seed)
        batch = sample_sphere_exp(M, 3.0, seed, size=1)
        assert np.array_equal(one.v, batch.v[0])
        assert one.accepted_after == batch.accepted_after[0]
        ext = sample_lipschitz_exp(lambda v: float(v @ M @ v), M, 3.0, seed)
        ext1 = sample_lipschitz_exp(lambda v: float(v @ M @ v), M, 3.0, seed, size=1)
        assert np.array_equal(ext.v, ext1.v[0])


def test_lipschitz_sampler_extension_law_quadrature():
    # 3-node path with D=1: the hub degree exceeds D, so the extension score
    # falls below the raw quadratic on part of the sphere. The sampler's law
    # must match the quadrature-normalized density exp(kappa * shat(v)), with
    # shat evaluated by an independent vertex-enumeration oracle of the score
    # polytope (which does not depend on v). Acceptance is strictly worse than
    # for the raw quadratic law.
    import itertools

    from nodedp.graphs import Graph
    from nodedp.truncation import lipschitz_extension_score

    adj = np.zeros((3, 3), dtype=np.uint8)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
    g = Graph(3, adj)
    A = g.as_float()
    A2 = A @ A
    D = 1.0
    kappa = 1.5

    # Polytope of the score LP in the pair variables (0,0),(1,1),(2,2),(0,2):
    # 0 <= c <= ub, c00 + c02 <= 1, c11 <= 1, c22 + c02 <= 1.
    ub = np.array([A2[0, 0], A2[1, 1], A2[2, 2], A2[0, 2]])
    cons = []  # rows (a, b) meaning a.c <= b
    for p in range(4):
        e = np.zeros(4)
        e[p] = 1.0
        cons.append((e.copy(), float(ub[p])))
        cons.append((-e, 0.0))
    cons.append((np.array([1.0, 0, 0, 1.0]), D * D))
    cons.append((np.array([0, 1.0, 0, 0]), D * D))
    cons.append((np.array([0, 0, 1.0, 1.0]), D * D))
    Acons = np.array([a for a, _ in cons])
    bcons = np.array([b for _, b in cons])
    vertices = []
    for combo in itertools.combinations(range(len(cons)), 4):
        M4 = Acons[list(combo)]
        if abs(np.linalg.det(M4)) < 1e-12:
            continue
        x = np.linalg.solve(M4, bcons[list(combo)])
        if np.all(Acons @ x <= bcons + 1e-9):
            vertices.append(x)
    vertices = np.unique(np.round(np.array(vertices), 12), axis=0)

    def shat_oracle(V):
        # Objective coefficients per pair for each row v of V:
        # diagonal pairs get (v_i^2 + 1), the off-diagonal pair 2(v_0 v_2 + 1).
        W = np.stack(
            [V[:, 0] ** 2 + 1.0, V[:, 1] ** 2 + 1.0, V[:, 2] ** 2 + 1.0,
             2.0 * (V[:, 0] * V[:, 2] + 1.0)], axis=1)
        return (W @ vertices.T).max(axis=1)

    # The oracle agrees with the LP implementation on random unit vectors.
    rng = spawn(79, 0)
    for _ in range(20):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert lipschitz_extension_score(g, v, D, force_lp=True) == pytest.approx(
            float(shat_oracle(v[None, :])[0]), abs=1e-7
        )
        # And shat <= s somewhere: at the hub-aligned vector it is strict.
    e1 = np.array([0.0, 1.0, 0.0])
    s_raw = float(e1 @ A2 @ e1 + A2.sum())
    assert float(shat_oracle(e1[None, :])[0]) < s_raw

    # Drive the sampler with the (LP-equal, verified above) oracle score so
    # the 6000-sample law comparison does not pay ~200 LP solves per draw;
    # the LP-in-the-loop path is exercised once below and in the pipeline
    # tests. The oracle scores a batch of candidates per call, so it drives
    # the rejection core directly.
    const = float(A2.sum())
    rng2 = spawn(79, 1)
    ext = _rejection_sample(shat_oracle, A2, const, kappa, rng2, DEFAULT_TRIAL_CAP, size=6000)
    draws = ext.v
    trials_ext = int(ext.accepted_after.sum())
    trials_quad = int(sample_sphere_exp(A2, kappa, rng2, size=6000).accepted_after.sum())
    assert trials_ext > trials_quad  # acceptance strictly below the quadratic case
    one = sample_lipschitz_exp(
        lambda v: lipschitz_extension_score(g, v, D), A2, kappa, spawn(79, 2),
        upper_bound_constant=const,
    )
    assert abs(np.linalg.norm(one.v) - 1.0) < 1e-12

    masses = quadrature_masses(lambda V: kappa * shat_oracle(V), nth=300, nph=600)
    mass_theta = masses.reshape(30, 10, 600).sum(axis=(1, 2))
    mass_phi = masses.reshape(300, 30, 20).sum(axis=(0, 2))
    theta = np.arccos(np.clip(draws[:, 2], -1, 1))
    phi = np.mod(np.arctan2(draws[:, 1], draws[:, 0]), 2 * np.pi)
    emp_theta = np.histogram(theta, bins=30, range=(0, np.pi))[0] / draws.shape[0]
    emp_phi = np.histogram(phi, bins=30, range=(0, 2 * np.pi))[0] / draws.shape[0]
    assert tv_distance(emp_theta, mass_theta) < 0.05
    assert tv_distance(emp_phi, mass_phi) < 0.05


# ---------------------------------------------------------------------------
# The sampler against the whole-batch reference: both draw _CHUNK candidates
# at a time (fewer where the cap leaves fewer); the reference reads a batch's
# acceptances at once, the sampler one candidate at a time.

def squared_graph(n, p):
    """A^2 of a random graph and its top eigenvalue."""
    A = random_graph(n, p, 7).as_float()
    M = A @ A
    return M, float(np.linalg.eigvalsh(M)[-1])


def assert_same_as_reference(M, conc, seed, size, trial_cap=DEFAULT_TRIAL_CAP,
                             per_vector=False):
    """The library and the whole-batch reference give the same bits: vectors,
    candidate counts (or the cap error, at the same candidate) and the next
    variate of the stream. Returns the reference's candidate count."""
    rng, rng_ref = spawn(seed, 0), spawn(seed, 0)

    def ref_score(v):
        return float(v @ M @ v)

    if per_vector:
        def call():
            return sample_lipschitz_exp(ref_score, M, conc, rng, trial_cap=trial_cap, size=size)
    else:
        def call():
            return sample_sphere_exp(M, conc, rng, trial_cap=trial_cap, size=size)
        ref_score = None
    try:
        v_ref, counts_ref = rejection_sample_ref(ref_score, not per_vector, M, 0.0, conc,
                                                 rng_ref, trial_cap, size)
    except RejectionCapRef as err:
        with pytest.raises(RejectionCapExceeded) as got:
            call()
        assert (got.value.trials, got.value.cap) == (err.trials, err.cap)
        counts_ref = None
    else:
        got = call()
        assert np.array_equal(got.v, v_ref)
        assert np.array_equal(got.accepted_after, counts_ref)
        assert type(got.accepted_after) is type(counts_ref)
    assert rng.random() == rng_ref.random()
    return counts_ref


def test_chunked_sampler_matches_whole_batch_reference():
    # Concentrations are multiples of 1 / lmax. On A^2 of a random graph most
    # accept nearly every candidate. A five-fold top eigenvalue at x = 30 gets
    # the trace's scale b = 1, far below Kent et al.'s optimum (about 5), and
    # accepts about 1%: acceptance runs from there to about 100% (asserted
    # below).
    ratios = []
    cases = [(*squared_graph(n, p), xs) for n, p, xs in [
        (3, 0.7, (0.3, 30.0)), (50, 0.1, (0.05, 1.0, 3.0)),
        (300, 0.05, (0.05, 0.3, 1.0)), (400, 0.05, (0.05, 0.3, 1.0))]]
    cases.append((np.diag(np.r_[np.ones(5), np.zeros(45)]), 1.0, (30.0,)))
    for M, lmax, xs in cases:
        n = M.shape[0]
        for x in xs:
            draws = candidates = 0
            for seed, size in enumerate([None, 1, 5]):
                counts = assert_same_as_reference(M, x / lmax, 100 * n + seed, size)
                draws += 1 if size is None else size
                candidates += int(np.sum(counts))
            ratios.append(draws / candidates)
    assert min(ratios) < 0.02 and max(ratios) > 0.85


def test_per_vector_score_matches_whole_batch_reference():
    for n, p, xs in [(3, 0.7, (0.3, 30.0)), (50, 0.1, (0.05, 1.0, 3.0))]:
        M, lmax = squared_graph(n, p)
        for x in xs:
            for seed, size in enumerate([None, 1, 5]):
                assert_same_as_reference(M, x / lmax, 200 * n + seed, size, per_vector=True)


@pytest.mark.parametrize("per_vector", [False, True])
def test_partial_batches_and_caps_match_whole_batch_reference(per_vector):
    # A cap that is not a multiple of _CHUNK makes partial batches where it
    # runs out: a lone row (1, 33, 65, 97) and others (2, 50). Acceptance is
    # about 14%, so some draws carry over, some batches start mid-draw and
    # some draws exhaust their cap.
    assert _CHUNK == 32
    M, lmax = squared_graph(50, 0.1)
    outcomes = []
    for trial_cap in (1, 2, 33, 50, 65, 97):
        for seed in range(4):
            counts = assert_same_as_reference(M, 300.0 / lmax, 300 + 10 * trial_cap + seed, 4,
                                              trial_cap=trial_cap, per_vector=per_vector)
            outcomes.append(counts is None)
    assert any(outcomes) and not all(outcomes)


def test_32q_plus_1_draws_match_whole_batch_reference():
    # A score of +inf accepts every candidate, so 32q + 1 draws take q whole
    # batches and the first row of one more, whose other 31 candidates are
    # drawn and go unused.
    assert _CHUNK == 32
    M, lmax = squared_graph(50, 0.1)
    for m in (1, 33, 65, 97):
        rng, rng_ref = spawn(400, m), spawn(400, m)
        got = _rejection_sample(lambda V: np.full(len(V), math.inf), M, 0.0, 1.0 / lmax,
                                rng, DEFAULT_TRIAL_CAP, size=m)
        v_ref, _ = rejection_sample_ref(lambda V: np.full(len(V), math.inf), True, M, 0.0,
                                        1.0 / lmax, rng_ref, DEFAULT_TRIAL_CAP, m)
        assert np.array_equal(got.v, v_ref)
        assert rng.random() == rng_ref.random()


@pytest.fixture()
def solved_columns(monkeypatch):
    """The column count of every triangular solve the sampler runs."""
    cols = []
    real = nodedp.mechanisms.solve_triangular

    def spy(a, b, **kwargs):
        cols.append(b.shape[1])
        return real(a, b, **kwargs)

    monkeypatch.setattr(nodedp.mechanisms, "solve_triangular", spy)
    return cols


@pytest.mark.parametrize("m, chunks", [
    (1, [1]), (2, [2]), (31, [31]), (32, [32]), (33, [32, 1]), (34, [32, 2]),
    (64, [32, 32]), (65, [32, 32, 1]), (97, [32, 32, 32, 1]), (256, [32] * 8),
])
def test_no_chunk_has_one_row_unless_the_batch_has(solved_columns, m, chunks):
    # A score that never accepts makes the sampler draw all m candidates of a
    # draw capped at m, each batch solved whole; the spy records each solve's
    # column count. A batch is _CHUNK candidates, or what the cap leaves, so
    # a one-row solve is a batch of one row.
    assert _CHUNK == 32
    with pytest.raises(RejectionCapExceeded):
        _rejection_sample(lambda V: np.full(len(V), -math.inf), np.diag([1.0, 0.5, 0.0]),
                          0.0, 1.0, spawn(93, 0), m, size=None)
    assert solved_columns == chunks


def test_draw_accepted_in_first_chunk_solves_only_that_chunk(solved_columns):
    # Concentration 0 accepts every candidate: a draw takes the first of one
    # batch, and 40 draws take two batches.
    M = squared_graph(300, 0.05)[0]
    assert sample_sphere_exp(M, 0.0, 0).accepted_after == 1
    assert solved_columns == [_CHUNK]
    solved_columns.clear()
    assert np.array_equal(sample_sphere_exp(M, 0.0, 0, size=40).accepted_after, np.ones(40))
    assert solved_columns == [_CHUNK, _CHUNK]


# ---------------------------------------------------------------------------
# The envelope's contract: one formula at every concentration, a Ritz shift
# and the scale b from the trace, eigvalsh only to supply theta on fallback,
# and the same law at any shift where Omega is positive definite.

def sbm_squared(n, p, q, seed):
    """A^2 of a two-block SBM graph (blocks of n/2 nodes) and the graph's
    average degree."""
    rng = spawn(seed, 0)
    half = np.arange(n) < n // 2
    probs = np.where(half[:, None] == half[None, :], p, q)
    adj = np.triu((rng.random((n, n)) < probs).astype(np.uint8), 1)
    A = (adj | adj.T).astype(np.float64)
    return A @ A, float(A.sum()) / n


def trace_scale(Q, conc, theta):
    """b = n - 2c (theta - tr Q/n), clipped to [1, n]."""
    n = Q.shape[0]
    return min(max(n - 2 * conc * (theta - np.trace(Q) / n), 1.0), n)


def assert_law(M, conc, seed):
    """Criterion 7's marginal check on 100k draws of one sampler call."""
    draws = sample_sphere_exp(M, conc, spawn(95, seed), size=100_000).v
    tv_theta, tv_phi = sphere_marginal_tvs(draws, M, conc)
    assert tv_theta < 0.05 and tv_phi < 0.05


@pytest.mark.parametrize("n, p, q", [(300, 0.2, 0.02), (400, 0.3, 0.05)])
def test_ritz_shift_is_the_top_eigenvalue_without_eigvalsh(eigvalsh_calls, n, p, q):
    # The sampler's three kinds of input: A^2 (first deflation draw), A^2
    # deflated by its top pair (second draw), and A^2 recentred by the
    # average degree (private_pca_lipschitz).
    A2, avg_deg = sbm_squared(n, p, q, n)
    evals, evecs = np.linalg.eigh(A2)
    cases = [A2, A2 - evals[-1] * np.outer(evecs[:, -1], evecs[:, -1]),
             A2 - (avg_deg**2 / n) * np.ones((n, n))]
    lmaxes = [float(np.linalg.eigvalsh(Q)[-1]) for Q in cases]
    eigvalsh_calls.clear()
    for Q, lmax in zip(cases, lmaxes):
        theta, b, _, log_bound = _envelope(Q, 0.2)
        assert abs(theta - lmax) <= 1e-9 * lmax
        assert b == pytest.approx(trace_scale(Q, 0.2, theta), rel=1e-12)
        assert log_bound == pytest.approx(-(n - b) / 2 + n / 2 * math.log(n / b), rel=1e-12)
    assert eigvalsh_calls == []


@pytest.mark.parametrize("offset", [-0.25, 2.0])
def test_law_is_exact_at_an_off_shift(monkeypatch, eigvalsh_calls, offset):
    # Criterion 7's marginal check, same matrices and sample count, with the
    # Ritz value forced to lmax + offset / c: below lmax (inside the edge
    # lmax - theta = b/(2c) of positive definiteness, at b = 1) and above it.
    cases = [
        (np.diag([2.0, 0.5, -1.0]), 2.0),
        (np.array([[1.0, 0.8, 0.0], [0.8, -0.5, 0.3], [0.0, 0.3, 0.2]]), 3.0),
    ]
    for ci, (M, conc) in enumerate(cases):
        theta = float(np.linalg.eigvalsh(M)[-1]) + offset / conc
        monkeypatch.setattr(nodedp.mechanisms, "sym_eigs_unchecked",
                            lambda *args, theta=theta, **kwargs: (np.array([theta]), None))
        eigvalsh_calls.clear()
        assert _envelope(M, conc)[:2] == (theta, 1.0)
        draws = sample_sphere_exp(M, conc, spawn(1007, ci), size=100_000).v
        assert eigvalsh_calls == []
        tv_theta, tv_phi = sphere_marginal_tvs(draws, M, conc)
        assert tv_theta < 0.05 and tv_phi < 0.05


def test_law_at_the_smallest_scale(eigvalsh_calls):
    # High concentration: b = n - 2c (theta - tr M/n) is clipped to 1.
    M = np.array([[0.5, -0.4, 0.2], [-0.4, 1.2, 0.3], [0.2, 0.3, -0.7]])
    theta, b, _, log_bound = _envelope(M, 5.0)
    assert trace_scale(M, 5.0, theta) == b == 1.0
    assert log_bound == pytest.approx(-1.0 + 1.5 * math.log(3.0), rel=1e-12)
    assert_law(M, 5.0, 1)
    assert eigvalsh_calls == []


def test_exact_path_when_the_top_eigenvector_is_orthogonal_to_the_start(monkeypatch,
                                                                          eigvalsh_calls):
    # The top eigenvector (e0 - e1)/sqrt(2), eigenvalue 4, is orthogonal to
    # the all-ones vector, and a Krylov space grown from it keeps equal
    # entries 0 and 1 exactly, so its Ritz value is the next eigenvalue, 3.
    # The eigensolver starts from a random vector and finds 4, with no eigvalsh.
    # Given 3 in its place, at c = 20, b = 1 and Omega = I + 2c (3 I - Q) is
    # indefinite, so its Cholesky fails and the one eigvalsh supplies
    # theta = lmax.
    n = 40
    M = np.diag(np.linspace(0.0, 3.0, n))
    M[0, 0] = M[1, 1] = 2.0
    M[0, 1] = M[1, 0] = -2.0
    lmax = float(np.linalg.eigvalsh(M)[-1])
    eigvalsh_calls.clear()
    assert _envelope(M, 20.0)[0] == pytest.approx(4.0, rel=1e-12)
    assert eigvalsh_calls == []
    ritz = []
    monkeypatch.setattr(nodedp.mechanisms, "sym_eigs_unchecked",
                        lambda *args, **kwargs: ritz.append(np.array([3.0])) or (ritz[-1], None))
    assert _envelope(M, 20.0)[:2] == (lmax, trace_scale(M, 20.0, lmax))
    assert eigvalsh_calls == [(n, n)]
    eigvalsh_calls.clear()
    draws = sample_sphere_exp(M, 20.0, spawn(95, n), size=4000).v
    assert eigvalsh_calls == [(n, n)]
    assert ritz and all(r == pytest.approx([3.0], abs=1e-12) for r in ritz)
    # The same law rotated so that the top eigenvector is e0, which the Ritz
    # shift finds: the squared top coordinate has the same mean.
    monkeypatch.setattr(nodedp.mechanisms, "sym_eigs_unchecked", sym_eigs_unchecked)
    rotated = np.diag(np.concatenate([[4.0, 0.0], np.linspace(0.0, 3.0, n)[2:]]))
    eigvalsh_calls.clear()
    fast = sample_sphere_exp(rotated, 20.0, spawn(95, 1), size=4000).v
    assert eigvalsh_calls == []
    top, top_fast = (draws[:, 0] - draws[:, 1]) ** 2 / 2, fast[:, 0] ** 2
    se = math.sqrt(top.var() / top.size + top_fast.var() / top_fast.size)
    assert abs(top.mean() - top_fast.mean()) < 4 * se


def test_exact_path_at_low_concentration(eigvalsh_calls):
    # Low concentration: b = 3 - 0.2 (2 - 0.5) = 2.7 sits near n = 3, with
    # the Ritz shift and no eigvalsh.
    M = np.diag([2.0, 0.5, -1.0])
    theta, b, _, _ = _envelope(M, 0.1)
    assert b == pytest.approx(2.7, rel=1e-12) and b == trace_scale(M, 0.1, theta)
    assert_law(M, 0.1, 3)
    assert eigvalsh_calls == []


def test_exact_path_in_one_dimension(eigvalsh_calls):
    # The sphere is {-1, 1} and every law on it is uniform. The solver does not
    # run at n = 1; the one eigvalsh supplies theta, and b = 1, Omega = 1.
    M = np.array([[2.0]])
    theta, b, L, log_bound = _envelope(M, 5.0)
    assert (theta, b, log_bound) == (2.0, 1.0, 0.0) and np.array_equal(L, np.ones((1, 1)))
    eigvalsh_calls.clear()
    draws = sample_sphere_exp(M, 5.0, spawn(95, 1), size=4000).v
    assert eigvalsh_calls == [(1, 1)]
    assert np.array_equal(np.abs(draws), np.ones((4000, 1)))
    assert abs(draws.mean()) < 4.0 / math.sqrt(4000)


def test_exact_path_when_the_eigensolver_raises(monkeypatch, eigvalsh_calls):
    # The one eigvalsh supplies theta = lmax, which goes through the same
    # formula.
    monkeypatch.setattr(nodedp.mechanisms, "sym_eigs_unchecked", fail_eigensolver)
    M = np.diag([2.0, 0.5, -1.0])
    assert _envelope(M, 2.0)[:2] == (2.0, 1.0)
    eigvalsh_calls.clear()
    assert_law(M, 2.0, 2)
    assert eigvalsh_calls == [(3, 3)]


def test_low_concentration_recentred_sbm_draws_in_bounded_time():
    # A recentred n=200 SBM A^2 at the concentration that a wrapped private
    # PCA hands its base (D = 3 d). An envelope fixed at scale b = 2 accepts
    # about 1e-8 of its candidates here; the trace's b accepts nearly all.
    n = 200
    A2, avg_deg = sbm_squared(n, 0.5, 0.1, 11)
    Q = A2 - (avg_deg**2 / n) * np.ones((n, n))
    s = sample_sphere_exp(Q, 0.0077, spawn(99, 0), trial_cap=10_000, size=200)
    assert s.v.shape == (200, n)
    assert s.accepted_after.sum() < 2 * 200


def test_ritz_shift_in_two_dimensions(eigvalsh_calls):
    # On the circle v = (cos phi, sin phi) the law's phi marginal is
    # exp(c v'Mv) on [0, 2 pi).
    M = np.array([[1.0, 0.7], [0.7, -0.4]])
    conc = 3.0
    draws = sample_sphere_exp(M, conc, spawn(97, 0), size=40_000).v
    assert eigvalsh_calls == []
    edges = np.linspace(0, 2 * np.pi, 73)
    fine = np.linspace(0, 2 * np.pi, 72 * 100, endpoint=False) + np.pi / 7200
    U = np.stack([np.cos(fine), np.sin(fine)], axis=1)
    dens = np.exp(conc * np.einsum("ij,jk,ik->i", U, M, U))
    mass = dens.reshape(72, 100).sum(axis=1) / dens.sum()
    phi = np.mod(np.arctan2(draws[:, 1], draws[:, 0]), 2 * np.pi)
    emp = np.histogram(phi, bins=edges)[0] / draws.shape[0]
    assert tv_distance(emp, mass) < 0.05


def test_zero_concentration_needs_no_spectrum(monkeypatch, eigvalsh_calls):
    monkeypatch.setattr(nodedp.mechanisms, "sym_eigs_unchecked", None)  # any call would raise
    M = np.diag([1.0, 2.0, 3.0, 4.0])
    theta, b, L, log_bound = _envelope(M, 0.0)
    assert (theta, b, log_bound) == (0.0, 4.0, 0.0) and np.array_equal(L, np.eye(4))
    s = sample_sphere_exp(M, 0.0, 0, size=20)
    assert np.array_equal(s.accepted_after, np.ones(20))
    assert eigvalsh_calls == []


# ---------------------------------------------------------------------------
# Symmetry checks: an exact test first, then today's tolerance.

@pytest.mark.parametrize("caller", ["sample_sphere_exp", "sample_lipschitz_exp", "sym_eigs"])
@pytest.mark.parametrize("case", ["exact", "within", "beyond", "nan", "inf", "inf_pair"])
def test_symmetry_check_verdicts(caller, case):
    # A matrix must be finite and symmetric within 1e-10 max(1, max|M|). An
    # infinite entry, even a symmetric pair, raises before anything is drawn;
    # unchecked, sym_eigs returned NaN eigenvalues and the samplers ran to
    # their trial cap.
    M = np.array([[1.0, 0.4, 0.0, 0.2], [0.4, -0.5, 0.3, 0.0],
                  [0.0, 0.3, 0.8, -0.6], [0.2, 0.0, -0.6, 0.1]])
    if case == "within":
        M[0, 1] += 1e-12  # inside atol = 1e-10 max(1, max|M|)
    elif case == "beyond":
        M[0, 1] += 1e-3
    elif case == "nan":
        M[0, 2] = M[2, 0] = math.nan
    elif case == "inf":
        M[0, 0] = math.inf
    elif case == "inf_pair":
        M[0, 1] = M[1, 0] = math.inf
    rng = spawn(109, 0)
    run = {
        "sample_sphere_exp": lambda: sample_sphere_exp(M, 2.0, rng),
        "sample_lipschitz_exp": lambda: sample_lipschitz_exp(lambda v: float(v @ M @ v),
                                                             M, 2.0, rng),
        "sym_eigs": lambda: sym_eigs(M, 2),
    }[caller]
    if case in ("exact", "within"):
        run()
    else:
        with pytest.raises(ValueError, match="finite and symmetric"):
            run()
        assert rng.random() == spawn(109, 0).random()


def test_one_symmetry_check_per_sampler_call(monkeypatch):
    # Q is checked once, on entry; the envelope's eigensolver runs unchecked.
    # An asymmetric Q raises before the stream is touched.
    checks = []
    real = nodedp.mechanisms.is_symmetric

    def spy(M):
        checks.append(M.shape)
        return real(M)

    monkeypatch.setattr(nodedp.mechanisms, "is_symmetric", spy)
    monkeypatch.setattr(nodedp.clustering, "is_symmetric", spy)
    M, lmax = squared_graph(50, 0.1)
    asym = M.copy()
    asym[0, 1] += 1e-3
    for size in (None, 20):
        for sample in (
            lambda Q, rng: sample_sphere_exp(Q, 1.0 / lmax, rng, size=size),
            lambda Q, rng: sample_lipschitz_exp(lambda v: float(v @ Q @ v), Q, 1.0 / lmax,
                                                rng, size=size),
        ):
            checks.clear()
            sample(M, spawn(101, 0))
            assert checks == [(50, 50)]
            rng = spawn(101, 1)
            with pytest.raises(ValueError, match="symmetric"):
                sample(asym, rng)
            assert rng.random() == spawn(101, 1).random()


def test_nan_or_infinite_concentration_raises_before_drawing():
    # No candidate is ever accepted at such a concentration: the sampler would
    # run to its 10M-candidate cap. Each raises with the stream untouched, and
    # a deflation sweep at eps = inf or NaN (concentration eps / (6 D^2))
    # gets a typed row at once.
    M = np.diag([2.0, 0.5, -1.0])
    for conc in (math.nan, math.inf, -math.inf, -1.0):
        for sample in (lambda rng: sample_sphere_exp(M, conc, rng),
                       lambda rng: sample_lipschitz_exp(lambda v: 0.0, M, conc, rng)):
            rng = spawn(103, 0)
            with pytest.raises(ValueError, match="concentration"):
                sample(rng)
            assert rng.random() == spawn(103, 0).random()
    cfg = ExperimentConfig(
        scenario="unit", sbm={"n": 40, "k": 2, "B": [[0.6, 0.1], [0.1, 0.6]]},
        estimator={"id": "eig_deflation", "params": {"D": 30, "use_lipschitz": False}},
        eps_grid=[math.inf, math.nan], delta_grid=[0.0], seeds=[0])
    rows = run_sweep(cfg)
    assert [(r.status, r.error) for r in rows] == [("failed", "ValueError")] * 2
    assert all("concentration must be finite" in r.diagnostics["traceback"] for r in rows)
