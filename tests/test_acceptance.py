"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Thresholds and tolerances are pinned here, not configurable. Pilot-dependent
grids (criterion 11) and instance families (criterion 2) were fixed before
freezing the assertions; see the test docstrings for the instance conventions.
"""

import itertools
import math

import numpy as np
import pytest

from nodedp import (
    Graph,
    LabelAssignment,
    SbmParams,
    adaptive_compose_dp,
    align,
    approx_kmeans,
    compose_zcdp,
    degree_truncate,
    edge_flip,
    graph_boost,
    group_dp,
    group_zcdp,
    hgr_thinned_bernoulli,
    lb_packing,
    lb_pure,
    lb_stable,
    lipschitz_extension_score,
    loss_overall,
    loss_worst_case,
    max_degree,
    private_sensitivity_bound,
    pure_dp,
    reduce_to_node_private,
    reduction_budgets,
    sample_sbm,
    sample_sphere_exp,
    stability_success_cap,
    zcdp,
    zcdp_to_dp,
)
from nodedp.accounting import CALIBRATION
from nodedp.boosting import BoostConfig
from nodedp.bounds import LowerBoundQuery
from nodedp.estimators import (_DYKSTRA_MAX_ITER, _DYKSTRA_TOL, BoundedDegreeEstimator,
                               EstimatorOutput, _dykstra_psd_diag)
from nodedp.registry import make_bounded_base, run_pipeline
from nodedp.rng import as_generator, spawn

from oracles import (
    batch_of,
    brute_loss_overall,
    brute_loss_worst,
    node_distance,
    sphere_marginal_tvs,
    sym_eigs_ref,
)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    return ok


def random_bounded_graph(n, D, rng):
    """Random graph with max degree <= D by capped greedy edge insertion."""
    adj = np.zeros((n, n), dtype=np.uint8)
    deg = np.zeros(n, dtype=int)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    for i, j in pairs:
        if deg[i] < D and deg[j] < D and rng.random() < 0.7:
            adj[i, j] = adj[j, i] = 1
            deg[i] += 1
            deg[j] += 1
    return Graph(n, adj)


def rewirings(g, D=None):
    """All graphs obtained by rewiring a single node (optionally filtered to
    max degree <= D), deduplicated."""
    out = {}
    n = g.n
    for u in range(n):
        others = [v for v in range(n) if v != u]
        for bits in itertools.product([0, 1], repeat=n - 1):
            adj = g.adj.copy().astype(np.uint8)
            adj[u, :] = 0
            adj[:, u] = 0
            for v, b in zip(others, bits):
                adj[u, v] = adj[v, u] = b
            g2 = Graph(n, adj)
            if D is not None and max_degree(g2) > D:
                continue
            out[g2.adj.tobytes()] = g2
    return list(out.values())


# ---------------------------------------------------------------------------


def test_criterion_1_metric_oracle():
    """1000 random instances (n <= 12, k <= 4): exact equality with the
    exhaustive-permutation oracles."""
    rng = spawn(1001, 0)
    ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 13))
        a = rng.integers(0, k, n)
        b = rng.integers(0, k, n)
        b[:k] = np.arange(k)  # non-empty ground-truth communities
        la, lb = LabelAssignment(a, k), LabelAssignment(b, k)
        if loss_overall(la, lb) != brute_loss_overall(a, b, k):
            ok = False
            break
        if loss_worst_case(la, lb) != brute_loss_worst(a, b, k):
            ok = False
            break
    assert report("1 metric-oracle", ok)


def test_criterion_2_sensitivity_suite():
    """Pointwise node sensitivity of the extension score on bounded-degree
    pairs. Node-adjacent pairs with max degree <= D in {2, 3} on n <= 7
    (sampled bases x exhaustive single-node rewirings), 50 shared unit
    vectors: |shat_A(v) - shat_A'(v)| <= CALIBRATION["extension"].pointwise(D)
    = 4 D^2 - D with zero violations. A subsample is re-verified through the
    extension LP itself (no shortcut). Some pair must also exceed the
    often-quoted 3 D^2, which this family refutes, so the check tells the two
    constants apart.

    This is not a privacy certificate for the exponential mechanism: the
    difference includes the v-independent term Tr(A^2 J), which cancels in
    the mechanism's normalisation. Its loss is governed by the spread of
    v'(A^2 - A'^2)v, at most 2 D^2 (CALIBRATION["extension"].sensitivity)."""
    combos = [(5, 2), (6, 2), (7, 2), (6, 3), (7, 3)]
    violations = 0
    pairs_checked = 0
    lp_checked = 0
    max_diff = {}
    exceeds_3D2 = 0
    for n, D in combos:
        bound = CALIBRATION["extension"].pointwise(D)
        rng = spawn(1002, n, D)
        vs = rng.standard_normal((50, n))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        for b in range(3):
            base = random_bounded_graph(n, D, spawn(1002, n, D, b))
            neighbors = rewirings(base, D=D)
            # Shortcut evaluation (equals the LP value on bounded degree).
            def scores(g):
                A2 = g.as_float() @ g.as_float()
                return np.einsum("ij,jk,ik->i", vs, A2, vs) + A2.sum()

            s_base = scores(base)
            for g2 in neighbors:
                diff = float(np.max(np.abs(scores(g2) - s_base)))
                pairs_checked += 1
                violations += int(diff > bound + 1e-6)
                exceeds_3D2 += int(diff > 3 * D * D + 1e-6)
                max_diff[D] = max(max_diff.get(D, 0.0), diff)
            # LP cross-check on a subsample of pairs and vectors.
            for g2 in neighbors[:2]:
                for v in vs[:5]:
                    a = lipschitz_extension_score(base, v, D, force_lp=True)
                    bb = lipschitz_extension_score(g2, v, D, force_lp=True)
                    lp_checked += 1
                    violations += int(abs(a - bb) > bound + 1e-6)
    ok = violations == 0 and pairs_checked > 500 and exceeds_3D2 > 0
    maxima = ", ".join(
        f"D={D}: max {m:.2f} vs bound {CALIBRATION['extension'].pointwise(D):g} "
        f"(3D^2={3 * D * D})"
        for D, m in sorted(max_diff.items())
    )
    assert report(
        "2 sensitivity-suite", ok,
        f"{pairs_checked} pairs, {lp_checked} LP re-checks, {violations} violations; "
        f"{exceeds_3D2} pairs above 3D^2; {maxima}",
    )


def test_criterion_3_truncation_suite():
    """500 random graphs (n <= 60): max_degree(T_D) <= 2D always; T_D(G) = G
    and d_T = 0 whenever max degree <= D; |d_T(G) - d_T(G')| <= 4 over 2000
    sampled node rewirings. Zero violations."""
    rng = spawn(1003, 0)
    degree_viol = noop_viol = 0
    noop_cases = 0
    for trial in range(500):
        n = int(rng.integers(10, 61))
        p = float(rng.uniform(0.03, 0.5))
        D = int(rng.choice([2, 3, 5, 8]))
        adj = np.triu((rng.random((n, n)) < p).astype(np.uint8), 1)
        g = Graph(n, adj | adj.T)
        out, d_T = degree_truncate(g, D)
        if max_degree(out) > 2 * D:
            degree_viol += 1
        if max_degree(g) <= D:
            noop_cases += 1
            if d_T != 0.0 or not np.array_equal(out.adj, g.adj):
                noop_viol += 1
    sens_viol = 0
    for b in range(100):
        rng_b = spawn(1003, 1, b)
        n = int(rng_b.integers(10, 41))
        p = float(rng_b.uniform(0.1, 0.5))
        D = int(rng_b.choice([2, 4]))
        adj = np.triu((rng_b.random((n, n)) < p).astype(np.uint8), 1)
        g = Graph(n, adj | adj.T)
        _, d_T = degree_truncate(g, D)
        for r in range(20):
            u = int(rng_b.integers(n))
            row = rng_b.random(n) < p
            row[u] = False
            adj2 = g.adj.copy().astype(np.uint8)
            adj2[u, :] = row
            adj2[:, u] = row
            _, d_T2 = degree_truncate(Graph(n, adj2), D)
            if abs(d_T2 - d_T) > 4.0 + 1e-6:
                sens_viol += 1
    ok = degree_viol == 0 and noop_viol == 0 and sens_viol == 0 and noop_cases > 20
    assert report(
        "3 truncation-suite", ok,
        f"{noop_cases} no-op cases, violations: degree={degree_viol} "
        f"noop={noop_viol} sensitivity={sens_viol}",
    )


def test_criterion_4_Lhat_coverage():
    """P(L_hat >= exhaustive local sensitivity of T_D) >= 1 - delta1 - 3 sigma
    at delta1 = 1e-2, n <= 7, 1e4 noise draws."""
    eps1, delta1 = 1.0, 1e-2
    draws = 10_000
    ok = True
    details = []
    for gid, (n, D, p) in enumerate([(6, 2, 0.7), (7, 2, 0.5)]):
        rng = spawn(1004, gid)
        adj = np.triu((rng.random((n, n)) < p).astype(np.uint8), 1)
        g = Graph(n, adj | adj.T)
        t_base, d_T = degree_truncate(g, D)
        ls = 0
        for g2 in rewirings(g):
            t2, _ = degree_truncate(g2, D)
            ls = max(ls, node_distance(t_base.adj, t2.adj))
        hits = sum(
            private_sensitivity_bound(d_T, eps1, delta1, rng) >= ls
            for _ in range(draws)
        )
        sigma = math.sqrt(delta1 * (1 - delta1) / draws)
        cov = hits / draws
        details.append(f"LS={ls}, coverage={cov:.4f}")
        if cov < 1.0 - delta1 - 3.0 * sigma:
            ok = False
    assert report("4 Lhat-coverage", ok, "; ".join(details))


def test_criterion_5_noise_free_oracle_equivalence():
    """All six pipelines in noise-off mode match plain spectral clustering
    within loss 0.02 on 20 seeds of the planted SBM (n=400, k=2,
    B=[[0.3,0.05],[0.05,0.3]])."""
    params = SbmParams(n=400, k=2, B=np.array([[0.3, 0.05], [0.05, 0.3]]))
    pipeline_params = {
        "ef_spectral": {},
        "pca_lipschitz": {"D": 360},
        "eig_deflation": {"D": 360},
        "two_community": {},
        "matrix_estimation": {},
        "subspace_estimation": {"zeta": 0.1},
    }
    worst = {pid: 0.0 for pid in pipeline_params}
    for seed in range(20):
        g = sample_sbm(params, spawn(1005, seed, 0))
        # The baseline's eigenvectors come from a full eigh, not from the
        # package's eigensolver, then the package's k-means.
        _, vecs = sym_eigs_ref(g.as_float(), 2)
        base_labels, _, _ = approx_kmeans(vecs, 2, seed=spawn(1005, seed, 1))
        base_loss = loss_overall(base_labels, params.theta)
        for pid, extra in pipeline_params.items():
            p = {"k": 2, "B": params.B.tolist(), "eps": 1.0, "delta": 1e-6, **extra}
            out = run_pipeline(pid, g, p, spawn(1005, seed, 2), noise_off=True)
            diff = abs(loss_overall(out.labels, params.theta) - base_loss)
            worst[pid] = max(worst[pid], diff)
    ok = all(v <= 0.02 for v in worst.values())
    detail = ", ".join(f"{k}={v:.3f}" for k, v in worst.items())
    assert report("5 noise-free-equivalence", ok, detail)


def test_criterion_6_randomized_response_law():
    """Empirical flip frequency within 3 binomial sigma of 1/(1+e^eps) for
    eps in {0, 1, 2, 5} on the 100-node complete graph."""
    n = 100
    g = Graph(n, np.ones((n, n), dtype=np.uint8) - np.eye(n, dtype=np.uint8))
    iu = np.triu_indices(n, 1)
    ok = True
    details = []
    for eps in (0.0, 1.0, 2.0, 5.0):
        flipped = edge_flip(g, eps, spawn(1006, int(eps)))
        frac = float(np.mean(flipped.adj[iu] != g.adj[iu]))
        p = 1.0 / (1.0 + math.exp(eps))
        sigma = math.sqrt(p * (1 - p) / iu[0].size)
        details.append(f"eps={eps:g}: {frac:.4f} vs {p:.4f}")
        if abs(frac - p) > 3 * sigma:
            ok = False
    assert report("6 randomized-response-law", ok, "; ".join(details))


def test_criterion_7_sphere_sampler_exactness():
    """n=3: sampler histograms on the 2-degree graticule marginals (polar
    rings and azimuth sectors) match the quadrature-normalized density with
    total variation <= 0.05 at 1e5 samples, for two test matrices. (Cell-level
    TV on the full 2x2-degree grid has a sampling-noise floor ~0.16 at this
    sample size, so marginals carry the comparison.)"""
    cases = [
        (np.diag([2.0, 0.5, -1.0]), 2.0),
        (np.array([[1.0, 0.8, 0.0], [0.8, -0.5, 0.3], [0.0, 0.3, 0.2]]), 3.0),
    ]
    ok = True
    details = []
    for ci, (M, conc) in enumerate(cases):
        rng = spawn(1007, ci)
        draws = sample_sphere_exp(M, conc, rng, size=100_000).v
        tv_t, tv_p = sphere_marginal_tvs(draws, M, conc)
        details.append(f"M{ci}: tv_theta={tv_t:.3f}, tv_phi={tv_p:.3f}")
        if tv_t > 0.05 or tv_p > 0.05:
            ok = False
    assert report("7 sphere-sampler-exactness", ok, "; ".join(details))


def test_criterion_8_hgr_formula():
    """Empirical correlation of thinned Bernoulli pairs within 0.02 of
    p(1-q)/(1-pq) over a 5x5 (p, q) grid at 1e5 samples."""
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    ok = True
    worst = 0.0
    for pi, p in enumerate(grid):
        for qi, q in enumerate(grid):
            rng = spawn(1008, pi, qi)
            z = rng.random(100_000) < q
            r1 = rng.random(100_000) < p
            r2 = rng.random(100_000) < p
            emp = float(np.corrcoef(z * r1, z * r2)[0, 1])
            err = abs(emp - hgr_thinned_bernoulli(p, q))
            worst = max(worst, err)
            if err > 0.02:
                ok = False
    assert report("8 hgr-formula", ok, f"max |corr error| = {worst:.4f}")


def test_criterion_9_boosting_bound():
    """200 synthetic trials (T=11, k=2): whenever at least (T+1)/2 of the
    sub-estimates have worst-case loss <= xi against the truth, the boosted
    estimate has worst-case loss <= xi T. Checked per trial."""
    params = SbmParams(n=200, k=2, B=np.array([[0.3, 0.05], [0.05, 0.3]]))
    theta = params.theta
    cfg = BoostConfig(T=11, xi=0.06, k=2)
    premise_trials = 0
    violations = 0
    sub_losses_store = []

    class RecordingBase(BoundedDegreeEstimator):
        def __init__(self):
            super().__init__("synthetic", batch_of(self._run), lambda e, d: pure_dp(e))

        def _run(self, graph, eps, delta, seed, noise_off=False):
            rng = as_generator(seed)
            lab = theta.labels.copy()
            flips = int(rng.integers(0, 7))
            if flips:
                idx = rng.choice(lab.size, size=flips, replace=False)
                lab[idx] = 1 - lab[idx]
            est = LabelAssignment(lab, 2)
            sub_losses_store.append(loss_worst_case(est, theta))
            return EstimatorOutput(labels=est, budget=[], diagnostics={})

    g = sample_sbm(params, spawn(1009, 0))
    for trial in range(200):
        sub_losses_store.clear()
        out = graph_boost(g, cfg, RecordingBase(), eps=0.1, delta=0.0,
                          seed=trial + 7_000_000)
        good = sum(1 for v in sub_losses_store if v <= cfg.xi)
        if good >= (cfg.T + 1) // 2:
            premise_trials += 1
            if out.failed or loss_worst_case(out.labels, theta) > cfg.xi * cfg.T + 1e-12:
                violations += 1
    ok = violations == 0 and premise_trials >= 50
    assert report(
        "9 boosting-bound", ok,
        f"{premise_trials}/200 premise trials, {violations} violations",
    )


def test_criterion_10_accounting_formulas():
    """Composition/group/conversion outputs and all lower-bound calculators
    equal independently re-evaluated closed forms to 1e-12 on 1e4 random
    inputs."""
    rng = spawn(1010, 0)
    ok = True
    for _ in range(2000):
        rhos = rng.uniform(0, 2, size=int(rng.integers(1, 5)))
        if abs(compose_zcdp([zcdp(r) for r in rhos]).rho - rhos.sum()) > 1e-12:
            ok = False
        rho = float(rng.uniform(0, 3))
        T = int(rng.integers(1, 30))
        if abs(group_zcdp(zcdp(rho), T).rho - T * T * rho) > 1e-12:
            ok = False
        delta = float(rng.uniform(1e-9, 0.99))
        got = zcdp_to_dp(zcdp(rho), delta).eps
        want = rho + math.sqrt(4 * rho * math.log(1 / delta))
        if abs(got - want) > 1e-12:
            ok = False
        eps = float(rng.uniform(0, 3))
        gd = group_dp(pure_dp(eps), T)
        if abs(gd.eps - T * eps) > 1e-12 or gd.delta != 0.0:
            ok = False
        d0 = float(rng.uniform(0, 1e-6))
        gd2 = group_dp(
            __import__("nodedp").approx_dp(eps, d0), T
        )
        if abs(gd2.delta - min(1.0, T * d0 * math.exp((T - 1) * eps))) > 1e-12:
            ok = False
        slack = float(rng.uniform(1e-9, 1.0))
        ac = adaptive_compose_dp(eps, d0, T, slack)
        want_eps = T * eps * math.expm1(eps) + eps * math.sqrt(2 * T * math.log(1 / slack))
        if abs(ac.eps - want_eps) > 1e-9 * max(1.0, want_eps):
            ok = False
        L = float(rng.uniform(0.5, 100))
        e2, d2 = reduction_budgets(eps, d0, L)
        if abs(e2 - eps / L) > 1e-12 or abs(d2 - d0 / L) > 1e-18:
            ok = False
    # Lower-bound calculators against duplicated formulas.
    for _ in range(2000):
        n = int(rng.integers(20, 500))
        xi = float(rng.uniform(1.0 / n, 0.3))
        eta = float(rng.uniform(1e-3, 0.5))
        delta = float(rng.uniform(0, 1e-4))
        xn = xi * n
        eg = float(rng.uniform(0, min(1.0, 100.0 / xn)))
        q = LowerBoundQuery(n=n, k=2, xi=xi, eta=eta, delta=delta)
        lead = 1 - eta - 4 * delta * xn * math.exp(4 * eg * xn)
        m1 = 0.5 * (4 * math.e * xi) ** (-xn) - 1.0
        want = 0.0 if lead <= 0 else math.log(max(1.0, lead * m1 / eta)) / (4 * xn)
        if abs(lb_packing(q, eg) - want) > 1e-12:
            ok = False
        want_pure = (math.log(1 / (4 * math.e * xi)) / 4
                     + math.log(1 / (8 * eta)) / (4 * xi * n))
        if abs(lb_pure(q) - want_pure) > 1e-12:
            ok = False
        k = int(rng.integers(2, 5))
        nb = 6 * k
        qs = LowerBoundQuery(n=nb, k=k, xi=xi if xi < 1 / 3 else 0.2, eta=eta,
                             delta=delta)
        bad = qs.eta + qs.xi + 2 * k * qs.delta
        if 0 < bad < 1:
            want_st = 0.5 * math.log((1 - bad) / bad) + 0.5 * math.log(k - 1)
            if abs(lb_stable(qs) - want_st) > 1e-12:
                ok = False
        cap = stability_success_cap(k, eg, delta, 0.15)
        raw = 1 / ((1 - 0.15) * (1 + (k - 1) * math.exp(-2 * eg)))
        raw += 2 * (k - 1) * delta / (1 - 0.15)
        if abs(cap - min(1.0, raw)) > 1e-12:
            ok = False
    assert report("10 accounting-formulas", ok)


def test_criterion_11_privacy_utility_trend():
    """Edge-flip pipeline under the generic reduction (n=400, D=3d): the
    median loss over 20 seeds is nonincreasing across the pinned increasing
    eps grid in >= 80% of adjacent pairs."""
    params = SbmParams(n=400, k=2, B=np.array([[0.3, 0.05], [0.05, 0.3]]))
    D = int(3 * params.d)
    base = make_bounded_base("ef_spectral", 2, D, {})
    eps_grid = [5e4, 1e5, 2e5, 4e5, 7e5, 1e6]
    medians = []
    for gi, eps2 in enumerate(eps_grid):
        losses = []
        for seed in range(20):
            g = sample_sbm(params, spawn(1011, seed, 0))
            out = reduce_to_node_private(
                g, base, D, eps1=1.0, delta1=1e-6, eps2=eps2, delta2=0.0,
                seed=spawn(1011, seed, 1, gi),
            )
            losses.append(loss_overall(out.labels, params.theta))
        medians.append(float(np.median(losses)))
    good_pairs = sum(b <= a for a, b in zip(medians, medians[1:]))
    ok = good_pairs >= math.ceil(0.8 * (len(eps_grid) - 1))
    detail = "medians " + ", ".join(f"{m:.3f}" for m in medians)
    assert report("11 privacy-utility-trend", ok, detail)


# ---------------------------------------------------------------------------
# The noise-constant table (accounting.CALIBRATION), audited row by row.


def _bounded_pairs(n, D, path, bases=2):
    """Node-adjacent (A, A') pairs, both of max degree <= D: `bases` random
    graphs of max degree <= D, each with every rewiring that stays there."""
    out = []
    for b in range(bases):
        base = random_bounded_graph(n, D, spawn(*path, b))
        out += [(base.as_float(), g2.as_float()) for g2 in rewirings(base, D=D)]
    return out


def _gnp(n, p, rng):
    adj = np.triu((rng.random((n, n)) < p).astype(np.uint8), 1)
    return Graph(n, adj | adj.T)


def _node_pairs(n, p, path, bases=2):
    """Node-adjacent pairs of any degree: every rewiring of G(n, p) graphs."""
    out = []
    for b in range(bases):
        base = _gnp(n, p, spawn(*path, b))
        out += [(base, g2) for g2 in rewirings(base)]
    return out


def _edge_pairs(n, p, path, bases=2):
    """Edge-adjacent (A, A') pairs: every single-edge toggle of G(n, p) graphs."""
    out = []
    for b in range(bases):
        A = _gnp(n, p, spawn(*path, b)).as_float()
        for i, j in itertools.combinations(range(n), 2):
            A2 = A.copy()
            A2[i, j] = A2[j, i] = 1.0 - A[i, j]
            out.append((A, A2))
    return out


def _spectrum(A, B):
    """Ascending eigenvalues of A^2 - B^2."""
    return np.linalg.eigvalsh(A @ A - B @ B)


def _unit_vectors(n, path, count=30):
    v = spawn(*path).standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _rayleigh_change(A, B, D, vs):
    """Largest change of the clamped quotient clamp(v'A^2v - s) over the unit
    vectors vs and the deflation shifts s in {0, D^2}."""
    D2 = float(D) * D
    qa, qb = (np.einsum("ij,jk,ik->i", vs, M @ M, vs) for M in (A, B))
    return max(float(np.max(np.abs(np.clip(qa - s, -D2, D2) - np.clip(qb - s, -D2, D2))))
               for s in (0.0, D2))


def _audit_edge_slots(row):
    return [(np.abs(A - B).sum() / 2.0, row.sensitivity(2, D))
            for D in (1, 2) for A, B in _bounded_pairs(8, 2 * D, (1012, 0, D))]


def _audit_subspace_chunks(row):
    # Each changed row lies in one chunk.
    return [(float((A != B).any(axis=1).sum()), row.sensitivity(2, D))
            for D in (1, 2) for A, B in _bounded_pairs(8, 2 * D, (1012, 0, D))]


def _audit_pca_split(row):
    # Privacy loss in units of eps: the mean degree's Laplace draw plus one
    # extension draw, at their CALIBRATION scales.
    out = []
    for D in (2, 3):
        conc = CALIBRATION["extension"].noise(1.0, D)
        for A, B in _bounded_pairs(7, D, (1012, 1, D)):
            w = _spectrum(A, B)
            loss = (abs(A.sum() - B.sum()) / len(A) / CALIBRATION["mean_degree"].noise(1.0)
                    + conc * (w[-1] - w[0]))
            out.append((loss, row.sensitivity(2, D)))
    return out


def _audit_deflation_split(row):
    # k extension draws and k Rayleigh quotients, each at its CALIBRATION scale.
    out, k = [], 2
    for D in (2, 3):
        conc = CALIBRATION["extension"].noise(1.0, D)
        scale = CALIBRATION["rayleigh"].noise(1.0, D)
        vs = _unit_vectors(7, (1012, 2, D))
        for A, B in _bounded_pairs(7, D, (1012, 1, D)):
            w = _spectrum(A, B)
            loss = k * (conc * (w[-1] - w[0]) + _rayleigh_change(A, B, D, vs) / scale)
            out.append((loss, row.sensitivity(k, D)))
    return out


def _audit_mean_degree(row):
    return [(abs(float(g.adj.sum()) - float(g2.adj.sum())) / g.n, row.sensitivity())
            for g, g2 in _node_pairs(7, 0.5, (1012, 3))]


def _audit_rayleigh(row):
    vs = _unit_vectors(7, (1012, 4))
    return [(_rayleigh_change(g.as_float(), g2.as_float(), D, vs), row.sensitivity(D))
            for D in (1, 2) for g, g2 in _node_pairs(7, 0.5, (1012, 3))]


def _audit_lhat(row):
    out = []
    for D in (1, 2):
        for g, g2 in _node_pairs(6, 0.5, (1012, 5, D)):
            change = 2.0 * abs(degree_truncate(g, D)[1] - degree_truncate(g2, D)[1])
            out.append((change, row.sensitivity()))
    return out


def _audit_extension(row):
    # The spread of v'(A^2 - A'^2)v over the sphere, and the pointwise change
    # of the score, max over unit v of |v'(A^2 - A'^2)v + sum(A^2 - A'^2)|:
    # both exact, from the extreme eigenvalues.
    out = []
    for n, D in ((7, 2), (8, 2), (7, 3), (8, 3)):
        for A, B in _bounded_pairs(n, D, (1012, 6, n, D)):
            w = _spectrum(A, B)
            c = float((A @ A).sum() - (B @ B).sum())
            out += [(w[-1] - w[0], row.sensitivity(D)),
                    (max(abs(w[-1] + c), abs(w[0] + c)), row.pointwise(D))]
    return out


def _audit_two_community(row):
    # The Dykstra projection of 2 (A - (B11 + B12) / n) / (n gap), in the
    # n-scaled convention, solved as the pipeline solves it.
    out = []
    for n, (B11, B12) in ((6, (4.0, 1.0)), (7, (1.4, 0.7))):
        gap = B11 - B12
        # The declared rho covers Delta^2 / (2 sigma^2), as it does at every gap >= 1/6.
        assert row.sensitivity(n, gap) ** 2 / (2.0 * row.noise(1.0, 1e-6, n, gap) ** 2) \
            <= row.rho(1.0, 1e-6)

        def project(A):
            Y = (2.0 / (n * gap)) * (A - (B11 + B12) / n)
            return _dykstra_psd_diag(Y, 1.0 / n, _DYKSTRA_TOL, _DYKSTRA_MAX_ITER)[0]

        for A, B in _edge_pairs(n, 0.5, (1012, 7, n)):
            out.append((float(np.linalg.norm(project(A) - project(B))), row.sensitivity(n, gap)))
    return out


def _audit_power_method(row):
    # ||(A - A')X||_F over orthonormal n x 2k blocks X, k = 2.
    out = []
    for n in (6, 8):
        k, L = 2, math.ceil(12.0 * math.log(n))
        # The declared rho covers L steps of Delta^2 / (2 sigma^2).
        assert L * row.sensitivity() ** 2 / (2.0 * row.noise(1.0, 1e-6, k, L) ** 2) \
            <= row.rho(1.0, 1e-6)
        Xs = np.linalg.qr(spawn(1012, 8, n).standard_normal((10, n, 2 * k)))[0]
        out += [(float(np.linalg.norm((A - B) @ X)), row.sensitivity())
                for A, B in _edge_pairs(n, 0.5, (1012, 9, n)) for X in Xs]
    return out


_AUDITS = {
    "edge_slots": _audit_edge_slots,
    "subspace_chunks": _audit_subspace_chunks,
    "pca_split": _audit_pca_split,
    "deflation_split": _audit_deflation_split,
    "mean_degree": _audit_mean_degree,
    "rayleigh": _audit_rayleigh,
    "lhat": _audit_lhat,
    "extension": _audit_extension,
    "two_community": _audit_two_community,
    "power_method": _audit_power_method,
}


@pytest.mark.parametrize("name", sorted(CALIBRATION))
def test_criterion_12_calibration_table(name):
    """Every row of accounting.CALIBRATION against enumeration at n <= 8:
    node-adjacent pairs from `rewirings` (of bounded-degree or G(n, p) bases,
    as the row's input class says), edge-adjacent pairs from single-edge
    toggles. No measured change may exceed the row's stated sensitivity;
    split rows are measured as the privacy loss, in units of eps, of the
    draws they cover."""
    row = CALIBRATION[name]
    pairs = _AUDITS[name](row)
    violations = sum(m > s + 1e-6 for m, s in pairs)
    worst = max(m / s for m, s in pairs)
    assert report(
        f"12 calibration[{name}]", violations == 0 and len(pairs) >= 50,
        f"{len(pairs)} checks, {violations} violations, largest measured/stated "
        f"{worst:.3f}; {row.norm}, {row.inputs}",
    )
