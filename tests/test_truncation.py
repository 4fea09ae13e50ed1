import itertools
import math

import numpy as np
import pytest

import nodedp.truncation
from nodedp import (
    Graph,
    SbmParams,
    WeightedGraph,
    degree_truncate,
    lipschitz_extension_score,
    max_degree,
    private_sensitivity_bound,
    sample_sbm,
    weighted_degree_truncate,
)
from nodedp.accounting import CALIBRATION
from nodedp.rng import spawn
from nodedp.truncation import extension_is_quadratic

from oracles import (bipartite_component_inside_ref, degree_truncate_full_lp_ref,
                     dense_simplex_max, node_distance)


def graph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return Graph(n, adj)


def star(n):
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


def random_graph(n, p, seed):
    rng = spawn(seed, 0)
    adj = np.triu((rng.random((n, n)) < p).astype(np.uint8), 1)
    return Graph(n, adj | adj.T)


def lp_inputs(monkeypatch):
    """Record the (c, A_ub, b_ub, bounds, maximize) of every solve_lp call."""
    calls = []
    real = nodedp.truncation.solve_lp

    def spy(c, A_ub, b_ub, bounds, maximize=False):
        calls.append((c, A_ub, b_ub, bounds, maximize))
        return real(c, A_ub, b_ub, bounds, maximize=maximize)

    monkeypatch.setattr(nodedp.truncation, "solve_lp", spy)
    return calls


def random_unit(n, rng):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Extension score


def test_extension_equals_direct_score_on_bounded_degree():
    rng = spawn(97, 0)
    for seed in range(5):
        g = random_graph(7, 0.3, seed)
        D = max(1, max_degree(g))
        A2 = g.as_float() @ g.as_float()
        v = random_unit(7, rng)
        direct = float(v @ A2 @ v + A2.sum())
        assert lipschitz_extension_score(g, v, D) == pytest.approx(direct, abs=1e-6)
        # The LP path gives the same answer as the shortcut.
        assert lipschitz_extension_score(g, v, D, force_lp=True) == pytest.approx(
            direct, abs=1e-6
        )


def test_extension_zero_on_empty_graph():
    g = graph_from_edges(5, [])
    rng = spawn(101, 0)
    for _ in range(3):
        assert lipschitz_extension_score(g, random_unit(5, rng), 2.0) == 0.0


def test_extension_star_upper_bounded_and_matches_simplex_oracle():
    # n=6 star with hub degree 5, D=2: shat <= s, and the LP optimum matches
    # an independently coded dense-simplex oracle on the symmetric C variables.
    g = star(6)
    D = 2.0
    A2 = g.as_float() @ g.as_float()
    rng = spawn(103, 0)
    iu, ju = np.nonzero(np.triu(A2 > 0))
    for _ in range(5):
        v = random_unit(6, rng)
        shat = lipschitz_extension_score(g, v, D)
        s = float(v @ A2 @ v + A2.sum())
        assert shat <= s + 1e-8
        # Oracle: maximize sum of weighted pair variables subject to the same
        # box and row-sum constraints, via the tableau simplex.
        W = np.outer(v, v) + np.ones((6, 6))
        c = np.array(
            [W[i, j] if i == j else 2.0 * W[i, j] for i, j in zip(iu, ju)]
        )
        rows = []
        rhs = []
        for node in range(6):
            coeff = np.zeros(iu.size)
            for p_idx, (i, j) in enumerate(zip(iu, ju)):
                if i == node or j == node:
                    coeff[p_idx] += 1.0
            if coeff.any():
                rows.append(coeff)
                rhs.append(D * D)
        # Box upper bounds as explicit rows (simplex oracle uses x >= 0 only).
        for p_idx, (i, j) in enumerate(zip(iu, ju)):
            coeff = np.zeros(iu.size)
            coeff[p_idx] = 1.0
            rows.append(coeff)
            rhs.append(float(A2[i, j]))
        oracle = dense_simplex_max(c, np.array(rows), np.array(rhs))
        assert shat == pytest.approx(oracle, abs=1e-7)


def test_extension_sensitivity_small_exhaustive():
    # Node-adjacent pairs with max degree <= D, exercised through the LP (no
    # shortcut), against the pointwise sensitivity constant of the score. The
    # provable constant on bounded-degree pairs is 4 D^2 - D: the
    # quadratic part moves by at most D^2 and the all-ones part (a two-walk
    # count) by at most 3 D^2 - D; the often-quoted 3 D^2 is violated by
    # small instances (see the acceptance suite).
    D = 2
    base = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
    rng = spawn(107, 0)
    vs = [random_unit(5, rng) for _ in range(10)]
    for bits in itertools.product([0, 1], repeat=4):
        adj = base.adj.copy().astype(np.uint8)
        adj[2, :] = 0
        adj[:, 2] = 0
        for j, b in enumerate(bits):
            node = [0, 1, 3, 4][j]
            adj[2, node] = adj[node, 2] = b
        g2 = Graph(5, adj)
        if max_degree(g2) > D:
            continue
        for v in vs:
            a = lipschitz_extension_score(base, v, D, force_lp=True)
            b = lipschitz_extension_score(g2, v, D, force_lp=True)
            assert abs(a - b) <= CALIBRATION["extension"].pointwise(D) + 1e-6


def test_extension_lp_rows_follow_the_docstring(monkeypatch):
    # One variable per pair i <= j with (A^2)_ij > 0, in row-major order;
    # objective W_ii on the diagonal and 2 W_ij off it, W = VV' + J; bounds
    # [0, (A^2)_ij]; row i sums the pairs touching node i and is <= D^2.
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    A2 = g.as_float() @ g.as_float()
    V = np.linalg.qr(spawn(103, 0).standard_normal((5, 2)))[0]
    W = V @ V.T + 1.0
    pairs = [(i, j) for i in range(5) for j in range(i, 5) if A2[i, j] > 0]
    nodes = sorted({i for pair in pairs for i in pair})
    A = np.zeros((len(nodes), len(pairs)))
    for r, i in enumerate(nodes):
        for k, pair in enumerate(pairs):
            A[r, k] = 1.0 if i in pair else 0.0
    calls = lp_inputs(monkeypatch)
    lipschitz_extension_score(g, V, 1.5, force_lp=True)
    [(c, A_ub, b_ub, bounds, maximize)] = calls
    assert maximize
    assert np.allclose(c, [W[i, j] * (1 if i == j else 2) for i, j in pairs])
    assert bounds == [(0.0, A2[i, j]) for i, j in pairs]
    assert np.array_equal(A_ub.toarray(), A)
    assert np.array_equal(b_ub, np.full(len(nodes), 2.25))


def test_extension_is_quadratic_at_row_sum_D_squared():
    # Star(m) at D = 2: A^2 has every row sum m - 1 (the hub's diagonal, or a
    # leaf's m - 2 two-walks plus its own), against D^2 = 4.
    assert extension_is_quadratic(star(5), 2.0)  # largest row sum 4 = D^2
    assert not extension_is_quadratic(star(6), 2.0)  # 5, one unit above
    assert extension_is_quadratic(Graph(3, np.zeros((3, 3), dtype=np.uint8)), 1.0)


def test_extension_requires_orthonormal_V():
    g = star(4)
    with pytest.raises(ValueError):
        lipschitz_extension_score(g, np.array([1.0, 1.0, 0.0, 0.0]), 2.0)


# ---------------------------------------------------------------------------
# Degree truncation


def truncation_round(n, edges, D, cut):
    """Dense (c, A_ub, b_ub, bounds) of one round of degree_truncate's LP,
    row by row from its docstring: variables x_0..x_{n-1}, then w_e per cut
    edge in edge order. One row per node u of degree > D: -x_u - x_v per
    uncut edge at u (each lowering the rhs D by one), +w_e per cut edge at
    u. Then -x_u - x_v - w_e <= -1 per cut edge."""
    cut = [e for e in edges if e in cut]
    high = [u for u in range(n) if sum(u in e for e in edges) > D]
    A = np.zeros((len(high) + len(cut), n + len(cut)))
    b = []
    for r, u in enumerate(high):
        rhs = D
        for e in edges:
            if u not in e:
                continue
            if e in cut:
                A[r, n + cut.index(e)] = 1.0
            else:
                A[r, list(e)] -= 1.0
                rhs -= 1
        b.append(float(rhs))
    for k, (u, v) in enumerate(cut):
        A[len(high) + k, [u, v, n + k]] = -1.0
        b.append(-1.0)
    return [1.0] * n + [0.0] * len(cut), A, b, [(0.0, None)] * n + [(0.0, 1.0)] * len(cut)


def k33(first):
    """The edges of K_{3,3} on nodes first..first+5, sides of three."""
    return [(first + a, first + 3 + b) for a in range(3) for b in range(3)]


def test_truncation_lp_rows_follow_the_docstring(monkeypatch):
    # Each graph has a K_{3,3} on nodes 7-12 beside it, every node of degree
    # 3 > D. The component is bipartite and lies in the support of round one,
    # so round one is not certified and HiGHS solves every round. Its duals
    # are all 1/6, so every optimum has its six rows tight: x sums to 3 - D on
    # it, adding 4 (3 - D) to d_T, and no edge of it is cut.
    calls = lp_inputs(monkeypatch)
    for n, D, edges, cuts, d_T in [
        # Only the hub (degree 4) is above D = 2 outside K_{3,3}: its row and
        # K_{3,3}'s six, solved in one round.
        (13, 2, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), *k33(7)], [], 2.0 + 4.0),
        # Round one puts x_1 = x_2 = 3/5, so (1, 2) is cut and round two
        # solves with its w; nodes 5 and 6 (degree 1) have no row.
        (13, 1, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (5, 6), *k33(7)],
         [(1, 2)], 16.0 / 3.0 + 8.0),
    ]:
        calls.clear()
        _, got_d_T = degree_truncate(graph_from_edges(n, edges), D)
        assert got_d_T == pytest.approx(d_T, abs=1e-9)
        assert len(calls) == 1 + bool(cuts)
        for (c, A_ub, b_ub, bounds, maximize), cut in zip(calls, [[], cuts]):
            want_c, want_A, want_b, want_bounds = truncation_round(n, edges, D, cut)
            assert not maximize
            assert np.array_equal(c, want_c)
            assert bounds == want_bounds
            assert np.array_equal(A_ub.toarray(), want_A)
            assert np.array_equal(b_ub, want_b)


def criterion_3_graphs_above_D(count):
    """The first count graphs above D from criterion 3's generator."""
    rng = spawn(1003, 0)
    out = []
    while len(out) < count:
        n = int(rng.integers(10, 61))
        p = float(rng.uniform(0.03, 0.5))
        D = int(rng.choice([2, 3, 5, 8]))
        adj = np.triu((rng.random((n, n)) < p).astype(np.uint8), 1)
        g = Graph(n, adj | adj.T)
        if max_degree(g) > D:
            out.append((g, D))
    return out


def assert_matches_full_lp(g, D):
    out, d_T = degree_truncate(g, D)
    ref_adj, ref_d_T = degree_truncate_full_lp_ref(g.adj, D)
    assert np.array_equal(out.adj, ref_adj)
    assert abs(d_T - ref_d_T) <= 1e-9 * max(1.0, ref_d_T)


def truncation_cases(family):
    if family == "criterion_3":
        return criterion_3_graphs_above_D(60)
    g = sample_sbm(SbmParams(n=200, k=2, B=np.array([[0.3, 0.05], [0.05, 0.3]])),
                   spawn(19, 0))
    assert max_degree(g) > 30
    return [(g, D) for D in (5, 17, 30)]


@pytest.mark.parametrize("family", ["criterion_3", "sbm_200"])
def test_truncation_matches_the_full_lp(family):
    # The rounds reach the full LP's optimum value and, on these graphs, the
    # same truncated graph.
    for g, D in truncation_cases(family):
        assert_matches_full_lp(g, D)


def certified_round_one(g, D):
    return nodedp.truncation._certified_round_one(g, D, g.degrees() > D)


def highs_round_one(monkeypatch, g, D):
    """The x of HiGHS's round one, with the certified round one declined."""
    solutions = []
    real = nodedp.truncation.solve_lp

    def keep(*args, **kwargs):
        solutions.append(real(*args, **kwargs))
        return solutions[-1]

    with monkeypatch.context() as m:
        m.setattr(nodedp.truncation, "_certified_round_one", lambda g, D, high: None)
        m.setattr(nodedp.truncation, "solve_lp", keep)
        degree_truncate(g, D)
    return solutions[0].x[:g.n]


@pytest.mark.parametrize("family, certified", [("criterion_3", 51), ("sbm_200", 3)])
def test_certified_round_one_is_highs_round_one(monkeypatch, family, certified):
    # Where the certificate holds, the optimum is unique, so HiGHS's round one
    # lands on it too. The criterion-3 graphs it declines fail the dual check.
    cases = truncation_cases(family)
    got = [(g, D, certified_round_one(g, D)) for g, D in cases]
    assert sum(x is not None for _, _, x in got) == certified
    for g, D, x in got:
        if x is not None:
            assert np.max(np.abs(x - highs_round_one(monkeypatch, g, D))) <= 1e-9
    if family == "sbm_200":  # nothing to cut: no HiGHS call at all
        calls = lp_inputs(monkeypatch)
        for g, D in cases:
            degree_truncate(g, D)
        assert calls == []


def test_uncertified_rounds_reach_highs_and_match_the_full_lp(monkeypatch):
    [*_, (dual_fails, D)] = criterion_3_graphs_above_D(3)
    sbm, _ = truncation_cases("sbm_200")[1]
    docstring_example = graph_from_edges(
        7, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (5, 6)])
    for g, D, certified, highs_rounds, pivot_solves in [
        # Some y_S < 0: HiGHS solves round one, then round two with a cut.
        (dual_fails, D, False, 2, 20),
        # Certified x_1 = x_2 = 3/5 cuts (1, 2); HiGHS solves round two only.
        (docstring_example, 1, True, 1, 20),
        # The high-node M = 3I + A of K_{3,3} is singular: the solve raises.
        (graph_from_edges(6, k33(0)), 2, False, 1, 20),
        # M = 2I + A of the 4-cycle is singular too, and the solve ends: the
        # support is the whole bipartite graph.
        (graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 1, False, 1, 20),
        # At D = 17 the SBM takes two solves; with one allowed, pivoting
        # gives up.
        (sbm, 17, False, 1, 1),
    ]:
        with monkeypatch.context() as m:
            m.setattr(nodedp.truncation, "_PIVOT_SOLVES", pivot_solves)
            assert (certified_round_one(g, D) is not None) == certified
            calls = lp_inputs(m)
            assert_matches_full_lp(g, D)
            assert len(calls) == highs_rounds


def test_bipartite_component_inside_matches_the_double_cover_oracle():
    # Random graphs on at most 10 nodes and random node masks S. Most cases
    # get past the first step (some node of S has no neighbour off S), and
    # most of those hold a bipartite component inside S.
    rng = spawn(233, 0)
    past = found = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 11))
        adj = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.6), 1).astype(np.uint8)
        adj |= adj.T
        S = rng.random(n) < rng.uniform(0.3, 1.0)
        got = nodedp.truncation._bipartite_component_inside(Graph(n, adj), S)
        assert got == bipartite_component_inside_ref(adj, S)
        past += not adj[np.ix_(S, ~S)].any(axis=1).all()
        found += got
    assert (past, found) == (7474, 5582)


def test_truncation_needs_a_second_round(monkeypatch):
    # Criterion 3's third graph above D has an edge to cut after round one.
    [*_, (g, D)] = criterion_3_graphs_above_D(3)
    calls = lp_inputs(monkeypatch)
    assert_matches_full_lp(g, D)
    assert len(calls) >= 2


def test_truncate_noop_below_threshold():
    g = random_graph(20, 0.15, 3)
    D = max_degree(g)
    out, d_T = degree_truncate(g, max(D, 1))
    assert d_T == 0.0
    assert np.array_equal(out.adj, g.adj)


def test_truncate_empty_graph():
    g = graph_from_edges(6, [])
    out, d_T = degree_truncate(g, 2)
    assert d_T == 0.0 and out.edge_count() == 0


def test_truncate_star_degree_bound_and_sensitivity():
    # Star K_{1,9} with D=2: output hub degree <= 4, and |d_T(G) - d_T(G')| <= 4
    # over all single-node rewirings.
    g = star(10)
    out, d_T = degree_truncate(g, 2)
    assert out.degrees()[0] <= 4
    assert max_degree(out) <= 4
    # LP optimum for the star: x_hub = 7/9, others 0 -> d_T = 28/9.
    assert d_T == pytest.approx(28.0 / 9.0, abs=1e-6)
    rng = spawn(109, 0)
    for trial in range(60):
        u = int(rng.integers(10))
        new_row = rng.random(10) < 0.5
        new_row[u] = False
        adj = g.adj.copy().astype(np.uint8)
        adj[u, :] = new_row
        adj[:, u] = new_row
        _, d_T2 = degree_truncate(Graph(10, adj), 2)
        assert abs(d_T2 - d_T) <= 4.0 + 1e-6


def test_truncate_degree_bound_random():
    for seed in range(10):
        g = random_graph(25, 0.5, seed + 100)
        for D in (2, 4):
            out, d_T = degree_truncate(g, D)
            assert max_degree(out) <= 2 * D
            assert d_T >= -1e-9


def test_d_T_dominates_node_distance_small():
    # d_T(G) >= d_node(G, T_D(G)) on exhaustive small graphs.
    rng = spawn(113, 0)
    for seed in range(20):
        g = random_graph(7, 0.5, seed + 300)
        out, d_T = degree_truncate(g, 2)
        assert d_T + 1e-6 >= node_distance(g.adj, out.adj)


def test_weighted_truncation_preserves_weights():
    rng = spawn(127, 0)
    w = np.zeros((10, 10))
    for i in range(1, 10):
        w[0, i] = w[i, 0] = rng.uniform(0.5, 2.0)
    wg = WeightedGraph(10, w)
    out, d_T = weighted_degree_truncate(wg, 2)
    mask = out.weights != 0
    assert np.all(out.weights[mask] == w[mask])
    # Same truncation mask as the binarized graph.
    bin_out, bin_dT = degree_truncate(wg.binarize(), 2)
    assert np.array_equal((out.weights != 0).astype(np.uint8), bin_out.adj)
    assert d_T == pytest.approx(bin_dT)
    # No-ops: bounded-degree weighted graph, and the zero-weight graph.
    small = WeightedGraph(4, np.zeros((4, 4)))
    out2, d2 = weighted_degree_truncate(small, 1)
    assert d2 == 0.0 and np.all(out2.weights == 0)


# Removed edges and d_T of two fixed-seed SBM graphs above D, recorded before
# the truncation LP was built from index arrays. The LP optimum need not be
# unique, so a change of solver or of row order may move them.
PINNED_TRUNCATIONS = [
    (24, 8, 3.0631032189651144,
     [(8, 13), (9, 13), (10, 13), (12, 13), (13, 14), (13, 15), (13, 16),
      (13, 18), (13, 19), (13, 20), (13, 22), (13, 23)]),
    (40, 10, 12.660517498313808,
     [(0, 13), (0, 15), (1, 15), (2, 13), (3, 13), (3, 15), (4, 33), (5, 13),
      (6, 13), (7, 13), (8, 15), (8, 33), (9, 13), (9, 15), (10, 15), (11, 15),
      (12, 13), (12, 15), (13, 14), (13, 17), (13, 18), (13, 19), (13, 22),
      (13, 34), (13, 37), (14, 15), (15, 16), (15, 18), (15, 19), (15, 27),
      (15, 30), (15, 33), (15, 35), (19, 33), (20, 33), (21, 33), (22, 33),
      (26, 33), (29, 33), (32, 33), (33, 34), (33, 35), (33, 36), (33, 37),
      (33, 38), (33, 39)]),
]


@pytest.mark.parametrize("n, D, d_T, removed", PINNED_TRUNCATIONS)
def test_truncation_pinned_instance(n, D, d_T, removed):
    params = SbmParams(n=n, k=2, B=np.array([[0.5, 0.1], [0.1, 0.5]]))
    g = sample_sbm(params, spawn(1234, 0))
    assert max_degree(g) > D
    out, got_d_T = degree_truncate(g, D)
    gone = np.argwhere(np.triu(g.adj.astype(bool) & ~out.adj.astype(bool), 1))
    assert [tuple(e) for e in gone.tolist()] == removed
    assert np.all(out.adj <= g.adj)
    assert got_d_T == pytest.approx(d_T, abs=1e-9)


def test_certificate_reuses_projection_per_graph_and_D(monkeypatch):
    import nodedp.truncation as trunc

    calls = []
    real = trunc.degree_truncate
    monkeypatch.setattr(trunc, "degree_truncate",
                        lambda g, D: calls.append(D) or real(g, D))
    g = star(10)
    first = trunc.truncate_with_certificate(g, 2, 1.0, 1e-6, seed=spawn(139, 0))
    again = trunc.truncate_with_certificate(g, 2, 1.0, 1e-6, seed=spawn(139, 1))
    assert calls == [2]
    assert again.truncated is first.truncated and again.d_T == first.d_T
    assert again.L_hat != first.L_hat  # each call draws its own noise
    trunc.truncate_with_certificate(g, 3, 1.0, 1e-6, seed=0)
    trunc.truncate_with_certificate(star(10), 2, 1.0, 1e-6, seed=0)
    assert calls == [2, 3, 2]  # keyed by D, and stored on the graph object


# ---------------------------------------------------------------------------
# Private sensitivity bound


def test_sensitivity_bound_noise_off_value():
    # d_T=0, eps1=1, delta1=1e-6, noise off: 5 + 8 ln(1e6) ~ 115.52.
    val = private_sensitivity_bound(0.0, 1.0, 1e-6, 0, noise_off=True)
    assert val == pytest.approx(5.0 + 8.0 * math.log(1e6), abs=1e-9)
    assert val == pytest.approx(115.52, abs=0.01)


def test_sensitivity_bound_clamped():
    rng = spawn(131, 0)
    for _ in range(200):
        assert private_sensitivity_bound(0.0, 100.0, 0.9, rng) >= 0.5


def test_sensitivity_bound_tail():
    # P(L_hat >= 5 + 2 d_T) >= 1 - delta1 at delta1 = 1e-2.
    eps1, delta1, d_T = 1.0, 1e-2, 3.0
    rng = spawn(137, 0)
    n_draws = 10_000
    hits = sum(
        private_sensitivity_bound(d_T, eps1, delta1, rng) >= 5.0 + 2.0 * d_T
        for _ in range(n_draws)
    )
    sigma = math.sqrt(delta1 * (1 - delta1) / n_draws)
    assert hits / n_draws >= 1.0 - delta1 - 3.0 * sigma


def test_truncation_certificate():
    from nodedp.truncation import TruncationCertificate, truncate_with_certificate

    g = star(10)
    cert = truncate_with_certificate(g, 2, eps1=1.0, delta1=1e-6, seed=0,
                                     noise_off=True)
    assert max_degree(cert.truncated) <= 4
    assert cert.L_hat == pytest.approx(5.0 + 2.0 * cert.d_T + 8.0 * math.log(1e6))
    # Bounded-degree input: identity projection with zero distance.
    small = graph_from_edges(5, [(0, 1), (2, 3)])
    cert2 = truncate_with_certificate(small, 2, eps1=1.0, delta1=1e-6, seed=0,
                                      noise_off=True)
    assert cert2.d_T == 0.0
    assert np.array_equal(cert2.truncated.adj, small.adj)
    with pytest.raises(ValueError):
        TruncationCertificate(truncated=small, d_T=0.0, L_hat=0.2)
