"""Degree truncation and the Lipschitz-extension score.

The projection maps an arbitrary graph onto the set of graphs with maximum
degree at most 2D by solving a fractional node-removal LP; it comes with a
smooth distance surrogate d_T whose node sensitivity is at most 4, and a
privately released high-probability upper bound L_hat on the local
sensitivity of the projection. The LP has a variable per node and per edge;
degree_truncate solves it exactly over the node variables, in rounds that
give an edge its own variable only once the edge needs one. The first round
is solved by block principal pivoting in numpy and kept only under an
optimality and uniqueness certificate; HiGHS solves the rounds that are not.
Its docstring states the LPs, why the last round's optimum is the full LP's,
and why a certified first round is the optimum HiGHS would return.

The extension score generalizes the PCA score Tr(V' A^2 V) + Tr(A^2 J) to
unbounded-degree graphs; its sensitivity constant is
extension_score_sensitivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, WeightedGraph, adjacency_squared, max_degree, memo
from .lp import FEAS_TOL, solve_lp
from .mechanisms import laplace
from .rng import SeedLike

# LP vertex solutions sit at exact rational thresholds only by coincidence;
# this slack keeps the strict/weak comparisons stable under solver noise.
_THRESH_TOL = 1e-9

# Block principal pivoting gives up after this many solves; round one then
# goes to HiGHS. The benchmark and test graphs that it certifies take 1-3.
_PIVOT_SOLVES = 20


class LpFailure(RuntimeError):
    pass


@dataclass(frozen=True)
class TruncationCertificate:
    truncated: Graph | WeightedGraph
    d_T: float
    L_hat: float

    def __post_init__(self):
        if self.L_hat < 0.5:
            raise ValueError("L_hat is clamped at 1/2")
        if self.d_T < 0:
            raise ValueError("d_T is nonnegative")


def extension_score_sensitivity(D: float) -> float:
    """Pointwise node sensitivity Delta(D) = 4 D^2 - D of the extension score:
    the most |shat_A(v) - shat_A'(v)| can be for one unit vector v.

    Proven for node-adjacent pairs where both graphs have max degree <= D:
    there the score is ||A v||^2 + sum_i d_i^2. The quadratic part lies in
    [0, D^2], so it moves by at most D^2; the two-walk part moves by at most
    3 D^2 - D (the rewired node goes from degree 0 to D and each of its D new
    neighbours from D - 1 to D). The often-quoted 3 D^2 is exceeded by
    5-node examples.

    This is not the quantity that bounds the exponential mechanism's privacy
    loss on such pairs; see extension_score_concentration.

    Not proven: pairs where either graph exceeds max degree D. There the
    bound rests on the claim that the extension does not inflate the
    sensitivity of the bounded-degree score; this module does not settle it.
    """
    D = float(D)
    return 4.0 * D * D - D


def extension_score_concentration(eps: float, D: float) -> float:
    """Concentration c = eps / (6 D^2) of the exponential mechanisms that draw
    a unit vector v with density proportional to exp(c * shat(v)).

    On node-adjacent pairs where both graphs have max degree <= D, shat(v) is
    v'A^2 v plus Tr(A^2 J), which does not depend on v and so cancels in the
    mechanism's normalisation. The privacy loss of one draw is therefore at
    most c times the spread over the sphere of v'(A^2 - A'^2)v, and that
    spread is at most 2 D^2 because A^2 and A'^2 are PSD with top eigenvalue
    <= D^2. At this c a draw costs at most eps / 3, within the eps the
    pipelines charge for it. The pointwise change extension_score_sensitivity
    (4 D^2 - D) is larger only through the v-independent term.

    Not proven: pairs where either graph exceeds max degree D, where the
    score is the LP extension and is not quadratic in v.
    """
    D = float(D)
    return eps / (6.0 * D * D)


def extension_is_quadratic(g: Graph, D: float) -> bool:
    """Whether every row sum of A^2 is at most D^2 (in particular whenever
    max degree <= D). Then C = A^2 is feasible for the extension LP, so the
    extension score is v'A^2 v + sum(A^2) at every unit v and needs no LP."""
    D2 = float(D) * float(D)
    return float(np.max(adjacency_squared(g).sum(axis=1), initial=0.0)) <= D2


def lipschitz_extension_score(
    g: Graph, V: np.ndarray, D: float, force_lp: bool = False
) -> float:
    """Extension score s_hat_{A^2}(V): the optimum of

        max_C Tr(C (VV' + J))  s.t.  C = C', 0 <= C_ij <= (A^2)_ij,
                                      every row sum of |C| <= D^2.

    Equals Tr(V' A^2 V) + Tr(A^2 J) whenever extension_is_quadratic(g, D);
    that case is answered directly unless force_lp is set.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim == 1:
        V = V[:, None]
    if V.shape[0] != g.n:
        raise ValueError("V must have n rows")
    if not np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-10):
        raise ValueError("V must have orthonormal columns")
    if D <= 0:
        raise ValueError("D must be positive")
    A2 = adjacency_squared(g)
    if not force_lp and extension_is_quadratic(g, D):
        return float(np.trace(V.T @ A2 @ V) + A2.sum())

    # Weight matrix of the objective; entries are >= 0 since VV' >= -1.
    Wobj = V @ V.T + np.ones((g.n, g.n))
    iu, ju = np.nonzero(np.triu(A2 > 0))
    if iu.size == 0:
        return 0.0
    from scipy import sparse  # with HiGHS, only where an LP is solved
    # One variable per pair i <= j with (A^2)_ij > 0; C is symmetric.
    coef = np.where(iu == ju, Wobj[iu, ju], 2.0 * Wobj[iu, ju])
    bounds = [(0.0, hi) for hi in A2[iu, ju].tolist()]
    # Row i sums, once each, the variables of the pairs touching node i.
    once = np.ones(2 * iu.size, dtype=bool)
    once[1::2] = iu != ju
    node = np.column_stack([iu, ju]).ravel()[once]
    has_row, row = np.unique(node, return_inverse=True)
    col = np.repeat(np.arange(iu.size), 2)[once]
    A_ub = sparse.csr_matrix((np.ones(node.size), (row, col)), shape=(has_row.size, iu.size))
    sol = solve_lp(coef, A_ub, np.full(has_row.size, float(D) * float(D)), bounds,
                   maximize=True)
    if sol.status != "optimal":
        raise LpFailure(f"extension LP ended with status {sol.status}: {sol.message}")
    return float(sol.objective)


def degree_truncate(g: Graph, D: int) -> tuple[Graph, float]:
    """Project g onto max degree <= 2D.

    The fractional node-removal LP (Kasiviswanathan, Nissim, Raskhodnikova &
    Smith, TCC 2013) is

        min sum_u x_u  s.t.  x >= 0, 0 <= w_e <= 1, w_e >= 1 - x_u - x_v per
                             edge e = (u, v), sum_{e at u} w_e <= D per node.

    Lowering each w_e to max(0, 1 - x_u - x_v) keeps a solution feasible, and
    the row of a node of degree <= D always holds. So this solves the LP over
    x alone, in rounds. A round has one row per node u of degree > D,

        sum_{e = (u, v) uncut} (1 - x_u - x_v) + sum_{e at u cut} w_e <= D,

    then, per cut edge e, its own w_e in [0, 1] with w_e >= 1 - x_u - x_v.
    No edge is cut in the first round. After each round, every uncut edge in
    a row with x_u + x_v > 1 is cut and the LP is solved again. An uncut term
    is at most max(0, 1 - x_u - x_v), so each round relaxes the full LP; the
    round that cuts nothing has an x feasible for it, hence optimal for it.
    Cuts only grow, so the rounds end. (x_u + x_v > 1 is read with the
    _THRESH_TOL slack of the removal rule.)

    Round one is min 1'x over x >= 0 with deg(u) x_u + sum_{v ~ u} x_v >=
    deg(u) - D for u in H, the nodes of degree > D. Its dual is max
    sum_u (deg(u) - D) y_u over y >= 0 on H (0 off H) with deg(v) y_v +
    sum_{u ~ v} y_u <= 1 for every node v. With M = diag(deg_H) + A_HH and
    e = deg_H - D, block principal pivoting (Judice & Pires 1994) seeks S in
    H where x_S = M_SS^-1 e_S >= 0, with x = 0 off S, meets every row: the
    solution of the LCP x >= 0, Mx - e >= 0, x'(Mx - e) = 0. Each solve
    swaps every infeasible index in or out of S. Judice & Pires's fallback
    to one swap at a time (Murty's rule) is left out: it fired on none of
    1,133 SBM, Chung-Lu and Barabasi-Albert graphs tried, and _PIVOT_SOLVES
    ends any cycling. Put y_S = M_SS^-1 1 and y = 0 off S. The rows in S
    and the dual rows of the nodes in S are tight, so when y >= 0 meets
    every dual row, (x, y) are complementary and x is optimal. When moreover
    y_S > 0 and the dual row of every node off S is slack, every optimum is
    0 off S and has the rows in S tight, so it solves M_SS x_S = e_S. On
    vectors supported on S, x'Mx =
    sum_u (deg(u) - |N(u) & S|) x_u^2 + sum_{uv in E(S)} (x_u + x_v)^2, so
    M_SS is singular exactly when a connected component of g lies inside S
    and is bipartite. Otherwise the optimum is unique, and it is what HiGHS
    returns, up to its tolerances. _certified_round_one checks each of these
    conditions, the strict ones with a _THRESH_TOL margin. When one fails, a
    solve raises, or the pivoting has not ended after _PIVOT_SOLVES solves,
    HiGHS solves round one. A certified round one that cuts an edge passes
    its cuts on to HiGHS for the later rounds.

    Then removes every edge (u, v), u < v, with x*_u > 1/4 or x*_v >= 1/4.
    Returns the truncated graph and d_T = 4 sum_u x*_u. Graphs already of max
    degree <= D are returned unchanged with d_T = 0 (the all-zero x is
    optimal there).
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    if max_degree(g) <= D:
        return g, 0.0
    n = g.n
    high = g.degrees() > D
    iu, ju = np.nonzero(np.triu(g.adj, k=1))
    # Only edges at a high node enter a row; rows 0..h-1 are the high nodes'.
    at_high = high[iu] | high[ju]
    ends = np.column_stack([iu[at_high], ju[at_high]])
    h = int(high.sum())
    edge, side = np.nonzero(high[ends])  # one (edge, end) per row entry
    row = (np.cumsum(high) - 1)[ends[edge, side]]
    cut = np.zeros(len(ends), dtype=bool)
    x = _certified_round_one(g, D, high)  # None: HiGHS solves round one
    while True:
        if x is not None:
            over = ~cut & (x[ends].sum(axis=1) > 1.0 + _THRESH_TOL)
            if not over.any():
                break
            cut |= over
        from scipy import sparse  # with HiGHS, only where an LP is solved
        uncut = ~cut[edge]  # per row entry
        cut_ends = ends[cut]
        k = cut_ends.shape[0]
        w_col = n + np.cumsum(cut) - 1  # column of w_e, read where e is cut
        # Node rows: -x_u - x_v per uncut edge (rhs D - its count), +w_e per
        # cut edge; then -x_u - x_v - w_e <= -1 per cut edge.
        A_ub = sparse.csr_matrix(
            (np.concatenate([np.full(2 * uncut.sum(), -1.0), np.ones((~uncut).sum()),
                             np.full(3 * k, -1.0)]),
             (np.concatenate([np.repeat(row[uncut], 2), row[~uncut],
                              np.repeat(h + np.arange(k), 3)]),
              np.concatenate([ends[edge[uncut]].ravel(), w_col[edge[~uncut]],
                              np.column_stack([cut_ends, n + np.arange(k)]).ravel()]))),
            shape=(h + k, n + k))
        b_ub = np.concatenate([D - np.bincount(row[uncut], minlength=h).astype(np.float64),
                               np.full(k, -1.0)])
        sol = solve_lp(np.concatenate([np.ones(n), np.zeros(k)]), A_ub, b_ub,
                       [(0.0, None)] * n + [(0.0, 1.0)] * k)
        if sol.status != "optimal":
            raise LpFailure(f"truncation LP ended with status {sol.status}: {sol.message}")
        x = sol.x[:n]
    d_T = 4.0 * float(np.sum(x))
    # Removal rule follows the strict/weak asymmetry of the definition with
    # (u, v) ordered by node index.
    keep = ~((x[iu] > 0.25 + _THRESH_TOL) | (x[ju] >= 0.25 - _THRESH_TOL))
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[iu[keep], ju[keep]] = 1
    return Graph(n, adj | adj.T), d_T


def _certified_round_one(g: Graph, D: int, high: np.ndarray) -> np.ndarray | None:
    """Round one's optimum x by block principal pivoting on (M, e), or None
    unless degree_truncate's certificate shows it optimal and unique."""
    A = g.as_float()
    deg = A.sum(axis=1)
    H = np.flatnonzero(high)
    M = A[np.ix_(H, H)]
    M[np.diag_indices_from(M)] += deg[H]
    e = deg[H] - D
    free = np.ones(H.size, dtype=bool)  # S
    for _ in range(_PIVOT_SOLVES):
        try:
            xy = np.linalg.solve(M[np.ix_(free, free)],
                                 np.column_stack([e[free], np.ones(free.sum())]))
        except np.linalg.LinAlgError:
            return None
        z = np.zeros(H.size)
        z[free] = xy[:, 0]
        bad = np.where(free, z < 0.0, M @ z < e)
        if not bad.any():
            break
        free ^= bad
    else:
        return None
    S = np.zeros(g.n, dtype=bool)
    S[H[free]] = True
    x = np.zeros(g.n)
    x[S] = xy[:, 0]
    y = np.zeros(g.n)
    y[S] = xy[:, 1]
    rows = (deg * x + A @ x - (deg - D))[high]  # >= 0, tight in S
    reduced = 1.0 - deg * y - A @ y  # >= 0, 0 in S
    certified = (x.min() >= 0.0 and rows.min() >= -FEAS_TOL
                 and np.abs(rows[free]).max() <= FEAS_TOL
                 and y[S].min() > _THRESH_TOL
                 and np.abs(reduced[S]).max() <= _THRESH_TOL
                 and reduced[~S].min(initial=1.0) > _THRESH_TOL)
    return x if certified and not _bipartite_component_inside(g, S) else None


def _bipartite_component_inside(g: Graph, S: np.ndarray) -> bool:
    """Whether some connected component of g lies inside S and is bipartite.
    Dropping from S, until none is left, each node with a neighbour off S
    leaves the union of those components; a breadth-first search, a level at
    a time, finds each one bipartite unless an edge joins two of one level."""
    adj = g.adj.astype(bool)
    inside = S.copy()
    while (leaving := inside & adj[:, ~inside].any(axis=1)).any():
        inside &= ~leaving
    colour = np.full(g.n, -1)
    while (todo := np.flatnonzero(inside & (colour < 0))).size:
        colour[todo[0]], level, odd = 0, todo[:1], False
        while level.size:
            c = colour[level[0]]
            reached = adj[level].any(axis=0)
            odd |= bool((colour[reached] == c).any())
            level = np.flatnonzero(reached & (colour < 0))
            colour[level] = 1 - c
        if not odd:
            return True
    return False


def weighted_degree_truncate(g: WeightedGraph, D: int) -> tuple[WeightedGraph, float]:
    """Binarize, truncate, then restore the surviving original weights."""
    binary = g.binarize()
    truncated, d_T = degree_truncate(binary, D)
    return WeightedGraph(g.n, g.weights * truncated.adj), d_T


def private_sensitivity_bound(
    d_T: float,
    eps1: float,
    delta1: float,
    seed: SeedLike,
    noise_off: bool = False,
) -> float:
    """Private high-probability bound on the local sensitivity of T_D:

        L_hat = max{1/2, 5 + 2 d_T + Lap(8/eps1) + 8 log(1/delta1)/eps1}.
    """
    if eps1 <= 0:
        raise ValueError("eps1 must be positive")
    if not (0.0 < delta1 < 1.0):
        raise ValueError("delta1 must lie in (0, 1)")
    noise = 0.0 if noise_off else laplace(8.0 / eps1, seed)
    return max(0.5, 5.0 + 2.0 * d_T + noise + 8.0 * math.log(1.0 / delta1) / eps1)


def truncate_with_certificate(
    g: Graph | WeightedGraph,
    D: int,
    eps1: float,
    delta1: float,
    seed: SeedLike,
    noise_off: bool = False,
) -> TruncationCertificate:
    """Run the smooth-projection step end to end: truncate, then privately
    bound its local sensitivity. The certificate costs (eps1, 0) node-DP.

    The projection is deterministic, so it is memoised on g per D (see
    graphs.memo); each call still draws its own L_hat noise from seed. An
    identity projection is not memoised: g in its own memo would be a
    reference cycle."""
    def project():
        if isinstance(g, WeightedGraph):
            return weighted_degree_truncate(g, D)
        return degree_truncate(g, D)

    truncated, d_T = project() if max_degree(g) <= D else memo(g, ("projection", D), project)
    L_hat = private_sensitivity_bound(d_T, eps1, delta1, seed, noise_off=noise_off)
    return TruncationCertificate(truncated=truncated, d_T=d_T, L_hat=L_hat)
