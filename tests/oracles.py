"""Independent test-side oracles.

Everything here is deliberately written from scratch against the definitions,
not by calling the package: brute-force loss enumeration, a dense-tableau
simplex solver and a vertex-enumeration LP oracle, degree truncation from the
full node-removal LP, bipartite components from scipy's csgraph, a shifted
power-iteration eigensolver, top-k eigenpairs from a full dense eigh,
sequential k-means restarts, a per-node majority vote, boosting's witness
selection pair by pair, a batch made of single runs, exact minimum vertex
cover (for node distance), sphere quadrature helpers, and the sphere
rejection sampler as it was before it worked chunk by chunk.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


# ---------------------------------------------------------------------------
# Losses by direct enumeration over permutations (independent coding path).

def brute_loss_overall(a, b, k):
    n = len(a)
    best = None
    for perm in itertools.permutations(range(k)):
        wrong = 0
        for i in range(n):
            if perm[a[i]] != b[i]:
                wrong += 1
        if best is None or wrong < best:
            best = wrong
    return 2.0 * best / n


def brute_loss_worst(a, b, k):
    n = len(a)
    best = None
    for perm in itertools.permutations(range(k)):
        worst = 0.0
        for j in range(k):
            members = [i for i in range(n) if b[i] == j]
            if not members:
                continue
            wrong = sum(1 for i in members if perm[a[i]] != j)
            worst = max(worst, 2.0 * wrong / len(members))
        if best is None or worst < best:
            best = worst
    return best


def brute_align(a, b, k):
    n = len(a)
    best_perm, best_cost = None, None
    for perm in itertools.permutations(range(k)):
        cost = sum(1 for i in range(n) if perm[a[i]] != b[i])
        if best_cost is None or cost < best_cost:
            best_perm, best_cost = perm, cost
    return best_perm


# ---------------------------------------------------------------------------
# LP oracles.

def vertex_enum_max(c, A_ub, b_ub, bounds):
    """Maximize c.x s.t. A_ub x <= b_ub, lo <= x <= hi, by enumerating basic
    feasible points (intersections of n active constraints). Exponential;
    intended for <= 6 variables."""
    c = np.asarray(c, float)
    n = c.size
    rows = []
    rhs = []
    if A_ub is not None and len(A_ub):
        for row, b in zip(np.asarray(A_ub, float), np.asarray(b_ub, float)):
            rows.append(row)
            rhs.append(b)
    for i, (lo, hi) in enumerate(bounds):
        e = np.zeros(n)
        e[i] = -1.0
        rows.append(e.copy())
        rhs.append(-lo)
        e2 = np.zeros(n)
        e2[i] = 1.0
        rows.append(e2)
        rhs.append(hi)
    rows = np.asarray(rows)
    rhs = np.asarray(rhs)
    best = None
    m = rows.shape[0]
    for combo in itertools.combinations(range(m), n):
        A = rows[list(combo)]
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, rhs[list(combo)])
        if np.all(rows @ x <= rhs + 1e-9):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


def dense_simplex_max(c, A_ub, b_ub):
    """Standard-form tableau simplex with Bland's rule: max c.x, A x <= b,
    x >= 0, b >= 0. Returns the optimal objective value."""
    A = np.asarray(A_ub, float)
    b = np.asarray(b_ub, float)
    c = np.asarray(c, float)
    m, n = A.shape
    if np.any(b < 0):
        raise ValueError("requires b >= 0")
    # Tableau with slack variables.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = list(range(n, n + m))
    for _ in range(10000):
        # Bland: smallest index with negative reduced cost.
        enter = next((j for j in range(n + m) if T[m, j] < -1e-12), None)
        if enter is None:
            return float(T[m, -1])
        ratios = [
            (T[i, -1] / T[i, enter], basis[i], i)
            for i in range(m)
            if T[i, enter] > 1e-12
        ]
        if not ratios:
            raise ValueError("unbounded")
        _, _, leave = min(ratios, key=lambda r: (r[0], r[1]))
        T[leave] /= T[leave, enter]
        for i in range(m + 1):
            if i != leave and abs(T[i, enter]) > 1e-15:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter
    raise ValueError("iteration limit")


def degree_truncate_full_lp_ref(adj, D):
    """Degree truncation from the full fractional node-removal LP, with one
    w_e per edge and one row per node, solved by HiGHS directly:

        min sum_u x_u  s.t.  x >= 0, 0 <= w_e <= 1, -x_u - x_v - w_e <= -1
                             per edge, sum_{e at u} w_e <= D per node with
                             an edge.

    Removes each edge u < v with x_u > 1/4 or x_v >= 1/4 (1e-9 slack).
    Returns (truncated adjacency, d_T = 4 sum x); D >= max degree gives the
    input and 0."""
    adj = np.asarray(adj, dtype=np.uint8)
    n = adj.shape[0]
    if adj.sum(axis=1).max(initial=0) <= D:
        return adj.copy(), 0.0
    iu, ju = np.nonzero(np.triu(adj, k=1))
    m = iu.size
    e = np.arange(m)
    has_row, row = np.unique(np.column_stack([iu, ju]).ravel(), return_inverse=True)
    A_ub = sparse.csr_matrix(
        (np.concatenate([np.full(3 * m, -1.0), np.ones(2 * m)]),
         (np.concatenate([np.repeat(e, 3), m + row]),
          np.concatenate([np.column_stack([iu, ju, n + e]).ravel(), np.repeat(n + e, 2)]))),
        shape=(m + has_row.size, n + m))
    b_ub = np.concatenate([np.full(m, -1.0), np.full(has_row.size, float(D))])
    res = linprog(np.concatenate([np.ones(n), np.zeros(m)]), A_ub=A_ub, b_ub=b_ub,
                  bounds=[(0.0, None)] * n + [(0.0, 1.0)] * m, method="highs")
    assert res.status == 0, res.message
    x = res.x[:n]
    keep = ~((x[iu] > 0.25 + 1e-9) | (x[ju] >= 0.25 - 1e-9))
    out = np.zeros((n, n), dtype=np.uint8)
    out[iu[keep], ju[keep]] = 1
    return out | out.T, 4.0 * float(np.sum(x))


def bipartite_component_inside_ref(adj, S):
    """Whether some connected component of the graph lies inside the node
    mask S and is bipartite, from scipy's connected components of the
    bipartite double cover: a component is bipartite when its two copies are
    not joined, and lies inside S when no node off S shares a label with it."""
    from scipy.sparse.csgraph import connected_components

    A = np.asarray(adj)
    n = A.shape[0]
    Z = np.zeros_like(A)
    _, label = connected_components(sparse.csr_matrix(np.block([[Z, A], [A, Z]])),
                                    directed=False)
    leaves_S = np.zeros(label.max() + 1, dtype=bool)
    leaves_S[label[:n][~S]] = leaves_S[label[n:][~S]] = True
    return bool(np.any((label[:n] != label[n:]) & ~leaves_S[label[:n]]))


# ---------------------------------------------------------------------------
# Eigensolver oracle: shifted power iteration with deflation.

def power_iteration_eigs(M, k, iters=20000, tol=1e-13, seed=0):
    """Top-k eigenpairs by |lambda| via power iteration on M with deflation."""
    M = np.asarray(M, float)
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    vals, vecs = [], []
    Mw = M.copy()
    for _ in range(k):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = Mw @ v
            norm = np.linalg.norm(w)
            if norm < 1e-300:
                break
            w /= norm
            if np.linalg.norm(w - v) < tol or np.linalg.norm(w + v) < tol:
                v = w
                break
            v = w
        lam = float(v @ M @ v)
        # Deflate using the accumulated estimates (Rayleigh value w.r.t. Mw).
        lam_w = float(v @ Mw @ v)
        Mw = Mw - lam_w * np.outer(v, v)
        vals.append(lam)
        vecs.append(v)
    return np.array(vals), np.column_stack(vecs)


def sym_eigs_ref(M, k, by_abs=True):
    """Top-k eigenpairs of a symmetric M from a full dense eigh, sorted by
    |lambda| (or by lambda when by_abs is False), largest first."""
    vals, vecs = np.linalg.eigh(np.asarray(M, float))
    sel = np.argsort(-np.abs(vals) if by_abs else -vals)[:k]
    return vals[sel], vecs[:, sel]


# ---------------------------------------------------------------------------
# k-means reference: one restart at a time, each a Python loop of Lloyd steps
# (the library's code before its restarts ran as one batch).

def kmeans_pp_init_ref(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c:] = points[rng.integers(n, size=k - c)]
            break
        centers[c] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def lloyd_ref(points, centers, max_iter=100):
    n, k = points.shape[0], centers.shape[0]
    labels = None
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
            else:
                far = d2[np.arange(n), labels].argmax()
                centers[c] = points[far]
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    cost = float(d2[np.arange(n), labels].sum())
    return labels, centers, cost


def approx_kmeans_ref(points, k, rng, restarts=20, max_iter=100):
    """Best of `restarts` seeded Lloyd runs, the first of least cost. Returns
    (labels, centers, cost); advances `rng` (a numpy Generator) past every
    restart's seeding."""
    points = np.asarray(points, dtype=np.float64)
    best = None
    for _ in range(restarts):
        centers = kmeans_pp_init_ref(points, k, rng)
        labels, centers, cost = lloyd_ref(points, centers, max_iter)
        if best is None or cost < best[2]:
            best = (labels, centers, cost)
    return best


def majority_vote_ref(votes, witness, k):
    """Per-node majority over the rows of votes (T, n); a tie goes to the
    witness's label if it is among the winners, else to the lowest winner."""
    out = np.empty(votes.shape[1], dtype=np.int64)
    for i in range(votes.shape[1]):
        counts = np.bincount(votes[:, i], minlength=k)
        winners = np.flatnonzero(counts == counts.max())
        out[i] = witness[i] if witness[i] in winners else winners[0]
    return out


def boost_select_ref(estimates, xi, k, rng):
    """Graph boosting after its base runs, one pair at a time. estimates holds
    T label arrays, or None for a failed run. An estimate within overall loss
    2 xi of at least (T + 1) / 2 estimates (itself included) is a witness; one
    witness is drawn with rng.integers, every estimate is aligned to it, and
    the votes go to majority_vote_ref. Returns (labels, diagnostics), with
    labels None and diagnostics {"failure": reason} when no vote is taken."""
    if any(e is None for e in estimates):
        return None, {"failure": "base-estimator-failure"}
    T = len(estimates)
    witnesses = []
    for a in range(T):
        close = 0
        for b in range(T):
            if brute_loss_overall(estimates[a], estimates[b], k) <= 2.0 * xi:
                close += 1
        if 2 * close >= T + 1:
            witnesses.append(a)
    if not witnesses:
        return None, {"failure": "no-majority-witness"}
    j_star = witnesses[int(rng.integers(len(witnesses)))]
    votes = np.array([[brute_align(e, estimates[j_star], k)[label] for label in e]
                      for e in estimates])
    labels = majority_vote_ref(votes, votes[j_star], k)
    return labels, {"j_star": j_star, "valid_witnesses": len(witnesses)}


def batch_of(run):
    """A run_batch(graphs, eps, delta, seeds, noise_off) that calls the
    single-run probe run(graph, eps, delta, seed, noise_off) once per entry."""
    def run_batch(graphs, eps, delta, seeds, noise_off=False):
        return [run(g, e, d, s, noise_off) for g, e, d, s in zip(graphs, eps, delta, seeds)]
    return run_batch


# ---------------------------------------------------------------------------
# Node distance between graphs = min vertex cover of the difference graph.

def node_distance(adj_a, adj_b):
    diff = np.triu(np.asarray(adj_a) != np.asarray(adj_b), k=1)
    edges = list(zip(*np.nonzero(diff)))
    if not edges:
        return 0
    nodes = sorted({u for e in edges for u in e})
    for size in range(0, len(nodes) + 1):
        for combo in itertools.combinations(nodes, size):
            s = set(combo)
            if all(u in s or v in s for u, v in edges):
                return size
    return len(nodes)


# ---------------------------------------------------------------------------
# Sphere quadrature for n = 3 target densities.

def sphere_grid(nth, nph):
    th = (np.arange(nth) + 0.5) * np.pi / nth
    ph = (np.arange(nph) + 0.5) * 2.0 * np.pi / nph
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    V = np.stack(
        [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1
    )
    area = np.sin(TH)  # cell measure up to a constant factor
    return V, area


def quadrature_masses(log_density, nth=900, nph=1800):
    """Cell masses of exp(log_density(v)) on a fine (theta, phi) grid."""
    V, area = sphere_grid(nth, nph)
    logd = log_density(V.reshape(-1, 3)).reshape(nth, nph)
    logd -= logd.max()
    mass = np.exp(logd) * area
    return mass / mass.sum()


def tv_distance(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def sphere_marginal_tvs(draws, M, conc):
    """TV distances between n = 3 draws and the quadrature-normalized density
    exp(conc * v'Mv) on the 2-degree graticule marginals: (polar rings,
    azimuth sectors)."""
    masses = quadrature_masses(
        lambda V: conc * np.einsum("ij,jk,ik->i", V, M, V), nth=900, nph=1800
    )
    mass_theta = masses.reshape(90, 10, 1800).sum(axis=(1, 2))
    mass_phi = masses.reshape(900, 180, 10).sum(axis=(0, 2))
    theta = np.arccos(np.clip(draws[:, 2], -1, 1))
    phi = np.mod(np.arctan2(draws[:, 1], draws[:, 0]), 2 * np.pi)
    emp_theta = np.histogram(theta, bins=90, range=(0, np.pi))[0] / draws.shape[0]
    emp_phi = np.histogram(phi, bins=180, range=(0, 2 * np.pi))[0] / draws.shape[0]
    return tv_distance(emp_theta, mass_theta), tv_distance(emp_phi, mass_phi)


# ---------------------------------------------------------------------------
# OpenBLAS thread counts, read from the libraries that the numpy and scipy
# wheels bundle (found by directory, not by the harness's /proc/self/maps scan).

def openblas_thread_controls():
    """[(get_num_threads, set_num_threads)] for each bundled OpenBLAS."""
    import ctypes
    from pathlib import Path

    import scipy

    controls = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for prefix, suffix in itertools.product(("scipy_openblas", "openblas"),
                                                    ("64_", "")):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
    return controls


# ---------------------------------------------------------------------------
# Sphere rejection sampler reference: every batch of candidates solved,
# projected and scored whole (the library's code before it worked chunk by
# chunk), from the library's envelope and with its accept rule. It consumes
# the random stream as the library does.

class RejectionCapRef(RuntimeError):
    def __init__(self, trials, cap):
        super().__init__(f"reference sampler exceeded {cap} trials")
        self.trials = trials
        self.cap = cap


def rejection_sample_ref(score, vectorized, Q, constant, concentration, rng, trial_cap,
                         size):
    """Returns (v, accepted_after) as sample_sphere_exp (score None), a
    vectorized score of an (m, n) batch, or sample_lipschitz_exp (score of one
    vector) would; raises RejectionCapRef where they raise
    RejectionCapExceeded. Each batch is min(_CHUNK, what the cap leaves)
    candidates, solved and scored whole, and acceptances are read from the
    whole batch at once."""
    from scipy.linalg import solve_triangular

    from nodedp.mechanisms import _CHUNK, _envelope

    n = Q.shape[0]
    theta, b, L, log_bound = _envelope(Q, concentration)
    shift = theta + constant
    count = 1 if size is None else size
    draws = np.empty((count, n))
    counts = np.zeros(count, dtype=np.int64)
    k = trials = 0
    while k < count:
        if trials >= trial_cap:
            raise RejectionCapRef(trials, trial_cap)
        m = min(_CHUNK, trial_cap - trials)
        z = rng.standard_normal((m, n))
        zz = np.einsum("ij,ij->i", z, z)
        v = solve_triangular(L.T, z.T, lower=False, overwrite_b=True).T
        norms = np.linalg.norm(v, axis=1)
        v /= norms[:, None]
        w = zz / norms**2 - 1.0  # v'Omega v - 1
        log_env = 0.5 * n * np.log1p(w)
        logu = np.log(rng.random(m))
        if score is None:
            hits = np.flatnonzero(logu < -0.5 * b * w + log_env - log_bound)
        elif vectorized:
            log_accept = concentration * (score(v) - shift) + log_env - log_bound
            hits = np.flatnonzero(logu < log_accept)
        else:
            hits = (i for i in range(m)
                    if logu[i] < concentration * (score(v[i]) - shift)
                    + log_env[i] - log_bound)
        start = 0
        for i in hits:
            draws[k], counts[k] = v[i], trials + i + 1 - start
            k, trials, start = k + 1, 0, i + 1
            if k == count:
                break
        else:
            trials += m - start
    if size is None:
        return draws[0], int(counts[0])
    return draws, counts
