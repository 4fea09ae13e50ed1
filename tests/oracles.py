"""Independent test-side oracles.

Everything here is deliberately written from scratch against the definitions,
not by calling the package: brute-force loss enumeration, a dense-tableau
simplex solver and a vertex-enumeration LP oracle, a shifted power-iteration
eigensolver, exact minimum vertex cover (for node distance), and sphere
quadrature helpers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
