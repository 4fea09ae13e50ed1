"""Graph and SBM data types, random generation, edge thinning, degree utilities.

Adjacency matrices are dense (desk scale, n <= 2000). All containers are
immutable after construction: the backing numpy arrays are marked read-only
and can be shared freely across threads.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import SeedLike, as_generator


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Graph:
    """Undirected, unweighted graph given by a symmetric 0/1 adjacency matrix."""

    n: int
    adj: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adj, dtype=np.uint8)
        if a.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be {self.n}x{self.n}, got {a.shape}")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency must have zero diagonal")
        if np.any((a != 0) & (a != 1)):
            raise ValueError("adjacency entries must be 0/1")
        object.__setattr__(self, "adj", _freeze(a))

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1).astype(np.int64)

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def as_float(self) -> np.ndarray:
        return self.adj.astype(np.float64)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph; zero weight means no edge."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.n, self.n):
            raise ValueError(f"weights must be {self.n}x{self.n}, got {w.shape}")
        if not np.allclose(w, w.T, atol=0.0, rtol=0.0):
            raise ValueError("weights must be symmetric")
        if np.any(np.diag(w) != 0):
            raise ValueError("weights must have zero diagonal")
        object.__setattr__(self, "weights", _freeze(w))

    def binarize(self) -> Graph:
        return Graph(self.n, (self.weights != 0).astype(np.uint8))

    def degrees(self) -> np.ndarray:
        return (self.weights != 0).sum(axis=1).astype(np.int64)


@dataclass(frozen=True)
class LabelAssignment:
    """Per-node community labels taking values in range(k)."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if lab.size and (lab.min() < 0 or lab.max() >= self.k):
            raise ValueError(f"labels must lie in [0, {self.k})")
        object.__setattr__(self, "labels", _freeze(lab))

    @property
    def n(self) -> int:
        return self.labels.size

    def to_membership(self) -> np.ndarray:
        """n x k one-hot membership matrix."""
        m = np.zeros((self.n, self.k), dtype=np.int8)
        m[np.arange(self.n), self.labels] = 1
        return m

    def counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


def balanced_labels(n: int, k: int) -> LabelAssignment:
    """Canonical balanced assignment: first n/k nodes get label 0, and so on."""
    if n % k != 0:
        raise ValueError("n must be divisible by k")
    return LabelAssignment(np.repeat(np.arange(k), n // k), k)


@dataclass(frozen=True)
class WeightModel:
    """Zero-inflated Gaussian weights: present edge (i,j) draws N(means[ti,tj], scale^2).

    Other symmetric sub-Gaussian laws can be plugged in by subclassing and
    overriding ``draw``.
    """

    means: np.ndarray
    scale: float

    def __post_init__(self):
        m = np.asarray(self.means, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("means must be a square matrix")
        if not np.allclose(m, m.T):
            raise ValueError("means must be symmetric")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        object.__setattr__(self, "means", _freeze(m))

    def draw(self, mean_matrix: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return mean_matrix + self.scale * rng.standard_normal(mean_matrix.shape)


@dataclass(frozen=True)
class SbmParams:
    """Stochastic block model parameters with balanced ground-truth labels."""

    n: int
    k: int
    B: np.ndarray
    theta: LabelAssignment = None
    weight_model: WeightModel | None = None

    def __post_init__(self):
        B = np.asarray(self.B, dtype=np.float64)
        if B.shape != (self.k, self.k):
            raise ValueError(f"B must be {self.k}x{self.k}")
        if not np.allclose(B, B.T):
            raise ValueError("B must be symmetric")
        if np.any(B <= 0) or np.any(B > 1):
            raise ValueError("B entries must lie in (0, 1]")
        if self.n % self.k != 0:
            raise ValueError("n must be divisible by k")
        theta = self.theta if self.theta is not None else balanced_labels(self.n, self.k)
        if theta.n != self.n or theta.k != self.k:
            raise ValueError("theta has wrong shape")
        if np.any(theta.counts() != self.n // self.k):
            raise ValueError("theta must be balanced with n/k nodes per community")
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "theta", theta)
        # Validation only: the sparsity assumption min_j B_jj >= 25 k log(n)/n
        # is used by the asymptotic analysis. We warn, never reject.
        floor = 25.0 * self.k * np.log(max(self.n, 2)) / self.n
        if float(np.min(np.diag(B))) < floor:
            warnings.warn(
                f"SBM density below the analysis floor: min diag(B)={np.min(np.diag(B)):.4g} "
                f"< 25*k*log(n)/n={floor:.4g}; results may be outside the guaranteed regime",
                stacklevel=3,
            )

    @property
    def d(self) -> float:
        """Expected-degree scale n * max(B)."""
        return self.n * float(np.max(self.B))

    def edge_prob_matrix(self) -> np.ndarray:
        """n x n matrix of pairwise edge probabilities B[theta_i, theta_j]."""
        t = self.theta.labels
        return self.B[np.ix_(t, t)]

    def weight_mean_matrix(self) -> np.ndarray:
        if self.weight_model is None:
            raise ValueError("params has no weight_model")
        t = self.theta.labels
        return self.weight_model.means[np.ix_(t, t)]


def sample_sbm(params: SbmParams, seed: SeedLike) -> Graph:
    """Sample an SBM graph: upper-triangular entries are independent Bernoulli
    draws with mean B[theta_i, theta_j], then symmetrized with zero diagonal."""
    rng = as_generator(seed)
    n = params.n
    P = params.edge_prob_matrix()
    u = rng.random((n, n))
    upper = np.triu(u < P, k=1)
    adj = (upper | upper.T).astype(np.uint8)
    return Graph(n, adj)


def sample_weighted_sbm(params: SbmParams, seed: SeedLike) -> WeightedGraph:
    """Sample a weighted SBM: A as in sample_sbm, independent weights W with
    block-structured means, output W (.) A."""
    if params.weight_model is None:
        raise ValueError("weight_model required for weighted sampling")
    Bw = params.weight_model.means
    eig = np.linalg.eigvalsh(Bw)
    if not (np.all(eig >= -1e-10) or np.all(eig <= 1e-10)):
        raise ValueError("weight mean matrix must be PSD or NSD")
    if abs(np.linalg.det(params.B * Bw)) < 1e-12:
        raise ValueError("B (.) B_w must be invertible")
    rng = as_generator(seed)
    a = sample_sbm(params, rng)
    w = params.weight_model.draw(params.weight_mean_matrix(), rng)
    w = np.triu(w, k=1)
    w = w + w.T
    return WeightedGraph(params.n, w * a.adj)


def thin_graph(g: Graph, T: int, seed: SeedLike) -> list[Graph]:
    """Return T subgraphs; each retains every edge of g independently with
    probability 1/T. Retention draws are independent across subgraphs."""
    if T < 1:
        raise ValueError("T must be positive")
    rng = as_generator(seed)
    iu, ju = np.triu_indices(g.n, k=1)
    present = g.adj[iu, ju].astype(bool)
    out = []
    for _ in range(T):
        keep = present & (rng.random(iu.size) < 1.0 / T)
        adj = np.zeros((g.n, g.n), dtype=np.uint8)
        adj[iu[keep], ju[keep]] = 1
        out.append(Graph(g.n, adj | adj.T))
    return out


def max_degree(g: Graph | WeightedGraph) -> int:
    """Maximum node degree (for weighted graphs, counting nonzero weights)."""
    deg = g.degrees()
    return int(deg.max()) if deg.size else 0


def is_symmetric(M: np.ndarray, atol: float) -> bool:
    """M equals M.T exactly, or within np.allclose(M, M.T, atol=atol). The
    exact test is the cheap one and decides the common case; NaN fails both."""
    return np.array_equal(M, M.T) or np.allclose(M, M.T, atol=atol)


def memo(g: Graph | WeightedGraph, key, compute):
    """compute(), memoised on the graph g under key, on success only.

    For deterministic work that depends on g alone and that several calls on
    one graph repeat. Arrays in the value (or in a tuple value) are made
    read-only. The value must not refer back to g: a reference cycle would
    keep g alive past its last use. Concurrent calls for one key compute it
    once: each takes the key's lock and computes only if the value is still
    missing, so a compute that raises leaves the key unset for the next.
    """
    cache = vars(g).setdefault("_memo", {})
    if key not in cache:
        with vars(g).setdefault("_memo_locks", {}).setdefault(key, threading.Lock()):
            if key not in cache:
                value = compute()
                for part in value if isinstance(value, tuple) else (value,):
                    if isinstance(part, np.ndarray):
                        part.setflags(write=False)
                cache[key] = value
    return cache[key]


def adjacency_squared(g: Graph) -> np.ndarray:
    """A @ A in float64, memoised on g (read-only). Its entries count walks of
    length two, so the product is exact in any summation order."""
    return memo(g, "A2", lambda: np.linalg.matrix_power(g.as_float(), 2))


# ---------------------------------------------------------------------------
# Textual edge-list format: header "n=<int> weighted=<0|1>", then one line
# "u v" or "u v weight" per edge, node ids 0-based.

def write_graph(path, g: Graph | WeightedGraph) -> None:
    weighted = isinstance(g, WeightedGraph)
    with open(path, "w") as fh:
        fh.write(f"n={g.n} weighted={int(weighted)}\n")
        if weighted:
            iu, ju = np.nonzero(np.triu(g.weights, k=1))
            for u, v in zip(iu, ju):
                fh.write(f"{u} {v} {float(g.weights[u, v])!r}\n")
        else:
            iu, ju = np.nonzero(np.triu(g.adj, k=1))
            for u, v in zip(iu, ju):
                fh.write(f"{u} {v}\n")


def read_graph(path) -> Graph | WeightedGraph:
    with open(path) as fh:
        header = fh.readline().strip()
        fields = dict(part.split("=") for part in header.split())
        n = int(fields["n"])
        weighted = bool(int(fields["weighted"]))
        if weighted:
            w = np.zeros((n, n))
            for line in fh:
                if not line.strip():
                    continue
                u, v, x = line.split()
                w[int(u), int(v)] = w[int(v), int(u)] = float(x)
            return WeightedGraph(n, w)
        adj = np.zeros((n, n), dtype=np.uint8)
        for line in fh:
            if not line.strip():
                continue
            u, v = line.split()[:2]
            adj[int(u), int(v)] = adj[int(v), int(u)] = 1
        return Graph(n, adj)


def write_labels(path, theta: LabelAssignment) -> None:
    with open(path, "w") as fh:
        fh.write(f"k={theta.k}\n")
        for lab in theta.labels:
            fh.write(f"{lab}\n")


def read_labels(path) -> LabelAssignment:
    with open(path) as fh:
        k = int(fh.readline().strip().split("=")[1])
        labels = [int(line) for line in fh if line.strip()]
    return LabelAssignment(np.array(labels), k)
