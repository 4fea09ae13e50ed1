"""In-memory span tracing of nodedp's public functions, from outside the program.

Each wrapped function is patched under the name its caller looks it up by (for
example ``nodedp.estimators.sample_sphere_exp``), so the program's own files
stay untouched. A span records (name, start, end, parent, trial id); a layer's
self time is its span minus its child spans. Spans are kept in memory and
written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import nodedp.boosting
import nodedp.estimators
import nodedp.harness
import nodedp.lp
import nodedp.registry
import nodedp.truncation
from nodedp.graphs import max_degree

ESTIMATOR_FNS = (
    "ef_spectral", "eigvec_deflation_cluster", "private_pca_lipschitz",
    "two_community_convex", "matrix_estimation", "subspace_estimation",
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: int | None

    @property
    def ms(self) -> float:
        return 1000.0 * (self.end - self.start)


class Tracer:
    """Span store and counters; safe to share between sweep worker threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.spawn_keys: dict = defaultdict(list)  # trial id -> [(seed, path)]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.trial = None
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, new_trial: bool = False):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        outer_trial = self._local.trial
        if new_trial:
            self._local.trial = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self._local.trial))
            self._local.trial = outer_trial

    def wrap(self, name: str, fn, after=None, new_trial: bool = False):
        """Time fn as span `name`; after(args, kwargs, result) updates counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, new_trial):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def count_spawns(self, fn):
        @functools.wraps(fn)
        def wrapper(seed, *path):
            self._stack()
            key = (int(seed), tuple(int(p) for p in path))
            with self._lock:
                self.counts["rng.spawn.calls"] += 1
                self.spawn_keys[self._local.trial].append(key)
            return fn(seed, *path)

        return wrapper

    def patches(self) -> list[tuple[object, str, object]]:
        """(module, attribute, wrapper) for every traced call site."""
        h, e, t = nodedp.harness, nodedp.estimators, nodedp.truncation
        plan = [
            (h, "_run_trial", "harness.trial", None),
            (h, "sample_sbm", "graphs.sample_sbm", None),
            (h, "sample_weighted_sbm", "graphs.sample_weighted_sbm", None),
            (h, "graph_boost", "boosting.graph_boost", None),
            (h, "reduce_to_node_private", "estimators.reduce_to_node_private", None),
            (h, "loss_overall", "metrics.loss", None),
            (h, "loss_worst_case", "metrics.loss", None),
            (nodedp.boosting, "thin_graph", "graphs.thin_graph", None),
            (e, "_edge_flip", "mechanisms.edge_flip", None),
            (e, "sample_sphere_exp", "mechanisms.sample_sphere_exp", self._after_sphere),
            (e, "sample_lipschitz_exp", "mechanisms.sample_lipschitz_exp", None),
            (e, "laplace", "mechanisms.laplace", None),
            (t, "laplace", "mechanisms.laplace", None),
            (e, "sym_eigs", "clustering.sym_eigs", None),
            (e, "approx_kmeans", "clustering.approx_kmeans", None),
            (t, "degree_truncate", "truncation.degree_truncate", self._after_truncate),
            (t, "solve_lp", "lp.solve_lp", self._after_solve),
            (nodedp.lp, "linprog", "lp.highs", self._after_linprog),
        ]
        plan += [(nodedp.registry, fn, f"estimators.{fn}",
                  self._after_dykstra if fn == "two_community_convex" else None)
                 for fn in ESTIMATOR_FNS]
        out = [(mod, attr, self.wrap(name, getattr(mod, attr), after,
                                     new_trial=(name == "harness.trial")))
               for mod, attr, name, after in plan]
        out += [(mod, "spawn", self.count_spawns(mod.spawn))
                for mod in (h, nodedp.boosting)]
        return out

    # Counters read at the call boundary -------------------------------------

    def _after_sphere(self, args, kwargs, sample):
        self.add("mechanisms.sampler_candidates", sample.accepted_after)

    def _after_truncate(self, args, kwargs, result):
        g, D = args[0], args[1]
        truncated, _ = result
        before = g.edge_count()
        self.add("truncation.lp_path_calls", int(max_degree(g) > D))
        self.add("truncation.edges_in", before)
        self.add("truncation.edges_removed", before - truncated.edge_count())

    def _after_solve(self, args, kwargs, sol):
        self.add("lp.nonoptimal", int(sol.status != "optimal"))

    def _after_linprog(self, args, kwargs, res):
        c = args[0] if args else kwargs["c"]
        mats = [m for m in (kwargs.get("A_ub"), kwargs.get("A_eq")) if m is not None]
        self.add("lp.vars", len(c))
        self.add("lp.rows", sum(m.shape[0] for m in mats))
        self.add("lp.nnz", sum(m.nnz for m in mats))

    def _after_dykstra(self, args, kwargs, out):
        self.add("estimators.dykstra_iterations", out.diagnostics["dykstra_iterations"])

    def reused_stream_trials(self) -> int:
        """Trials in which one (seed, path) stream was spawned more than once."""
        return sum(len(keys) != len(set(keys))
                   for trial, keys in self.spawn_keys.items() if trial is not None)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


@contextlib.contextmanager
def installed(patches):
    """Swap in (module, attribute, replacement) triples; restore on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, new in patches:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals over every traced trial, as {name: (value, unit)}."""
    child_ms: dict = defaultdict(float)
    for s in tracer.spans:
        if s.parent is not None:
            child_ms[s.parent] += s.ms
    total, self_ms, calls = defaultdict(float), defaultdict(float), Counter()
    for s in tracer.spans:
        total[s.name] += s.ms
        self_ms[s.name] += s.ms - child_ms[s.id]
        calls[s.name] += 1
    c = tracer.counts
    trial_ms = total["harness.trial"]
    boosts = {s.id for s in tracer.spans if s.name == "boosting.graph_boost"}

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "harness.trials": (calls["harness.trial"], "count"),
        "harness.trial.ms": (trial_ms, "ms"),
        "harness.trial.self_ms": (self_ms["harness.trial"], "ms"),
        "harness.persist.ms": (total["harness.persist"], "ms"),
        "metrics.loss.ms": (total["metrics.loss"], "ms"),
        "mechanisms.sample_sphere_exp.ms": (total["mechanisms.sample_sphere_exp"], "ms"),
        "mechanisms.sample_sphere_exp.calls": (calls["mechanisms.sample_sphere_exp"], "count"),
        "mechanisms.sample_sphere_exp.trial_share": (
            ratio(total["mechanisms.sample_sphere_exp"], trial_ms), "ratio"),
        "mechanisms.sampler_candidates": (c["mechanisms.sampler_candidates"], "count"),
        "mechanisms.sampler_accept_ratio": (
            ratio(calls["mechanisms.sample_sphere_exp"],
                  c["mechanisms.sampler_candidates"]), "ratio"),
        "mechanisms.sample_lipschitz_exp.calls": (
            calls["mechanisms.sample_lipschitz_exp"], "count"),
        "mechanisms.edge_flip.ms": (total["mechanisms.edge_flip"], "ms"),
        "mechanisms.laplace.calls": (calls["mechanisms.laplace"], "count"),
        "truncation.degree_truncate.self_ms": (self_ms["truncation.degree_truncate"], "ms"),
        "truncation.degree_truncate.calls": (calls["truncation.degree_truncate"], "count"),
        "truncation.lp_path_share": (
            ratio(c["truncation.lp_path_calls"], calls["truncation.degree_truncate"]),
            "ratio"),
        "truncation.edges_removed_share": (
            ratio(c["truncation.edges_removed"], c["truncation.edges_in"]), "ratio"),
        "lp.solve_lp.ms": (total["lp.solve_lp"], "ms"),
        "lp.solve_lp.calls": (calls["lp.solve_lp"], "count"),
        "lp.solve_lp.trial_share": (ratio(total["lp.solve_lp"], trial_ms), "ratio"),
        "lp.highs.ms": (total["lp.highs"], "ms"),
        "lp.assemble.ms": (self_ms["lp.solve_lp"], "ms"),
        "lp.vars": (ratio(c["lp.vars"], calls["lp.highs"]), "count/call"),
        "lp.rows": (ratio(c["lp.rows"], calls["lp.highs"]), "count/call"),
        "lp.nnz": (ratio(c["lp.nnz"], calls["lp.highs"]), "count/call"),
        "lp.nonoptimal": (c["lp.nonoptimal"], "count"),
        "clustering.approx_kmeans.ms": (total["clustering.approx_kmeans"], "ms"),
        "clustering.approx_kmeans.calls": (calls["clustering.approx_kmeans"], "count"),
        "clustering.sym_eigs.ms": (total["clustering.sym_eigs"], "ms"),
        "clustering.sym_eigs.calls": (calls["clustering.sym_eigs"], "count"),
        "graphs.sample_sbm.ms": (total["graphs.sample_sbm"], "ms"),
        "graphs.sample_weighted_sbm.ms": (total["graphs.sample_weighted_sbm"], "ms"),
        "graphs.thin_graph.ms": (total["graphs.thin_graph"], "ms"),
        "boosting.graph_boost.self_ms": (self_ms["boosting.graph_boost"], "ms"),
        "boosting.base_runs": (sum(
            s.name == "estimators.reduce_to_node_private" and s.parent in boosts
            for s in tracer.spans), "count"),
        "estimators.dykstra_iterations": (c["estimators.dykstra_iterations"], "count"),
        "rng.spawn.calls": (c["rng.spawn.calls"], "count"),
        "rng.trials_with_reused_stream": (tracer.reused_stream_trials(), "count"),
    }
    for fn in ESTIMATOR_FNS + ("reduce_to_node_private",):
        m[f"estimators.{fn}.self_ms"] = (self_ms[f"estimators.{fn}"], "ms")
    return m
