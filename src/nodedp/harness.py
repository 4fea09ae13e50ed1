"""Experiment configuration, seeded sweep execution, summary statistics, and
persistence.

A sweep evaluates one estimator over an (eps, delta) grid times a list of
seeds. Every trial draws its generators from (seed, indices), so outputs are
independent of worker scheduling, and every loaded OpenBLAS runs one thread
while a sweep is running, so they are independent of the core count too; the
canonical records CSV is byte-identical across reruns (wall-clock timings go
to a separate sidecar file).
"""

from __future__ import annotations

import csv
import ctypes
import importlib.util
import itertools
import json
import math
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .accounting import reduction_total
from .boosting import BoostConfig, graph_boost
from .estimators import BoundedDegreeEstimator, reduce_to_node_private
from .graphs import SbmParams, WeightModel, sample_sbm, sample_weighted_sbm
from .metrics import loss_overall, loss_worst_case
from .registry import PIPELINES, check_direct_params, check_params, make_bounded_base, run_pipeline
from .rng import spawn

# wrapper.D_rule mode -> (value, average degree d) -> D
_D_RULES = {
    "absolute": lambda value, d: int(value),
    "multiple_of_d": lambda value, d: int(math.ceil(float(value) * d)),
}

RECORD_COLUMNS = [
    "scenario", "estimator", "grid_index", "eps", "delta", "D", "seed",
    "status", "error", "loss_overall", "loss_worst_case", "noise_off",
    "budget_chain", "diagnostics",
]


@dataclass
class ExperimentConfig:
    scenario: str
    sbm: dict
    estimator: dict  # {"id": ..., "params": {...}}
    eps_grid: list
    seeds: list
    delta_grid: list = field(default_factory=lambda: [1e-6])
    wrapper: dict | None = None  # {"D_rule": {...}, "eps1": ..., "delta1": ...}
    boost: dict | None = None  # {"T": ..., "xi": ...}
    noise_off: bool = False

    def __post_init__(self):
        """Validates the config and resolves what every trial reads: `params`
        (the SbmParams), the record's `D`, the wrapper's `eps1` and `delta1`,
        `boosting` (a BoostConfig), `reduced` (the wrapped pipeline as one
        BoundedDegreeEstimator), each None where it does not apply, and
        `run(graph, eps, delta, seed, noise_off)`: the pipeline or `reduced`."""
        est_id = self.estimator.get("id")
        if est_id not in PIPELINES:
            raise ValueError(f"unknown estimator id {est_id!r}")
        if not self.eps_grid or not self.delta_grid or not self.seeds:
            raise ValueError("eps_grid, delta_grid, and seeds must be non-empty")
        given = self.estimator.get("params", {})
        (check_direct_params if self.wrapper is None else check_params)(est_id, given)
        self.params = self.sbm_params()
        self.weighted = self.params.weight_model is not None and PIPELINES[est_id].weighted
        est_params = {"k": self.params.k, "B": np.asarray(self.params.B).tolist(), **given}
        self.D = est_params.get("D")
        self.eps1 = self.delta1 = self.boosting = self.reduced = None
        # run_pipeline and reduce_to_node_private are looked up in this module
        # at call time, so a function patched onto nodedp.harness is the one that runs.
        if self.wrapper is None:
            def run(graph, eps, delta, seed, noise_off=False):
                return run_pipeline(est_id, graph, {**est_params, "eps": eps, "delta": delta},
                                    seed, noise_off=noise_off)

            self.run = run
        else:
            if not set(self.wrapper) <= {"D_rule", "eps1", "delta1"}:
                raise ValueError(f"wrapper keys {sorted(self.wrapper)}: only D_rule, eps1, delta1")
            rule = self.wrapper.get("D_rule", {"mode": "multiple_of_d", "value": 3.0})
            try:
                D = _D_RULES[rule["mode"]](rule["value"], self.params.d)
                eps1 = float(self.wrapper.get("eps1", 1.0))
                delta1 = float(self.wrapper.get("delta1", 1e-6))
                valid = D >= 1 and eps1 > 0.0 and 0.0 < delta1 < 1.0
            except (KeyError, TypeError, ValueError, OverflowError):
                valid = False
            if not valid:
                raise ValueError(f"invalid wrapper {self.wrapper!r}: its D rule must give an "
                                 "integer D >= 1, eps1 must be > 0 and delta1 in (0, 1)")
            base = make_bounded_base(est_id, self.params.k, D, est_params)

            def reduced_run(graphs, e, d, s, noise_off=False):
                return reduce_to_node_private(graphs, base, D, eps1, delta1, e, d, s,
                                              noise_off=noise_off)

            self.D, self.eps1, self.delta1 = D, eps1, delta1
            self.reduced = BoundedDegreeEstimator(
                f"reduced({est_id})", reduced_run,
                lambda e, d: reduction_total(base.guarantee(e, d), eps1, delta1))
            self.run = self.reduced.run
        if self.boost is not None:
            if self.wrapper is None:
                raise ValueError("boost needs a wrapper: only the reduced estimator is boosted")
            if set(self.boost) != {"T", "xi"}:
                raise ValueError(f"boost must set exactly T and xi, got {sorted(self.boost)}")
            if self.weighted:
                raise ValueError(f"boost thins unweighted graphs only, and {est_id} "
                                 "takes the SBM's weights")
            # raises for an even T or xi outside (0, 1/(8k))
            self.boosting = BoostConfig(T=int(self.boost["T"]), xi=float(self.boost["xi"]),
                                        k=self.params.k)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json.loads(text))

    def sbm_params(self) -> SbmParams:
        s = self.sbm
        wm = None
        if s.get("weight_model"):
            wm = WeightModel(
                means=np.asarray(s["weight_model"]["means"], dtype=float),
                scale=float(s["weight_model"]["scale"]),
            )
        return SbmParams(n=int(s["n"]), k=int(s["k"]),
                         B=np.asarray(s["B"], dtype=float), weight_model=wm)

    def sample_graph(self, seed: int):
        """Seed's graph as the sweep scores it, from stream spawn(seed, 0): a
        WeightedGraph only when the SBM has a weight model and the pipeline
        takes weights."""
        sample = sample_weighted_sbm if self.weighted else sample_sbm
        return sample(self.params, spawn(int(seed), 0))


@dataclass
class TrialRecord:
    scenario: str
    estimator: str
    grid_index: int
    eps: float
    delta: float
    D: int | None
    seed: int
    status: str  # "ok" | "failed"
    error: str
    loss_overall: float | None
    loss_worst_case: float | None
    runtime_ms: float
    noise_off: bool
    diagnostics: dict
    budget_chain: list

    def csv_row(self) -> list:
        return [
            self.scenario, self.estimator, self.grid_index,
            repr(self.eps), repr(self.delta),
            "" if self.D is None else self.D, self.seed,
            self.status, self.error,
            "" if self.loss_overall is None else repr(self.loss_overall),
            "" if self.loss_worst_case is None else repr(self.loss_worst_case),
            int(self.noise_off),
            json.dumps(self.budget_chain, sort_keys=True),
            json.dumps(self.diagnostics, sort_keys=True, default=repr),
        ]


def _run_trial(cfg: ExperimentConfig, grid_index: int, eps: float, delta: float, seed: int,
               shared: dict) -> TrialRecord:
    """One trial; `shared` passes the seed's graph from its first trial to the
    rest, which wait on the seed's lock while it is sampled."""
    start = time.perf_counter()
    try:
        with shared.setdefault("lock", threading.Lock()):
            if "graph" not in shared:
                shared["graph"] = cfg.sample_graph(seed)
        if cfg.boosting is None:
            out = cfg.run(shared["graph"], eps, delta, spawn(seed, 1, grid_index),
                          noise_off=cfg.noise_off)
        else:
            out = graph_boost(shared["graph"], cfg.boosting, cfg.reduced, eps, delta,
                              seed=int(seed), noise_off=cfg.noise_off)
        runtime = 1000.0 * (time.perf_counter() - start)
        losses = (None, None)
        status, error = "failed", out.diagnostics.get("failure", "estimator-failure")
        if out.labels is not None:
            status, error = "ok", ""
            losses = (loss_overall(out.labels, cfg.params.theta),
                      loss_worst_case(out.labels, cfg.params.theta))
        diagnostics, chain = out.diagnostics, [b.to_dict() for b in out.budget]
    except Exception as exc:  # crash isolation: typed failure row
        runtime = 1000.0 * (time.perf_counter() - start)
        status, error, losses = "failed", type(exc).__name__, (None, None)
        diagnostics, chain = {"traceback": _failure_traceback(exc)}, []
    return TrialRecord(cfg.scenario, cfg.estimator["id"], grid_index, eps, delta, cfg.D, seed,
                       status, error, *losses, runtime, cfg.noise_off, diagnostics, chain)


def _failure_traceback(exc: Exception) -> str:
    """exc's innermost three nodedp frames as 'nodedp/truncation.py:<line> in
    degree_truncate', then its type and message: no path that differs by checkout."""
    package = Path(__file__).resolve().parent
    frames = [(Path(f.filename).resolve(), f) for f in traceback.extract_tb(exc.__traceback__)]
    lines = [f"{path.relative_to(package.parent).as_posix()}:{f.lineno} in {f.name}"
             for path, f in frames if path.is_relative_to(package)]
    return "\n".join(lines[-3:] + [f"{type(exc).__name__}: {exc}"])


class _OneBlasThread:
    """Context manager: numpy's and scipy's OpenBLAS run one thread inside it.

    OpenBLAS's thread count changes the floating-point bits of its results, and
    numpy and scipy each load their own copy, which by default starts one
    thread per core under every sweep thread. The first caller to enter saves
    each library's count and sets it to 1; the last to leave restores them, so
    concurrent and nested sweeps are safe. Loaded libraries are found in
    /proc/self/maps; scipy's, which the sampler's lazy scipy.linalg import
    would load inside a sweep, is loaded on entry from scipy.libs (found
    without importing scipy). The libraries are looked up once per process,
    on the first entry; the counts are read and set on every first entry.
    Without OpenBLAS (or Linux) it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._controls = None  # [(get_num_threads, set_num_threads)]
        self._saved = []  # [(set_num_threads, count before entry)]

    @staticmethod
    def _find_controls():
        spec = importlib.util.find_spec("scipy")
        libs = Path(spec.origin).parent.parent / "scipy.libs" if spec else None
        paths = {str(p.resolve()) for p in libs.glob("*openblas*.so*")} if libs else set()
        try:
            with open("/proc/self/maps") as fh:
                paths |= {line.split(maxsplit=5)[-1].strip()
                          for line in fh if "openblas" in line}
        except OSError:
            pass
        controls = []
        for path in sorted(paths):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
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

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                if self._controls is None:
                    self._controls = self._find_controls()
                self._saved = [(set_, get()) for get, set_ in self._controls]
                for set_, _ in self._saved:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)
                self._saved = []


_one_blas_thread = _OneBlasThread()

# glibc's malloc returns the free top of its heap to the OS once it exceeds
# twice the dynamic mmap threshold, which starts at 128 KB and rises to the
# size of the largest mmapped block freed so far (mallopt(3)). A truncation
# trial at n = 200 that HiGHS does not solve grows the heap by about 0.8 MB
# and frees no block over 320 KB. Without a floor its heap is trimmed after
# each trial and faulted back in by the next (200-400 page faults a trial),
# unless some earlier trial happened to free a larger block, so a run's speed
# would depend on its history. One freed 2 MB block sets the trim point to at
# least 4 MB.
_HEAP_FLOOR_BYTES = 2 << 20


def _raise_heap_trim_floor() -> None:
    """Allocate and free one _HEAP_FLOOR_BYTES block. Its pages are never
    touched, so it costs a mmap/munmap pair and no memory; where the allocator
    is not glibc's, or the threshold is already higher, it changes nothing."""
    np.empty(_HEAP_FLOOR_BYTES, dtype=np.uint8)


def run_sweep(cfg: ExperimentConfig, threads: int = 1) -> list[TrialRecord]:
    """One record per (grid point x seed), in grid-major order; failures become
    typed rows. Trials run seed-major: a seed's graph (and its truncation) is
    built by its first trial and dropped after its last. `threads` trials run
    at once, each on one BLAS thread."""
    grid = [(gi, eps, delta)
            for gi, (eps, delta) in enumerate(
                (e, d) for e in cfg.eps_grid for d in cfg.delta_grid)]

    def trials():
        for seed in cfg.seeds:
            shared = {}
            for gi, eps, delta in grid:
                yield cfg, gi, eps, delta, seed, shared

    _raise_heap_trim_floor()
    with _one_blas_thread:
        if threads <= 1:
            done = [_run_trial(*t) for t in trials()]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                done = list(pool.map(lambda t: _run_trial(*t), trials()))
    return sorted(done, key=lambda r: r.grid_index)  # stable: seeds keep their order


def summarize(records: list[TrialRecord]) -> list[dict]:
    """Per grid point: median and 10/90 quantiles of both losses, failure rate."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict = {}
    for r in records:
        groups.setdefault((r.grid_index, r.eps, r.delta), []).append(r)
    out = []
    for (gi, eps, delta), rs in sorted(groups.items()):
        ok = [r for r in rs if r.status == "ok"]
        row = {
            "grid_index": gi, "eps": eps, "delta": delta,
            "trials": len(rs), "failure_rate": 1.0 - len(ok) / len(rs),
        }
        for name in ("loss_overall", "loss_worst_case"):
            vals = [getattr(r, name) for r in ok]
            qs = np.quantile(vals, (0.5, 0.1, 0.9)).tolist() if vals else [None] * 3
            row.update(zip((f"{name}_median", f"{name}_q10", f"{name}_q90"), qs))
        out.append(row)
    return out


def write_records_csv(records: list[TrialRecord], path) -> None:
    """Canonical deterministic record file (timings are written separately)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(RECORD_COLUMNS)
        for r in records:
            w.writerow(r.csv_row())


def write_timings_csv(records: list[TrialRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["grid_index", "eps", "delta", "seed", "runtime_ms"])
        for r in records:
            w.writerow([r.grid_index, repr(r.eps), repr(r.delta), r.seed,
                        f"{r.runtime_ms:.3f}"])


def write_summary_json(summary: list[dict], path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_plotdata_csv(records: list[TrialRecord], path) -> None:
    """Tidy long-format CSV for external plotting."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["scenario", "estimator", "eps", "delta", "D", "seed",
                    "metric", "value"])
        for r in records:
            if r.status != "ok":
                continue
            for metric in ("loss_overall", "loss_worst_case"):
                w.writerow([r.scenario, r.estimator, repr(r.eps), repr(r.delta),
                            "" if r.D is None else r.D, r.seed, metric,
                            repr(getattr(r, metric))])
