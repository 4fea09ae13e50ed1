"""nodedp sweep benchmark.

Runs one workload through the public harness entry points, the way
``nodedp sweep`` does: ExperimentConfig -> harness.run_sweep -> write_records_csv,
write_timings_csv and write_summary_json(summarize(...)). Checks every output
record, prints each metric with its unit, and prints one JSON result as the
last line of standard output.

    python3 perfbench/run.py --workload sampler --seed 0 --seconds 36 --trace 0

--trace 0 reports the end-to-end metrics from untraced passes. --trace 1 runs
the fixed quota passes twice, untraced and traced, and reports the per-layer
metrics plus the tracing overhead. Run it from the root of a nodedp checkout;
outputs go to .perfbench_out/ there. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Fresh-process set-ups per untraced run, spaced evenly over the run so that
# they sample the host over the whole run rather than over its first seconds.
# setup_s is their median: across ten runs it spread less than their minimum.
# See NOTES.md.
SETUP_REPS = 7
# Highest-eps grid point of every config: median overall loss must beat this.
# Random labels score about 1.0 under this loss for k = 2.
ACCURACY_LIMIT = 0.2

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import nodedp
from nodedp.harness import ExperimentConfig
for text in sys.argv[2:]:
    ExperimentConfig.from_json(text).sbm_params()
print(repr(time.monotonic()))
"""


def measure_setup(wl) -> float:
    """Fresh process to first trial: interpreter start, import nodedp, parse
    every config of the workload. Returns the duration in seconds."""
    texts = [json.dumps(c) for c, _ in wl.configs]
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *texts],
                          capture_output=True, text=True, timeout=120, cwd=ROOT,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1]) - start


def blas_info() -> list[tuple[str, str, int | None]]:
    """(package, OpenBLAS build, thread count) for each OpenBLAS that numpy and
    scipy load; the thread count is None if the library does not report it."""
    import scipy

    found = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("libscipy_openblas*.so")):
            suffix = "64_" if "openblas64" in lib.name else ""
            try:
                handle = ctypes.CDLL(str(lib))
                threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}")
                config = getattr(handle, f"scipy_openblas_get_config{suffix}")
            except (OSError, AttributeError):
                found.append((pkg.__name__, lib.name, None))
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            found.append((pkg.__name__, config().decode(), threads()))
    return found


class LabelCheck:
    """Validates every label assignment the harness scores; installed in both
    modes as a wrapper of nodedp.harness.loss_overall (a few microseconds)."""

    def __init__(self, fn):
        self.checked = 0
        self.bad = 0
        self._fn = fn
        self._lock = threading.Lock()

    def __call__(self, theta_hat, theta):
        # LabelAssignment itself guarantees 1-D int64 labels in [0, k).
        ok = theta_hat.k == theta.k and theta_hat.n == theta.n and theta_hat.n > 0
        with self._lock:
            self.checked += 1
            self.bad += not ok
        return self._fn(theta_hat, theta)


def _finite_budget(chain) -> bool:
    if not chain:
        return False
    for b in chain:
        values = [b[key] for key in ("eps", "delta", "rho") if key in b]
        if b.get("kind") not in ("pure", "approx", "zcdp") or not values:
            return False
        if not all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0
                   for v in values):
            return False
        if b.get("delta", 0.0) > 1.0:
            return False
    return True


def is_exception_row(r) -> bool:
    return r.status == "failed" and "traceback" in r.diagnostics


def is_bot_row(r) -> bool:
    """The estimator declared failure (e.g. no-majority-witness)."""
    return r.status == "failed" and "failure" in r.diagnostics


def check_record(r, cfg) -> str:
    """Empty string if the record is well formed, else the problem."""
    k = int(cfg.sbm["k"])
    if r.seed not in cfg.seeds or r.scenario != cfg.scenario or r.noise_off:
        return "wrong seed, scenario or noise_off"
    if r.diagnostics.get("noise_off", False):
        return "diagnostics report noise_off"
    if r.status == "ok":
        lo, lw = r.loss_overall, r.loss_worst_case
        # Overall loss is at most 2(k-1)/k; worst-community loss lies in
        # [overall, 2] for balanced communities.
        if not (0.0 <= lo <= 2.0 * (k - 1) / k + 1e-12):
            return f"loss_overall {lo} out of range"
        if not (lo - 1e-12 <= lw <= 2.0 + 1e-12):
            return f"loss_worst_case {lw} out of range"
        if r.error or not _finite_budget(r.budget_chain):
            return "ok row with an error or a malformed budget chain"
        return ""
    if r.status != "failed" or not r.error:
        return f"status {r.status!r} without a typed error"
    if not (is_exception_row(r) or is_bot_row(r)):
        return "failed row is neither an exception nor a declared failure"
    return ""


def run_pass(wl, seed, p, tracer=None):
    """Sweep each config once with the trial seeds of pass p and persist it
    like `nodedp sweep`. Returns [(cfg, records)], wall seconds, records.csv
    bytes."""
    from nodedp.harness import (
        ExperimentConfig, run_sweep, summarize, write_records_csv,
        write_summary_json, write_timings_csv,
    )

    out, wall, csv_bytes = [], 0.0, b""
    for base, count in wl.configs:
        cfg = ExperimentConfig(**dict(base, seeds=workloads.pass_seeds(seed, p, count)))
        dest = OUT / wl.name / cfg.scenario
        dest.mkdir(parents=True, exist_ok=True)
        persist = tracer.span("harness.persist") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        records = run_sweep(cfg, threads=wl.threads)
        with persist:
            write_records_csv(records, dest / "records.csv")
            write_timings_csv(records, dest / "timings.csv")
            write_summary_json(summarize(records), dest / "summary.json")
        wall += time.perf_counter() - start
        csv_bytes += (dest / "records.csv").read_bytes()
        out.append((cfg, records))
    return out, wall, csv_bytes


class Tally:
    """Records, checks and quality over a set of passes."""

    def __init__(self):
        self.records = []
        self.by_config: dict = {}  # scenario -> records (quota passes only)
        self.problems: list[str] = []
        self.bad_rows = 0
        self.wall = 0.0
        self.warm_up_ok = 0
        self.digest = hashlib.sha256()

    def check(self, cfg, records):
        for r in records:
            problem = check_record(r, cfg)
            if problem:
                self.bad_rows += 1
                self.problems.append(f"{cfg.scenario} seed {r.seed} "
                                     f"grid {r.grid_index}: {problem}")

    def add(self, pass_out, wall, csv_bytes, quota: bool):
        for cfg, records in pass_out:
            expected = len(cfg.eps_grid) * len(cfg.delta_grid) * len(cfg.seeds)
            if len(records) != expected:
                self.problems.append(f"{cfg.scenario}: {len(records)} records, "
                                     f"expected {expected}")
            self.check(cfg, records)
            self.records += records
            if quota:
                self.by_config.setdefault(cfg.scenario, (cfg, []))[1].extend(records)
        self.wall += wall
        if quota:
            self.digest.update(csv_bytes)

    def quality(self) -> dict:
        """Mean over grid points of the per-point median losses that
        harness.summarize reports, over the quota passes; plus the accuracy
        check at each config's highest eps."""
        from nodedp.harness import summarize

        medians = {"loss_overall": [], "loss_worst_case": []}
        for scenario, (cfg, records) in self.by_config.items():
            rows = summarize(records)
            for name, values in medians.items():
                values += [row[f"{name}_median"] for row in rows
                           if row[f"{name}_median"] is not None]
            top = max(rows, key=lambda row: row["eps"])
            if top["loss_overall_median"] is None or top["loss_overall_median"] > ACCURACY_LIMIT:
                self.problems.append(
                    f"{scenario}: median loss {top['loss_overall_median']} at "
                    f"eps={top['eps']:g} exceeds {ACCURACY_LIMIT}")
        return {name: statistics.fmean(v) if v else float("nan")
                for name, v in medians.items()}


def trial_stats(records, tail_pct):
    ms = np.array([r.runtime_ms for r in records])
    tail = float(np.percentile(ms, tail_pct))
    return float(np.percentile(ms, 50)), tail, int(np.sum(ms > tail))


def warm_up(wl, seed, tally):
    """One trial per config, so that lazy imports and first-call set-up in
    numpy, scipy and HiGHS are not charged to the first measured trial."""
    from nodedp.harness import ExperimentConfig, run_sweep

    for base, _ in wl.configs:
        cfg = ExperimentConfig(**dict(base, eps_grid=base["eps_grid"][:1],
                                      seeds=workloads.pass_seeds(seed, 9_999, 1)))
        records = run_sweep(cfg)
        tally.check(cfg, records)
        tally.warm_up_ok += sum(r.status == "ok" for r in records)


def run_untraced(wl, seed, seconds):
    """Passes until the quota is done and `seconds` have passed since the
    first pass began, set-ups included. After a pass, one set-up is measured
    if another 1/SETUP_REPS of `seconds` has gone by since the start. Returns
    the tally, the number of passes and the set-up durations."""
    tally, setup = Tally(), []
    warm_up(wl, seed, tally)
    start = time.monotonic()
    p = 0
    while p < workloads.QUOTA_PASSES or time.monotonic() - start < seconds:
        tally.add(*run_pass(wl, seed, p), quota=p < workloads.QUOTA_PASSES)
        p += 1
        if (len(setup) < SETUP_REPS
                and time.monotonic() - start >= len(setup) * seconds / SETUP_REPS):
            setup.append(measure_setup(wl))
    while len(setup) < SETUP_REPS:
        setup.append(measure_setup(wl))
    return tally, p, setup


def run_traced(wl, seed, tracer):
    """Each quota pass untraced and traced (alternating which goes first); the
    two records.csv files must match byte for byte."""
    import spans

    untraced, traced = Tally(), Tally()
    warm_up(wl, seed, untraced)
    patches = tracer.patches()
    for p in range(workloads.QUOTA_PASSES):
        results = {}
        for is_traced in ((False, True) if p % 2 == 0 else (True, False)):
            with spans.installed(patches) if is_traced else contextlib.nullcontext():
                results[is_traced] = run_pass(wl, seed, p, tracer if is_traced else None)
            (traced if is_traced else untraced).add(*results[is_traced], quota=True)
        if results[True][2] != results[False][2]:
            traced.problems.append(f"pass {p}: traced records.csv differs from untraced")
    return untraced, traced


def report(name, value, unit, note=""):
    print(f"{name:42s} {value:>14.6g} {unit}{('  ' + note) if note else ''}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "nodedp" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not a nodedp checkout (src/nodedp and configs/ "
              "are required)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nodedp.harness

    if not Path(nodedp.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported nodedp from {nodedp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.load(args.workload, ROOT)
    (OUT / wl.name).mkdir(parents=True, exist_ok=True)
    label_check = LabelCheck(nodedp.harness.loss_overall)
    nodedp.harness.loss_overall = label_check
    blas = blas_info()
    for pkg, config, threads in blas:
        print(f"blas: {pkg}: {config} threads={'unknown' if threads is None else threads}")
    if not blas:
        print("blas: no bundled OpenBLAS found")

    metrics: dict = {}
    if args.trace == 0:
        tally, passes, setup = run_untraced(wl, args.seed, args.seconds)
        records = tally.records
        p50, tail, beyond = trial_stats(records, wl.tail_pct)
        quality = tally.quality()
        quota_records = [r for _, rs in tally.by_config.values() for r in rs]
        errors = sum(map(is_exception_row, quota_records))
        bots = sum(map(is_bot_row, quota_records))
        metrics = {
            "trials_per_s": (len(records) / tally.wall, "1/s"),
            "trial_ms_p50": (p50, "ms"),
            "trial_ms_tail": (tail, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_rate": ((len(quota_records) - errors - bots) / len(quota_records), "ratio"),
        }
        notes = {"trial_ms_tail": f"p{wl.tail_pct:g} of {len(records)} trials, "
                                  f"{beyond} beyond it"}
        for name, (value, unit) in metrics.items():
            report(name, value, unit, notes.get(name, ""))
        report("error_rate", errors / len(quota_records), "ratio",
               f"{errors} exception rows / {len(quota_records)} quota trials")
        report("bot_rate", bots / len(quota_records), "ratio",
               f"{bots} declared failures / {len(quota_records)} quota trials")
        for name, value in quality.items():
            report(f"{name}_median", value, "ratio", "mean over grid points, quota trials")
        print(f"passes: {passes} ({workloads.QUOTA_PASSES} quota), trials: {len(records)}, "
              f"setup runs (s): {', '.join(f'{s:.3f}' for s in setup)}")
        expected_checks = tally.warm_up_ok + sum(r.status == "ok" for r in records)
    else:
        import spans

        tracer = spans.Tracer()
        untraced, tally = run_traced(wl, args.seed, tracer)
        tally.problems += untraced.problems
        tally.bad_rows += untraced.bad_rows
        u50 = trial_stats(untraced.records, 50)[0]
        t50 = trial_stats(tally.records, 50)[0]
        records = untraced.records + tally.records
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_ms"] = (t50 - u50, "ms")
        metrics["trace.overhead_share"] = ((t50 - u50) / u50, "ratio")
        metrics["harness.error_rate"] = (
            sum(map(is_exception_row, tally.records)) / len(tally.records), "ratio")
        metrics["harness.bot_rate"] = (
            sum(map(is_bot_row, tally.records)) / len(tally.records), "ratio")
        metrics["blas.threads"] = (
            next((t for pkg, _, t in blas if pkg == "numpy" and t is not None), 0), "count")
        for name, value in tally.quality().items():
            metrics[f"metrics.{name}_median"] = (value, "ratio")
        for name, (value, unit) in sorted(metrics.items()):
            report(name, value, unit)
        tracer.dump(OUT / wl.name / "spans.jsonl")
        expected_checks = untraced.warm_up_ok + sum(r.status == "ok" for r in records)

    if label_check.bad or label_check.checked != expected_checks:
        tally.problems.append(f"labels: {label_check.bad} malformed, "
                              f"{label_check.checked} checked for {expected_checks} ok rows")
    print(f"records.csv sha256 over {workloads.QUOTA_PASSES} quota passes "
          f"(seed {args.seed}): {tally.digest.hexdigest()}")
    for problem in tally.problems[:20]:
        print("CHECK FAILED:", problem)
    correct = not tally.problems
    failed = sum(map(is_exception_row, records)) + tally.bad_rows
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / wl.name / f"result-trace{args.trace}.json").write_text(
        json.dumps(dict(result, blas=blas, sha256=tally.digest.hexdigest()), indent=2))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
