import gc
import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import nodedp
import nodedp.harness
import nodedp.truncation
from nodedp.harness import (
    ExperimentConfig,
    TrialRecord,
    _run_trial,
    run_sweep,
    summarize,
    write_plotdata_csv,
    write_records_csv,
    write_summary_json,
    write_timings_csv,
)
from nodedp.lp import LpSolution


def base_config(**overrides):
    cfg = dict(
        scenario="unit",
        sbm={"n": 60, "k": 2, "B": [[0.6, 0.1], [0.1, 0.6]]},
        estimator={"id": "ef_spectral", "params": {"gamma": 1.0}},
        eps_grid=[2.0],
        delta_grid=[0.0],
        seeds=[0],
    )
    cfg.update(overrides)
    return ExperimentConfig(**cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(estimator={"id": "nope", "params": {}})
    with pytest.raises(ValueError):
        base_config(eps_grid=[])
    with pytest.raises(ValueError):
        base_config(seeds=[])


def test_single_point_single_seed_one_record():
    records = run_sweep(base_config())
    assert len(records) == 1
    assert records[0].status == "ok"
    assert 0.0 <= records[0].loss_overall <= 2.0


def test_rerun_byte_identical_csv(tmp_path):
    cfg = base_config(eps_grid=[1.0, 4.0], seeds=[0, 1, 2])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(run_sweep(cfg), p1)
    write_records_csv(run_sweep(base_config(eps_grid=[1.0, 4.0], seeds=[0, 1, 2])), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_thread_count_does_not_change_results(tmp_path):
    cfg = base_config(eps_grid=[1.0, 3.0], seeds=[0, 1, 2, 3])
    serial = run_sweep(cfg, threads=1)
    parallel = run_sweep(base_config(eps_grid=[1.0, 3.0], seeds=[0, 1, 2, 3]),
                         threads=4)
    p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
    write_records_csv(serial, p1)
    write_records_csv(parallel, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_failure_rows_are_typed_not_fatal():
    # Subspace estimation at an infeasible eps raises AssumptionViolation,
    # which must surface as a failure row, not abort the sweep.
    cfg = base_config(
        estimator={"id": "subspace_estimation", "params": {"zeta": 0.1}},
        eps_grid=[1e9],
        delta_grid=[1e-6],
        seeds=[0, 1],
    )
    records = run_sweep(cfg)
    assert len(records) == 2
    assert all(r.status == "failed" for r in records)
    assert all(r.error == "AssumptionViolation" for r in records)


def test_wrapper_and_boost_paths_run():
    cfg = base_config(
        sbm={"n": 60, "k": 2, "B": [[0.6, 0.1], [0.1, 0.6]]},
        eps_grid=[500.0],
        wrapper={"D_rule": {"mode": "multiple_of_d", "value": 1.0},
                 "eps1": 1.0, "delta1": 1e-6},
    )
    (rec,) = run_sweep(cfg)
    assert rec.status == "ok"
    assert rec.D == 36
    assert rec.budget_chain[-1]["provenance"][-1].startswith("generic reduction")

    cfg2 = base_config(
        eps_grid=[2000.0],
        wrapper={"D_rule": {"mode": "absolute", "value": 36},
                 "eps1": 1.0, "delta1": 1e-6},
        boost={"T": 3, "xi": 0.05},
    )
    (rec2,) = run_sweep(cfg2)
    assert rec2.status in ("ok", "failed")  # bot is a legal typed outcome
    if rec2.status == "ok":
        assert rec2.budget_chain[0]["eps"] == pytest.approx(3 * 2000.0)


def test_summarize_quantiles_match_sort_oracle():
    records = run_sweep(base_config(eps_grid=[1.5], seeds=list(range(9))))
    (row,) = summarize(records)
    values = sorted(r.loss_overall for r in records)
    # Sort-based linear-interpolation oracle.
    def oracle(q):
        pos = q * (len(values) - 1)
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        frac = pos - lo
        return values[lo] * (1 - frac) + values[hi] * frac

    assert row["loss_overall_median"] == pytest.approx(oracle(0.5), abs=1e-12)
    assert row["loss_overall_q10"] == pytest.approx(oracle(0.1), abs=1e-12)
    assert row["loss_overall_q90"] == pytest.approx(oracle(0.9), abs=1e-12)
    assert row["failure_rate"] == 0.0
    assert row["trials"] == 9


def test_summarize_all_failures_marked_absent():
    cfg = base_config(
        estimator={"id": "subspace_estimation", "params": {"zeta": 0.1}},
        eps_grid=[1e9],
        delta_grid=[1e-6],
        seeds=[0, 1, 2],
    )
    (row,) = summarize(run_sweep(cfg))
    assert row["failure_rate"] == 1.0
    assert row["loss_overall_median"] is None


def test_summary_single_record_equals_it():
    records = run_sweep(base_config())
    (row,) = summarize(records)
    assert row["loss_overall_median"] == records[0].loss_overall
    assert row["loss_worst_case_median"] == records[0].loss_worst_case


def test_output_files(tmp_path):
    records = run_sweep(base_config(seeds=[0, 1]))
    write_records_csv(records, tmp_path / "records.csv")
    write_timings_csv(records, tmp_path / "timings.csv")
    write_summary_json(summarize(records), tmp_path / "summary.json")
    write_plotdata_csv(records, tmp_path / "plot.csv")
    header = (tmp_path / "records.csv").read_text().splitlines()[0]
    assert "loss_overall" in header and "runtime" not in header
    timing_header = (tmp_path / "timings.csv").read_text().splitlines()[0]
    assert "runtime_ms" in timing_header
    blob = json.loads((tmp_path / "summary.json").read_text())
    assert blob[0]["trials"] == 2
    plot_lines = (tmp_path / "plot.csv").read_text().splitlines()
    assert len(plot_lines) == 1 + 2 * 2  # header + 2 metrics x 2 trials


def test_noise_off_watermark():
    cfg = base_config(noise_off=True)
    (rec,) = run_sweep(cfg)
    assert rec.noise_off is True
    assert rec.diagnostics.get("noise_off") is True


# ---------------------------------------------------------------------------
# Seed-major sweeps: one graph and one truncation per seed


def truncating_config(**overrides):
    # D = ceil(0.5 d) = 18 against max degrees 27-30: every trial truncates.
    return base_config(**{
        "eps_grid": [500.0, 2000.0, 8000.0],
        "seeds": [0, 1],
        "wrapper": {"D_rule": {"mode": "multiple_of_d", "value": 0.5},
                    "eps1": 1.0, "delta1": 1e-6},
        **overrides,
    })


def one_trial_at_a_time(cfg):
    """Each trial on its own, with a freshly sampled graph, in grid-major
    order: what every trial computed before seeds shared their graph."""
    params = cfg.sbm_params()
    grid = [(e, d) for e in cfg.eps_grid for d in cfg.delta_grid]
    return [_run_trial(cfg, params, gi, eps, delta, seed, {})
            for gi, (eps, delta) in enumerate(grid) for seed in cfg.seeds]


def counting_solve_lp(monkeypatch, result=None):
    calls = []
    real = nodedp.truncation.solve_lp

    def spy(problem):
        calls.append(problem.n_vars)
        return real(problem) if result is None else result

    monkeypatch.setattr(nodedp.truncation, "solve_lp", spy)
    return calls


def test_sweep_solves_one_truncation_lp_per_seed(monkeypatch):
    calls = counting_solve_lp(monkeypatch)
    records = run_sweep(truncating_config())
    assert len(records) == 6 and all(r.status == "ok" for r in records)
    assert all(r.diagnostics["d_T"] > 0 for r in records)
    assert len(calls) == 2
    # Same graph and D, so the same d_T at every grid point; own L_hat noise.
    for seed in (0, 1):
        rows = [r for r in records if r.seed == seed]
        assert len({r.diagnostics["d_T"] for r in rows}) == 1
        assert len({r.diagnostics["L_hat"] for r in rows}) == 3


def test_sweep_matches_trials_run_one_at_a_time(tmp_path):
    cfg = truncating_config()
    write_records_csv(run_sweep(cfg), tmp_path / "sweep.csv")
    write_records_csv(one_trial_at_a_time(cfg), tmp_path / "alone.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
    # More threads than cores and frequent switches: trials of one seed race
    # to sample its graph and to memoise its truncation.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_sweep(truncating_config(), threads=4)
    finally:
        sys.setswitchinterval(interval)
    write_records_csv(parallel, tmp_path / "parallel.csv")
    assert (tmp_path / "parallel.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()


def test_lp_failure_is_a_typed_row_at_every_grid_point(monkeypatch, tmp_path):
    failed = LpSolution("failed", None, None, message="forced")
    calls = counting_solve_lp(monkeypatch, result=failed)
    records = run_sweep(truncating_config())
    assert [r.error for r in records] == ["LpFailure"] * 6
    assert len(calls) == 6  # failures are not memoised
    write_records_csv(records, tmp_path / "sweep.csv")
    write_records_csv(one_trial_at_a_time(truncating_config()), tmp_path / "alone.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_failure_traceback_has_no_absolute_paths(monkeypatch):
    failed = LpSolution("failed", None, None, message="forced")
    counting_solve_lp(monkeypatch, result=failed)
    rec = run_sweep(truncating_config(eps_grid=[500.0], seeds=[0]))[0]
    tb = rec.diagnostics["traceback"]
    root = Path(nodedp.__file__).resolve().parent.parent
    assert str(root) not in tb
    lines = tb.splitlines()
    assert lines[-2].startswith("nodedp/truncation.py:")
    assert lines[-2].endswith(" in degree_truncate")
    assert lines[-1].startswith("LpFailure: truncation LP ended with status failed")


@pytest.mark.parametrize("d_multiple", [0.5, 3.0])  # truncated / already bounded
def test_seed_graph_is_dropped_after_its_last_grid_point(monkeypatch, d_multiple):
    graphs = []
    real = nodedp.harness.sample_sbm

    def spy(params, seed):
        # Every earlier seed's graph (and its memoised truncation) is gone,
        # freed by reference counting: the cyclic collector is off.
        assert all(ref() is None for ref in graphs)
        g = real(params, seed)
        graphs.append(weakref.ref(g))
        return g

    monkeypatch.setattr(nodedp.harness, "sample_sbm", spy)
    cfg = truncating_config(seeds=[0, 1, 2], wrapper={
        "D_rule": {"mode": "multiple_of_d", "value": d_multiple},
        "eps1": 1.0, "delta1": 1e-6})
    gc.disable()
    try:
        records = run_sweep(cfg)
    finally:
        gc.enable()
    assert len(graphs) == 3 and all(r.status == "ok" for r in records)
    assert all(ref() is None for ref in graphs)


def test_sbm_params_built_once_per_sweep(monkeypatch):
    calls = []
    real = ExperimentConfig.sbm_params

    def spy(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(ExperimentConfig, "sbm_params", spy)
    run_sweep(base_config(eps_grid=[1.0, 2.0], seeds=[0, 1, 2]))
    assert len(calls) == 1


def test_shipped_configs_load_and_cover_every_pipeline():
    configs = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
    assert configs
    ids = {ExperimentConfig.from_json(p.read_text()).estimator["id"] for p in configs}
    assert ids == set(nodedp.harness.PIPELINES)


@pytest.mark.parametrize("estimator_id, weighted", [
    ("subspace_estimation", True),
    ("ef_spectral", False),
])
def test_trial_samples_weighted_graph_only_for_weighted_pipelines(monkeypatch, estimator_id,
                                                                 weighted):
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(nodedp.harness, name, wrapped)

    spy("sample_sbm", nodedp.harness.sample_sbm)
    spy("sample_weighted_sbm", nodedp.harness.sample_weighted_sbm)
    sbm = {"n": 60, "k": 2, "B": [[0.6, 0.1], [0.1, 0.6]],
           "weight_model": {"means": [[1.0, 0.2], [0.2, 1.0]], "scale": 0.5}}
    cfg = base_config(sbm=sbm, estimator={"id": estimator_id, "params": {"zeta": 0.1}},
                      delta_grid=[1e-6])
    shared = {}
    _run_trial(cfg, cfg.sbm_params(), 0, 2.0, 1e-6, 0, shared)
    assert calls == ["sample_weighted_sbm" if weighted else "sample_sbm"]
    assert isinstance(shared["graph"], nodedp.WeightedGraph) == weighted


# ---------------------------------------------------------------------------
# One BLAS thread inside a sweep: `threads` is a sweep's only parallelism


@pytest.mark.parametrize("threads", [1, 4])
def test_trials_run_on_one_blas_thread(monkeypatch, openblas_at_three, threads):
    seen = []
    real = nodedp.harness._run_trial

    def spy(*args):
        seen.append(openblas_at_three())
        return real(*args)

    monkeypatch.setattr(nodedp.harness, "_run_trial", spy)
    records = run_sweep(base_config(eps_grid=[1.0, 3.0], seeds=[0, 1]), threads=threads)
    assert len(seen) == len(records) == 4
    assert all(counts == [1] * len(counts) for counts in seen)
    counts = openblas_at_three()
    assert counts == [3] * len(counts)  # restored on return


def test_blas_counts_restored_after_two_concurrent_sweeps(monkeypatch, openblas_at_three):
    # Sweep "a" enters first and "b" enters while "a" runs; "b"'s trial reads
    # the counts after "a" has returned, so "a" must not restore them on its own.
    a_in, b_in, a_done = threading.Event(), threading.Event(), threading.Event()
    seen, waited = {}, []
    real = nodedp.harness._run_trial

    def spy(cfg, *args):
        (a_in if cfg.scenario == "a" else b_in).set()
        waited.append((b_in if cfg.scenario == "a" else a_done).wait(30))
        seen[cfg.scenario] = openblas_at_three()
        return real(cfg, *args)

    def sweep(name):
        run_sweep(base_config(scenario=name))
        if name == "a":
            a_done.set()

    monkeypatch.setattr(nodedp.harness, "_run_trial", spy)
    first = threading.Thread(target=sweep, args=("a",))
    first.start()
    assert a_in.wait(30)
    second = threading.Thread(target=sweep, args=("b",))
    second.start()
    first.join(60)
    second.join(60)
    assert not first.is_alive() and not second.is_alive()
    assert waited == [True, True]
    n_libs = len(openblas_at_three())
    assert seen == {"a": [1] * n_libs, "b": [1] * n_libs}
    assert openblas_at_three() == [3] * n_libs


def test_records_do_not_depend_on_blas_threads(tmp_path):
    # One eig_deflation trial at n=400: its eigensolver's bits depend on how
    # many threads OpenBLAS splits the work over, unless the sweep pins it.
    cfg = json.loads((Path(__file__).parent.parent / "configs"
                      / "eig_deflation_sweep.json").read_text())
    cfg.update(seeds=[0], eps_grid=cfg["eps_grid"][:1])
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    src = str(Path(nodedp.__file__).resolve().parent.parent)
    outputs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas{blas_threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "nodedp.cli", "sweep", "--config",
                        str(tmp_path / "cfg.json"), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append((out / "records.csv").read_bytes())
    assert outputs[0].count(b"\n") == 2
    assert outputs[0] == outputs[1]
