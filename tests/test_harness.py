import gc
import json
import os
import platform
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import nodedp
import nodedp.boosting
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

from oracles import openblas_thread_controls


def base_config(**overrides):
    cfg = dict(
        scenario="unit",
        sbm={"n": 60, "k": 2, "B": [[0.6, 0.1], [0.1, 0.6]]},
        estimator={"id": "ef_spectral", "params": {}},
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


def test_config_rejects_a_parameter_no_pipeline_reads():
    # A misspelt option would otherwise run the sweep at the option's default.
    with pytest.raises(ValueError, match="zetaa"):
        base_config(estimator={"id": "subspace_estimation", "params": {"zetaa": 0.2}})
    with pytest.raises(ValueError, match="zeta"):  # an option of another pipeline
        base_config(estimator={"id": "ef_spectral", "params": {"zeta": 0.1}})
    base_config(estimator={"id": "subspace_estimation", "params": {"zeta": 0.2, "D": 3}})


def test_config_rejects_matrix_estimation_L():
    # L sets the privacy noise through its default ceil(12 ln n), so a config
    # cannot set it; L = 0 would leave the power iteration empty.
    for L in (0, 5):
        with pytest.raises(ValueError, match="matrix_estimation parameter.*L"):
            base_config(estimator={"id": "matrix_estimation", "params": {"L": L}})


def test_config_rejects_an_invalid_D_rule_before_any_trial_runs():
    with pytest.raises(ValueError, match="D rule"):
        base_config(wrapper={"D_rule": {"mode": "multiple_of_dd", "value": 1.0}})
    with pytest.raises(ValueError, match="D rule"):
        base_config(wrapper={"D_rule": {"value": 1.0}})
    with pytest.raises(ValueError, match="D rule"):
        base_config(wrapper={"D_rule": {"mode": "absolute"}})
    # A value that gives no integer D >= 1 would crash the sweep or fail every trial.
    for rule in ({"mode": "absolute", "value": "abc"}, {"mode": "absolute", "value": None},
                 {"mode": "absolute", "value": 0}, {"mode": "absolute", "value": -1},
                 {"mode": "multiple_of_d", "value": 0}, {"mode": "multiple_of_d", "value": None},
                 {"mode": "multiple_of_d", "value": 1e308}):  # the last overflows at d = 36
        with pytest.raises(ValueError, match="D rule"):
            base_config(wrapper={"D_rule": rule})
    assert base_config(wrapper={}).D == 108  # 3 n max(B)


def test_config_rejects_an_unknown_wrapper_key_or_an_invalid_eps1_or_delta1():
    # A misspelt key would run at the default; these budgets would fail every trial.
    with pytest.raises(ValueError, match="eps_1"):
        base_config(wrapper={"eps_1": 0.5})
    for budget in ({"eps1": 0.0}, {"eps1": -1.0}, {"eps1": "abc"}, {"delta1": 0.0},
                   {"delta1": 1.0}, {"delta1": 1.5}, {"delta1": None}):
        with pytest.raises(ValueError, match="eps1 must be > 0 and delta1 in"):
            base_config(wrapper=budget)
    cfg = base_config(wrapper={"eps1": 0.5, "delta1": 0.5})
    assert (cfg.eps1, cfg.delta1) == (0.5, 0.5)


def test_config_rejects_a_boost_block_missing_T_or_xi():
    # Otherwise every trial samples its graph and then fails with KeyError.
    wrapper = {"D_rule": {"mode": "absolute", "value": 36}}
    for boost in ({"xi": 0.05}, {"T": 3}, {"T": 3, "xi": 0.05, "t": 5}):
        with pytest.raises(ValueError, match="T and xi"):
            base_config(wrapper=wrapper, boost=boost)


def test_config_rejects_a_boost_block_without_a_wrapper():
    # Only the reduced estimator is boosted; without a wrapper the block was ignored.
    with pytest.raises(ValueError, match="wrapper"):
        base_config(boost={"T": 3, "xi": 0.05})


def test_config_rejects_a_boost_block_for_a_pipeline_that_takes_weights():
    # Boosting thins an unweighted graph: the WeightedGraph that a weighted
    # pipeline samples would fail every trial in thin_graph.
    cfg = json.loads((Path(__file__).parent.parent / "configs"
                      / "subspace_weighted_sweep.json").read_text())
    wrapper = {"D_rule": {"mode": "multiple_of_d", "value": 3.0}}
    with pytest.raises(ValueError, match="boost thins unweighted graphs only"):
        ExperimentConfig(**dict(cfg, wrapper=wrapper, boost={"T": 3, "xi": 0.05}))
    # Without weights in the SBM the same pipeline samples a Graph and may be boosted.
    sbm = {key: value for key, value in cfg["sbm"].items() if key != "weight_model"}
    boosted = ExperimentConfig(**dict(cfg, sbm=sbm, wrapper=wrapper,
                                      boost={"T": 3, "xi": 0.05}))
    assert boosted.boosting.T == 3 and not boosted.weighted


@pytest.mark.parametrize("estimator_id", ["pca_lipschitz", "eig_deflation"])
def test_config_rejects_a_direct_run_without_the_D_it_reads(estimator_id):
    # Otherwise every trial fails with KeyError: 'D'. Behind a wrapper D comes
    # from the D rule, and params need none.
    with pytest.raises(ValueError, match=f"{estimator_id} run directly needs parameter D"):
        base_config(estimator={"id": estimator_id, "params": {}})
    assert base_config(estimator={"id": estimator_id, "params": {"D": 30}}).D == 30
    assert base_config(estimator={"id": estimator_id, "params": {}},
                       wrapper={"D_rule": {"mode": "absolute", "value": 36}}).D == 36


def test_config_rejects_an_even_T_or_an_xi_outside_its_range():
    wrapper = {"D_rule": {"mode": "absolute", "value": 36}}
    with pytest.raises(ValueError, match="odd"):
        base_config(wrapper=wrapper, boost={"T": 4, "xi": 0.05})
    for xi in (0.0, 1.0 / 16.0, 0.2):  # xi must lie in (0, 1/(8k)) = (0, 1/16)
        with pytest.raises(ValueError, match="xi"):
            base_config(wrapper=wrapper, boost={"T": 3, "xi": xi})
    assert base_config(wrapper=wrapper, boost={"T": 3, "xi": 0.06}).boosting.T == 3


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


BOOSTED_MATRIX_ESTIMATION = dict(
    sbm={"n": 100, "k": 2, "B": [[0.6, 0.1], [0.1, 0.6]]},
    estimator={"id": "matrix_estimation", "params": {}},
    delta_grid=[1e-6],
    wrapper={"D_rule": {"mode": "multiple_of_d", "value": 3.0},
             "eps1": 1.0, "delta1": 1e-6},
    boost={"T": 3, "xi": 0.05},
)


def test_thread_count_does_not_change_results(tmp_path):
    cases = [  # (config keywords, threads)
        (dict(eps_grid=[1.0, 3.0], seeds=[0, 1, 2, 3]), 4),
        (dict(BOOSTED_MATRIX_ESTIMATION, eps_grid=[1e8, 1e10], seeds=[0, 1, 2, 3]), 2),
    ]
    for overrides, threads in cases:
        serial = run_sweep(base_config(**overrides), threads=1)
        parallel = run_sweep(base_config(**overrides), threads=threads)
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        write_records_csv(serial, p1)
        write_records_csv(parallel, p2)
        assert p1.read_bytes() == p2.read_bytes()
    assert all(r.status == "ok" for r in serial)  # the boosted runs reach the vote


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

    # A boosted record spends T times the reduced run's total, found or not:
    # (eps1 + eps, e^eps1 delta1) for a pure base, and (eps1 + 2 eps,
    # e^eps1 (delta1 + delta e^(2 eps))) for an approximate one, delta capped at 1.
    for estimator, delta, total in (
        ("ef_spectral", 0.0, (6003.0, 8.154845485377135e-06)),  # 3 (1 + 2000), 3 e 1e-6
        ("matrix_estimation", 1e-6, (12003.0, 1.0)),  # 3 (1 + 2 * 2000), capped
    ):
        cfg2 = base_config(
            estimator={"id": estimator, "params": {}},
            eps_grid=[2000.0],
            delta_grid=[delta],
            wrapper={"D_rule": {"mode": "absolute", "value": 36},
                     "eps1": 1.0, "delta1": 1e-6},
            boost={"T": 3, "xi": 0.05},
        )
        (rec2,) = run_sweep(cfg2)
        assert rec2.status in ("ok", "failed")  # bot is a legal typed outcome
        (budget,) = rec2.budget_chain
        assert (budget["eps"], budget["delta"]) == pytest.approx(total, rel=1e-12)


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
    grid = [(e, d) for e in cfg.eps_grid for d in cfg.delta_grid]
    return [_run_trial(cfg, gi, eps, delta, seed, {})
            for gi, (eps, delta) in enumerate(grid) for seed in cfg.seeds]


def counting_solve_lp(monkeypatch, result=None):
    calls = []
    real = nodedp.truncation.solve_lp

    def spy(c, *args, **kwargs):
        calls.append(len(c))
        return real(c, *args, **kwargs) if result is None else result

    monkeypatch.setattr(nodedp.truncation, "solve_lp", spy)
    return calls


def counting_round_one(monkeypatch):
    calls = []
    real = nodedp.truncation._certified_round_one

    def spy(g, D, high):
        calls.append(D)
        return real(g, D, high)

    monkeypatch.setattr(nodedp.truncation, "_certified_round_one", spy)
    return calls


def uncertified_round_one(monkeypatch):
    """Send every round one to HiGHS, as when its certificate fails; the
    SBM graphs here all pass it."""
    monkeypatch.setattr(nodedp.truncation, "_certified_round_one", lambda g, D, high: None)


def test_sweep_solves_one_truncation_lp_per_seed(monkeypatch):
    calls = counting_solve_lp(monkeypatch)
    round_ones = counting_round_one(monkeypatch)
    records = run_sweep(truncating_config())
    assert len(records) == 6 and all(r.status == "ok" for r in records)
    assert all(r.diagnostics["d_T"] > 0 for r in records)
    # One round one per seed, certified and cutting nothing: no HiGHS call.
    assert len(round_ones) == 2 and calls == []
    # Same graph and D, so the same d_T at every grid point; own L_hat noise.
    for seed in (0, 1):
        rows = [r for r in records if r.seed == seed]
        assert len({r.diagnostics["d_T"] for r in rows}) == 1
        assert len({r.diagnostics["L_hat"] for r in rows}) == 3


WRAPPER_AT_36 = {"D_rule": {"mode": "absolute", "value": 36}}


@pytest.mark.parametrize("overrides", [
    pytest.param({}, id="direct"),
    pytest.param({"wrapper": WRAPPER_AT_36}, id="wrapped"),
    pytest.param({"wrapper": WRAPPER_AT_36, "boost": {"T": 3, "xi": 0.05}}, id="boosted",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "ROADMAP item 2: graph_boost thins with spawn(seed, 0), which sampled "
                     "the graph, and runs sub-run j on spawn(seed, 1, j) at every grid point"))),
])
def test_no_two_random_steps_share_a_stream(monkeypatch, overrides):
    # Records the (seed, path) of every spawn a trial makes, patched where
    # perfbench/spans.py patches it: one seed, two grid points.
    drawn = {}  # (grid_index, seed) -> [(seed, path)]
    current = []
    real_trial = nodedp.harness._run_trial

    def run_trial(cfg, grid_index, eps, delta, seed, shared):
        current[:] = [(grid_index, seed)]
        drawn[current[0]] = []
        return real_trial(cfg, grid_index, eps, delta, seed, shared)

    def recorded(spawn):
        def wrapped(seed, *path):
            drawn[current[0]].append((int(seed), tuple(int(p) for p in path)))
            return spawn(seed, *path)
        return wrapped

    monkeypatch.setattr(nodedp.harness, "_run_trial", run_trial)
    for module in (nodedp.harness, nodedp.boosting):
        monkeypatch.setattr(module, "spawn", recorded(module.spawn))
    assert len(run_sweep(base_config(eps_grid=[500.0, 2000.0], **overrides))) == 2
    assert len(drawn) == 2
    for trial, paths in drawn.items():
        assert len(paths) == len(set(paths)), f"trial {trial} draws a path twice: {paths}"
    every = [path for paths in drawn.values() for path in paths]
    assert len(every) == len(set(every)), f"two trials draw the same path: {drawn}"


@pytest.mark.parametrize("overrides, names", [
    pytest.param({}, ["run_pipeline"], id="direct"),
    pytest.param({"wrapper": WRAPPER_AT_36}, ["reduce_to_node_private"], id="wrapped"),
    pytest.param({"wrapper": WRAPPER_AT_36, "boost": {"T": 3, "xi": 0.05}},
                 ["graph_boost", "reduce_to_node_private"], id="boosted"),
])
def test_trials_look_up_harness_names_at_call_time(monkeypatch, overrides, names):
    # The config builds its estimator at load; perfbench/spans.py patches these
    # names on nodedp.harness after that, and every trial must still reach them.
    cfg = base_config(eps_grid=[500.0], **overrides)
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(nodedp.harness, name, wrapped)

    for name in names:
        spy(name, getattr(nodedp.harness, name))
    assert len(run_sweep(cfg)) == 1
    assert sorted(set(calls)) == sorted(names)


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


def test_threads_sample_each_seed_once(monkeypatch, tmp_path):
    # A slow sampler: both workers reach a seed's first two trials together,
    # and the second waits for the first one's graph instead of sampling again.
    overrides = dict(eps_grid=[1.0, 3.0], seeds=[0, 1, 2])
    write_records_csv(run_sweep(base_config(**overrides)), tmp_path / "serial.csv")
    real, calls = nodedp.harness.sample_sbm, []

    def slow_sample(params, rng):
        calls.append(rng)
        time.sleep(0.05)
        return real(params, rng)

    monkeypatch.setattr(nodedp.harness, "sample_sbm", slow_sample)
    write_records_csv(run_sweep(base_config(**overrides), threads=2), tmp_path / "parallel.csv")
    assert len(calls) == len(overrides["seeds"])
    assert (tmp_path / "parallel.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_lp_failure_is_a_typed_row_at_every_grid_point(monkeypatch, tmp_path):
    failed = LpSolution("failed", None, None, message="forced")
    uncertified_round_one(monkeypatch)
    calls = counting_solve_lp(monkeypatch, result=failed)
    records = run_sweep(truncating_config())
    assert [r.error for r in records] == ["LpFailure"] * 6
    assert len(calls) == 6  # failures are not memoised
    write_records_csv(records, tmp_path / "sweep.csv")
    write_records_csv(one_trial_at_a_time(truncating_config()), tmp_path / "alone.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_failure_traceback_has_no_absolute_paths(monkeypatch):
    failed = LpSolution("failed", None, None, message="forced")
    uncertified_round_one(monkeypatch)
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
    # Loading runs the parameter check: a key that no pipeline reads fails here.
    configs = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
    assert configs
    ids = {ExperimentConfig.from_json(p.read_text()).estimator["id"] for p in configs}
    assert ids == set(nodedp.harness.PIPELINES)


DELTA_ONE_AT_EVERY_BOOSTED_EPS = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4(a): the reduction's approximate-base term delta2 e^{2 eps2} "
    "overflows at every grid eps of the T = 5 boost, so each record reads delta 1"))


@pytest.mark.parametrize("name", [
    pytest.param(p.stem, marks=DELTA_ONE_AT_EVERY_BOOSTED_EPS if "boosted" in p.stem else ())
    for p in sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
])
def test_shipped_config_budgets_certify_delta_below_one(name):
    # A record's last budget is the trial's composed guarantee; delta = 1
    # certifies nothing, and a zCDP budget (no delta) holds at any delta > 0.
    # Every trial of a grid point carries the same budget, so one seed a
    # config covers its grid.
    cfg = json.loads((Path(__file__).parent.parent / "configs" / f"{name}.json").read_text())
    records = run_sweep(ExperimentConfig(**dict(cfg, seeds=cfg["seeds"][:1])))
    assert len(records) == len(cfg["eps_grid"]) * len(cfg["delta_grid"])
    deltas = [(r.eps, r.budget_chain[-1].get("delta", 0.0)) for r in records]
    assert [(eps, delta) for eps, delta in deltas if delta >= 1.0] == []


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
    est_params = {"zeta": 0.1} if estimator_id == "subspace_estimation" else {}
    cfg = base_config(sbm=sbm, estimator={"id": estimator_id, "params": est_params},
                      delta_grid=[1e-6])
    shared = {}
    _run_trial(cfg, 0, 2.0, 1e-6, 0, shared)
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


HEAP_PROBE = """
import resource, sys
import numpy as np
from nodedp import harness
if sys.argv[1] == "floor":
    harness._raise_heap_trim_floor()
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    blocks = [np.ones(40_000) for _ in range(3)]  # three touched 320 KB blocks
    del blocks
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(sum(faults[1:]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming")
def test_heap_floor_stops_refaulting_between_trials(monkeypatch):
    # In a fresh process the first free of a 320 KB block sets glibc's trim
    # point to 640 KB, so each later round of ~1 MB is trimmed and faulted
    # back in (~240 faults). After the floor the heap keeps those pages.
    # Other processes' memory pressure can only add faults, so each mode
    # counts the fewest over three probes.
    src = str(Path(nodedp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def probe(mode):
        return int(subprocess.run([sys.executable, "-c", HEAP_PROBE, mode], env=env,
                                  check=True, capture_output=True, text=True,
                                  timeout=120).stdout)

    faults = {mode: min(probe(mode) for _ in range(3)) for mode in ("none", "floor")}
    assert faults["none"] > 500
    assert faults["floor"] < 50

    calls = []
    monkeypatch.setattr(nodedp.harness, "_raise_heap_trim_floor", lambda: calls.append(1))
    run_sweep(base_config())
    assert calls == [1]


# Runs in a fresh interpreter with OPENBLAS_NUM_THREADS=3 and the tests
# directory on the path: one sampler trial, whose first Cholesky imports
# scipy.linalg inside the sweep. Prints whether scipy.linalg was loaded before
# the sweep, the bundled OpenBLAS thread counts read right after that first
# Cholesky, and the counts after the sweep.
_SCIPY_BLAS_PROBE = """
import json, sys
from pathlib import Path
import nodedp.mechanisms
from nodedp.harness import ExperimentConfig, run_sweep

cfg = json.loads(Path(sys.argv[1]).read_text())
cfg.update(seeds=[0], eps_grid=cfg["eps_grid"][:1])
result = {"before": "scipy.linalg" in sys.modules}
real = nodedp.mechanisms.cholesky


def spy(a, **kwargs):
    L = real(a, **kwargs)
    if "inside" not in result:
        from oracles import openblas_thread_controls
        result["inside"] = [get() for get, _ in openblas_thread_controls()]
    return L


nodedp.mechanisms.cholesky = spy
run_sweep(ExperimentConfig(**cfg))
from oracles import openblas_thread_controls
result["after"] = [get() for get, _ in openblas_thread_controls()]
print(json.dumps(result))
"""


def test_scipy_blas_loaded_inside_a_sweep_runs_one_thread():
    # scipy's own OpenBLAS is loaded by the sampler's first Cholesky, after
    # the sweep has pinned the libraries already loaded; the sweep pins it too.
    if not openblas_thread_controls():
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    src = str(Path(nodedp.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="3", PYTHONPATH=os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
    config = Path(__file__).parent.parent / "configs" / "eig_deflation_sweep.json"
    result = json.loads(subprocess.run([sys.executable, "-c", _SCIPY_BLAS_PROBE, str(config)],
                                       env=env, check=True, capture_output=True, text=True,
                                       timeout=300).stdout)
    assert result["before"] is False
    assert result["inside"] == [1, 1]
    # Both back at the count OpenBLAS takes from the environment, capped at
    # the number of cores it may run on.
    assert result["after"] == [min(3, len(os.sched_getaffinity(0)))] * 2


# Runs in a fresh interpreter: sweeps the truncation benchmark's config (wrapped
# ef_spectral at n = 200, D = 0.5 d, so every graph is projected) and the
# two-community config, and prints the scipy modules loaded, the statuses and
# the number of projections above D.
_NO_SCIPY_PROBE = """
import json, sys
from pathlib import Path
import nodedp, nodedp.harness
from nodedp.harness import ExperimentConfig, run_sweep

configs = Path(sys.argv[1])
ef = json.loads((configs / "ef_spectral_sweep.json").read_text())
ef.update(scenario="ef-truncation-lp", sbm=dict(ef["sbm"], n=200), eps_grid=[3e4, 1e5, 1e6],
          wrapper=dict(ef["wrapper"], D_rule={"mode": "multiple_of_d", "value": 0.5}),
          seeds=[0, 1, 2])
two = json.loads((configs / "two_community_sweep.json").read_text())
two.update(seeds=[0, 1])
projected = []
real = nodedp.truncation.degree_truncate
nodedp.truncation.degree_truncate = lambda g, D: projected.append(D) or real(g, D)
statuses = [r.status for cfg in (ef, two) for r in run_sweep(ExperimentConfig(**cfg))]
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "statuses": statuses, "projected": len(projected)}))
"""


def test_truncation_and_edge_flip_sweeps_load_no_scipy():
    # Lanczos gives the eigenpairs, round one of the truncation LP is
    # certified in numpy, and its bipartite check needs no csgraph: neither
    # sweep imports any part of scipy.
    src = str(Path(nodedp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = json.loads(subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE, str(Path(__file__).parent.parent / "configs")],
        env=env, check=True, capture_output=True, text=True, timeout=300).stdout)
    assert result["scipy"] == []
    assert result["statuses"] == ["ok"] * (9 + 6)
    assert result["projected"] == 3


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
