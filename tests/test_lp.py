import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import OptimizeResult

import nodedp.lp
import nodedp.truncation
from nodedp import Graph, degree_truncate
from nodedp.harness import ExperimentConfig, run_sweep, write_records_csv
from nodedp.lp import FEAS_TOL, solve_lp
from nodedp.rng import spawn

from oracles import dense_simplex_max, vertex_enum_max


def test_simple_box_max():
    sol = solve_lp([1.0], None, None, [(0.0, 1.0)], maximize=True)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible():
    # x <= 0 and x >= 1, the second row negated.
    A = sparse.csr_matrix(np.array([[1.0], [-1.0]]))
    assert solve_lp([1.0], A, np.array([0.0, -1.0]), [(None, None)]).status == "infeasible"


def test_unbounded():
    assert solve_lp([1.0], None, None, [(0.0, None)], maximize=True).status == "unbounded"


def test_equality_rows_and_residual():
    # x0 + x1 = 4 as x0 + x1 <= 4 and -x0 - x1 <= -4.
    A = sparse.csr_matrix(np.array([[1.0, 1.0], [-1.0, -1.0]]))
    sol = solve_lp([1.0, 2.0], A, np.array([4.0, -4.0]), [(0.0, 5.0), (0.0, 5.0)],
                   maximize=True)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(8.0, abs=1e-8)
    assert sol.residual <= FEAS_TOL


def test_random_block_instances_match_vertex_oracle():
    # 20-variable problems assembled from four independent 5-variable blocks;
    # the oracle enumerates basic feasible points per block.
    rng = spawn(83, 0)
    for trial in range(8):
        total = 0.0
        all_c, blocks, all_rhs, bounds = [], [], [], []
        for b in range(4):
            c = rng.uniform(-1, 1, 5)
            A = rng.uniform(-1, 1, (3, 5))
            rhs = rng.uniform(0.5, 2.0, 3)
            bnds = [(0.0, float(u)) for u in rng.uniform(0.5, 3.0, 5)]
            best = vertex_enum_max(c, A, rhs, bnds)
            assert best is not None
            total += best
            all_c.append(c)
            blocks.append(A)
            all_rhs.append(rhs)
            bounds.extend(bnds)
        A_ub = sparse.csr_matrix(sparse.block_diag(blocks))
        sol = solve_lp(np.concatenate(all_c), A_ub, np.concatenate(all_rhs), bounds,
                       maximize=True)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(total, abs=1e-7)


def test_random_instances_match_dense_simplex():
    rng = spawn(89, 0)
    for trial in range(10):
        n, m = 6, 4
        c = rng.uniform(0.0, 1.0, n)
        A = rng.uniform(0.0, 1.0, (m, n))
        b = rng.uniform(1.0, 3.0, m)
        sol = solve_lp(c, sparse.csr_matrix(A), b, [(0.0, None)] * n, maximize=True)
        assert sol.status == "optimal"
        oracle = dense_simplex_max(c, A, b)
        assert sol.objective == pytest.approx(oracle, abs=1e-7)


def test_other_highs_status_is_failed_with_its_message(monkeypatch):
    # Status 4 is HiGHS's "numerical difficulties"; anything but 0, 2 and 3
    # maps to "failed" and keeps the solver's message.
    monkeypatch.setattr(nodedp.lp, "linprog", lambda *a, **kw: OptimizeResult(
        status=4, x=None, message="numerical trouble"))
    sol = solve_lp([1.0], None, None, [(0.0, 1.0)])
    assert (sol.status, sol.x, sol.objective) == ("failed", None, None)
    assert sol.message == "numerical trouble"


def test_solution_outside_the_rows_is_failed_with_its_residual(monkeypatch):
    # A solver answer that breaks x <= 1 by 1e-6 (past FEAS_TOL) is no optimum.
    monkeypatch.setattr(nodedp.lp, "linprog", lambda *a, **kw: OptimizeResult(
        status=0, x=np.array([1.0 + 1e-6]), message="ok"))
    sol = solve_lp([1.0], sparse.csr_matrix(np.array([[1.0]])), np.array([1.0]),
                   [(0.0, None)], maximize=True)
    assert (sol.status, sol.x, sol.objective) == ("failed", None, None)
    assert sol.residual == pytest.approx(1e-6)
    assert "1e-06" in sol.message


# Runs in a fresh interpreter: argv is (mode, argument, output path). Mode
# "trials" loads every config in the directory given, runs one trial of an
# unwrapped and one of a wrapped config, truncates a 5-node star at D = 2
# (certified round one), then K_{3,3} at D = 2 (HiGHS); a thread count runs
# the JSON config given as a sweep on that many threads, with every round one
# declined so that its truncations reach HiGHS. Either way the output says
# whether scipy.optimize was loaded before and after the last step.
_FRESH_PROCESS = """
import json, sys
from pathlib import Path
import numpy as np
import nodedp.truncation
from nodedp import Graph, degree_truncate
from nodedp.harness import ExperimentConfig, run_sweep, write_records_csv

mode, arg, out = sys.argv[1:]
result = {}
if mode == "trials":
    configs = {p.stem: json.loads(p.read_text()) for p in Path(arg).glob("*.json")}
    for cfg in configs.values():
        ExperimentConfig(**cfg)
    result["configs"] = sorted(configs)
    for name in ("pca_lipschitz_sweep", "ef_spectral_sweep"):
        cfg = dict(configs[name], eps_grid=configs[name]["eps_grid"][:1], seeds=[0])
        result[name] = run_sweep(ExperimentConfig(**cfg))[0].status
    star = np.zeros((5, 5), dtype=np.uint8)
    star[0, 1:] = star[1:, 0] = 1
    degree_truncate(Graph(5, star), 2)
    result["before"] = "scipy.optimize" in sys.modules
    adj = np.zeros((6, 6), dtype=np.uint8)
    adj[:3, 3:] = adj[3:, :3] = 1
    truncated, d_T = degree_truncate(Graph(6, adj), 2)
    result.update(adj=truncated.adj.tolist(), d_T=d_T)
else:
    nodedp.truncation._certified_round_one = lambda g, D, high: None
    cfg = ExperimentConfig(**json.loads(arg))
    result["before"] = "scipy.optimize" in sys.modules
    write_records_csv(run_sweep(cfg, threads=int(mode)), out)
result["after"] = "scipy.optimize" in sys.modules
print(json.dumps(result))
"""


def test_highs_loads_on_the_first_lp_solve_only(tmp_path, monkeypatch):
    # This process imported scipy.optimize long ago (oracles does), so only a
    # fresh interpreter shows what importing nodedp loads. The three run at once.
    src = str(Path(nodedp.lp.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    sweep = dict(scenario="lazy-highs", sbm={"n": 60, "k": 2, "B": [[0.6, 0.1], [0.1, 0.6]]},
                 estimator={"id": "ef_spectral", "params": {}}, eps_grid=[1e3, 1e4],
                 delta_grid=[0.0], seeds=[0, 1],
                 wrapper={"D_rule": {"mode": "multiple_of_d", "value": 0.5}})
    runs = {mode: (arg, tmp_path / f"{mode}.csv") for mode, arg in [
        ("trials", str(Path(src).parent / "configs")),
        ("1", json.dumps(sweep)), ("2", json.dumps(sweep))]}
    procs = {mode: subprocess.Popen([sys.executable, "-c", _FRESH_PROCESS, mode, arg, str(out)],
                                    env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True)
             for mode, (arg, out) in runs.items()}
    results = {}
    for mode, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        results[mode] = json.loads(stdout)

    trials = results["trials"]
    assert trials["configs"] == sorted(p.stem for p in Path(runs["trials"][0]).glob("*.json"))
    assert (trials["pca_lipschitz_sweep"], trials["ef_spectral_sweep"]) == ("ok", "ok")
    assert (trials["before"], trials["after"]) == (False, True)
    adj = np.zeros((6, 6), dtype=np.uint8)
    adj[:3, 3:] = adj[3:, :3] = 1
    truncated, d_T = degree_truncate(Graph(6, adj), 2)
    assert (trials["adj"], trials["d_T"]) == (truncated.adj.tolist(), d_T)

    # The sweep's D is below its graphs' max degree and round one is
    # declined, so its first LP imports HiGHS mid-sweep, on one thread or
    # two; neither moves a record.
    cfg = ExperimentConfig(**sweep)
    assert all(max(cfg.sample_graph(s).degrees()) > cfg.D for s in sweep["seeds"])
    monkeypatch.setattr(nodedp.truncation, "_certified_round_one", lambda g, D, high: None)
    write_records_csv(run_sweep(cfg), tmp_path / "here.csv")
    for mode in ("1", "2"):
        assert (results[mode]["before"], results[mode]["after"]) == (False, True)
        assert runs[mode][1].read_bytes() == (tmp_path / "here.csv").read_bytes()
