import json

import numpy as np
import pytest

import nodedp.registry
from nodedp.cli import main


@pytest.fixture()
def config_file(tmp_path):
    cfg = {
        "scenario": "cli",
        "sbm": {"n": 40, "k": 2, "B": [[0.6, 0.1], [0.1, 0.6]]},
        "estimator": {"id": "ef_spectral", "params": {}},
        "eps_grid": [2.0, 8.0],
        "delta_grid": [0.0],
        "seeds": [0, 1],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_generate_and_run(tmp_path, config_file, capsys):
    out = tmp_path / "graphs"
    assert main(["generate", "--config", str(config_file), "--out", str(out)]) == 0
    graph = out / "cli_seed0.graph"
    labels = out / "cli_seed0.labels"
    assert graph.exists() and labels.exists()
    capsys.readouterr()

    rc = main([
        "run", "--graph", str(graph), "--estimator", "ef_spectral",
        "--params", json.dumps({"k": 2, "eps": 3.0}),
        "--labels", str(labels), "--seed", "5",
    ])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["estimator"] == "ef_spectral"
    assert 0.0 <= record["loss_overall"] <= 2.0
    assert record["budget_chain"][0]["kind"] == "pure"


def test_sweep_outputs(tmp_path, config_file, capsys):
    out = tmp_path / "results"
    rc = main([
        "sweep", "--config", str(config_file), "--out", str(out),
        "--threads", "2", "--emit-plotdata",
    ])
    assert rc == 0
    for name in ("records.csv", "timings.csv", "summary.json", "plotdata.csv"):
        assert (out / name).exists()
    lines = (out / "records.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + grid x seeds


def test_bounds_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = main([
        "bounds", "--n", "100,400", "--xi", "0.05", "--eta", "0.05",
        "--delta", "0.0", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,k,xi,eta,delta")
    assert len(lines) == 3


def test_env_seed_fallback(tmp_path, config_file, monkeypatch, capsys):
    out = tmp_path / "graphs"
    main(["generate", "--config", str(config_file), "--out", str(out)])
    capsys.readouterr()
    monkeypatch.setenv("NODEDP_SEED", "9")
    rc = main([
        "run", "--graph", str(out / "cli_seed0.graph"),
        "--estimator", "ef_spectral", "--params", json.dumps({"k": 2, "eps": 2.0}),
    ])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["seed"] == 9


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_seed_option_rejected_where_config_sets_seeds(tmp_path, config_file, command, capsys):
    # generate and sweep take their seeds from the config; --seed is not an option.
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config_file), "--out", str(tmp_path / "out"),
              "--seed", "99"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 99" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("estimator_id, weighted", [
    ("ef_spectral", 0),
    ("subspace_estimation", 1),
])
def test_generate_writes_the_graph_the_sweep_scores(tmp_path, estimator_id, weighted):
    # Under a weight model only a weighted pipeline's sweep samples a WeightedGraph.
    cfg = {
        "scenario": "wm",
        "sbm": {"n": 40, "k": 2, "B": [[0.6, 0.1], [0.1, 0.6]],
                "weight_model": {"means": [[1.0, 0.2], [0.2, 1.0]], "scale": 0.5}},
        "estimator": {"id": estimator_id, "params": {}},
        "eps_grid": [2.0],
        "seeds": [0],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "g")]) == 0
    header = (tmp_path / "g" / "wm_seed0.graph").read_text().splitlines()[0]
    assert header == f"n=40 weighted={weighted}"


def test_run_uses_one_blas_thread(tmp_path, config_file, monkeypatch, openblas_at_three,
                                  capsys):
    main(["generate", "--config", str(config_file), "--out", str(tmp_path / "g")])
    seen = []
    real = nodedp.registry.run_pipeline

    def spy(*args, **kwargs):
        seen.append(openblas_at_three())
        return real(*args, **kwargs)

    monkeypatch.setattr(nodedp.registry, "run_pipeline", spy)
    rc = main(["run", "--graph", str(tmp_path / "g" / "cli_seed0.graph"),
               "--estimator", "ef_spectral", "--params", json.dumps({"k": 2, "eps": 3.0})])
    assert rc == 0
    n_libs = len(openblas_at_three())
    assert seen == [[1] * n_libs]
    assert openblas_at_three() == [3] * n_libs
