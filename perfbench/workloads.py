"""The benchmark's workloads: which sweep configs run, how, and how much.

A run sweeps every config of its workload once per *pass*, each pass with
fresh trial seeds derived from the workload seed. The first `QUOTA_PASSES`
passes are fixed work: quality metrics, output hashes and the traced run use
only them, so they repeat exactly at a fixed workload seed. See NOTES.md for
why each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

QUOTA_PASSES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple  # (ExperimentConfig keyword dict, trial seeds per pass)
    threads: int  # run_sweep(threads=...)
    tail_pct: float  # fixed; leaves >= 10 trials beyond it even on a slow host


def pass_seeds(workload_seed: int, pass_index: int, count: int) -> list[int]:
    return [workload_seed * 100_000 + pass_index * 10 + j for j in range(count)]


def _config(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / f"{name}.json").read_text())


def _truncation_config(root: Path) -> dict:
    """ef_spectral behind the node-private wrapper with D = 0.5 d, so that every
    trial's graph (max degree ~49 > D = 30) goes through the truncation LP."""
    cfg = _config(root, "ef_spectral_sweep")
    cfg["scenario"] = "ef-truncation-lp"
    cfg["sbm"] = dict(cfg["sbm"], n=200)
    cfg["wrapper"] = dict(cfg["wrapper"], D_rule={"mode": "multiple_of_d", "value": 0.5})
    cfg["eps_grid"] = [3e4, 1e5, 1e6]
    return cfg


def load(name: str, root: Path) -> Workload:
    if name == "sampler":
        return Workload(
            name,
            # Two deflation seeds per pca seed put the trial median inside the
            # slower deflation cluster rather than in the gap between the two.
            ((_config(root, "eig_deflation_sweep"), 2),
             (_config(root, "pca_lipschitz_sweep"), 1)),
            threads=1, tail_pct=80.0,
        )
    if name == "truncation":
        return Workload(name, ((_truncation_config(root), 1),),
                        threads=1, tail_pct=85.0)
    if name == "mixed_threads2":
        return Workload(
            name,
            tuple((_config(root, c), 1) for c in (
                "ef_spectral_sweep", "two_community_sweep",
                "matrix_estimation_boosted", "subspace_weighted_sweep")),
            threads=2, tail_pct=85.0,
        )
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sampler", "truncation", "mixed_threads2")
