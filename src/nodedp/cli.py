"""Command-line interface.

Subcommands: generate (write SBM graph files), run (one estimator on one
graph), sweep (config-driven grid), bounds (lower-bound tables), selftest
(quick property suites). generate and sweep take their seeds from the
config's seeds list; run and selftest take --seed, which falls back to the
NODEDP_SEED environment variable when not given.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("NODEDP_SEED")
    return int(env) if env else 0


def _add_seed(p):
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (fallback: NODEDP_SEED, then 0)")


def cmd_generate(args) -> int:
    from .graphs import sample_sbm, sample_weighted_sbm, write_graph, write_labels
    from .harness import ExperimentConfig
    from .registry import PIPELINES
    from .rng import spawn

    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    params = cfg.sbm_params()
    # The graph the sweep scores: weighted only for a weighted pipeline.
    weighted = params.weight_model is not None and PIPELINES[cfg.estimator["id"]].weighted
    sample = sample_weighted_sbm if weighted else sample_sbm
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for seed in cfg.seeds:
        g = sample(params, spawn(int(seed), 0))
        write_graph(out / f"{cfg.scenario}_seed{seed}.graph", g)
        write_labels(out / f"{cfg.scenario}_seed{seed}.labels", params.theta)
        print(f"wrote {cfg.scenario}_seed{seed}.graph (n={g.n})")
    return 0


def cmd_run(args) -> int:
    from .graphs import read_graph, read_labels
    from .harness import _one_blas_thread
    from .metrics import loss_overall, loss_worst_case
    from .registry import run_pipeline

    graph = read_graph(args.graph)
    params = json.loads(args.params) if args.params else {}
    seed = _resolve_seed(args)
    with _one_blas_thread:  # as in a sweep, so the output matches on any core count
        out = run_pipeline(args.estimator, graph, params, seed, noise_off=args.noise_off)
    record = {
        "estimator": args.estimator,
        "seed": seed,
        "noise_off": args.noise_off,
        "failed": out.failed,
        "budget_chain": [b.to_dict() for b in out.budget],
        "diagnostics": out.diagnostics,
    }
    if not out.failed:
        record["labels"] = out.labels.labels.tolist()
        if args.labels:
            theta = read_labels(args.labels)
            record["loss_overall"] = loss_overall(out.labels, theta)
            record["loss_worst_case"] = loss_worst_case(out.labels, theta)
    json.dump(record, sys.stdout, indent=2, default=repr, sort_keys=True)
    print()
    return 0


def cmd_sweep(args) -> int:
    from .harness import (
        ExperimentConfig,
        run_sweep,
        summarize,
        write_plotdata_csv,
        write_records_csv,
        write_summary_json,
        write_timings_csv,
    )

    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    if args.noise_off:
        cfg.noise_off = True
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = run_sweep(cfg, threads=args.threads)
    write_records_csv(records, out / "records.csv")
    write_timings_csv(records, out / "timings.csv")
    write_summary_json(summarize(records), out / "summary.json")
    if args.emit_plotdata:
        write_plotdata_csv(records, out / "plotdata.csv")
    failures = sum(r.status != "ok" for r in records)
    print(f"{len(records)} trials ({failures} failures) -> {out}")
    if cfg.noise_off:
        print("NOTE: noise-off test mode; outputs are watermarked")
    return 0


def cmd_bounds(args) -> int:
    from .bounds import LowerBoundQuery, lb_packing_solve, lb_pure, lb_stable

    def parse_grid(s):
        return [float(x) for x in s.split(",")]

    rows = []
    for n in parse_grid(args.n):
        for xi in parse_grid(args.xi):
            for eta in parse_grid(args.eta):
                for delta in parse_grid(args.delta):
                    q = LowerBoundQuery(n=int(n), k=args.k, xi=xi, eta=eta, delta=delta)
                    row = {"n": int(n), "k": args.k, "xi": xi, "eta": eta,
                           "delta": delta}
                    try:
                        row["lb_packing"] = lb_packing_solve(q)
                    except ValueError:
                        row["lb_packing"] = ""
                    try:
                        row["lb_pure"] = lb_pure(q) if delta == 0 else ""
                    except ValueError:
                        row["lb_pure"] = ""
                    try:
                        v = lb_stable(q)
                        row["lb_stable"] = "" if math.isinf(v) else v
                    except ValueError:
                        row["lb_stable"] = ""
                    rows.append(row)
    cols = ["n", "k", "xi", "eta", "delta", "lb_packing", "lb_pure", "lb_stable"]
    with open(args.out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=cols, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {len(rows)} rows -> {args.out}")
    return 0


def cmd_selftest(args) -> int:
    """Quick property checks; the full suites live in the pytest tree."""
    from . import accounting as acc
    from .boosting import hgr_thinned_bernoulli
    from .graphs import Graph, SbmParams, max_degree, sample_sbm
    from .mechanisms import edge_flip
    from .rng import spawn
    from .truncation import degree_truncate

    seed = _resolve_seed(args)
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    b = acc.zcdp_to_dp(acc.group_zcdp(acc.zcdp(0.1), 3), 1e-6)
    check("accounting: zCDP group + conversion",
          abs(b.eps - (0.9 + math.sqrt(4 * 0.9 * math.log(1e6)))) < 1e-12)
    check("hgr: p=q=1/2 gives 1/3", abs(hgr_thinned_bernoulli(0.5, 0.5) - 1 / 3) < 1e-15)

    params = SbmParams(n=60, k=2, B=np.array([[0.5, 0.1], [0.1, 0.5]]))
    g = sample_sbm(params, spawn(seed, 0))
    flipped = edge_flip(g, 1.0, spawn(seed, 1))
    frac = np.mean(np.triu(flipped.adj != g.adj, k=1)[np.triu_indices(g.n, 1)])
    p_flip = 1.0 / (1.0 + math.e)
    sigma = math.sqrt(p_flip * (1 - p_flip) / (g.n * (g.n - 1) / 2))
    check("edge flip: empirical frequency near 1/(1+e)", abs(frac - p_flip) < 4 * sigma)

    rng = spawn(seed, 2)
    adj = (rng.random((40, 40)) < 0.5).astype(np.uint8)
    adj = np.triu(adj, 1)
    dense = Graph(40, adj | adj.T)
    truncated, d_T = degree_truncate(dense, 5)
    check("truncation: max degree <= 2D", max_degree(truncated) <= 10)
    check("truncation: d_T nonnegative", d_T >= 0)

    print("selftest:", "OK" if failures == 0 else f"{failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nodedp",
        description="Node-private SBM community estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write SBM graph files from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run one estimator on one graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--estimator", required=True)
    p.add_argument("--params", default="", help="JSON dict of parameters")
    p.add_argument("--labels", default="", help="ground-truth labels file")
    p.add_argument("--noise-off", action="store_true",
                   help="test mode: disable all noise (watermarked in output)")
    _add_seed(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a config-driven sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--emit-plotdata", action="store_true")
    p.add_argument("--noise-off", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", help="emit lower-bound tables as CSV")
    p.add_argument("--n", default="100,400,1000")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--xi", default="0.01,0.1")
    p.add_argument("--eta", default="0.01,0.1")
    p.add_argument("--delta", default="0.0,1e-6")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("selftest", help="quick property checks")
    _add_seed(p)
    p.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
