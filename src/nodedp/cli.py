"""Command-line interface.

Subcommands: generate (write SBM graph files), run (one estimator on one
graph), sweep (config-driven grid), bounds (lower-bound tables, one CSV row
per point of the n x xi x eta x delta grid, blank where a bound does not
apply). generate and sweep take their seeds from the config's seeds list;
run takes --seed, 0 when not given.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from pathlib import Path


def cmd_generate(args) -> int:
    from .graphs import write_graph, write_labels
    from .harness import ExperimentConfig

    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for seed in cfg.seeds:
        g = cfg.sample_graph(seed)
        write_graph(out / f"{cfg.scenario}_seed{seed}.graph", g)
        write_labels(out / f"{cfg.scenario}_seed{seed}.labels", cfg.params.theta)
        print(f"wrote {cfg.scenario}_seed{seed}.graph (n={g.n})")
    return 0


def cmd_run(args) -> int:
    from .graphs import read_graph, read_labels
    from .harness import _one_blas_thread
    from .metrics import loss_overall, loss_worst_case
    from .registry import run_pipeline

    graph = read_graph(args.graph)
    params = json.loads(args.params) if args.params else {}
    with _one_blas_thread:  # as in a sweep, so the output matches on any core count
        out = run_pipeline(args.estimator, graph, params, args.seed, noise_off=args.noise_off)
    record = {
        "estimator": args.estimator,
        "seed": args.seed,
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


def _or_blank(bound, q):
    """bound(q), or "" where it raises ValueError or is infinite (vacuous)."""
    try:
        value = bound(q)
    except ValueError:
        return ""
    return "" if math.isinf(value) else value


def cmd_bounds(args) -> int:
    from .bounds import LowerBoundQuery, lb_packing_solve, lb_pure, lb_stable

    grids = ([float(x) for x in s.split(",")] for s in (args.n, args.xi, args.eta, args.delta))
    rows = []
    for n, xi, eta, delta in itertools.product(*grids):
        q = LowerBoundQuery(n=int(n), k=args.k, xi=xi, eta=eta, delta=delta)
        rows.append({"n": int(n), "k": args.k, "xi": xi, "eta": eta, "delta": delta,
                     "lb_packing": _or_blank(lb_packing_solve, q),
                     "lb_pure": _or_blank(lb_pure, q) if delta == 0 else "",
                     "lb_stable": _or_blank(lb_stable, q)})
    cols = ["n", "k", "xi", "eta", "delta", "lb_packing", "lb_pure", "lb_stable"]
    with open(args.out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=cols, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {len(rows)} rows -> {args.out}")
    return 0


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
    p.add_argument("--seed", type=int, default=0, help="master seed")
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

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
