"""Reachability census: which functions of src/ the shipped configs never call.

A fresh interpreter installs a sys.setprofile hook before it imports nodedp
(the calibration table's rows are built at import), then runs every shipped
config at its first seed on one thread through ``nodedp sweep``, and
``nodedp bounds``. The functions it never entered must be exactly the listed
ones, so the list only shrinks: a new unreached function fails until it is
reached or listed with a reason, and a listed one that becomes reached fails
until its entry goes. A fresh process also finds the BLAS controls anew, as
a sweep from the command line does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import nodedp

CLI = "CLI only: nodedp generate and run and their files (test_cli.py)"
ITEM_1 = "the LP-extension sampler, which no shipped sweep takes (ROADMAP item 1)"
LP = "the truncation LP beyond identity projections; no shipped sweep projects (items 5, 10)"
ZCDP = "zCDP algebra that no pipeline composes with yet (item 8)"
FORMULA = "a formula that an acceptance criterion checks"
ERROR = "an error path that no shipped trial takes"

# Keyed "<module>.<co_qualname>"; lambdas and comprehensions are left out,
# since their qualnames need not be unique.
UNREACHED = {
    "accounting.adaptive_compose_dp": FORMULA + " (10)",
    "accounting.group_dp": FORMULA + " (10)",
    "accounting.compose_zcdp": ZCDP,
    "accounting.group_zcdp": ZCDP,
    "accounting.zcdp_to_dp": ZCDP,
    "boosting.hgr_thinned_bernoulli": FORMULA + " (8); boosting's report does not use it (item 16)",
    "bounds.stability_success_cap": FORMULA + " (10); no report uses it (item 9)",
    "cli.cmd_generate": CLI,
    "cli.cmd_run": CLI,
    "estimators.EstimatorOutput.failed": CLI,
    "graphs.read_graph": CLI,
    "graphs.write_graph": CLI,
    "graphs.read_labels": CLI,
    "graphs.write_labels": CLI,
    "harness.write_plotdata_csv": "nodedp sweep --emit-plotdata only",
    "estimators._top_vector.<locals>.score": ITEM_1,
    "mechanisms.sample_lipschitz_exp": ITEM_1,
    "truncation.lipschitz_extension_score": ITEM_1,
    "truncation._certified_round_one": LP,
    "truncation._bipartite_component_inside": LP,
    "lp.solve_lp": LP,
    "lp.linprog": LP,
    "truncation.weighted_degree_truncate": "no wrapped weighted config; unit tests only (item 5)",
    "estimators.DykstraFailure.__init__": ERROR,
    "mechanisms.RejectionCapExceeded.__init__": ERROR,
    "harness._failure_traceback": ERROR,
    "graphs.Graph.edge_count": "an accessor that tests and perfbench read",
    "graphs.WeightedGraph.binarize": "an accessor that tests read; truncation's weighted path (item 5)",
    "graphs.WeightedGraph.degrees": "an accessor that tests read",
    "graphs.LabelAssignment.counts": "an accessor that tests read",
}

# Prints {"<module>.<qualname>": lines} for every function (def) of src/ that
# was never entered and whose enclosing function or class was.
_PROBE = """
import json, sys, threading
from pathlib import Path

package, configs, out = (Path(a) for a in sys.argv[1:4])
called = set()


def hook(frame, event, arg):
    called.add(frame.f_code)


sys.setprofile(hook)
threading.setprofile(hook)
import nodedp.cli

for path in sorted(configs.glob("*.json")):
    cfg = json.loads(path.read_text())
    cfg["seeds"] = cfg["seeds"][:1]
    (out / path.name).write_text(json.dumps(cfg))
    nodedp.cli.main(["sweep", "--config", str(out / path.name), "--out", str(out / path.stem),
                     "--threads", "1"])
nodedp.cli.main(["bounds", "--out", str(out / "bounds.csv")])
sys.setprofile(None)
threading.setprofile(None)

reached = {(c.co_filename, c.co_firstlineno, c.co_qualname) for c in called}
unreached = {}


def walk(code, module):
    for f in code.co_consts:
        if not hasattr(f, "co_qualname") or f.co_name.startswith("<"):
            continue
        if (f.co_filename, f.co_firstlineno, f.co_qualname) in reached:
            walk(f, module)
        else:
            last = max(line for *_, line in f.co_lines() if line is not None)
            unreached[f"{module}.{f.co_qualname}"] = last - f.co_firstlineno + 1


for path in sorted(package.glob("*.py")):
    walk(compile(path.read_text(), str(path), "exec"), path.stem)
print(json.dumps(unreached))
"""


def test_shipped_configs_reach_every_src_function_but_the_listed(tmp_path):
    package = Path(nodedp.__file__).resolve().parent
    configs = Path(__file__).resolve().parent.parent / "configs"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _PROBE, str(package), str(configs),
                             str(tmp_path)], env=env, check=True, capture_output=True,
                            text=True, timeout=300)
    unreached = json.loads(result.stdout.splitlines()[-1])
    assert sorted(unreached.keys() - UNREACHED.keys()) == [], "unreached and not listed"
    assert sorted(UNREACHED.keys() - unreached.keys()) == [], "listed but reached"
