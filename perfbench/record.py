"""Record the seed-commit references the benchmark checks against.

    python3 perfbench/record.py references
    python3 perfbench/record.py shares

``references`` runs each workload untraced and copies its CSV artifacts to
``perfbench/reference/<workload>/<tag>/`` (one tag per master seed of the
benchmark seeds in ``REFERENCE_SEEDS`` for the seeded workload, ``fixed``
otherwise).  ``shares``
runs each workload as ``run.py --trace 1`` does and writes
``perfbench/layer_shares.json``: the inclusive share of ``wall_s`` of every
entry span and each module's share of self time.  Re-record only at a
commit whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run as bench
from artifacts import REFERENCE_DIR, reference_tag

SHARES_PATH = os.path.join(bench.HERE, "layer_shares.json")
# benchmark seeds whose master seeds get a stored reference
REFERENCE_SEEDS = range(24)

# which end-to-end metric each layer metric should move, on which workload
METRIC_WORKLOADS = [
    {"layer_metrics": ["structure.branch_inverse_grid.calls",
                       "structure.branch_inverse_grid.self_s",
                       "large_osc.admissible_decomposition.self_s",
                       "env.probe.calls"],
     "moves": "wall_s on largeosc_quartic",
     "unchanged": "wall_s on effective_checkerboard; batching may raise "
                  "peak_rss_mb on largeosc_quartic"},
    {"layer_metrics": ["env.cell_values.calls", "env.cell_values.self_s",
                       "cell_solver.solve_discounted.self_s"],
     "moves": "wall_s on effective_checkerboard",
     "unchanged": "these metrics must not rise on converge_quartic_small"},
    {"layer_metrics": ["gluing.convex_oracle.self_s", "env.evaluate.points",
                       "env.evaluate.calls"],
     "moves": "wall_s on glue_steep"},
    {"layer_metrics": ["homog_pde.solve_oscillatory.s",
                       "large_osc.assemble_effective_curve.ok_ratio"],
     "moves": "wall_s on converge_quartic_small"},
    {"layer_metrics": ["cell_solver.iterations", "cell_solver.warm_retries",
                       "max_dev"],
     "moves": "nothing: guards against speed bought with accuracy"},
]


def record_references(cli):
    for workload, spec in bench.WORKLOADS.items():
        cfg = bench.load_config(workload)
        shutil.rmtree(os.path.join(REFERENCE_DIR, workload),
                      ignore_errors=True)
        seeds = REFERENCE_SEEDS if spec["seeded"] else [bench.DEFAULT_SEED]
        for master in (m for seed in seeds
                       for m in bench.masters(workload, seed)):
            out = os.path.join(bench.OUT_ROOT, f"record-{workload}")
            shutil.rmtree(out, ignore_errors=True)
            rc = cli.run(cfg, out, seed_override=master)
            if rc != 0:
                raise SystemExit(f"{workload} master {master}: exit code {rc}")
            dest = os.path.join(REFERENCE_DIR, workload, reference_tag(master))
            os.makedirs(dest)
            for name in spec["artifacts"]:
                shutil.copyfile(os.path.join(out, name),
                                os.path.join(dest, name))
            shutil.rmtree(out)
            print(f"recorded {workload} -> {dest}", flush=True)


def record_shares(cli):
    shares = {}
    for workload in bench.WORKLOADS:
        out = os.path.join(bench.OUT_ROOT, f"record-{workload}")
        try:
            runs, metrics, detail, layers_ok = bench.bench_traced(
                cli, workload, bench.load_config(workload),
                bench.DEFAULT_SEED, out)
        finally:
            for d in (out, out + "-traced"):
                shutil.rmtree(d, ignore_errors=True)
        if not (layers_ok and all(r["ok"] for r in runs)):
            raise SystemExit(f"{workload}: a run failed its checks")
        shares[workload] = {
            "entry": bench.WORKLOADS[workload]["entry"],
            "pass_wall_s": detail["pass_wall_s"],
            "entry_inclusive_shares": detail["entry_shares"],
            "module_self_shares": {
                name.split(".", 1)[1]: value
                for name, (value, _) in metrics.items()
                if name.startswith("self_share.")},
        }
        print(f"{workload}: {json.dumps(shares[workload], indent=1)}",
              flush=True)
    record = {
        "about": "Seed-commit traced runs at the default seed: inclusive "
                 "share of wall_s (traced) of each workload's entry span "
                 "and of the other three, and each module's share of self "
                 "time, as run.py --trace 1 measures and checks them.",
        "metric_workloads": METRIC_WORKLOADS,
        "workloads": shares,
    }
    with open(SHARES_PATH, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("references", "shares"))
    args = parser.parse_args(argv)
    cli = bench.load_cli()
    if args.what == "references":
        record_references(cli)
    else:
        record_shares(cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
