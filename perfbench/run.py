"""Benchmark of hjhomog's CLI: one workload per route to Hbar.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``run/1`` config in ``perfbench/configs/`` driven
through ``hjhomog.cli.run`` in this process, single-threaded.

One pass runs the task once per master seed of ``--seed`` (see
``masters``): once for a fixed workload, at ``MASTERS_PER_SEED`` master
seeds for the seeded one, so that its work averages over several
realizations instead of following the draw of one.

``--trace 0`` repeats passes untraced while they fit in ``--seconds`` (at
least one pass) and reports the end-to-end metrics: the median over passes
of the mean ``wall_s`` and ``cpu_s`` per task run, ``setup_s`` (median
over fresh interpreters of import + resolve_config + sample) and
``peak_rss_mb``.

``--trace 1`` runs one pass untraced and one with every layer wrapped by
``spans.Instrumentation`` and reports the per-layer metrics, the tracing
overhead, the artifacts' deviation from the references and the share of
the workload's own entry span.  The traced artifacts must be byte-identical
to the untraced ones, the entry span must hold the largest inclusive share
of the four entry spans and at least a third of the traced wall time, and
the spans a workload is meant to bypass must not be called.

Every task run is one operation.  It fails on an exception, a nonzero exit
code, a status other than ``ok`` or an artifact check that fails (see
``artifacts.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pin BLAS / OpenMP pools before numpy is imported, here and in children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from artifacts import REFERENCE_DIR, check_outputs, reference_tag  # noqa: E402

WORKLOADS = {
    "largeosc_quartic": {
        "seeded": False,
        "artifacts": ("curves.csv", "levelsets.csv"),
        "entry": "structure.branch_inverse_grid",
        "bypasses": ("cell_solver.solve_discounted",),
    },
    "effective_checkerboard": {
        "seeded": True,                 # --seed picks its master seeds
        "artifacts": ("curves.csv", "sweep.csv"),
        "entry": "cell_solver.solve_discounted",
        "bypasses": ("large_osc.admissible_decomposition",),
    },
    "converge_quartic_small": {
        "seeded": False,
        "artifacts": ("convergence.csv",),
        "entry": "homog_pde.solve_oscillatory",
    },
    "glue_steep": {
        "seeded": False,
        "artifacts": ("curves.csv",),
        "entry": "gluing.convex_oracle",
    },
}
DEFAULT_SEED = 7
# task runs (master seeds) per pass of a seeded workload
MASTERS_PER_SEED = 6
# largest |artifact value - reference value| that still counts as correct;
# 0 also demands byte-identical CSVs.  A change that cannot keep them
# bit-identical states its own tolerance here.
MAX_DEV_TOLERANCE = 0.0
# max_dev reported by a traced run at a seed with no stored reference
MAX_DEV_NOT_MEASURED = -1.0
MIN_ENTRY_SHARE = 1.0 / 3.0
SETUP_REPEATS = 5

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from hjhomog import cli, env
with open(sys.argv[2]) as fh:
    raw = json.load(fh)
seed = None if sys.argv[3] == "none" else int(sys.argv[3])
cfg = cli.resolve_config(raw, seed_override=seed)
env.sample(env.EnvironmentSpec.from_dict(cfg["env"]), cfg["seeds"][0])
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no package, a failing set-up)."""


def config_path(workload):
    return os.path.join(HERE, "configs", f"{workload}.json")


def load_config(workload):
    with open(config_path(workload)) as fh:
        return json.load(fh)


def load_cli():
    """Import hjhomog.cli from this checkout's ``src``, never elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hjhomog", "__init__.py")):
        raise BenchError(f"no hjhomog package under {SRC}")
    sys.path.insert(0, SRC)
    from hjhomog import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"hjhomog imported from {cli.__file__}, not {SRC}")
    return cli


def masters(workload, seed):
    """Master seeds ``cli.run`` gets in one pass at benchmark seed ``seed``:
    ``MASTERS_PER_SEED`` of them, disjoint between benchmark seeds, for a
    seeded workload; ``[None]`` (the config's own seeds) otherwise."""
    if not WORKLOADS[workload]["seeded"]:
        return [None]
    return [seed * MASTERS_PER_SEED + k for k in range(MASTERS_PER_SEED)]


def run_once(cli, workload, cfg, master, out_dir,
             reference_dir=REFERENCE_DIR):
    """One task run: wall and CPU seconds of ``cli.run`` and its verdict."""
    shutil.rmtree(out_dir, ignore_errors=True)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        rc = cli.run(cfg, out_dir, seed_override=master)
    except Exception:                 # an operation that failed; keep going
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(b.ru_utime + b.ru_stime - a.ru_utime - a.ru_stime
              for a, b in ((r0, r1), (c0, c1)))
    spec = WORKLOADS[workload]
    verdict = check_outputs(out_dir, workload, spec["artifacts"],
                            reference_tag(master), MAX_DEV_TOLERANCE,
                            reference_dir)
    if rc != 0:
        verdict["ok"] = False
        verdict["problems"].insert(0, f"exit code {rc}")
    for problem in verdict["problems"]:
        print(f"[{workload}] check failed: {problem}", file=sys.stderr)
    return {"wall_s": wall, "cpu_s": cpu, "rc": rc, **verdict}


def measure_setup(workload, seed):
    """Seconds to import hjhomog, resolve the config and sample the field,
    in a fresh interpreter."""
    override = masters(workload, seed)[0]
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC, config_path(workload),
         "none" if override is None else str(override)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_record():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _csv_names(d):
    return sorted(n for n in os.listdir(d) if n.endswith(".csv")) \
        if os.path.isdir(d) else []


def _same_csv_bytes(dir_a, dir_b):
    names = _csv_names(dir_a)
    if not names or names != _csv_names(dir_b):
        return False
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def entry_shares(tracer, wall):
    """Inclusive share of ``wall`` of every workload's entry span."""
    return {spec["entry"]: tracer.inclusive(spec["entry"]) / wall
            for spec in WORKLOADS.values()}


def bench_untraced(cli, workload, cfg, seed, seconds, out_dir):
    """Passes until one more would take their total time past ``seconds``
    (at least one pass), with the set-up samples taken between them so that
    both spread over the same stretch of time."""
    passes, setups = [], []
    while True:
        setups.append(measure_setup(workload, seed))
        passes.append([run_once(cli, workload, cfg, m, out_dir)
                       for m in masters(workload, seed)])
        totals = [sum(r["wall_s"] for r in p) for p in passes]
        if sum(totals) + statistics.median(totals) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(workload, seed))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def per_run(key):
        return statistics.median(statistics.fmean(r[key] for r in p)
                                 for p in passes)

    metrics = {
        "wall_s": (per_run("wall_s"), "s"),
        "cpu_s": (per_run("cpu_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    runs = [r for p in passes for r in p]
    return runs, metrics, {"setup_s_samples": setups}, True


def bench_traced(cli, workload, cfg, seed, out_dir):
    """One pass untraced and one traced, task run by task run."""
    from spans import (Instrumentation, Tracer, layer_metrics,
                       module_self_shares)
    tracer = Tracer()
    plain, traced = [], []
    same = True
    for master in masters(workload, seed):
        plain.append(run_once(cli, workload, cfg, master, out_dir))
        with Instrumentation(tracer):
            traced.append(run_once(cli, workload, cfg, master,
                                   out_dir + "-traced"))
        if not _same_csv_bytes(out_dir, out_dir + "-traced"):
            same = traced[-1]["ok"] = False
            print(f"[{workload}] traced artifacts of master seed {master} "
                  f"differ from untraced ones", file=sys.stderr)
    runs = plain + traced
    plain_wall = sum(r["wall_s"] for r in plain)
    wall = sum(r["wall_s"] for r in traced)
    shares = entry_shares(tracer, wall)
    entry = WORKLOADS[workload]["entry"]
    layers_ok = (shares[entry] == max(shares.values())
                 and shares[entry] >= MIN_ENTRY_SHARE)
    if not layers_ok:
        print(f"[{workload}] LAYER-SHARE CHECK FAILED: entry span {entry} "
              f"holds {shares[entry]:.3f} of wall_s; it must hold the "
              f"largest share of {shares} and at least "
              f"{MIN_ENTRY_SHARE:.3f}", file=sys.stderr)
    for span in WORKLOADS[workload].get("bypasses", ()):
        if tracer.calls(span):
            layers_ok = False
            print(f"[{workload}] LAYER CHECK FAILED: {span} was called "
                  f"{tracer.calls(span)} times; this workload must bypass "
                  f"it", file=sys.stderr)
    metrics = layer_metrics(tracer)
    metrics["trace_overhead_s"] = ((wall - plain_wall) / len(traced), "s")
    devs = [r["max_dev"] for r in runs if r["max_dev"] is not None]
    metrics["max_dev"] = (max(devs) if devs else MAX_DEV_NOT_MEASURED, "abs")
    metrics["entry_share"] = (shares[entry], "ratio")
    for module, share in module_self_shares(tracer, wall).items():
        metrics[f"self_share.{module}"] = (share, "ratio")
    detail = {"pass_wall_s": {"untraced": plain_wall, "traced": wall},
              "entry_shares": shares, "traced_artifacts_identical": same,
              "layer_share_check": layers_ok,
              "spans": {name: {"calls": s[0], "s": s[1], "self_s": s[2]}
                        for name, s in sorted(tracer.stats.items())
                        if s[0]}}
    return runs, metrics, detail, layers_ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    cfg = load_config(args.workload)
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            runs, metrics, detail, checks_ok = bench_traced(
                cli, args.workload, cfg, args.seed, out_dir)
        else:
            runs, metrics, detail, checks_ok = bench_untraced(
                cli, args.workload, cfg, args.seed, args.seconds, out_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        for d in (out_dir, out_dir + "-traced"):
            shutil.rmtree(d, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:               # another run still uses it
            pass

    failed = sum(not r["ok"] for r in runs)
    record = {
        "workload": args.workload, "seed": args.seed,
        "masters": masters(args.workload, args.seed),
        "trace": args.trace, "seconds": args.seconds,
        "machine": machine_record(),
        "max_dev_tolerance": MAX_DEV_TOLERANCE,
        "fail_frac": failed / len(runs),
        "runs": [{k: r[k] for k in ("wall_s", "cpu_s", "rc", "ok",
                                    "referenced", "max_dev", "identical")}
                 for r in runs],
        **detail,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    result = {"correct": failed == 0 and checks_ok,
              "attempted": len(runs), "failed": failed,
              "metrics": {name: {"value": min(value, sys.float_info.max),
                                 "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
