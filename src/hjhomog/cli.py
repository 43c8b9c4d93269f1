"""Config-driven experiment runner.

Subcommands:

* ``hjhomog run --config cfg.json --out DIR [--seed N] [--strict]``
* ``hjhomog diff DIR_A DIR_B [--strict]``

A run writes machine-readable artifacts (curves.csv, sweep.csv,
levelsets.csv, tree.json, convergence.csv, report.json, as applicable to
the task) plus manifest.json, which embeds the fully resolved
configuration; re-running from the manifest reproduces every CSV
bit-identically.  Exit codes: 0 success, 1 assertion failure (reports are
still written), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import __version__, cell_solver as cs, gluing as gl, homog_pde as hp
from . import large_osc as lo
from .curve import EffectiveCurve
from .env import (EnvironmentSpec, check_keys, check_number, sample,
                  split_seed)
from .errors import ConfigError, HJHomogError, NotApplicable, ProfileError
from .structure import detect_branches, normalize

CONFIG_SCHEMA = "run/1"
MANIFEST_SCHEMA = "manifest/1"
CURVE_HEADER = ["p", "Hbar", "error_budget", "route"]  # every curves.csv


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _fmt(x):
    return "%.17g" % float(x)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              and not isinstance(v, bool) else str(v)
                              for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _real(bound=""):
    """Check: a finite JSON number within ``bound``, stored as a float."""
    return lambda name, x: check_number(name, x, bound, ConfigError)


def _int(least, most=float("inf")):
    """Check: a JSON integer in [``least``, ``most``]."""
    def check(name, x):
        if type(x) is not int or not least <= x <= most:
            raise ConfigError(f"{name} must be an integer in [{least}, "
                              f"{most}], not {x!r}")
        return x
    return check


def _or_null(check):
    """Check: null, or a value that ``check`` accepts."""
    return lambda name, x: None if x is None else check(name, x)


def _one_of(choices):
    """Check: one of the strings ``choices``."""
    def check(name, x):
        if not (isinstance(x, str) and x in choices):
            raise ConfigError(f"{name} must be one of {sorted(choices)}, "
                              f"not {x!r}")
        return x
    return check


def _list(item, least=1, decreasing=False):
    """Check: a list of at least ``least`` values that ``item`` accepts,
    each named by its index, strictly decreasing when ``decreasing``."""
    def check(name, x):
        if not isinstance(x, (list, tuple)):
            raise ConfigError(f"{name} must be a list, not {x!r}")
        xs = [item(f"{name}[{i}]", v) for i, v in enumerate(x)]
        if len(xs) < least or (decreasing and any(
                b >= a for a, b in zip(xs, xs[1:]))):
            raise ConfigError(f"{name} must be {least}+ values"
                              f"{', strictly decreasing' * decreasing}, "
                              f"not {x!r}")
        return xs
    return check


_seed = _int(-2 ** 63, 2 ** 63 - 1)   # what split_seed and the fields take
_count = _int(1, cs.MAX_NODES)        # a p grid's points, a master's seeds


def _grid(name, x):
    """p_grid: a list of points, or {start, stop, n} for n points evenly
    spaced from start to stop; null is 9 points on [-2, 2]."""
    x = {"start": -2.0, "stop": 2.0, "n": 9} if x is None else x
    if isinstance(x, dict):
        g = _read(name, x, GRID_KEYS)
        x = np.linspace(g["start"], g["stop"], g["n"]).tolist()
    return _list(_real())(name, x)


def _seeds(name, x):
    """seeds: a list of distinct seeds, or {master, count} for the first
    count child seeds of master (``split_seed``)."""
    if isinstance(x, dict):
        s = _read(name, x, SEED_KEYS)
        return [split_seed(s["master"], k) for k in range(s["count"])]
    seeds = _list(_seed)(name, x)
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"{name} must be distinct, not {x!r}")
    return seeds


def _read(name, value, check):
    """``value`` read through ``check``: a function (name, value) -> the
    value as stored, or rows (key -> (default, check), as ``RUN_KEYS``)
    for a JSON object, in which a key not in rows is a ConfigError and a
    key left out takes its default.  A row's check gets ``name.key``."""
    if not isinstance(check, dict):
        return check(name, value)
    check_keys(name or "the config", value, check, ConfigError)
    return {key: _read(f"{name}.{key}".lstrip("."), value.get(key, default),
                       row) for key, (default, row) in check.items()}


def resolve_config(raw, seed_override):
    """The run/1 config ``raw`` (or a manifest's) read through ``RUN_KEYS``,
    every default filled in for the manifest to echo; a bad value is a
    ConfigError (a ProfileError from ``env``) naming its key.
    ``seed_override`` replaces the seeds by as many children of it."""
    if isinstance(raw, dict) and raw.get("schema") == MANIFEST_SCHEMA:
        raw = raw.get("config")
    cfg = _read("", raw, RUN_KEYS)
    if seed_override is not None:
        master, n = _seed("--seed", seed_override), len(cfg["seeds"])
        cfg["seeds"] = [split_seed(master, k) for k in range(n)]
    if (cfg["solver"]["periodize_cells"] is not None
            and cfg["env"]["kind"] == "periodic"):
        raise ConfigError("solver.periodize_cells applies to checkerboard "
                          "envs; a periodic env is already periodic")
    return cfg


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _realize(cfg):
    """The task's realizations as a {seed: field} map, from one parse of
    ``cfg["env"]``: one field per seed of a checkerboard env, and the one
    field of a periodic env, which every seed realizes, under the first
    seed.  Every route of the task reads these fields; ONE_SEED_ROUTES
    read the first seed's only."""
    spec = EnvironmentSpec.from_dict(cfg["env"])
    seeds = cfg["seeds"][:1] if spec.kind == "periodic" else cfg["seeds"]
    return {s: sample(spec, s) for s in seeds}


def _solver_curve(cfg, fields):
    sol = cfg["solver"]
    if sol["periodize_cells"]:
        fields = {s: f.periodized(sol["periodize_cells"])
                  for s, f in fields.items()}
    ests = [cs.estimate_hbar(
        fields, float(p), lam_schedule=tuple(cfg["lambda_schedule"]),
        dx=sol["dx"], R=sol["R"])
        for p in cfg["p_grid"]]
    return EffectiveCurve([e.p for e in ests], [e.value for e in ests],
                          [e.dispersion for e in ests],
                          sweep_rows=[r for e in ests for r in e.rows])


def _oracle_curve(cfg, fields):
    return gl.convex_oracle(fields, p_lo=-3.5, p_hi=3.5)


def _largeosc_curve(cfg, fields):
    field = fields[cfg["seeds"][0]]
    fn, sn, p_shift, mu_shift = normalize(field, detect_branches(field))
    curve_n = lo.assemble_effective_curve(
        fn, sn, mu_points=cfg["mu_points"], window_cells=cfg["window_cells"],
        p_lo=min(cfg["p_grid"]) - p_shift - 0.25,
        p_hi=max(cfg["p_grid"]) - p_shift + 0.25)
    return curve_n.transformed(p_shift, mu_shift)


def _glue_curve(cfg, fields):
    tree = gl.build_reduction_tree(fields[cfg["seeds"][0]])
    opts = gl.LeafOptions(lam_schedule=tuple(cfg["lambda_schedule"]),
                          dx=cfg["solver"]["dx"], R=cfg["solver"]["R"],
                          mu_points=cfg["mu_points"],
                          window_cells=cfg["window_cells"])
    curve = gl.evaluate_tree(tree, np.asarray(cfg["p_grid"]), opts)
    curve.tree = tree
    return curve


# route -> (cfg, fields) -> EffectiveCurve, ``fields`` the task's
# realizations; a route that does not apply raises NotApplicable
ROUTES = {"oracle": _oracle_curve, "largeosc": _largeosc_curve,
          "glue": _glue_curve, "solver": _solver_curve}  # the solver last
ONE_SEED_ROUTES = ("largeosc", "glue")   # they read the first seed's field
CONVERGE_ORDER = ("oracle", "largeosc", "solver")


def task_effective(cfg, out):
    curve = ROUTES["solver"](cfg, _realize(cfg))
    write_csv(os.path.join(out, "curves.csv"), CURVE_HEADER,
              [(p, v, b, "solver") for p, v, b, _ in curve.rows()])
    write_csv(os.path.join(out, "sweep.csv"),
              ["p", "lambda", "seed", "minus_lambda_v0", "residual",
               "grad_min", "grad_max"], curve.sweep_rows)
    return {"status": "ok", "n_points": len(curve.p)}


def task_glue(cfg, out):
    curve = ROUTES["glue"](cfg, _realize(cfg))
    with open(os.path.join(out, "tree.json"), "w") as fh:
        json.dump(curve.tree.to_dict(), fh, indent=1, sort_keys=True)
    write_csv(os.path.join(out, "curves.csv"), CURVE_HEADER,
              [(p, v, b, "glue") for p, v, b, _ in curve.rows()])
    return {"status": "ok", "depth": curve.tree.depth(),
            "leaves": [l.leaf_kind for l in curve.tree.leaves()]}


def task_largeosc(cfg, out):
    curve = ROUTES["largeosc"](cfg, _realize(cfg))
    write_csv(os.path.join(out, "levelsets.csv"),
              ["mu", "p_lo", "p_hi", "ci"],
              [(r["mu"], r["p_lo"], r["p_hi"], r["ci"])
               for r in curve.level_intervals])
    write_csv(os.path.join(out, "curves.csv"), CURVE_HEADER, curve.rows())
    return {"status": "ok", "flat": list(curve.flat) if curve.flat else None}


def task_converge(cfg, out):
    """The eps experiment against the curve of the first route in
    CONVERGE_ORDER that builds one; an error of the last route fails."""
    fields = _realize(cfg)
    failed = []
    for route in CONVERGE_ORDER:
        try:
            curve = ROUTES[route](cfg, fields)
            break
        except HJHomogError as exc:
            if route == CONVERGE_ORDER[-1]:
                raise
            failed.append({"route": route, "error": repr(exc)})
    ivp = cfg["ivp"]
    setup = hp.IVPSetup(g=hp.wedge_datum(ivp["datum_height"]), T=ivp["T"],
                        X_core=ivp["X_core"],
                        theta=hp.default_theta(fields[cfg["seeds"][0]]))
    res = hp.convergence_experiment(fields, curve, setup,
                                    eps_list=tuple(cfg["epsilons"]),
                                    hbar_dx=1 / 128)
    write_csv(os.path.join(out, "convergence.csv"),
              ["epsilon", "seed", "err_sup_core", "dx", "dt"], res.rows)
    return {"status": "ok", "curve_route": route, "failed_routes": failed,
            "monotone": {str(k): bool(v) for k, v in res.monotone.items()}}


def task_validate(cfg, out):
    """The solver sweep against every other route, each run once on the
    same fields: a route's curve must lie within both budgets plus
    ``tolerances.dual_route`` of the sweep at every p of ``p_grid``.  The
    glue check counts its ``solver_leaves``: a leaf the solver evaluated
    compares the solver with itself."""
    fields = _realize(cfg)
    ps = np.asarray(cfg["p_grid"])
    solver = ROUTES["solver"](cfg, fields)
    ref, ref_budget = solver.evaluate(ps), solver.budget_at(ps)
    rows = [(p, v, b, "solver") for p, v, b in zip(ps, ref, ref_budget)]
    checks, seeds = {}, list(fields)
    for route, build in list(ROUTES.items())[:-1]:   # all but the solver
        check = checks[route] = {
            "seeds_read": seeds[:1] if route in ONE_SEED_ROUTES else seeds}
        try:
            curve = build(cfg, fields)
        except NotApplicable as exc:
            check.update(skipped=True, reason=str(exc))
            continue
        except HJHomogError as exc:
            check.update(passed=False, error=repr(exc))
            continue
        values, budget = curve.evaluate(ps), curve.budget_at(ps)
        rows += [(p, v, b, route) for p, v, b in zip(ps, values, budget)]
        diffs = np.abs(ref - values)
        allowed = ref_budget + budget + cfg["tolerances"]["dual_route"]
        # the report pairs each number with the p where diff/allowed peaks
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(diffs > 0, diffs / allowed, 0.0)
        k = int(np.argmax(ratio))
        check.update(passed=bool(np.all(diffs <= allowed)),
                     worst_p=float(ps[k]), ratio=float(ratio[k]),
                     max_diff=float(diffs[k]), allowed=float(allowed[k]))
        if curve.tree is not None:   # glue: the leaves the solver read
            check["solver_leaves"] = sum(leaf.leaf_kind == "direct"
                                         for leaf in curve.tree.leaves())
    write_csv(os.path.join(out, "curves.csv"), CURVE_HEADER, rows)
    ok = all(c.get("skipped") or c["passed"] for c in checks.values())
    return {"status": "ok" if ok else "failed", "checks": checks}


TASKS = {"effective": task_effective, "glue": task_glue,
         "largeosc": task_largeosc, "converge": task_converge,
         "validate": task_validate}

# run/1: key -> (default, check), read by ``_read``.  A required key
# defaults to None, which its check rejects; p_grid and seeds given as
# objects read GRID_KEYS and SEED_KEYS the same way.
RUN_KEYS = {
    "schema": (None, _one_of((CONFIG_SCHEMA,))),
    "task": (None, _one_of(TASKS)),
    "env": (None, lambda name, x: EnvironmentSpec.from_dict(x).to_dict()),
    "p_grid": (None, _grid),
    "mu_points": (15, _int(1)),        # levels of the level-set assembly
    "lambda_schedule": (cs.LAMBDA_SCHEDULE,
                        _list(_real("> 0"), 3, decreasing=True)),
    "epsilons": ([0.4, 0.2, 0.1], _list(_real("> 0"), decreasing=True)),
    "seeds": ([0], _seeds),
    # the level-set window in cells, wider than its two edge buffers
    "window_cells": (100, _int(2 * lo.BUFFER_CELLS + 1)),
    "solver": ({}, {"dx": (None, _or_null(_real("> 0"))),
                    "R": (2.0, _real("> 0")),     # the window is R / lam
                    "periodize_cells": (None, _or_null(_int(1)))}),
    "ivp": ({}, {"T": (1.0, _real("> 0")), "X_core": (1.0, _real(">= 0")),
                 "datum_height": (5.0, _real())}),
    "tolerances": ({}, {"dual_route": (0.1, _real(">= 0"))}),
}
GRID_KEYS = {"start": (None, _real()), "stop": (None, _real()),
             "n": (None, _count)}
SEED_KEYS = {"master": (0, _seed), "count": (1, _count)}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(config, out_dir, strict=False, seed_override=None):
    """Execute one configured task; returns the process exit code."""
    try:
        cfg = resolve_config(config, seed_override=seed_override)
    except (ConfigError, ProfileError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        try:
            report = TASKS[cfg["task"]](cfg, out_dir)
        except HJHomogError as exc:
            report = {"status": "failed", "error": str(exc)}
        captured = [f"{w.category.__name__}: {w.message}" for w in wlist]
    report["warnings"] = captured
    manifest = {"schema": MANIFEST_SCHEMA, "config": cfg,
                "versions": {"hjhomog": __version__,
                             "numpy": np.__version__},
                "report": report}
    for name, doc in (("manifest.json", manifest), ("report.json", report)):
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    if report.get("status") != "ok":
        return 1
    if strict and captured:
        print("strict mode: warnings raised", file=sys.stderr)
        return 1
    return 0


def diff_runs(dir_a, dir_b, extra_tol):
    """Compare two runs' curves; grids must match exactly."""
    with open(os.path.join(dir_a, "manifest.json")) as fh:
        man_a = json.load(fh)
    with open(os.path.join(dir_b, "manifest.json")) as fh:
        man_b = json.load(fh)
    if man_a["config"]["task"] != man_b["config"]["task"]:
        raise ConfigError("manifests describe different tasks")

    def load_curve(d):   # p, Hbar, error_budget: CURVE_HEADER's first three
        with open(os.path.join(d, "curves.csv")) as fh:
            return np.asarray([line.split(",")[:3]
                               for line in fh.readlines()[1:]], float).T

    pa, va, ba = load_curve(dir_a)
    pb, vb, bb = load_curve(dir_b)
    if not np.array_equal(pa, pb):
        raise ConfigError("incompatible p grids")
    diffs = np.abs(va - vb)
    allowed = ba + bb + extra_tol
    worst = int(np.argmax(diffs - allowed))
    return {"max_diff": float(diffs.max()),
            "within_budgets": bool(np.all(diffs <= allowed + 1e-15)),
            "worst_p": float(pa[worst]),
            "identical": bool(np.array_equal(va, vb)),
            "n_points": int(len(pa))}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hjhomog",
        description="Effective Hamiltonians of 1D Hamilton-Jacobi equations "
                    "in periodic and random media")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a configured task")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="master seed override")
    p_run.add_argument("--strict", action="store_true",
                       help="treat warnings as failures")
    p_diff = sub.add_parser("diff", help="compare two run directories")
    p_diff.add_argument("dir_a")
    p_diff.add_argument("dir_b")
    p_diff.add_argument("--tol", type=float, default=0.0)
    p_diff.add_argument("--strict", action="store_true")
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return run(config, args.out, strict=args.strict,
                   seed_override=args.seed)
    try:
        report = diff_runs(args.dir_a, args.dir_b, extra_tol=args.tol)
    except (ConfigError, OSError) as exc:
        print(f"diff error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=1, sort_keys=True))
    if args.strict and not report["within_budgets"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
