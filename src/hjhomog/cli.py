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
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, cell_solver as cs, gluing as gl, homog_pde as hp
from . import large_osc as lo
from .curve import EffectiveCurve
from .env import EnvironmentSpec, sample, split_seed
from .errors import ConfigError, HJHomogError, NotApplicable, ProfileError
from .structure import detect_branches, normalize

CONFIG_SCHEMA = "run/1"
MANIFEST_SCHEMA = "manifest/1"

# the keys of each run/1 section, with their defaults
SECTIONS = {
    "solver": {"dx": None, "R": 2.0, "periodize_cells": None},
    "ivp": {"T": 1.0, "X_core": 1.0, "datum_height": 5.0},
    "tolerances": {"dual_route": 0.1},
}
# the bound of each number in a section ("" for any finite number)
BOUNDS = {"solver.dx": "> 0", "solver.R": "> 0", "ivp.T": "> 0",
          "ivp.X_core": ">= 0", "ivp.datum_height": "",
          "tolerances.dual_route": ">= 0"}
CURVE_HEADER = ["p", "Hbar", "error_budget", "route"]  # every curves.csv
TOP_KEYS = ("schema", "task", "env", "p_grid", "mu_points", "lambda_schedule",
            "epsilons", "seeds", "window_cells", *SECTIONS)


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


def _parse_grid(spec, default):
    """The p grid as floats: a list of numbers or {start, stop, n}."""
    if spec is None:
        return [float(p) for p in default]
    if isinstance(spec, dict):
        _known_keys("p_grid", spec, ("start", "stop", "n"))
        return [float(p) for p in np.linspace(
            _number("p_grid.start", spec["start"], ""),
            _number("p_grid.stop", spec["stop"], ""),
            _integer("p_grid.n", spec["n"]))]
    return [_number("p_grid", p, "") for p in spec]


def _known_keys(name, section, keys):
    """The dict ``section``; ConfigError when it holds a key not in keys."""
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {name}; "
                          f"expected some of {sorted(keys)}")
    return section


def _number(name, value, bound):
    """``value`` as a float; ConfigError unless it is a finite JSON number
    within ``bound`` ("> 0", ">= 0" or "" for none)."""
    finite = type(value) in (int, float) and math.isfinite(value)
    if not finite or (bound and value < 0) or (bound == "> 0" and value == 0):
        raise ConfigError(f"{name} must be a finite number {bound}, "
                          f"not {value!r}")
    return float(value)


def _integer(name, value):
    """``value``; ConfigError unless it is a JSON integer."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, not {value!r}")
    return value


def resolve_config(raw, seed_override):
    """Validate and fill defaults; every tolerance is echoed explicitly.

    Numbers must be JSON numbers (counts and seeds JSON integers) and are
    stored converted; a key this function does not read, at the top level
    or in a section, is a ConfigError."""
    if isinstance(raw, dict) and raw.get("schema") == MANIFEST_SCHEMA:
        raw = raw["config"]
    if not isinstance(raw, dict):
        raise ConfigError(f"the config must be a JSON object, not {raw!r}")
    if raw.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"unsupported config schema {raw.get('schema')!r}")
    _known_keys("the config", raw, TOP_KEYS)
    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    if "env" not in raw:
        raise ConfigError("config needs an 'env' section")
    env_spec = EnvironmentSpec.from_dict(raw["env"])
    seeds_cfg = raw.get("seeds", [0])
    if isinstance(seeds_cfg, dict):
        _known_keys("seeds", seeds_cfg, ("master", "count"))
        master = _integer("seeds.master", seeds_cfg.get("master", 0))
        if seed_override is not None:
            master = seed_override
        count = _integer("seeds.count", seeds_cfg.get("count", 1))
        seeds = [split_seed(master, k) for k in range(count)]
    else:
        seeds = [_integer("seeds", s) for s in seeds_cfg]
        if len(set(seeds)) < len(seeds):
            raise ConfigError(f"seeds must be distinct, not {seeds_cfg!r}")
        if seed_override is not None:
            seeds = [split_seed(seed_override, k) for k in range(len(seeds))]
    sections = {name: dict(keys, **_known_keys(name, raw.get(name, {}), keys))
                for name, keys in SECTIONS.items()}
    resolved = {
        "schema": CONFIG_SCHEMA,
        "task": task,
        "env": env_spec.to_dict(),
        "p_grid": _parse_grid(raw.get("p_grid"), np.linspace(-2, 2, 9)),
        "mu_points": _integer("mu_points", raw.get("mu_points", 15)),
        "lambda_schedule": [_number("lambda_schedule", x, "> 0") for x in
                            raw.get("lambda_schedule", cs.LAMBDA_SCHEDULE)],
        "epsilons": [_number("epsilons", e, "> 0")
                     for e in raw.get("epsilons", (0.4, 0.2, 0.1))],
        "seeds": seeds,
        "window_cells": _integer("window_cells", raw.get("window_cells", 100)),
        **sections,
    }
    lams = resolved["lambda_schedule"]
    if len(lams) < 3 or any(b >= a for a, b in zip(lams, lams[1:])):
        raise ConfigError("lambda_schedule must be strictly decreasing with "
                          "at least 3 entries")
    if resolved["window_cells"] <= 2 * lo.BUFFER_CELLS:
        raise ConfigError(f"window_cells must exceed {2 * lo.BUFFER_CELLS}, "
                          "the two edge buffers of the level-set window")
    if resolved["mu_points"] < 1:
        raise ConfigError("mu_points must be at least 1")
    eps = resolved["epsilons"]
    if not eps or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("epsilons must be a non-empty and strictly "
                          "decreasing list")
    if not resolved["p_grid"]:
        raise ConfigError("p_grid must be non-empty")
    if not seeds:
        raise ConfigError("seeds must name at least one seed")
    for name, bound in BOUNDS.items():
        section, key = name.split(".")
        value = sections[section][key]
        if value is not None or key != "dx":  # a null dx: the default grid
            sections[section][key] = _number(name, value, bound)
    cells = sections["solver"]["periodize_cells"]
    if cells is not None and (type(cells) is not int or cells < 1):
        raise ConfigError("solver.periodize_cells must be null or an "
                          f"integer >= 1, not {cells!r}")
    if cells is not None and env_spec.kind == "periodic":
        raise ConfigError("solver.periodize_cells applies to checkerboard "
                          "envs; a periodic env is already periodic")
    return resolved


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


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(config, out_dir, strict=False, seed_override=None):
    """Execute one configured task; returns the process exit code."""
    try:
        cfg = resolve_config(config, seed_override=seed_override)
    except (ConfigError, ProfileError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
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
