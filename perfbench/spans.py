"""Spans and counters recorded around hjhomog's public functions.

Nothing inside the package is edited: ``Instrumentation`` replaces, for the
length of a ``with`` block, every public module-level function of the
layer modules (and every alias other modules imported), plus a few field
and curve methods, by a wrapper that times the call.  Leaving the block
restores every original object.

Per span name the tracer keeps the call count, the inclusive time (counted
only at the outermost active call, so recursion is not double counted) and
the self time (duration minus the time covered by direct child spans).
Hooks read counters off arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

PACKAGE = "hjhomog"
MODULES = ("env", "structure", "cell_solver", "gluing", "large_osc",
           "homog_pde", "curve", "cli")

PROBES = ("lipschitz_on", "coercivity_radius", "modulus", "sup_abs_on")

# (module, class, method, span name)
METHODS = (
    [("env", "HamiltonianField", "evaluate", "env.evaluate"),
     ("env", "HamiltonianField", "__call__", "env.evaluate"),
     ("env", "CheckerboardField", "cell_values", "env.cell_values"),
     ("curve", "EffectiveCurve", "evaluate", "curve.evaluate")]
    + [("env", "HamiltonianField", name, "env.probe") for name in PROBES])


class Tracer:
    """Aggregated span statistics: name -> [calls, inclusive s, self s]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.counters = defaultdict(int)
        self._covered = []            # per open span: time of its children
        self._depth = defaultdict(int)

    def wrap(self, name, fn, hook=None):
        clock, covered, depth, counters = (self.clock, self._covered,
                                           self._depth, self.counters)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            covered.append(0.0)
            depth[name] += 1
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                children = covered.pop()
                depth[name] -= 1
                outermost = depth[name] == 0
                stat[0] += 1
                stat[2] += dt - children
                if outermost:
                    stat[1] += dt
                if covered:
                    covered[-1] += dt
                if hook is not None:
                    hook(counters, args, kwargs, result, exc, outermost)

        wrapper.__wrapped_span__ = name
        return wrapper

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]


# ---------------------------------------------------------------------------
# counter hooks
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _count_points(key):
    def hook(counters, args, kwargs, result, exc, outermost):
        if exc is None:
            out = result[0] if isinstance(result, tuple) else result
            counters[key] += getattr(out, "size", 1)
    return hook


def _count_ok(key):
    def hook(counters, args, kwargs, result, exc, outermost):
        if exc is None:
            counters[key] += 1
    return hook


def _solve_discounted(counters, args, kwargs, result, exc, outermost):
    if exc is None:
        counters["cell_solver.solve_discounted.ok"] += 1
        counters["cell_solver.iterations"] += result.iterations
        counters["cell_solver.nodes"] += len(result.x_full)
    elif type(exc).__name__ == "Diverged" \
            and _arg(args, kwargs, 4, "w0") is not None:
        counters["cell_solver.warm_retries"] += 1


def _tree_leaves(counters, args, kwargs, result, exc, outermost):
    if exc is None and outermost:
        counters["gluing.tree_leaves"] += sum(1 for _ in result.leaves())


def _intervals(counters, args, kwargs, result, exc, outermost):
    if exc is None:
        counters["large_osc.admissible_decomposition.intervals"] += \
            len(result.intervals)


def _march_updates(setup, dx):
    """Nodes times steps of one LF march, as homog_pde._march sizes it."""
    m = math.ceil(setup.domain_half_width() / dx)
    steps = math.ceil(setup.T / (setup.cfl * dx / setup.theta))
    return (2 * m + 1) * steps


def _oscillatory_updates(counters, args, kwargs, result, exc, outermost):
    eps, setup = _arg(args, kwargs, 1, "eps"), _arg(args, kwargs, 2, "setup")
    dx = setup.dx if setup.dx is not None else eps / 32.0
    counters["homog_pde.cell_updates"] += _march_updates(setup, dx)


def _homogenized_updates(counters, args, kwargs, result, exc, outermost):
    setup, dx = _arg(args, kwargs, 1, "setup"), _arg(args, kwargs, 2, "dx")
    dx = dx or (setup.dx or 1e-2)
    counters["homog_pde.cell_updates"] += _march_updates(setup, dx)


HOOKS = {
    "env.evaluate": _count_points("env.evaluate.points"),
    "structure.branch_inverse_grid":
        _count_points("structure.branch_inverse_grid.points"),
    "cell_solver.solve_discounted": _solve_discounted,
    "gluing.build_reduction_tree": _tree_leaves,
    "gluing.convex_oracle": _count_ok("gluing.convex_oracle.ok"),
    "large_osc.assemble_effective_curve":
        _count_ok("large_osc.assemble_effective_curve.ok"),
    "large_osc.admissible_decomposition": _intervals,
    "homog_pde.solve_oscillatory": _oscillatory_updates,
    "homog_pde.solve_homogenized": _homogenized_updates,
}


# ---------------------------------------------------------------------------
# installing and removing the wrappers
# ---------------------------------------------------------------------------

def public_functions(module):
    """Public functions defined in ``module`` itself (not imported)."""
    return {attr: val for attr, val in vars(module).items()
            if inspect.isfunction(val) and not attr.startswith("_")
            and val.__module__ == module.__name__}


class Instrumentation:
    """Context manager that wraps the package's layers with ``tracer``."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []               # (owner, attribute, original)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self.tracer

    def _install(self):
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, fn in public_functions(module).items():
                name = f"{short}.{attr}"
                wrappers[id(fn)] = (fn, self.tracer.wrap(name, fn,
                                                         HOOKS.get(name)))
        # every module attribute bound to a wrapped function, aliases too
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, val in list(vars(module).items()):
                entry = wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    self._replace(module, attr, entry[1])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"),
                          cls_name)
            self._replace(cls, meth, self.tracer.wrap(
                name, vars(cls)[meth], HOOKS.get(name)))

    def _replace(self, owner, attr, new):
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __exit__(self, *exc_info):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)
        return False


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 1.0


def layer_metrics(tr):
    """The named per-layer metrics as {name: (value, unit)}."""
    c = tr.counters
    m = {}

    def calls(span):
        m[f"{span}.calls"] = (tr.calls(span), "count")

    def incl(span):
        m[f"{span}.s"] = (tr.inclusive(span), "s")

    def self_s(span):
        m[f"{span}.self_s"] = (tr.self_time(span), "s")

    def ok_ratio(span):
        m[f"{span}.ok_ratio"] = (_ratio(c[f"{span}.ok"], tr.calls(span)),
                                 "ratio")

    def count(key, unit="count"):
        m[key] = (c[key], unit)

    calls("env.evaluate")
    count("env.evaluate.points")
    self_s("env.evaluate")
    for span in ("env.cell_values", "env.probe"):
        calls(span)
        self_s(span)
    for span in ("structure.detect_branches", "structure.normalize",
                 "structure.classify_oscillation"):
        incl(span)
    calls("structure.branch_inverse_grid")
    count("structure.branch_inverse_grid.points")
    self_s("structure.branch_inverse_grid")
    calls("cell_solver.estimate_hbar")
    incl("cell_solver.estimate_hbar")
    calls("cell_solver.solve_discounted")
    self_s("cell_solver.solve_discounted")
    ok_ratio("cell_solver.solve_discounted")
    for key in ("cell_solver.iterations", "cell_solver.nodes",
                "cell_solver.warm_retries"):
        count(key)
    self_s("cell_solver.default_grid_policy")
    incl("gluing.build_reduction_tree")
    count("gluing.tree_leaves")
    incl("gluing.evaluate_tree")
    calls("gluing.convex_oracle")
    self_s("gluing.convex_oracle")
    ok_ratio("gluing.convex_oracle")
    incl("large_osc.assemble_effective_curve")
    ok_ratio("large_osc.assemble_effective_curve")
    incl("large_osc.level_sets")
    calls("large_osc.admissible_decomposition")
    self_s("large_osc.admissible_decomposition")
    count("large_osc.admissible_decomposition.intervals")
    calls("large_osc.extremal_admissible")
    self_s("large_osc.extremal_admissible")
    incl("large_osc.extreme_level")
    calls("homog_pde.solve_oscillatory")
    incl("homog_pde.solve_oscillatory")
    incl("homog_pde.solve_homogenized")
    count("homog_pde.cell_updates", "count_computed")
    calls("curve.evaluate")
    self_s("curve.evaluate")
    incl("cli.resolve_config")
    incl("cli.write_csv")
    return m


def module_self_shares(tr, wall):
    """Share of ``wall`` spent in each module's own code (self time)."""
    shares = {short: 0.0 for short in MODULES}
    for name, (_, _, self_s) in tr.stats.items():
        shares[name.split(".", 1)[0]] += self_s / wall
    return shares
