"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Checks that
* every object the instrumentation replaces is restored afterwards;
* self and inclusive times are right on synthetic nested and recursive
  calls (driven by a fake clock, so the check is exact);
* a traced run writes byte-identical artifacts to an untraced run;
* a perturbed reference CSV turns a run into a failed operation, and so
  does one that differs only in its bytes;
* a run at a seed with no reference is checked without a ``max_dev``.
"""

from __future__ import annotations

import os
import shutil
import sys

import run as bench
from spans import METHODS, Instrumentation, Tracer

TINY = {
    "schema": "run/1",
    "task": "effective",
    "env": {"schema": "env/1", "kind": "periodic",
            "profile": "quartic_plus_sin", "params": {"amplitude": 0.5},
            "period": 1.0},
    "p_grid": [-1.0, 0.0, 1.5],
    "lambda_schedule": [0.04, 0.02, 0.01],
    "solver": {"dx": 0.015625},
}
TINY_SPEC = {"seeded": False, "artifacts": ("curves.csv", "sweep.csv"),
             "entry": "cell_solver.solve_discounted"}


def _namespaces():
    import importlib
    owners = [m for n, m in sorted(sys.modules.items())
              if n == "hjhomog" or n.startswith("hjhomog.")]
    owners += [getattr(importlib.import_module(f"hjhomog.{mod}"), cls)
               for mod, cls, _, _ in METHODS]
    return owners


def check_restored():
    before = [(owner, dict(vars(owner))) for owner in _namespaces()]
    with Instrumentation(Tracer()):
        wrapped = sum(hasattr(v, "__wrapped_span__")
                      for owner, _ in before for v in vars(owner).values())
    assert wrapped > 50, f"only {wrapped} functions were wrapped"
    for owner, saved in before:
        now = vars(owner)
        changed = [k for k in saved if now.get(k) is not saved[k]]
        assert not changed, f"{owner} not restored: {changed}"
    from hjhomog import cli, env, structure, large_osc
    assert large_osc.branch_inverse_grid is structure.branch_inverse_grid
    assert cli.sample is env.sample
    assert env.HamiltonianField.__call__ is env.HamiltonianField.evaluate
    return wrapped


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def check_self_time():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def inner():
        clock.t += 2.0

    def outer():
        clock.t += 1.0
        inner_w()
        clock.t += 3.0
        inner_w()

    def rec(n):
        clock.t += 1.0
        if n:
            rec_w(n - 1)

    inner_w, outer_w = tr.wrap("inner", inner), tr.wrap("outer", outer)
    rec_w = tr.wrap("rec", rec)
    outer_w()
    rec_w(2)
    assert tr.stats["outer"] == [1, 8.0, 4.0], tr.stats["outer"]
    assert tr.stats["inner"] == [2, 4.0, 4.0], tr.stats["inner"]
    # recursion: three calls, inclusive time counted once, self per frame
    assert tr.stats["rec"] == [3, 3.0, 3.0], tr.stats["rec"]


def check_traced_identical(cli, scratch):
    plain, traced = os.path.join(scratch, "plain"), os.path.join(scratch, "traced")
    assert cli.run(TINY, plain) == 0
    tr = Tracer()
    with Instrumentation(tr):
        assert cli.run(TINY, traced) == 0
    assert tr.calls("cell_solver.solve_discounted") > 0
    assert bench._same_csv_bytes(plain, traced), "traced artifacts differ"


def check_perturbed_reference(cli, scratch):
    bench.WORKLOADS["selftest_tiny"] = TINY_SPEC
    try:
        refs = os.path.join(scratch, "reference")
        ref = os.path.join(refs, "selftest_tiny", "fixed")
        os.makedirs(ref)
        out = os.path.join(scratch, "out")
        for name in TINY_SPEC["artifacts"]:
            shutil.copyfile(os.path.join(scratch, "plain", name),
                            os.path.join(ref, name))
        good = bench.run_once(cli, "selftest_tiny", TINY, None, out, refs)
        assert good["ok"] and good["identical"] and good["max_dev"] == 0.0
        path = os.path.join(ref, "curves.csv")
        with open(path) as fh:
            original = fh.read()

        def perturb(edit):
            lines = original.splitlines()
            cells = lines[1].split(",")
            cells[1] = edit(cells[1])
            lines[1] = ",".join(cells)
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")

        print("expect two check failures below:", file=sys.stderr)
        perturb(lambda cell: repr(float(cell) + 1e-6))
        bad = bench.run_once(cli, "selftest_tiny", TINY, None, out, refs)
        assert not bad["ok"], bad
        assert 0.5e-6 < bad["max_dev"] < 2e-6, bad["max_dev"]
        perturb(lambda cell: cell + "0" if "." in cell else cell + ".0")
        recoded = bench.run_once(cli, "selftest_tiny", TINY, None, out, refs)
        assert not recoded["ok"] and recoded["max_dev"] == 0.0, recoded
        failed = sum(not r["ok"] for r in (good, bad, recoded))
        assert failed == 2
        shutil.move(ref, os.path.join(refs, "selftest_tiny", "other"))
        unref = bench.run_once(cli, "selftest_tiny", TINY, None, out, refs)
        assert unref["ok"] and not unref["referenced"], unref
        assert unref["max_dev"] is None, unref
    finally:
        del bench.WORKLOADS["selftest_tiny"]


def main():
    cli = bench.load_cli()
    scratch = os.path.join(bench.OUT_ROOT, f"selftest-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        wrapped = check_restored()
        print(f"ok  restore: {wrapped} wrapped objects restored")
        check_self_time()
        print("ok  self time on nested and recursive spans")
        check_traced_identical(cli, scratch)
        print("ok  traced artifacts byte-identical to untraced")
        check_perturbed_reference(cli, scratch)
        print("ok  perturbed or re-encoded reference counted as a failed "
              "operation; no max_dev without a reference")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
