import json
import os
import subprocess
import sys

import pytest

from hjhomog import cli, env
from hjhomog.errors import Diverged, NotApplicable


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


BASE_ENV = {"schema": "env/1", "kind": "periodic", "profile": "abs_plus_sin",
            "params": {"amplitude": 1.0}, "period": 1.0}
PWL_ENV = {"schema": "env/1", "kind": "periodic",
           "profile": "pwl_wells_plus_dip",
           "params": {"nodes": [0, 1, 2], "values": [0, 1, 0],
                      "cone_slope": 2.0, "amplitude": 0.1}, "period": 1.0}
BOARD_ENV = {"schema": "env/1", "kind": "checkerboard",
             "profile": "base_plus_v", "params": {"base": "abs"},
             "cell_length": 1.0, "value_range": [-1.0, 0.0]}
SIN_V_ENV = dict(BOARD_ENV, profile="base_plus_sin_plus_v")


def _cfg(task="effective", **over):
    cfg = {"schema": "run/1", "task": task, "env": BASE_ENV,
           "p_grid": [-1.0, 0.0, 1.0, 2.0],
           "lambda_schedule": [0.04, 0.02, 0.01],
           "solver": {"dx": 1 / 64}}
    cfg.update(over)
    return cfg


def test_run_effective_and_outputs(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", _cfg())
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    for name in ("curves.csv", "sweep.csv", "manifest.json", "report.json"):
        assert (out / name).exists()
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "p,lambda,seed,minus_lambda_v0,residual,grad_min,grad_max"


def test_reproducibility_bit_identical(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", _cfg())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
    # re-run from the manifest, not the original config
    assert cli.main(["run", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
    for name in ("curves.csv", "sweep.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_diff_identical_runs(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", _cfg())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", cfg_path, "--out", str(out1)])
    cli.main(["run", "--config", cfg_path, "--out", str(out2)])
    report = cli.diff_runs(str(out1), str(out2), 0.0)
    assert report["identical"] and report["max_diff"] == 0.0


def test_diff_task_mismatch(tmp_path):
    c1 = _write(tmp_path, "c1.json", _cfg())
    c2 = _write(tmp_path, "c2.json", _cfg(task="converge",
                                          epsilons=[0.4, 0.2]))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", c1, "--out", str(out1)])
    cli.main(["run", "--config", c2, "--out", str(out2)])
    with pytest.raises(cli.ConfigError):
        cli.diff_runs(str(out1), str(out2), 0.0)


def test_malformed_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(bad), "--out", str(out)]) == 2
    assert not (out / "curves.csv").exists()
    cfg_path = _write(tmp_path, "cfg2.json", {"schema": "run/1",
                                              "task": "bogus"})
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    # valid JSON, but not an object
    cfg_path = _write(tmp_path, "cfg3.json", [1, 2])
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("over", [
    {"task": "largeosc", "window_cells": 10},
    {"task": "largeosc", "window_cells": 0},
    {"task": "largeosc", "mu_points": 0},
    {"lambda_schedule": [0.01, 0.02, 0.04]},
    {"lambda_schedule": [0.04, 0.02]},
    {"task": "converge", "epsilons": [0.1, 0.2]},
    {"task": "converge", "epsilons": [0.2, -0.1]},
    {"task": "converge", "epsilons": []},
    {"task": "converge", "epsilons": [0.2, float("nan")]},
    {"p_grid": []},
    {"p_grid": {"start": -1.0, "stop": 1.0, "n": 0}},
    {"p_grid": [0.0, float("inf")]},
    {"seeds": []},
    {"seeds": {"master": 1, "count": 0}},
    {"task": "converge", "ivp": {"T": 0}},
    {"task": "converge", "ivp": {"T": -1.0}},
    {"task": "converge", "ivp": {"T": float("nan")}},
    {"solver": {"dx": 0}},
    {"solver": {"dx": -0.016}},
    {"solver": {"dx": float("inf")}},
    {"solver": {"dx": 1 / 64, "estimator": "centre"}},
    {"task": "converge", "ivp": {"X_core": -1}},
    {"task": "converge", "ivp": {"X_core": float("inf")}},
    {"env": dict(BASE_ENV, period=0)},
    {"env": dict(BASE_ENV, kind="lattice")},
    {"env": dict(BASE_ENV, profile="abs_plus_cos")},
    {"env": dict(BASE_ENV, schema="env/0")},
    {"env": {"schema": "env/1", "kind": "checkerboard",
             "profile": "no_such_template", "cell_length": 1.0,
             "value_range": [-1.0, 0.0]}},
    {"env": {"schema": "env/1", "kind": "checkerboard",
             "profile": "abs_plus_v", "cell_length": 0.0,
             "value_range": [-1.0, 0.0]}},
    {"task": "converge", "ivp": {"T": "0.5"}},
    {"solver": {"dx": 1 / 64, "R": 0}},
    {"solver": {"dx": 1 / 64, "R": -1}},
    {"solver": {"dx": 1 / 64, "R": "2"}},
    {"solver": {"dx": 1 / 64, "R": float("inf")}},
    {"solver": {"dx": "0.015625"}},
    {"task": "converge", "ivp": {"datum_height": "x"}},
    {"task": "validate", "tolerances": {"dual_route": "a"}},
    {"task": "validate", "tolerances": {"dual_route": -0.1}},
    # no theorem asks for level-set convexity: the key is gone
    {"task": "validate", "tolerances": {"level_set_convexity": 1e-7}},
    {"solver": {"dx": 1 / 64, "periodize_cells": 0}},
    {"solver": {"dx": 1 / 64, "periodize_cells": -5}},
    {"solver": {"dx": 1 / 64, "periodize_cells": 2.5}},
    {"solver": {"dx": 1 / 64, "periodize_cells": "all"}},
    {"solver": {"dx": 1 / 64, "periodize_cells": "auto"}},
    {"periodize_cells": 50},
    {"solver": {"dx": 1 / 64, "periodise_cells": 50}},
    {"task": "converge", "ivp": {"t": 0.5}},
    {"task": "validate", "tolerances": {"dual": 0.1}},
    {"seeds": {"master": 1, "cuont": 2}},
    {"p_grid": {"start": -1.0, "stop": 1.0, "num": 5}},
    {"task": "converge", "ivp": {"T": 10 ** 400}},
    {"task": "largeosc", "mu_points": "15"},
    {"task": "largeosc", "mu_points": 15.0},
    {"lambda_schedule": ["0.04", "0.02", "0.01"]},
    {"lambda_schedule": [0.04, 0.02, -0.01]},
    {"task": "largeosc", "window_cells": 20.9},
    {"seeds": {"master": 1, "count": 2.7}},
    {"seeds": {"master": "1", "count": 1}},
    {"seeds": [0, 1.5]},
    {"seeds": ["3"]},
    {"seeds": [True]},
    {"p_grid": {"start": -1.0, "stop": 1.0, "n": 3.9}},
    {"p_grid": {"start": "-1", "stop": 1.0, "n": 3}},
    {"p_grid": {"start": -1.0, "stop": float("nan"), "n": 3}},
    {"p_grid": [0.0, "1.0"]},
    {"task": "converge", "epsilons": [0.4, "0.2"]},
    {"env": dict(BASE_ENV, periods=2)},
    {"env": dict(BASE_ENV, cell_length=1.0)},
    {"env": dict(BASE_ENV, params={"amplitud": 0.3})},
    {"env": {"schema": "env/1", "kind": "checkerboard",
             "profile": "abs_plus_v", "params": {"base": "abs"},
             "cell_length": 1.0, "value_range": [-1.0, 0.0], "period": 1.0}},
    {"env": {"schema": "env/1", "kind": "checkerboard",
             "profile": "abs_plus_v", "params": {"base": "abs"},
             "cell_length": 1.0, "value_range": [-1.0, 0.0]}},
    {"solver": {"dx": 1 / 64, "periodize_cells": 50}},
    {"seeds": [3, 3]},
    # a cone slope <= 0 leaves H bounded in p
    {"env": dict(PWL_ENV, params=dict(PWL_ENV["params"], cone_slope=0))},
    {"env": dict(PWL_ENV, params=dict(PWL_ENV["params"], cone_slope=-1))},
    # env/1 numbers: finite, positive, not bools; a range of exactly two
    {"env": dict(BOARD_ENV, cell_length=float("inf"))},
    {"env": dict(BOARD_ENV, cell_length=True)},
    {"env": dict(BASE_ENV, period=float("inf"))},
    {"env": dict(BASE_ENV, period=True)},
    {"env": dict(BOARD_ENV, value_range=[-1.0])},
    {"env": dict(BOARD_ENV, value_range=[-1.0, 0.0, 5.0])},
    {"env": dict(BOARD_ENV, value_range=[-1.0, float("inf")])},
    {"env": dict(BOARD_ENV, value_range=[False, 0.0])},
    # the env and its params must be JSON objects
    {"env": 5},
    {"env": [1]},
    {"env": dict(BASE_ENV, params=[1])},
    # each profile param within its bound
    {"env": dict(SIN_V_ENV, params={"inner_period": 0})},
    {"env": dict(SIN_V_ENV, params={"inner_period": -1})},
    {"env": dict(BASE_ENV, params={"amplitude": True})},
    {"env": dict(PWL_ENV, params=dict(PWL_ENV["params"], cone_slope=True))},
    {"env": dict(PWL_ENV, params=dict(PWL_ENV["params"], nodes=[2, 0, 1]))},
    {"env": dict(PWL_ENV, params=dict(PWL_ENV["params"], values=[0, 1]))},
    {"env": dict(SIN_V_ENV, params={"base": "cubic"})},
    {"env": dict(SIN_V_ENV, params={"base": 3})},
    {"env": dict(PWL_ENV, params={"values": [0, 1, 0]})},
    # counts above cell_solver.MAX_NODES, rejected before any array or
    # seed list of that length is built
    {"p_grid": {"start": 0, "stop": 1, "n": 10 ** 12}},
    {"seeds": {"master": 1, "count": 10 ** 8}},
])
def test_out_of_range_config_exit_2(tmp_path, over):
    out = tmp_path / "out"
    assert cli.run(_cfg(**over), str(out)) == 2
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("env_d, named", [
    (dict(SIN_V_ENV, params={"inner_period": 0}), "'inner_period'"),
    (dict(SIN_V_ENV, params={"base": "cubic"}), "'base'"),
    (dict(PWL_ENV, params=dict(PWL_ENV["params"], nodes=[2, 0, 1])),
     "'nodes'"),
    (dict(PWL_ENV, params=dict(PWL_ENV["params"], values=[0, 1])),
     "'values'"),
    (dict(PWL_ENV, params={"values": [0, 1, 0]}), "'nodes'"),
], ids=["inner_period", "base", "nodes", "values", "missing"])
def test_param_error_names_profile_and_param(tmp_path, capsys, env_d,
                                             named):
    assert cli.run(_cfg(env=env_d), str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"'{env_d['profile']}'" in err and named in err


NO_PERIOD_ENV = {k: v for k, v in BASE_ENV.items() if k != "period"}


@pytest.mark.parametrize("over, key", [
    ({"solver": 5}, "solver"),
    ({"p_grid": 5}, "p_grid"),
    ({"seeds": 5}, "seeds"),
    ({"lambda_schedule": 5}, "lambda_schedule"),
    ({"epsilons": 5}, "epsilons"),
    ({"task": [1]}, "task"),
    ({"env": dict(BASE_ENV, kind=[1])}, "kind"),
    ({"env": NO_PERIOD_ENV}, "period"),
    ({"p_grid": {"start": -1.0, "n": 3}}, "p_grid.stop"),
    ({"p_grid": {"start": -1.0, "stop": 1.0, "n": -1}}, "p_grid.n"),
    ({"task": "converge", "ivp": {"T": 10 ** 400}}, "ivp.T"),
    ({"p_grid": {"start": 0, "stop": 1, "n": 10 ** 12}}, "p_grid.n"),
    ({"seeds": {"master": 1, "count": 10 ** 8}}, "seeds.count"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, over, key):
    out = tmp_path / "out"
    assert cli.run(_cfg(**over), str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert "Traceback" not in err and not out.exists()


def _rows(rows, path=()):
    """(path, default) of each row of ``rows``, a section's rows included."""
    for key, (default, check) in rows.items():
        if isinstance(check, dict):
            yield from _rows(check, path + (key,))
        else:
            yield path + (key,), default


RUN_ROWS = [*_rows(cli.RUN_KEYS), *_rows(cli.GRID_KEYS, ("p_grid",)),
            *_rows(cli.SEED_KEYS, ("seeds",))]
GUARD_CFG = {"schema": "run/1", "task": "effective", "env": BOARD_ENV}
# p_grid and seeds as objects, for the rows of GRID_KEYS and SEED_KEYS
GUARD_OBJECTS = {"p_grid": {"start": -1.0, "stop": 1.0, "n": 3},
                 "seeds": {}}
# a valid value other than the default (or the guard config's value) of
# each row; run/1 is the one schema
OTHER_RUN_VALUES = {
    ("task",): "glue", ("env",): BASE_ENV, ("p_grid",): [0.5],
    ("mu_points",): 7, ("lambda_schedule",): [0.5, 0.25, 0.125],
    ("epsilons",): [0.3], ("seeds",): [4], ("window_cells",): 11,
    ("solver", "dx"): 0.5, ("solver", "R"): 3.0,
    ("solver", "periodize_cells"): 4, ("ivp", "T"): 2.0,
    ("ivp", "X_core"): 0.0, ("ivp", "datum_height"): -1.0,
    ("tolerances", "dual_route"): 0.0, ("p_grid", "start"): 0.0,
    ("p_grid", "stop"): 2.0, ("p_grid", "n"): 5, ("seeds", "master"): 9,
    ("seeds", "count"): 3}


@pytest.mark.parametrize("path, default", RUN_ROWS,
                         ids=[".".join(path) for path, _ in RUN_ROWS])
def test_every_run_key_row_is_read(path, default):
    # a row whose key, default or value the reader drops leaves the
    # resolved config (what the manifest stores) as it is
    base = json.loads(json.dumps(GUARD_CFG))
    if len(path) == 2 and path[0] in GUARD_OBJECTS:
        base[path[0]] = dict(GUARD_OBJECTS[path[0]])
    parent = base
    for key in path[:-1]:
        parent = parent.setdefault(key, {})
    given = [parent.pop(path[-1])] if path[-1] in parent else []

    def resolved(*value):
        cfg = json.loads(json.dumps(base))
        section = cfg
        for key in path[:-1]:
            section = section[key]
        section.update({path[-1]: v for v in value})
        return json.loads(json.dumps(cli.resolve_config(cfg, None)))

    if given:   # a required key: leaving it out names it
        with pytest.raises((cli.ConfigError, cli.ProfileError),
                           match=path[-1]):
            resolved()
    else:
        assert resolved() == resolved(default)
        if path[0] not in GUARD_OBJECTS or len(path) == 1:
            echo = resolved()
            for key in path:
                echo = echo[key]
            assert echo == (json.loads(json.dumps(default))
                            if path != ("p_grid",) else
                            [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
    if path != ("schema",):
        assert resolved(OTHER_RUN_VALUES[path]) != resolved(*given)


def test_xfree_effective_exact(tmp_path):
    envd = {"schema": "env/1", "kind": "periodic", "profile": "xfree",
            "params": {"base": "quadratic"}, "period": 1.0}
    cfg_path = _write(tmp_path, "cfg.json", _cfg(env=envd))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    rows = (out / "curves.csv").read_text().splitlines()[1:]
    for row in rows:
        p, hbar = float(row.split(",")[0]), float(row.split(",")[1])
        assert abs(hbar - p * p) < 1e-10


def test_seed_flag_overrides_master(tmp_path):
    cfg = _cfg(env=BOARD_ENV, p_grid=[2.0], seeds={"master": 1, "count": 1},
               lambda_schedule=[0.08, 0.04, 0.02])
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    cli.main(["run", "--config", cfg_path, "--out", str(out1)])
    cli.main(["run", "--config", cfg_path, "--out", str(out2), "--seed", "99"])
    cli.main(["run", "--config", cfg_path, "--out", str(out3), "--seed", "1"])
    a = (out1 / "curves.csv").read_bytes()
    b = (out2 / "curves.csv").read_bytes()
    c = (out3 / "curves.csv").read_bytes()
    assert a != b
    assert a == c


def test_largeosc_without_positive_maxima_exit_1(tmp_path):
    # abs_plus_sin has no positive-side hill: a typed failure, no traceback
    assert cli.run(_cfg(task="largeosc"), str(tmp_path)) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "failed"
    assert "no positive maxima" in report["error"]


DIP_ENV = {"schema": "env/1", "kind": "periodic",
           "profile": "pwl_wells_plus_dip",
           "params": {"nodes": [0, 1, 2], "values": [0, 1, 0],
                      "cone_slope": 2, "amplitude": 0.5},
           "period": 1.0}


@pytest.mark.parametrize("task", ["largeosc", "glue"])
def test_hill_touching_level_is_one_junction(tmp_path, task):
    # the normalized hill process touches level 0 at x = k + 0.75, where
    # rounding leaves one sample 3e-14 below the level: that is one touch,
    # not two crossings closer than sep_min (ClusterSuspected)
    cfg = _cfg(task=task, env=DIP_ENV, p_grid=[-1.0, 0.0, 1.0],
               window_cells=20)
    assert cli.run(cfg, str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "ok"


def _quartic_board(v_lo):
    return {"schema": "env/1", "kind": "checkerboard",
            "profile": "quartic_plus_v", "params": {}, "cell_length": 1.0,
            "value_range": [v_lo, 0.0]}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("task", ["largeosc", "glue"])
def test_large_oscillation_checkerboard_completes(tmp_path, task, seed):
    # the processes are constant inside each cell: a constant run of
    # samples near a level is no tangential touch (read as one, every
    # plateau made junctions closer than sep_min: ClusterSuspected)
    cfg = _cfg(task=task, env=_quartic_board(-2.0), p_grid=[-1.5, 0.0, 1.5],
               seeds=[seed], window_cells=50)
    assert cli.run(cfg, str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "ok"


def test_largeosc_on_small_oscillation_is_not_applicable(tmp_path):
    # M_lo > m_hi: the route does not apply, which it says before it
    # builds a level (it failed with LevelSetConflict)
    cfg = _cfg(task="largeosc", env=_quartic_board(-0.5),
               p_grid=[-1.5, 0.0, 1.5], seeds=[0], window_cells=50)
    assert cli.run(cfg, str(tmp_path)) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["error"].startswith("small oscillation (M_lo=")
    resolved = cli.resolve_config(cfg, None)
    with pytest.raises(NotApplicable, match="small oscillation"):
        cli.ROUTES["largeosc"](resolved, cli._realize(resolved))


TIED_ENV = {"schema": "env/1", "kind": "periodic",
            "profile": "pwl_wells_plus_dip",
            "params": {"nodes": [0, 0.5, 1, 1.5, 2],
                       "values": [0, 1.3, 0.2, 0.8, 0.5],
                       "cone_slope": 3, "amplitude": 0.55},
            "period": 1.0}


def test_glue_tilts_a_tied_field(tmp_path):
    # M_lo - m_hi rounds to -2.8e-14 here: a tie, not large oscillation
    cfg = _cfg(task="glue", env=TIED_ENV, p_grid=[0.5, 1.0, 2.0],
               window_cells=20)
    assert cli.run(cfg, str(tmp_path)) == 0
    tree = json.loads((tmp_path / "tree.json").read_text())
    assert tree["kind"] == "tilt"


def test_validate_task(tmp_path):
    # every route but the solver has a check: the oracle and glue agree
    # with the sweep, and largeosc, with no positive-side hill, is skipped
    cfg_path = _write(tmp_path, "cfg.json", _cfg(task="validate"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    checks = report["checks"]
    assert sorted(checks) == ["glue", "largeosc", "oracle"]
    assert checks["oracle"]["passed"] and checks["glue"]["passed"]
    # glue passes because its quasi-convex leaf fell back to the solver:
    # the check says so, and so does its leaf
    assert checks["glue"]["solver_leaves"] >= 1
    assert checks["largeosc"]["skipped"]
    assert "no positive maxima" in checks["largeosc"]["reason"]
    assert "failed_routes" not in report


def _curve_blocks(path):
    """route -> {p: (Hbar, error_budget)} of a curves.csv."""
    lines = path.read_text().splitlines()
    assert lines[0] == "p,Hbar,error_budget,route"
    blocks = {}
    for line in lines[1:]:
        p, v, b, route = line.split(",")
        blocks.setdefault(route, {})[float(p)] = (float(v), float(b))
    return blocks


def test_validate_reports_numbers_of_one_p(tmp_path):
    # max_diff and allowed come from the p with the largest diff/allowed:
    # the solver's and the route's rows of curves.csv at worst_p
    cfg_path = _write(tmp_path, "cfg.json", _cfg(task="validate"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    checks = json.loads((out / "report.json").read_text())["checks"]
    blocks = _curve_blocks(out / "curves.csv")
    assert list(blocks) == ["solver", "oracle", "glue"]
    for route in ("oracle", "glue"):
        check, rows = checks[route], blocks[route]
        assert sorted(rows) == sorted(blocks["solver"]) == [-1, 0, 1, 2]

        def diff_allowed(p):
            (sv, sb), (rv, rb) = blocks["solver"][p], rows[p]
            return abs(sv - rv), sb + rb + 0.1

        assert (check["max_diff"], check["allowed"]) == \
            diff_allowed(check["worst_p"])
        assert check["ratio"] == max(d / a for d, a in map(diff_allowed, rows))


def test_converge_task(tmp_path):
    cfg = _cfg(task="converge", epsilons=[0.4, 0.2],
               ivp={"T": 0.5, "X_core": 0.5})
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "epsilon,seed,err_sup_core,dx,dt"
    assert len(lines) == 3


def test_glue_task(tmp_path):
    envd = {"schema": "env/1", "kind": "periodic",
            "profile": "quartic_plus_sin", "params": {"amplitude": 0.1},
            "period": 1.0}
    cfg = _cfg(task="glue", env=envd, p_grid=[-0.5, 0.0, 0.5, 1.0, 1.5],
               solver={"dx": 1 / 256})
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    tree = json.loads((out / "tree.json").read_text())
    assert tree["kind"] in ("steep_left", "steep_right", "split", "leaf")


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the package needs no root finder from scipy, and importing
    # scipy.optimize adds start-up time and memory to every run
    code = ("import sys, hjhomog.cli; "
            "sys.exit('scipy.optimize' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_leaves_scipy_unloaded():
    # the discounted solver loads scipy's LAPACK extension module at its
    # first solve; importing the package loads no scipy module
    code = ("import sys, hjhomog.cli; "
            "sys.exit(sorted(m for m in sys.modules if m.startswith('scipy')) "
            "or None)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_RUN_TASK = """
import json, sys, tempfile
from hjhomog import cli
with tempfile.TemporaryDirectory() as out:
    code = cli.run(json.loads(sys.argv[1]), out)
print(code, *sorted(m for m in sys.modules if m.startswith("scipy")))
"""

QUARTIC_ENV = {"schema": "env/1", "kind": "periodic",
               "profile": "quartic_plus_sin", "params": {"amplitude": 0.1},
               "period": 1.0}
WELLS_ENV = {"schema": "env/1", "kind": "periodic",
             "profile": "pwl_wells_plus_dip",
             "params": {"nodes": [0, 0.5, 1, 1.5, 2],
                        "values": [0, 0.8, 0.2, 1.3, 0.5],
                        "cone_slope": 2.5, "amplitude": 0.1},
             "period": 1.0}
LAPACK_ONLY = {"scipy.linalg._flapack"}


@pytest.mark.parametrize("over, allowed", [
    ({}, LAPACK_ONLY),
    # the oracle and large-oscillation routes fail: the solver sweep runs
    ({"task": "converge", "env": QUARTIC_ENV, "epsilons": [0.4],
      "ivp": {"T": 0.25, "X_core": 0.25}}, LAPACK_ONLY),
    # four quasi-convex leaves: no discounted solve
    ({"task": "glue", "env": WELLS_ENV}, set()),
    ({"task": "largeosc", "mu_points": 3, "window_cells": 20,
      "env": dict(QUARTIC_ENV, params={"amplitude": 2.0})}, set()),
], ids=["effective", "converge", "glue", "largeosc"])
def test_task_scipy_footprint(over, allowed):
    # the solving tasks load at most scipy's LAPACK extension module (the
    # scipy.linalg package costs about 28 MB); the others load no scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_TASK, json.dumps(_cfg(**over))],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert set(loaded) <= allowed, loaded


BOARD_SEEDS = {"env": BOARD_ENV, "seeds": [3, 5],
               "solver": {"dx": 1 / 64, "periodize_cells": 50}}


@pytest.mark.parametrize("over", [
    {"task": "converge", "epsilons": [0.4, 0.2],
     "ivp": {"T": 0.5, "X_core": 0.5}},
    {"task": "validate"},
    dict(BOARD_SEEDS, task="effective"),
    dict(BOARD_SEEDS, task="validate"),
])
def test_task_parses_and_samples_its_env_once(monkeypatch, tmp_path, over):
    # every route of the task reads the realizations cli._realize makes:
    # one per seed of a checkerboard env, the one field of a periodic env;
    # the solver sweep periodizes each of them once
    parsed, sampled, periodized = [], [], []
    from_dict, sample = cli.EnvironmentSpec.from_dict, env.sample
    periodize = env.CheckerboardField.periodized

    def counted_parse(d):
        parsed.append(d)
        return from_dict(d)

    def counted_sample(spec, seed=0):
        sampled.append(seed)
        return sample(spec, seed)

    def counted_periodize(field, n_cells):
        periodized.append(field.seed)
        return periodize(field, n_cells)

    monkeypatch.setattr(cli.EnvironmentSpec, "from_dict",
                        staticmethod(counted_parse))
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hjhomog" \
                and getattr(module, "sample", None) is sample:
            monkeypatch.setattr(module, "sample", counted_sample)
    monkeypatch.setattr(env.CheckerboardField, "periodized",
                        counted_periodize)
    assert cli.run(_cfg(**over), str(tmp_path)) == 0
    # resolve_config's validation, then the task's own parse
    assert len(parsed) == 2
    if over.get("env") is BOARD_ENV:
        assert sampled == periodized == [3, 5]
    else:
        assert sampled == [0] and periodized == []


def test_periodic_converge_marches_each_eps_once(monkeypatch, tmp_path):
    # every seed realizes the one periodic field: one march and one row
    # per eps, however many seeds the config names
    marched = []
    solve = cli.hp.solve_oscillatory

    def counted(field, eps, setup):
        marched.append(eps)
        return solve(field, eps, setup)

    monkeypatch.setattr(cli.hp, "solve_oscillatory", counted)
    cfg = _cfg(task="converge", epsilons=[0.4, 0.2], seeds=[0, 1],
               ivp={"T": 0.5, "X_core": 0.5})
    assert cli.run(cfg, str(tmp_path)) == 0
    assert marched == [0.4, 0.2]
    lines = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    assert [(float(r[0]), r[1]) for r in rows] == [(0.4, "0"), (0.2, "0")]
    report = json.loads((tmp_path / "report.json").read_text())
    assert list(report["monotone"]) == ["0"]


def test_validate_sweeps_once_and_glue_misreads_a_narrow_grid(monkeypatch,
                                                             tmp_path):
    # small oscillation: the oracle needs quasi-convexity and the
    # large-oscillation route does not apply, but glue does.  The solver
    # sweep runs once per p, on the task's own fields.  Glue's quasi-convex
    # leaf finds its p-range too narrow for the oracle (OracleFellBack) and
    # reads Hbar(2) = 2.89 where the sweep reads 9.00: the curve depends on
    # the caller's p grid
    envd = {"schema": "env/1", "kind": "periodic",
            "profile": "quartic_plus_sin", "params": {"amplitude": 0.1},
            "period": 1.0}
    realized, calls = [], []
    estimate, realize = cli.cs.estimate_hbar, cli._realize

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return estimate(*args, **kwargs)

    def recorded(cfg):
        realized.append(realize(cfg))
        return realized[-1]

    monkeypatch.setattr(cli.cs, "estimate_hbar", counted)
    monkeypatch.setattr(cli, "_realize", recorded)
    cfg = _cfg(task="validate", env=envd, p_grid=[1.0, 1.5, 2.0])
    assert cli.run(cfg, str(tmp_path)) == 1
    assert len(realized) == 1
    assert [p for fields, p in calls if fields is realized[0]] == \
        [1.0, 1.5, 2.0]
    report = json.loads((tmp_path / "report.json").read_text())
    checks = report["checks"]
    assert checks["oracle"]["skipped"] and checks["largeosc"]["skipped"]
    assert not checks["glue"]["passed"]
    assert checks["glue"]["worst_p"] == 2.0
    assert checks["glue"]["solver_leaves"] >= 1
    assert any(w.startswith("OracleFellBack") for w in report["warnings"])


def test_validate_check_names_the_seeds_its_route_read(tmp_path):
    # the oracle averages every seed; largeosc and glue read the first
    assert cli.run(_cfg(**dict(BOARD_SEEDS, task="validate")),
                   str(tmp_path)) == 0
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert {route: c["seeds_read"] for route, c in checks.items()} == \
        {"oracle": [3, 5], "largeosc": [3], "glue": [3]}


# the benchmark's three fixed configs, as validate runs
BENCH_VALIDATE = {
    "glue_steep": {"env": WELLS_ENV,
                   "p_grid": {"start": -0.5, "stop": 2.5, "n": 21},
                   "solver": {"dx": 0.001953125}},
    "converge_quartic_small": {"env": QUARTIC_ENV,
                               "p_grid": {"start": -1.8, "stop": 1.8,
                                          "n": 25},
                               "solver": {"dx": 0.001953125}},
    "largeosc_quartic": {"env": dict(QUARTIC_ENV,
                                     params={"amplitude": 2.0}),
                         "p_grid": {"start": -2.2, "stop": 3.4, "n": 11},
                         "mu_points": 15, "window_cells": 50},
}


@pytest.mark.parametrize("name", list(BENCH_VALIDATE))
def test_validate_on_benchmark_configs(tmp_path, name):
    # glue agrees with the sweep on the two small-oscillation configs.
    # On largeosc_quartic the sweep's flat piece is off (the LF flux), so
    # largeosc disagrees with it at p = 0.6
    cfg = dict(BENCH_VALIDATE[name], schema="run/1", task="validate")
    code = cli.run(cfg, str(tmp_path))
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    if name == "largeosc_quartic":
        assert code == 1
        assert not checks["largeosc"]["passed"]
        assert checks["largeosc"]["worst_p"] == pytest.approx(0.6)
    else:
        assert code == 0
        assert checks["glue"]["passed"] and "max_diff" in checks["glue"]


@pytest.mark.parametrize("env_over, tried", [
    ({}, ["oracle"]),
    ({"env": QUARTIC_ENV}, ["oracle", "largeosc", "solver"]),
], ids=["oracle", "solver"])
def test_converge_takes_the_first_route_that_applies(monkeypatch, tmp_path,
                                                     env_over, tried):
    # the stated order, and never glue
    calls = []
    for route, build in list(cli.ROUTES.items()):
        def recorded(cfg, fields, route=route, build=build):
            calls.append(route)
            return build(cfg, fields)
        monkeypatch.setitem(cli.ROUTES, route, recorded)
    cfg = _cfg(task="converge", epsilons=[0.4],
               ivp={"T": 0.25, "X_core": 0.25}, **env_over)
    assert cli.run(cfg, str(tmp_path)) == 0
    assert calls == tried
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["curve_route"] == tried[-1]
    assert [f["route"] for f in report["failed_routes"]] == tried[:-1]


def test_converge_fails_on_an_error_of_its_last_route(monkeypatch, tmp_path):
    def broken(cfg, fields):
        raise Diverged("solver broke", [])

    monkeypatch.setitem(cli.ROUTES, "solver", broken)
    cfg = _cfg(task="converge", env=QUARTIC_ENV, epsilons=[0.4],
               ivp={"T": 0.25, "X_core": 0.25})
    assert cli.run(cfg, str(tmp_path)) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report == {"status": "failed", "error": "solver broke",
                      "warnings": []}
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize("over, grid", [
    ({"env": dict(BASE_ENV, period=1e300)}, "the torus"),
    ({"env": BOARD_ENV, "lambda_schedule": [1e-300, 1e-301, 1e-302]},
     "the window"),
    ({"task": "converge", "epsilons": [0.4], "ivp": {"X_core": 1e300}},
     "the march"),
    ({"task": "converge", "epsilons": [0.4], "ivp": {"T": 1e300}},
     "the march"),
], ids=["period", "lambda", "X_core", "T"])
def test_grid_too_large_is_a_typed_failure(tmp_path, over, grid):
    # each grid would need some 1e302 nodes: the run fails before any
    # array of them exists, with the bound in its error
    assert cli.run(_cfg(**over), str(tmp_path)) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["error"].startswith(f"{grid} needs ")
    assert "cell_solver.MAX_NODES" in report["error"]


# a value for every param a registry profile declares
SWEEP_PARAMS = {"amplitude": 0.5, "base": "quadratic", "nodes": [0, 1, 2],
                "values": [0.0, 1.0, 0.0], "cone_slope": 2.0,
                "inner_period": 0.5}


def _sweep_env(kind, name):
    d = {"schema": "env/1", "kind": kind, "profile": name,
         "params": {k: SWEEP_PARAMS[k] for k in env.PROFILES[kind][name][0]}}
    if kind == "periodic":
        return dict(d, period=1.0)
    return dict(d, cell_length=1.0, value_range=[-1.0, 0.0])


@pytest.mark.parametrize("kind,name", [
    (kind, name) for kind, rows in env.PROFILES.items() for name in rows])
def test_every_profile_through_every_task_without_traceback(tmp_path, kind,
                                                            name):
    # a run either succeeds or fails with a typed, reported reason: a
    # failed task names its error, a failed validate its failed check
    for task in ("effective", "glue", "largeosc", "converge", "validate"):
        cfg = _cfg(task=task, env=_sweep_env(kind, name),
                   p_grid={"start": -1, "stop": 1, "n": 3}, mu_points=5,
                   window_cells=20, epsilons=[0.4], solver={"dx": 1 / 32})
        if kind == "checkerboard":
            cfg["solver"]["periodize_cells"] = 8
            cfg["seeds"] = {"master": 1, "count": 2}
        out = tmp_path / task
        code = cli.run(cfg, str(out))
        assert code in (0, 1), task
        if code == 1:
            report = json.loads((out / "report.json").read_text())
            failed_checks = [c for c in report.get("checks", {}).values()
                             if not (c.get("skipped") or c["passed"])]
            assert report.get("error") or (task == "validate"
                                           and failed_checks), task
