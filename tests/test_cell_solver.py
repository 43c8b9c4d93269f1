import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs
from scipy.linalg import LinAlgError, get_lapack_funcs, solve_banded

from hjhomog import cli, env, cell_solver as cs
from hjhomog.errors import Diverged, WarmStartRetried

import proof_checks as pc


@pytest.fixture
def abs_sin():
    return env.sample(env.make_periodic("abs_plus_sin", 1.0))


@pytest.fixture
def xfree_sq():
    return env.sample(env.make_periodic("xfree", 1.0, {"base": "quadratic"}))


@pytest.fixture
def board_spec():
    return env.make_separable("abs", (-1.0, 0.0), 1.0)


def test_xfree_lambda_consistency(xfree_sq):
    # constant solution: -lam v(0) = H(p) to machine precision for every lam
    for lam in (0.04, 0.01, 10.0):
        grid = cs.default_grid_policy(xfree_sq, 1.0, lam, R=2.0, dx=None)
        sol = cs.solve_discounted(xfree_sq, 1.0, lam, grid)
        assert sol.minus_lambda_v0 == pytest.approx(1.0, abs=1e-12)
        assert abs(sol.grad_range[0]) < 1e-10 and abs(sol.grad_range[1]) < 1e-10


def test_abs_sin_single_solve(abs_sin):
    grid = cs.default_grid_policy(abs_sin, 0.0, 0.01, R=2.0, dx=1 / 128)
    sol = cs.solve_discounted(abs_sin, 0.0, 0.01, grid)
    assert sol.minus_lambda_v0 == pytest.approx(1.0, abs=0.05)


def test_uniform_bound(abs_sin):
    # comparison with constants: sup |lam v| <= sup |H(p, .)|
    for p, lam in [(0.0, 0.01), (2.0, 0.04), (0.5, 10.0)]:
        grid = cs.default_grid_policy(abs_sin, p, lam, R=2.0, dx=None)
        sol = cs.solve_discounted(abs_sin, p, lam, grid)
        bound = abs_sin.sup_abs_on(p)
        assert np.max(np.abs(lam * sol.v)) <= bound + 1e-9


def _solves(monkeypatch):
    """Record (lam, grid, warm) of every solve_discounted call, nested
    coarse levels included; warm is whether the call got a w0."""
    calls = []
    solve = cs.solve_discounted

    def recorded(field, p, lam, grid, w0=None, **kwargs):
        calls.append((lam, grid, w0 is not None))
        return solve(field, p, lam, grid, w0=w0, **kwargs)

    monkeypatch.setattr(cs, "solve_discounted", recorded)
    return calls


@pytest.mark.parametrize("case", ["torus", "window"])
def test_cfl_holds_by_construction(abs_sin, board_spec, monkeypatch, case):
    # every grid an estimate solves on: each lam, the nested coarse levels
    # and the dx/2 grid
    f, dx = ((abs_sin, 1 / 256) if case == "torus"
             else (env.sample(board_spec, 3), 1 / 32))
    calls = _solves(monkeypatch)
    cs.estimate_hbar(f, 0.5, lam_schedule=(0.04, 0.02, 0.01), dx=dx)
    assert {lam for lam, _, _ in calls} == {0.04, 0.02, 0.01}
    assert {grid.dx for _, grid, _ in calls} >= {dx / 2, dx, 2 * dx}
    assert {grid.periodic for _, grid, _ in calls} == {case == "torus"}
    for lam, grid, _ in calls:
        assert grid.dt(lam) * (grid.theta / grid.dx + lam) <= 1.0


@pytest.mark.parametrize("case", ["periodic", "periodized", "window"])
def test_warm_start_rule(abs_sin, board_spec, monkeypatch, case):
    # only a deterministic torus keeps its grid from one lam to the next:
    # every lam after the first is warm-started there, and none elsewhere
    if case == "periodic":
        fields = abs_sin
    else:
        fields = {s: env.sample(board_spec, s) for s in (1, 2)}
        if case == "periodized":
            fields = {s: f.periodized(50) for s, f in fields.items()}
    dx = 1 / 64
    calls = _solves(monkeypatch)
    cs.estimate_hbar(fields, 0.5, lam_schedule=(0.04, 0.02, 0.01), dx=dx)
    # the solves at dx, one per (seed, lam)
    expect = [False, True, True] if case == "periodic" else [False] * 6
    assert [warm for _, grid, warm in calls if grid.dx == dx] == expect


def test_one_grid_policy_call_per_seed_and_lam(board_spec, monkeypatch):
    # the dx/2 grid is the first seed's lam_min grid with dx halved, not
    # one more policy call
    lams = []
    policy = cs.default_grid_policy

    def counted(field, p, lam, R, dx):
        lams.append(lam)
        return policy(field, p, lam, R=R, dx=dx)

    monkeypatch.setattr(cs, "default_grid_policy", counted)
    cs.estimate_hbar({s: env.sample(board_spec, s) for s in (1, 2)}, 0.5,
                     lam_schedule=(0.04, 0.02, 0.01), dx=1 / 32)
    assert lams == [0.04, 0.02, 0.01] * 2


def test_bad_lambda_and_schedule(abs_sin):
    grid = cs.default_grid_policy(abs_sin, 0.0, 0.01, R=2.0, dx=None)
    with pytest.raises(ValueError):
        cs.solve_discounted(abs_sin, 0.0, -1.0, grid)
    with pytest.raises(ValueError):
        cs.estimate_hbar(abs_sin, 0.0, lam_schedule=(0.01, 0.02, 0.04),
                         dx=None)
    with pytest.raises(ValueError):
        cs.estimate_hbar(abs_sin, 0.0, lam_schedule=(0.02, 0.01), dx=None)


def test_estimate_hbar_convex_oracle(abs_sin):
    for p, expect in [(2.0, 2.0), (0.5, 1.0), (-1.0, 1.0)]:
        est = cs.estimate_hbar(abs_sin, p, dx=1 / 128)
        assert est.value == pytest.approx(expect, abs=0.05)
        assert est.dispersion < 0.05


def test_estimate_rows_schema(abs_sin):
    est = cs.estimate_hbar(abs_sin, 1.0, dx=1 / 128)
    assert len(est.rows) == len(cs.LAMBDA_SCHEDULE)
    p, lam, seed, val, res, gmin, gmax = est.rows[0]
    assert p == 1.0 and lam == cs.LAMBDA_SCHEDULE[0]
    assert res <= 1e-6 and gmin <= gmax


def test_monotone_update_randomized(abs_sin):
    rng = np.random.default_rng(5)
    grid = cs.default_grid_policy(abs_sin, 0.3, 0.02, R=2.0, dx=1 / 64)
    sol = cs.solve_discounted(abs_sin, 0.3, 0.02, grid)
    w = sol.w_full + 0.1 * rng.standard_normal(len(sol.w_full))
    out = pc.monotone_update_check(abs_sin, 0.3, 0.02, grid, w, rng, n_points=100)
    assert out.status == "passed"


def test_comparison_gap_identical(board_spec):
    f = env.sample(board_spec, 3)
    lam = 0.02
    grid = cs.default_grid_policy(f, 1.5, lam, R=2.0, dx=1 / 64)
    sol = cs.solve_discounted(f, 1.5, lam, grid)
    out = pc.comparison_gap(sol, sol, field=f)
    assert out.status == "passed" and out.detail["gap"] == 0.0


def test_comparison_gap_two_pads(board_spec):
    f = env.sample(board_spec, 3)
    lam = 0.02
    g1 = cs.default_grid_policy(f, 1.5, lam, R=2.0, dx=1 / 64)
    g2 = replace(g1, pad=40 * g1.dx)
    s1 = cs.solve_discounted(f, 1.5, lam, g1)
    s2 = cs.solve_discounted(f, 1.5, lam, g2)
    out = pc.comparison_gap(s1, s2, field=f)
    assert out.status == "passed"


def test_window_doubling_scaling(board_spec):
    # Doubling R at fixed lam tightens the central value per the 1/R bound.
    f = env.sample(board_spec, 3)
    lam = 0.02
    vals = {}
    for R in (2.0, 4.0, 8.0):
        grid = cs.default_grid_policy(f, -2.0, lam, R=R, dx=1 / 64)
        vals[R] = cs.solve_discounted(f, -2.0, lam, grid).minus_lambda_v0
    d1 = abs(vals[2.0] - vals[4.0])
    d2 = abs(vals[4.0] - vals[8.0])
    M = f.sup_abs_on(-2.0)
    C = pc.calibrate_comparison_constant(f, -2.0)
    assert d1 <= (M * C + M * np.sqrt(2.0)) / 2.0
    # empirical 1/R decay, generous factor
    assert d2 <= d1 / 2.0 * 1.5 + 1e-3


def test_gradient_control_quartic():
    # Hbar >= 2 everywhere for this field, so case (1) needs
    # essinf H(P, .) = (P^2-1)^2 - 2 > 2, i.e. P > 1.861
    f = env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 2.0}))
    p0, P = 0.2, 2.2
    est = cs.estimate_hbar(f, p0, dx=1 / 512)
    lam = cs.LAMBDA_SCHEDULE[-1]
    grid = cs.default_grid_policy(f, p0, lam, R=2.0, dx=1 / 512)
    sol = cs.solve_discounted(f, p0, lam, grid)
    out = pc.gradient_control_check(f, sol, p0, P, est.value, case=1)
    assert out.status == "passed"
    assert out.detail["violations"] == 0


def test_gradient_control_xfree(xfree_sq):
    sol = cs.solve_discounted(
        xfree_sq, 0.5, 0.01,
        cs.default_grid_policy(xfree_sq, 0.5, 0.01, R=2.0, dx=None))
    out = pc.gradient_control_check(xfree_sq, sol, 0.5, 1.0, hbar_p0=0.25, case=1)
    assert out.status == "passed"
    # constant solution: gradients identically zero
    assert out.detail["extreme"] == pytest.approx(0.5, abs=1e-10)


def test_gradient_control_skipped():
    f = env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 2.0}))
    lam = 0.04
    sol = cs.solve_discounted(
        f, 0.2, lam, cs.default_grid_policy(f, 0.2, lam, R=2.0, dx=None))
    # P = 1: essinf H(1, .) = -2 < Hbar(0.2), hypothesis fails
    out = pc.gradient_control_check(f, sol, 0.2, 1.0, hbar_p0=2.0, case=1)
    assert out.status == "skipped"


def test_one_sided_continuity(abs_sin):
    # neighboring p-grid estimates differ by at most rho_K(h) + 2 dispersion
    h = 0.25
    ps = np.arange(-1.5, 1.5 + h / 2, h)
    ests = [cs.estimate_hbar(abs_sin, float(p), dx=1 / 128) for p in ps]
    rho = abs_sin.modulus(-2.0, 2.0)
    for a, b in zip(ests, ests[1:]):
        tol = rho(h) + 2.0 * max(a.dispersion, b.dispersion) + 1e-9
        assert abs(a.value - b.value) <= tol


def test_periodized_estimator_consistency(board_spec):
    f = env.sample(board_spec, 1)
    est_w = cs.estimate_hbar({1: f}, 2.0, lam_schedule=(0.04, 0.02, 0.01),
                             dx=1 / 64)
    est_t = cs.estimate_hbar({1: f.periodized(400)}, 2.0,
                             lam_schedule=(0.04, 0.02, 0.01), dx=1 / 64)
    assert est_t.value == pytest.approx(est_w.value, abs=0.08)
    assert est_t.value == pytest.approx(1.5, abs=0.08)


def test_estimate_deterministic_reproducible(board_spec):
    a = cs.estimate_hbar({7: env.sample(board_spec, 7)}, 1.0,
                         lam_schedule=(0.04, 0.02, 0.01), dx=1 / 64)
    b = cs.estimate_hbar({7: env.sample(board_spec, 7)}, 1.0,
                         lam_schedule=(0.04, 0.02, 0.01), dx=1 / 64)
    assert a.value == b.value
    assert a.rows == b.rows


def test_estimate_does_not_depend_on_earlier_p():
    # two grid points of linspace(-1.8, 1.8, 25) on the converge benchmark's
    # field: their probe arguments differ only in the last bits, so a
    # probe cache keyed by rounded arguments would let solving -0.6 first
    # move the estimate at 0.6
    spec = env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 0.1})
    p_plus, p_minus = 0.5999999999999999, -0.6000000000000001
    fresh = cs.estimate_hbar(env.sample(spec), p_plus, dx=1 / 512)
    shared = env.sample(spec)
    cs.estimate_hbar(shared, p_minus, dx=1 / 512)
    again = cs.estimate_hbar(shared, p_plus, dx=1 / 512)
    assert again.value == fresh.value
    assert again.rows == fresh.rows


@pytest.mark.parametrize("case", ["torus", "window"])
def test_frozen_node_grids_give_what_fresh_ones_give(case, monkeypatch):
    # the solver freezes each (field, node grid) once: a second estimate
    # on the same field finds every grid frozen, a twin sampled afresh
    # freezes its own, and a run with the cache bypassed freezes at every
    # solve.  The three lam have windows of their own on the board, and
    # the dx/2 solve nests the lam_min grid.  With R = 0.505 the third
    # coarse level of the lam = 0.04 window and the fourth of the
    # lam = 0.02 one both have 105 nodes, 8 dx and 16 dx apart: a key
    # without the spacing would hand one the other's evaluator.
    spec = env.make_checkerboard((-0.5, 0.0), 1.0, "quartic_plus_v", {})
    solves, solve = [], cs.solve_discounted

    def recorded_solve(field, p, lam, grid, *args, **kwargs):
        solves.append((field, grid))
        return solve(field, p, lam, grid, *args, **kwargs)

    def realize():
        f = env.sample(spec, 5)
        return f.periodized(20) if case == "torus" else f

    def estimate(f):
        est = cs.estimate_hbar(f, 1.0, lam_schedule=(0.04, 0.02, 0.01),
                               R=0.505, dx=1 / 32)
        return est.value, est.dispersion, est.rows

    monkeypatch.setattr(cs, "solve_discounted", recorded_solve)
    shared = realize()
    first, again, twin = estimate(shared), estimate(shared), estimate(realize())
    with monkeypatch.context() as m:
        m.setattr(env.HamiltonianField, "frozen_at",
                  lambda self, key, x: self.at(x))
        unfrozen = estimate(realize())
    assert first == again == twin == unfrozen
    # and each solve's evaluators are the field frozen at its own nodes
    qs = np.linspace(-2.0, 2.0, 9)[:, None]
    for f, grid in solves:
        xs = grid.nodes()
        h, h_edges = cs._frozen(f, grid, xs)
        assert h(qs).tobytes() == f.at(xs)(qs).tobytes()
        if case == "window":
            ends = xs[[0, -1]]
            assert h_edges(qs).tobytes() == f.at(ends)(qs).tobytes()
    if case == "window":
        assert len({len(g.nodes()) for _, g in solves}) \
            < len({(len(g.nodes()), g.dx) for _, g in solves})


def test_effective_run_freezes_each_node_grid_once(tmp_path, monkeypatch):
    # per-solve freezing must not come back: over one small effective run
    # every (field, node grid) a solve works on, its window ends included,
    # is frozen exactly once (each freeze is one cell_values call)
    grids, frozen = set(), Counter()
    at, solve = env.CheckerboardField.at, cs.solve_discounted

    def counted_at(field, x):
        frozen[id(field), np.asarray(x, dtype=np.float64).tobytes()] += 1
        return at(field, x)

    def recorded_solve(field, p, lam, grid, *args, **kwargs):
        xs = grid.nodes()
        grids.add((id(field), xs.tobytes()))
        if not grid.periodic:
            grids.add((id(field), xs[[0, -1]].tobytes()))
        return solve(field, p, lam, grid, *args, **kwargs)

    monkeypatch.setattr(env.CheckerboardField, "at", counted_at)
    monkeypatch.setattr(cs, "solve_discounted", recorded_solve)
    cfg = {"schema": "run/1", "task": "effective",
           "env": {"schema": "env/1", "kind": "checkerboard",
                   "profile": "quartic_plus_v", "params": {},
                   "cell_length": 1.0, "value_range": [-0.5, 0.0]},
           "seeds": {"master": 3, "count": 2}, "p_grid": [-1.0, 1.0],
           "lambda_schedule": [0.04, 0.02, 0.01],
           "solver": {"dx": 1 / 64, "periodize_cells": 10}}
    assert cli.run(cfg, str(tmp_path)) == 0
    # per seed the 640-node torus and its nested 320, 160 and 80 nodes,
    # and the first seed's dx/2 torus of 1280 nodes
    assert len(grids) == 9
    assert {g: frozen[g] for g in grids} == dict.fromkeys(grids, 1)
    # and so is every probe grid: each field's 256 and 512 probe points
    # go through one frozen evaluator, and sup_abs_on is cached per p
    assert len(frozen) == 13 and max(frozen.values()) == 1


def test_window_end_nodes_are_frozen_once_per_pair(tmp_path, monkeypatch):
    # windows of different dx end at the same two nodes: on a 2-seed run
    # keyed by (node count, dx), 13 of its two-point cell_values calls
    # froze an end pair already frozen for that field
    seen, fields = Counter(), []
    cell_values = env.CheckerboardField.cell_values

    def counted(field, x):
        x = np.asarray(x, dtype=np.float64)
        seen[id(field), x.tobytes()] += 1
        fields.append(field)           # keeps every id distinct
        return cell_values(field, x)

    monkeypatch.setattr(env.CheckerboardField, "cell_values", counted)
    cfg = {"schema": "run/1", "task": "effective",
           "env": {"schema": "env/1", "kind": "checkerboard",
                   "profile": "base_plus_v", "params": {"base": "abs"},
                   "cell_length": 1.0, "value_range": [-1.0, 0.0]},
           "seeds": {"master": 0, "count": 2}, "p_grid": [-1.0, 0.0, 1.0],
           "lambda_schedule": [0.04, 0.02, 0.01], "solver": {"dx": 1 / 32}}
    assert cli.run(cfg, str(tmp_path)) == 0
    pairs = [n for (_, x), n in seen.items() if len(x) == 16]
    assert len(pairs) > 2 and max(pairs) == 1


def test_diverged_raises(board_spec, monkeypatch):
    f = env.sample(board_spec, 1)
    grid = cs.default_grid_policy(f, 0.0, 0.02, R=2.0, dx=1 / 32)
    # neither Newton nor the red-black sweeps make progress: the coarsest
    # level of the nested cold start stalls and raises
    monkeypatch.setattr(cs, "_newton_step",
                        lambda h, p, lam, grid, w, res, c: w)
    monkeypatch.setattr(cs, "_red_black_sweep",
                        lambda h, h_edges, p, lam, grid, w: w)
    with pytest.raises(Diverged) as exc:
        cs.solve_discounted(f, 0.0, 0.02, grid)
    # no Newton step: each of the 60 red-black passes logs one residual,
    # and the last one is the residual the message reports
    trace = exc.value.residual_trace
    assert len(trace) == 60
    assert str(exc.value).startswith(f"residual {trace[-1]:.3g} > tol ")


# ---------------------------------------------------------------------------
# the tridiagonal kernel against verbatim copies of the solves it replaced
# ---------------------------------------------------------------------------

def _solve_cyclic_tridiag_reference(dl, dd, du, cl, cu, b):
    # Sherman-Morrison on top of two banded solves
    n = len(dd)
    gamma = -dd[0]
    dd2 = dd.copy()
    dd2[0] -= gamma
    dd2[-1] -= cl * cu / gamma
    ab = np.zeros((3, n))
    ab[0, 1:] = du[:-1]
    ab[1, :] = dd2
    ab[2, :-1] = dl[1:]
    u = np.zeros(n)
    u[0], u[-1] = gamma, cu
    y = solve_banded((1, 1), ab, b)
    z = solve_banded((1, 1), ab, u)
    vy = y[0] + cl / gamma * y[-1]
    vz = z[0] + cl / gamma * z[-1]
    return y - z * (vy / (1.0 + vz))


def _newton_step_reference(h, p, lam, grid, w, res, c):
    dx, theta = grid.dx, grid.theta
    eps = 1e-7 * (1.0 + np.max(np.abs(p + c)))
    hp = (h(p + c + eps) - h(p + c - eps)) / (2.0 * eps)
    dd = np.full(len(w), lam + theta / dx)
    dl = -hp / (2.0 * dx) - theta / (2.0 * dx)
    du = hp / (2.0 * dx) - theta / (2.0 * dx)
    if grid.periodic:
        delta = _solve_cyclic_tridiag_reference(dl, dd, du, dl[0], du[-1], res)
    else:
        # edge rows from the zero-slope ghosts: still M-rows
        dd = dd.copy()
        dd[0] = lam + grid.theta / (2 * dx) - hp[0] / (2 * dx)
        du[0] = hp[0] / (2 * dx) - grid.theta / (2 * dx)
        dd[-1] = lam + grid.theta / (2 * dx) + hp[-1] / (2 * dx)
        dl[-1] = -hp[-1] / (2 * dx) - grid.theta / (2 * dx)
        ab = np.zeros((3, len(w)))
        ab[0, 1:] = du[:-1]
        ab[1, :] = dd
        ab[2, :-1] = dl[1:]
        delta = solve_banded((1, 1), ab, res)
    return w - delta


def _outcome(step, *args):
    """The bytes of the step's result, or the type of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return step(*args).tobytes()
    except (ValueError, LinAlgError) as exc:
        return type(exc)


_NEWTON_FIELDS = {name: env.sample(env.make_periodic(name, 1.0,
                                                     {"amplitude": 0.7}))
                  for name in ("abs_plus_sin", "quartic_plus_sin")}
_grid_values = hs.lists(hs.floats(-4.0, 4.0, allow_nan=False), min_size=3,
                        max_size=60).map(np.array)


@settings(max_examples=200, deadline=None)
@given(w=_grid_values, periodic=hs.booleans(),
       dx=hs.sampled_from([1 / 64, 1 / 100, 0.03]),
       theta=hs.floats(0.5, 40.0), lam=hs.floats(0.001, 1.0),
       p=hs.floats(-2.0, 2.0), name=hs.sampled_from(sorted(_NEWTON_FIELDS)))
def test_newton_step_matches_reference(w, periodic, dx, theta, lam, p, name):
    n = len(w)
    grid = cs.SolverGrid(X=n * dx / 2, dx=dx, theta=theta,
                         tol_res=1e-9, period=n * dx if periodic else None)
    h = _NEWTON_FIELDS[name].at(np.arange(n) * dx)
    res, c = cs._operator(h, p, lam, grid, w)
    assert _outcome(cs._newton_step, h, p, lam, grid, w, res, c) \
        == _outcome(_newton_step_reference, h, p, lam, grid, w, res, c)


@pytest.mark.parametrize("periodic", [True, False])
def test_newton_step_rejects_nonfinite(abs_sin, periodic):
    n, dx = 32, 1 / 32
    grid = cs.SolverGrid(X=0.5, dx=dx, theta=2.0, tol_res=1e-9,
                         period=1.0 if periodic else None)
    h = abs_sin.at(np.arange(n) * dx)
    w = np.sin(np.arange(n) * dx)
    res, c = cs._operator(h, 0.3, 0.02, grid, w)
    res[5] = np.nan
    with pytest.raises(ValueError):
        cs._newton_step(h, 0.3, 0.02, grid, w, res, c)


def test_gtsv_singular():
    # rows 0 and 1 of [[1, 1, 0], [1, 1, 0], [0, 0, 1]] are equal
    dl, d, du = np.array([1.0, 0.0]), np.ones(3), np.array([1.0, 0.0])
    for b in (np.ones(3), np.ones((3, 2), order="F")):
        # LAPACK works in the diagonals: each solve gets its own
        with pytest.raises(LinAlgError):
            cs._gtsv(dl.copy(), d.copy(), du.copy(), b)


_FIRST_GTSV = """
import sys
import numpy as np
from hjhomog import cell_solver as cs
assert not any(m.startswith("scipy") for m in sys.modules)
dl, d, du = np.array([1.0, 0.0]), np.ones(3), np.array([1.0, 0.0])
b = np.ones(3)
if sys.argv[1] == "nan":
    b[1] = np.nan
try:
    cs._gtsv(dl, d, du, b)
except Exception as exc:
    print(type(exc).__module__, type(exc).__name__)
"""


@pytest.mark.parametrize("case, raised", [
    ("singular", "numpy.linalg LinAlgError"), ("nan", "builtins ValueError")])
def test_first_gtsv_call_keeps_its_checks(case, raised):
    # scipy's LAPACK binding is fetched at the first solve: that first
    # call must still reject singular systems and non-finite input
    src = os.path.dirname(os.path.dirname(os.path.abspath(cs.__file__)))
    proc = subprocess.run([sys.executable, "-c", _FIRST_GTSV, case],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == raised.split()
    assert LinAlgError is np.linalg.LinAlgError


_SOLVE_ONCE = """
import sys
from hjhomog import cell_solver as cs, env
f = env.sample(env.make_periodic("abs_plus_sin", 1.0))
cs.solve_discounted(f, 0.3, 0.04,
                    cs.default_grid_policy(f, 0.3, 0.04, R=2.0, dx=None))
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_solve_loads_lapack_without_scipy_linalg():
    # the solver loads scipy's LAPACK extension module by itself; the
    # scipy.linalg package, and its start-up cost, stay out
    src = os.path.dirname(os.path.dirname(os.path.abspath(cs.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SOLVE_ONCE],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "scipy.linalg._flapack" in loaded
    assert "scipy.linalg" not in loaded


# tridiagonal systems with |d| > |dl| + |du| on every row
_tridiag = hs.integers(2, 40).flatmap(lambda n: hs.tuples(
    *(hs.lists(hs.floats(-1.0, 1.0), min_size=k, max_size=k).map(np.array)
      for k in (n - 1, n, n - 1, n, n)),
    hs.sampled_from([-1.0, 1.0])))


@settings(max_examples=100, deadline=None)
@given(system=_tridiag)
def test_dgtsv_is_scipy_linalg_gtsv(system):
    # the routine the solver loads is the one scipy.linalg hands out
    dl, d, du, b0, b1, sign = system
    d = sign * (2.0 + np.abs(d))
    rhs = (b0, np.asfortranarray(np.stack([b0, b1], axis=1)))
    scipy_gtsv = get_lapack_funcs(("gtsv",), (np.zeros(1),))[0]
    for b in rhs:
        got = cs._dgtsv()(dl.copy(), d.copy(), du.copy(), b.copy("K"))
        want = scipy_gtsv(dl.copy(), d.copy(), du.copy(), b.copy("K"))
        assert got[4] == want[4] == 0
        assert got[3].tobytes() == want[3].tobytes()


def test_warm_start_divergence_warns_and_solves_cold(abs_sin, monkeypatch):
    # a warm start that diverges is solved again cold, and says so
    solve, dx = cs.solve_discounted, 1 / 64

    def warm_diverges(field, p, lam, grid, w0=None, **kwargs):
        # only the schedule's warm starts: the dx/2 solve keeps its start
        if w0 is not None and grid.dx == dx:
            raise Diverged("forced", [])
        return solve(field, p, lam, grid, w0=w0, **kwargs)

    def always_cold(field, p, lam, grid, w0=None, **kwargs):
        if grid.dx == dx:
            w0 = None
        return solve(field, p, lam, grid, w0=w0, **kwargs)

    monkeypatch.setattr(cs, "solve_discounted", always_cold)
    cold = cs.estimate_hbar({3: abs_sin}, 0.5, dx=dx)
    monkeypatch.setattr(cs, "solve_discounted", warm_diverges)
    with pytest.warns(WarmStartRetried) as record:
        est = cs.estimate_hbar({3: abs_sin}, 0.5, dx=dx)
    lams = cs.LAMBDA_SCHEDULE[1:]
    assert len(record) == len(lams)
    for w, lam in zip(record, lams):
        assert f"p=0.5, lam={lam:.4g}, seed=3" in str(w.message)
    assert est.value == cold.value
    assert est.dispersion == cold.dispersion


@pytest.mark.parametrize("case", ["torus", "window"])
def test_prolonged_newton_iterate_is_the_nested_start(board_spec, abs_sin,
                                                      case):
    # a cold solve on grid_h first solves grid_f, its nested coarse level,
    # without verification steps: starting from the prolonged Newton
    # iterate of a cold grid_f solve is the same computation
    f, p, lam, dx = ((abs_sin, 0.3, 0.01, 1 / 256) if case == "torus"
                     else (env.sample(board_spec, 3), 1.0, 0.04, 1 / 32))
    grid_f = cs.default_grid_policy(f, p, lam, R=2.0, dx=dx)
    grid_h = replace(grid_f, dx=grid_f.dx * 0.5)
    assert cs._coarse(grid_h) == grid_f
    sol = cs.solve_discounted(f, p, lam, grid_f)
    cold = cs.solve_discounted(f, p, lam, grid_h)
    warm = cs.solve_discounted(
        f, p, lam, grid_h, w0=cs.prolong(sol.x_full, sol.w_newton, grid_h))
    assert cold.w_full.tobytes() == warm.w_full.tobytes()
    assert cold.residual == warm.residual


def test_half_dx_solve_reuses_lambda_min_iterate(board_spec, monkeypatch):
    solves = _solves(monkeypatch)
    cs.estimate_hbar({s: env.sample(board_spec, s).periodized(50)
                      for s in (1, 2)}, 2.0,
                     lam_schedule=(0.04, 0.02, 0.01), dx=1 / 64)
    calls = [(lam, grid.dx) for lam, grid, _ in solves]
    first_half = calls.index((0.01, 1 / 128))
    # the dx/2 solve and its nested levels below dx/2: none at dx
    assert all(dx != 1 / 64 for _, dx in calls[first_half:])
    assert sum(call == (0.01, 1 / 64) for call in calls) == 2
