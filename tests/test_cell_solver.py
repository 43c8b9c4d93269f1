import numpy as np
import pytest

from hjhomog import env, cell_solver as cs
from hjhomog.errors import Diverged


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
        grid = cs.default_grid_policy(xfree_sq, 1.0, lam)
        sol = cs.solve_discounted(xfree_sq, 1.0, lam, grid)
        assert sol.minus_lambda_v0 == pytest.approx(1.0, abs=1e-12)
        assert abs(sol.grad_range[0]) < 1e-10 and abs(sol.grad_range[1]) < 1e-10


def test_abs_sin_single_solve(abs_sin):
    grid = cs.default_grid_policy(abs_sin, 0.0, 0.01, dx=1 / 128)
    sol = cs.solve_discounted(abs_sin, 0.0, 0.01, grid)
    assert sol.minus_lambda_v0 == pytest.approx(1.0, abs=0.05)


def test_uniform_bound(abs_sin):
    # comparison with constants: sup |lam v| <= sup |H(p, .)|
    for p, lam in [(0.0, 0.01), (2.0, 0.04), (0.5, 10.0)]:
        grid = cs.default_grid_policy(abs_sin, p, lam)
        sol = cs.solve_discounted(abs_sin, p, lam, grid)
        bound = abs_sin.sup_abs_on(p)
        assert np.max(np.abs(lam * sol.v)) <= bound + 1e-9


def test_cfl_rejected(abs_sin):
    grid = cs.default_grid_policy(abs_sin, 0.0, 0.01)
    grid.dt = 10.0 / (grid.theta / grid.dx)
    with pytest.raises(ValueError):
        cs.solve_discounted(abs_sin, 0.0, 0.01, grid)


def test_bad_lambda_and_schedule(abs_sin):
    grid = cs.default_grid_policy(abs_sin, 0.0, 0.01)
    with pytest.raises(ValueError):
        cs.solve_discounted(abs_sin, 0.0, -1.0, grid)
    with pytest.raises(ValueError):
        cs.estimate_hbar(abs_sin, 0.0, lam_schedule=(0.01, 0.02, 0.04))
    with pytest.raises(ValueError):
        cs.estimate_hbar(abs_sin, 0.0, lam_schedule=(0.02, 0.01))


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
    grid = cs.default_grid_policy(abs_sin, 0.3, 0.02, dx=1 / 64)
    sol = cs.solve_discounted(abs_sin, 0.3, 0.02, grid)
    w = sol.w_full + 0.1 * rng.standard_normal(len(sol.w_full))
    out = cs.monotone_update_check(abs_sin, 0.3, 0.02, grid, w, rng, n_points=100)
    assert out.status == "passed"


def test_comparison_gap_identical(board_spec):
    f = env.sample(board_spec, 3)
    lam = 0.02
    grid = cs.default_grid_policy(f, 1.5, lam, dx=1 / 64)
    sol = cs.solve_discounted(f, 1.5, lam, grid)
    out = cs.comparison_gap(sol, sol, field=f)
    assert out.status == "passed" and out.detail["gap"] == 0.0


def test_comparison_gap_two_pads(board_spec):
    f = env.sample(board_spec, 3)
    lam = 0.02
    g1 = cs.default_grid_policy(f, 1.5, lam, dx=1 / 64, pad_cells=10)
    g2 = cs.default_grid_policy(f, 1.5, lam, dx=1 / 64, pad_cells=40)
    s1 = cs.solve_discounted(f, 1.5, lam, g1)
    s2 = cs.solve_discounted(f, 1.5, lam, g2)
    out = cs.comparison_gap(s1, s2, field=f)
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
    C = cs.calibrate_comparison_constant(f, -2.0)
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
    grid = cs.default_grid_policy(f, p0, lam, dx=1 / 512)
    sol = cs.solve_discounted(f, p0, lam, grid)
    out = cs.gradient_control_check(f, sol, p0, P, est.value, case=1)
    assert out.status == "passed"
    assert out.detail["violations"] == 0


def test_gradient_control_xfree(xfree_sq):
    sol = cs.solve_discounted(
        xfree_sq, 0.5, 0.01, cs.default_grid_policy(xfree_sq, 0.5, 0.01))
    out = cs.gradient_control_check(xfree_sq, sol, 0.5, 1.0, hbar_p0=0.25, case=1)
    assert out.status == "passed"
    # constant solution: gradients identically zero
    assert out.detail["extreme"] == pytest.approx(0.5, abs=1e-10)


def test_gradient_control_skipped():
    f = env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 2.0}))
    lam = 0.04
    sol = cs.solve_discounted(f, 0.2, lam, cs.default_grid_policy(f, 0.2, lam))
    # P = 1: essinf H(1, .) = -2 < Hbar(0.2), hypothesis fails
    out = cs.gradient_control_check(f, sol, 0.2, 1.0, hbar_p0=2.0, case=1)
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
    est_w = cs.estimate_hbar(board_spec, 2.0, lam_schedule=(0.04, 0.02, 0.01),
                             seeds=(1,), dx=1 / 64)
    est_t = cs.estimate_hbar(board_spec, 2.0, lam_schedule=(0.04, 0.02, 0.01),
                             seeds=(1,), dx=1 / 64, periodize_cells=400)
    assert est_t.value == pytest.approx(est_w.value, abs=0.08)
    assert est_t.value == pytest.approx(1.5, abs=0.08)


def test_estimate_deterministic_reproducible(board_spec):
    a = cs.estimate_hbar(board_spec, 1.0, lam_schedule=(0.04, 0.02, 0.01),
                         seeds=(7,), dx=1 / 64)
    b = cs.estimate_hbar(board_spec, 1.0, lam_schedule=(0.04, 0.02, 0.01),
                         seeds=(7,), dx=1 / 64)
    assert a.value == b.value
    assert a.rows == b.rows


def test_diverged_raises(board_spec):
    f = env.sample(board_spec, 1)
    grid = cs.default_grid_policy(f, 0.0, 0.02, dx=1 / 32)
    with pytest.raises(Diverged) as exc:
        cs.solve_discounted(f, 0.0, 0.02, grid, max_iters=0, nested=False,
                            verify_steps=0)
    assert len(exc.value.residual_trace) >= 0
