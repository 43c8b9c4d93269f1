import numpy as np
import pytest

from hjhomog import env, gluing as gl, homog_pde as hp
from hjhomog.curve import EffectiveCurve
from hjhomog.errors import ExtrapolationUsed


@pytest.fixture(scope="module")
def abs_sin():
    return env.sample(env.make_periodic("abs_plus_sin", 1.0))


@pytest.fixture(scope="module")
def abs_sin_curve(abs_sin):
    return gl.convex_oracle(abs_sin, p_lo=-4.5, p_hi=4.5)


@pytest.fixture(scope="module")
def setup(abs_sin):
    theta = hp.default_theta(abs_sin)
    return hp.IVPSetup(g=hp.wedge_datum(), T=1.0, X_core=1.0, theta=theta)


def test_xfree_plane_wave():
    # for x-free H the wedge flank is an exact plane wave: u = g - t H(g')
    f = env.sample(env.make_periodic("xfree", 1.0, {"base": "quadratic"}))
    p0 = 0.7
    g = lambda x: np.maximum(-p0 * np.asarray(x), -5.0)   # noqa: E731
    setup = hp.IVPSetup(g=g, T=0.5, X_core=0.8, theta=hp.default_theta(f))
    xs, u = hp.solve_oscillatory(f, 0.5, setup)
    left = xs < -0.2
    exact = -p0 * xs[left] - 0.5 * p0 ** 2
    assert np.max(np.abs(u[left] - exact)) < 1e-12


def _march(field, eps, setup, dx, X):
    """solve_oscillatory's march at a grid step and half-width of one's
    own."""
    return hp._march(lambda x: field.at(x / eps), setup.g, setup.T, X, dx,
                     setup.theta, setup.cfl, setup.X_core)


def test_eps_independence_xfree():
    f = env.sample(env.make_periodic("xfree", 1.0, {"base": "quadratic"}))
    setup = hp.IVPSetup(g=hp.wedge_datum(), T=0.5, X_core=0.5,
                        theta=hp.default_theta(f))
    X = setup.domain_half_width()
    runs = {eps: _march(f, eps, setup, 0.2 / 32, X) for eps in (0.4, 0.2)}
    assert np.array_equal(runs[0.4][1], runs[0.2][1])


def test_comparison_monotone_ordering(abs_sin, setup):
    # g1 <= g2 propagates: u1 <= u2 at the final time
    g1 = hp.wedge_datum(5.0)
    g2 = lambda x: hp.wedge_datum(5.0)(x) + 0.3   # noqa: E731
    s1 = hp.IVPSetup(g=g1, T=0.5, X_core=1.0, theta=setup.theta)
    s2 = hp.IVPSetup(g=g2, T=0.5, X_core=1.0, theta=setup.theta)
    _, u1 = hp.solve_oscillatory(abs_sin, 0.2, s1)
    _, u2 = hp.solve_oscillatory(abs_sin, 0.2, s2)
    assert np.all(u1 <= u2 + 1e-12)


def test_constant_hamiltonian_exact():
    # linear datum in the core: no kinks for the dissipation to smear
    c = 0.8
    g = lambda x: np.maximum(-0.7 * np.asarray(x), -8.0)   # noqa: E731
    setup = hp.IVPSetup(g=g, T=1.0, X_core=1.0, theta=1.0)
    curve = EffectiveCurve(np.linspace(-3, 3, 7), np.full(7, c))
    xs, u = hp.solve_homogenized(curve, setup, dx=1 / 64)
    expected = g(xs) - setup.T * c
    assert np.max(np.abs(u - expected)) < 1e-10


def test_homogenized_refinement_first_order(abs_sin_curve, setup):
    xs1, u1 = hp.solve_homogenized(abs_sin_curve, setup, dx=1 / 64)
    xs2, u2 = hp.solve_homogenized(abs_sin_curve, setup, dx=1 / 128)
    d = np.max(np.abs(np.interp(xs1, xs2, u2) - u1))
    xs3, u3 = hp.solve_homogenized(abs_sin_curve, setup, dx=1 / 256)
    d2 = np.max(np.abs(np.interp(xs2, xs3, u3) - u2))
    assert d2 < d  # first-order-ish refinement trend


def test_extrapolation_flagged(setup):
    narrow = EffectiveCurve(np.linspace(-0.2, 0.2, 5),
                            np.abs(np.linspace(-0.2, 0.2, 5)))
    with pytest.warns(ExtrapolationUsed):
        hp.solve_homogenized(narrow, setup, dx=1 / 32)


def test_core_insulation(abs_sin, setup):
    # doubling the pad leaves the core unchanged to rounding
    wide = setup.X_core + 2.2 * setup.theta * setup.T + 0.5
    xs1, u1 = hp.solve_oscillatory(abs_sin, 0.2, setup)
    xs2, u2 = _march(abs_sin, 0.2, setup, 0.2 / 32, wide)
    assert np.max(np.abs(np.interp(xs1, xs2, u2) - u1)) < 1e-8


def test_convergence_strictly_decreasing(abs_sin, abs_sin_curve, setup):
    res = hp.convergence_experiment(abs_sin, abs_sin_curve, setup,
                                    eps_list=(0.4, 0.2, 0.1), hbar_dx=1 / 128)
    assert res.monotone[0]
    errs = [err for _, _, err, _, _ in res.rows]
    assert errs[0] > errs[1] > errs[2]


def test_wrong_hbar_stagnates(abs_sin, abs_sin_curve, setup):
    bad = EffectiveCurve(abs_sin_curve.p, abs_sin_curve.values + 0.3,
                         abs_sin_curve.budget)
    res = hp.convergence_experiment(abs_sin, bad, setup,
                                    eps_list=(0.4, 0.2, 0.1), hbar_dx=1 / 128)
    errs = [err for _, _, err, _, _ in res.rows]
    assert min(errs) >= 0.2


def test_bad_eps_schedule(abs_sin, abs_sin_curve, setup):
    with pytest.raises(ValueError):
        hp.convergence_experiment(abs_sin, abs_sin_curve, setup,
                                  eps_list=(0.1, 0.2), hbar_dx=1 / 128)
