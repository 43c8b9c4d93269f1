"""Desk-scale homogenization experiment: the oscillatory initial-value
problem u_t + H(Du, x/eps) = 0 against the homogenized ubar_t + Hbar(Dubar)
= 0, with the sup-norm error on a core window at the final time.

Both problems march forward Euler with the monotone Lax-Friedrichs flux,
built by ``cell_solver._lf_terms``, the stencil the discounted solver
uses too, with zero-slope ghosts at the two ends.  The domain carries a
pad of width theta * T outside the reported core so that boundary
information cannot reach it within the horizon (the scheme's numerical
domain of dependence grows at speed dx/dt >= theta).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cell_solver import _lf_terms
from .errors import ExtrapolationUsed


@dataclass
class IVPSetup:
    """Initial datum, horizon and grid policy for the convergence runs."""

    g: callable                  # bounded uniformly continuous initial datum
    T: float
    X_core: float
    theta: float                 # dissipation and speed bound
    dx: float | None = None      # oscillatory runs refine to eps/32 anyway
    pad_factor: float = 1.1
    cfl = 0.45                   # CFL number (a constant, not a field)

    def domain_half_width(self):
        return self.X_core + self.pad_factor * self.theta * self.T + 0.5


def wedge_datum(height=5.0):
    """g(x) = -|x| clamped at -height: bounded Lipschitz wedge (BUC)."""

    def g(x):
        return np.maximum(-np.abs(np.asarray(x, dtype=np.float64)), -height)

    return g


def _march(frozen, g, T, X, dx, theta, cfl):
    # frozen(xs) is the Hamiltonian at the march nodes, a function of q only
    m = int(np.ceil(X / dx))
    xs = np.arange(-m, m + 1) * dx
    h = frozen(xs)
    u = np.asarray(g(xs), dtype=np.float64)
    dt = cfl * dx / theta
    n_steps = int(np.ceil(T / dt))
    dt = T / n_steps
    for _ in range(n_steps):
        c, diss = _lf_terms(u, dx, theta, False)
        u = u - dt * (h(c) - diss)
    return xs, u


def solve_oscillatory(field, eps, setup):
    """March u_t + H(Du, x/eps) = 0 to the horizon; needs dx <= eps/32."""
    dx = setup.dx if setup.dx is not None else eps / 32.0
    if dx > eps / 32.0 + 1e-15:
        raise ValueError(f"eps={eps} under-resolved: need dx <= {eps / 32:.3g}")
    X = setup.domain_half_width()
    xs, u = _march(lambda x: field.at(x / eps),
                   setup.g, setup.T, X, dx, setup.theta, setup.cfl)
    core = np.abs(xs) <= setup.X_core + 1e-12
    return xs[core], u[core]


def solve_homogenized(curve, setup, dx=None):
    """Same scheme with the sampled effective Hamiltonian; gradients that
    leave the curve support trigger the ExtrapolationUsed warning."""
    dx = dx or (setup.dx or 1e-2)
    X = setup.domain_half_width()
    flagged = []

    def hbar(q):
        if np.any(q < curve.p[0]) or np.any(q > curve.p[-1]):
            flagged.append(True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationUsed)
            return curve.evaluate(q)

    xs, u = _march(lambda x: hbar, setup.g, setup.T, X, dx, setup.theta,
                   setup.cfl)
    if flagged:
        warnings.warn("gradient left the effective-curve support",
                      ExtrapolationUsed)
    core = np.abs(xs) <= setup.X_core + 1e-12
    return xs[core], u[core]


@dataclass
class ConvergenceResult:
    rows: list                     # (eps, seed, err, dx, dt)
    monotone: dict                 # seed -> bool
    ubar: tuple = None

    def errors(self, seed):
        return [(e, err) for e, s, err, _, _ in self.rows if s == seed]


def convergence_experiment(source, curve, setup, eps_list=(0.4, 0.2, 0.1),
                           seeds=(0,), hbar_dx=None):
    """err(eps) = sup over the core at t = T of |u_eps - ubar|, per seed.

    The property form of the homogenization theorem: errors decrease along
    the eps schedule (no rate is asserted).  Non-monotone sequences are
    reported, not raised.
    """
    from .env import EnvironmentSpec, sample as env_sample
    eps_list = tuple(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    xs_bar, ubar = solve_homogenized(curve, setup, dx=hbar_dx)
    rows = []
    monotone = {}
    for seed in seeds:
        if isinstance(source, EnvironmentSpec):
            field = env_sample(source, seed)
        else:
            field = source
        errs = []
        for eps in eps_list:
            dx = eps / 32.0
            xs_e, u_e = solve_oscillatory(field, eps, setup)
            u_on_bar = np.interp(xs_bar, xs_e, u_e)
            err = float(np.max(np.abs(u_on_bar - ubar)))
            dt = setup.cfl * dx / setup.theta
            rows.append((eps, seed, err, dx, dt))
            errs.append(err)
        monotone[seed] = all(b < a for a, b in zip(errs, errs[1:]))
    return ConvergenceResult(rows=rows, monotone=monotone, ubar=(xs_bar, ubar))


def default_theta(field):
    """Speed/dissipation bound for wedge data (slopes within 1.1): the
    p-Lipschitz constant of H over the reachable gradient range, with
    coercivity margin."""
    grad_bound = 1.1
    m0 = max(field.sup_abs_on(0.0), field.sup_abs_on(grad_bound),
             field.sup_abs_on(-grad_bound))
    r = field.coercivity_radius(m0 + 0.5)
    return field.lipschitz_on(max(r, grad_bound) + 0.25)
