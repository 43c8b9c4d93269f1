"""Desk-scale homogenization experiment: the oscillatory initial-value
problem u_t + H(Du, x/eps) = 0 against the homogenized ubar_t + Hbar(Dubar)
= 0, with the sup-norm error on a core window at the final time.

Both problems march forward Euler with the monotone Lax-Friedrichs flux,
built by ``cell_solver._lf_terms``, the stencil the discounted solver
uses too, with zero-slope ghosts at the two ends.  The oscillatory march
resolves each period with 32 nodes, dx = eps/32.  The domain carries a
pad of width 1.1 theta T + 0.5 outside the reported core, which covers
the physical cone: characteristics move at speed at most theta.
The scheme's numerical domain of dependence is wider, one node per step
or dx/dt = theta/cfl (about 2.2 theta), so the ghosts do reach the core,
damped by the monotone stencil; ``test_core_insulation`` bounds that
effect at 1e-8.  Because they reach it, the march keeps the whole grid,
true ghosts included, until the numerical cone of the core clears the
grid ends, and only then narrows to the nodes that can still reach the
core.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cell_solver import _by_seed, _check_nodes, _lf_terms
from .errors import ExtrapolationUsed

_OSC_NODES = 32   # nodes per period eps of the oscillatory march: dx = eps/32


@dataclass
class IVPSetup:
    """Initial datum, horizon and grid policy for the convergence runs."""

    g: callable                  # bounded uniformly continuous initial datum
    T: float
    X_core: float
    theta: float                 # dissipation and speed bound
    cfl = 0.45                   # CFL number (a constant, not a field)
    dx = None   # no grid step of its own; perfbench/spans.py reads setup.dx

    def domain_half_width(self):
        return self.X_core + 1.1 * self.theta * self.T + 0.5


def wedge_datum(height=5.0):
    """g(x) = -|x| clamped at -height: bounded Lipschitz wedge (BUC)."""

    def g(x):
        return np.maximum(-np.abs(np.asarray(x, dtype=np.float64)), -height)

    return g


def _march(frozen, g, T, X, dx, theta, cfl, X_core):
    """(xs, u) on the core |x| <= X_core at time T, marched on [-X, X].

    frozen(xs) is the Hamiltonian at the nodes xs, a function of q only.
    A step moves information by one node, so with r steps left only the
    core widened by r nodes on each side (cut at the grid ends, whose
    ghosts are then the true ones) can still reach the result: each phase
    freezes H on that window once and steps it until the window needed
    has shrunk by a quarter.  The nodes the march drops are the ones
    whose values the next step no longer needs, so the core's values are
    the whole-grid march's, bit for bit."""
    _check_nodes(2 * X / dx, "the march")
    m = int(np.ceil(X / dx))
    xs = np.arange(-m, m + 1) * dx
    core = np.flatnonzero(np.abs(xs) <= X_core + 1e-12)
    u = np.asarray(g(xs), dtype=np.float64)
    dt = cfl * dx / theta
    n_steps = int(np.ceil(T / dt))
    dt = T / n_steps
    if not len(core):
        return xs[core], u[core]
    c0, c1 = core[0], core[-1] + 1
    halo = n_steps - np.arange(n_steps)
    lo, hi = np.maximum(c0 - halo, 0), np.minimum(c1 + halo, len(xs))
    width = hi - lo                                 # non-increasing
    k, off = 0, 0                                   # u holds xs[off:]
    while k < n_steps:
        end = int(np.searchsorted(-width, -(3 * width[k] // 4)))
        # the phase's own buffers: u is a copy (never g's output), and
        # h(c) - diss goes into diss (never into an array h returns)
        u = u[lo[k] - off:hi[k] - off].copy()
        off = lo[k]
        h = frozen(xs[off:hi[k]])
        n = len(u)
        out = np.empty(n + 1), np.empty(n), np.empty(n)
        for _ in range(k, end):
            c, diss = _lf_terms(u, dx, theta, False, out)
            np.subtract(h(c), diss, out=diss)
            np.multiply(dt, diss, out=diss)
            np.subtract(u, diss, out=u)
        k = end
    return xs[c0:c1], u[c0 - off:c1 - off]


def solve_oscillatory(field, eps, setup):
    """March u_t + H(Du, x/eps) = 0 to the horizon at dx = eps/32."""
    return _march(lambda x: field.at(x / eps), setup.g, setup.T,
                  setup.domain_half_width(), eps / _OSC_NODES, setup.theta,
                  setup.cfl, setup.X_core)


def solve_homogenized(curve, setup, dx):
    """Same scheme with the sampled effective Hamiltonian; a gradient that
    leaves the curve support at a node that can still reach the core
    triggers the ExtrapolationUsed warning."""
    X = setup.domain_half_width()
    flagged = []

    def hbar(q):
        if np.any(q < curve.p[0]) or np.any(q > curve.p[-1]):
            flagged.append(True)
            return curve.evaluate(q)
        return np.interp(q, curve.p, curve.values)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationUsed)
        xs, u = _march(lambda x: hbar, setup.g, setup.T, X, dx, setup.theta,
                       setup.cfl, setup.X_core)
    if flagged:
        warnings.warn("gradient left the effective-curve support",
                      ExtrapolationUsed)
    return xs, u


@dataclass
class ConvergenceResult:
    rows: list                     # (eps, seed, err, dx, dt)
    monotone: dict                 # seed -> bool


def convergence_experiment(fields, curve, setup, eps_list, *, hbar_dx):
    """err(eps) = sup over the core at t = T of |u_eps - ubar|, per seed of
    ``fields``, a {seed: field} map (a lone field is seed 0).

    The property form of the homogenization theorem: errors decrease along
    the eps schedule (no rate is asserted).  Non-monotone sequences are
    reported, not raised.
    """
    eps_list = tuple(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    xs_bar, ubar = solve_homogenized(curve, setup, dx=hbar_dx)
    rows = []
    monotone = {}
    for seed, field in _by_seed(fields).items():
        errs = []
        for eps in eps_list:
            dx = eps / _OSC_NODES
            xs_e, u_e = solve_oscillatory(field, eps, setup)
            u_on_bar = np.interp(xs_bar, xs_e, u_e)
            err = float(np.max(np.abs(u_on_bar - ubar)))
            dt = setup.cfl * dx / setup.theta
            rows.append((eps, seed, err, dx, dt))
            errs.append(err)
        monotone[seed] = all(b < a for a, b in zip(errs, errs[1:]))
    return ConvergenceResult(rows=rows, monotone=monotone)


def default_theta(field):
    """Speed/dissipation bound for wedge data (slopes within 1.1): the
    p-Lipschitz constant of H over the reachable gradient range, with
    coercivity margin."""
    grad_bound = 1.1
    m0 = max(field.sup_abs_on(0.0), field.sup_abs_on(grad_bound),
             field.sup_abs_on(-grad_bound))
    r = field.coercivity_radius(m0 + 0.5)
    return field.lipschitz_on(max(r, grad_bound) + 0.25)
