"""Generic route to the effective Hamiltonian: solve the discounted problem

    lam * v + H(p + v', x) = 0

with a monotone Lax-Friedrichs scheme and extrapolate -lam * v(0) to
lam -> 0.

The discretization is the classical LF numerical Hamiltonian

    Hhat(q-, q+, x) = H(p + (q- + q+)/2, x) - theta * (q+ - q-)/2

with one-sided differences, zero-slope ghosts at the edges of a pad that
is excluded from every reported quantity, and theta at least the
p-Lipschitz bound of H over the reachable gradient range, which makes the
explicit update w <- w - dt * (lam w + Hhat) monotone under the CFL
condition dt * (theta/dx + lam) <= 1.  There is one CFL rule,
``SolverGrid.dt``, which takes dt * (theta/dx + lam) = 0.9 (CFL number
0.9), so every grid meets the condition by construction.  The stencil,
``_lf_terms``, is the one the PDE march in ``homog_pde`` uses too.

The steady state of that monotone scheme is the unique solution of the
discrete system; we reach it by a damped semismooth Newton iteration on
the same discrete equations (tridiagonal Jacobian, one LAPACK dgtsv call
per step; on a torus both Sherman-Morrison columns go into that call), with
red-black exact nodal relaxation when Newton stalls on a kink
configuration and explicit monotone steps as the final verification.
Pure marching contracts only at rate lam * dt per step, which is far too
slow at lam = 0.005 on windows X = R / lam; Newton finds the same fixed
point in a handful of iterations.  dgtsv is read from scipy's LAPACK
extension module, loaded by itself at the first solve; the scipy.linalg
package is never imported.

Spatially periodic realizations (periodic media, or checkerboards
periodized on a representative torus) use an exact fast path: the
whole-line discounted solution is itself periodic, so one period with
wraparound stencils is solved instead of a window.  A grid is a torus
exactly when it has a period; a torus grid does not depend on lam.

H is frozen once per (field, node grid): ``field.at(nodes)``, and a
window's two end nodes, are built at the first solve on that grid and
kept with the field's probes, so every nested level, lam value and tilt
on the grid reuses them.  On the benchmark's checkerboard, the 185 solves
of a task run share 13 grids.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import warnings
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np
from numpy.linalg import LinAlgError

from .env import HamiltonianField
from .errors import Diverged, GridTooLarge, NoisyLimit, WarmStartRetried

LAMBDA_SCHEDULE = (0.04, 0.02, 0.01, 0.005)
MAX_NODES = 10 ** 7   # the most nodes of any grid: 80 MB per float64 array


def _check_nodes(n, grid):
    """GridTooLarge unless ``n``, the float node count of ``grid``, is at
    most MAX_NODES: called before any array of the grid exists."""
    if not n <= MAX_NODES:
        raise GridTooLarge(f"{grid} needs {n:.3g} nodes, more than "
                           f"cell_solver.MAX_NODES = {MAX_NODES}")


@dataclass
class SolverGrid:
    """Grid and scheme parameters for one discounted solve.

    Non-periodic grids span [-(X+pad), X+pad] with values reported only on
    |x| <= X; periodic grids (those with a period) cover one period with
    wraparound stencils.
    """

    X: float
    dx: float
    theta: float
    tol_res: float
    pad: float = 0.0
    period: float | None = None

    @property
    def periodic(self):
        return self.period is not None

    def dt(self, lam):
        """The pseudo-time step of the explicit update: CFL number 0.9."""
        return 0.9 / (self.theta / self.dx + lam)

    def nodes(self):
        if self.periodic:
            _check_nodes(self.period / self.dx, "the torus")
            n = max(int(round(self.period / self.dx)), 8)
            return np.arange(n) * (self.period / n)
        _check_nodes(2 * (self.X + self.pad) / self.dx, "the window")
        m = int(np.ceil((self.X + self.pad) / self.dx))
        return np.arange(-m, m + 1) * self.dx


@dataclass
class DiscountedSolution:
    """Steady state of the discounted LF scheme on one grid."""

    x: np.ndarray          # core nodes, |x| <= X (whole period if periodic)
    v: np.ndarray          # values on the core
    x_full: np.ndarray
    w_full: np.ndarray
    p: float
    lam: float
    residual: float
    grad_range: tuple
    grid: SolverGrid
    iterations: int
    w_newton: np.ndarray   # the Newton iterate, before the verification steps

    @property
    def minus_lambda_v0(self):
        i0 = int(np.argmin(np.abs(self.x)))
        return -self.lam * float(self.v[i0])

    @property
    def minus_lambda_v_mean(self):
        """Core-window average of -lam v; same limit as the center value
        (the convergence is uniform on |x| <= R/lam) with far smaller
        variance in random media."""
        return -self.lam * float(np.mean(self.v))


def _one_sided(w, dx, periodic, q=None):
    """Backward and forward differences (q-, q+) of w: wraparound on a
    torus, zero-slope ghosts at the two ends otherwise.  Both are views of
    one padded array of len(w) + 1 slopes, ``q`` if given: q[:-1] is q-,
    q[1:] is q+."""
    if q is None:
        q = np.empty(len(w) + 1)
    inner = q[1:-1]
    np.subtract(w[1:], w[:-1], out=inner)
    np.divide(inner, dx, out=inner)
    q[0] = q[-1] = (w[0] - w[-1]) / dx if periodic else 0.0
    return q[:-1], q[1:]


def _lf_terms(w, dx, theta, periodic, out=None):
    """Central slope c = (q- + q+)/2 and dissipation theta (q+ - q-)/2 of
    the LF numerical Hamiltonian Hhat = H(p + c, x) - diss; the discounted
    solver and the PDE march (homog_pde) share it.  ``out`` is (q, c, diss),
    buffers of len(w) + 1, len(w) and len(w) entries to write into; fresh
    ones by default."""
    n = len(w)
    q, c, diss = out or (np.empty(n + 1), np.empty(n), np.empty(n))
    qm, qp = _one_sided(w, dx, periodic, q)
    np.add(qm, qp, out=c)
    np.multiply(0.5, c, out=c)
    np.subtract(qp, qm, out=diss)
    np.multiply(0.5 * theta, diss, out=diss)
    return c, diss


def _operator(h, p, lam, grid, w):
    # zero-slope ghost values at the window edges keep every row of the
    # discrete system strictly monotone (an upwind-copy ghost loses that
    # under boundary inflow and the iteration stalls on the edge rows);
    # the induced boundary layer dies inside the pad
    c, diss = _lf_terms(w, grid.dx, grid.theta, grid.periodic)
    res = lam * w
    res += h(p + c)
    res -= diss
    return res, c


@functools.cache
def _dgtsv():
    # the LAPACK routine comes from scipy's f2py LAPACK extension, loaded
    # by itself at the first solve: neither ``import hjhomog`` nor a solve
    # imports the scipy.linalg package, whose start-up time and memory
    # (about 0.3 s and 28 MB) would buy nothing else here
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("no scipy installation to load LAPACK from")
    name = "scipy.linalg._flapack"
    path = os.path.join(spec.submodule_search_locations[0], "linalg",
                        "_flapack" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"no LAPACK module {name} at {path}", path=path)
    loader = ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module.dgtsv


def _gtsv(dl, d, du, b):
    """Solve the tridiagonal system with sub-, main and super-diagonals
    dl, d, du for the right-hand side(s) b: one LAPACK ?gtsv call, the
    one ``scipy.linalg.solve_banded((1, 1), ...)`` makes, with its
    non-finite (ValueError) and singular (LinAlgError) checks.  LAPACK
    works in all four arrays, so every caller builds them for this one
    solve."""
    for a in (dl, d, du, b):
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
    _, _, _, x, info = _dgtsv()(dl, d, du, b, overwrite_dl=1, overwrite_d=1,
                                overwrite_du=1, overwrite_b=1)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def _solve_cyclic_tridiag(dl, dd, du, cl, cu, b):
    # Sherman-Morrison: both right-hand sides, b and u, in one solve; the
    # solve works in dl, dd and du, and leaves b alone
    n = len(dd)
    gamma = -dd[0]
    dd[0] -= gamma
    dd[-1] -= cl * cu / gamma
    rhs = np.zeros((n, 2), order="F")
    rhs[:, 0] = b
    rhs[0, 1], rhs[-1, 1] = gamma, cu
    y, z = _gtsv(dl[1:], dd, du[:-1], rhs).T
    vy = y[0] + cl / gamma * y[-1]
    vz = z[0] + cl / gamma * z[-1]
    return y - z * (vy / (1.0 + vz))


def _newton_step(h, p, lam, grid, w, res, c):
    # the Jacobian rows are (dl, dd, du) = (-a - b, lam + 2b, a - b) with
    # a = dH/dp (p + c) / (2 dx) and b = theta / (2 dx); -b - a rounds as
    # -a - b does, so every entry is the one the row formulas give
    dx, theta = grid.dx, grid.theta
    pc = p + c
    eps = 1e-7 * (1.0 + np.abs(pc).max())
    a = (h(pc + eps) - h(pc - eps)) / (2.0 * eps) / (2.0 * dx)
    b = theta / (2.0 * dx)
    dd = np.full(len(w), lam + theta / dx)
    dl = -b - a
    du = a - b
    if grid.periodic:
        delta = _solve_cyclic_tridiag(dl, dd, du, dl[0], du[-1], res)
    else:
        # edge rows from the zero-slope ghosts: still M-rows; their
        # off-diagonals du[0] and dl[-1] are the interior ones.  The
        # residual is the caller's: LAPACK works in a copy
        dd[0] = lam + b - a[0]
        dd[-1] = lam + b + a[-1]
        delta = _gtsv(dl[1:], dd, du[:-1], res.copy())
    return w - delta


def explicit_step(h, p, lam, grid, w):
    """One monotone pseudo-time update w - dt * (lam w + Hhat), with ``h``
    the field frozen at the grid nodes (``field.at(grid.nodes())``)."""
    res, _ = _operator(h, p, lam, grid, w)
    return w - grid.dt(lam) * res


def _red_black_sweep(h, h_edges, p, lam, grid, w):
    # The LF pointwise equation is linear in w_i, so each half-sweep is an
    # exact nodal solve; this repairs kink configurations Newton thrashes on.
    # Red nodes are the even indices.  The neighbours w_{i-1}, w_{i+1} wrap
    # around on a torus; otherwise each edge node is its own (zero-slope)
    # ghost and is left to the ghost-row updates below.  h is frozen at all
    # nodes, h_edges at the first and last (unused when periodic).
    dx, th = grid.dx, grid.theta
    w = w.copy()
    denom = lam + th / dx
    red = np.arange(len(w)) % 2 == 0
    inner = np.ones(len(w), dtype=bool)
    inner[[0, -1]] = grid.periodic
    left, right = (-1, 0) if grid.periodic else (0, -1)
    for nodes in (red & inner, ~red & inner):
        wm = np.concatenate([w[[left]], w[:-1]])
        wp = np.concatenate([w[1:], w[[right]]])
        new = (th * (wp + wm) / (2 * dx) - h(p + (wp - wm) / (2 * dx))) / denom
        w[nodes] = new[nodes]
    if grid.periodic:
        # a constant shift moves the residual by exactly lam * shift: solve
        # the zero mode directly (the torus has no boundary to anchor it)
        res, _ = _operator(h, p, lam, grid, w)
        return w - float(np.mean(res)) / lam
    # edge rows (zero-slope ghost) are scalar-monotone: relaxed updates; the
    # two rows share no unknown, so both are updated at once
    tau = 1.0 / denom
    for _ in range(2):
        q0, qn = (w[1] - w[0]) / dx, (w[-1] - w[-2]) / dx
        h0, hn = h_edges(np.array([p + 0.5 * q0, p + 0.5 * qn]))
        w[0] -= tau * (lam * w[0] + h0 - 0.5 * th * q0)
        w[-1] -= tau * (lam * w[-1] + hn + 0.5 * th * qn)
    return w


def _frozen(field, grid, xs):
    """(h, h_edges): ``field`` frozen at the nodes ``xs`` of ``grid`` and,
    on a window, at its two end nodes (None on a torus).  Built once per
    (field, node grid) and kept with the field's probes, so the nested
    levels, lam values and tilts of a task share them.  The node count
    and the period of a torus, or dx of a window, fix the nodes to the
    bit; the end nodes are keyed by their own bytes, so windows of
    different dx that end at the same two points share one evaluator."""
    if grid.periodic:
        return field.frozen_at(("torus", len(xs), grid.period), xs), None
    ends = xs[[0, -1]]
    return (field.frozen_at(("window", len(xs), grid.dx), xs),
            field.frozen_at(("edges", ends.tobytes()), ends))


def _coarse(grid):
    """The grid of the nested coarse level of a cold solve on ``grid``
    (dx doubled), or None when ``grid`` has too few nodes to nest."""
    if len(grid.nodes()) <= 128:
        return None
    return replace(grid, dx=grid.dx * 2)


def solve_discounted(field, p, lam, grid, w0=None, verify_steps=12):
    """Steady state of the discounted LF scheme; Diverged on failure.

    Cold starts are warmed by nested iteration: the same problem is solved
    on dyadically coarsened grids first and prolonged, which settles the
    kink configuration before the fine grid sees it.  The result is
    certified by ``verify_steps`` explicit monotone updates: the residual
    of the returned iterate must stay at tolerance under the very scheme
    whose fixed point is claimed.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    xs = grid.nodes()
    coarse = _coarse(grid) if w0 is None else None
    if coarse is not None:
        sol_c = solve_discounted(field, p, lam, coarse, verify_steps=0)
        w0 = prolong(sol_c.x_full, sol_c.w_full, grid)
    h, h_edges = _frozen(field, grid, xs)
    h_p = h(p)
    if w0 is None:
        w = np.full(len(xs), -float(np.mean(h_p)) / lam)
    else:
        w = np.asarray(w0, dtype=np.float64).copy()
        if len(w) != len(xs):
            raise ValueError("w0 does not match the grid")
    # float64 noise floor of the residual: differencing w of size |w| ~ H/lam
    # against theta/dx cannot do better than this
    scale_h = float(np.abs(h_p).max())
    eps64 = np.finfo(np.float64).eps
    floor = 64.0 * eps64 * (grid.theta / grid.dx * max(1.0, np.max(np.abs(w)))
                            + scale_h)
    tol = max(grid.tol_res, floor)
    trace = []
    res, c = _operator(h, p, lam, grid, w)
    rnorm = float(np.abs(res).max())
    iters = 0
    for outer in range(60):
        for _ in range(200):
            if rnorm <= tol:
                break
            d = _newton_step(h, p, lam, grid, w, res, c) - w
            # damped acceptance: take the best candidate along the halvings
            step, best = 1.0, None
            for k in range(12):
                cand = w + step * d if k else w + d
                res_c, c_c = _operator(h, p, lam, grid, cand)
                rc = float(np.abs(res_c).max())
                if best is None or rc < best[0]:
                    best = (rc, cand, res_c, c_c)
                if rc < rnorm * (1.0 - 0.25 * step) or rc <= tol:
                    break
                step *= 0.5
            if best[0] >= rnorm * (1.0 - 1e-12):
                break
            rnorm, w, res, c = best
            iters += 1
            trace.append(rnorm)
        if rnorm <= tol:
            break
        # Newton stagnated on a kink configuration: exact nodal relaxation
        for _ in range(40):
            w = _red_black_sweep(h, h_edges, p, lam, grid, w)
        res, c = _operator(h, p, lam, grid, w)
        rnorm = float(np.abs(res).max())
        iters += 40
        trace.append(rnorm)
    if rnorm > tol:
        raise Diverged(f"residual {rnorm:.3g} > tol {tol:.3g} "
                       f"after {iters} iterations", trace)
    w_newton = w
    for _ in range(verify_steps):
        w = explicit_step(h, p, lam, grid, w)
    res, _ = _operator(h, p, lam, grid, w)
    rnorm = float(np.abs(res).max())
    if rnorm > 4.0 * tol:
        raise Diverged(
            f"explicit verification drifted to residual {rnorm:.3g}", trace)

    core = (np.ones(len(xs), dtype=bool) if grid.periodic
            else np.abs(xs) <= grid.X + 1e-12)
    dgrad = (np.diff(w) / grid.dx)[core[:-1] & core[1:]]
    return DiscountedSolution(
        x=xs[core], v=w[core], x_full=xs, w_full=w, p=float(p), lam=float(lam),
        residual=rnorm, grad_range=(float(dgrad.min()), float(dgrad.max())),
        grid=grid, iterations=iters, w_newton=w_newton)


def prolong(xs_c, w_c, grid):
    """Linear interpolation of the values w_c at the nodes xs_c onto the
    nodes of ``grid``, wrapping around the period on a torus."""
    if grid.periodic:
        xs_c = np.concatenate([xs_c, [grid.period]])
        w_c = np.concatenate([w_c, w_c[:1]])
    return np.interp(grid.nodes(), xs_c, w_c)


# ---------------------------------------------------------------------------
# grid policy and the lam -> 0 limit
# ---------------------------------------------------------------------------

def default_grid_policy(field, p, lam, R, dx):
    """Grid for one (p, lam) solve.

    A dx of None gives min(1e-2, cell/64) so at least 64 nodes resolve one
    period or cell.  theta is the probed p-Lipschitz bound over the
    reachable gradient range |p + v'| <= coercivity_radius(sup|H(p, .)|),
    plus slack.  Deterministic periodic fields solve one period exactly;
    random media get the window X = R / lam with a 10 dx pad.
    """
    if dx is None:
        dx = min(1e-2, field.cell / 64.0)
    m0 = field.sup_abs_on(p)
    r = field.coercivity_radius(m0 + 0.5)
    theta = field.lipschitz_on(r + 0.25)
    tol = 1e-9 * (1.0 + m0)
    if field.period is not None:
        return SolverGrid(X=field.period / 2, dx=dx, theta=theta,
                          tol_res=tol, period=field.period)
    return SolverGrid(X=R / lam, dx=dx, theta=theta, tol_res=tol, pad=10 * dx)


@dataclass
class HbarEstimate:
    """Trend-extrapolated effective Hamiltonian value at one tilt p."""

    p: float
    value: float
    dispersion: float
    rows: list                     # CSV rows per (lam, seed)


def _by_seed(fields):
    """``fields`` as a {seed: field} map; a lone field is seed 0."""
    return {0: fields} if isinstance(fields, HamiltonianField) else fields


def estimate_hbar(fields, p, lam_schedule=LAMBDA_SCHEDULE, R=2.0, *, dx):
    """Estimate Hbar(p) = lim -lam v_lam(0) along a decreasing lam schedule.

    ``fields`` maps each seed to its realization; a lone field is seed 0.
    Per seed, per-lam values are fitted linearly in lam and the intercept
    extrapolated; the dispersion combines the cross-seed spread, the fit
    residual, and the first-order truncation lam_min*|b|/2.
    A non-monotone trend beyond tolerance raises the NoisyLimit warning
    but the estimate is still returned.

    Deterministic realizations read -lam v(0); random ones read the
    core-window average of -lam v, which has the same limit (the definition
    gives uniform convergence on |x| <= R/lam) and much smaller variance.
    Each solve uses the ``default_grid_policy`` grid; a deterministic
    solve is warm-started from the previous lam's solution when the two
    grids are equal, which holds exactly on a torus.

    The discretization term comes from a dx/2 solve of the first seed's
    lam_min problem, on that solve's grid with dx halved.  Its nested
    coarse level is that lam_min grid, so when that solve was cold it
    starts from the prolonged Newton iterate (``w_newton``) instead of
    solving the coarse level again; the result is the same to the bit.
    """
    lam_schedule = tuple(lam_schedule)
    if len(lam_schedule) < 3 or any(
            b >= a for a, b in zip(lam_schedule, lam_schedule[1:])):
        raise ValueError("lam_schedule must be strictly decreasing, >= 3 entries")
    fields = _by_seed(fields)
    first = next(iter(fields.values()))

    def read(sol):
        return sol.minus_lambda_v0 if first.deterministic \
            else sol.minus_lambda_v_mean

    trends, rows = [], []
    for seed, f in fields.items():
        vals, prev = [], None
        for lam in lam_schedule:
            grid = default_grid_policy(f, p, lam, R=R, dx=dx)
            w0 = None
            # warm starts across lam help deterministic solves; on random
            # realizations they pin stale kink configurations, where the
            # nested-cold hierarchy is both faster and more robust.  Only a
            # torus grid is the same at every lam
            if f.deterministic and prev is not None and grid == prev.grid:
                w0 = prev.w_full - vals[-1] * (1.0 / lam - 1.0 / prev.lam)
            try:
                sol = solve_discounted(f, p, lam, grid, w0=w0)
            except Diverged as exc:
                if w0 is None:
                    raise
                warnings.warn(f"warm-started solve diverged at p={p:.4g}, "
                              f"lam={lam:.4g}, seed={seed} ({exc}); "
                              f"solved again cold", WarmStartRetried)
                w0 = None
                sol = solve_discounted(f, p, lam, grid, w0=w0)
            vals.append(read(sol))
            rows.append((p, lam, seed, sol.minus_lambda_v0, sol.residual,
                         sol.grad_range[0], sol.grad_range[1]))
            prev = sol
        trends.append(vals)
        if f is first:
            # the first seed's lam_min solve, its value and whether it was cold
            sol_min, val_min, cold_min = sol, vals[-1], w0 is None
    lams = np.asarray(lam_schedule)
    intercepts, resids, slopes, monotone = [], [], [], []
    for ys in map(np.asarray, trends):
        b, a = np.polyfit(lams, ys, 1)
        intercepts.append(float(a))
        resids.append(float(np.max(np.abs(a + b * lams - ys))))
        slopes.append(abs(float(b)))
        diffs = np.diff(ys)
        monotone.append(np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12))
    value = float(np.mean(intercepts))
    spread = float(np.ptp(intercepts)) if len(intercepts) > 1 else 0.0
    resid = float(np.max(resids))
    truncation = 0.5 * max(slopes) * lams[-1]
    # discretization uncertainty: first-order Richardson from a dx/2 solve
    # of the smallest-lam problem, first seed: bias(dx) ~ 2 |val - val_half|
    grid_h = replace(sol_min.grid, dx=sol_min.grid.dx * 0.5)
    w0 = None
    if cold_min and _coarse(grid_h) == sol_min.grid:
        # the dx/2 solve's nested coarse level is that cold lam_min solve:
        # start from its Newton iterate instead of solving it again
        w0 = prolong(sol_min.x_full, sol_min.w_newton, grid_h)
    sol_h = solve_discounted(first, p, sol_min.lam, grid_h, w0=w0)
    discretization = 2.0 * abs(val_min - read(sol_h))
    dispersion = spread + resid + truncation + discretization
    if not all(monotone) and resid > 0.02 * (1.0 + abs(value)):
        warnings.warn(f"non-monotone discounted trend at p={p:.4g}", NoisyLimit)
    return HbarEstimate(p=float(p), value=value, dispersion=float(dispersion),
                        rows=rows)
