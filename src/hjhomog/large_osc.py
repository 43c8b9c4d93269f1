"""Effective Hamiltonians of large-oscillation index (0, L) fields via
admissible functions.

At a level mu >= 0 the line decomposes at the points where mu meets a
local-extremum process (crossings and tangential touches).  On each piece
an admissible function rides one branch inverse at level mu; junctions
obey the one-dimensional viscosity corner rules: an upward gradient jump
needs H >= mu across the gap, a downward jump needs H <= mu.  Dynamic
programming over the junction chain yields the extremal selections, whose
window averages bound the flat level set I_mu of the effective
Hamiltonian.  A Perron-style homotopy interpolates between the extremal
selections to realize any mean inside I_mu, and the negative side comes
from the inverse of the single decreasing branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .curve import EffectiveCurve
# _INVPHI stays importable here for the reference root scan the tests keep
from .env import _INVPHI, golden_min  # noqa: F401
from .errors import (ClusterSuspected, LevelSetConflict,
                     NormalizationViolated, NotApplicable,
                     NotPointwiseExtremal)
from .structure import TOL_INV, branch_feasible, branch_inverse_grid

BUFFER_CELLS = 5


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

@dataclass
class AdmissibleDecomposition:
    mu: float
    window: tuple
    junctions: np.ndarray          # sorted, interior to the window
    intervals: list                # [(a, b)] covering the window
    feasible: list                 # set of branch ids per interval
    trivial_branch: int | None = None


def _scan_roots(gfun, g, xs, mu, tol_touch):
    """Crossings (bisection-refined against the process callable, all sign
    flips at once) and tangential touches (local extrema within tol of the
    level, all refined in one array ``golden_min`` and kept where the
    refined value is still within tol).  High-accuracy locations matter:
    the corner rule at a junction holds only up to the process slope times
    the location error.  ``gfun`` must accept an array of x.
    """
    d = g - mu
    s = np.sign(d)
    flips = np.nonzero(s[:-1] * s[1:] < 0)[0]
    lo, hi = xs[flips], xs[flips + 1]
    up = d[flips] > 0
    for _ in range(60 if len(flips) else 0):
        mid = 0.5 * (lo + hi)
        dm = gfun(mid) - mu
        # an exact zero sets lo = hi = mid, which every later step keeps
        zero = dm == 0.0
        lo = np.where(zero | ((dm > 0) == up), mid, lo)
        hi = np.where(zero | ((dm > 0) != up), mid, hi)
    roots = list(0.5 * (lo + hi))
    interior = np.arange(1, len(xs) - 1)
    is_ext = ((d[interior] - d[interior - 1]) * (d[interior + 1] - d[interior])
              <= 0.0)
    near = np.abs(d[interior]) <= tol_touch
    no_cross = (s[interior - 1] * s[interior] >= 0) & \
               (s[interior] * s[interior + 1] >= 0)
    i = interior[is_ext & near & no_cross]
    if len(i):
        # +1 refines a local maximum of the process, -1 a minimum
        sign = np.where((d[i] >= d[i - 1]) | (d[i] >= d[i + 1]), 1.0, -1.0)
        x_star = golden_min(lambda x: -sign * gfun(x), xs[i - 1], xs[i + 1],
                            80)
        roots.extend(x_star[np.abs(gfun(x_star) - mu) <= tol_touch].tolist())
    return roots


def admissible_decomposition(field, structure, mu, window):
    """Junctions and per-interval feasible branch sets at level mu.

    Outside the intermediate band the decomposition is trivial: a single
    interval riding branch 1 (mu above the esssup of the max process) or
    branch 2L+1 (mu below the essinf of the min process when that is
    nonnegative).  The processes are scanned at 64 points per cell;
    junctions closer than 1e-4 times the window raise ClusterSuspected.
    """
    if structure.index[0] != 0:
        raise NotApplicable("admissible machinery assumes index (0, L)")
    Lt, L = structure.index
    x_lo, x_hi = window
    if L == 0:
        return AdmissibleDecomposition(mu, window, np.empty(0),
                                       [(x_lo, x_hi)], [{1}],
                                       trivial_branch=1)
    dx_root = field.cell / 64.0
    W = x_hi - x_lo
    sep_min = 1e-4 * W
    xs = np.arange(x_lo, x_hi + dx_root * 0.5, dx_root)
    pos_min = structure.positive_minima()
    pos_max = structure.positive_maxima()
    m_vals = field.evaluate(pos_min[:, None], xs[None, :])
    M_vals = field.evaluate(pos_max[:, None], xs[None, :])
    M_bar = float(M_vals.max())
    m_low = float(m_vals.min())
    nb = 2 * L + 1
    if mu >= M_bar:
        return AdmissibleDecomposition(mu, window, np.empty(0),
                                       [(x_lo, x_hi)], [{1}], trivial_branch=1)
    if m_low >= 0.0 and mu <= m_low:
        return AdmissibleDecomposition(mu, window, np.empty(0),
                                       [(x_lo, x_hi)], [{nb}],
                                       trivial_branch=nb)
    span = float(max(M_vals.max() - m_vals.min(), 1.0))
    tol_touch = 1e-6 * span + _max_step(m_vals, M_vals)
    roots = []
    for k, p_ext in enumerate(np.concatenate([pos_min, pos_max])):
        g = m_vals[k] if k < len(pos_min) else M_vals[k - len(pos_min)]
        gfun = partial(field.evaluate, float(p_ext))
        roots.extend(_scan_roots(gfun, g, xs, mu, tol_touch))
    roots = np.sort(np.asarray(roots))
    roots = roots[(roots > x_lo + 1e-9 * W) & (roots < x_hi - 1e-9 * W)]
    if len(roots) >= 2:
        gaps = np.diff(roots)
        if np.min(gaps) < sep_min:
            k = int(np.argmin(gaps))
            raise ClusterSuspected(
                f"junctions at x={roots[k]:.6g} and x={roots[k + 1]:.6g} "
                f"are closer than sep_min={sep_min:.3g} at level mu={mu:.6g}")
    edges = np.concatenate([[x_lo], roots, [x_hi]])
    keep = np.diff(edges) > 1e-12
    a_s, b_s = edges[:-1][keep], edges[1:][keep]
    intervals = [(float(a), float(b)) for a, b in zip(a_s, b_s)]
    # the 7 interior probes of every interval, one inversion per branch
    probes = np.linspace(a_s, b_s, 9, axis=1)[:, 1:-1]
    ok = [branch_feasible(field, structure, j, probes, mu).all(axis=1)
          for j in range(1, nb + 1)]
    feasible = [{j for j in range(1, nb + 1) if ok[j - 1][i]}
                for i in range(len(intervals))]
    for (a, b), fs in zip(intervals, feasible):
        if not fs:
            raise ClusterSuspected(
                f"no branch feasible throughout ({a:.6g}, {b:.6g}) at "
                f"mu={mu:.6g}: a junction was likely missed")
    return AdmissibleDecomposition(mu, window, roots, intervals, feasible)


def _max_step(m_vals, M_vals):
    steps = [np.max(np.abs(np.diff(g))) for g in list(m_vals) + list(M_vals)]
    return 0.75 * float(max(steps))


# ---------------------------------------------------------------------------
# junction calculus
# ---------------------------------------------------------------------------

def junction_compatible(field, structure, mu, a, k_left, k_right):
    """Viscosity corner rule at x = a for the jump from branch k_left to
    k_right on 33 gap points: upward jumps need H >= mu - tol on the gap,
    downward jumps H <= mu + tol (tol as in ``_pair_legality``), equal
    values are free."""
    legal = _pair_legality(field, structure, mu, np.array([float(a)]),
                           [k_left, k_right], n_gap=33)
    return bool(legal[(k_left, k_right)][0])


def corner_gap(field, nodes, q_minus, q_plus, n_gap):
    """(min, max) at each node x of H(q, x) over the n_gap gap points
    q = q_minus + t (q_plus - q_minus), t in [0, 1]: the values the
    viscosity corner rule tests across a gradient jump."""
    ts = np.linspace(0.0, 1.0, n_gap)
    gap = q_minus[None, :] + ts[:, None] * (q_plus - q_minus)[None, :]
    vals = field.evaluate(gap, nodes[None, :])
    return vals.min(axis=0), vals.max(axis=0)


# ---------------------------------------------------------------------------
# admissible functions and the extremal DP
# ---------------------------------------------------------------------------

@dataclass
class SlopeFunction:
    """A sampled gradient selection (not necessarily single-branch)."""

    mu: float
    x_mid: np.ndarray              # cell midpoints
    widths: np.ndarray             # cell widths
    slopes: np.ndarray             # the gradient at the midpoints
    core: np.ndarray               # midpoints the mean averages over
    cell_branch: np.ndarray        # branch id per cell, -1 where unknown

    def mean(self):
        c = self.core
        return float(np.sum(self.slopes[c] * self.widths[c])
                     / np.sum(self.widths[c]))


@dataclass
class AdmissibleFunction(SlopeFunction):
    """Branch selection per decomposition interval on the junction-snapped
    window grid, with slopes psi_{branch}(mu) and the core outside the edge
    buffers."""

    decomposition: AdmissibleDecomposition
    branches: list                 # branch id per interval
    interval_of: np.ndarray        # interval index per midpoint
    structure: object


def _window_grid(field, window, junctions=(), samples_per_cell=16):
    """Cell midpoints and widths over the window, with every junction
    snapped to a cell edge so branch integrals never straddle a switch."""
    cell = field.cell
    x_lo, x_hi = window
    n = max(int(round((x_hi - x_lo) / cell)) * samples_per_cell, 64)
    edges = np.linspace(x_lo, x_hi, n + 1)
    if len(junctions):
        edges = np.unique(np.concatenate([edges, np.asarray(junctions)]))
        edges = edges[(edges >= x_lo) & (edges <= x_hi)]
    keep = np.concatenate([[True], np.diff(edges) > 1e-12])
    edges = edges[keep]
    mid = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    buf = BUFFER_CELLS * cell
    core = (mid >= x_lo + buf) & (mid <= x_hi - buf)
    return mid, widths, core


def _branch_tables(field, structure, mu, x_mid):
    _, L = structure.index
    nb = 2 * L + 1
    psi = np.full((nb + 1, len(x_mid)), np.nan)
    feas = np.zeros((nb + 1, len(x_mid)), dtype=bool)
    for j in range(1, nb + 1):
        psi[j], feas[j] = branch_inverse_grid(field, structure, j, x_mid, mu)
    return psi, feas


@dataclass
class _LevelTables:
    """What both extremal selections at one level read: the junction-snapped
    window grid, every branch's inverse on it, the legality of each
    junction, each interval's cells as a slice (``interval_of`` is sorted),
    the per-interval leaf weights and the branches on complete legal
    chains."""

    decomposition: AdmissibleDecomposition
    x_mid: np.ndarray
    widths: np.ndarray
    core: np.ndarray
    psi: np.ndarray
    legal: list
    interval_of: np.ndarray
    cells: list
    weights: np.ndarray
    okleaf: np.ndarray
    on_chain: list


def _level_tables(field, structure, mu, window, decomp):
    x_mid, widths, core = _window_grid(field, window, decomp.junctions)
    psi, feas = _branch_tables(field, structure, mu, x_mid)
    # legal[i][(j, j2)]: the jump j -> j2 at junction i is admissible
    legal, fs = [], decomp.feasible
    if len(decomp.junctions):
        pair = _pair_legality(field, structure, mu,
                              np.asarray(decomp.junctions, dtype=np.float64),
                              sorted(set().union(*fs)))
        legal = [{(j, j2): j == j2 or bool(pair[(j, j2)][i])
                  for j in fs[i] for j2 in fs[i + 1]}
                 for i in range(len(decomp.junctions))]
    n_int = len(decomp.intervals)
    iv = np.searchsorted(
        [b for _, b in decomp.intervals[:-1]], x_mid, side="right")
    starts = np.searchsorted(iv, np.arange(n_int + 1))
    cells = [slice(s, e) for s, e in zip(starts[:-1], starts[1:])]
    weights = np.zeros((n_int, psi.shape[0]))
    okleaf = np.zeros((n_int, psi.shape[0]), dtype=bool)
    for i, c in enumerate(cells):
        for j in decomp.feasible[i]:
            # an interval without cells takes any branch at weight 0
            okleaf[i, j] = feas[j, c].all()
            if okleaf[i, j]:
                weights[i, j] = float(np.sum(psi[j, c] * widths[c]))
    return _LevelTables(decomp, x_mid, widths, core, psi, legal, iv, cells,
                        weights, okleaf,
                        _chain_branches(decomp.feasible, legal))


def extremal_admissible(field, structure, mu, window, sense="sup",
                        decomposition=None):
    """The extremal admissible selection at level mu by DP over the
    junction chain, maximizing (sense="sup") or minimizing ("inf") the
    integral; the result is checked against every branch on a complete
    legal junction chain, surfacing NotPointwiseExtremal where one beats
    it."""
    decomp = decomposition or admissible_decomposition(field, structure, mu,
                                                       window)
    return _extremal_dp(
        _level_tables(field, structure, mu, window, decomp), structure, mu,
        sense)


def extremal_pair(field, structure, mu, window):
    """(decomposition, f_inf, f_sup) at level mu: one decomposition and one
    set of level tables, read by the DP once per sense, so each selection
    equals ``extremal_admissible``'s for its sense with half the branch
    inversions."""
    decomp = admissible_decomposition(field, structure, mu, window)
    tables = _level_tables(field, structure, mu, window, decomp)
    return (decomp, _extremal_dp(tables, structure, mu, "inf"),
            _extremal_dp(tables, structure, mu, "sup"))


def _extremal_dp(t, structure, mu, sense):
    decomp = t.decomposition
    sign = 1.0 if sense == "sup" else -1.0
    NEG = -1e30
    score = {j: (sign * t.weights[0, j] if t.okleaf[0, j] else NEG)
             for j in decomp.feasible[0]}
    back = []
    for i in range(1, len(decomp.intervals)):
        nxt, arg = {}, {}
        for j2 in decomp.feasible[i]:
            best, bj = NEG, None
            for j, s in score.items():
                if s <= NEG / 2 or not t.legal[i - 1].get((j, j2), False):
                    continue
                if s > best:
                    best, bj = s, j
            if not t.okleaf[i, j2]:
                best = NEG
            nxt[j2] = (best + sign * t.weights[i, j2]) if bj is not None \
                else NEG
            arg[j2] = bj
        back.append(arg)
        score = nxt
    if all(v <= NEG / 2 for v in score.values()):
        raise NotApplicable(f"no admissible chain at mu={mu:.6g}")
    jend = max(score, key=score.get)
    branches = [jend]
    for arg in reversed(back):
        branches.append(arg[branches[-1]])
    branches.reverse()
    cell_branch = np.asarray(branches, dtype=np.int64)[t.interval_of]
    out = AdmissibleFunction(
        mu=mu, x_mid=t.x_mid, widths=t.widths,
        slopes=t.psi[cell_branch, np.arange(len(t.x_mid))], core=t.core,
        cell_branch=cell_branch, decomposition=decomp, branches=branches,
        interval_of=t.interval_of, structure=structure)
    _assert_pointwise_extremal(out, t, sense)
    return out


def _chain_branches(feasible, legal):
    """Per interval, the set of branches that lie on some complete legal
    junction chain: a forward pass from feasible[0] through legal, then a
    backward pass from the last interval."""
    on_chain = [set(feasible[0])]
    for i in range(1, len(feasible)):
        on_chain.append({j2 for j2 in feasible[i] if any(
            legal[i - 1].get((j, j2), False) for j in on_chain[-1])})
    for i in range(len(feasible) - 2, -1, -1):
        on_chain[i] = {j for j in on_chain[i] if any(
            legal[i].get((j, j2), False) for j2 in on_chain[i + 1])}
    return on_chain


def _assert_pointwise_extremal(fn, t, sense):
    sign = 1.0 if sense == "sup" else -1.0
    tol = 1e-9 * (1.0 + np.nanmax(np.abs(t.psi)))
    for i, (c, on_chain) in enumerate(zip(t.cells, t.on_chain)):
        for j in sorted(on_chain):
            if np.any(sign * (t.psi[j, c] - fn.slopes[c]) > tol):
                raise NotPointwiseExtremal(
                    f"alternative branch {j} beats the {sense}-extremal "
                    f"selection on interval {i} at mu={fn.mu:.6g}")


# ---------------------------------------------------------------------------
# viscosity residual
# ---------------------------------------------------------------------------

def viscosity_residual(field, fn):
    """Interior residual max |H(f(x), x) - mu| at the level mu of ``fn``
    plus quantified corner violations at the junctions (33 gap points)."""
    return generic_viscosity_residual(
        field, fn.x_mid, fn.slopes, fn.mu, fn.widths, n_gap=33,
        structure=fn.structure, cell_branch=fn.cell_branch)


# ---------------------------------------------------------------------------
# homotopy between admissible functions
# ---------------------------------------------------------------------------

def generic_viscosity_residual(field, x_mid, slopes, mu, widths=None,
                               n_gap=17, structure=None, cell_branch=None):
    """Residual of an arbitrary sampled slope selection: interior
    |H(f, x) - mu| plus corner-rule violations at slope discontinuities.

    Corners sit at cell edges (junction locations on junction-snapped
    grids).  When the per-cell branch ids are known, the gap endpoints are
    the exact branch inverses at the edge; otherwise the adjacent cell
    slopes stand in, which is only accurate to the process modulus over
    half a cell."""
    interior = float(np.max(np.abs(field.evaluate(slopes, x_mid) - mu)))
    if widths is None:
        edges = 0.5 * (x_mid[:-1] + x_mid[1:])
    else:
        edges = x_mid + 0.5 * np.asarray(widths)
    jumps = np.nonzero(np.abs(np.diff(slopes)) > 1e-7)[0]
    xj, q_minus, q_plus = edges[jumps], slopes[jumps], slopes[jumps + 1]
    keep = np.ones(len(jumps), dtype=bool)
    if structure is not None and cell_branch is not None:
        for i, k in enumerate(jumps):
            j_l, j_r = int(cell_branch[k]), int(cell_branch[k + 1])
            if j_l <= 0 or j_r <= 0:
                continue
            if j_l == j_r:
                keep[i] = False
                continue
            at = xj[i:i + 1]
            qm, fm = branch_inverse_grid(field, structure, j_l, at, mu)
            qp, fp = branch_inverse_grid(field, structure, j_r, at, mu)
            if fm[0] and fp[0]:
                q_minus[i], q_plus[i] = qm[0], qp[0]
    keep &= np.abs(q_plus - q_minus) > 1e-10
    xj, q_minus, q_plus = xj[keep], q_minus[keep], q_plus[keep]
    h_min, h_max = corner_gap(field, xj, q_minus, q_plus, n_gap)
    violation = np.where(q_plus > q_minus, mu - h_min, h_max - mu)
    return interior + float(np.max(violation, initial=0.0))


def _pair_legality(field, structure, mu, nodes, branches, n_gap=17,
                   rule="solution"):
    """legal[(j, j2)][k]: the (j -> j2) jump at nodes[k] obeys the corner
    rule up to tol = 1e-6 (1 + |mu|) + 10 TOL_INV; vectorized over the
    nodes.

    rule "solution": upward jumps need H >= mu on the gap, downward jumps
    H <= mu.  rule "sub": viscosity subsolutions admit any upward jump
    (no test function touches a convex kink from above), downward jumps
    still need H <= mu.
    """
    tol = 1e-6 * (1.0 + abs(mu)) + 10.0 * TOL_INV
    inv = {j: branch_inverse_grid(field, structure, j, nodes, mu)
           for j in branches}
    legal = {}
    for j in branches:
        qj, fj = inv[j]
        for j2 in branches:
            if j == j2:
                # no jump: legal wherever the branch reaches the level
                legal[(j, j)] = fj.copy()
                continue
            q2, f2 = inv[j2]
            ok = fj & f2
            same = ok & (np.abs(q2 - qj) <= 1e-10)
            h_min, h_max = corner_gap(field, nodes, qj, q2, n_gap)
            up = ok & (q2 > qj)
            if rule != "sub":
                up &= h_min >= mu - tol
            down = ok & (q2 < qj) & (h_max <= mu + tol)
            legal[(j, j2)] = same | up | down
    return legal


def homotopy_interpolant(field, structure, mu, f1, f2, interval, c,
                         incoming_branch=None):
    """Perron interpolant between admissible selections of one realization
    on one interval.

    Given f1 >= f2 on I = (a, b) with primitives u1, u2 (u_i(a) = 0) and a
    target c in [u2(b), u1(b)], the maximal subsolution pinched between
    the barriers max(u2, u1 - u1(b) + c) and min(u1, u2 - u2(b) + c) is
    built by dynamic programming over branch rides with corner-legal
    switches; its endpoint values are exact and its slopes satisfy the
    level equation up to the corner tolerances.  The branch and legality
    tables do not depend on c: ``level_piece_function`` builds them once
    per interval and reruns only the DP for each target.
    """
    tables = _homotopy_tables(field, structure, mu, f1, interval)
    return _perron(field, structure, mu, tables, f1, f2, c, incoming_branch)


def _homotopy_tables(field, structure, mu, f1, interval):
    """(sel, psi, feasible, legal) on the cells of f1's grid inside the
    interval: every branch's inverse at the midpoints and its subsolution
    legality at the cell edges, since rides may pass through branches
    neither endpoint selection uses."""
    a, b = interval
    sel = (f1.x_mid >= a - 1e-12) & (f1.x_mid <= b + 1e-12)
    if not sel.any():
        raise ValueError("interval contains no grid cells")
    x_mid, wid = f1.x_mid[sel], f1.widths[sel]
    nodes = np.concatenate([[a], x_mid[:-1] + 0.5 * wid[:-1], [b]])
    psi, feas = _branch_tables(field, structure, mu, x_mid)
    legal = _pair_legality(field, structure, mu, nodes,
                           list(range(1, len(psi))), rule="sub")
    return sel, psi, feas, legal


def _perron(field, structure, mu, tables, f1, f2, c, incoming_branch):
    sel, psi, feas, legal = tables
    x_mid = f1.x_mid[sel]
    wid = f1.widths[sel]
    s1, s2 = f1.slopes[sel], f2.slopes[sel]
    if np.any(s1 < s2 - 1e-9):
        raise ValueError("barriers crossed: f1 < f2 inside the interval")
    u1 = np.concatenate([[0.0], np.cumsum(s1 * wid)])
    u2 = np.concatenate([[0.0], np.cumsum(s2 * wid)])
    if not (u2[-1] - 1e-9 <= c <= u1[-1] + 1e-9):
        raise ValueError(f"target c={c:.6g} outside [{u2[-1]:.6g}, {u1[-1]:.6g}]")
    c = float(np.clip(c, u2[-1], u1[-1]))
    scale = 1.0 + abs(u1[-1]) + abs(u2[-1])
    if abs(c - u1[-1]) <= 1e-12 * scale or abs(c - u2[-1]) <= 1e-12 * scale:
        src_fn = f1 if abs(c - u1[-1]) <= 1e-12 * scale else f2
        return SlopeFunction(mu=mu, x_mid=x_mid, widths=wid,
                             slopes=src_fn.slopes[sel].copy(),
                             core=np.ones(len(x_mid), dtype=bool),
                             cell_branch=src_fn.cell_branch[sel])
    u_star = np.minimum(u1, u2 - u2[-1] + c)
    u_low = np.maximum(u2, u1 - u1[-1] + c)

    b1 = f1.cell_branch[sel]
    branch_ids = list(range(1, len(psi)))
    if incoming_branch is None:
        incoming_branch = int(b1[0])
    out_branch = int(b1[-1])

    # Two-pass DP over subsolution rides between the barriers.
    # A_j(k): largest value at node k reachable from the left on branch j
    # while staying below u*; D_j(k): largest value at node k from which a
    # branch-j continuation can reach b without crossing u*.  The Perron
    # envelope is max(u_low, max_j min(A_j, D_j)).
    NEG = -1e30
    n = len(x_mid)
    A = {j: np.full(n + 1, NEG) for j in branch_ids}
    for j in branch_ids:
        if legal[(incoming_branch, j)][0]:
            A[j][0] = 0.0
    for k in range(n):
        for j2 in branch_ids:
            best = NEG
            for j in branch_ids:
                if A[j][k] <= NEG / 2 or not feas[j, k]:
                    continue
                ridden = A[j][k] + psi[j, k] * wid[k]
                if j == j2 or legal[(j, j2)][k + 1]:
                    best = max(best, ridden)
            A[j2][k + 1] = min(best, u_star[k + 1])
    D = {j: np.full(n + 1, NEG) for j in branch_ids}
    for j in branch_ids:
        if j == out_branch or legal[(j, out_branch)][n]:
            D[j][n] = u_star[n]
    for k in range(n - 1, -1, -1):
        for j in branch_ids:
            if not feas[j, k]:
                continue
            best = NEG
            for j2 in branch_ids:
                if D[j2][k + 1] <= NEG / 2:
                    continue
                if j == j2 or legal[(j, j2)][k + 1]:
                    best = max(best, D[j2][k + 1])
            if best > NEG / 2:
                D[j][k] = min(u_star[k], best - psi[j, k] * wid[k])
    w = u_low.copy()
    for j in branch_ids:
        w = np.maximum(w, np.minimum(A[j], D[j]))
    w = np.minimum(w, u_star)
    slopes = np.diff(w) / wid
    cell_branch = np.full(len(x_mid), -1, dtype=np.int64)
    for j in branch_ids:
        hit = np.abs(slopes - psi[j]) <= 1e-7 * (1.0 + np.abs(psi[j]))
        cell_branch[hit & (cell_branch < 0)] = j
    # a regime switch falling inside a cell leaves one blended slope:
    # split that cell at the integral-preserving crossing so both pieces
    # ride actual branches and the corner is sharp
    xs_out, wd_out, sl_out, cb_out = [], [], [], []
    for k in range(len(x_mid)):
        blended = cell_branch[k] < 0 and 0 < k < len(x_mid) - 1 and \
            cell_branch[k - 1] > 0 and cell_branch[k + 1] > 0 and \
            cell_branch[k - 1] != cell_branch[k + 1]
        if blended:
            jl, jr = int(cell_branch[k - 1]), int(cell_branch[k + 1])
            sl, sr = psi[jl, k], psi[jr, k]
            if abs(sl - sr) > 1e-12:
                x_edge_l = x_mid[k] - 0.5 * wid[k]
                v1v, v2v, w1 = float(sl), float(sr), None
                ok = False
                for _ in range(3):
                    denom = v1v - v2v
                    if abs(denom) < 1e-12:
                        break
                    frac = np.clip((slopes[k] - v2v) / denom, 0.0, 1.0)
                    w1 = float(frac * wid[k])
                    if not (1e-12 < w1 < wid[k] - 1e-12):
                        break
                    m1 = x_edge_l + 0.5 * w1
                    m2 = x_edge_l + w1 + 0.5 * (wid[k] - w1)
                    a1, ok1 = branch_inverse_grid(field, structure, jl,
                                                  np.array([m1]), mu)
                    a2, ok2 = branch_inverse_grid(field, structure, jr,
                                                  np.array([m2]), mu)
                    if not (ok1[0] and ok2[0]):
                        break
                    v1v, v2v = float(a1[0]), float(a2[0])
                    ok = True
                if ok and w1 is not None and abs(v1v - v2v) > 1e-12:
                    # final split preserves the cell integral exactly
                    frac = np.clip((slopes[k] - v2v) / (v1v - v2v), 0.0, 1.0)
                    w1 = float(frac * wid[k])
                    if 1e-12 < w1 < wid[k] - 1e-12:
                        m1 = x_edge_l + 0.5 * w1
                        m2 = x_edge_l + w1 + 0.5 * (wid[k] - w1)
                        xs_out.extend([m1, m2])
                        wd_out.extend([w1, wid[k] - w1])
                        sl_out.extend([v1v, v2v])
                        cb_out.extend([jl, jr])
                        continue
        if wid[k] <= 1e-12:
            continue
        xs_out.append(x_mid[k])
        wd_out.append(wid[k])
        sl_out.append(slopes[k])
        cb_out.append(cell_branch[k])
    return SlopeFunction(mu=mu, x_mid=np.asarray(xs_out),
                         widths=np.asarray(wd_out),
                         slopes=np.asarray(sl_out),
                         core=np.ones(len(xs_out), dtype=bool),
                         cell_branch=np.asarray(cb_out, dtype=np.int64))


# ---------------------------------------------------------------------------
# level sets and level pieces
# ---------------------------------------------------------------------------

def level_sets(field, structure, mu_grid, window_cells=100):
    """I_mu = [mean(f_inf), mean(f_sup)] per level of one realization,
    sorted by mu; an overlap of neighbouring levels up to 1e-9 is split at
    its midpoint and a larger one raises LevelSetConflict.  Each record
    carries "ci": 0.0, as one realization has no cross-seed spread.

    The levels are built in ascending mu and each is checked against the
    one below as soon as it is built, so the first failure in ascending
    mu is the one reported and no level above it is built."""
    window = (0.0, window_cells * field.cell)
    out = []
    for mu in sorted(mu_grid):
        _, f_lo, f_hi = extremal_pair(field, structure, mu, window)
        if np.any(f_hi.slopes < f_lo.slopes - 1e-9):
            raise NotPointwiseExtremal(
                f"sup-extremal below inf-extremal at mu={mu:.6g}")
        cur = {"mu": float(mu), "p_lo": f_lo.mean(), "p_hi": f_hi.mean(),
               "ci": 0.0}
        if out:
            prev = out[-1]
            if cur["p_lo"] < prev["p_hi"] - 1e-9:
                raise LevelSetConflict(
                    f"I_mu at mu={cur['mu']:.6g} overlaps "
                    f"mu={prev['mu']:.6g} by more than 1e-9")
            if cur["p_lo"] < prev["p_hi"]:
                mid = 0.5 * (cur["p_lo"] + prev["p_hi"])
                prev["p_hi"] = min(prev["p_hi"], mid)
                cur["p_lo"] = max(cur["p_lo"], mid)
        out.append(cur)
    return out


def level_piece_function(field, structure, mu, p, window_cells=100):
    """A stationary selection with core mean within 1e-4 of p inside I_mu,
    built by at most 50 bisections of the homotopy parameter across the
    intervals where the two extremal selections differ."""
    tol_mean = 1e-4
    cell = field.cell
    window = (0.0, window_cells * cell)
    decomp, f_lo, f_hi = extremal_pair(field, structure, mu, window)
    if not (f_lo.mean() - tol_mean <= p <= f_hi.mean() + tol_mean):
        raise ValueError(f"p={p:.6g} outside I_mu=[{f_lo.mean():.6g}, "
                         f"{f_hi.mean():.6g}]")
    for fn, t_end in ((f_hi, 1.0), (f_lo, 0.0)):
        if abs(p - fn.mean()) <= tol_mean:
            out = SlopeFunction(mu=mu, x_mid=fn.x_mid, widths=fn.widths,
                                slopes=fn.slopes.copy(), core=fn.core,
                                cell_branch=fn.cell_branch)
            return out, t_end
    # each run's tables are built once; only the Perron DP sees t
    runs = []
    for a, b, i0, _ in _unequal_runs(f_hi, f_lo, decomp):
        tables = _homotopy_tables(field, structure, mu, f_hi, (a, b))
        sel = tables[0]
        runs.append((a, b, f_hi.branches[i0 - 1] if i0 > 0 else None,
                     float(np.sum(f_hi.slopes[sel] * f_hi.widths[sel])),
                     float(np.sum(f_lo.slopes[sel] * f_lo.widths[sel])),
                     tables))
    buf = BUFFER_CELLS * cell
    x_hi_w = window_cells * cell

    def assemble(t):
        # stitch homotopy pieces (whose refinement may add cells) between
        # the unchanged segments
        segs = []
        cursor = 0.0
        for a, b, inc, d_hi, d_lo, tables in runs:
            keep = (f_hi.x_mid > cursor) & (f_hi.x_mid < a)
            segs.append((f_hi.x_mid[keep], f_hi.widths[keep],
                         f_hi.slopes[keep], f_hi.cell_branch[keep]))
            w = _perron(field, structure, mu, tables, f_hi, f_lo,
                        t * d_hi + (1.0 - t) * d_lo, inc)
            segs.append((w.x_mid, w.widths, w.slopes, w.cell_branch))
            cursor = b
        keep = f_hi.x_mid > cursor
        segs.append((f_hi.x_mid[keep], f_hi.widths[keep], f_hi.slopes[keep],
                     f_hi.cell_branch[keep]))
        xs = np.concatenate([s[0] for s in segs])
        wd = np.concatenate([s[1] for s in segs])
        sl = np.concatenate([s[2] for s in segs])
        cb = np.concatenate([s[3] for s in segs])
        core = (xs >= buf) & (xs <= x_hi_w - buf)
        return SlopeFunction(mu=mu, x_mid=xs, widths=wd, slopes=sl,
                             core=core, cell_branch=cb)

    lo_t, hi_t = 0.0, 1.0
    for _ in range(50):
        t = 0.5 * (lo_t + hi_t)
        cand = assemble(t)
        m = cand.mean()
        if abs(m - p) <= tol_mean:
            return cand, t
        if m < p:
            lo_t = t
        else:
            hi_t = t
    cand = assemble(0.5 * (lo_t + hi_t))
    if abs(cand.mean() - p) > 10 * tol_mean:
        raise ValueError("homotopy bisection failed to match the target mean")
    return cand, 0.5 * (lo_t + hi_t)


def _unequal_runs(f_hi, f_lo, decomp):
    """Maximal runs of decomposition intervals where the selections differ."""
    runs = []
    start = None
    for i, (bh, bl) in enumerate(zip(f_hi.branches, f_lo.branches)):
        if bh != bl and start is None:
            start = i
        if bh == bl and start is not None:
            runs.append((decomp.intervals[start][0],
                         decomp.intervals[i - 1][1], start, i - 1))
            start = None
    if start is not None:
        runs.append((decomp.intervals[start][0], decomp.intervals[-1][1],
                     start, len(f_hi.branches) - 1))
    return runs


# ---------------------------------------------------------------------------
# extreme level and the assembled curve
# ---------------------------------------------------------------------------

def extreme_level(field, structure, window_cells=100, mu_neg=None):
    """Flat minimum piece [E z_l, E f_inf_0] and negative-side samples
    p_mu = E[Psi(mu)] with Psi the decreasing-branch inverse; the field
    must be normalized to 1e-6 (esssup H(0, x) <= 1e-6 on the window)."""
    window = (0.0, window_cells * field.cell)
    grid = _window_grid(field, window)
    h0 = field.evaluate(0.0, grid[0])
    if np.max(h0) > 1e-6:
        raise NormalizationViolated(
            f"esssup H(0, x) = {np.max(h0):.3g} > 0 on probes")
    e_zl = _branch1_mean(field, structure, grid, 0.0, "-")
    if e_zl is None:
        raise NormalizationViolated("negative branch does not reach level 0")
    f_lo = extremal_admissible(field, structure, 0.0, window, "inf")
    q0 = f_lo.mean()
    neg = []
    if mu_neg is not None:
        for mu in mu_neg:
            p_mu = _branch1_mean(field, structure, grid, mu, "-")
            if p_mu is not None:
                neg.append((p_mu, float(mu)))
    return {"e_zl": e_zl, "q0": q0, "negative": neg, "f_inf_0": f_lo}


def _branch1_mean(field, structure, grid, mu, side):
    """Core-weighted mean over the grid (x_mid, widths, core) of the
    branch-1 inverse at level mu on ``side``; None where branch 1 misses
    the level somewhere on the grid."""
    x_mid, widths, core = grid
    psi, ok = branch_inverse_grid(field, structure, 1, x_mid, float(mu),
                                  side=side)
    if not ok.all():
        return None
    return float(np.sum(psi[core] * (widths[core] / np.sum(widths[core]))))


def default_mu_grid(M_bar, n=15):
    """Level 0 plus log-spaced levels in [0.05, 0.95] * M_bar, avoiding the
    extremes where junctions cluster."""
    if M_bar <= 0:
        return np.array([0.0])
    levels = 0.05 * M_bar * (19.0 ** np.linspace(0.0, 1.0, n - 1))
    return np.concatenate([[0.0], levels])


def assemble_effective_curve(field, structure, mu_points=15, window_cells=100,
                             p_lo=-4.0, p_hi=4.0):
    """Merge negative-side samples, the flat minimum piece, the level sets
    and the high-level branch-1 tail into one sampled curve.

    Gap regions between level intervals interpolate monotonically and are
    tagged "interp"; the result is checked for level-set convexity.
    """
    window = (0.0, window_cells * field.cell)
    x_probe, _, _ = _window_grid(field, window)
    pos_max = structure.positive_maxima()
    M_bar = float(field.evaluate(pos_max[:, None], x_probe[None, :]).max())
    mu_grid = default_mu_grid(M_bar, mu_points)
    levels = level_sets(field, structure, mu_grid[mu_grid > 0],
                        window_cells=window_cells)

    mu_hi_cap = float(np.min(field.evaluate(p_hi, x_probe)))
    mu_lo_cap = float(np.min(field.evaluate(p_lo, x_probe)))

    tail_grid = _window_grid(field, window, samples_per_cell=8)

    # dense geometric level ladders keep the steep tails well sampled in p
    neg_mus, tail_mus = [], []
    if mu_lo_cap > 0.02 * M_bar:
        neg_mus = np.geomspace(0.01 * max(M_bar, 1e-3), mu_lo_cap + 1.0, 100)
    if mu_hi_cap > M_bar:
        tail_mus = np.geomspace(M_bar * 1.01, mu_hi_cap + 1.0, 100)
    # branch 1 is capped at the coercivity radius of |mu| + 1: find the
    # radii of both ladders in one batch before walking them
    field.coercivity_radii([abs(mu) + 1.0 for mu in (*neg_mus, *tail_mus)])
    ext = extreme_level(field, structure, window_cells=window_cells,
                        mu_neg=neg_mus)
    ps, vs, srcs = [], [], []
    for p_mu, mu in sorted(ext["negative"]):
        ps.append(p_mu)
        vs.append(mu)
        srcs.append("negative")
    for p in (ext["e_zl"], ext["q0"]):
        ps.append(p)
        vs.append(0.0)
        srcs.append("flat")
    for rec in levels:
        for key in ("p_lo", "p_hi"):
            ps.append(rec[key])
            vs.append(rec["mu"])
            srcs.append("level")
    for mu in tail_mus:
        pm = _branch1_mean(field, structure, tail_grid, mu, "+")
        if pm is not None:
            ps.append(pm)
            vs.append(float(mu))
            srcs.append("level")
    # one realization has no cross-seed spread: the budgets stay zero
    curve = EffectiveCurve(np.asarray(ps), np.asarray(vs), source=srcs,
                           level_intervals=levels,
                           flat=(ext["e_zl"], ext["q0"], 0.0))
    if not curve.is_level_set_convex(tol=1e-7):
        raise LevelSetConflict("assembled curve is not level-set convex")
    return curve
