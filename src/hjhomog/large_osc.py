"""Effective Hamiltonians of large-oscillation index (0, L) fields via
admissible functions.

At a level mu >= 0 the line decomposes at the points where mu meets a
local-extremum process (crossings and tangential touches).  On each piece
an admissible function rides one branch inverse at level mu; junctions
obey the one-dimensional viscosity corner rules: an upward gradient jump
needs H >= mu across the gap, a downward jump needs H <= mu.  Dynamic
programming over the junction chain yields the extremal selections, whose
window averages bound the flat level set I_mu of the effective
Hamiltonian, and the negative side comes from the inverse of the single
decreasing branch.  The paper's Perron homotopy between the extremal
selections, which realizes any mean inside I_mu, is a device of its proof
that no route needs; it lives with the other proof checks in
``tests/proof_checks.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import EffectiveCurve
from .env import golden_min
from .errors import (ClusterSuspected, LevelSetConflict,
                     NormalizationViolated, NotApplicable,
                     NotPointwiseExtremal)
from .structure import (TOL_INV, _sign_ahead, branch_feasible,
                        branch_inverse_grid, classify_oscillation)

BUFFER_CELLS = 5


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

@dataclass
class AdmissibleDecomposition:
    mu: float
    junctions: np.ndarray          # sorted, interior to the window
    intervals: list                # [(a, b)] covering the window
    feasible: list                 # set of branch ids per interval


def _rows_reader(at, ps, rows):
    """x -> the values of the processes ``rows`` at x, element by element:
    process r is ``at(x)(ps[r])``.  One evaluator is frozen per call and
    read once per process present, each at its own scalar p."""
    first, *rest = np.unique(rows)
    masks = [(ps[r], rows == r) for r in rest]

    def read(x):
        h = at(x)
        out = h(ps[first])
        for p, mask in masks:
            out = np.where(mask, h(p), out)
        return out
    return read


def _scan_roots(at, ps, g, xs, mu, tol_touch):
    """Crossings and tangential touches of level mu by the processes
    x -> ``at(x)(p)``, one per scalar p of ``ps``, sampled at ``xs`` as
    the rows of ``g``.

    Crossings are bisection-refined, the sign flips of all processes in
    one loop; touches (strict local extrema within tol of the level) are
    refined in one array ``golden_min`` and kept where the refined value
    is still within tol; a constant run of samples, as in a
    piecewise-constant cell, is no touch.  Each step freezes ``at`` once
    at all its points and reads each process at its own p, a scalar: a
    0-d p takes numpy's scalar power, as ``field.evaluate(p, x)`` does,
    where an array of the p would round some values an ulp apart.  So
    each root is the one a scan of its process alone finds, to the bit.
    High-accuracy locations matter: the corner rule at a junction holds
    only up to the process slope times the location error.

    A sample within TOL_INV of the level is on it, as branch feasibility
    reads the same process values (``structure.branch_feasible``): it has
    sign 0, so rounding noise at a touch makes no crossing pair, and a
    crossing through it is bracketed with the sign about to come.
    """
    d = g - mu
    s = np.where(np.abs(d) <= TOL_INV, 0.0, np.sign(d))
    ahead = np.stack([_sign_ahead(row) for row in s])
    rows, flips = np.nonzero(ahead[:, :-1] * ahead[:, 1:] < 0)
    roots = []
    if len(flips):
        read = _rows_reader(at, ps, rows)
        lo, hi = xs[flips], xs[flips + 1]
        up = ahead[rows, flips] > 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            dm = read(mid) - mu
            # an exact zero sets lo = hi = mid, which every later step
            # keeps
            zero = dm == 0.0
            lo = np.where(zero | ((dm > 0) == up), mid, lo)
            hi = np.where(zero | ((dm > 0) != up), mid, hi)
        roots = list(0.5 * (lo + hi))
    di = d[:, 1:-1]
    is_ext = (di - d[:, :-2]) * (d[:, 2:] - di) < 0.0
    near = np.abs(di) <= tol_touch
    no_cross = (s[:, :-2] * s[:, 1:-1] >= 0) & (s[:, 1:-1] * s[:, 2:] >= 0)
    rows, i = np.nonzero(is_ext & near & no_cross)
    if len(i):
        read = _rows_reader(at, ps, rows)
        i = i + 1
        # +1 refines a local maximum of the process, -1 a minimum
        sign = np.where((d[rows, i] >= d[rows, i - 1]) |
                        (d[rows, i] >= d[rows, i + 1]), 1.0, -1.0)
        x_star = golden_min(lambda x: -sign * read(x), xs[i - 1], xs[i + 1],
                            80)
        roots.extend(x_star[np.abs(read(x_star) - mu) <= tol_touch].tolist())
    return roots


def admissible_decomposition(field, structure, mu, window):
    """Junctions and per-interval feasible branch sets at level mu.

    Outside the intermediate band the decomposition is trivial: a single
    interval riding branch 1 (mu above the esssup of the max process) or
    branch 2L+1 (mu below the essinf of the min process when that is
    nonnegative).  The processes are scanned at 64 points per cell, all
    of them in one ``_scan_roots`` call; junctions closer than 1e-4 times
    the window raise ClusterSuspected.  Every branch's feasibility on
    every interval comes from one frozen evaluator.
    """
    if structure.index[0] != 0:
        raise NotApplicable("admissible machinery assumes index (0, L)")
    Lt, L = structure.index
    x_lo, x_hi = window
    if L == 0:
        return AdmissibleDecomposition(mu, np.empty(0), [(x_lo, x_hi)], [{1}])
    dx_root = field.cell / 64.0
    W = x_hi - x_lo
    sep_min = 1e-4 * W
    xs = np.arange(x_lo, x_hi + dx_root * 0.5, dx_root)
    m_vals, M_vals = structure.processes(field, xs)
    M_bar = float(M_vals.max())
    m_low = float(m_vals.min())
    nb = 2 * L + 1
    if mu >= M_bar:
        return AdmissibleDecomposition(mu, np.empty(0), [(x_lo, x_hi)], [{1}])
    if m_low >= 0.0 and mu <= m_low:
        return AdmissibleDecomposition(mu, np.empty(0), [(x_lo, x_hi)],
                                       [{nb}])
    span = float(max(M_vals.max() - m_vals.min(), 1.0))
    tol_touch = 1e-6 * span + _max_step(m_vals, M_vals)
    p_ext = [float(p) for p in np.concatenate([structure.positive_minima(),
                                               structure.positive_maxima()])]
    roots = np.sort(np.asarray(_scan_roots(
        field.at, p_ext, np.concatenate([m_vals, M_vals]), xs, mu,
        tol_touch)))
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
    # the 7 interior probes of every interval, all branches at once
    probes = np.linspace(a_s, b_s, 9, axis=1)[:, 1:-1]
    ok = branch_feasible(field, structure, range(1, nb + 1), probes,
                         mu).all(axis=-1)
    feasible = [{j for j, f in enumerate(row, 1) if f}
                for row in ok.T.tolist()]
    for (a, b), fs in zip(intervals, feasible):
        if not fs:
            raise ClusterSuspected(
                f"no branch feasible throughout ({a:.6g}, {b:.6g}) at "
                f"mu={mu:.6g}: a junction was likely missed")
    return AdmissibleDecomposition(mu, roots, intervals, feasible)


def _max_step(m_vals, M_vals):
    steps = [np.max(np.abs(np.diff(g))) for g in list(m_vals) + list(M_vals)]
    return 0.75 * float(max(steps))


# ---------------------------------------------------------------------------
# junction calculus
# ---------------------------------------------------------------------------

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
    psi[1:], feas[1:] = branch_inverse_grid(field, structure,
                                            range(1, nb + 1), x_mid, mu)
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


def _branch_mask(sets, n):
    """mask[i, j]: branch j is in sets[i], for branch ids below n."""
    mask = np.zeros((len(sets), n), dtype=bool)
    mask[[i for i, js in enumerate(sets) for _ in js],
         [j for js in sets for j in js]] = True
    return mask


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
    # okleaf[i, j]: branch j is feasible on interval i and on each of its
    # cells (an interval without cells takes any branch at weight 0)
    misses = np.zeros((len(psi), len(x_mid) + 1), dtype=np.int64)
    misses[:, 1:] = np.cumsum(~feas, axis=1)
    okleaf = _branch_mask(decomp.feasible, len(psi)) & \
        (misses[:, starts[1:]] == misses[:, starts[:-1]]).T
    weights = np.zeros(okleaf.shape)
    prod = psi * widths
    for i, j in zip(*np.nonzero(okleaf)):
        weights[i, j] = prod[j, cells[i]].sum()
    return _LevelTables(decomp, x_mid, widths, core, psi, legal, iv, cells,
                        weights, okleaf,
                        _chain_branches(decomp.feasible, legal))


def extremal_admissible(field, structure, mu, window, sense):
    """The extremal admissible selection at level mu by DP over the
    junction chain, maximizing (sense="sup") or minimizing ("inf") the
    integral; the result is checked against every branch on a complete
    legal junction chain, surfacing NotPointwiseExtremal where one beats
    it."""
    decomp = admissible_decomposition(field, structure, mu, window)
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
    """NotPointwiseExtremal where a branch on a complete legal chain beats
    the selection by more than 1e-9 (1 + max|psi|) on some cell: every
    cell of the level is compared at once, and the intervals are walked
    only to name the first offender (lowest interval, then lowest
    branch)."""
    sign = 1.0 if sense == "sup" else -1.0
    tol = 1e-9 * (1.0 + np.nanmax(np.abs(t.psi)))
    # on[i, j]: branch j lies on a complete legal chain through interval i
    on = _branch_mask(t.on_chain, len(t.psi))
    beats = on[t.interval_of].T & (sign * (t.psi - fn.slopes) > tol)
    if not beats.any():
        return
    for i, c in enumerate(t.cells):
        js = np.nonzero(beats[:, c].any(axis=1))[0]
        if len(js):
            raise NotPointwiseExtremal(
                f"alternative branch {int(js[0])} beats the {sense}-extremal "
                f"selection on interval {i} at mu={fn.mu:.6g}")


# ---------------------------------------------------------------------------
# junction legality
# ---------------------------------------------------------------------------

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
    q, f = branch_inverse_grid(field, structure, branches, nodes, mu)
    inv = {j: (q[k], f[k]) for k, j in enumerate(branches)}
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


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def level_sets(field, structure, mu_grid, window_cells):
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


# ---------------------------------------------------------------------------
# extreme level and the assembled curve
# ---------------------------------------------------------------------------

def extreme_level(field, structure, window_cells, mu_neg=None):
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
    q0 = extremal_admissible(field, structure, 0.0, window, "inf").mean()
    neg = []
    if mu_neg is not None:
        for mu in mu_neg:
            p_mu = _branch1_mean(field, structure, grid, mu, "-")
            if p_mu is not None:
                neg.append((p_mu, float(mu)))
    return {"e_zl": e_zl, "q0": q0, "negative": neg}


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


def default_mu_grid(M_bar, n):
    """Level 0 plus log-spaced levels in [0.05, 0.95] * M_bar, avoiding the
    extremes where junctions cluster."""
    if M_bar <= 0:
        return np.array([0.0])
    levels = 0.05 * M_bar * (19.0 ** np.linspace(0.0, 1.0, n - 1))
    return np.concatenate([[0.0], levels])


def assemble_effective_curve(field, structure, mu_points, window_cells, p_lo,
                             p_hi):
    """Merge negative-side samples, the flat minimum piece, the level sets
    and the high-level branch-1 tail into one sampled curve.

    Gap regions between level intervals interpolate monotonically and are
    tagged "interp"; the result is checked for level-set convexity.  A
    structure without positive maxima, and a field of small oscillation
    (M_lo > m_hi, ``classify_oscillation``), raise NotApplicable; a tied
    field runs.
    """
    window = (0.0, window_cells * field.cell)
    x_probe, _, _ = _window_grid(field, window)
    pos_max = structure.positive_maxima()
    if len(pos_max) == 0:
        raise NotApplicable("no positive maxima: the large-oscillation "
                            "route needs a positive-side hill")
    stats = classify_oscillation(field, structure)
    if stats.small and not stats.tied:
        raise NotApplicable(
            f"small oscillation (M_lo={stats.M_lo:.6g} > "
            f"m_hi={stats.m_hi:.6g}): the large-oscillation route needs "
            f"M_lo < m_hi")
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
