"""Constrained-Hamiltonian structure: branch detection, the piecewise-linear
constrained constructor, coincidence decluttering, branch inversion,
oscillation classification and normalization.

A constrained field has finitely many x-independent breakpoints on the
p-axis, alternating local minima and maxima, with the outermost intervals
monotone.  Breakpoints are stored ascending; minima sit at even positions,
maxima at odd ones.  After normalization the chosen central minimum is at
p = 0 and the probed esssup of H(0, x) is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import DerivedField, bisect, golden_min
from .errors import (NotApplicable, NotConstrained, OutOfBranchRange,
                     ProfileError)

TOL_INV = 1e-10


# ---------------------------------------------------------------------------
# structure record
# ---------------------------------------------------------------------------

@dataclass
class ConstrainedStructure:
    """Breakpoints and branch bookkeeping of a constrained Hamiltonian."""

    breakpoints: np.ndarray
    central_pos: int
    lipschitz: float
    p_box: float

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=np.float64)
        if self.central_pos % 2 != 0:
            raise NotConstrained("central breakpoint must be a local minimum")

    @property
    def minima(self):
        return self.breakpoints[0::2]

    @property
    def central(self):
        return float(self.breakpoints[self.central_pos])

    @property
    def index(self):
        """(L_tilde, L): well counts strictly left / right of the central one."""
        left = self.central_pos // 2
        right = len(self.minima) - 1 - left
        return (left, right)

    @property
    def wells(self):
        return len(self.minima)

    def positive_minima(self):
        """Positive well locations p_j, outermost first (descending)."""
        pos = self.breakpoints[self.central_pos + 2:: 2]
        return pos[::-1]

    def positive_maxima(self):
        """Positive hill locations q_j, outermost first."""
        pos = self.breakpoints[self.central_pos + 1:: 2]
        return pos[::-1]

    def branch_interval(self, j, side):
        """p-interval of monotone branch j (outermost-first, 1-based).

        Positive side: branch 1 is [p_1, inf) increasing, branch 2L+1 is
        [central, q_L] increasing.  Negative side mirrored, branch 1 is
        (-inf, p~_1] decreasing.
        """
        _, L = self.index
        Lt = self.index[0]
        if side == "+":
            pos = self.breakpoints[self.central_pos:]
            n = 2 * L + 1
            if not 1 <= j <= n:
                raise OutOfBranchRange(f"no positive branch {j}")
            if j == 1:
                return float(pos[-1]), np.inf
            return float(pos[n - j]), float(pos[n - j + 1])
        pos = self.breakpoints[: self.central_pos + 1]
        n = 2 * Lt + 1
        if not 1 <= j <= n:
            raise OutOfBranchRange(f"no negative branch {j}")
        if j == 1:
            return -np.inf, float(pos[0])
        return float(pos[j - 2]), float(pos[j - 1])

    def branch_increasing(self, j, side):
        """Odd positive branches increase; odd negative branches decrease."""
        return j % 2 == 1 if side == "+" else j % 2 == 0

    def processes(self, field, xs):
        """The positive side's extremum processes at ``xs``: the well rows
        m_j = H(p_j, xs) and the hill rows M_j = H(q_j, xs), outermost
        first."""
        xs = np.asarray(xs, dtype=np.float64)[None, :]
        return (field.evaluate(self.positive_minima()[:, None], xs),
                field.evaluate(self.positive_maxima()[:, None], xs))

    def to_dict(self):
        return {"breakpoints": [float(b) for b in self.breakpoints],
                "central_pos": int(self.central_pos),
                "index": list(self.index),
                "lipschitz": float(self.lipschitz)}


# ---------------------------------------------------------------------------
# field wrappers
# ---------------------------------------------------------------------------

class TransformedField(DerivedField):
    """H'(p, x) = H(p + p_shift, x) - mu_shift."""

    def __init__(self, base, p_shift, mu_shift):
        super().__init__(base)
        self.p_shift = float(p_shift)
        self.mu_shift = float(mu_shift)

    def at(self, x):
        h = self.base.at(x)
        p_shift, mu_shift = self.p_shift, self.mu_shift
        return lambda p: h(np.asarray(p, dtype=np.float64) + p_shift) - mu_shift


class PLConstrainedField(DerivedField):
    """Piecewise-linear-in-p constrained approximation of a base field.

    Nodes at -n + k/n carry the base values; each midpoint value is the max
    of its two neighbor nodes plus 1/n, which makes every node a strict
    local minimum (2 n^2 + 1 wells).  Outside [-n, n] the field continues
    with the cones |p -+ n| + H(+-n, x).
    """

    def __init__(self, base, n):
        super().__init__(base)
        if n < 1 or (n & (n - 1)) != 0:
            raise ProfileError("n must be a power of two")
        self.n = int(n)

    def _half_value(self, j, x):
        # value at half-grid point index j (0 .. 4n^2), even = node
        n = self.n
        h = 0.5 / n
        pj = -n + j * h
        even = (j % 2) == 0
        out = np.empty(np.broadcast(pj, x).shape, dtype=np.float64)
        if np.any(even):
            out[even] = self.base.evaluate(pj[even] if np.ndim(pj) else pj,
                                           x[even] if np.ndim(x) else x)
        odd = ~even
        if np.any(odd):
            pl = (pj - h)[odd] if np.ndim(pj) else pj - h
            pr = (pj + h)[odd] if np.ndim(pj) else pj + h
            xo = x[odd] if np.ndim(x) else x
            out[odd] = np.maximum(self.base.evaluate(pl, xo),
                                  self.base.evaluate(pr, xo)) + 1.0 / n
        return out

    def at(self, x):
        # the p-cells select which x each base value is needed at, so the
        # base is evaluated per call on those x only
        x = np.asarray(x, dtype=np.float64)
        n = self.n
        h = 0.5 / n

        def pl(p):
            p = np.asarray(p, dtype=np.float64)
            shape = np.broadcast(p, x).shape
            p, xb = (np.atleast_1d(a).ravel() for a in np.broadcast_arrays(p, x))
            out = np.empty(p.shape, dtype=np.float64)
            lo, hi = p < -n, p > n
            if np.any(lo):
                out[lo] = np.abs(p[lo] + n) + self.base.evaluate(-n, xb[lo])
            if np.any(hi):
                out[hi] = np.abs(p[hi] - n) + self.base.evaluate(n, xb[hi])
            mid = ~(lo | hi)
            if np.any(mid):
                u = (p[mid] + n) / h
                k = np.clip(np.floor(u).astype(np.int64), 0, 4 * n * n - 1)
                t = u - k
                v0 = self._half_value(k, xb[mid])
                v1 = self._half_value(k + 1, xb[mid])
                out[mid] = (1.0 - t) * v0 + t * v1
            return out.reshape(shape)
        return pl


class DeclutteredField(DerivedField):
    """Base field plus the interpolated separation bump on coincident slices.

    For each slice p = i/n on [-n, n], local extrema of x -> H(i/n, x) over
    the probe window are collected; a slice is coincident when its range is
    below tol_cluster (1e-8 times the range of all slices, at least 1e-8)
    or two distinct extrema agree within tol_cluster.
    Coincident slices receive (1/n) * ref(x) / (max|ref| + 1), with ref the
    clean slice of smallest |i|; the bump interpolates linearly between
    slices and is constant outside [-n, n], so the sup distance to the base
    is below 1/n.
    """

    def __init__(self, base, n):
        super().__init__(base)
        self.n = int(n)
        xs = base.probe_xs(1024)
        idx = np.arange(-n * n, n * n + 1)
        slices = base.evaluate((idx / n)[:, None], xs[None, :])
        self.tol_cluster = 1e-8 * max(slices.max() - slices.min(), 1.0)
        marks = np.zeros(len(idx), dtype=bool)
        for r, s in enumerate(slices):
            marks[r] = self._coincident(s)
        self.marks = marks
        self._ref = None
        clean = np.nonzero(~marks)[0]
        if len(clean) > 0:
            order = sorted(clean, key=lambda r: (abs(int(idx[r])), -int(idx[r])))
            self._ref_i = int(idx[order[0]])
            ref_vals = slices[order[0]]
            self._ref_norm = float(np.max(np.abs(ref_vals))) + 1.0
            self._ref = True

    def _coincident(self, s):
        if s.max() - s.min() < self.tol_cluster:
            return True
        d = np.diff(s)
        sign = np.sign(d)
        nz = sign != 0
        flips = np.nonzero(np.diff(sign[nz]) != 0)[0]
        pos = np.nonzero(nz)[0]
        ext = s[pos[flips] + 1]
        if len(ext) < 2:
            return False
        ext = np.sort(ext)
        return bool(np.any(np.diff(ext) < self.tol_cluster))

    def at(self, x):
        x = np.asarray(x, dtype=np.float64)
        h = self.base.at(x)
        if self._ref is None or not self.marks.any():
            return lambda p: h(p) + np.zeros(np.broadcast(np.asarray(p), x).shape)
        n = self.n
        grid = np.arange(-n * n, n * n + 1) / n
        marks = self.marks.astype(np.float64)
        ref = h(self._ref_i / n)
        norm = self._ref_norm

        def decluttered(p):
            p = np.asarray(p, dtype=np.float64)
            return h(p) + (1.0 / n) * np.interp(p, grid, marks) * ref / norm
        return decluttered


def build_constrained_approx(field, n):
    """Constrained PL approximation with nodes i/n on [-n, n] and its
    structure (known by construction: every half-grid point is a
    breakpoint, nodes are minima, midpoints maxima, 2 n^2 + 1 wells).
    n must be a power of two."""
    approx = PLConstrainedField(field, n)
    bps = -n + np.arange(4 * n * n + 1) * (0.5 / n)
    rho = field.modulus(-float(n), float(n))
    structure = ConstrainedStructure(
        breakpoints=bps, central_pos=2 * n * n,
        lipschitz=1.0 + n * rho(1.0 / n), p_box=n + 0.5)
    return approx, structure


# ---------------------------------------------------------------------------
# branch detection
# ---------------------------------------------------------------------------

def _sign_ahead(sign):
    """``sign`` with each zero replaced by the sign about to come: the
    next nonzero entry, or 0 where none follows."""
    at = np.where(sign != 0, np.arange(len(sign)), len(sign))
    return np.append(sign, 0.0)[np.minimum.accumulate(at[::-1])[::-1]]


def _breakpoints_one_probe(field, x, p_box):
    ps = np.linspace(-p_box, p_box, 2001)
    step = ps[1] - ps[0]
    h = 0.25 * step
    g = field.evaluate(ps + h, x) - field.evaluate(ps - h, x)
    # exact zeros take the sign about to come
    sign = _sign_ahead(np.sign(g))
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    kinds = np.where(sign[flips] < 0, 1, -1)  # 1 = minimum
    # a maximum (kind -1) is a minimum of -H; x stays scalar, so its
    # x-terms are computed as for a single point
    roots = golden_min(lambda p: kinds * field.evaluate(p, x),
                       ps[flips] - step, ps[flips + 1] + step, 90, rtol=1e-13)
    return roots, kinds.tolist()


def default_p_box(field):
    m0 = max(field.sup_abs_on(-1.0), field.sup_abs_on(0.0), field.sup_abs_on(1.0))
    return max(3.0, field.coercivity_radius(m0 + 1.0) + 0.5)


def _tie_break(minima):
    """Central-well tie-break: smallest |p| within 1e-6 (1 + max |p|), then
    smallest p."""
    minima = np.asarray(minima, dtype=np.float64)
    tol = 1e-6 * (1.0 + np.max(np.abs(minima)))
    a_min = np.min(np.abs(minima))
    eligible = np.nonzero(np.abs(minima) <= a_min + tol)[0]
    return int(eligible[np.argmin(minima[eligible])])


def detect_branches(field, p_box=None):
    """Locate x-independent breakpoints by sign changes of dH/dp.

    Breakpoints are found at each of 8 probe x on a 2001-point p-grid,
    refined by golden-section search, then required to agree across probes
    within 2e-4 p_box; larger drift raises NotConstrained naming the
    offending probe pair.  The central well is the ``_tie_break`` choice.
    Returns the ConstrainedStructure.
    """
    if p_box is None:
        p_box = default_p_box(field)
    if field.period is not None:
        xs = np.linspace(0.0, field.period, 8, endpoint=False) + \
            0.0371 * field.period
    else:
        xs = np.linspace(0.0, 24 * field.cell, 8, endpoint=False) + \
            0.37 * field.cell

    all_roots, all_kinds = [], []
    for x in xs:
        r, k = _breakpoints_one_probe(field, float(x), p_box)
        all_roots.append(r)
        all_kinds.append(k)
    counts = {len(r) for r in all_roots}
    if len(counts) != 1:
        raise NotConstrained(
            f"breakpoint count varies across x probes: {sorted(counts)}")
    roots = np.stack(all_roots)
    drift = roots.max(axis=0) - roots.min(axis=0) if roots.shape[1] else np.zeros(0)
    if roots.shape[1] and drift.max() > 1e-4 * 2 * p_box:
        j = int(np.argmax(drift))
        i_lo, i_hi = int(np.argmin(roots[:, j])), int(np.argmax(roots[:, j]))
        raise NotConstrained(
            f"breakpoint {j} drifts {drift.max():.3g} between x={xs[i_lo]:.6g} "
            f"and x={xs[i_hi]:.6g}")
    bps = np.median(roots, axis=0)
    kinds = all_kinds[0]
    if len(bps) == 0:
        raise NotConstrained("no breakpoints found: field is monotone in p")
    if kinds[0] != 1 or kinds[-1] != 1 or any(
            kinds[i] == kinds[i + 1] for i in range(len(kinds) - 1)):
        raise NotConstrained("breakpoints do not alternate min/max")

    return ConstrainedStructure(
        breakpoints=bps, central_pos=2 * _tie_break(bps[0::2]),
        lipschitz=field.lipschitz_on(p_box), p_box=float(p_box))


# ---------------------------------------------------------------------------
# branch inversion
# ---------------------------------------------------------------------------

def _capped_interval(field, structure, j, side, mu):
    lo, hi = structure.branch_interval(j, side)
    if np.isinf(hi):
        hi = max(field.coercivity_radius(abs(mu) + 1.0), lo + 1.0)
    if np.isinf(lo):
        lo = min(-field.coercivity_radius(abs(mu) + 1.0), hi - 1.0)
    return lo, hi


def _capped_range(h, field, structure, j, mu, side):
    """The capped p-interval of branch j and the mask of the x frozen in
    ``h = field.at(x)`` at which level mu lies between its end values
    (within TOL_INV)."""
    lo, hi = _capped_interval(field, structure, j, side, mu)
    v_lo, v_hi = h(lo), h(hi)
    return lo, hi, (np.minimum(v_lo, v_hi) - TOL_INV <= mu) & \
        (mu <= np.maximum(v_lo, v_hi) + TOL_INV)


def branch_feasible(field, structure, j, xs, mu):
    """Mask of the x at which positive branch j reaches level mu.  ``j``
    may be a sequence of branches: the field is frozen at ``xs`` once and
    the masks come stacked along a leading branch axis."""
    h = field.at(xs)
    masks = [_capped_range(h, field, structure, int(k), mu, "+")[2]
             for k in np.atleast_1d(j)]
    return np.stack(masks) if np.ndim(j) else masks[0]


def branch_inverse_grid(field, structure, j, xs, mu, side="+"):
    """Vectorized branch inversion over x of any shape; returns
    (p, feasible_mask), with p NaN where branch j misses level mu.

    ``j`` is one branch id or a sequence of them.  A sequence runs one
    70-step bisection over every (branch, x) pair and returns arrays with
    a leading branch axis, each row bit for bit the one-branch result: the
    brackets of the branches are stacked, and each element takes the same
    operations in the same order as on its own.  The capped interval and
    its end values stay one scalar evaluation per branch, on the field
    frozen once at the keys.

    A field with a period key (``HamiltonianField.period_key``) has the
    same branch inverse at every x of equal key, so the end values and the
    bisection run once per distinct key, on the first x of each
    (``HamiltonianField.key_points``), and are read back through the
    inverse index: the same roots, to the bit, as inverting at every x.
    Fields without a key invert every x.
    """
    xs = np.asarray(xs, dtype=np.float64)
    js = np.atleast_1d(j)
    pts, inv = field.key_points(xs)
    h = field.at(pts)
    ranges = [_capped_range(h, field, structure, int(k), mu, side)
              for k in js]
    # one bracket per (branch, key), branch-major, bisected on the field
    # frozen at the keys repeated once per branch: flat arrays of one
    # shape, as broadcasting a (branch, key) table slows every step
    lo, hi, feasible = (np.concatenate([np.broadcast_to(r[i], pts.shape)
                                        for r in ranges]) for i in range(3))
    increasing = np.repeat([structure.branch_increasing(int(k), side)
                            for k in js], len(pts))
    if len(js) > 1:
        h = field.at(np.tile(pts, len(js)))
    # below the level, the root lies right of p on an increasing branch
    lo, hi = bisect(lambda p: (h(p) < mu) == increasing, lo, hi, 70)
    p = np.where(feasible, 0.5 * (lo + hi), np.nan)
    p, feasible = (a.reshape(len(js), len(pts))[:, inv].reshape(
        js.shape + xs.shape) for a in (p, feasible))
    return (p, feasible) if np.ndim(j) else (p[0], feasible[0])


# ---------------------------------------------------------------------------
# oscillation classification
# ---------------------------------------------------------------------------

@dataclass
class OscillationStats:
    """Window statistics driving the small/large oscillation dichotomy."""

    small: bool          # M_lo >= m_hi, a tie included
    tied: bool           # M_lo == m_hi: the tilt breaks the tie first
    M_lo: float          # essinf of the max process
    m_hi: float          # esssup of the min process
    P: float             # p_{k_hi}, k_hi the positive branch attaining m_hi
    Q: float             # q_{k_lo}, k_lo the positive branch attaining M_lo
    q_k_hi: float        # q_{k_hi}


def classify_oscillation(field, structure):
    """Small vs large oscillation of one realization from extrema of the
    positive side's m(x) = min_j m_j(x) and M(x) = max_j M_j(x) over a
    100-cell window, 16 samples per cell.

    The positive side is the one the one-sided gluing constructions read;
    on an index (0, L) field its wells are all the non-central ones.
    M_lo and m_hi are tied when they differ by at most 1e-6 (1 + |M_hi -
    m_lo|), with M_hi the esssup of M and m_lo the essinf of m; a tie
    counts as small oscillation.
    """
    pos_min = structure.positive_minima()
    pos_max = structure.positive_maxima()
    if len(pos_min) == 0:
        raise NotApplicable("no positive-side wells to classify")
    xs = np.linspace(0.0, 100 * field.cell, 1600, endpoint=False)
    wells, hills = structure.processes(field, xs)
    m_vals, M_vals = wells.min(axis=0), hills.max(axis=0)
    M_lo, m_hi = float(M_vals.min()), float(m_vals.max())
    tol = 1e-6 * (abs(float(M_vals.max() - m_vals.min())) + 1.0)
    k_lo = int(np.argmax(hills.min(axis=1))) + 1
    k_hi = int(np.argmin(wells.max(axis=1))) + 1
    return OscillationStats(
        small=M_lo >= m_hi - tol, tied=abs(M_lo - m_hi) <= tol, M_lo=M_lo,
        m_hi=m_hi, P=float(pos_min[k_hi - 1]), Q=float(pos_max[k_lo - 1]),
        q_k_hi=float(pos_max[k_hi - 1]))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def esssup_probe(field, p):
    """Probed esssup of H(p, x): 32 samples per cell over 200 cells."""
    xs = np.linspace(0.0, 200 * field.cell, 6400, endpoint=False)
    return float(np.max(field.evaluate(p, xs)))


def normalize(field, structure):
    """Shift coordinates so the tie-break central minimum (smallest |p|,
    then smallest p) sits at p = 0 with probed esssup H(0, x) = 0.

    Returns (field', structure', p_shift, mu_shift) with
    Hbar_orig(p) = Hbar_norm(p - p_shift) + mu_shift.
    """
    if len(structure.minima) == 0:
        raise NotApplicable("no local minimum breakpoint")
    return _centered(field, structure, _tie_break(structure.minima))


def _centered(field, structure, c_idx):
    """``normalize`` about the minimum of index ``c_idx``."""
    p_shift = float(structure.minima[c_idx])
    mu_shift = esssup_probe(field, p_shift)
    return (TransformedField(field, p_shift, mu_shift),
            ConstrainedStructure(structure.breakpoints - p_shift, 2 * c_idx,
                                 structure.lipschitz, structure.p_box),
            p_shift, mu_shift)
