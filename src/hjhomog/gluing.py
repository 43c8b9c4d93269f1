"""Reduction machinery for constrained Hamiltonians.

The engine splits a two-sided field at its central minimum, classifies
each one-sided piece by oscillation, and either rewrites it with steep
cone modifications (small oscillation), nudges a degenerate tie with the
tilt hat (M_lo == m_hi), or stops at a large-oscillation or quasi-convex
leaf.  Every rewrite records the combination rule that reassembles the
effective Hamiltonian from the children, so an effective curve can be
evaluated bottom-up and cross-checked against the direct discounted-solver
route.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .curve import EffectiveCurve
from .env import DerivedField, HamiltonianField, _row_blocks, bisect
from .errors import (NotApplicable, OracleFellBack, ReductionStalled,
                     VirtualHatEndpoint)
from .structure import (ConstrainedStructure, classify_oscillation,
                        detect_branches, normalize)
from . import cell_solver as _cs


# ---------------------------------------------------------------------------
# modified fields
# ---------------------------------------------------------------------------

class ConeAboveField(DerivedField):
    """H below the splice, the slope-L cone above it:
    H1-type modification, kills all structure right of Q."""

    def __init__(self, base, Q, L):
        super().__init__(base)
        self.Q = float(Q)
        self.L = float(L)

    def at(self, x):
        h = self.base.at(x)
        Q, L = self.Q, self.L
        h_q = h(Q)

        def cone(p):
            p = np.asarray(p, dtype=np.float64)
            # the inner value first, so that no cone-term temporary stays
            # alive through the base's own evaluation
            inner = h(np.minimum(p, Q))
            return np.where(p > Q, L * np.abs(p - Q) + h_q, inner)
        return cone


class ConeBelowField(DerivedField):
    """H above the splice, the slope-L cone below it."""

    def __init__(self, base, q, L):
        super().__init__(base)
        self.q = float(q)
        self.L = float(L)

    def at(self, x):
        h = self.base.at(x)
        q, L = self.q, self.L
        h_q = h(q)

        def cone(p):
            p = np.asarray(p, dtype=np.float64)
            inner = h(np.maximum(p, q))
            return np.where(p < q, L * np.abs(p - q) + h_q, inner)
        return cone


class TiltedField(DerivedField):
    """Base minus the hat of height 1/n peaking at the tied well, zero at
    the neighboring maxima: breaks an M_lo == m_hi tie downward."""

    def __init__(self, base, a, b, c, n):
        super().__init__(base)
        if not (a < b < c):
            raise NotApplicable("tilt hat needs a < peak < c")
        self.a, self.b, self.c = float(a), float(b), float(c)
        self.n = int(n)

    def hat(self, p):
        p = np.asarray(p, dtype=np.float64)
        up = (p - self.a) / (self.n * (self.b - self.a))
        down = -(p - self.b) / (self.n * (self.c - self.b)) + 1.0 / self.n
        out = np.where(p <= self.b, up, down)
        return np.where((p >= self.a) & (p <= self.c), out, 0.0)

    def at(self, x):
        h = self.base.at(x)
        return lambda p: h(p) - self.hat(p)


class MirroredField(DerivedField):
    """H(-p, -x): maps index (L_tilde, 0) onto (0, L_tilde).  Substituting
    w(y) = v(-y) in the cell problem gives Hbar[H(-p, -x)](p) = Hbar(-p),
    which the mirror node's combination rule relies on."""

    def period_key(self, x):
        return None

    def at(self, x):
        h = self.base.at(-np.asarray(x, dtype=np.float64))
        return lambda p: h(-np.asarray(p, dtype=np.float64))


def _mirror_structure(structure):
    bps = -structure.breakpoints[::-1]
    central = len(structure.breakpoints) - 1 - structure.central_pos
    return ConstrainedStructure(bps, central, structure.lipschitz,
                                structure.p_box)


# ---------------------------------------------------------------------------
# the three constructions
# ---------------------------------------------------------------------------

def _require_normalized(field, structure):
    if abs(structure.central) > 1e-6:
        raise NotApplicable("field is not normalized: central minimum not at 0")


def split_min(field, structure):
    """H+ / H- split at the central minimum.

    H+ keeps H on p >= 0 and continues with L|p| + H(0, x) below; H- is
    mirrored.  Combination: Hbar = Hbar+ on p >= 0, Hbar- on p < 0.
    Children come with their one-sided structures attached.
    """
    _require_normalized(field, structure)
    L = structure.lipschitz
    plus = ConeBelowField(field, 0.0, L)
    minus = ConeAboveField(field, 0.0, L)
    c = structure.central_pos
    s_plus = ConstrainedStructure(structure.breakpoints[c:], 0, L,
                                  structure.p_box)
    s_minus = ConstrainedStructure(structure.breakpoints[:c + 1], c, L,
                                   structure.p_box)
    return (plus, s_plus), (minus, s_minus)


@dataclass
class SteepSideFamily:
    case: str              # "left" | "right"
    H1: HamiltonianField
    H3: HamiltonianField
    s1: ConstrainedStructure
    s3: ConstrainedStructure
    P: float
    Q: float


def _sub_structure(structure, keep_mask, central_value=None):
    bps = structure.breakpoints[keep_mask]
    if central_value is None:
        c_pos = 0
    else:
        c_pos = int(np.argmin(np.abs(bps - central_value)))
    return ConstrainedStructure(bps, c_pos, structure.lipschitz,
                                structure.p_box)


def steep_side_family(field, structure, stats):
    """Left / right steep-side modifications for a small-oscillation
    index (0, L) field.

    Left case (P < Q): H1 cones above Q = q_{k_lo}, H3 cones below
    q_{k_hi}; Hbar = min(Hbar1, Hbar3).
    Right case (Q <= P): H1 cones above Q, H3 cones below Q; Hbar = Hbar1
    on p <= 0, min(Hbar1, Hbar3, M_lo) on (0, P), Hbar3 on p >= P.
    The proof's middle Hamiltonian H2 enters neither combination, so it is
    not built here (``steep_side_middle`` in ``tests/proof_checks.py``).
    """
    _require_normalized(field, structure)
    if structure.index[0] != 0:
        raise NotApplicable("steep-side constructions assume index (0, L)")
    if not stats.small:
        raise NotApplicable("field has large oscillation")
    if stats.tied:
        raise NotApplicable("M_lo == m_hi within tolerance: tilt first")
    L = structure.lipschitz
    P, Q = stats.P, stats.Q
    bps = structure.breakpoints
    q3 = stats.q_k_hi if P < Q else Q
    return SteepSideFamily(case="left" if P < Q else "right",
                           H1=ConeAboveField(field, Q, L),
                           H3=ConeBelowField(field, q3, L),
                           s1=_sub_structure(structure, bps < Q,
                                             central_value=0.0),
                           s3=_sub_structure(structure, bps > q3), P=P, Q=Q)


def tilt(field, structure, stats, n):
    """Subtract the hat peaking 1/n at the tied well p_{k_hi} with zeros at
    its neighboring maxima q_{k_hi} and q_{k_hi - 1}, turning
    M_lo == m_hi into a strict inequality.  The outermost well has no
    maximum on its right; its hat ends at the mirror image of q_{k_hi}."""
    if not stats.tied:
        raise NotApplicable("tilt applies only when M_lo == m_hi (within tol)")
    a, b = stats.q_k_hi, stats.P
    right = structure.positive_maxima()
    right = right[right > b]
    if len(right):
        c = right.min()
    else:
        c = b + (b - a)
        warnings.warn("no maximum right of the tied well: using a symmetric "
                      "virtual hat endpoint", VirtualHatEndpoint, stacklevel=2)
    return TiltedField(field, a, b, c, n)


# ---------------------------------------------------------------------------
# reduction tree
# ---------------------------------------------------------------------------

#: the tilt hat's height is 1/TILT_N
TILT_N = 64
#: a rewrite MAX_DEPTH levels down becomes a direct-solver leaf
MAX_DEPTH = 8


@dataclass
class ReductionNode:
    kind: str                     # split | steep_left | steep_right | tilt
    #                             # | mirror | leaf
    field: HamiltonianField
    structure: ConstrainedStructure | None
    leaf_kind: str | None = None  # xfree | quasi_convex | large_osc | direct
    # child coords -> parent coords bookkeeping, set by ``_normalized``
    p_shift: float = dc_field(default=0.0, init=False)
    mu_shift: float = dc_field(default=0.0, init=False)
    # filled in by the reduction that turns the leaf into a rewrite; a
    # steep-side node's params carry its combination rule (case, P, M_lo)
    children: list = dc_field(default_factory=list, init=False)
    params: dict = dc_field(default_factory=dict, init=False)

    def depth(self):
        if not self.children:
            return 1
        return 1 + max(ch.depth() for ch in self.children)

    def leaves(self):
        if self.kind == "leaf":
            yield self
        for ch in self.children:
            yield from ch.leaves()

    def to_dict(self):
        d = {"kind": self.kind, "p_shift": self.p_shift,
             "mu_shift": self.mu_shift, "params": dict(self.params)}
        if self.leaf_kind:
            d["leaf_kind"] = self.leaf_kind
        if self.structure is not None:
            d["structure"] = self.structure.to_dict()
        if self.children:
            d["children"] = [ch.to_dict() for ch in self.children]
        return d


def _is_xfree(field):
    xs = field.probe_xs(64)
    for p in (-1.3, 0.0, 0.7, 2.1):
        vals = field.evaluate(p, xs)
        if np.ptp(vals) > 1e-10 * (1.0 + np.max(np.abs(vals))):
            return False
    return True


def build_reduction_tree(field):
    """Reduce a constrained field to evaluable leaves: detect its branches,
    normalize it and walk it with ``_reduce``."""
    return _normalized(field, detect_branches(field), 0)


def _normalized(field, structure, depth):
    """The node of ``field`` normalized about its tie-break well, the
    shift recorded on the node."""
    field_n, structure_n, p_shift, mu_shift = normalize(field, structure)
    node = _reduce(field_n, structure_n, depth)
    node.p_shift, node.mu_shift = p_shift, mu_shift
    return node


def _direct_leaf(field, structure, reason):
    """A direct-solver leaf where the reduction stalls, surfaced as a
    ReductionStalled warning."""
    warnings.warn(f"{reason}: direct-solver leaf", ReductionStalled,
                  stacklevel=3)
    return ReductionNode(kind="leaf", field=field, structure=structure,
                         leaf_kind="direct")


def _reduce(field, structure, depth):
    """The node of a normalized field: a leaf or a rewrite with its
    children.

    Stops at x-free, quasi-convex and large-oscillation leaves.  A rewrite
    (tilt or steep side) MAX_DEPTH levels down, and a steep-side child
    that fails to decrease the well count, become direct-solver leaves.
    """
    node = ReductionNode(kind="leaf", field=field, structure=structure)
    if _is_xfree(field):
        node.leaf_kind = "xfree"
        return node
    Lt, L = structure.index
    if Lt == 0 and L == 0:
        node.leaf_kind = "quasi_convex"
        return node
    if Lt > 0 and L > 0:
        node.kind = "split"
        (plus, s_plus), (minus, s_minus) = split_min(field, structure)
        node.children = [_reduce(plus, s_plus, depth + 1),
                         _reduce(minus, s_minus, depth + 1)]
        return node
    if Lt > 0:
        # mirror (L_tilde, 0) onto (0, L_tilde)
        node.kind = "mirror"
        node.children = [_reduce(MirroredField(field),
                                 _mirror_structure(structure), depth + 1)]
        return node
    stats = classify_oscillation(field, structure)
    if stats.small and depth >= MAX_DEPTH:
        return _direct_leaf(field, structure, "max reduction depth reached")
    node.params.update({"M_lo": stats.M_lo, "m_hi": stats.m_hi,
                        "P": stats.P, "Q": stats.Q})
    if not stats.small:
        node.leaf_kind = "large_osc"
        return node
    if stats.tied:
        node.kind = "tilt"
        node.params["n"] = TILT_N
        node.children = [_reduce(tilt(field, structure, stats, TILT_N),
                                 structure, depth + 1)]
        return node
    fam = steep_side_family(field, structure, stats)
    node.kind = "steep_left" if fam.case == "left" else "steep_right"
    node.params["case"] = fam.case
    wells = structure.wells
    for child_field, child_struct in ((fam.H1, fam.s1), (fam.H3, fam.s3)):
        if child_struct.wells >= wells:
            ch = _direct_leaf(child_field, child_struct,
                              f"steep-side child keeps {child_struct.wells} "
                              f"wells (parent {wells})")
        elif child_struct.central == 0.0:
            # central minimum still at 0 with esssup 0: already normalized
            ch = _reduce(child_field, child_struct, depth + 1)
        else:
            ch = _normalized(child_field, child_struct, depth + 1)
        node.children.append(ch)
    return node


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class LeafOptions:
    dx: float | None
    lam_schedule: tuple = _cs.LAMBDA_SCHEDULE
    R: float = 2.0
    mu_points: int = 15
    window_cells: int = 100


def evaluate_leaf(leaf, p_grid, opts):
    """The curve of one leaf on ``p_grid``.  A quasi-convex leaf whose
    oracle does not apply falls back to the solver and is recorded as a
    direct leaf, so the tree names every leaf the solver evaluated."""
    field, structure = leaf.field, leaf.structure
    kind = leaf.leaf_kind
    if kind == "xfree":
        vals = field.evaluate(np.asarray(p_grid, float), 0.0)
        return EffectiveCurve(p_grid, np.atleast_1d(vals),
                              source=["xfree"] * len(p_grid))
    p_lo, p_hi = float(np.min(p_grid)) - 0.5, float(np.max(p_grid)) + 0.5
    if kind == "quasi_convex":
        try:
            return convex_oracle(field, p_lo=p_lo, p_hi=p_hi)
        except NotApplicable as exc:
            warnings.warn(f"convex oracle on p in [{p_lo:.4g}, {p_hi:.4g}] "
                          f"did not apply ({exc}): direct-solver leaf",
                          OracleFellBack, stacklevel=2)
            kind = leaf.leaf_kind = "direct"
    if kind == "large_osc":
        from .large_osc import assemble_effective_curve
        return assemble_effective_curve(
            field, structure, mu_points=opts.mu_points,
            window_cells=opts.window_cells, p_lo=p_lo, p_hi=p_hi)
    ests = [_cs.estimate_hbar(field, float(p), lam_schedule=opts.lam_schedule,
                              R=opts.R, dx=opts.dx)
            for p in np.asarray(p_grid, float)]
    return EffectiveCurve(p_grid, [e.value for e in ests],
                          [e.dispersion for e in ests],
                          source=["solver"] * len(p_grid))


def evaluate_tree(node, p_grid, opts):
    """Combine leaf curves, each from ``evaluate_leaf``, bottom-up
    through the recorded rules.

    The returned curve lives in the coordinates of ``node``'s parent
    frame, i.e. the original field's coordinates at the root.
    """
    p = np.asarray(p_grid, dtype=np.float64) - node.p_shift
    if node.kind == "leaf":
        curve = evaluate_leaf(node, p, opts)
    elif node.kind == "mirror":
        sub = evaluate_tree(node.children[0], -p[::-1], opts)
        curve = EffectiveCurve(p, sub.evaluate(-p), sub.budget_at(-p))
    elif node.kind == "tilt":
        sub = evaluate_tree(node.children[0], p, opts)
        curve = EffectiveCurve(p, sub.evaluate(p),
                               sub.budget_at(p) + 1.0 / node.params["n"])
    else:
        curves = [evaluate_tree(ch, p, opts) for ch in node.children]
        if node.kind == "split":
            plus, minus = curves
            curve = EffectiveCurve.piecewise(
                [(lambda q: q >= 0.0, plus), (lambda q: q < 0.0, minus)], p)
        elif node.kind in ("steep_left", "steep_right"):
            curve = _combine_steep(node.params, *curves, p)
        else:
            raise ValueError(f"unknown node kind {node.kind}")
    return curve.transformed(node.p_shift, node.mu_shift)


def _combine_steep(params, c1, c3, p_grid):
    """Hbar of a steep-side node from its children's curves: min(Hbar1,
    Hbar3) in the left case; in the right case Hbar1 on p <= 0, Hbar3 on
    p >= P and min(Hbar1, Hbar3, M_lo) between."""
    mid = EffectiveCurve.minimum([c1, c3], p_grid)
    if params["case"] == "left":
        return mid
    P = params["P"]
    mid_vals = np.minimum(mid.evaluate(p_grid), params["M_lo"])
    pieces = [
        (lambda p: p <= 0.0, c1),
        (lambda p: p >= P, c3),
        (lambda p: (p > 0.0) & (p < P),
         EffectiveCurve(p_grid, mid_vals, mid.budget_at(p_grid))),
    ]
    return EffectiveCurve.piecewise(pieces, p_grid)


# ---------------------------------------------------------------------------
# quasi-convex oracle
# ---------------------------------------------------------------------------

def convex_oracle(fields, p_lo, p_hi):
    """Ground-truth effective Hamiltonian for quasi-convex fields by
    inverse-branch averaging.

    For 33 levels mu above the flat level (the window esssup of the
    pointwise minimum of H), the two branch inverses are averaged over a
    400-cell window at 16 samples per cell: Hbar(p -+ (mu)) = mu.  The
    flat piece spans the averaged inverses at the flat level.  ``fields``
    maps each seed to its realization (a lone field is seed 0).  Several
    seeds share one level grid, from the highest seed flat level to the
    lowest seed cap, average their inverses level by level and report the
    cross-seed spread as the confidence interval.

    A field with a period key (``HamiltonianField.period_key``) repeats
    the same values on every window point of equal key, so the 513-level
    table and the bisections run on one period: on the first window point
    of each distinct key (``HamiltonianField.key_points``).  Each level's
    crossings and the quasi-convexity probe columns are read back through
    the inverse index, so the window means, and the curve, are the same
    to the bit as on the whole window.
    """
    seeds = [_oracle_table(f, p_lo, p_hi)
             for f in _cs._by_seed(fields).values()]
    # one level grid for every seed: above each seed's flat level, below
    # each seed's cap
    mu0 = max(t[3] for t in seeds)
    mu_hi = min(t[4] for t in seeds)
    if mu_hi <= mu0:
        raise NotApplicable("p-range too narrow for the requested levels")
    mus = mu0 + (mu_hi - mu0) * np.linspace(1e-6, 1.0, 33) ** 1.5
    p_minus, p_plus = [], []
    for h, arg, inv, _, _ in seeds:
        lo = np.full(len(arg), p_lo)
        hi = np.full(len(arg), p_hi)
        p_minus.append([])
        p_plus.append([])
        for mu in mus:
            # H < mu right of the minimizer: the crossing is further right
            a, b = bisect(lambda m: h(m) < mu, arg, hi, 60)
            p_plus[-1].append(float(np.mean((0.5 * (a + b))[inv])))
            a, b = bisect(lambda m: ~(h(m) < mu), lo, arg, 60)
            p_minus[-1].append(float(np.mean((0.5 * (a + b))[inv])))
    pm = np.mean(p_minus, axis=0)
    pp = np.mean(p_plus, axis=0)
    ci_m = np.ptp(p_minus, axis=0) if len(seeds) > 1 else 0 * pm
    ci_p = np.ptp(p_plus, axis=0) if len(seeds) > 1 else 0 * pp
    ps = np.concatenate([pm[::-1], pp])
    vs = np.concatenate([mus[::-1], mus])
    cis = np.concatenate([ci_m[::-1], ci_p])
    return EffectiveCurve(ps, vs, cis, source=["oracle"] * len(ps),
                          flat=(float(pm[0]), float(pp[0]), mu0))


def _oracle_table(f, p_lo, p_hi):
    """(h, arg, inv, mu0, mu_hi) of one realization: the evaluator frozen
    at the distinct window keys, the grid minimizer at each, the inverse
    index back onto the window, the flat level and the level cap.

    The 513-level table is evaluated in row blocks (``env._row_blocks``)
    and reduced as they are made: its extremes, the per-key minimum and
    first minimizer, the minima of its first and last rows and the probe
    columns are those of the whole table, NaN included."""
    xs, inv = f.key_points(
        np.linspace(0.0, 400 * f.cell, 6400, endpoint=False))
    pg = np.linspace(p_lo, p_hi, 513)
    h = f.at(xs)
    probes = [inv[j] for j in (0, len(inv) // 3, 2 * len(inv) // 3)]
    highs, lows, cols = [], [], []
    for s in _row_blocks(len(pg), len(xs)):
        vals = h(pg[s, None])
        highs.append(np.max(vals))
        lows.append(np.min(vals))
        cols.append(vals[:, probes])
        kb, mb = np.argmin(vals, axis=0) + s.start, vals.min(axis=0)
        if s.start == 0:
            top, arg, low = np.min(vals[0]), kb, mb
        else:
            # a later block's minimizer wins where its minimum is lower,
            # or NaN where the minimum so far is not: np.argmin's first
            # index, the first NaN if any
            take = ~np.isnan(low) & (np.isnan(mb) | (mb < low))
            arg, low = np.where(take, kb, arg), np.minimum(low, mb)
    # quasi-convexity probe: no interior rebound above tolerance
    tol = 1e-8 * (np.max(highs) - np.min(lows) + 1.0)
    for col in np.concatenate(cols).T:
        k = int(np.argmin(col))
        if np.any(np.diff(col[:k + 1]) > tol) or \
                np.any(np.diff(col[k:]) < -tol):
            raise NotApplicable("field is not quasi-convex in p")
    # cap levels so both crossings stay inside [p_lo, p_hi] for every x
    return (h, pg[arg], inv, float(low.max()),
            float(min(top, np.min(vals[-1]))))
