"""Sampled piecewise-linear representation of an effective Hamiltonian."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ExtrapolationUsed


@dataclass
class EffectiveCurve:
    """A sampled p -> Hbar(p) map with per-point error budgets.

    Between samples the curve is linear.  ``level_intervals`` records the
    flat level sets [p_lo, p_hi] at each sampled level mu, and ``flat``
    the minimum-level flat piece, when known.  A solver sweep's curve
    keeps its (p, lam, seed) rows in ``sweep_rows``, a glued curve its
    reduction tree in ``tree``.
    """

    p: np.ndarray
    values: np.ndarray
    budget: np.ndarray = None
    source: list = None
    level_intervals: list = dc_field(default_factory=list)
    flat: tuple | None = None
    sweep_rows: list = dc_field(default_factory=list)
    tree: object = dc_field(default=None, init=False)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.budget is None:
            self.budget = np.zeros_like(self.p)
        self.budget = np.asarray(self.budget, dtype=np.float64)
        if self.source is None:
            self.source = ["sample"] * len(self.p)
        order = np.argsort(self.p, kind="stable")
        self.p = self.p[order]
        self.values = self.values[order]
        self.budget = self.budget[order]
        self.source = [self.source[i] for i in order]

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, p):
        """Linear interpolation; outside the support the end segments are
        extended linearly, with an ExtrapolationUsed warning."""
        p = np.asarray(p, dtype=np.float64)
        out = np.interp(p, self.p, self.values)
        below, above = p < self.p[0], p > self.p[-1]
        if np.any(below) or np.any(above):
            warnings.warn("evaluating effective curve outside its support",
                          ExtrapolationUsed)
            if len(self.p) >= 2:
                sl = (self.values[1] - self.values[0]) / (self.p[1] - self.p[0])
                sr = (self.values[-1] - self.values[-2]) / (self.p[-1] - self.p[-2])
                out = np.where(below, self.values[0] + sl * (p - self.p[0]), out)
                out = np.where(above, self.values[-1] + sr * (p - self.p[-1]), out)
        return out if out.ndim else float(out)

    __call__ = evaluate

    def budget_at(self, p):
        p = np.asarray(p, dtype=np.float64)
        out = np.interp(p, self.p, self.budget)
        return out if out.ndim else float(out)

    # -- transforms and combinations ----------------------------------------

    def transformed(self, p_shift, mu_shift):
        """Undo a normalization: Hbar_orig(p) = Hbar_norm(p - p_shift) + mu_shift."""
        levels = [dict(li, p_lo=li["p_lo"] + p_shift, p_hi=li["p_hi"] + p_shift,
                       mu=li["mu"] + mu_shift) for li in self.level_intervals]
        flat = None
        if self.flat is not None:
            lo, hi, lev = self.flat
            flat = (lo + p_shift, hi + p_shift, lev + mu_shift)
        return EffectiveCurve(self.p + p_shift, self.values + mu_shift,
                              self.budget.copy(), list(self.source), levels, flat)

    @staticmethod
    def minimum(curves, p_grid):
        """Pointwise min of curves on p_grid; the budget at each point is
        the active curve's budget.  A curve read outside its support warns
        (ExtrapolationUsed) only where its extrapolated value is the
        minimum."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationUsed)
            vals = np.stack([c.evaluate(p_grid) for c in curves])
        buds = np.stack([c.budget_at(p_grid) for c in curves])
        k = np.argmin(vals, axis=0)
        lo = np.array([c.p[0] for c in curves])[k]
        hi = np.array([c.p[-1] for c in curves])[k]
        if np.any((p_grid < lo) | (p_grid > hi)):
            warnings.warn("evaluating effective curve outside its support",
                          ExtrapolationUsed)
        idx = np.arange(len(p_grid))
        return EffectiveCurve(p_grid, vals[k, idx], buds[k, idx],
                              ["min"] * len(p_grid))

    @staticmethod
    def piecewise(pieces, p_grid):
        """Assemble from (mask_fn, curve) pairs evaluated on p_grid; the
        first piece whose mask holds wins at each point."""
        p_grid = np.asarray(p_grid, dtype=np.float64)
        vals = np.empty_like(p_grid)
        buds = np.empty_like(p_grid)
        done = np.zeros(len(p_grid), dtype=bool)
        for mask_fn, curve in pieces:
            m = mask_fn(p_grid) & ~done
            if not np.any(m):
                continue
            vals[m] = curve.evaluate(p_grid[m])
            buds[m] = curve.budget_at(p_grid[m])
            done |= m
        if not np.all(done):
            raise ValueError("piecewise masks do not cover the grid")
        return EffectiveCurve(p_grid, vals, buds)

    # -- diagnostics ---------------------------------------------------------

    def is_level_set_convex(self, tol=1e-9):
        """Check that each sampled sublevel set {p : Hbar(p) <= c}, c a
        sampled value, is a single interval of grid points."""
        for c in np.unique(self.values):
            mask = self.values <= c + tol
            if not mask.any():
                continue
            idx = np.nonzero(mask)[0]
            if idx[-1] - idx[0] + 1 != len(idx):
                return False
        return True

    def rows(self):
        for i in range(len(self.p)):
            yield (self.p[i], self.values[i], self.budget[i], self.source[i])
