"""Stationary-ergodic environments and Hamiltonian field realizations.

A field is one realization of H(p, x) that can be evaluated at any (p, x)
in O(1), with structural metadata (Lipschitz constant in p, coercivity
radius, continuity modulus) verified by probing rather than symbolically:
user profiles are treated as black boxes.

Two concrete kinds are provided:

* ``periodic``: H(p, x) periodic in x, deterministic (seed-independent).
* ``checkerboard``: per-unit-cell i.i.d. parameter draws, blended C^1
  across cell boundaries over a width of 0.1 * cell_length so the field
  stays continuous in x.  All randomness comes from a counter-based hash
  of (seed, cell index), so evaluation never stores a realization.

``separable`` and ``composite`` environments are thin constructors on top
of the checkerboard kind.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ProfileError

ENV_SCHEMA = "env/1"

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def bisect(right, lo, hi, steps):
    """``steps`` vectorized halvings of the brackets [lo, hi]: lo moves to
    the midpoint where ``right(mid)`` is True (the target lies to its
    right), hi moves there elsewhere.  Returns the final (lo, hi)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        move = right(mid)
        lo, hi = np.where(move, mid, lo), np.where(move, hi, mid)
    return lo, hi


def golden_min(f, a, b, steps, rtol=0.0):
    """Golden-section search for a minimum of f on [a, b]: at most
    ``steps`` shrinks, stopping early once b - a < rtol * (1 + |a|) when
    rtol > 0.  Unbiased at kinks and smooth extrema alike; returns the
    midpoint of the final bracket.

    Array brackets run one search per element, with f called once per
    step on the array of that step's points.  Each element takes the same
    operations in the same order as a search on its own bracket, and the
    midpoint of an element that meets the rtol stop is kept from that step
    on, so each result is the one-bracket result bit for bit.  Scalar
    brackets run as 0-d arrays and give a 0-d result."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    # per element: stopped by rtol, and the midpoint it stopped at
    done, out = np.zeros(np.shape(c), dtype=bool), np.zeros(np.shape(c))
    for _ in range(steps):
        # a left step drops (d, b] and probes anew left of c; a right
        # step drops [a, c) and probes anew right of d
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        t = _INVPHI * (b - a)
        x = np.where(left, b - t, a + t)
        fx = f(x)
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fx, fd), np.where(left, fc, fx))
        if rtol:
            stop = b - a < rtol * (1.0 + abs(a))
            if (stop & ~done).any():
                out = np.where(stop & ~done, 0.5 * (a + b), out)
                done = done | stop
            if done.all():
                break
    return np.where(done, out, 0.5 * (a + b))


# ---------------------------------------------------------------------------
# counter-based randomness
# ---------------------------------------------------------------------------

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(z):
    z = (z + _SM_GAMMA).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(30))) * _SM_MUL1).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(27))) * _SM_MUL2).astype(np.uint64)
    return z ^ (z >> np.uint64(31))


def cell_uniform(seed, idx):
    """Deterministic uniform [0, 1) value for each integer cell index.

    Bit-exact for a given (seed, idx); vectorized over idx.
    """
    idx_u = np.asarray(idx, dtype=np.int64).astype(np.uint64)
    seed_u = np.uint64(np.int64(seed))
    h = _splitmix64(idx_u ^ _splitmix64(np.atleast_1d(seed_u))[0])
    out = (h >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    return out


def split_seed(master, k):
    """Derive the k-th child seed from a master seed (counter mode)."""
    h = _splitmix64(np.atleast_1d(np.uint64(np.int64(master)) ^ _splitmix64(
        np.atleast_1d(np.uint64(np.int64(k))))[0]))[0]
    return int(np.int64(h))


# ---------------------------------------------------------------------------
# profile registry
# ---------------------------------------------------------------------------

_BASES = {
    "abs": lambda p: np.abs(p),
    "quadratic": lambda p: np.asarray(p, dtype=np.float64) ** 2,
    "double_well": lambda p: (np.asarray(p, dtype=np.float64) ** 2 - 1.0) ** 2,
}


def _sin(q, period):
    a, w = q["amplitude"], 2.0 * math.pi / period
    return lambda x: a * np.sin(w * x)


def _pwl_wells_plus_dip(q, period):
    nodes, values, slope = q["nodes"], q["values"], q["cone_slope"]
    a, w = q["amplitude"], 2.0 * math.pi / period

    def p_part(p):   # wells through (nodes, values), continued by cones
        p = np.asarray(p, dtype=np.float64)
        left = values[0] + slope * (nodes[0] - p)
        right = values[-1] + slope * (p - nodes[-1])
        return np.where(p < nodes[0], left, np.where(
            p > nodes[-1], right, np.interp(p, nodes, values)))
    return p_part, lambda x: a * (np.sin(w * x) - 1.0)


# kind -> profile -> (its params' defaults, None where required; a builder
# (checked params, period) -> (p_part, x_part)): H = p_part(p) + x_part(x),
# plus v on a checkerboard, with no x term where x_part is None
PROFILES = {
    "periodic": {
        "abs_plus_sin": ({"amplitude": 1.0},
                         lambda q, T: (np.abs, _sin(q, T))),
        "quartic_plus_sin": ({"amplitude": 1.0},
                             lambda q, T: (_BASES["double_well"], _sin(q, T))),
        "base_plus_sin": ({"amplitude": 1.0, "base": "double_well"},
                          lambda q, T: (_BASES[q["base"]], _sin(q, T))),
        "xfree": ({"base": "quadratic"},
                  lambda q, T: (_BASES[q["base"]], lambda x: 0.0 * x)),
        "pwl_wells_plus_dip": ({"nodes": None, "values": None,
                                "cone_slope": 2.0, "amplitude": 0.1},
                               _pwl_wells_plus_dip),
    },
    "checkerboard": {
        "abs_plus_v": ({}, lambda q, T: (np.abs, None)),
        "quartic_plus_v": ({}, lambda q, T: (_BASES["double_well"], None)),
        "base_plus_v": ({"base": "abs"},
                        lambda q, T: (_BASES[q["base"]], None)),
        "base_plus_sin_plus_v": (
            {"amplitude": 0.5, "inner_period": 1.0, "base": "double_well"},
            lambda q, T: (_BASES[q["base"]], _sin(q, q["inner_period"]))),
    },
}
# the keys of each env/1 kind: ``EnvironmentSpec.from_dict`` rejects others
ENV_KEYS = {"periodic": ("schema", "kind", "profile", "params", "period"),
            "checkerboard": ("schema", "kind", "profile", "params",
                             "cell_length", "value_range")}


def _check_param(label, name, x):
    """The profile param ``name`` checked against its bound; a flat or
    falling cone (``cone_slope`` <= 0) leaves H bounded in p."""
    if name == "base":
        if isinstance(x, str) and x in _BASES:
            return x
        raise ProfileError(f"{label} must be one of {sorted(_BASES)}, "
                           f"not {x!r}")
    if name in ("nodes", "values"):
        xs = np.array([check_number(label, v) for v in x]
                      if isinstance(x, (list, tuple)) else [])
        if not xs.size or (name == "nodes" and np.any(np.diff(xs) <= 0)):
            raise ProfileError(f"{label} must be a non-empty list of finite "
                               f"numbers{', increasing' * (name == 'nodes')}"
                               f", not {x!r}")
        return xs
    positive = name in ("cone_slope", "inner_period")
    return check_number(label, x, "> 0" if positive else "")


def _profile_parts(spec):
    """(p_part, x_part) of the spec's ``PROFILES`` row, built on its params
    and the row's defaults, each checked; an unknown one is a ProfileError."""
    kind, name, params = spec.kind, spec.profile, spec.params
    if not isinstance(name, str) or name not in PROFILES[kind]:
        raise ProfileError(f"unknown {kind} profile {name!r}")
    defaults, build = PROFILES[kind][name]
    check_keys(f"the params of {name!r}", params, defaults)
    q = {key: _check_param(f"param {key!r} of {name!r}", key, x)
         for key, x in dict(defaults, **params).items()}
    if len(q.get("nodes", ())) != len(q.get("values", ())):
        raise ProfileError(f"param 'values' of {name!r} must hold one value "
                           f"per node, not {params['values']!r}")
    return build(q, spec.period)


# ---------------------------------------------------------------------------
# environment specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvironmentSpec:
    """Description of a stationary environment, serializable as env/1.

    ``profile`` is a registry name (serializable) or a raw callable
    (accepted everywhere, rejected by serialization).  Periodic profiles
    are callables (p, x); checkerboard templates are (p, x, v) with v the
    blended per-cell parameter.
    """

    kind: str
    profile: object
    params: dict
    period: float | None = None
    cell_length: float | None = None
    value_range: tuple | None = None

    def profile_at(self):
        """The profile as a frozen-x builder: ``at(x)`` for periodic
        profiles, ``at(x, v)`` for checkerboard templates, computes the
        x-only terms once and returns p -> H(p, x) as float64 values.
        Named profiles add their terms in a fixed order, p part first."""
        fn = self.profile
        if callable(fn) and self.kind == "periodic":
            return lambda x: lambda p: np.asarray(
                fn(np.asarray(p, dtype=np.float64), x), dtype=np.float64)
        if callable(fn):
            def at_raw(x, v):
                def h(p):
                    # raw templates see p, x and v broadcast to one shape
                    return np.asarray(fn(*np.broadcast_arrays(
                        np.asarray(p, dtype=np.float64), x, v)),
                        dtype=np.float64)
                return h
            return at_raw
        p_part, x_part = _profile_parts(self)
        if self.kind == "periodic":
            def at(x):
                xt = x_part(x)
                return lambda p: p_part(np.asarray(p, dtype=np.float64)) + xt
            return at

        def at_template(x, v):
            # templates see p broadcast against x, as in the per-call
            # evaluation: a 0-d p would take numpy's scalar power, which
            # can round an ulp away from the array power
            vector = np.ndim(v) > 0

            def as_p(p):
                p = np.asarray(p, dtype=np.float64)
                return p.reshape(1) if vector and p.ndim == 0 else p
            if x_part is None:
                return lambda p: p_part(as_p(p)) + v
            xt = x_part(x)
            return lambda p: p_part(as_p(p)) + xt + v
        return at_template

    def to_dict(self):
        if callable(self.profile):
            raise ProfileError("raw-callable profiles cannot be serialized; "
                               "register a named profile instead")
        d = {key: getattr(self, key, None) for key in ENV_KEYS[self.kind]}
        d.update(schema=ENV_SCHEMA, params=dict(self.params))
        if "value_range" in d:
            d["value_range"] = list(self.value_range)
        return d

    @staticmethod
    def from_dict(d):
        """The spec of an env/1 dict, through the checks of
        ``make_periodic`` or ``make_checkerboard``.  A key the kind does
        not use (``ENV_KEYS``), or a profile or param that ``PROFILES``
        does not declare, is a ProfileError."""
        if not isinstance(d, dict):
            raise ProfileError(f"the env must be a JSON object, not {d!r}")
        if d.get("schema") != ENV_SCHEMA:
            raise ProfileError(f"unsupported environment schema {d.get('schema')!r}")
        kind = d.get("kind")
        if not isinstance(kind, str) or kind not in ENV_KEYS:
            raise ProfileError(f"unknown environment kind {kind!r}")
        check_keys(f"the {kind} env", d, ENV_KEYS[kind])
        params = d.get("params")
        if params is not None and not isinstance(params, dict):
            raise ProfileError(f"params must be a JSON object, not {params!r}")
        if kind == "periodic":
            return make_periodic(d.get("profile"), d.get("period"), params)
        return make_checkerboard(d.get("value_range"), d.get("cell_length"),
                                 d.get("profile"), params)


def _probe_profile(spec, period_or_cell):
    ps = np.linspace(-3.0, 3.0, 41)
    xs = np.linspace(0.0, 2.0 * period_or_cell, 37)
    at = spec.profile_at()
    v = (0.0,) if spec.kind == "checkerboard" else ()
    with np.errstate(all="ignore"):
        vals = at(xs[None, :], *v)(ps[:, None])
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(np.asarray(vals)))[0]
        raise ProfileError(
            f"profile returned non-finite value near p={ps[bad[0]]:.3g}, "
            f"x={xs[bad[1]]:.3g}")


def check_number(name, x, bound="", error=ProfileError):
    """``x`` as a float; ``error`` unless it is a finite real number (not a
    bool) within ``bound``: "> 0", ">= 0" or "" for none."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) \
            or not abs(x) <= sys.float_info.max or (bound and x < 0) \
            or (bound == "> 0" and x == 0):
        raise error(f"{name} must be a finite number {bound}".rstrip()
                    + f", not {x!r}")
    return float(x)


def check_keys(name, d, keys, error=ProfileError):
    """``d``; ``error`` unless it is a dict whose keys are all in ``keys``."""
    if not isinstance(d, dict):
        raise error(f"{name} must be a JSON object, not {d!r}")
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise error(f"unknown key(s) {unknown} in {name}; "
                    f"expected some of {sorted(keys)}")


def make_periodic(profile, period, params=None):
    """Spec for a deterministic periodic medium; realizations ignore the seed."""
    period = check_number("period", period, "> 0")
    spec = EnvironmentSpec(kind="periodic", profile=profile,
                           params=dict(params or {}), period=period)
    _probe_profile(spec, period)
    return spec


def make_checkerboard(value_range, cell_length, profile_template, params):
    """Spec for an i.i.d.-per-cell medium with C^1 boundary blending."""
    if not (isinstance(value_range, (list, tuple)) and len(value_range) == 2):
        raise ProfileError(f"value_range must be two finite numbers, "
                           f"not {value_range!r}")
    lo, hi = (check_number("value_range", v) for v in value_range)
    if hi < lo:
        raise ProfileError("empty value_range")
    cell_length = check_number("cell_length", cell_length, "> 0")
    spec = EnvironmentSpec(kind="checkerboard", profile=profile_template,
                           params=dict(params or {}), cell_length=cell_length,
                           value_range=(lo, hi))
    _probe_profile(spec, cell_length)
    return spec


def make_separable(base, value_range, cell_length):
    """H(p, x) = base(p) + V(x) with V an i.i.d. checkerboard process."""
    return make_checkerboard(value_range, cell_length, "base_plus_v",
                             {"base": base})


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

#: elements of one evaluated block of a probe or oracle table
_BLOCK = 64 * 256
#: coercivity_radii doubles its probe radius from 4 up to this one
_COERCIVE_R_MAX = 1024.0


def _row_blocks(n_rows, n_cols):
    """Row slices covering an (n_rows, n_cols) table in blocks of at most
    ``_BLOCK`` elements (one row at least), so that a table is reduced as
    it is evaluated and never held whole."""
    step = max(1, _BLOCK // n_cols)
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


class HamiltonianField:
    """One realization of H(p, x), evaluable anywhere, immutable after build.

    Structural metadata is probed lazily and cached per exact argument,
    so no probe's value depends on what the field was asked before:
    ``lipschitz_on(r)`` bounds |dH/dp| over [-r, r],
    ``coercivity_radius(mu)`` returns the smallest probed r with
    H(+-r, x) > mu for all probe x, ``sup_abs_on(p)`` returns the probed
    sup over x of |H(p, x)|, and ``modulus(p_lo, p_hi)`` returns the
    continuity-modulus callable over a compact p-set.  Probe tables are
    evaluated and reduced in row blocks (``_row_blocks``).
    """

    #: spatial period of the realization, or None for random media
    period = None
    #: cell length for random media, or None
    cell_length = None
    #: True when the realization does not depend on the seed
    deterministic = True

    def __init__(self):
        self._cache = {}

    @property
    def cell(self):
        """Length of one period, else of one random cell (1.0 if unset)."""
        if self.period is not None:
            return self.period
        return self.cell_length or 1.0

    # -- evaluation ---------------------------------------------------------

    def at(self, x):
        """Frozen-x evaluator: h with h(p) == H(p, x), broadcast over p and
        x.  Every x-only term is computed here, once; build h once where a
        loop varies p at fixed x."""
        raise NotImplementedError

    def frozen_at(self, key, x):
        """``at(x)``, built at the first call with ``key`` and kept beside
        the probes, for a caller that freezes the same nodes again and
        again; ``key`` must fix x to the bit."""
        key = ("at", key)
        if key not in self._cache:
            self._cache[key] = self.at(x)
        return self._cache[key]

    def period_key(self, x):
        """The reduced x that ``at(x)`` depends on, or None when ``at``
        reads x itself: points with equal keys have equal values
        ``at(x)(p)``, bit for bit."""
        return None

    def key_points(self, xs):
        """(pts, inv): the first x of each distinct ``period_key`` among
        ``xs``, and the index of each x of ``xs.ravel()`` into pts, so
        that a pointwise result on pts read back as ``[inv]`` is the
        result on every x, bit for bit.  Without a key, pts is every x."""
        xs = np.asarray(xs, dtype=np.float64).ravel()
        key = self.period_key(xs)
        if key is None:
            return xs, np.arange(len(xs))
        _, first, inv = np.unique(key, return_index=True, return_inverse=True)
        return xs[first], inv

    def evaluate(self, p, x):
        out = self.at(x)(p)
        return out if out.ndim else float(out)

    __call__ = evaluate

    # -- probing ------------------------------------------------------------

    def probe_xs(self, n):
        """Representative x probes: one period, or a 48-cell window."""
        if self.period is not None:
            return np.arange(n) * (self.period / n)
        return np.arange(n) * (48 * self.cell / n)

    def _probe_at(self, n):
        """The evaluator frozen at ``probe_xs(n)``, built once per field."""
        return self.frozen_at(("probe", n), self.probe_xs(n))

    def lipschitz_on(self, r):
        key = ("lip", float(r))
        if key not in self._cache:
            ps = np.linspace(-r, r, 601)[:, None]
            at = self._probe_at(256)
            h = 1e-6 * (1.0 + r)
            d = [np.max(np.abs(at(ps[s] + h) - at(ps[s])))
                 for s in _row_blocks(len(ps), 256)]
            self._cache[key] = float(np.max(d) / h)
        return self._cache[key]

    def coercivity_radius(self, mu_max):
        """Smallest probed r such that min_x H(+-r, x) > mu_max."""
        return self.coercivity_radii([mu_max])[0]

    def coercivity_radii(self, mus):
        """``coercivity_radius`` of each level in ``mus``.

        Radii are cached per level.  The levels share the probe grid of
        each doubling radius and one vectorized bisection.  A level the
        probes do not clear by r = _COERCIVE_R_MAX, as on a field bounded
        in p, is a ProfileError.
        """
        keys = [("coer", float(mu)) for mu in mus]
        todo = {}
        for key, mu in zip(keys, mus):
            if key not in self._cache:
                todo.setdefault(key, mu + 1e-9 * (1.0 + abs(mu)))
        if not todo:
            return [self._cache[key] for key in keys]
        thresholds = np.array(list(todo.values()))
        h = self._probe_at(512)

        def g(rs):
            out = []
            for s in _row_blocks(len(rs), 512):
                vplus = h(rs[s, None]).min(axis=1)
                vminus = h(-rs[s, None]).min(axis=1)
                out.append(np.minimum(vplus, vminus))
            return np.concatenate(out)

        brackets = {}
        R = 4.0
        while R <= _COERCIVE_R_MAX:
            rs = np.linspace(0.0, R, max(int(R / 0.02), 64) + 1)
            gr = g(rs)
            for i, t in enumerate(thresholds):
                ok = gr > t
                if i not in brackets and ok[-1] and ok[-2]:
                    bad = np.nonzero(~ok)[0]
                    # when r = 0 already clears the level, the bracket
                    # (0, 0) stays put through the bisection
                    brackets[i] = (rs[bad[-1]], rs[bad[-1] + 1]) \
                        if len(bad) else (0.0, 0.0)
            if len(brackets) == len(thresholds):
                break
            R *= 2.0
        else:
            raise ProfileError("field does not look coercive on probes")
        lo, hi = np.array([brackets[i] for i in range(len(thresholds))]).T
        # ~(g > t), not g <= t: a NaN probe value moves lo
        _, hi = bisect(lambda r: ~(g(r) > thresholds), lo, hi, 60)
        self._cache.update((key, float(r)) for key, r in zip(todo, hi))
        return [self._cache[key] for key in keys]

    def modulus(self, p_lo, p_hi):
        """Continuity modulus rho_K over K = [p_lo, p_hi]: rho(r) = L * r.

        L is the probed maximum difference quotient in (p, x) on K times a
        probe window; the returned callable carries it as ``rho.L``.
        """
        ps = np.linspace(p_lo, p_hi, 401)[:, None]
        at = self._probe_at(256)
        hp = 1e-6 * (1.0 + abs(p_hi - p_lo))
        hx = 1e-6 * (1.0 + float(self.cell))
        at_dx = self.at(self.probe_xs(256) + hx)
        dp, dx = [], []
        for s in _row_blocks(len(ps), 256):
            base = at(ps[s])
            dp.append(np.max(np.abs(at(ps[s] + hp) - base)))
            dx.append(np.max(np.abs(at_dx(ps[s]) - base)))
        L = float(max(np.max(dp) / hp, np.max(dx) / hx))

        def rho(r):
            return L * np.asarray(r, dtype=np.float64)

        rho.L = L
        return rho

    def sup_abs_on(self, p):
        """Probed sup over x of |H(p, x)| for a fixed tilt p."""
        key = ("sup", float(p))
        if key not in self._cache:
            self._cache[key] = float(np.max(np.abs(self._probe_at(512)(p))))
        return self._cache[key]


class PeriodicField(HamiltonianField):
    """Deterministic periodic realization; x is reduced mod period so the
    stationarity identity H(p, x + period) = H(p, x) is exact on dyadic
    probe points."""

    def __init__(self, spec):
        super().__init__()
        self.spec = spec
        self.period = float(spec.period)
        self._at = spec.profile_at()

    def period_key(self, x):
        x = np.asarray(x, dtype=np.float64)
        T = self.period
        return x - T * np.floor(x / T)

    def at(self, x):
        return self._at(self.period_key(x))


def _smoothstep(u):
    return u * u * (3.0 - 2.0 * u)


class CheckerboardField(HamiltonianField):
    """Realization with i.i.d. per-cell values, C^1-blended across cell
    boundaries over width 0.1 * cell_length.

    ``wrap_cells`` periodizes the realization on a torus of that many
    cells (a representative volume): the field becomes periodic with
    period wrap_cells * cell_length while staying seed-dependent, which
    removes window-boundary error from discounted solves at the price of
    finite-volume fluctuation in the averages.
    """

    deterministic = False

    def __init__(self, spec, seed, wrap_cells=None):
        super().__init__()
        self.spec = spec
        self.seed = int(seed)
        self.cell_length = float(spec.cell_length)
        self.wrap_cells = int(wrap_cells) if wrap_cells else None
        if self.wrap_cells:
            self.period = self.wrap_cells * self.cell_length
        lo, hi = spec.value_range
        self._lo, self._span = float(lo), float(hi - lo)
        self._at = spec.profile_at()

    def _cell_value(self, idx):
        if self.wrap_cells:
            idx = np.mod(idx, self.wrap_cells)
        u = cell_uniform(self.seed, idx)
        return self._lo + self._span * u

    def periodized(self, n_cells):
        return CheckerboardField(self.spec, self.seed, n_cells)

    def cell_values(self, x):
        """Blended parameter process V(x), vectorized."""
        x = np.asarray(x, dtype=np.float64)
        ell = self.cell_length
        idx = np.floor(x / ell).astype(np.int64)
        t = x - idx * ell
        w = 0.1 * ell
        v0 = self._cell_value(idx)
        left = t < 0.5 * w
        right = t > ell - 0.5 * w
        out = np.array(v0, dtype=np.float64, copy=True)
        if np.any(left):
            s = _smoothstep(0.5 + t[left] / w)
            vprev = self._cell_value(idx[left] - 1)
            out[left] = vprev + (v0[left] - vprev) * s
        if np.any(right):
            s = _smoothstep((t[right] - (ell - 0.5 * w)) / w)
            vnext = self._cell_value(idx[right] + 1)
            out[right] = v0[right] + (vnext - v0[right]) * s
        return out

    def at(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self._at(x, self.cell_values(x.ravel()).reshape(x.shape))


class DerivedField(HamiltonianField):
    """A field computed from ``base``: it has the base's period, cell length
    and seed dependence."""

    def __init__(self, base):
        super().__init__()
        self.base = base
        self.period = base.period
        self.cell_length = base.cell_length
        self.deterministic = base.deterministic

    def period_key(self, x):
        # at(x) hands x to the base unchanged; a subclass that moves x or
        # reads a second field returns None
        return self.base.period_key(x)


def sample(spec, seed=0):
    """Realize a field from a spec; bit-deterministic in (spec, seed)."""
    if spec.kind == "periodic":
        return PeriodicField(spec)
    if spec.kind == "checkerboard":
        return CheckerboardField(spec, seed)
    raise ProfileError(f"unknown environment kind {spec.kind!r}")
