"""Probe and oracle tables evaluated in row blocks: ``lipschitz_on``,
``coercivity_radii``, ``modulus`` and ``gluing._oracle_table`` against
copies of their whole-table forms, byte for byte, over the fields of
``test_frozen_x``; the memory each keeps to; and a field bounded in p
failing typed and bounded."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from hjhomog import env, gluing as gl
from hjhomog.errors import NotApplicable, ProfileError

from test_frozen_x import FIELDS


# -- reference: the whole-table forms the blocks replaced ---------------------
# verbatim but for the probe cache, which is the argument ``cache`` here

def ref_lipschitz_on(self, r, cache):
    key = ("lip", float(r))
    if key not in cache:
        ps = np.linspace(-r, r, 601)
        xs = self.probe_xs(256)
        h = 1e-6 * (1.0 + r)
        d = self.evaluate(ps[:, None] + h, xs[None, :]) - \
            self.evaluate(ps[:, None], xs[None, :])
        cache[key] = float(np.max(np.abs(d)) / h)
    return cache[key]


def ref_coercivity_radii(self, mus, cache):
    keys = [("coer", float(mu)) for mu in mus]
    todo = {}
    for key, mu in zip(keys, mus):
        if key not in cache:
            todo.setdefault(key, mu + 1e-9 * (1.0 + abs(mu)))
    if not todo:
        return [cache[key] for key in keys]
    thresholds = np.array(list(todo.values()))
    xs = self.probe_xs(512)

    h = self.at(xs)

    def g(rs):
        vplus = h(rs[:, None]).min(axis=1)
        vminus = h(-rs[:, None]).min(axis=1)
        return np.minimum(vplus, vminus)

    brackets = {}
    R = 4.0
    for _ in range(40):
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
    _, hi = env.bisect(lambda r: ~(g(r) > thresholds), lo, hi, 60)
    cache.update((key, float(r)) for key, r in zip(todo, hi))
    return [cache[key] for key in keys]


def ref_modulus(self, p_lo, p_hi):
    ps = np.linspace(p_lo, p_hi, 401)
    xs = self.probe_xs(256)
    hp = 1e-6 * (1.0 + abs(p_hi - p_lo))
    hx = 1e-6 * (1.0 + float(self.cell))
    base = self.evaluate(ps[:, None], xs[None, :])
    dp = np.max(np.abs(self.evaluate(ps[:, None] + hp, xs[None, :]) - base)) / hp
    dx = np.max(np.abs(self.evaluate(ps[:, None], xs[None, :] + hx) - base)) / hx
    L = float(max(dp, dx))

    def rho(r):
        return L * np.asarray(r, dtype=np.float64)

    rho.L = L
    return rho


def ref_oracle_table(f, p_lo, p_hi):
    xs, inv = f.key_points(
        np.linspace(0.0, 400 * f.cell, 6400, endpoint=False))
    pg = np.linspace(p_lo, p_hi, 513)
    h = f.at(xs)
    vals = h(pg[:, None])
    # quasi-convexity probe: no interior rebound above tolerance
    tol = 1e-8 * (np.max(vals) - np.min(vals) + 1.0)
    for j in (0, len(inv) // 3, 2 * len(inv) // 3):
        col = vals[:, inv[j]]
        k = int(np.argmin(col))
        if np.any(np.diff(col[:k + 1]) > tol) or \
                np.any(np.diff(col[k:]) < -tol):
            raise NotApplicable("field is not quasi-convex in p")
    # cap levels so both crossings stay inside [p_lo, p_hi] for every x
    return (h, pg[np.argmin(vals, axis=0)], inv, float(vals.min(axis=0).max()),
            float(min(np.min(vals[0, :]), np.min(vals[-1, :]))))


# -- helpers -------------------------------------------------------------------

def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def _fresh(f):
    """``f`` with its probes not yet asked: the blocks run again."""
    f._cache = {}
    return f


def _outcome(fn, *args):
    """fn's result, or the type and message of its typed failure."""
    try:
        return fn(*args)
    except (NotApplicable, ProfileError) as exc:
        return type(exc), str(exc)


def _same_table(got, want):
    if isinstance(want[0], type):
        assert got == want
        return
    h, arg, inv, mu0, mu_hi = got
    assert _bits(arg) == _bits(want[1])
    assert np.array_equal(inv, want[2])
    assert _bits([mu0, mu_hi]) == _bits(want[3:])
    p = np.linspace(-2.0, 2.0, 7)[:, None]
    assert _bits(h(p)) == _bits(want[0](p))


def _nan_above(p0):
    # finite on _probe_profile's box (|p| <= 3), NaN for p > p0
    def raw(p, x):
        return np.where(p > p0, np.nan, (p * p - 1.0) ** 2
                        + 0.4 * np.sin(2 * np.pi * x))
    return env.sample(env.make_periodic(raw, 1.0))


def _board_nan_above(p0):
    # NaN for p > p0 in the cells whose value lies above -0.2 only
    def raw(p, x, v):
        return np.where((p > p0) & (v > -0.2), np.nan, np.abs(p) + v)
    return env.sample(env.make_checkerboard((-0.5, 0.25), 0.5, raw, {}), 3)


NAMES = sorted(FIELDS)


# -- byte identity -------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=4, deadline=None)
@given(r=hs.one_of(hs.floats(0.05, 6.0), hs.sampled_from([0.5, 2.0, 4.25])))
def test_lipschitz_on_matches_whole_table(name, r):
    # 601 rows: nine blocks of 64 and a partial one of 25
    f = _fresh(FIELDS[name])
    assert _bits(f.lipschitz_on(r)) == _bits(ref_lipschitz_on(f, r, {}))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=3, deadline=None)
@given(p_lo=hs.floats(-4.0, 1.0), width=hs.floats(0.1, 5.0))
def test_modulus_matches_whole_table(name, p_lo, width):
    f = FIELDS[name]
    got = f.modulus(p_lo, p_lo + width).L
    assert _bits(got) == _bits(ref_modulus(f, p_lo, p_lo + width).L)


def _levels_at(f, radii):
    """Levels just under min_x H(+-r, x) on the probe grid: their radii
    need a probe grid out to r."""
    xs = f.probe_xs(512)
    return [float(min(np.min(f.evaluate(r, xs)), np.min(f.evaluate(-r, xs))))
            - 1e-3 for r in radii]


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=3, deadline=None)
@given(radii=hs.lists(hs.one_of(hs.floats(0.0, 14.0),
                                hs.sampled_from([6.0, 12.0])),
                      min_size=1, max_size=5))
def test_coercivity_radii_match_whole_table(name, radii):
    # radii past 4 and 8 need the R = 8 and R = 16 grids
    f = _fresh(FIELDS[name])
    mus = _levels_at(f, radii)
    assert _bits(f.coercivity_radii(mus)) == \
        _bits(ref_coercivity_radii(f, mus, {}))


def test_coercivity_levels_reach_the_r16_grid():
    f = _fresh(FIELDS["board:0"])
    mus = _levels_at(f, [6.0, 12.0])
    got = f.coercivity_radii(mus)
    assert 4.0 < got[0] <= 8.0 < got[1] <= 16.0
    assert _bits(got) == _bits(ref_coercivity_radii(f, mus, {}))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=2, deadline=None)
@given(p_lo=hs.floats(-4.0, -0.5), p_hi=hs.floats(0.5, 4.0))
def test_oracle_table_matches_whole_table(name, p_lo, p_hi):
    # a keyless field fills 6,400 columns: blocks of two rows
    f = FIELDS[name]
    _same_table(_outcome(gl._oracle_table, f, p_lo, p_hi),
                _outcome(ref_oracle_table, f, p_lo, p_hi))


def test_nan_propagates_through_the_blocks():
    # NaN in the last block only: a fold that drops it reads a number
    f = _nan_above(3.5)
    assert np.isnan(ref_lipschitz_on(f, 4.0, {}))
    assert np.isnan(f.lipschitz_on(4.0))
    assert np.isnan(ref_modulus(f, -1.0, 4.0).L)
    assert np.isnan(f.modulus(-1.0, 4.0).L)
    assert f.lipschitz_on(3.0) == ref_lipschitz_on(f, 3.0, {})


@pytest.mark.parametrize("p_hi", [3.7, 4.0])
def test_nan_oracle_table_matches_whole_table(p_hi):
    # NaN rows sit in late blocks of some columns: their argmin is the
    # first NaN, their minimum NaN, and so is the flat level
    f = _board_nan_above(3.6)
    want = ref_oracle_table(f, -4.0, p_hi)
    assert np.isnan(want[3])
    _same_table(gl._oracle_table(f, -4.0, p_hi), want)


# -- memory -------------------------------------------------------------------

def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_four_seed_checkerboard_oracle_memory():
    # a whole 513 x 6,400 table is 26 MB a seed
    spec = env.make_separable("abs", (-1.0, 0.0), 1.0)
    fields = {s: env.sample(spec, s) for s in range(4)}
    assert _peak_mb(lambda: gl.convex_oracle(fields, p_lo=-3.5,
                                             p_hi=3.5)) < 8.0


def test_lipschitz_on_memory():
    # a whole 601 x 256 table is 1.2 MB
    f = env.sample(env.make_separable("abs", (-1.0, 0.0), 1.0), 0)
    assert _peak_mb(lambda: f.lipschitz_on(2.0)) < 1.0


def test_coercivity_radii_memory():
    # levels up to 99.5 on |p| + V need the R = 128 grid: 6,401 x 512
    # points, 26 MB whole
    f = env.sample(env.make_separable("abs", (-1.0, 0.0), 1.0), 0)
    levels = list(np.arange(200) * 0.5)
    assert _peak_mb(lambda: f.coercivity_radii(levels)) < 2.0


# -- a field bounded in p --------------------------------------------------------

def test_bounded_field_fails_typed_and_bounded():
    f = env.sample(env.make_periodic(lambda p, x: np.tanh(p) + 0 * x, 1.0))
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ProfileError, match="does not look coercive"):
            f.coercivity_radius(2.0)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 2.0
    # nine grids out to R = 1024, about 102,000 rows
    assert time.perf_counter() - t0 < 60.0
