import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from hjhomog import env
from hjhomog.errors import ProfileError


@pytest.fixture
def abs_sin():
    return env.sample(env.make_periodic("abs_plus_sin", 1.0))


@pytest.fixture
def quartic_2sin():
    return env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 2.0}))


@pytest.fixture
def board():
    spec = env.make_checkerboard((-2.0, 0.0), 1.0, "quartic_plus_v", {})
    return env.sample(spec, seed=7)


def test_eval_direct_formula(abs_sin):
    assert abs_sin.evaluate(2.0, 0.25) == pytest.approx(3.0, abs=1e-14)
    assert abs_sin.evaluate(0.0, 0.75) == pytest.approx(-1.0, abs=1e-14)
    assert abs_sin.evaluate(-2.0, 0.25) == pytest.approx(3.0, abs=1e-14)


def test_periodic_lipschitz_probe(abs_sin):
    # d|p|/dp is +-1 and the medium is p-independent
    assert abs_sin.lipschitz_on(2.0) == pytest.approx(1.0, abs=1e-4)


def test_coercivity_radius_quartic(quartic_2sin):
    # smallest r with (r^2-1)^2 - 2 > 5, i.e. r = sqrt(1 + sqrt(7))
    expected = math.sqrt(1.0 + math.sqrt(7.0))
    assert quartic_2sin.coercivity_radius(5.0) == pytest.approx(expected, abs=2e-3)


def test_coercivity_probe_random_x(quartic_2sin):
    rng = np.random.default_rng(0)
    mu = 5.0
    r = quartic_2sin.coercivity_radius(mu)
    xs = rng.uniform(0.0, 50.0, size=100)
    vals = np.minimum(quartic_2sin.evaluate(r + 1e-9, xs),
                      quartic_2sin.evaluate(-r - 1e-9, xs))
    assert vals.min() > mu - 1e-6


def _coercivity_radius_reference(field, mu_max, cache):
    """The per-level form of coercivity_radius: its own doubling search and
    a scalar bisection."""
    key = float(mu_max)
    if key in cache:
        return cache[key]
    xs = field.probe_xs(512)
    margin = 1e-9 * (1.0 + abs(mu_max))

    def g(rs):
        rs = np.atleast_1d(rs)
        vplus = field.evaluate(rs[:, None], xs[None, :]).min(axis=1)
        vminus = field.evaluate(-rs[:, None], xs[None, :]).min(axis=1)
        return np.minimum(vplus, vminus)

    R = 4.0
    while True:
        rs = np.linspace(0.0, R, max(int(R / 0.02), 64) + 1)
        ok = g(rs) > mu_max + margin
        if ok[-1] and ok[-2]:
            break
        R *= 2.0
    bad = np.nonzero(~ok)[0]
    if len(bad) == 0:
        cache[key] = 0.0
        return 0.0
    lo, hi = rs[bad[-1]], rs[bad[-1] + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid)[0] > mu_max + margin:
            hi = mid
        else:
            lo = mid
    cache[key] = float(hi)
    return float(hi)


def test_coercivity_radii_match_per_level_reference(quartic_2sin):
    # 5 + 4e-13 and 5 are two levels with radii of their own; 2.0 is
    # cached before the batch; 1000 needs a doubled radius and -5
    # is below min H, so its radius is 0
    levels = [5.0 + 4e-13, 0.3, 5.0, 2.0, 1000.0, -5.0, 0.3 + 1e-7]
    cache = {}
    _coercivity_radius_reference(quartic_2sin, 2.0, cache)
    expected = [_coercivity_radius_reference(quartic_2sin, mu, cache)
                for mu in levels]
    fresh = env.sample(env.make_periodic("quartic_plus_sin", 1.0,
                                         {"amplitude": 2.0}))
    assert fresh.coercivity_radius(2.0) == cache[2.0]
    assert fresh.coercivity_radii(levels) == expected
    assert expected[4] > 4.0 and expected[5] == 0.0
    assert [fresh.coercivity_radius(mu) for mu in levels] == expected


_QUARTIC = env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 2.0})


@settings(max_examples=30, deadline=None)
@given(base=hs.sampled_from([0.3, 2.0, 5.0]),
       calls=hs.lists(hs.tuples(hs.sampled_from(["coercivity_radius",
                                                 "lipschitz_on"]),
                                hs.integers(-600, 600)),
                      min_size=2, max_size=6))
def test_probes_do_not_depend_on_history(base, calls):
    # levels a few ulps apart, asked of one field in the drawn order, get
    # the values a fresh field gives each of them: levels within 600 ulps
    # of base share 12-digit rounded keys, so a cache keyed by rounded
    # levels would let the first level decide the others' values
    shared = env.sample(_QUARTIC)
    levels = [base + k * math.ulp(base) for _, k in calls]
    for (name, _), level in zip(calls, levels):
        fresh = getattr(env.sample(_QUARTIC), name)(level)
        assert getattr(shared, name)(level) == fresh
    assert shared.coercivity_radii(levels[::-1]) == [
        env.sample(_QUARTIC).coercivity_radius(mu) for mu in levels[::-1]]


def test_periodic_stationarity_exact(abs_sin):
    xs = np.arange(64) / 64.0  # dyadic probes: reduction mod 1 is bit-exact
    ps = np.array([-1.5, -0.25, 0.0, 0.7, 2.0])
    a = abs_sin.evaluate(ps[:, None], xs[None, :])
    b = abs_sin.evaluate(ps[:, None], xs[None, :] + 1.0)
    assert np.array_equal(a, b)


def test_periodic_ignores_seed():
    spec = env.make_periodic("abs_plus_sin", 1.0)
    f1, f2 = env.sample(spec, seed=1), env.sample(spec, seed=99)
    xs = np.linspace(0, 1, 17)
    assert np.array_equal(f1.evaluate(0.3, xs), f2.evaluate(0.3, xs))


def test_xfree_profile_shift_invariant():
    f = env.sample(env.make_periodic("xfree", 1.0, {"base": "quadratic"}))
    xs = np.linspace(0, 3, 11)
    assert np.array_equal(f.evaluate(1.2, xs), np.full(11, 1.2 ** 2))


def test_checkerboard_determinism(board):
    v1 = board.evaluate(0.3, 12.5)
    v2 = board.evaluate(0.3, 12.5)
    assert v1 == v2
    again = env.sample(board.spec, seed=7)
    assert again.evaluate(0.3, 12.5) == v1


def test_checkerboard_seeds_differ(board):
    other = env.sample(board.spec, seed=8)
    xs = np.linspace(0.0, 20.0, 101)
    a, b = board.evaluate(0.0, xs), other.evaluate(0.0, xs)
    assert np.max(np.abs(a - b)) > 1e-3


def test_checkerboard_continuity_across_boundary(board):
    # C^1 blending keeps H continuous in x at cell boundaries
    eps = 1e-8
    for xb in [1.0, 2.0, 5.0]:
        lo = board.evaluate(0.2, xb - eps)
        hi = board.evaluate(0.2, xb + eps)
        assert abs(hi - lo) < 1e-5


def test_degenerate_value_range_is_periodic():
    spec = env.make_checkerboard((-0.5, -0.5), 1.0, "quartic_plus_v", {})
    f = env.sample(spec, seed=3)
    xs = np.linspace(0, 10, 200)
    assert np.allclose(f.evaluate(0.0, xs), 1.0 - 0.5)


def test_continuity_modulus_probe(quartic_2sin):
    rho = quartic_2sin.modulus(-2.0, 2.0)
    rng = np.random.default_rng(1)
    ps = rng.uniform(-2.0, 2.0, 200)
    xs = rng.uniform(0.0, 4.0, 200)
    dp = rng.uniform(1e-4, 1e-2, 200)
    quo = np.abs(quartic_2sin.evaluate(ps + dp, xs) - quartic_2sin.evaluate(ps, xs))
    assert np.all(quo <= 1.05 * rho(dp) + 1e-12)


def test_empty_range_rejected():
    with pytest.raises(ProfileError):
        env.make_checkerboard((1.0, 0.0), 1.0, "abs_plus_v", {})


def test_nonfinite_profile_rejected():
    with pytest.raises(ProfileError):
        env.make_periodic(lambda p, x: np.log(np.asarray(p) - 10.0) + 0 * x, 1.0)


def test_spec_roundtrip_json():
    spec = env.make_checkerboard((-2.0, 0.0), 0.5, "quartic_plus_v", {})
    text = json.dumps(spec.to_dict())
    back = env.EnvironmentSpec.from_dict(json.loads(text))
    assert back == spec
    d = json.loads(text)
    assert d["schema"] == "env/1"


# a value for every param a registry profile reads
PARAM_VALUES = {"amplitude": 0.5, "base": "quadratic", "nodes": [0, 1, 2],
                "values": [0.0, 1.0, 0.0], "cone_slope": 2.0,
                "inner_period": 0.5}


def _registry_dicts():
    for kind, profiles in env.PROFILE_PARAMS.items():
        for name, keys in profiles.items():
            params = {k: PARAM_VALUES[k] for k in keys}
            if kind == "periodic":
                spec = env.make_periodic(name, 1.0, params)
            else:
                spec = env.make_checkerboard((-1.0, 0.0), 1.0, name, params)
            yield kind, name, spec.to_dict()


@pytest.mark.parametrize("kind,name,d", list(_registry_dicts()))
def test_registry_profile_roundtrip(kind, name, d):
    # every dict to_dict writes loads back: manifests rerun
    back = env.EnvironmentSpec.from_dict(d)
    assert back.to_dict() == d
    assert env.EnvironmentSpec.from_dict(
        json.loads(json.dumps(back.to_dict()))) == back
    with pytest.raises(ProfileError):
        env.EnvironmentSpec.from_dict(dict(d, params=dict(d["params"],
                                                          amplitud=0.3)))
    with pytest.raises(ProfileError):
        env.EnvironmentSpec.from_dict(dict(d, periods=2))


class _ReadRecorder(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("kind,name,d", list(_registry_dicts()))
def test_profile_params_table_is_what_builders_read(kind, name, d):
    params = _ReadRecorder(d["params"])
    if kind == "periodic":
        env._build_periodic_profile(name, params, 1.0)
    else:
        env._build_template(name, params)
    assert params.read == set(env.PROFILE_PARAMS[kind][name])


def test_callable_profile_not_serializable():
    spec = env.make_periodic(lambda p, x: np.abs(p) + 0 * x, 1.0)
    with pytest.raises(ProfileError):
        spec.to_dict()


def test_split_seed_deterministic():
    a = env.split_seed(42, 0)
    b = env.split_seed(42, 0)
    c = env.split_seed(42, 1)
    assert a == b and a != c


def test_composite_environment():
    spec = env.make_checkerboard(
        (-1.0, 0.0), 1.0, "base_plus_sin_plus_v",
        {"base": "double_well", "amplitude": 0.3, "inner_period": 0.5})
    f = env.sample(spec, seed=4)
    xs = np.linspace(0, 8, 200)
    vals = f.evaluate(0.0, xs)
    # both the periodic forcing and the cell draws are present
    assert np.ptp(vals) > 0.5
    assert spec.to_dict()["profile"] == "base_plus_sin_plus_v"
    again = env.EnvironmentSpec.from_dict(json.loads(json.dumps(
        spec.to_dict())))
    assert np.array_equal(env.sample(again, 4).evaluate(0.0, xs), vals)


# -- shared search helpers against copies of the loops they replaced ----------


def test_bisect_matches_coercivity_loop():
    # NaN probe values move lo in the old loop: the predicate must be
    # ~(g > t), which differs from g <= t exactly there
    def g(rs):
        return np.where((rs > 0.9) & (rs < 1.1), np.nan, rs * rs)

    t = np.array([0.25, 1.0, 2.0, 7.5, np.nan])
    lo0, hi0 = np.zeros(5), np.full(5, 3.0)
    lo, hi = lo0, hi0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = g(mid) > t
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    got = env.bisect(lambda r: ~(g(r) > t), lo0, hi0, 60)
    assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi)
    naive = env.bisect(lambda r: g(r) <= t, lo0, hi0, 60)
    assert not np.array_equal(naive[1], hi)


def test_bisect_matches_convex_oracle_loops(abs_sin):
    xs = np.linspace(0.0, 3.0, 97, endpoint=False)
    pg = np.linspace(-4.0, 4.0, 513)
    arg = pg[np.argmin(abs_sin.evaluate(pg[:, None], xs[None, :]), axis=0)]
    lo, hi = np.full(len(xs), -4.0), np.full(len(xs), 4.0)
    for mu in (0.3, 1.7, 2.9):
        a, b = arg.copy(), hi.copy()
        for _ in range(60):
            m = 0.5 * (a + b)
            below = abs_sin.evaluate(m, xs) < mu
            a, b = np.where(below, m, a), np.where(below, b, m)
        got = env.bisect(lambda m: abs_sin.evaluate(m, xs) < mu, arg, hi, 60)
        assert np.array_equal(got[0], a) and np.array_equal(got[1], b)
        a, b = lo.copy(), arg.copy()
        for _ in range(60):
            m = 0.5 * (a + b)
            below = abs_sin.evaluate(m, xs) < mu
            a, b = np.where(below, a, m), np.where(below, m, b)
        got = env.bisect(lambda m: ~(abs_sin.evaluate(m, xs) < mu),
                         lo, arg, 60)
        assert np.array_equal(got[0], a) and np.array_equal(got[1], b)


def _golden_reference(f, a, b, steps, stop_rtol=None):
    """The golden-section loops of branch detection (with its early stop)
    and of the tangential-touch refinement (without)."""
    c = b - env._INVPHI * (b - a)
    d = a + env._INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - env._INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + env._INVPHI * (b - a)
            fd = f(d)
        if stop_rtol is not None and b - a < stop_rtol * (1.0 + abs(a)):
            break
    return 0.5 * (a + b)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_golden_min_matches_reference_loops(quartic_2sin, sign):
    assert env._INVPHI == 0.6180339887498949
    cases = [(lambda p: sign * quartic_2sin.evaluate(p, 0.37), -1.6, -0.4),
             (lambda p: sign * quartic_2sin.evaluate(p, 0.81), -0.5, 0.6),
             (lambda p: sign * abs(p - 0.3), 0.0, 1.0),
             (lambda x: sign * math.sin(2.0 * math.pi * x), 0.17, 0.33)]
    for f, a, b in cases:
        assert env.golden_min(f, a, b, 90, rtol=1e-13) == \
            _golden_reference(f, a, b, 90, stop_rtol=1e-13)
        assert env.golden_min(f, np.float64(a), np.float64(b), 80) == \
            _golden_reference(f, np.float64(a), np.float64(b), 80)


@pytest.mark.parametrize("rtol", [0.0, 1e-13])
def test_golden_min_array_brackets_match_scalar_loops(quartic_2sin, rtol):
    # brackets 2 wide down to 1e-3 wide meet the rtol stop at different
    # steps; each element must end where its own scalar search ends
    a = np.array([-1.6, -0.5, -1.2, 0.9, -1.0005, 0.999, 0.0])
    b = np.array([-0.4, 0.6, -0.8, 1.4, -0.9995, 1.001, 1.0])
    sign = np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
    got = env.golden_min(lambda p: sign * quartic_2sin.evaluate(p, 0.37),
                         a, b, 90, rtol=rtol)
    assert got.shape == a.shape
    steps = []
    for i in range(len(a)):
        calls = []

        def f(p, s=sign[i]):
            calls.append(p)
            return s * quartic_2sin.evaluate(p, 0.37)
        want = _golden_reference(f, a[i], b[i], 90, stop_rtol=rtol or None)
        assert got[i].tobytes() == np.float64(want).tobytes()
        steps.append(len(calls) - 2)
    assert len(set(steps)) > 1 if rtol else set(steps) == {90}
