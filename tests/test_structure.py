import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs
from scipy.optimize import brentq

from hjhomog import env, gluing as gl, structure as st
from hjhomog.errors import NotConstrained, OutOfBranchRange, ProfileError

import proof_checks as pc


@pytest.fixture
def quartic_01():
    return env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 0.1}))


@pytest.fixture
def quartic_2():
    return env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 2.0}))


@pytest.fixture
def abs_sin():
    return env.sample(env.make_periodic("abs_plus_sin", 1.0))


# -- constrained PL constructor ------------------------------------------------


def test_approx_midpoint_formula():
    f = env.sample(env.make_periodic("xfree", 1.0, {"base": "quadratic"}))
    approx, _ = st.build_constrained_approx(f, 2)
    # nodes H(0)=0, H(0.5)=0.25; midpoint at 0.25 = max(0, 0.25) + 1/2
    assert approx.evaluate(0.0, 0.3) == pytest.approx(0.0, abs=1e-14)
    assert approx.evaluate(0.5, 0.3) == pytest.approx(0.25, abs=1e-14)
    assert approx.evaluate(0.25, 0.3) == pytest.approx(0.75, abs=1e-14)


def test_approx_constant_field():
    c = 1.7
    f = env.sample(env.make_periodic(lambda p, x: c + 0.0 * np.asarray(p) * x, 1.0))
    approx, _ = st.build_constrained_approx(f, 4)
    assert approx.evaluate(1.0, 0.1) == pytest.approx(c, abs=1e-14)       # node
    assert approx.evaluate(1.125, 0.1) == pytest.approx(c + 0.25, abs=1e-14)  # midpoint


def test_approx_sup_error_bound(abs_sin):
    n = 8
    approx, _ = st.build_constrained_approx(abs_sin, n)
    rho = abs_sin.modulus(-2.0, 2.0)
    ps = np.linspace(-2, 2, 801)
    xs = np.linspace(0, 1, 65)
    err = np.max(np.abs(approx.evaluate(ps[:, None], xs[None, :])
                        - abs_sin.evaluate(ps[:, None], xs[None, :])))
    assert err <= rho(1.0 / n) + 1.0 / n + 1e-12


def test_approx_midpoint_dominance(quartic_01):
    n = 4
    approx, _ = st.build_constrained_approx(quartic_01, n)
    x = 0.37
    nodes = -n + np.arange(2 * n * n + 1) / n
    vn = approx.evaluate(nodes, x)
    mids = nodes[:-1] + 0.5 / n
    vm = approx.evaluate(mids, x)
    assert np.all(vm - np.maximum(vn[:-1], vn[1:]) == pytest.approx(1.0 / n, abs=1e-12))


def test_approx_wells_count(quartic_01):
    n = 2
    approx, known = st.build_constrained_approx(quartic_01, n)
    assert known.wells == 2 * n * n + 1
    detected = st.detect_branches(approx, p_box=n + 0.5)
    assert detected.wells == 2 * n * n + 1
    assert np.allclose(detected.breakpoints, known.breakpoints, atol=1e-6)


def test_approx_rejects_non_power_of_two(quartic_01):
    with pytest.raises(ProfileError):
        st.build_constrained_approx(quartic_01, 3)


# -- declutter -----------------------------------------------------------------


def test_declutter_noop_on_clean_field(abs_sin):
    out = st.DeclutteredField(abs_sin, 4)
    ps = np.linspace(-2, 2, 41)
    xs = np.linspace(0, 1, 33)
    assert np.array_equal(out.evaluate(ps[:, None], xs[None, :]),
                          abs_sin.evaluate(ps[:, None], xs[None, :]))


def test_declutter_bump_formula():
    # slice at p=0 identically zero, all other slices equal sin(2 pi x)
    f = env.sample(env.make_periodic(
        lambda p, x: np.minimum(np.abs(8.0 * np.asarray(p)), 1.0) * np.sin(2 * np.pi * x),
        1.0))
    out = st.DeclutteredField(f, 8)
    xs = np.linspace(0, 1, 257)
    expected = np.sin(2 * np.pi * xs) / (1.0 + 1.0) / 8.0
    got = out.evaluate(0.0, xs) - f.evaluate(0.0, xs)
    assert np.allclose(got, expected, atol=1e-9)


def test_declutter_sup_distance(quartic_2):
    n = 8
    out = st.DeclutteredField(quartic_2, n)
    ps = np.linspace(-3, 3, 121)
    xs = np.linspace(0, 1, 65)
    d = np.max(np.abs(out.evaluate(ps[:, None], xs[None, :])
                      - quartic_2.evaluate(ps[:, None], xs[None, :])))
    assert d <= 1.0 / n + 1e-12


# -- branch detection ----------------------------------------------------------


def test_detect_quartic_breakpoints(quartic_01):
    s = st.detect_branches(quartic_01)
    assert np.allclose(s.breakpoints, [-1.0, 0.0, 1.0], atol=1e-6)
    # tie-break picks the smaller-p well; one well remains on the right
    assert s.central == pytest.approx(-1.0, abs=1e-6)
    assert s.index == (0, 1)
    wells, hills = s.processes(quartic_01, np.linspace(0, 1, 50))
    assert np.all(wells.min(axis=0) <= hills.max(axis=0))


def test_detect_abs_plus_v(abs_sin):
    s = st.detect_branches(abs_sin)
    assert len(s.breakpoints) == 1
    assert s.breakpoints[0] == pytest.approx(0.0, abs=1e-8)
    assert s.index == (0, 0)


def test_detect_drifting_breakpoint_rejected():
    f = env.sample(env.make_periodic(
        lambda p, x: (np.asarray(p) - 0.3 * np.sin(2 * np.pi * x)) ** 2, 1.0))
    with pytest.raises(NotConstrained):
        st.detect_branches(f, p_box=3.0)


def _breakpoints_one_probe_reference(field, x, p_box):
    # the per-flip loop that the array search replaced
    ps = np.linspace(-p_box, p_box, 2001)
    step = ps[1] - ps[0]
    h = 0.25 * step
    g = field.evaluate(ps + h, x) - field.evaluate(ps - h, x)
    sign = np.sign(g)
    for i in range(len(sign) - 2, -1, -1):
        if sign[i] == 0:
            sign[i] = sign[i + 1]
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    kinds = [1 if sign[i] < 0 else -1 for i in flips]
    roots = [env.golden_min(lambda p, s=float(k): s * field.evaluate(p, x),
                            ps[i] - step, ps[i + 1] + step, 90, rtol=1e-13)
             for i, k in zip(flips, kinds)]
    return np.asarray(roots, dtype=np.float64), kinds


def _probe_fields():
    board = env.make_checkerboard((-0.5, 0.25), 0.5, "quartic_plus_v", {})
    # a plateau at p in [1, 2]: dH/dp is exactly 0 there
    plateau = {"nodes": [0, 1, 2, 3], "values": [0.0, 1.0, 1.0, 0.2],
               "cone_slope": 2.0, "amplitude": 0.1}
    return {"quartic": env.sample(env.make_periodic(
                "quartic_plus_sin", 1.0, {"amplitude": 2.0})),
            "abs": env.sample(env.make_periodic("abs_plus_sin", 1.0)),
            "plateau": env.sample(env.make_periodic(
                "pwl_wells_plus_dip", 1.0, plateau)),
            "board": env.sample(board, seed=11),
            "monotone": env.sample(env.make_periodic(
                lambda p, x: np.asarray(p) + 0.0 * x, 1.0))}


@pytest.mark.parametrize("name", sorted(_probe_fields()))
def test_breakpoints_one_probe_matches_loop_reference(name):
    f = _probe_fields()[name]
    for x in (0.0371, 0.41, 0.9, 3.37):
        roots, kinds = st._breakpoints_one_probe(f, x, 3.0)
        want, want_kinds = _breakpoints_one_probe_reference(f, x, 3.0)
        assert roots.tobytes() == want.tobytes()
        assert kinds == want_kinds


# -- branch inversion ----------------------------------------------------------


def test_branch_inverse_quartic_closed_form():
    f = env.sample(env.make_periodic("xfree", 1.0, {"base": "double_well"}))
    s = st.detect_branches(f)
    p = pc.branch_inverse(f, s, 1, 0.3, 1.0, side="+")
    assert p == pytest.approx(math.sqrt(1.0 + 1.0), abs=1e-9)


def test_branch_inverse_abs(abs_sin):
    s = st.detect_branches(abs_sin)
    p = pc.branch_inverse(abs_sin, s, 1, 0.0, 2.0, side="+")
    assert p == pytest.approx(2.0, abs=1e-9)


def test_branch_inverse_out_of_range(quartic_01):
    s = st.detect_branches(quartic_01)
    # level below the right well bottom at x = 0.75 (well value 0.1 sin = -0.1)
    with pytest.raises(OutOfBranchRange):
        pc.branch_inverse(quartic_01, s, 1, 0.75, -0.5, side="+")


def test_branch_inverse_consistency(quartic_2):
    s = st.detect_branches(quartic_2)
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.uniform(0, 1)
        j = rng.integers(1, 4)  # positive branches 1..3 (index (0,1) after central -1)
        lo, hi = s.branch_interval(j, "+")
        hi = min(hi, 3.0)
        vals = sorted([quartic_2.evaluate(lo, x), quartic_2.evaluate(hi, x)])
        mu = rng.uniform(vals[0] + 1e-3, vals[1] - 1e-3)
        p = pc.branch_inverse(quartic_2, s, int(j), x, mu, side="+")
        assert abs(quartic_2.evaluate(p, x) - mu) <= 1e-10


def test_branch_inverse_grid_matches_scalar(quartic_2):
    s = st.detect_branches(quartic_2)
    xs = np.linspace(0, 1, 40)
    mu = 2.5  # above esssup of the well value 2 sin, so branch 1 always crosses
    grid, feas = st.branch_inverse_grid(quartic_2, s, 1, xs, mu, side="+")
    assert feas.all()
    for i in [0, 7, 23]:
        scalar = pc.branch_inverse(quartic_2, s, 1, float(xs[i]), mu, side="+")
        assert grid[i] == pytest.approx(scalar, abs=1e-9)
    # below the branch bottom somewhere: infeasible points are flagged, not wrong
    grid2, feas2 = st.branch_inverse_grid(quartic_2, s, 1, xs, 1.5, side="+")
    assert not feas2.all() and np.isnan(grid2[~feas2]).all()
    ok = feas2.nonzero()[0]
    assert abs(quartic_2.evaluate(grid2[ok[0]], xs[ok[0]]) - 1.5) < 1e-9


def _branch_inverse_brentq(field, structure, j, x, mu, side="+"):
    """Scalar branch inversion by Brent's method: an independent root
    finder for the bisection that branch_inverse shares with the grid."""
    lo, hi = st._capped_interval(field, structure, j, side, mu)
    v_lo, v_hi = field.evaluate(lo, x), field.evaluate(hi, x)
    if not (min(v_lo, v_hi) - st.TOL_INV <= mu <= max(v_lo, v_hi) + st.TOL_INV):
        raise OutOfBranchRange(f"mu={mu} outside branch {side}{j}")
    if abs(v_lo - mu) <= st.TOL_INV:
        return float(lo)
    if abs(v_hi - mu) <= st.TOL_INV:
        return float(hi)
    return float(brentq(lambda p: field.evaluate(p, x) - mu, lo, hi,
                        xtol=1e-14, rtol=8.9e-16))


@pytest.mark.parametrize("mu", [-1.5, 0.0, 0.7, 2.5])
def test_branch_inverse_matches_brentq_reference(quartic_2, mu):
    s = st.detect_branches(quartic_2)
    for side, n in (("+", 2 * s.index[1] + 1), ("-", 2 * s.index[0] + 1)):
        for j in range(1, n + 1):
            for x in np.linspace(0.0, 1.0, 9):
                try:
                    want = _branch_inverse_brentq(quartic_2, s, j, x, mu, side)
                except OutOfBranchRange:
                    with pytest.raises(OutOfBranchRange):
                        pc.branch_inverse(quartic_2, s, j, x, mu, side)
                    continue
                got = pc.branch_inverse(quartic_2, s, j, x, mu, side)
                assert abs(quartic_2.evaluate(got, x) - mu) <= st.TOL_INV
                assert got == pytest.approx(want, abs=1e-9)


def _branch_inverse_grid_reference(field, structure, j, xs, mu, side="+"):
    """branch_inverse_grid with its own 70-step bisection loop."""
    xs = np.asarray(xs, dtype=np.float64)
    lo0, hi0 = st._capped_interval(field, structure, j, side, mu)
    lo, hi = np.full(xs.shape, lo0), np.full(xs.shape, hi0)
    v_lo, v_hi = field.evaluate(lo0, xs), field.evaluate(hi0, xs)
    increasing = structure.branch_increasing(j, side)
    feasible = (np.minimum(v_lo, v_hi) - st.TOL_INV <= mu) & \
        (mu <= np.maximum(v_lo, v_hi) + st.TOL_INV)
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        below = field.evaluate(mid, xs) < mu
        take_lo = below if increasing else ~below
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    return np.where(feasible, 0.5 * (lo + hi), np.nan), feasible


@pytest.mark.parametrize("mu", [-1.5, 0.0, 0.7, 2.5])
def test_branch_inverse_grid_matches_loop_reference(quartic_2, mu):
    s = st.detect_branches(quartic_2)
    xs = np.linspace(0.0, 2.0, 53).reshape(1, 53)
    for side, n in (("+", 2 * s.index[1] + 1), ("-", 2 * s.index[0] + 1)):
        for j in range(1, n + 1):
            want, want_ok = _branch_inverse_grid_reference(
                quartic_2, s, j, xs, mu, side)
            got, ok = st.branch_inverse_grid(quartic_2, s, j, xs, mu, side)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(ok, want_ok)
            if side == "+":
                assert np.array_equal(
                    st.branch_feasible(quartic_2, s, j, xs, mu), want_ok)


def _capped_range_before_keys(field, structure, j, xs, mu, side):
    """structure._capped_range as it was before inversion by period key."""
    lo, hi = st._capped_interval(field, structure, j, side, mu)
    v_lo, v_hi = field.evaluate(lo, xs), field.evaluate(hi, xs)
    return lo, hi, (np.minimum(v_lo, v_hi) - st.TOL_INV <= mu) & \
        (mu <= np.maximum(v_lo, v_hi) + st.TOL_INV)


def _branch_inverse_grid_before_keys(field, structure, j, xs, mu, side="+"):
    """structure.branch_inverse_grid as it was before inversion by period
    key: every x is inverted, with field.evaluate in each bisection step."""
    xs = np.asarray(xs, dtype=np.float64)
    lo, hi, feasible = _capped_range_before_keys(field, structure, j, xs, mu,
                                                 side)
    increasing = structure.branch_increasing(j, side)
    # below the level, the root lies right of p on an increasing branch
    lo, hi = env.bisect(lambda p: (field.evaluate(p, xs) < mu) == increasing,
                        np.full(xs.shape, lo), np.full(xs.shape, hi), 70)
    return np.where(feasible, 0.5 * (lo + hi), np.nan), feasible


T_07 = 0.7
Q_07 = env.sample(env.make_periodic("quartic_plus_sin", T_07,
                                    {"amplitude": 2.0}))
Q_07_S = st.detect_branches(Q_07)


def _keyless_fields():
    """Fields whose ``at`` reads x itself: their period key is None."""
    board = env.sample(env.make_checkerboard((-2.0, 0.0), 0.5,
                                             "quartic_plus_v", {}), seed=5)
    out = {"shifted": pc.ShiftedField(Q_07, 0.3),
           "mirrored": gl.MirroredField(Q_07),
           "max": pc.MaxField(Q_07, st.TransformedField(Q_07, 0.05, -0.1)),
           "board": board}
    return {name: (f, st.detect_branches(f)) for name, f in out.items()}


KEYLESS = _keyless_fields()


def _partner(x, how, k):
    """A second point for x that shares its key, or nearly does: x itself,
    np.mod(x, T), x shifted by k periods, or on or next to k T."""
    kT = k * T_07
    return {"same": x, "mod": float(np.mod(x, T_07)), "shift": x + kT,
            "multiple": kT, "below": float(np.nextafter(kT, -np.inf)),
            "above": float(np.nextafter(kT, np.inf))}[how]


_PAIRS = hs.lists(hs.tuples(
    hs.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False),
    hs.sampled_from(["same", "mod", "shift", "multiple", "below", "above"]),
    hs.integers(-8, 8)), min_size=1, max_size=24)


def _xs_of(pairs, two_d):
    # each pair is a column: x above its partner
    xs = np.array([[x for x, _, _ in pairs],
                   [_partner(*pair) for pair in pairs]])
    return xs if two_d else xs.ravel()


def _branches(structure):
    return [(side, j) for side, n in (("+", 2 * structure.index[1] + 1),
                                      ("-", 2 * structure.index[0] + 1))
            for j in range(1, n + 1)]


def _assert_same_inversion(field, structure, side, j, xs, mu):
    want, want_ok = _branch_inverse_grid_before_keys(field, structure, j, xs,
                                                     mu, side)
    got, ok = st.branch_inverse_grid(field, structure, j, xs, mu, side)
    assert got.shape == want.shape == xs.shape
    # byte comparison: roots, NaN positions and signed zeros alike
    assert got.tobytes() == want.tobytes()
    assert ok.shape == want_ok.shape and ok.tobytes() == want_ok.tobytes()
    assert np.array_equal(np.isnan(got), ~ok)
    return ok


_LEVELS = hs.one_of(hs.sampled_from([-3.5, -1.5, -0.5, 0.0, 0.7, 1.5, 2.5]),
                    hs.floats(-4.0, 5.0, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(pairs=_PAIRS, two_d=hs.booleans(),
       branch=hs.sampled_from(_branches(Q_07_S)), mu=_LEVELS)
# np.mod(5.3, T) is 0.40000000000000013, a point whose key is itself, while
# the key of 5.3 is 0.40000000000000036: the two roots differ in the last bit
@example(pairs=[(5.3, "mod", 0)], two_d=True, branch=("+", 1), mu=2.5)
def test_keyed_inversion_matches_inversion_at_every_x(pairs, two_d, branch,
                                                      mu):
    side, j = branch
    _assert_same_inversion(Q_07, Q_07_S, side, j, _xs_of(pairs, two_d), mu)


@pytest.mark.parametrize("mu", [-1.5, 0.7])
def test_keyed_inversion_has_infeasible_points(mu):
    # branch 1 sits above the well value 2 sin(2 pi x / T) - 1: at these
    # levels it is feasible at some x and not at others
    xs = np.linspace(-2.0 * T_07, 3.0 * T_07, 60).reshape(3, 20)
    ok = _assert_same_inversion(Q_07, Q_07_S, "+", 1, xs, mu)
    assert ok.any() and not ok.all()
    for x in xs.ravel()[::7]:
        _assert_same_inversion(Q_07, Q_07_S, "+", 1, x, mu)   # 0-d xs


@settings(max_examples=40, deadline=None)
@given(pairs=_PAIRS, two_d=hs.booleans(), name=hs.sampled_from(sorted(KEYLESS)),
       mu=_LEVELS, pick=hs.integers(0, 10))
def test_keyless_fields_invert_every_x(pairs, two_d, name, mu, pick):
    field, structure = KEYLESS[name]
    assert field.period_key(np.zeros(3)) is None
    branches = _branches(structure)
    side, j = branches[pick % len(branches)]
    _assert_same_inversion(field, structure, side, j, _xs_of(pairs, two_d), mu)


def _bisect_sizes(monkeypatch):
    sizes, bisect = [], st.bisect

    def spy(right, lo, hi, steps):
        sizes.append(np.size(lo))
        return bisect(right, lo, hi, steps)
    monkeypatch.setattr(st, "bisect", spy)
    return sizes


def test_periodic_inversion_bisects_once_per_key(monkeypatch):
    sizes = _bisect_sizes(monkeypatch)
    base = np.linspace(0.0, T_07, 40, endpoint=False)
    xs = np.tile(base, 3).reshape(3, 40)
    n_keys = len(np.unique(Q_07.period_key(xs)))
    assert n_keys == 40
    st.branch_inverse_grid(Q_07, Q_07_S, 1, xs, 1.5)
    st.branch_inverse_grid(Q_07, Q_07_S, 1, xs[0, 7], 1.5)
    assert sizes == [n_keys, 1]


def test_keyless_inversion_bisects_every_x(monkeypatch):
    sizes = _bisect_sizes(monkeypatch)
    field, structure = KEYLESS["shifted"]
    base = np.linspace(0.0, T_07, 40, endpoint=False)
    xs = np.concatenate([base, base])
    st.branch_inverse_grid(field, structure, 1, xs, 1.5)
    assert sizes == [80]


# -- several branches in one call ---------------------------------------------

STACKED = {"keyed": (Q_07, Q_07_S),
           "keyed_transformed": (st.TransformedField(Q_07, 0.1, 0.2), Q_07_S),
           **{f"keyless_{name}": fs for name, fs in KEYLESS.items()}}


def _with_hill_at(structure, zero):
    """``structure`` with its hill breakpoint (the one nearest 0) set to
    ``zero``, a signed zero: the end of the brackets of both inner
    branches."""
    bps = structure.breakpoints.copy()
    bps[int(np.argmin(np.abs(bps)))] = zero
    return st.ConstrainedStructure(bps, structure.central_pos,
                                   structure.lipschitz, structure.p_box)


@settings(max_examples=60, deadline=None)
@given(name=hs.sampled_from(sorted(STACKED)), pairs=_PAIRS,
       layout=hs.sampled_from(["0d", "1d", "2d"]), side=hs.sampled_from("+-"),
       picks=hs.lists(hs.integers(0, 10), min_size=1, max_size=4),
       mu=_LEVELS, zero=hs.sampled_from([None, 0.0, -0.0]))
@example(name="keyed", pairs=[(0.3, "same", 0)], layout="1d", side="+",
         picks=[1, 2, 0], mu=-10.0, zero=-0.0)
def test_stacked_inversion_matches_one_call_per_branch(name, pairs, layout,
                                                       side, picks, mu, zero):
    field, structure = STACKED[name]
    if zero is not None:
        structure = _with_hill_at(structure, zero)
    n = 2 * structure.index[side == "+"] + 1
    js = [1 + k % n for k in picks]
    xs = np.float64(pairs[0][0]) if layout == "0d" else \
        _xs_of(pairs, layout == "2d")
    p, ok = st.branch_inverse_grid(field, structure, js, xs, mu, side)
    assert p.shape == ok.shape == (len(js),) + np.shape(xs)
    for row, j in enumerate(js):
        want, want_ok = st.branch_inverse_grid(field, structure, j, xs, mu,
                                               side)
        # byte comparison: roots, NaN positions and signed zeros alike
        assert p[row].tobytes() == want.tobytes()
        assert ok[row].tobytes() == want_ok.tobytes()
    if side == "+":
        masks = st.branch_feasible(field, structure, js, xs, mu)
        assert masks.shape == (len(js),) + np.shape(xs)
        for row, j in enumerate(js):
            assert masks[row].tobytes() == \
                st.branch_feasible(field, structure, j, xs, mu).tobytes()


def test_stacked_inversion_covers_infeasible_levels_and_signed_zero_ends():
    # at mu = -10 no branch reaches the level anywhere; at mu = 0.7 the
    # inner branches, bracketed by a -0.0 end, are feasible at some x only
    structure = _with_hill_at(Q_07_S, -0.0)
    assert np.signbit(structure.branch_interval(2, "+")[0])
    xs = np.linspace(0.0, T_07, 12, endpoint=False)
    p, ok = st.branch_inverse_grid(Q_07, structure, [1, 2, 3], xs, -10.0)
    assert not ok.any() and np.isnan(p).all()
    p, ok = st.branch_inverse_grid(Q_07, structure, [1, 2, 3], xs, 0.7)
    assert ok[1].any() and not ok[1].all()
    for row, j in enumerate([1, 2, 3]):
        assert p[row].tobytes() == st.branch_inverse_grid(
            Q_07, structure, j, xs, 0.7)[0].tobytes()


def test_stacked_inversion_bisects_once(monkeypatch):
    sizes = _bisect_sizes(monkeypatch)
    xs = np.linspace(0.0, T_07, 40, endpoint=False)
    st.branch_inverse_grid(Q_07, Q_07_S, [1, 2, 3], xs, 1.5)
    assert sizes == [3 * 40]


# -- oscillation classification -------------------------------------------------


def _normalized(field):
    s = st.detect_branches(field)
    return st.normalize(field, s)


def test_oscillation_small(quartic_01):
    f, s, _, _ = _normalized(quartic_01)
    stats = st.classify_oscillation(f, s)
    assert stats.small
    assert stats.m_hi == pytest.approx(0.0, abs=1e-6)   # after mu-shift by 0.1
    assert stats.M_lo == pytest.approx(0.8, abs=1e-6)   # 0.9 - 0.1


def test_oscillation_large(quartic_2):
    s = st.detect_branches(quartic_2)
    stats = st.classify_oscillation(quartic_2, s)
    assert not stats.small
    assert stats.m_hi == pytest.approx(2.0, abs=1e-4)
    assert stats.M_lo == pytest.approx(-1.0, abs=1e-4)


def test_oscillation_degenerate_deterministic():
    f = env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 0.0}))
    s = st.detect_branches(f)
    stats = st.classify_oscillation(f, s)
    assert stats.small and not stats.tied
    # x-free extremum processes: H = 1 on the hill, 0 in the well
    assert stats.M_lo == pytest.approx(1.0, abs=1e-12)
    assert stats.m_hi == pytest.approx(0.0, abs=1e-12)


# -- normalization ---------------------------------------------------------------


def test_normalize_chosen_central():
    f = env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 1.0}))
    s = st.detect_branches(f)
    # the well at p = 1, not the tie-break one
    fn, sn, p_shift, mu_shift = st._centered(
        f, s, int(np.argmin(np.abs(s.minima - 1.0))))
    assert p_shift == pytest.approx(1.0, abs=1e-6)
    assert mu_shift == pytest.approx(1.0, abs=1e-6)   # esssup sin at the well
    assert sn.central == pytest.approx(0.0, abs=1e-9)
    assert st.esssup_probe(fn, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_normalize_idempotent(quartic_01):
    fn, sn, _, _ = _normalized(quartic_01)
    fn2, sn2, ps2, ms2 = st.normalize(fn, sn)
    assert ps2 == pytest.approx(0.0, abs=1e-9)
    assert ms2 == pytest.approx(0.0, abs=1e-12)


def test_normalize_tie_break(quartic_01):
    _, sn, p_shift, _ = _normalized(quartic_01)
    assert p_shift == pytest.approx(-1.0, abs=1e-6)
    assert sn.index == (0, 1)


def test_declutter_separates_extrema():
    # the coincident p = 0 slice (identically zero) gains the reference
    # bump; its local extrema values then differ by more than tol/2
    f = env.sample(env.make_periodic(
        lambda p, x: np.minimum(np.abs(8.0 * np.asarray(p)), 1.0)
        * np.sin(2 * np.pi * x), 1.0))
    out = st.DeclutteredField(f, 8)
    xs = np.linspace(0, 1, 513)
    s = out.evaluate(0.0, xs)
    ext = s[1:-1][((s[1:-1] - s[:-2]) * (s[2:] - s[1:-1])) < 0]
    assert len(ext) >= 2
    assert np.min(np.abs(np.diff(np.sort(ext)))) > out.tol_cluster / 2
