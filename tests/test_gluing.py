import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from hjhomog import env, structure as st, gluing as gl, cell_solver as cs
from hjhomog import large_osc as lo
from hjhomog import cli
from hjhomog.curve import EffectiveCurve
from hjhomog.env import EnvironmentSpec, bisect
from hjhomog.errors import (ExtrapolationUsed, NotApplicable, OracleFellBack,
                            ReductionStalled, VirtualHatEndpoint)

import proof_checks as pc


LEFT_PARAMS = {"nodes": [0.0, 0.5, 1.0, 1.5, 2.0],
               "values": [0.0, 0.8, 0.2, 1.3, 0.5],
               "cone_slope": 2.5, "amplitude": 0.1}
RIGHT_PARAMS = {"nodes": [0.0, 0.5, 1.0, 1.5, 2.0],
                "values": [0.0, 1.3, 0.5, 0.8, 0.2],
                "cone_slope": 3.0, "amplitude": 0.1}
TIE_PARAMS = {"nodes": [0.0, 0.5, 1.0, 1.5, 2.0],
              "values": [0.0, 1.3, 0.2, 0.8, 0.5],
              "cone_slope": 3.0, "amplitude": 0.55}


def _field(params):
    return env.sample(env.make_periodic("pwl_wells_plus_dip", 1.0, params))


def _analysed(field):
    s = st.detect_branches(field)
    f, sn, _, _ = st.normalize(field, s)
    stats = st.classify_oscillation(f, sn)
    return f, sn, stats


# -- convex oracle ---------------------------------------------------------


def test_oracle_abs_sin():
    f = env.sample(env.make_periodic("abs_plus_sin", 1.0))
    c = gl.convex_oracle(f, p_lo=-4.5, p_hi=4.5)
    ps = np.array([-2.0, -1.5, -0.5, 0.0, 0.7, 1.5, 2.5])
    assert np.max(np.abs(c.evaluate(ps) - np.maximum(np.abs(ps), 1.0))) < 1e-6
    lo, hi, level = c.flat
    assert lo == pytest.approx(-1.0, abs=1e-6)
    assert hi == pytest.approx(1.0, abs=1e-6)
    assert level == pytest.approx(1.0, abs=1e-9)


def test_oracle_xfree_square():
    f = env.sample(env.make_periodic("xfree", 1.0, {"base": "quadratic"}))
    c = gl.convex_oracle(f, p_lo=-3.0, p_hi=3.0)
    ps = np.linspace(-1.5, 1.5, 9)
    # sampled-curve interpolation limits accuracy near the parabola bottom
    assert np.max(np.abs(c.evaluate(ps) - ps ** 2)) < 5e-3


def test_oracle_checkerboard_abs():
    spec = env.make_separable("abs", (-1.0, 0.0), 1.0)
    c = gl.convex_oracle({s: env.sample(spec, s) for s in range(4)},
                         p_lo=-3.5, p_hi=3.5)
    lo, hi, level = c.flat
    assert level == pytest.approx(0.0, abs=0.02)       # esssup V
    assert c.evaluate(2.0) == pytest.approx(1.5, abs=0.03)  # mu + E[V] branch
    assert np.all(c.budget <= 0.05)


def test_oracle_seeds_share_one_level_grid():
    # H = |p| + V(x): each seed's flat level is its window esssup of V, and
    # above the highest of them every seed's crossing is p+ = mu - mean(V)
    spec = env.make_separable("abs", (-1.0, 0.0), 1.0)
    fields = {s: env.sample(spec, s) for s in range(4)}
    c = gl.convex_oracle(fields, p_lo=-3.5, p_hi=3.5)
    xs = np.linspace(0.0, 400.0, 6400, endpoint=False)
    flats = [float(f.evaluate(0.0, xs).max()) for f in fields.values()]
    assert len(set(flats)) == 4
    assert c.flat[2] == max(flats)
    assert c.values.min() >= c.flat[2]
    plus = c.p >= 0.0
    np.testing.assert_allclose(c.p[plus] - c.values[plus],
                               c.p[plus][0] - c.values[plus][0], atol=1e-9)


def test_oracle_rejects_nonconvex():
    f = env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 0.1}))
    with pytest.raises(NotApplicable):
        gl.convex_oracle(f, p_lo=-4.0, p_hi=4.0)


def _convex_oracle_reference(source, seeds=(0,), p_lo=-4.0, p_hi=4.0):
    # the oracle as it was before it evaluated periodic fields on one
    # period: every one of the 6,400 window points is evaluated and
    # bisected; several seeds share one level grid
    if isinstance(source, EnvironmentSpec):
        fields = [env.sample(source, s) for s in seeds]
    else:
        fields = [source]
    tables = []
    for f in fields:
        xs = np.linspace(0.0, 400 * f.cell, 6400, endpoint=False)
        pg = np.linspace(p_lo, p_hi, 513)
        h = f.at(xs)
        vals = h(pg[:, None])
        arg = pg[np.argmin(vals, axis=0)]
        # quasi-convexity probe: no interior rebound above tolerance
        vmin = vals.min(axis=0)
        tol = 1e-8 * (np.max(vals) - np.min(vals) + 1.0)
        for j in (0, len(xs) // 3, 2 * len(xs) // 3):
            col = vals[:, j]
            k = int(np.argmin(col))
            if np.any(np.diff(col[:k + 1]) > tol) or \
                    np.any(np.diff(col[k:]) < -tol):
                raise NotApplicable("field is not quasi-convex in p")
        # cap levels so both crossings stay inside [p_lo, p_hi] for every x
        mu_hi = float(min(np.min(vals[0, :]), np.min(vals[-1, :])))
        tables.append((h, arg, float(vmin.max()), mu_hi))
    mu0 = max(t[2] for t in tables)
    mu_hi = min(t[3] for t in tables)
    if mu_hi <= mu0:
        raise NotApplicable("p-range too narrow for the requested levels")
    mus = mu0 + (mu_hi - mu0) * np.linspace(1e-6, 1.0, 33) ** 1.5
    per_seed = []
    for h, arg, _, _ in tables:
        lo = np.full(len(arg), p_lo)
        hi = np.full(len(arg), p_hi)
        p_plus, p_minus = [], []
        for mu in mus:
            # H < mu right of the minimizer: the crossing is further right
            a, b = bisect(lambda m: h(m) < mu, arg, hi, 60)
            p_plus.append(float(np.mean(0.5 * (a + b))))
            a, b = bisect(lambda m: ~(h(m) < mu), lo, arg, 60)
            p_minus.append(float(np.mean(0.5 * (a + b))))
        per_seed.append((np.asarray(p_minus), np.asarray(p_plus)))
    pm = np.mean([r[0] for r in per_seed], axis=0)
    pp = np.mean([r[1] for r in per_seed], axis=0)
    ci_m = np.ptp([r[0] for r in per_seed], axis=0) if len(per_seed) > 1 else 0 * pm
    ci_p = np.ptp([r[1] for r in per_seed], axis=0) if len(per_seed) > 1 else 0 * pp
    ps = np.concatenate([pm[::-1], pp])
    vs = np.concatenate([mus[::-1], mus])
    cis = np.concatenate([ci_m[::-1], ci_p])
    return EffectiveCurve(ps, vs, cis, source=["oracle"] * len(ps),
                          flat=(float(pm[0]), float(pp[0]), mu0))


def _assert_same_curve(got, want):
    for name in ("p", "values", "budget"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert np.asarray(got.flat).tobytes() == np.asarray(want.flat).tobytes()
    assert got.source == want.source


def _glue_steep_leaf_calls():
    # the oracle calls of the glue_steep benchmark run: its tree leaves
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "configs", "glue_steep.json")
    with open(path) as fh:
        cfg = cli.resolve_config(json.load(fh), None)
    calls, oracle = [], gl.convex_oracle

    def recorded(field, **kwargs):
        calls.append((field, kwargs))
        return oracle(field, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gl, "convex_oracle", recorded)
        cli.ROUTES["glue"](cfg, cli._realize(cfg))
    return calls


def test_oracle_on_one_period_matches_reference_on_glue_steep():
    calls = _glue_steep_leaf_calls()
    assert len(calls) == 4
    for field, kwargs in calls:
        assert field.period_key(np.zeros(1)) is not None
        _assert_same_curve(gl.convex_oracle(field, **kwargs),
                           _convex_oracle_reference(field, **kwargs))


def _oracle_cases():
    abs_sin = env.sample(env.make_periodic("abs_plus_sin", 1.0))
    # 0.7 does not divide the 400-cell window into 16 exact samples per
    # period, so the keys are more than 16 distinct values
    odd = env.sample(env.make_periodic("base_plus_sin", 0.7,
                                       {"base": "quadratic",
                                        "amplitude": 0.4}))
    return {"abs_sin": (abs_sin, {"p_lo": -4.5, "p_hi": 4.5}),
            "period_0.7": (odd, {"p_lo": -3.0, "p_hi": 3.5}),
            "shifted": (pc.ShiftedField(abs_sin, 0.3),
                        {"p_lo": -4.0, "p_hi": 4.5}),
            "mirrored": (gl.MirroredField(odd), {"p_lo": -3.5, "p_hi": 3.0}),
            "board_seeds": (env.make_separable("abs", (-1.0, 0.0), 1.0),
                            {"seeds": (0, 1), "p_lo": -3.5, "p_hi": 3.5}),
            # demo 06's medium: 6,400 keyless columns, two table rows per
            # evaluated block
            "board_one_seed": (env.make_separable("abs", (-1.0, 0.0), 1.0),
                               {"seeds": (0,), "p_lo": -3.5, "p_hi": 3.5}),
            "board_four_seeds": (env.make_separable("abs", (-1.0, 0.0), 1.0),
                                 {"seeds": (0, 1, 2, 3), "p_lo": -3.5,
                                  "p_hi": 3.5})}


@pytest.mark.parametrize("case", sorted(_oracle_cases()))
def test_oracle_matches_reference(case):
    source, kwargs = _oracle_cases()[case]
    if case == "period_0.7":
        xs = np.linspace(0.0, 400 * source.cell, 6400, endpoint=False)
        assert len(np.unique(source.period_key(xs))) > 16
    want = _convex_oracle_reference(source, **kwargs)
    if "seeds" in kwargs:
        # the reference samples a spec per seed; the oracle reads the fields
        source = {s: env.sample(source, s) for s in kwargs.pop("seeds")}
    _assert_same_curve(gl.convex_oracle(source, **kwargs), want)


@pytest.mark.parametrize("field, kwargs, message", [
    (_field(LEFT_PARAMS), {"p_lo": -4.0, "p_hi": 4.0},
     "field is not quasi-convex in p"),
    (env.sample(env.make_periodic("abs_plus_sin", 1.0)),
     {"p_lo": -0.5, "p_hi": 0.5},
     "p-range too narrow for the requested levels")],
    ids=["not_quasi_convex", "narrow"])
def test_oracle_not_applicable_messages(field, kwargs, message):
    for oracle in (gl.convex_oracle, _convex_oracle_reference):
        with pytest.raises(NotApplicable) as info:
            oracle(field, **kwargs)
        assert str(info.value) == message


# -- split at the minimum ----------------------------------------------------


def test_split_cone_formula():
    f, sn, _ = _analysed(_field(LEFT_PARAMS))
    (plus, s_plus), (minus, s_minus) = gl.split_min(f, sn)
    L = sn.lipschitz
    x = 0.3
    assert plus.evaluate(-2.0, x) == pytest.approx(
        2.0 * L + f.evaluate(0.0, x), abs=1e-12)
    assert plus.evaluate(1.3, x) == pytest.approx(f.evaluate(1.3, x), abs=1e-12)
    assert minus.evaluate(0.8, x) == pytest.approx(
        0.8 * L + f.evaluate(0.0, x), abs=1e-12)
    assert s_plus.index[0] == 0 and s_minus.index[1] == 0


def test_split_requires_normalized():
    f = _field(LEFT_PARAMS)
    s = st.detect_branches(f)
    shifted = st.TransformedField(f, 0.7, 0.0)
    s_bad = st.ConstrainedStructure(s.breakpoints - 0.7, s.central_pos,
                                    s.lipschitz, s.p_box)
    with pytest.raises(NotApplicable):
        gl.split_min(shifted, s_bad)


def test_split_dual_route_quartic():
    # Hbar(p) = Hbar+(p) for p >= 0 within the combined dispersions
    q = env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 0.1}))
    f, sn, _ = _analysed(q)
    (plus, _), _ = gl.split_min(f, sn)
    p = 0.5
    a = cs.estimate_hbar(f, p, dx=1 / 512)
    b = cs.estimate_hbar(plus, p, dx=1 / 512)
    assert abs(a.value - b.value) <= 2.0 * max(a.dispersion, b.dispersion) + 1e-9


# -- steep sides --------------------------------------------------------------


def test_steep_left_case_and_ordering():
    f, sn, stats = _analysed(_field(LEFT_PARAMS))
    fam = gl.steep_side_family(f, sn, stats)
    assert fam.case == "left"
    assert fam.P == pytest.approx(1.0, abs=1e-6)
    assert fam.Q == pytest.approx(1.5, abs=1e-6)
    rng = np.random.default_rng(0)
    ps = rng.uniform(-1.0, 3.0, 120)
    xs = rng.uniform(0.0, 1.0, 120)
    H = f.evaluate(ps, xs)
    H1 = fam.H1.evaluate(ps, xs)
    H2 = pc.steep_side_middle(f, fam).evaluate(ps, xs)
    H3 = fam.H3.evaluate(ps, xs)
    assert np.all(H1 <= H2 + 1e-12)
    assert np.all(H3 <= H2 + 1e-12)
    assert np.allclose(np.minimum(H1, H3), H, atol=1e-12)


def test_steep_h1_cone_value():
    f, sn, stats = _analysed(_field(LEFT_PARAMS))
    fam = gl.steep_side_family(f, sn, stats)
    x = 0.45
    assert fam.H1.evaluate(fam.Q + 1.0, x) == pytest.approx(
        sn.lipschitz + f.evaluate(fam.Q, x), abs=1e-12)
    assert fam.H1.evaluate(fam.Q - 0.3, x) == pytest.approx(
        f.evaluate(fam.Q - 0.3, x), abs=1e-12)


def test_steep_right_case():
    f, sn, stats = _analysed(_field(RIGHT_PARAMS))
    fam = gl.steep_side_family(f, sn, stats)
    assert fam.case == "right"
    assert fam.Q <= fam.P
    # H2 follows H on [0, P] and stays coercive far out
    x = 0.2
    H2 = pc.steep_side_middle(f, fam)
    assert H2.evaluate(1.0, x) == pytest.approx(f.evaluate(1.0, x), abs=1e-12)
    assert H2.evaluate(40.0, x) > H2.evaluate(fam.P + 1.0, x)


def test_steep_rejects_large_oscillation():
    q2 = env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 2.0}))
    f, sn, stats = _analysed(q2)
    with pytest.raises(NotApplicable):
        gl.steep_side_family(f, sn, stats)


def test_steep_tie_directs_to_tilt():
    f, sn, stats = _analysed(_field(TIE_PARAMS))
    assert stats.M_lo == pytest.approx(stats.m_hi, abs=1e-9)
    with pytest.raises(NotApplicable):
        gl.steep_side_family(f, sn, stats)


# -- tilt ----------------------------------------------------------------------


def test_tilt_hat_values():
    f, sn, stats = _analysed(_field(TIE_PARAMS))
    n = 16
    tilted = gl.tilt(f, sn, stats, n)
    x = 0.6
    peak = stats.P
    assert f.evaluate(peak, x) - tilted.evaluate(peak, x) == pytest.approx(
        1.0 / n, abs=1e-12)
    for endpoint in (tilted.a, tilted.c):
        assert tilted.evaluate(endpoint, x) == pytest.approx(
            f.evaluate(endpoint, x), abs=1e-12)


def test_tilt_makes_strictly_small():
    f, sn, stats = _analysed(_field(TIE_PARAMS))
    tilted = gl.tilt(f, sn, stats, 16)
    stats2 = st.classify_oscillation(tilted, sn)
    assert stats2.small
    assert stats2.M_lo > stats2.m_hi + 1e-3


def _tied(values):
    # H = v(p) + 0.55 (sin 2 pi x - 1): M_lo = max(v at the hills) - 1.1
    # ties with m_hi = min(v at the positive wells)
    params = dict(TIE_PARAMS, values=values)
    f, sn, stats = _analysed(_field(params))
    assert stats.tied
    return f, sn, stats


TIED_VALUES = [TIE_PARAMS["values"], [0.0, 1.3, 0.5, 0.8, 0.2],
               [0.0, 0.8, 0.2, 1.3, 0.5]]


@pytest.mark.parametrize("values", TIED_VALUES,
                         ids=["tie", "deepest_well", "inner_well"])
def test_tied_fields_are_small_and_tied(values):
    # M_lo - m_hi rounds to a few 1e-14 either side of 0: one tolerance
    # makes the field small and tied, so the reduction tilts it
    _, _, stats = _analysed(_field(dict(TIE_PARAMS, values=values)))
    assert abs(stats.M_lo - stats.m_hi) < 1e-12
    assert stats.small and stats.tied


def test_tilt_hat_inside_the_deepest_well():
    # the hill attaining M_lo (q_2 = 0.5) lies left of the tied outermost
    # well's own hill (q_1 = 1.5): the hat spans that well's neighbours,
    # right of it the mirror image of q_1
    f, sn, stats = _tied([0.0, 1.3, 0.5, 0.8, 0.2])
    assert stats.Q == pytest.approx(0.5, abs=1e-6)
    assert stats.P == pytest.approx(2.0, abs=1e-6)
    with pytest.warns(VirtualHatEndpoint,
                      match="no maximum right of the tied well"):
        tilted = gl.tilt(f, sn, stats, 16)
    assert tilted.a < tilted.b < tilted.c
    np.testing.assert_allclose([tilted.a, tilted.b, tilted.c],
                               [1.5, 2.0, 2.5], atol=1e-6)


def test_oracle_fallback_on_a_quasi_convex_leaf_warns():
    # Hbar(0) = 2 on abs_plus_sin of amplitude 2, whose flat level is 2:
    # on p in [-0.5, 0.5] no level lies between the flat level and the
    # cap, so the oracle does not apply and the solver stands in
    f = env.sample(env.make_periodic("abs_plus_sin", 1.0, {"amplitude": 2.0}))
    leaf = gl.ReductionNode(kind="leaf", field=f, structure=None,
                            leaf_kind="quasi_convex")
    with pytest.warns(OracleFellBack, match=r"p in \[-0\.5, 0\.5\] did not "
                      r"apply \(p-range too narrow"):
        curve = gl.evaluate_leaf(leaf, [0.0], gl.LeafOptions(dx=None))
    assert curve.source == ["solver"]


def test_tilt_inner_tied_well_has_a_right_hill():
    # M_lo is attained on the outermost hill q_1 = 1.5, the tie on the
    # inner well p_2 = 1, whose right neighbour is q_1: no virtual endpoint
    f, sn, stats = _tied([0.0, 0.8, 0.2, 1.3, 0.5])
    assert stats.Q == pytest.approx(1.5, abs=1e-6)
    assert stats.P == pytest.approx(1.0, abs=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tilted = gl.tilt(f, sn, stats, 16)
    np.testing.assert_allclose([tilted.a, tilted.b, tilted.c],
                               [0.5, 1.0, 1.5], atol=1e-6)


def test_tilt_rejects_strict_case():
    f, sn, stats = _analysed(_field(LEFT_PARAMS))
    with pytest.raises(NotApplicable):
        gl.tilt(f, sn, stats, 16)


# -- reduction tree --------------------------------------------------------------


def test_tree_single_well_leaf():
    f = env.sample(env.make_periodic("abs_plus_sin", 1.0))
    tree = gl.build_reduction_tree(f)
    assert tree.kind == "leaf" and tree.leaf_kind == "quasi_convex"


def test_tree_xfree_leaf():
    f = env.sample(env.make_periodic("xfree", 1.0, {"base": "double_well"}))
    tree = gl.build_reduction_tree(f)
    kinds = {l.leaf_kind for l in tree.leaves()}
    assert kinds == {"xfree"}


def test_tree_quartic_small():
    q = env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 0.1}))
    tree = gl.build_reduction_tree(q)
    assert tree.depth() <= 3
    assert {l.leaf_kind for l in tree.leaves()} == {"quasi_convex"}


def test_tree_quartic_large_oscillation_leaf():
    q2 = env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 2.0}))
    tree = gl.build_reduction_tree(q2)
    assert tree.kind == "leaf" and tree.leaf_kind == "large_osc"


def test_stalled_steep_side_child_warns_reduction_stalled(monkeypatch):
    # a steep-side family whose first child keeps the parent's wells
    real = gl.steep_side_family

    def stalled(field, structure, stats):
        return dataclasses.replace(real(field, structure, stats),
                                   H1=field, s1=structure)

    monkeypatch.setattr(gl, "steep_side_family", stalled)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tree = gl.build_reduction_tree(_field(LEFT_PARAMS))
    stalls = [w for w in caught if w.category is ReductionStalled]
    assert stalls
    assert all("steep-side child keeps" in str(w.message) for w in stalls)
    assert issubclass(ReductionStalled, UserWarning)
    assert tree.kind == "steep_left"
    assert tree.children[0].leaf_kind == "direct"


def test_tree_two_sided_splits():
    params = {"nodes": [-1.0, -0.5, 0.0, 0.5, 1.0],
              "values": [0.3, 1.0, 0.0, 1.0, 0.3],
              "cone_slope": 3.0, "amplitude": 0.1}
    f = _field(params)
    tree = gl.build_reduction_tree(f)
    assert tree.kind == "split"
    assert len(tree.children) == 2
    d = tree.to_dict()
    assert d["kind"] == "split" and len(d["children"]) == 2


def test_tree_serializable_roundtrip_json():
    import json
    q = env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 0.1}))
    tree = gl.build_reduction_tree(q)
    d = tree.to_dict()
    text = json.dumps(d)
    assert json.loads(text)["kind"] in ("steep_left", "steep_right", "split")


# -- evaluation --------------------------------------------------------------------


def test_evaluate_single_leaf_idempotent():
    f = env.sample(env.make_periodic("abs_plus_sin", 1.0))
    tree = gl.build_reduction_tree(f)
    ps = np.linspace(-2, 2, 9)
    curve = gl.evaluate_tree(tree, ps, gl.LeafOptions(dx=None))
    oracle = gl.convex_oracle(f, p_lo=-4.5, p_hi=4.5)
    assert np.allclose(curve.evaluate(ps), oracle.evaluate(ps), atol=1e-6)


def test_minimum_of_identical_curves():
    c = EffectiveCurve(np.linspace(0, 1, 5), np.arange(5.0))
    m = EffectiveCurve.minimum([c, c], c.p)
    assert np.array_equal(m.values, c.values)


def test_minimum_warns_only_where_extrapolation_wins():
    # a reads past its support on [1, 2] and b on [0, 1], each with a
    # linear extension; the minimum takes a's extension only if it wins
    ps = np.linspace(0.0, 2.0, 9)
    a = EffectiveCurve([0.0, 1.0], [0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", ExtrapolationUsed)
        m = EffectiveCurve.minimum(
            [a, EffectiveCurve([1.0, 2.0], [1.0, 1.5])], ps)
        # below 1 b's extension is above a, above 1 a's is above b
        assert np.allclose(m.values, np.minimum(ps, (1.0 + ps) / 2))
    with pytest.warns(ExtrapolationUsed):
        # here a's extension stays below b on (1, 2]
        EffectiveCurve.minimum([a, EffectiveCurve([1.0, 2.0], [2.0, 3.0])],
                               ps)


def test_evaluate_tree_dual_route_quartic():
    q = env.sample(env.make_periodic("quartic_plus_sin", 1.0, {"amplitude": 0.1}))
    tree = gl.build_reduction_tree(q)
    ps = np.linspace(-1.0, 2.5, 8)
    curve = gl.evaluate_tree(tree, ps, gl.LeafOptions(dx=None))
    direct = np.array([cs.estimate_hbar(q, float(p), dx=1 / 1024).value
                       for p in ps])
    assert np.max(np.abs(curve.evaluate(ps) - direct)) <= 0.07


def test_tied_field_reduces_through_the_tilt():
    # the tie reaches the tilt, whose 1/n hat the glued curve's budget
    # carries; the solver agrees within the two budgets
    f = _field(TIE_PARAMS)
    tree = gl.build_reduction_tree(f)
    assert tree.kind == "tilt"
    ps = np.array([0.5, 1.0, 2.0])
    curve = gl.evaluate_tree(tree, ps, gl.LeafOptions(dx=1 / 512,
                                                      window_cells=20))
    for p, value, budget in zip(ps, curve.evaluate(ps), curve.budget_at(ps)):
        est = cs.estimate_hbar(f, float(p), dx=1 / 512)
        assert abs(value - est.value) <= budget + est.dispersion


def test_large_osc_leaf_runs_on_the_requested_window(monkeypatch):
    # a glue config's window_cells reaches its large-oscillation leaves
    # as given, the same window the largeosc task runs on
    calls = []

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return EffectiveCurve([0.0, 1.0], [0.0, 1.0])

    monkeypatch.setattr(lo, "assemble_effective_curve", recorded)
    q2 = env.sample(env.make_periodic("quartic_plus_sin", 1.0,
                                      {"amplitude": 2.0}))
    tree = gl.build_reduction_tree(q2)
    gl.evaluate_tree(tree, [0.0, 1.0],
                     gl.LeafOptions(dx=None, window_cells=20))
    assert [kw["window_cells"] for kw in calls] == [20]


def test_evaluate_xfree_exact():
    f = env.sample(env.make_periodic("xfree", 1.0, {"base": "double_well"}))
    tree = gl.build_reduction_tree(f)
    ps = np.linspace(-0.5, 2.5, 11)
    curve = gl.evaluate_tree(tree, ps, gl.LeafOptions(dx=None))
    # Hbar of an x-free double well is its quasi-convexification on wells:
    # the cell solver route agrees since no medium exists; spot check center
    direct = cs.estimate_hbar(f, 1.0, dx=None).value
    assert curve.evaluate(1.0) == pytest.approx(direct, abs=1e-6)


# -- squeeze ------------------------------------------------------------------------


def test_squeeze_on_shifted_oracle():
    f = env.sample(env.make_periodic("abs_plus_sin", 1.0))
    curve = gl.convex_oracle(f, p_lo=-4.5, p_hi=4.5).transformed(0.0, -1.0)
    out = pc.squeeze_check(curve, 1.0)
    assert out.status == "passed"


def test_squeeze_degenerate_interval():
    c = EffectiveCurve(np.linspace(-1, 1, 21), np.linspace(-1, 1, 21) ** 2)
    out = pc.squeeze_check(c, 0.0)
    assert out.status == "passed"


def test_squeeze_negative_control():
    ps = np.linspace(-1.5, 1.5, 61)
    vals = np.maximum(np.abs(ps) - 1.0, 0.0)
    vals[(ps > 0.2) & (ps < 0.4)] = 0.2     # flatness violated by 0.2
    c = EffectiveCurve(ps, vals)
    out = pc.squeeze_check(c, 1.0)
    assert out.status == "failed"
    assert 0.2 <= out.detail["worst_p"] <= 0.4


def test_squeeze_skipped_when_not_zero():
    c = EffectiveCurve(np.linspace(-1, 1, 11), np.full(11, 0.5))
    assert pc.squeeze_check(c, 1.0).status == "skipped"


def test_evaluate_two_sided_split_with_mirror():
    # wells on both sides: split node, minus side routed through a mirror
    params = {"nodes": [-1.0, -0.5, 0.0, 0.5, 1.0],
              "values": [0.3, 1.0, 0.0, 1.0, 0.3],
              "cone_slope": 3.0, "amplitude": 0.1}
    f = env.sample(env.make_periodic("pwl_wells_plus_dip", 1.0, params))
    tree = gl.build_reduction_tree(f)
    assert tree.kind == "split"
    kinds = {n.kind for n in [tree] + tree.children}
    assert "mirror" in kinds or any(
        ch.kind == "mirror" for c in tree.children for ch in c.children)
    ps = np.array([-1.2, -0.6, 0.0, 0.6, 1.2])
    curve = gl.evaluate_tree(tree, ps, gl.LeafOptions(dx=1 / 512))
    direct = np.array([cs.estimate_hbar(f, float(p), dx=1 / 512).value
                       for p in ps])
    assert np.max(np.abs(curve.evaluate(ps) - direct)) <= 0.07
    # the profile is even in p, so the curve should be almost symmetric
    assert abs(curve.evaluate(1.2) - curve.evaluate(-1.2)) < 0.05


def _asymmetric(p, x):
    # neither even in p nor symmetric under x -> -x
    return ((p ** 2 - 1.0) ** 2 + 0.6 * np.sin(2 * np.pi * x)
            + 0.3 * np.sin(4 * np.pi * x + 1.0) + 0.2 * p * np.cos(2 * np.pi * x))


@pytest.mark.parametrize("lams", [(0.04, 0.02, 0.01), (0.005, 0.0025, 0.00125)])
def test_mirror_field_is_the_reflection(lams):
    # Hbar[H(-p, -x)](p) = Hbar(-p): w(y) = v(-y) solves the mirrored cell
    # problem; H(-p, x) alone misses it by ~0.05-0.37 at these tilts
    f = env.sample(env.make_periodic(_asymmetric, 1.0))
    mirrored = gl.MirroredField(f)
    for p in (-0.4, 0.3):
        got = cs.estimate_hbar(mirrored, p, lam_schedule=lams, dx=1 / 256).value
        want = cs.estimate_hbar(f, -p, lam_schedule=lams, dx=1 / 256).value
        assert abs(got - want) < 1e-11


# -- derived-field metadata and the depth limit -----------------------------------


def _bases():
    board = env.make_checkerboard((-0.5, 0.0), 0.5, "quartic_plus_v", {})
    return [env.sample(env.make_periodic("quartic_plus_sin", 1.0,
                                         {"amplitude": 0.5})),
            env.sample(board, seed=3).periodized(8),
            env.sample(board, seed=3)]


@pytest.mark.parametrize("k", range(3))
def test_derived_fields_carry_base_metadata(k):
    base = _bases()[k]
    periodic = _bases()[0]
    wrappers = [st.TransformedField(base, 0.1, 0.2),
                st.PLConstrainedField(base, 1), st.DeclutteredField(base, 1),
                pc.ShiftedField(base, 0.3),
                gl.ConeAboveField(base, 0.5, 3.0),
                gl.ConeBelowField(base, -0.5, 3.0), pc.MaxField(base, base),
                pc.ReflectedCapField(base, 0.5, 3.0),
                gl.TiltedField(base, 0.0, 0.5, 1.0, 4), gl.MirroredField(base)]
    assert len({type(w) for w in wrappers}) == 10
    for w in wrappers:
        assert isinstance(w, env.DerivedField) and w.base is base
        assert (w.period, w.cell_length, w.deterministic, w.cell) == \
            (base.period, base.cell_length, base.deterministic, base.cell)
    for f1, f2 in ((periodic, base), (base, periodic)):
        both = pc.MaxField(f1, f2)
        assert both.deterministic == (f1.deterministic and f2.deterministic)
        assert (both.period, both.cell_length) == (f1.period, f1.cell_length)


def test_bases_cover_each_cell_rule():
    periodic, torus, board = _bases()
    assert (periodic.cell, periodic.deterministic) == (1.0, True)
    assert (torus.period, torus.cell_length, torus.cell) == (4.0, 0.5, 4.0)
    assert (board.period, board.cell, board.deterministic) == (None, 0.5, False)


def _shape(node):
    return (node.kind, node.leaf_kind, tuple(_shape(c) for c in node.children))


DIRECT = ("leaf", "direct", ())
QC = ("leaf", "quasi_convex", ())
TWO_SIDED = {"nodes": [-1.0, -0.5, 0.0, 0.5, 1.0],
             "values": [0.3, 1.0, 0.0, 1.0, 0.3],
             "cone_slope": 3.0, "amplitude": 0.1}
ONE_WELL = {"nodes": [0.0, 1.0], "values": [0.0, 0.5], "cone_slope": 2.0,
            "amplitude": 0.1}


@pytest.mark.parametrize("params,max_depth,shape", [
    (LEFT_PARAMS, 0, DIRECT),
    (LEFT_PARAMS, 1, ("steep_left", None, (DIRECT, DIRECT))),
    # the steep-right nodes' quasi-convex children are leaves at any depth,
    # whether or not they were renormalized
    (LEFT_PARAMS, 2, ("steep_left", None, (("steep_right", None, (QC, QC)),
                                           ("steep_right", None, (QC, QC))))),
    (TWO_SIDED, 1, ("split", None, (DIRECT, ("mirror", None, (DIRECT,))))),
    (ONE_WELL, 0, QC),
])
def test_tree_depth_limit_makes_direct_leaves(params, max_depth, shape,
                                              monkeypatch):
    # only a rewrite MAX_DEPTH levels down becomes a direct leaf
    monkeypatch.setattr(gl, "MAX_DEPTH", max_depth)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        tree = gl.build_reduction_tree(_field(params))
    assert _shape(tree) == shape
    direct = [l for l in tree.leaves() if l.leaf_kind == "direct"]
    stalls = [w for w in rec if w.category is ReductionStalled]
    assert len(stalls) == len(direct)
    assert all("max reduction depth" in str(w.message) for w in stalls)
