"""Frozen-x evaluation: ``field.at(x)(p)`` and ``field.evaluate(p, x)``
against reference copies of the per-call evaluation they replaced, bit for
bit, over every registry profile, a raw callable, checkerboards plain and
wrapped, and every derived field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from hjhomog import env, gluing as gl, structure as st

import proof_checks as pc


# -- reference: the per-call evaluation of every field class ------------------

def _ref_pwl(p, nodes, values, cone_slope):
    p = np.asarray(p, dtype=np.float64)
    inner = np.interp(p, nodes, values)
    left = values[0] + cone_slope * (nodes[0] - p)
    right = values[-1] + cone_slope * (p - nodes[-1])
    return np.where(p < nodes[0], left, np.where(p > nodes[-1], right, inner))


_REF_BASES = {
    "abs": lambda p: np.abs(p),
    "quadratic": lambda p: np.asarray(p, dtype=np.float64) ** 2,
    "double_well": lambda p: (np.asarray(p, dtype=np.float64) ** 2 - 1.0) ** 2,
}


def _ref_periodic_profile(name, params, period):
    two_pi = 2.0 * math.pi / period
    if name == "abs_plus_sin":
        a = params.get("amplitude", 1.0)
        return lambda p, x: np.abs(p) + a * np.sin(two_pi * x)
    if name == "quartic_plus_sin":
        a = params.get("amplitude", 1.0)
        return lambda p, x: (np.asarray(p) ** 2 - 1.0) ** 2 + a * np.sin(two_pi * x)
    if name == "base_plus_sin":
        a = params.get("amplitude", 1.0)
        base = _REF_BASES[params.get("base", "double_well")]
        return lambda p, x: base(p) + a * np.sin(two_pi * x)
    if name == "xfree":
        base = _REF_BASES[params.get("base", "quadratic")]
        return lambda p, x: base(p) + 0.0 * np.asarray(x)
    if name == "pwl_wells_plus_dip":
        nodes = np.asarray(params["nodes"], dtype=np.float64)
        values = np.asarray(params["values"], dtype=np.float64)
        slope = params.get("cone_slope", 2.0)
        a = params.get("amplitude", 0.1)
        return lambda p, x: _ref_pwl(p, nodes, values, slope) + \
            a * (np.sin(two_pi * x) - 1.0)
    raise KeyError(name)


def _ref_template(name, params):
    if name == "abs_plus_v":
        return lambda p, x, v: np.abs(p) + v
    if name == "quartic_plus_v":
        return lambda p, x, v: (np.asarray(p) ** 2 - 1.0) ** 2 + v
    if name == "base_plus_v":
        base = _REF_BASES[params.get("base", "abs")]
        return lambda p, x, v: base(p) + v
    if name == "base_plus_sin_plus_v":
        base = _REF_BASES[params.get("base", "double_well")]
        a = params.get("amplitude", 0.5)
        w = 2.0 * math.pi / params.get("inner_period", 1.0)
        return lambda p, x, v: base(p) + a * np.sin(w * x) + v
    raise KeyError(name)


def _ref_fn(spec):
    if callable(spec.profile):
        return spec.profile
    if spec.kind == "periodic":
        return _ref_periodic_profile(spec.profile, spec.params, spec.period)
    return _ref_template(spec.profile, spec.params)


def ref_evaluate(f, p, x):
    p = np.asarray(p, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    out = _REF[type(f)](f, p, x)
    return out if out.ndim else float(out)


def _periodic(f, p, x):
    T = f.period
    xr = x - T * np.floor(x / T)
    return np.asarray(_ref_fn(f.spec)(p, xr), dtype=np.float64)


def _checkerboard(f, p, x):
    p, x = np.broadcast_arrays(np.asarray(p, float), np.asarray(x, float))
    v = f.cell_values(x.ravel()).reshape(x.shape)
    return np.asarray(_ref_fn(f.spec)(p, x, v), dtype=np.float64)


def _shifted(f, p, x):
    return np.asarray(ref_evaluate(f.base, p, np.asarray(x) + f.y))


def _cone_above(f, p, x):
    p = np.asarray(p, dtype=np.float64)
    base_at_q = ref_evaluate(f.base, f.Q, x)
    inner = ref_evaluate(f.base, np.minimum(p, f.Q), x)
    return np.where(p > f.Q, f.L * np.abs(p - f.Q) + base_at_q, inner)


def _cone_below(f, p, x):
    p = np.asarray(p, dtype=np.float64)
    base_at_q = ref_evaluate(f.base, f.q, x)
    inner = ref_evaluate(f.base, np.maximum(p, f.q), x)
    return np.where(p < f.q, f.L * np.abs(p - f.q) + base_at_q, inner)


def _max(f, p, x):
    return np.maximum(ref_evaluate(f.f1, p, x), ref_evaluate(f.f2, p, x))


def _reflected_cap(f, p, x):
    p = np.asarray(p, dtype=np.float64)
    inner = ref_evaluate(f.base, np.clip(p, 0.0, f.P), x)
    down = np.where(p < 0.0, inner - f.L * np.abs(p),
                    np.where(p > f.P, inner - f.L * (p - f.P), inner))
    over = np.maximum(down, f._floor)
    dist = np.where(p < 0.0, -p, np.where(p > f.P, p - f.P, 0.0))
    reach = (inner - f._floor) / f.L
    capped = np.where(dist > reach, f._floor + f.L * (dist - reach), over)
    return np.where((p >= 0.0) & (p <= f.P), inner, capped)


def _tilted(f, p, x):
    return np.asarray(ref_evaluate(f.base, p, x)) - f.hat(p)


def _mirrored(f, p, x):
    # H(-p, -x), the field whose Hbar is p -> Hbar(-p)
    return np.asarray(ref_evaluate(f.base, -np.asarray(p), -x))


def _transformed(f, p, x):
    return np.asarray(ref_evaluate(f.base, np.asarray(p) + f.p_shift, x)) \
        - f.mu_shift


def _pl_half_value(f, j, x):
    n = f.n
    h = 0.5 / n
    pj = -n + j * h
    even = (j % 2) == 0
    out = np.empty(np.broadcast(pj, x).shape, dtype=np.float64)
    if np.any(even):
        out[even] = ref_evaluate(f.base, pj[even] if np.ndim(pj) else pj,
                                 x[even] if np.ndim(x) else x)
    odd = ~even
    if np.any(odd):
        pl = (pj - h)[odd] if np.ndim(pj) else pj - h
        pr = (pj + h)[odd] if np.ndim(pj) else pj + h
        xo = x[odd] if np.ndim(x) else x
        out[odd] = np.maximum(ref_evaluate(f.base, pl, xo),
                              ref_evaluate(f.base, pr, xo)) + 1.0 / n
    return out


def _pl(f, p, x):
    shape = np.broadcast(p, x).shape
    p, x = np.broadcast_arrays(np.asarray(p, float), np.asarray(x, float))
    p, x = np.atleast_1d(p).ravel(), np.atleast_1d(x).ravel()
    n = f.n
    h = 0.5 / n
    out = np.empty(p.shape, dtype=np.float64)
    lo, hi = p < -n, p > n
    if np.any(lo):
        out[lo] = np.abs(p[lo] + n) + ref_evaluate(f.base, -n, x[lo])
    if np.any(hi):
        out[hi] = np.abs(p[hi] - n) + ref_evaluate(f.base, n, x[hi])
    mid = ~(lo | hi)
    if np.any(mid):
        u = (p[mid] + n) / h
        k = np.clip(np.floor(u).astype(np.int64), 0, 4 * n * n - 1)
        t = u - k
        v0 = _pl_half_value(f, k, x[mid])
        v1 = _pl_half_value(f, k + 1, x[mid])
        out[mid] = (1.0 - t) * v0 + t * v1
    return out.reshape(shape)


def _decluttered(f, p, x):
    if f._ref is None or not f.marks.any():
        bump = np.zeros(np.broadcast(np.asarray(p), np.asarray(x)).shape)
    else:
        n = f.n
        grid = np.arange(-n * n, n * n + 1) / n
        w = np.interp(np.asarray(p, dtype=np.float64), grid,
                      f.marks.astype(np.float64))
        ref = ref_evaluate(f.base, f._ref_i / n, np.asarray(x, dtype=np.float64))
        bump = (1.0 / n) * w * ref / f._ref_norm
    return np.asarray(ref_evaluate(f.base, p, x)) + bump


_REF = {env.PeriodicField: _periodic, env.CheckerboardField: _checkerboard,
        pc.ShiftedField: _shifted, gl.ConeAboveField: _cone_above,
        gl.ConeBelowField: _cone_below, pc.MaxField: _max,
        pc.ReflectedCapField: _reflected_cap, gl.TiltedField: _tilted,
        gl.MirroredField: _mirrored, st.TransformedField: _transformed,
        st.PLConstrainedField: _pl, st.DeclutteredField: _decluttered}


# -- the fields under test -----------------------------------------------------

PWL = {"nodes": [0, 0.5, 1, 1.5, 2], "values": [0, 0.8, 0.2, 1.3, 0.5],
       "cone_slope": 2.5, "amplitude": 0.1}


def _raw(p, x):
    return (p ** 2 - 1.0) ** 2 + 0.6 * np.sin(2 * np.pi * x) \
        + 0.2 * p * np.cos(2 * np.pi * x)


def _half_flat(p, x):
    # slices p <= 0 are constant in x: the declutter bump has work to do
    return p ** 2 + np.maximum(p, 0.0) * np.sin(2 * np.pi * x)


def _periodic_fields():
    specs = [("abs_plus_sin", 1.0, {"amplitude": 0.7}),
             ("quartic_plus_sin", 1.0, {"amplitude": 2.0}),
             ("base_plus_sin", 0.5, {"base": "abs", "amplitude": 0.3}),
             ("base_plus_sin", 1.0, {"base": "quadratic"}),
             ("base_plus_sin", 1.0, {}),
             ("xfree", 1.0, {"base": "double_well"}),
             ("xfree", 1.0, {}),
             ("pwl_wells_plus_dip", 1.0, PWL),
             (_raw, 1.0, {})]
    return {f"periodic:{getattr(name, '__name__', name)}:{i}":
            env.sample(env.make_periodic(name, period, params))
            for i, (name, period, params) in enumerate(specs)}


def _board_fields():
    specs = [("abs_plus_v", {}), ("quartic_plus_v", {}),
             ("base_plus_v", {"base": "quadratic"}), ("base_plus_v", {}),
             ("base_plus_sin_plus_v", {"inner_period": 0.5}),
             (lambda p, x, v: np.abs(p) * (1.0 + 0.1 * np.cos(x)) + v, {})]
    out = {}
    for i, (name, params) in enumerate(specs):
        spec = env.make_checkerboard((-0.5, 0.25), 0.5, name, params)
        out[f"board:{i}"] = env.sample(spec, seed=11)
    out["board:wrapped"] = out["board:1"].periodized(6)
    return out


def _derived_fields(base):
    return {"shifted": pc.ShiftedField(base, 0.3),
            "transformed": st.TransformedField(base, 0.1, 0.2),
            "cone_above": gl.ConeAboveField(base, 0.5, 3.0),
            "cone_below": gl.ConeBelowField(base, -0.5, 3.0),
            "max": pc.MaxField(base, st.TransformedField(base, 0.4, -0.1)),
            "reflected_cap": pc.ReflectedCapField(base, 0.5, 3.0),
            "tilted": gl.TiltedField(base, 0.0, 0.5, 1.0, 4),
            "mirrored": gl.MirroredField(base),
            "pl": st.PLConstrainedField(base, 2),
            "decluttered": st.DeclutteredField(base, 2),
            "nested": gl.ConeAboveField(gl.ConeAboveField(
                st.TransformedField(base, 0.2, 0.1), 0.9, 2.0), 0.6, 2.5)}


def _all_fields():
    fields = {**_periodic_fields(), **_board_fields()}
    for tag, base in (("periodic", fields["periodic:quartic_plus_sin:1"]),
                      ("board", fields["board:1"]),
                      ("wrapped", fields["board:wrapped"])):
        fields.update({f"{tag}>{k}": f for k, f in _derived_fields(base).items()})
    half_flat = env.sample(env.make_periodic(_half_flat, 1.0))
    fields["decluttered:bump"] = st.DeclutteredField(half_flat, 2)
    fields["decluttered:no_ref"] = st.DeclutteredField(
        env.sample(env.make_periodic("xfree", 1.0, {"base": "quadratic"})), 2)
    return fields


FIELDS = _all_fields()


def test_declutter_fixtures_take_both_branches():
    bump, no_ref = FIELDS["decluttered:bump"], FIELDS["decluttered:no_ref"]
    assert bump._ref is not None and bump.marks.any() and not bump.marks.all()
    assert no_ref._ref is None


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def _assert_same(f, p, x):
    want = ref_evaluate(f, p, x)
    got = f.evaluate(p, x)
    frozen = f.at(x)(p)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) == np.shape(frozen)
    assert _bits(got) == _bits(want)
    assert _bits(frozen) == _bits(want)


_P = hs.floats(-4.0, 4.0, allow_nan=False)
_X = hs.floats(-7.0, 7.0, allow_nan=False)
_SPLICES = hs.sampled_from([0.0, 0.5, -0.5, 0.25, 1.0, 2.0, -2.0, 0.9, 0.6])


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=25, deadline=None)
@given(ps=hs.lists(hs.one_of(_P, _SPLICES), min_size=1, max_size=6),
       xs=hs.lists(_X, min_size=1, max_size=5),
       layout=hs.sampled_from(["scalar", "p_vector", "x_vector", "paired",
                               "outer"]))
def test_frozen_matches_reference_bit_for_bit(name, ps, xs, layout):
    f = FIELDS[name]
    p, x = np.asarray(ps), np.asarray(xs)
    if layout == "scalar":
        _assert_same(f, float(p[0]), float(x[0]))
    elif layout == "p_vector":
        _assert_same(f, p, float(x[0]))
    elif layout == "x_vector":
        _assert_same(f, float(p[0]), x)
    elif layout == "paired":
        k = min(len(p), len(x))
        _assert_same(f, p[:k], x[:k])
    else:
        _assert_same(f, p[:, None], x[None, :])


@pytest.mark.parametrize("name", ["periodic:quartic_plus_sin:1", "board:4",
                                  "periodic>nested", "board>decluttered"])
def test_frozen_on_probe_grids(name):
    # the grids the solver, the oracle and the probes freeze x on
    f = FIELDS[name]
    xs = f.probe_xs(256)
    ps = np.linspace(-3.0, 3.0, 61)
    _assert_same(f, ps[:, None], xs[None, :])
    _assert_same(f, ps[:, None], xs)
    _assert_same(f, 0.37, xs)


def test_evaluate_returns_float_for_scalars():
    for f in (FIELDS["periodic:abs_plus_sin:0"], FIELDS["board:0"],
              FIELDS["board>nested"]):
        assert type(f.evaluate(0.3, 0.2)) is float
        assert isinstance(f.evaluate([0.3], 0.2), np.ndarray)


@pytest.mark.parametrize("name, p", [("board:1", -3.731429700965119 + 0.1),
                                     ("board>transformed", -3.731429700965119)])
def test_scalar_p_with_x_vector_on_checkerboard(name, p):
    # on a 0-d p numpy's scalar power rounds an ulp away from the array
    # power at this p; the per-call evaluation broadcast p against x
    _assert_same(FIELDS[name], p, np.array([0.0]))


# -- the period key: x reduced to what ``at(x)`` consumes ----------------------

def _pk_periodic(T):
    return env.sample(env.make_periodic("pwl_wells_plus_dip", T, PWL))


def _pk_fields(T):
    """One field of each class that has a period key, over a period-T base."""
    base = _pk_periodic(T)
    half_flat = env.sample(env.make_periodic(_half_flat, T))
    return {env.PeriodicField: base,
            st.TransformedField: st.TransformedField(base, 0.1, 0.2),
            st.PLConstrainedField: st.PLConstrainedField(base, 2),
            st.DeclutteredField: st.DeclutteredField(half_flat, 2),
            gl.ConeAboveField: gl.ConeAboveField(base, 0.5, 3.0),
            gl.ConeBelowField: gl.ConeBelowField(base, -0.5, 3.0),
            pc.ReflectedCapField: pc.ReflectedCapField(base, 0.5, 3.0),
            gl.TiltedField: gl.TiltedField(base, 0.0, 0.5, 1.0, 4)}


def _no_key_fields(T):
    base = _pk_periodic(T)
    board = FIELDS["board:1"]
    return {pc.ShiftedField: [pc.ShiftedField(base, 0.3),
                              pc.ShiftedField(base, T)],
            gl.MirroredField: [gl.MirroredField(base)],
            pc.MaxField: [pc.MaxField(base, st.TransformedField(base, 0.4,
                                                                -0.1))],
            env.CheckerboardField: [board, board.periodized(6)]}


# every HamiltonianField subclass: True when it has a period key, False when
# it has none, None when it cannot be built (no ``at``)
PERIOD_KEYS = {env.PeriodicField: True, env.DerivedField: None,
               st.TransformedField: True, st.PLConstrainedField: True,
               st.DeclutteredField: True, gl.ConeAboveField: True,
               gl.ConeBelowField: True, pc.ReflectedCapField: True,
               gl.TiltedField: True, pc.ShiftedField: False,
               gl.MirroredField: False, pc.MaxField: False,
               env.CheckerboardField: False}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_period_key_table_lists_every_field_class():
    # a new field that reads x itself must not inherit a key unnoticed:
    # list it here, and give it a key only after the contract test below
    import hjhomog.cli  # noqa: F401  (imports every module of the package)
    assert set(_subclasses(env.HamiltonianField)) == set(PERIOD_KEYS)
    assert set(_pk_fields(1.0)) == {c for c, k in PERIOD_KEYS.items() if k}
    assert set(_no_key_fields(1.0)) == \
        {c for c, k in PERIOD_KEYS.items() if k is False}


@pytest.mark.parametrize("T", [1.0, 0.7])
def test_fields_without_a_period_key(T):
    for cls, fields in _no_key_fields(T).items():
        for f in fields:
            assert type(f) is cls
            assert f.period_key(np.linspace(-3.0, 3.0, 17)) is None
    # a chain that passes x unchanged keeps its base's answer
    shifted = pc.ShiftedField(_pk_periodic(T), 0.3)
    assert gl.ConeAboveField(st.TransformedField(shifted, 0.1, 0.2), 0.5,
                             3.0).period_key(np.zeros(3)) is None


_PK_FIELDS = {T: _pk_fields(T) for T in (1.0, 0.7)}


@pytest.mark.parametrize("T", [1.0, 0.7])
@pytest.mark.parametrize("cls", sorted(_PK_FIELDS[1.0],
                                       key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
@settings(max_examples=30, deadline=None)
@given(x1=hs.floats(-30.0, 30.0, allow_nan=False),
       near=hs.booleans(), j=hs.integers(-5, 5),
       e=hs.sampled_from([0.0, 1e-17, -1e-17, 1e-300, -1e-300, 2.2e-16,
                          -2.2e-16, 1e-12, -1e-12]),
       ks=hs.lists(hs.integers(-40, 40), min_size=1, max_size=6),
       ps=hs.lists(hs.one_of(_P, _SPLICES), min_size=1, max_size=4))
def test_equal_period_keys_give_equal_values(T, cls, x1, near, j, e, ks, ps):
    f = _PK_FIELDS[T][cls]
    assert type(f) is cls
    if near:
        # x next to a multiple of T: x - T floor(x / T) can round to T
        x1 = j * T + e
    xs = np.concatenate([[x1], x1 + np.asarray(ks) * T,
                         np.asarray(ks[:2]) * T - 1e-17])
    keys = f.period_key(xs)
    assert keys.shape == xs.shape
    p = np.asarray(ps)[:, None]
    table = f.at(xs)(p)
    for i in range(len(xs)):
        same = keys == keys[i]
        # the vectorized table and each point on its own
        assert _bits(table[:, same]) == _bits(
            np.repeat(table[:, [i]], same.sum(), axis=1))
        assert _bits(f.at(xs[i])(p)) == _bits(f.at(xs[same][-1])(p))
