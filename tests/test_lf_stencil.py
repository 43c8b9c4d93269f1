"""The shared LF stencils against verbatim copies of the kernels they
replaced: the discounted solver's operator (wraparound by ``np.roll`` and
zero-slope ghosts), the PDE march (whole grid, against the light-cone
march's core) and the red-black sweep (``np.roll`` on a torus, slices
between ghosts).  Results must agree bit for bit, signed
zeros included."""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as hs

from hjhomog import cell_solver as cs, env, homog_pde as hp
from hjhomog.curve import EffectiveCurve
from hjhomog.errors import ExtrapolationUsed

FIELDS = {name: env.sample(env.make_periodic(name, 1.0, {"amplitude": 0.7}))
          for name in ("abs_plus_sin", "quartic_plus_sin")}


def _operator_reference(h, p, lam, grid, w):
    dx = grid.dx
    if grid.periodic:
        qm = (w - np.roll(w, 1)) / dx
        qp = (np.roll(w, -1) - w) / dx
    else:
        qp = np.empty_like(w)
        qm = np.empty_like(w)
        qp[:-1] = (w[1:] - w[:-1]) / dx
        qm[1:] = qp[:-1]
        qp[-1] = 0.0
        qm[0] = 0.0
    c = 0.5 * (qm + qp)
    diss = 0.5 * grid.theta * (qp - qm)
    return lam * w + h(p + c) - diss, c


def _march_reference(frozen, g, T, X, dx, theta, cfl):
    m = int(np.ceil(X / dx))
    xs = np.arange(-m, m + 1) * dx
    h = frozen(xs)
    u = np.asarray(g(xs), dtype=np.float64)
    dt = cfl * dx / theta
    n_steps = int(np.ceil(T / dt))
    dt = T / n_steps
    for _ in range(n_steps):
        qp = np.empty_like(u)
        qm = np.empty_like(u)
        qp[:-1] = (u[1:] - u[:-1]) / dx
        qm[1:] = qp[:-1]
        qp[-1] = 0.0
        qm[0] = 0.0
        c = 0.5 * (qm + qp)
        diss = 0.5 * theta * (qp - qm)
        u = u - dt * (h(c) - diss)
    return xs, u


def _red_black_reference(h, h_edges, p, lam, grid, w):
    dx, th = grid.dx, grid.theta
    w = w.copy()
    denom = lam + th / dx
    if grid.periodic:
        parity = np.arange(len(w)) % 2
        for par in (0, 1):
            wm, wp = np.roll(w, 1), np.roll(w, -1)
            new = (th * (wp + wm) / (2 * dx)
                   - h(p + (wp - wm) / (2 * dx))) / denom
            idx = parity == par
            w[idx] = new[idx]
        res, _ = cs._operator(h, p, lam, grid, w)
        return w - float(np.mean(res)) / lam
    parity = np.arange(1, len(w) - 1) % 2
    slope = np.zeros(len(w))
    for par in (0, 1):
        wm, wp = w[:-2], w[2:]
        slope[1:-1] = (wp - wm) / (2 * dx)
        new = (th * (wp + wm) / (2 * dx) - h(p + slope)[1:-1]) / denom
        idx = parity == par
        w[1:-1][idx] = new[idx]
    tau = 1.0 / denom
    for _ in range(2):
        q0, qn = (w[1] - w[0]) / dx, (w[-1] - w[-2]) / dx
        h0, hn = h_edges(np.array([p + 0.5 * q0, p + 0.5 * qn]))
        w[0] -= tau * (lam * w[0] + h0 - 0.5 * th * q0)
        w[-1] -= tau * (lam * w[-1] + hn + 0.5 * th * qn)
    return w


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# grid values as runs of one value (flat stretches make zero differences),
# with signed zeros drawn on purpose
_values = hs.one_of(hs.sampled_from([0.0, -0.0]),
                    hs.floats(-4.0, 4.0, allow_nan=False))
_w = hs.lists(hs.tuples(_values, hs.integers(1, 5)), min_size=1,
              max_size=12).map(
    lambda runs: np.array([v for v, k in runs for _ in range(k)]))
_dx = hs.sampled_from([1 / 64, 1 / 100, 0.03])


@settings(max_examples=200, deadline=None)
@given(w=_w, periodic=hs.booleans(), dx=_dx,
       theta=hs.floats(0.5, 40.0), lam=hs.floats(0.001, 1.0),
       p=hs.floats(-2.0, 2.0), name=hs.sampled_from(sorted(FIELDS)))
def test_operator_matches_reference(w, periodic, dx, theta, lam, p, name):
    n = len(w)
    grid = cs.SolverGrid(X=n * dx / 2, dx=dx, theta=theta,
                         tol_res=1e-9, period=n * dx if periodic else None)
    h = FIELDS[name].at(np.arange(n) * dx)
    res, c = cs._operator(h, p, lam, grid, w)
    res_ref, c_ref = _operator_reference(h, p, lam, grid, w)
    assert _same_bits(res, res_ref)
    assert _same_bits(c, c_ref)
    if periodic:
        # the periodic gradients of gradient_control_check
        grads = np.concatenate([(w - np.roll(w, 1)), (np.roll(w, -1) - w)]) \
            / dx
        assert _same_bits(np.concatenate(cs._one_sided(w, dx, True)), grads)


# a curve Hbar, read past its support on steep drawn data
CURVE_P = np.linspace(-1.5, 1.5, 13)
CURVE = EffectiveCurve(CURVE_P, np.abs(CURVE_P) + 0.3 * np.cos(CURVE_P))


# short horizons keep the march window at the core plus a few nodes; long
# ones run part of the march on the whole grid before the window shrinks
@settings(max_examples=60, deadline=None)
@given(w=_w, dx=_dx, X=hs.floats(0.05, 0.4), X_core=hs.floats(0.0, 0.6),
       T=hs.one_of(hs.floats(0.01, 0.08), hs.floats(0.2, 1.0)),
       eps=hs.sampled_from([1.0, 0.25]), hbar=hs.booleans())
def test_march_matches_reference(w, dx, X, X_core, T, eps, hbar):
    # the march returns only the core, computed on the nodes that can
    # still reach it; the reference marches the whole grid
    field = FIELDS["abs_plus_sin"]

    def frozen(x):
        return CURVE.evaluate if hbar else field.at(x / eps)

    def g(xs):
        # the drawn runs, repeated to fill the march grid
        return np.resize(w, xs.shape)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationUsed)
        xs, u = hp._march(frozen, g, T, X, dx, 1.7, 0.45, X_core)
        xs_ref, u_ref = _march_reference(frozen, g, T, X, dx, 1.7, 0.45)
    core = np.abs(xs_ref) <= X_core + 1e-12
    assert _same_bits(xs, xs_ref[core])
    assert _same_bits(u, u_ref[core])


@settings(max_examples=100, deadline=None)
@given(n=hs.integers(1, 300), data=hs.data(), dx=_dx,
       eps=hs.sampled_from([0.4, 0.1]), name=hs.sampled_from(sorted(FIELDS)),
       p=hs.lists(_values, min_size=1, max_size=300))
def test_frozen_window_matches_whole_grid(n, data, dx, eps, name, p):
    # the march freezes H on a window of the grid: a slice of the nodes
    # must give the slice of the whole grid's values, bit for bit
    lo = data.draw(hs.integers(0, n - 1))
    hi = data.draw(hs.integers(lo + 1, n))
    xs = np.arange(-(n // 2), n - n // 2) * dx / eps
    q = np.resize(np.array(p), n)
    field = FIELDS[name]
    assert _same_bits(field.at(xs[lo:hi])(q[lo:hi]), field.at(xs)(q)[lo:hi])


@settings(max_examples=200, deadline=None)
@given(w=_w.filter(lambda w: len(w) >= 3), periodic=hs.booleans(), dx=_dx,
       theta=hs.floats(0.5, 40.0), lam=hs.floats(0.001, 1.0),
       p=hs.floats(-2.0, 2.0), name=hs.sampled_from(sorted(FIELDS)))
def test_red_black_sweep_matches_reference(w, periodic, dx, theta, lam, p,
                                           name):
    n = len(w)
    grid = cs.SolverGrid(X=n * dx / 2, dx=dx, theta=theta,
                         tol_res=1e-9, period=n * dx if periodic else None)
    xs = np.arange(n) * dx
    h, h_edges = FIELDS[name].at(xs), FIELDS[name].at(xs[[0, -1]])
    # steep drawn edges can overflow the ghost-row updates, on both sides
    with np.errstate(over="ignore", invalid="ignore"):
        got = cs._red_black_sweep(h, h_edges, p, lam, grid, w)
        want = _red_black_reference(h, h_edges, p, lam, grid, w)
    assert _same_bits(got, want)


# the stencil writes into buffers: the arrays it hands out, and the ones
# handed to it, must keep their bytes

@settings(max_examples=100, deadline=None)
@given(w=_w, shift=_values, periodic=hs.booleans(), dx=_dx,
       theta=hs.floats(0.5, 40.0), lam=hs.floats(0.001, 1.0),
       p=hs.floats(-2.0, 2.0), name=hs.sampled_from(sorted(FIELDS)))
def test_operator_returns_fresh_arrays(w, shift, periodic, dx, theta, lam, p,
                                       name):
    # Newton's line search keeps its best candidate's (res, c) while it
    # evaluates the next candidate
    n = len(w)
    grid = cs.SolverGrid(X=n * dx / 2, dx=dx, theta=theta,
                         tol_res=1e-9, period=n * dx if periodic else None)
    h = FIELDS[name].at(np.arange(n) * dx)
    res, c = cs._operator(h, p, lam, grid, w)
    kept = res.tobytes(), c.tobytes()
    cs._operator(h, p, lam, grid, w[::-1] + shift)
    assert (res.tobytes(), c.tobytes()) == kept


@settings(max_examples=40, deadline=None)
@given(w=_w, dx=_dx, X=hs.floats(0.05, 0.4), X_core=hs.floats(0.0, 0.6),
       T=hs.one_of(hs.floats(0.01, 0.08), hs.floats(0.2, 1.0)))
def test_march_leaves_datum_and_evaluator_arrays_alone(w, dx, X, X_core, T):
    # g returns one stored array, and the frozen evaluator returns arrays
    # it keeps in a cache: the march writes into neither
    field = FIELDS["abs_plus_sin"]
    datum, cache = {}, {}

    def g(xs):
        return datum.setdefault(len(xs), np.resize(w, xs.shape))

    def frozen(x):
        h = field.at(x)

        def cached(q):
            key = x.tobytes(), q.tobytes()
            if key not in cache:
                out = h(q)
                cache[key] = out, out.copy()
            return cache[key][0]
        return cached

    xs, u = hp._march(frozen, g, T, X, dx, 1.7, 0.45, X_core)
    xs_ref, u_ref = _march_reference(frozen, g, T, X, dx, 1.7, 0.45)
    core = np.abs(xs_ref) <= X_core + 1e-12
    assert _same_bits(xs, xs_ref[core])
    assert _same_bits(u, u_ref[core])
    assert all(_same_bits(a, np.resize(w, a.shape)) for a in datum.values())
    assert all(_same_bits(out, kept) for out, kept in cache.values())
