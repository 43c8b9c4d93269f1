"""Stationary-ergodic media: checkerboards, periodization, self-averaging.

The checkerboard draws an i.i.d. value per unit cell from a counter-based
hash of (seed, cell index), blended C^1 across boundaries.  Discounted
estimates on independent realizations agree because the window averages
self-average; wrapping the cell stream on a representative torus removes
window-boundary error entirely and tightens the agreement further.
"""

from hjhomog import env, gluing, cell_solver

spec = env.make_separable("abs", (-1.0, 0.0), 1.0)

print("H(p, x) = |p| + V(x), V i.i.d. uniform on [-1, 0] per unit cell")
print("convex-oracle Monte Carlo over 4 seeds:")
oracle = gluing.convex_oracle({s: env.sample(spec, s) for s in range(4)},
                              p_lo=-3.5, p_hi=3.5)
lo_, hi_, level = oracle.flat
print(f"  flat piece [{lo_:.3f}, {hi_:.3f}] at level {level:.3f} "
      f"(theory: [-1/2, 1/2] at esssup V = 0)")
print(f"  Hbar(2) = {oracle.evaluate(2.0):.4f} (theory: 2 - E[V] - 1 = 1.5)")

print("\ndiscounted estimates from two independent seeds, periodized on a")
print("400-cell representative torus:")
print("p      seed 101   seed 202   gap")
tori = {s: env.sample(spec, s).periodized(400) for s in (101, 202)}
for p in (-2.0, -1.0, 0.0, 1.0, 2.0):
    vals = [cell_solver.estimate_hbar(
        {s: torus}, p, lam_schedule=(0.04, 0.02, 0.01), dx=1 / 64).value
        for s, torus in tori.items()]
    print(f"{p:4.1f}  {vals[0]:9.4f}  {vals[1]:9.4f}   "
          f"{abs(vals[0] - vals[1]):.4f}")

print("\nthe same medium windowed instead of periodized (R = 4):")
est = cell_solver.estimate_hbar({101: env.sample(spec, 101)}, 2.0,
                                lam_schedule=(0.04, 0.02, 0.01), dx=1 / 64,
                                R=4.0)
print(f"  Hbar(2) = {est.value:.4f} with dispersion {est.dispersion:.4f}")
