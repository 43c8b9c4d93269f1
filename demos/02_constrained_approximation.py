"""Constrained piecewise-linear approximation of a smooth Hamiltonian.

The constructor pins H at the nodes i/n on [-n, n], raises every midpoint
1/n above its neighbors (so each node is a strict local minimum: 2 n^2 + 1
wells), and continues with steep cones outside.  The sup-error on a
compact set is bounded by rho_K(1/n) + 1/n and shrinks as n grows, which
is what lets every coercive Hamiltonian be replaced by a constrained one
before the gluing machinery runs.
"""

import numpy as np

from hjhomog import env, structure

field = env.sample(env.make_periodic("quartic_plus_sin", 1.0,
                                     {"amplitude": 1.0}))
rho = field.modulus(-2.0, 2.0)

ps = np.linspace(-2, 2, 801)
xs = np.linspace(0, 1, 65)
base = field.evaluate(ps[:, None], xs[None, :])

print(" n    wells   sup-error   bound rho(1/n)+1/n")
for n in (4, 8, 16):
    approx, info = structure.build_constrained_approx(field, n)
    err = np.max(np.abs(approx.evaluate(ps[:, None], xs[None, :]) - base))
    print(f"{n:2d}  {info.wells:6d}   {err:9.4f}   {rho(1 / n) + 1 / n:9.4f}")

detected = structure.detect_branches(
    structure.build_constrained_approx(field, 2)[0], p_box=2.5)
print(f"\nbranch detection on the n=2 approximation: "
      f"{detected.wells} wells (2 n^2 + 1 = 9)")

print("\ncoincidence declutter: a field whose p = 0 slice is flat gets")
print("the interpolated separation bump, all clean slices stay untouched")
flat_slice = env.sample(env.make_periodic(
    lambda p, x: np.minimum(np.abs(8.0 * np.asarray(p)), 1.0)
    * np.sin(2 * np.pi * x), 1.0))
out = structure.DeclutteredField(flat_slice, 8)
x = 0.125
print(f"  before: H(0, {x}) = {flat_slice.evaluate(0.0, x):.6f}")
print(f"  after:  H(0, {x}) = {out.evaluate(0.0, x):.6f} "
      f"(= sin(2 pi x) / 16 = {np.sin(2 * np.pi * x) / 16:.6f})")
