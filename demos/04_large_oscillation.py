"""Large oscillation: level sets of the effective Hamiltonian from
admissible functions.

For (p^2 - 1)^2 + 2 sin(2 pi x) the medium's oscillation exceeds the well
depth, so no gluing applies: instead, at each level mu >= 0 the line is
cut where mu meets a local-extremum process, a branch inverse is chosen
per piece under the viscosity corner rules, and dynamic programming over
the pieces yields the extremal selections f_sup >= f_inf.  Each selection
is checked against every branch that lies on a complete legal junction
chain, so it is extremal at every point, not only in its integral.  Their
window means bound the flat level set; the inverse of the single decreasing
branch gives the negative side; level 0 carries the flat minimum piece
[E z_l, E f_inf_0].  Everything here is cross-checked against exact
branch quadrature and the discounted solver.
"""

import numpy as np
from scipy.integrate import quad

from hjhomog import env, structure, large_osc, cell_solver

field = env.sample(env.make_periodic("quartic_plus_sin", 1.0,
                                     {"amplitude": 2.0}))
s = structure.detect_branches(field)
fn, sn, p_shift, mu_shift = structure.normalize(field, s)
print(f"normalization: central well p = {p_shift:.0f}, level shift "
      f"{mu_shift:.0f}; index {sn.index}")

window = (0.0, 100.0)
_, f_lo, f_hi = large_osc.extremal_pair(fn, sn, 0.0, window)
print(f"level 0 selections: f_inf rides branches "
      f"{sorted(set(f_lo.branches))}, f_sup rides {sorted(set(f_hi.branches))}")
print(f"I_0 = [{f_lo.mean():.4f}, {f_hi.mean():.4f}]")


def psi1(x):
    return 1 + np.sqrt(1 + np.sqrt(2 - 2 * np.sin(2 * np.pi * x)))


def psi3(x):
    return 1 - np.sqrt(1 - np.sqrt(2 - 2 * np.sin(2 * np.pi * x)))


oq0 = (quad(psi3, 1 / 12, 1 / 4, limit=200)[0]
       + quad(psi1, 0, 1 / 12, limit=200)[0]
       + quad(psi1, 1 / 4, 1, limit=200)[0])
print(f"branch-quadrature oracle for E f_inf_0: {oq0:.4f}")

ext = large_osc.extreme_level(fn, sn, window_cells=100)
print(f"flat minimum piece: [{ext['e_zl']:.4f}, {ext['q0']:.4f}] at level 0")

print("\nassembled curve vs direct solver, original coordinates:")
curve = large_osc.assemble_effective_curve(
    fn, sn, mu_points=15, window_cells=100,
    p_lo=-2.0 - p_shift, p_hi=3.2 - p_shift).transformed(p_shift, mu_shift)
print("p       assembled   solver    |diff|")
for p in np.linspace(-1.8, 3.2, 11):
    direct = cell_solver.estimate_hbar(field, float(p), dx=1 / 2048).value
    v = curve.evaluate(float(p))
    print(f"{p:5.2f}  {v:9.4f}  {direct:9.4f}  {abs(v - direct):.4f}")
print(f"level-set convex: {curve.is_level_set_convex()}")
