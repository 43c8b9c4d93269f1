"""The reduction tree: from a double well to quasi-convex leaves.

A small-oscillation constrained field is rewritten with steep cone
modifications whose effective Hamiltonians recombine through recorded
min / piecewise rules.  Each rewrite strictly decreases the well count,
so the recursion bottoms out in quasi-convex (or large-oscillation)
leaves that the oracle or the discounted solver can evaluate.  The
reassembled curve is cross-checked against the direct solver sweep.
"""

import numpy as np

from hjhomog import env, structure, gluing, cell_solver


def show(node, indent=0):
    pad = "  " * indent
    if node.kind == "leaf":
        print(f"{pad}leaf[{node.leaf_kind}] shifts=({node.p_shift:+.2f}, "
              f"{node.mu_shift:+.2f})")
    else:
        extra = ""
        if "P" in node.params:
            extra = f" P={node.params['P']:.2f} Q={node.params['Q']:.2f}"
        print(f"{pad}{node.kind}{extra}")
        for ch in node.children:
            show(ch, indent + 1)


field = env.sample(env.make_periodic("quartic_plus_sin", 1.0,
                                     {"amplitude": 0.1}))
tree = gluing.build_reduction_tree(field)
print("reduction tree for (p^2 - 1)^2 + 0.1 sin(2 pi x):")
show(tree)

ps = np.linspace(-1.0, 2.5, 8)
curve = gluing.evaluate_tree(tree, ps, gluing.LeafOptions(dx=1 / 512))
print("\np       glue     solver    |diff|")
for p in ps:
    direct = cell_solver.estimate_hbar(field, float(p), dx=1 / 1024).value
    v = curve.evaluate(float(p))
    print(f"{p:5.2f}  {v:8.4f}  {direct:8.4f}  {abs(v - direct):.4f}")

print("\nleft steep side on a two-well profile (deep well left of the "
      "high hill):")
left = env.sample(env.make_periodic("pwl_wells_plus_dip", 1.0, {
    "nodes": [0.0, 0.5, 1.0, 1.5, 2.0], "values": [0.0, 0.8, 0.2, 1.3, 0.5],
    "cone_slope": 2.5, "amplitude": 0.1}))
s = structure.detect_branches(left)
stats = structure.classify_oscillation(left, s)
fam = gluing.steep_side_family(left, s, stats)
print(f"  case {fam.case}: P = {fam.P:.2f} < Q = {fam.Q:.2f}, "
      f"combination Hbar = min(Hbar_1, Hbar_3)")
for p in (0.5, 1.25, 2.0):
    h = cell_solver.estimate_hbar(left, p, dx=1 / 512).value
    h1 = cell_solver.estimate_hbar(fam.H1, p, dx=1 / 512).value
    h3 = cell_solver.estimate_hbar(fam.H3, p, dx=1 / 512).value
    print(f"  p={p:4.2f}: Hbar={h:7.4f}  min(H1bar, H3bar)={min(h1, h3):7.4f}")
