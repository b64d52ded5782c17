"""Walk through the lattice-path model behind G(4,2) and H(4,2).

Seventeen vertex-disjoint pairs of monotone paths connect the start points
(0,0), (2,-2) to the end points (2,1), (4,0).  Each pair carries a product
weight read off its vertical steps; the weights sum to the same polynomials
the determinant route produces.
"""
from qfaulhaber import det_route
from qfaulhaber.lgv import (
    enumerate_nonintersecting,
    family_config,
    family_steps,
    family_weight,
)

starts, ends = family_config("G", 4, 2)
print(f"starts: {starts}")
print(f"ends:   {ends}\n")

families = enumerate_nonintersecting(starts, ends)
print(f"{len(families)} non-intersecting path families\n")

g_total = h_total = None
for fam in families:
    wg = family_weight("G", fam)
    wh = family_weight("H", fam)
    g_total = wg if g_total is None else g_total + wg
    h_total = wh if h_total is None else h_total + wh
    print(f"{family_steps(fam):16}  G-weight: {wg.to_string('q'):24}"
          f"  H-weight: {wh.to_string('q')}")

print()
print(f"sum of G-weights: {g_total.to_string('q')}")
print(f"G(4,2) by determinant: {det_route('G', 4, 2).to_string('q')}")
print(f"sum of H-weights: {h_total.to_string('q')}")
print(f"H(4,2) by determinant: {det_route('H', 4, 2).to_string('q')}")
