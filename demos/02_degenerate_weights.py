"""Distance-power weights: exact cell integrals and dyadic lower bounds.

The bulk diffusion coefficient may degenerate like dist(x, S)^gamma
toward a point (codimension 2) or a polyline (codimension 1).  Two
things make such a weight usable in the solver: its cell integrals must
be computed accurately despite the singularity, and its normalized
dyadic-cube volumes

    2^(l (d + gamma)) * integral over Q(2^-l m, 2^-l) of dist^gamma

must stay bounded away from zero uniformly in the level l.  This script
shows both, plus the case classification that decides whether the
degeneracy touches the dynamic surfaces.
"""

import numpy as np

from formheat import (CoefficientSet, DyadicCube, Points, Polyline,
                      WeightSpec, classify_case,
                      muckenhoupt_lower_bound_scan, standard_fixture_mesh,
                      weighted_cell_integral)

print(__doc__)

# -- exact integrals over the centered unit cube -------------------------------

seg = WeightSpec(Polyline([(-2.0, 0.0), (2.0, 0.0)]), 0.5)
val = weighted_cell_integral(seg, DyadicCube(0, 0, 0))
print("segment target, gamma = 1/2, unit cube:")
print(f"  computed {val:.15f}   closed form sqrt(2)/3 = {np.sqrt(2)/3:.15f}")

pt = WeightSpec(Points((0.0, 0.0)), 1.0)
val = weighted_cell_integral(pt, DyadicCube(0, 0, 0))
closed = (np.sqrt(2) + np.log(1 + np.sqrt(2))) / 6
print("point target, gamma = 1, unit cube:")
print(f"  computed {val:.15f}   closed form            = {closed:.15f}")

# -- scaling: the integral over Q(c, r) behaves like r^(d + gamma) -------------

print("\nscaling of the weighted volume under cube halving (expect "
      f"2^-(2+0.5) = {2.0**-2.5:.6f}):")
r = 1.0
prev = None
for _ in range(5):
    half = r / 2
    poly = np.array([[-half, -half], [half, -half], [half, half],
                     [-half, half]])
    v = weighted_cell_integral(seg, poly)
    if prev is not None:
        print(f"  r = {r:<8g} ratio = {v / prev:.8f}")
    prev, r = v, half

# -- dyadic scans ----------------------------------------------------------------

for w, label in ((pt, "point, gamma = 1"), (WeightSpec(
        Polyline([(-1.0, 0.0), (1.0, 0.0)]), 0.5), "segment, gamma = 1/2")):
    result = muckenhoupt_lower_bound_scan(w, 6, (-1, -1, 1, 1))
    print(f"\ndyadic scan ({label}): observed infimum {result.c_min:.6f} at "
          f"level {result.argmin_cube.level}, m = "
          f"({result.argmin_cube.mx}, {result.argmin_cube.my})")
    print("  level   min(all cubes)   min(on-set cubes)")
    for stats in result.level_stats:
        on_s = stats["min_on_s"]
        print(f"  {stats['level']:>5}   {stats['min']:>14.8f}   "
              f"{'-' if on_s is None else f'{on_s:>17.8f}'}")

# -- case classification -----------------------------------------------------------

mesh = standard_fixture_mesh(8)
print("\ncase classification on the standard fixture "
      "(interface at y = 1/2, dynamic top):")
for w, label in (
        (WeightSpec(Points((0.5, 0.25)), 1.0), "point at (0.5, 0.25)"),
        (WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5),
         "the interface line, gamma = 0.5"),
        (WeightSpec(Points((0.5, 0.25)), 0.0), "gamma = 0")):
    print(f"  {label:<35} -> {classify_case(w, mesh)}")
print("\nweight values along a vertical probe through the interface:")
w = WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5)
ys = np.array([0.5, 0.51, 0.6, 0.75, 1.0])
pts = np.stack([np.full_like(ys, 0.3), ys], axis=1)
print("  y:      ", "  ".join(f"{y:7.3f}" for y in ys))
print("  weight: ", "  ".join(f"{v:7.4f}" for v in w.eval(pts)))
