"""Recovering the conormal flux jump across the interface.

The interface equation is driven by the jump of the conormal flux
nu . mu grad u across the interface.  The solver recovers it
variationally: the bulk residual of each interface hat function equals
the integral of the conormal outflow sum against that hat, and
normalizing with the interface mass matrix gives nodal jump values.

Two experiments: a piecewise-linear steady "tent" whose jump is exactly
2, and a globally smooth profile whose recovered jump is pure
discretization error and vanishes under refinement.
"""

import numpy as np

from formheat import (BlockField, CoefficientSet, ManufacturedSolution,
                      build_pencil, recover_interface_flux,
                      standard_fixture_mesh, unit_square_mesh)

print(__doc__)

# -- steady tent: u = y below the interface, 1 - y above -----------------------

mesh = unit_square_mesh(16, bottom="dirichlet", top="dirichlet",
                        interface_y=0.5)
pencil = build_pencil(mesh, CoefficientSet())
verts = mesh.vertices[pencil.dofmap.free_vertices]
tent = np.minimum(verts[:, 1], 1.0 - verts[:, 1])
jump = recover_interface_flux(pencil, tent)
print("tent profile: recovered jump at the interface nodes")
print(f"  values in [{jump.min():.12f}, {jump.max():.12f}]  (exact: 2)")

# -- smooth profile: the jump is consistency error, O(h) ------------------------

ms = ManufacturedSolution()
print("\nsmooth profile: recovered jump under refinement (expect ~1/2 per step)")
print(f"{'n':>4} {'max |jump|':>14} {'ratio':>8}")
prev = None
for n in (8, 16, 32, 64):
    mesh = standard_fixture_mesh(n)
    pencil = build_pencil(mesh, CoefficientSet())
    verts = mesh.vertices[pencil.dofmap.free_vertices]
    u = ms.u(verts, 0.0)
    f = BlockField.from_functions(
        mesh, pencil.dofmap,
        f_bulk=lambda p: ms.f_bulk(p, 0.0) + ms.u(p, 0.0))
    worst = np.abs(recover_interface_flux(pencil, u, f)).max()
    ratio = "" if prev is None else f"{worst / prev:8.3f}"
    print(f"{n:>4} {worst:>14.6e} {ratio:>8}")
    prev = worst
