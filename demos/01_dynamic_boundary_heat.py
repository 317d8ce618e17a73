"""Heat flow with a dynamic boundary and a dynamic interface.

The model domain is the unit square with a Dirichlet bottom edge,
Neumann sides, a dynamic top edge (the boundary temperature is itself a
time-dependent unknown with tangential diffusion), and a dynamic
interface on the horizontal midline.  This script runs two experiments:

1. a convergence study against a smooth manufactured solution with
   known forcing terms on all three components,
2. a free decay from random initial data, watching the invariant
   monitors (mass is not conserved here because the bottom edge is held
   at zero, but the weighted block norm must decay monotonically).
"""

import numpy as np

from formheat import (BlockField, CoefficientSet, ManufacturedSolution,
                      TimeSteppingConfig, block_l2_error, build_pencil,
                      evolve, standard_fixture_mesh)

print(__doc__)

# -- 1. manufactured convergence ----------------------------------------------

ms = ManufacturedSolution()
t_end = 0.2
print("convergence against the manufactured profile (theta = 1, dt ~ h^2):")
print(f"{'n':>4} {'dofs':>6} {'block L2 error':>16} {'rate':>6}")
prev = None
for n in (4, 8, 16, 32):
    mesh = standard_fixture_mesh(n)
    pencil = build_pencil(mesh, CoefficientSet())
    n_steps = int(round(t_end / (0.2 / n ** 2)))
    cfg = TimeSteppingConfig(dt=t_end / n_steps, t_end=t_end, theta=1.0)
    report = evolve(pencil, ms.initial(pencil), ms.forcing(pencil), cfg)
    err = block_l2_error(pencil, report.final_vector, ms.u, ms.u, ms.u,
                         t=t_end)
    rate = "" if prev is None else f"{np.log2(prev / err):6.3f}"
    print(f"{n:>4} {pencil.n_free:>6} {err:>16.6e} {rate:>6}")
    prev = err

# -- 2. free decay with monitors ----------------------------------------------

print("\nfree decay from random data (monitors at every 40th step):")
mesh = standard_fixture_mesh(16)
pencil = build_pencil(mesh, CoefficientSet())
rng = np.random.default_rng(1)
raw = BlockField(rng.uniform(0, 1, pencil.dofmap.n_free),
                 rng.uniform(0, 1, pencil.dofmap.n_gd),
                 rng.uniform(0, 1, pencil.dofmap.n_sigma))
cfg = TimeSteppingConfig(dt=0.005, t_end=1.0, theta=1.0)
report = evolve(pencil, raw, None, cfg)
print(f"{'time':>6} {'block norm':>12} {'sup norm':>10} {'min':>10}")
for k in range(0, len(report.times), 40):
    print(f"{report.times[k]:>6.2f} {np.sqrt(report.energy[k]):>12.6f} "
          f"{report.supnorm[k]:>10.6f} {report.minval[k]:>10.2e}")
drops = np.diff(np.sqrt(report.energy))
print(f"block norm monotone decay: {bool(np.all(drops <= 1e-12))}")
