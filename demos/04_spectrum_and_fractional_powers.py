"""Spectrum, numerical range, and fractional powers of the pencil.

The discrete operator is the pencil T u = lambda Mt u with the
trace-weighted block mass Mt.  Its structural properties mirror the
continuous theory: a nonnegative real spectrum accumulating only at
infinity, a numerical range inside a sector of the right half plane
even for non-symmetric diffusion, and well-behaved fractional powers.
"""

import numpy as np

from formheat import (CoefficientSet, build_pencil, count_eigenvalues_below,
                      fractional_embedding_probe, fractional_power_apply,
                      generalized_eigs, numerical_range_check, probe_trend,
                      refine_uniform, standard_fixture_mesh,
                      unit_square_mesh)

print(__doc__)

# -- Dirichlet ground state converges to 2 pi^2 ---------------------------------

target = 2 * np.pi ** 2
print(f"full-Dirichlet unit square, ground eigenvalue (target 2 pi^2 = "
      f"{target:.6f}):")
for n in (4, 8, 16, 32):
    mesh = unit_square_mesh(n, bottom="dirichlet", top="dirichlet",
                            left="dirichlet", right="dirichlet")
    lam = generalized_eigs(build_pencil(mesh, CoefficientSet()), 1)[0][0]
    print(f"  n = {n:>3}: lambda_1 = {lam:.6f}  (+{100*(lam/target-1):.3f}%)")

# -- compact resolvent witness: eigenvalue counts grow with refinement ----------

mesh = unit_square_mesh(4, bottom="dirichlet", top="dynamic",
                        interface_y=0.5)
counts = []
for _ in range(3):
    counts.append(count_eigenvalues_below(build_pencil(mesh, CoefficientSet()),
                                          200.0))
    mesh = refine_uniform(mesh)
print(f"\neigenvalues below 200 across refinements: {counts} (growing)")

# -- numerical range of a non-symmetric coefficient ------------------------------

pencil = build_pencil(standard_fixture_mesh(8), CoefficientSet(
    mu_bulk=np.array([[1.0, 0.5], [-0.5, 1.0]])))
report = numerical_range_check(pencil, samples=5000, seed=0)
print(f"\nnumerical range with skew part 0.5: min Re = {report.min_real:.3e}, "
      f"max |Im|/Re = {report.max_tangent:.4f} (bound 0.5)")

# -- fractional powers by spectral calculus --------------------------------------

pencil = build_pencil(unit_square_mesh(8, bottom="neumann", top="dynamic"),
                      CoefficientSet())
rng = np.random.default_rng(2)
u = rng.standard_normal(pencil.n_free)
half_twice = fractional_power_apply(pencil, 0.5,
                                    fractional_power_apply(pencil, 0.5, u))
once = fractional_power_apply(pencil, 1.0, u)
gap = np.linalg.norm(half_twice - once) / np.linalg.norm(once)
print(f"\n(I + Mt^-1 T)^(1/2) applied twice vs exponent 1: relative gap "
      f"{gap:.2e}")

# -- sup-norm embedding probe -----------------------------------------------------

print("\nsup-norm probe ||u||_inf / ||(I + Mt^-1 T)^theta u||_2 across "
      "refinements (d = 2 threshold: theta > 1/p = 1/2):")
pencils = []
mesh = unit_square_mesh(4, bottom="neumann", top="dynamic")
for _ in range(4):
    pencils.append(build_pencil(mesh, CoefficientSet()))
    mesh = refine_uniform(mesh)
for theta in (1.0, 0.9, 0.05):
    rows = fractional_embedding_probe(pencils, theta, 2)
    trend = " -> ".join(f"{r.ratio:.2f}" for r in rows)
    print(f"  theta = {theta:<5}: {trend}   ({probe_trend(rows)})")
