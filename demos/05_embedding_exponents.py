"""Integrability exponents: how degeneracy and surface diffusion interact.

For each scenario the catalogue records up to which integrability
exponent r the solution and its traces stay controlled, and the
resulting sup-norm embedding threshold for fractional powers.  Bulk
degeneracy (gamma > 0) lowers the exponents; surface diffusion raises
them back.  The trace-norm probe shows the discrete counterpart: with
gamma = 0.5 the interface trace norm stays bounded under refinement,
with gamma = 1.5 (outside the admissible range) it visibly grows.
"""

from fractions import Fraction

from formheat import (CoefficientSet, Polyline, WeightSpec, build_pencil,
                      embedding_exponents, standard_fixture_mesh,
                      trace_norm_probe)

print(__doc__)

scenarios = [
    ("d=2, nondegenerate", dict(d=2, gamma=0)),
    ("d=3, nondegenerate", dict(d=3, gamma=0)),
    ("d=3, nondegenerate + uniform surface diffusion",
     dict(d=3, gamma=0, surface_uniformly_positive=True)),
    ("d=3, gamma=0.5 away from surfaces (case A)",
     dict(d=3, gamma=0.5, case="A")),
    ("d=3, gamma=0.5 at the surfaces (case B)",
     dict(d=3, gamma=0.5, case="B")),
    ("d=3, gamma=0.5 case B + surface diffusion near the contact set",
     dict(d=3, gamma=0.5, case="B", surface_positive_near_s=True)),
    ("d=4, gamma=0.9 case B", dict(d=4, gamma=0.9, case="B")),
]

print(f"{'scenario':<58} {'r0':>6} {'theta threshold at p=4':>24}")
for label, kwargs in scenarios:
    rep = embedding_exponents(**kwargs)
    r0 = "+inf" if rep.r0 == float("inf") else str(Fraction(rep.r0))
    thr = rep.theta_threshold(4)
    print(f"{label:<58} {r0:>6} {str(Fraction(thr)):>24}")

print("\nCSV rows (d,gamma,case,r_omega,r_tr,r_tr_gamma,r_tr_star,r0):")
for label, kwargs in scenarios[:5]:
    print(" ", embedding_exponents(**kwargs).csv_row())

# -- discrete trace-norm witness ---------------------------------------------------

print("\ndiscrete interface trace norm vs weighted bulk norm "
      "(sup over the P1 space):")
for gamma in (0.5, 1.5):
    weight = WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), gamma)
    sups = [trace_norm_probe(build_pencil(standard_fixture_mesh(n),
                                          CoefficientSet(bulk_weight=weight)),
                             n_samples=40).sup_ratio
            for n in (8, 16, 32)]
    trend = " -> ".join(f"{s:.4f}" for s in sups)
    note = "bounded (inside theory)" if gamma < 1 else \
        "growing (outside theory, reported without claim)"
    print(f"  gamma = {gamma}: {trend}   {note}")
