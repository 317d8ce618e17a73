"""Coupled bulk-surface parabolic solver and analysis toolkit.

A desk-scale finite element package for scalar heat flow with mixed
Dirichlet/Neumann/dynamic boundary conditions, dynamic interface
conditions with surface diffusion on Lipschitz polylines, and bulk
diffusion that may degenerate like a distance power toward a lower
dimensional set.  Alongside the solver it ships the diagnostic tooling
used to check the structural properties of the discrete operator:
contractivity, positivity, conservation, dyadic weight bounds, spectral
quantities, and integrability-exponent bookkeeping.
"""

__version__ = "0.1.0"

from .geometry import (Mesh, load_mesh, save_mesh, refine_uniform,
                       SurfaceChart, chart_metric, transition, rotation,
                       SurfaceMesh, surface_gradient_p1,
                       Points, Polyline, distance_to_submanifold)
from .weights import (WeightSpec, DyadicCube, weighted_cell_integral,
                      muckenhoupt_lower_bound_scan, classify_case)
from .assembly import (CoefficientSet, DofMap, BlockField, DiscreteOperator,
                       build_dofmap, build_pencil, assemble_trace_map,
                       project_initial_data, validate_envelopes)
from .evolution import (TimeSteppingConfig, EvolutionReport, ThetaStepper,
                        theta_step, evolve, steady_solve,
                        recover_interface_flux)
from .spectral import (EmbeddingReport, embedding_exponents, generalized_eigs,
                       numerical_range_check, fractional_power_apply,
                       fractional_embedding_probe, trace_norm_probe,
                       j_ellipticity_constant, count_eigenvalues_below,
                       probe_trend)
from .model_problems import (unit_square_mesh, standard_fixture_mesh,
                             ManufacturedSolution, block_l2_error,
                             nodal_full_vector)

__all__ = [
    "__version__",
    "Mesh", "load_mesh", "save_mesh", "refine_uniform",
    "SurfaceChart", "chart_metric", "transition", "rotation",
    "SurfaceMesh", "surface_gradient_p1",
    "Points", "Polyline", "distance_to_submanifold",
    "WeightSpec", "DyadicCube", "weighted_cell_integral",
    "muckenhoupt_lower_bound_scan", "classify_case",
    "CoefficientSet", "DofMap", "BlockField", "DiscreteOperator",
    "build_dofmap", "build_pencil", "assemble_trace_map",
    "project_initial_data", "validate_envelopes",
    "TimeSteppingConfig", "EvolutionReport", "ThetaStepper", "theta_step",
    "evolve", "steady_solve", "recover_interface_flux",
    "EmbeddingReport", "embedding_exponents", "generalized_eigs",
    "numerical_range_check", "fractional_power_apply",
    "fractional_embedding_probe", "trace_norm_probe",
    "j_ellipticity_constant", "count_eigenvalues_below", "probe_trend",
    "unit_square_mesh", "standard_fixture_mesh", "ManufacturedSolution",
    "block_l2_error", "nodal_full_vector",
]
