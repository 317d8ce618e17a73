import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from formheat.assembly import CoefficientSet, build_pencil
from formheat.geometry import Mesh, Points, Polyline
from formheat.model_problems import standard_fixture_mesh, unit_square_mesh
from formheat.weights import WeightSpec


def ramp_half(points):
    """Surface coefficient vanishing on the left half of a unit edge."""
    import numpy as np
    return np.maximum(2.0 * points[:, 0] - 1.0, 0.0)


def form_fixture_coefficients():
    """The four coefficient scenarios exercised by the form checks:
    nondegenerate, surface-degenerate, bulk-degenerate away from the
    dynamic surfaces (case A), and at the interface (case B)."""
    return [
        ("nondegenerate", CoefficientSet()),
        ("surface-degenerate", CoefficientSet(mu_sigma=ramp_half)),
        ("bulk-case-A", CoefficientSet(
            bulk_weight=WeightSpec(Points((0.5, 0.25)), 1.0))),
        ("bulk-case-B", CoefficientSet(
            bulk_weight=WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5))),
    ]


def jittered_mesh(mesh, seed, amount=0.2):
    """Copy of ``mesh`` whose vertices off the boundary and the interface
    move by at most ``amount`` times the shortest edge, with all labels
    and regions kept; seeded, so the mesh is the same on every run."""
    import numpy as np
    rng = np.random.default_rng(seed)
    fixed = np.zeros(mesh.num_vertices, dtype=bool)
    fixed[mesh.boundary_edges.ravel()] = True
    fixed[mesh.interface_edges.ravel()] = True
    tri = mesh.triangles
    edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    h = mesh.edge_lengths(edges).min()
    radius = amount * h * rng.uniform(0.0, 1.0, mesh.num_vertices)
    angle = rng.uniform(0.0, 2.0 * np.pi, mesh.num_vertices)
    shift = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    shift[fixed] = 0.0
    return Mesh(mesh.vertices + shift, tri, mesh.boundary_edges,
                mesh.boundary_labels, mesh.interface_edges, mesh.tri_regions)


@pytest.fixture(scope="session")
def std_mesh_8():
    return standard_fixture_mesh(8)


@pytest.fixture(scope="session")
def std_pencil_8(std_mesh_8):
    return build_pencil(std_mesh_8, CoefficientSet())


@pytest.fixture(scope="session")
def conserving_mesh_8():
    """No Dirichlet part: dynamic top, Neumann elsewhere, interface."""
    return unit_square_mesh(8, bottom="neumann", top="dynamic",
                            interface_y=0.5)


@pytest.fixture(scope="session")
def conserving_pencil_8(conserving_mesh_8):
    return build_pencil(conserving_mesh_8, CoefficientSet())


def pencil_reference_coefficients():
    """Seven coefficient sets that together reach every branch of the
    pencil assembly: constant, scalar with relaxation != 1, matrix,
    segment and point weights (with callable surface and relaxation
    coefficients), a callable bulk coefficient, and per-region entries
    with a vanishing interface coefficient."""
    import numpy as np
    return {
        "default": CoefficientSet(),
        "scalar": CoefficientSet(2.5, 0.7, 1.3, zeta_bulk=1.5, zeta_gd=0.5,
                                 zeta_sigma=2.0),
        "matrix": CoefficientSet([[2.0, 0.3], [0.3, 1.0]],
                                 [[1.0, 0.2], [0.2, 3.0]], 0.4),
        "segment": CoefficientSet(
            bulk_weight=WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5),
            zeta_bulk=2.0, mu_gd=lambda p: 1.0 + p[:, 0]),
        "point": CoefficientSet(
            3.0, bulk_weight=WeightSpec(Points((0.5, 0.25)), 1.0),
            zeta_sigma=lambda p: 1.0 + p[:, 0] ** 2),
        "callable": CoefficientSet(lambda p: 1.0 + p[:, 0] * p[:, 1],
                                   zeta_bulk=lambda p: 2.0 + p[:, 1]),
        "regions": CoefficientSet({0: 1.0, 1: np.array([[2.0, 0.5],
                                                        [0.5, 1.5]])},
                                  mu_sigma=0.0),
    }
