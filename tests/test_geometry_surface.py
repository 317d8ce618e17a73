import numpy as np
import pytest

from formheat.errors import DegenerateGeometryError
from formheat.geometry import Mesh, SurfaceMesh, surface_gradient_p1
from formheat.model_problems import standard_fixture_mesh, unit_square_mesh


def single_edge_surface(p0, p1):
    """Tiny two-triangle mesh whose dynamic boundary is the edge p0-p1."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    nrm = np.array([-(p1 - p0)[1], (p1 - p0)[0]])
    apex = 0.5 * (p0 + p1) + nrm
    verts = [p0, p1, apex]
    mesh = Mesh(verts, [(0, 1, 2)], [(0, 1), (1, 2), (2, 0)],
                ["dynamic", "neumann", "neumann"])
    return SurfaceMesh.from_mesh(mesh, "dynamic")


def test_surface_gradient_horizontal_edge():
    smesh = single_edge_surface((0, 0), (1, 0))
    vals = np.zeros(smesh.num_nodes)
    vals[smesh.local_index(0)] = 0.0
    vals[smesh.local_index(1)] = 1.0
    grad = surface_gradient_p1(smesh, vals, 0)
    assert np.allclose(grad, [1.0, 0.0], atol=1e-14)


def test_surface_gradient_diagonal_edge():
    smesh = single_edge_surface((0, 0), (1, 1))
    # values of u(x, y) = x at the endpoints
    vals = np.zeros(smesh.num_nodes)
    vals[smesh.local_index(0)] = 0.0
    vals[smesh.local_index(1)] = 1.0
    grad = surface_gradient_p1(smesh, vals, 0)
    assert np.allclose(grad, [0.5, 0.5], atol=1e-14)


def test_surface_gradient_constant():
    smesh = single_edge_surface((0, 0), (2, 0))
    vals = np.full(smesh.num_nodes, 3.0)
    grad = surface_gradient_p1(smesh, vals, 0)
    assert np.allclose(grad, [0.0, 0.0])


def test_zero_length_edge_rejected():
    verts = [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0)]
    mesh = Mesh.__new__(Mesh)  # bypass validation to reach the surface check
    mesh.vertices = np.asarray(verts, dtype=float)
    with pytest.raises(DegenerateGeometryError):
        SurfaceMesh(mesh, [(0, 1)], "dynamic")


def test_tangency_of_surface_gradient():
    mesh = standard_fixture_mesh(4)
    smesh = SurfaceMesh.from_mesh(mesh, "interface")
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(smesh.num_nodes)
    for e in range(len(smesh.edges)):
        grad = surface_gradient_p1(smesh, vals, e)
        tangent = smesh.tangents[e]
        normal = np.array([-tangent[1], tangent[0]])
        assert abs(grad @ normal) <= 1e-14 * max(1.0, np.linalg.norm(grad))


def test_surface_nodes_and_length():
    mesh = standard_fixture_mesh(6)
    sig = SurfaceMesh.from_mesh(mesh, "interface")
    # nodes are exactly the vertices incident to interface edges
    expected = sorted({int(v) for e in mesh.interface_edges for v in e})
    assert list(sig.node_vertices) == expected
    assert sig.total_length() == pytest.approx(1.0, rel=1e-14)

    gd = SurfaceMesh.from_mesh(mesh, "dynamic")
    assert gd.total_length() == pytest.approx(1.0, rel=1e-14)
    assert len(gd.chains) == 1
    # arc coordinates are monotone along the chain
    arcs = [gd.arc_coords[v] for v in gd.chains[0]]
    assert all(b > a for a, b in zip(arcs, arcs[1:]))


def test_default_charts_cover_chain():
    mesh = standard_fixture_mesh(4)
    smesh = SurfaceMesh.from_mesh(mesh, "interface")
    charts = smesh.default_charts()
    assert charts
    for e in range(len(smesh.edges)):
        mid = smesh.edge_midpoint(e)
        assert any(_covers(chart, mid) for chart in charts)


def _covers(chart, x):
    try:
        chart.inverse(x)
        return True
    except ValueError:
        return False


def test_chain_chart_consistency():
    # per-edge surface gradients agree between the edge formula and the
    # chain chart formula
    mesh = standard_fixture_mesh(4)
    smesh = SurfaceMesh.from_mesh(mesh, "interface")
    chart = smesh.default_charts()[0]
    chain = smesh.chains[0]
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(smesh.num_nodes)
    chain_vals = np.array([vals[smesh.local_index(v)] for v in chain])
    for e in range(len(smesh.edges)):
        mid = smesh.edge_midpoint(e)
        y = chart.inverse(mid)
        via_chart = chart.p1_surface_gradient(chain_vals, y)
        direct = surface_gradient_p1(smesh, vals, e)
        assert np.linalg.norm(via_chart - direct) <= 1e-10 * max(
            1.0, np.linalg.norm(direct))


def test_multiple_chains():
    # two disjoint dynamic parts on opposite edges form two chains
    mesh = unit_square_mesh(4, bottom="dynamic", top="dynamic")
    smesh = SurfaceMesh.from_mesh(mesh, "dynamic")
    assert len(smesh.chains) == 2
    assert smesh.total_length() == pytest.approx(2.0, rel=1e-14)
