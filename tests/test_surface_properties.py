"""``SurfaceMesh`` builds its nodes, lengths and tangents in array passes
and its chains and arc coordinates on first read; every attribute equals
the vertex-by-vertex construction of ``oracles.surface_mesh_loop`` (the
arrays byte for byte), on fixture, jittered, rotated, multi-part, closed,
empty and Dirichlet-ended surfaces, and on arbitrary subsets of a
boundary loop, and both raise the same errors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import jittered_mesh
from oracles import surface_mesh_loop
from formheat.errors import DegenerateGeometryError, MeshInvariantError
from formheat.geometry import Mesh, SurfaceMesh
from formheat.geometry.mesh import DYNAMIC
from formheat.geometry.surface import INTERFACE
from formheat.model_problems import standard_fixture_mesh, unit_square_mesh

_ARRAYS = ("node_vertices", "edge_nodes", "edge_lengths", "tangents")


def _labeled_edges(mesh, label):
    """The edges ``SurfaceMesh.from_mesh`` collects, gathered one by one."""
    if label == INTERFACE:
        return [tuple(e) for e in mesh.interface_edges]
    return [tuple(e) for e, lab in zip(mesh.boundary_edges,
                                       mesh.boundary_labels)
            if lab == DYNAMIC]


def _mapped(mesh, angle, scale):
    """``mesh`` rotated by ``angle`` and scaled by ``scale`` along x."""
    c, s = np.cos(angle), np.sin(angle)
    affine = np.array([[scale * c, -s], [scale * s, c]])
    return Mesh(mesh.vertices @ affine.T, mesh.triangles, mesh.boundary_edges,
                mesh.boundary_labels, mesh.interface_edges, mesh.tri_regions)


_closed = {"bottom": DYNAMIC, "top": DYNAMIC, "left": DYNAMIC,
           "right": DYNAMIC}


@st.composite
def _surfaces(draw):
    """``(mesh, label, edges)``; ``edges`` is None for a labeled surface
    read through ``from_mesh``."""
    kind = draw(st.sampled_from(["fixture", "two-parts", "closed", "empty",
                                 "dirichlet-ends", "loop-subset"]))
    n = 2 * draw(st.integers(2, 8))     # the fixture needs an even n
    label = draw(st.sampled_from([DYNAMIC, INTERFACE]))
    edges = None
    if kind == "fixture":
        mesh = standard_fixture_mesh(n)
        seed = draw(st.one_of(st.none(), st.integers(0, 2 ** 16)))
        if seed is not None:
            mesh = jittered_mesh(mesh, seed)
    elif kind == "two-parts":
        mesh, label = unit_square_mesh(n, bottom=DYNAMIC, top=DYNAMIC), DYNAMIC
    elif kind == "closed":
        mesh, label = unit_square_mesh(n, **_closed), DYNAMIC
    elif kind == "empty":
        mesh = unit_square_mesh(n, top="neumann")
    elif kind == "dirichlet-ends":
        mesh = unit_square_mesh(n, left="dirichlet", right="dirichlet",
                                interface_y=draw(st.integers(1, n - 1)) / n)
    else:
        mesh, label = unit_square_mesh(n, **_closed), DYNAMIC
        loop = mesh.boundary_edges
        keep = draw(st.lists(st.booleans(), min_size=len(loop),
                             max_size=len(loop)))
        flip = draw(st.lists(st.booleans(), min_size=len(loop),
                             max_size=len(loop)))
        edges = [tuple(e[::-1]) if f else tuple(e)
                 for e, k, f in zip(loop, keep, flip) if k]
        edges = draw(st.permutations(edges))
    if draw(st.booleans()):
        mesh = _mapped(mesh, draw(st.floats(0.0, 2.0 * np.pi)),
                       draw(st.floats(0.25, 4.0)))
    return mesh, label, edges


def _assert_matches_loop(smesh, expected):
    for name in _ARRAYS:
        got, want = getattr(smesh, name), expected[name]
        assert (got.dtype, got.shape, got.tobytes()) == \
            (want.dtype, want.shape, want.tobytes()), name
    assert smesh.chains == expected["chains"]
    assert smesh.arc_coords == expected["arc_coords"]
    for vertex, node in expected["local"].items():
        assert smesh.local_index(vertex) == node


@settings(max_examples=120, deadline=None, derandomize=True)
@given(surface=_surfaces())
def test_surface_mesh_equals_the_loop_construction(surface):
    mesh, label, edges = surface
    if edges is None:
        smesh = SurfaceMesh.from_mesh(mesh, label)
        edges = _labeled_edges(mesh, label)
    else:
        smesh = SurfaceMesh(mesh, edges, label)
    expected = surface_mesh_loop(mesh, edges)
    _assert_matches_loop(smesh, expected)
    off_surface = sorted(set(range(mesh.num_vertices))
                         - set(expected["local"]))
    for vertex in off_surface[:1] + off_surface[-1:]:
        with pytest.raises(KeyError):
            smesh.local_index(vertex)


def test_chains_and_arc_coordinates_are_built_on_first_read():
    smesh = SurfaceMesh.from_mesh(standard_fixture_mesh(4), INTERFACE)
    assert "chains" not in vars(smesh) and "arc_coords" not in vars(smesh)
    arcs = smesh.arc_coords
    assert set(vars(smesh)) >= {"chains", "arc_coords"}
    assert smesh.chains is smesh.chains and smesh.arc_coords is arcs


def test_zero_length_edge_raises_as_the_loop_construction():
    mesh = Mesh.__new__(Mesh)  # bypass validation to reach the surface check
    mesh.vertices = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0)])
    for build in (lambda e: SurfaceMesh(mesh, e, DYNAMIC),
                  lambda e: surface_mesh_loop(mesh, e)):
        with pytest.raises(DegenerateGeometryError, match="zero-length"):
            build([(0, 1), (1, 2)])


def test_vertex_on_three_edges_raises_at_construction():
    mesh = unit_square_mesh(2)
    centre = 4                      # the middle vertex of the 3 x 3 grid
    edges = [(centre, 1), (centre, 3), (5, centre)]
    for build in (lambda e: SurfaceMesh(mesh, e, INTERFACE),
                  lambda e: surface_mesh_loop(mesh, e)):
        with pytest.raises(MeshInvariantError,
                           match="surface edges do not form simple polylines"):
            build(edges)
