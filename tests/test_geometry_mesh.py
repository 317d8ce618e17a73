import numpy as np
import pytest

from formheat.errors import MeshFormatError, MeshInvariantError
from formheat.geometry import (Mesh, Points, Polyline,
                               distance_to_submanifold, load_mesh,
                               refine_uniform, save_mesh)
from formheat.geometry import distance
from formheat.geometry.distance import set_polygon_distance
from formheat.model_problems import standard_fixture_mesh, unit_square_mesh

UNIT_SQUARE_TEXT = """\
# smallest valid square mesh
4 2 4 0
0 0
1 0
1 1
0 1
0 1 2 0
0 2 3 0
0 1 dirichlet
1 2 dirichlet
2 3 dirichlet
3 0 dirichlet
"""

# 3x3 vertex grid, 8 triangles, horizontal interface at y = 1/2
INTERFACE_SQUARE_TEXT = """\
9 8 8 2
0 0
0.5 0
1 0
0 0.5
0.5 0.5
1 0.5
0 1
0.5 1
1 1
0 1 4 0
0 4 3 0
1 2 5 0
1 5 4 0
3 4 7 1
3 7 6 1
4 5 8 1
4 8 7 1
0 1 dirichlet
1 2 dirichlet
6 7 dynamic
7 8 dynamic
0 3 neumann
3 6 neumann
2 5 neumann
5 8 neumann
3 4
4 5
"""


def test_load_unit_square(tmp_path):
    path = tmp_path / "square.mesh"
    path.write_text(UNIT_SQUARE_TEXT)
    mesh = load_mesh(path)
    assert mesh.num_triangles == 2
    dir_edges = mesh.boundary_edges_with_label("dirichlet")
    assert len(dir_edges) == 4
    total = sum(mesh.edge_length(*mesh.boundary_edges[k]) for k in dir_edges)
    assert total == pytest.approx(4.0, abs=1e-15)


def test_load_bad_vertex_index(tmp_path):
    bad = UNIT_SQUARE_TEXT.replace("3 0 dirichlet", "99 0 dirichlet")
    path = tmp_path / "bad.mesh"
    path.write_text(bad)
    with pytest.raises(MeshFormatError, match="vertex index out of range"):
        load_mesh(path)


def test_load_interface_square_adjacency(tmp_path):
    path = tmp_path / "iface.mesh"
    path.write_text(INTERFACE_SQUARE_TEXT)
    mesh = load_mesh(path)
    assert mesh.num_triangles == 8
    assert len(mesh.interface_edges) == 2
    # brute-force adjacency: count triangles sharing both edge endpoints
    for i, j in mesh.interface_edges:
        count = sum(1 for tri in mesh.triangles
                    if i in tri and j in tri)
        assert count == 2


def test_labels_must_cover_boundary():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    tris = [(0, 1, 2), (0, 2, 3)]
    edges = [(0, 1), (1, 2), (2, 3)]  # missing (3, 0)
    with pytest.raises(MeshInvariantError, match="cover the topological"):
        Mesh(verts, tris, edges, ["dirichlet"] * 3)


def test_degenerate_triangle_rejected():
    verts = [(0, 0), (1, 0), (2, 0), (0, 1)]
    tris = [(0, 1, 2), (0, 2, 3)]  # first is collinear
    with pytest.raises(MeshInvariantError, match="degenerate"):
        Mesh(verts, tris, [(0, 1), (1, 2), (2, 3), (3, 0)],
             ["neumann"] * 4)


def test_interface_needs_two_triangles():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    tris = [(0, 1, 2), (0, 2, 3)]
    with pytest.raises(MeshInvariantError, match="exactly two"):
        Mesh(verts, tris, [(0, 1), (1, 2), (2, 3), (3, 0)],
             ["neumann"] * 4, interface_edges=[(1, 3)])


def test_mesh_conformity_area_identity():
    # sum of triangle areas equals the boundary polygon area
    for mesh in (standard_fixture_mesh(6),
                 refine_uniform(standard_fixture_mesh(6))):
        area = mesh.triangle_areas().sum()
        loop = mesh.boundary_loop_area()
        assert abs(area - loop) <= 1e-12 * abs(loop)

    # also on a perturbed (non-structured) mesh
    mesh = unit_square_mesh(5)
    rng = np.random.default_rng(7)
    verts = mesh.vertices.copy()
    interior = [v for v in range(mesh.num_vertices)
                if not (verts[v] == 0).any() and not (verts[v] == 1).any()]
    verts[interior] += rng.uniform(-0.04, 0.04, size=(len(interior), 2))
    bumpy = Mesh(verts, mesh.triangles, mesh.boundary_edges,
                 mesh.boundary_labels)
    area = bumpy.triangle_areas().sum()
    loop = bumpy.boundary_loop_area()
    assert abs(area - loop) <= 1e-12 * abs(loop)


def test_save_load_roundtrip(tmp_path):
    mesh = standard_fixture_mesh(4)
    path = tmp_path / "rt.mesh"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.allclose(back.vertices, mesh.vertices)
    assert back.boundary_labels == mesh.boundary_labels
    assert np.array_equal(back.interface_edges, mesh.interface_edges)
    assert np.array_equal(back.tri_regions, mesh.tri_regions)


def test_refine_uniform_preserves_structure():
    mesh = standard_fixture_mesh(4)
    fine = refine_uniform(mesh)
    assert fine.num_triangles == 4 * mesh.num_triangles
    assert len(fine.interface_edges) == 2 * len(mesh.interface_edges)
    assert fine.triangle_areas().sum() == pytest.approx(1.0, rel=1e-14)
    # labels inherited edge by edge
    assert sorted(set(fine.boundary_labels)) == sorted(set(mesh.boundary_labels))
    # interface orientation is preserved (+x tangent, upward normal)
    for k in range(len(fine.interface_edges)):
        assert fine.interface_normal(k) @ np.array([0.0, 1.0]) > 0.99


def test_interface_sides_orientation():
    mesh = standard_fixture_mesh(4)
    minus, plus = mesh.interface_sides(0)
    c_minus = mesh.vertices[mesh.triangles[minus]].mean(axis=0)
    c_plus = mesh.vertices[mesh.triangles[plus]].mean(axis=0)
    assert c_minus[1] < 0.5 < c_plus[1]


def test_distance_to_submanifold_examples():
    assert distance_to_submanifold(Points((0.0, 0.0)), (3.0, 4.0)) == pytest.approx(5.0)
    seg = Polyline([(0.0, 0.0), (1.0, 0.0)])
    assert distance_to_submanifold(seg, (0.5, 0.2)) == pytest.approx(0.2)
    assert distance_to_submanifold(seg, (2.0, 1.0)) == pytest.approx(np.sqrt(2.0))


def _box(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


@pytest.mark.parametrize("target, boxes, expected", [
    # a point inside, off a corner (3-4-5), off an edge
    (Points((0.0, 0.0)),
     [_box(-1, -1, 1, 1), _box(3, 4, 4, 5), _box(2, -1, 3, 1)],
     [0.0, 5.0, 2.0]),
    # a two-point set: the nearer point counts, one point inside gives 0
    (Points([(0.0, 0.0), (10.0, 0.0)]),
     [_box(3, 4, 4, 5), _box(6, 3, 7, 4), _box(9, -1, 11, 1)],
     [5.0, np.sqrt(18.0), 0.0]),
    # a segment crossing a box with both endpoints outside, parallel to an
    # edge at offset 1, and beyond its end
    (Polyline([(-1.0, 0.5), (2.0, 0.5)]),
     [_box(0, 0, 1, 1), _box(0, 1.5, 1, 2.5), _box(3, 0, 4, 1)],
     [0.0, 1.0, 1.0]),
    # an oblique segment touching a corner, and nearest a box corner
    (Polyline([(0.0, 0.0), (2.0, 2.0)]),
     [_box(1, 0, 2, 1), _box(2, 0, 3, 1)],
     [0.0, np.sqrt(0.5)]),
    # a polyline whose middle vertex is nearest an edge
    (Polyline([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]),
     [_box(0.8, 1.5, 1.2, 2.0)],
     [0.5]),
], ids=["point", "two-points", "segment", "oblique", "polyline"])
def test_set_polygon_distance_examples(target, boxes, expected):
    dist = set_polygon_distance(target, np.array(boxes, dtype=float))
    assert dist.shape == (len(boxes),)
    np.testing.assert_array_equal(dist, expected)


def test_set_polygon_distance_in_blocks(monkeypatch):
    # a stack split into blocks gives the values of one pass
    rng = np.random.default_rng(3)
    boxes = rng.uniform(-2, 2, (50, 1, 2)) + np.array(_box(0, 0, 0.3, 0.3))
    target = Polyline([(-1.0, -0.5), (0.2, 0.4), (1.5, -1.0)])
    whole = set_polygon_distance(target, boxes)
    monkeypatch.setattr(distance, "_BLOCK", 40)     # 3 boxes per block
    np.testing.assert_array_equal(set_polygon_distance(target, boxes), whole)


def test_boundary_outward_normals():
    mesh = unit_square_mesh(2)
    for k, (i, j) in enumerate(mesh.boundary_edges):
        n = mesh.boundary_outward_normal(k)
        mid = 0.5 * (mesh.vertices[i] + mesh.vertices[j])
        # outward means pointing away from the square center
        assert np.dot(n, mid - np.array([0.5, 0.5])) > 0
