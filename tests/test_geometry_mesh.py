import json

import numpy as np
import pytest

from formheat import cli
from formheat.errors import FormheatError, MeshFormatError, MeshInvariantError
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



def _edit(text, *pairs):
    """``text`` with each ``(old, new)`` line replacement made once."""
    for old, new in pairs:
        assert old in text, old
        text = text.replace(old, new, 1)
    return text


# Malformed files, one per rejection of the loader and the invariants,
# then a few with two faults in one section: (id, text, exception class,
# message, line).  UNIT_SQUARE_TEXT has its header on line 2, vertices on
# 3-6, triangles on 7-8 and boundary edges on 9-12; INTERFACE_SQUARE_TEXT
# has its header on line 1, vertices on 2-10, triangles on 11-18,
# boundary edges on 19-26 and interface edges on 27-28.
_LABELS = "('dirichlet', 'neumann', 'dynamic')"
ERROR_CORPUS = [
    ("empty", "# nothing here\n\n", MeshFormatError, "empty mesh file", None),
    ("header-fields", _edit(UNIT_SQUARE_TEXT, ("4 2 4 0", "4 2 4")),
     MeshFormatError, "expected 4 fields for header", 2),
    ("header-integer", _edit(UNIT_SQUARE_TEXT, ("4 2 4 0", "4 2 4 x")),
     MeshFormatError, "malformed integer in header", 2),
    ("header-negative", "3 -1 0 0\n0 0\n1 0\n",
     MeshFormatError, "negative count in header", 1),
    ("line-count", _edit(UNIT_SQUARE_TEXT, ("1 1\n", "")),
     MeshFormatError, "expected 11 data lines, found 10", 11),
    ("vertex-fields", _edit(UNIT_SQUARE_TEXT, ("1 0\n", "1\n")),
     MeshFormatError, "expected 'x y' vertex line", 4),
    ("vertex-number", _edit(UNIT_SQUARE_TEXT, ("1 0\n", "1 zero\n")),
     MeshFormatError, "malformed vertex coordinate", 4),
    ("vertex-nan", _edit(UNIT_SQUARE_TEXT, ("0 1\n", "nan 1\n")),
     MeshFormatError, "non-finite vertex coordinate", 6),
    ("triangle-fields", _edit(UNIT_SQUARE_TEXT, ("0 2 3 0", "0 2 3")),
     MeshFormatError, "expected 4 fields for triangle", 8),
    ("triangle-integer", _edit(UNIT_SQUARE_TEXT, ("0 2 3 0", "0 2 3 top")),
     MeshFormatError, "malformed integer in triangle", 8),
    ("triangle-index", _edit(UNIT_SQUARE_TEXT, ("0 2 3 0", "0 2 7 0")),
     MeshFormatError, "vertex index out of range: 7 of 4", 8),
    ("boundary-fields", _edit(UNIT_SQUARE_TEXT, ("1 2 dirichlet", "1 2")),
     MeshFormatError, "expected 'i j label' boundary edge line", 10),
    ("boundary-integer",
     _edit(UNIT_SQUARE_TEXT, ("1 2 dirichlet", "1 b dirichlet")),
     MeshFormatError, "malformed integer in boundary edge", 10),
    ("boundary-index",
     _edit(UNIT_SQUARE_TEXT, ("3 0 dirichlet", "99 0 dirichlet")),
     MeshFormatError, "vertex index out of range: 99 of 4", 12),
    ("boundary-label", _edit(UNIT_SQUARE_TEXT, ("2 3 dirichlet", "2 3 robin")),
     MeshFormatError, f"unknown boundary label 'robin' (expected one of "
     f"{_LABELS})", 11),
    ("interface-fields", _edit(INTERFACE_SQUARE_TEXT, ("4 5\n", "4\n")),
     MeshFormatError, "expected 2 fields for interface edge", 28),
    ("interface-integer", _edit(INTERFACE_SQUARE_TEXT, ("4 5\n", "4 five\n")),
     MeshFormatError, "malformed integer in interface edge", 28),
    ("interface-index", _edit(INTERFACE_SQUARE_TEXT, ("4 5\n", "4 -5\n")),
     MeshFormatError, "vertex index out of range: -5 of 9", 28),
    ("degenerate", _edit(UNIT_SQUARE_TEXT, ("1 1\n", "2 0\n")),
     MeshInvariantError, "degenerate triangle (area <= 0)", None),
    ("overlapping", _edit(UNIT_SQUARE_TEXT, ("4 2 4 0", "4 3 4 0"),
                          ("0 2 3 0\n", "0 2 3 0\n2 3 0 0\n")),
     MeshInvariantError, "duplicate directed edge (overlapping triangles)",
     None),
    ("boundary-twice", _edit(UNIT_SQUARE_TEXT, ("4 2 4 0", "4 2 5 0"),
                             ("3 0 dirichlet", "3 0 dirichlet\n0 3 neumann")),
     MeshInvariantError, "boundary edge listed twice", None),
    ("boundary-not-an-edge",
     _edit(UNIT_SQUARE_TEXT, ("3 0 dirichlet", "1 3 dirichlet")),
     MeshInvariantError, "boundary edge is not an edge of any triangle", None),
    ("boundary-interior",
     _edit(UNIT_SQUARE_TEXT, ("3 0 dirichlet", "2 0 dirichlet")),
     MeshInvariantError, "boundary edge belongs to more than one triangle",
     None),
    ("boundary-cover", _edit(UNIT_SQUARE_TEXT, ("4 2 4 0", "4 2 3 0"),
                             ("3 0 dirichlet\n", "")),
     MeshInvariantError,
     "boundary labels do not cover the topological boundary", None),
    ("interface-twice", _edit(INTERFACE_SQUARE_TEXT, ("9 8 8 2", "9 8 8 3"),
                              ("4 5\n", "4 5\n5 4\n")),
     MeshInvariantError, "interface edge listed twice", None),
    ("interface-on-boundary", _edit(INTERFACE_SQUARE_TEXT, ("4 5\n", "8 5\n")),
     MeshInvariantError, "edge labeled both boundary and interface", None),
    ("interface-not-interior",
     _edit(INTERFACE_SQUARE_TEXT, ("4 5\n", "4 6\n")),
     MeshInvariantError,
     "interface edge must be adjacent to exactly two triangles", None),
    ("interface-branch", _edit(INTERFACE_SQUARE_TEXT, ("9 8 8 2", "9 8 8 3"),
                               ("4 5\n", "4 5\n1 4\n")),
     MeshInvariantError, "interface edges do not form simple polylines",
     None),
    ("unused-vertex", _edit(UNIT_SQUARE_TEXT, ("4 2 4 0", "5 2 4 0"),
                            ("0 1\n", "0 1\n2 2\n")),
     MeshInvariantError, "vertex used by no triangle", None),
    # two faults in one section: the earlier line wins, and within one
    # line the field count, then the numbers, then the indices, then the
    # label
    ("two-vertex-lines", _edit(UNIT_SQUARE_TEXT, ("1 0\n", "1 x\n"),
                               ("0 1\n", "0\n")),
     MeshFormatError, "malformed vertex coordinate", 4),
    ("index-before-integer",
     _edit(UNIT_SQUARE_TEXT, ("0 1 2 0", "0 1 -2 0"), ("0 2 3 0", "0 2 3 r")),
     MeshFormatError, "vertex index out of range: -2 of 4", 7),
    ("integer-before-index",
     _edit(UNIT_SQUARE_TEXT, ("0 1 2 0", "0 1 2.0 0"), ("0 2 3 0", "0 2 9 0")),
     MeshFormatError, "malformed integer in triangle", 7),
    ("first-index-in-line", _edit(UNIT_SQUARE_TEXT, ("0 2 3 0", "0 8 9 0")),
     MeshFormatError, "vertex index out of range: 8 of 4", 8),
    ("index-before-label",
     _edit(UNIT_SQUARE_TEXT, ("1 2 dirichlet", "1 5 robin")),
     MeshFormatError, "vertex index out of range: 5 of 4", 10),
    ("label-before-index",
     _edit(UNIT_SQUARE_TEXT, ("1 2 dirichlet", "1 2 robin"),
           ("2 3 dirichlet", "2 6 dirichlet")),
     MeshFormatError, f"unknown boundary label 'robin' (expected one of "
     f"{_LABELS})", 10),
    ("integer-before-short",
     _edit(UNIT_SQUARE_TEXT, ("1 2 dirichlet", "1 z dirichlet"),
           ("2 3 dirichlet", "2 3")),
     MeshFormatError, "malformed integer in boundary edge", 10),
    ("short-before-integer",
     _edit(UNIT_SQUARE_TEXT, ("1 2 dirichlet", "1 2"),
           ("2 3 dirichlet", "2 z dirichlet")),
     MeshFormatError, "expected 'i j label' boundary edge line", 10),
    ("twice-before-not-an-edge",
     _edit(UNIT_SQUARE_TEXT, ("2 3 dirichlet", "1 0 dirichlet"),
           ("3 0 dirichlet", "1 3 dirichlet")),
     MeshInvariantError, "boundary edge listed twice", None),
    ("interface-on-boundary-twice",
     _edit(INTERFACE_SQUARE_TEXT, ("3 4\n", "0 1\n"), ("4 5\n", "1 0\n")),
     MeshInvariantError, "edge labeled both boundary and interface", None),
]


@pytest.mark.parametrize("text, kind, message, line",
                         [row[1:] for row in ERROR_CORPUS],
                         ids=[row[0] for row in ERROR_CORPUS])
def test_error_corpus(tmp_path, text, kind, message, line):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    with pytest.raises(FormheatError) as info:
        load_mesh(path)
    assert type(info.value) is kind
    prefix = "" if line is None else f"line {line}: "
    assert str(info.value) == prefix + message
    assert getattr(info.value, "line", None) == line


_SQUARE = ([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)],
           [(0, 1), (1, 2), (2, 3), (3, 0)], ["neumann"] * 4)

# Rejections only the constructor can meet, since the loader rejects the
# same input first: (id, changes to _SQUARE's arguments, message).
MESH_ERRORS = [
    ("triangle-index", {"triangles": [(0, 1, 2), (0, 2, 4)]},
     "triangle vertex index out of range"),
    ("boundary-index", {"boundary_edges": [(0, 1), (1, 2), (2, 3), (3, -1)]},
     "boundary edge vertex index out of range"),
    ("interface-index", {"interface_edges": [(0, 7)]},
     "interface edge vertex index out of range"),
    ("label-count", {"boundary_labels": ["neumann"] * 3},
     "boundary label count does not match edge count"),
    ("label", {"boundary_labels": ["neumann", "robin", "neumann", "wall"]},
     "unknown boundary label 'robin'"),
    ("non-finite", {"vertices": [(0, 0), (1, 0), (1, 1), (np.inf, 1)]},
     "non-finite vertex coordinate"),
    ("non-finite-before-area",
     {"vertices": [(0, 0), (1, 0), (2, 0), (np.nan, 1)]},
     "non-finite vertex coordinate"),
]


@pytest.mark.parametrize("changes, message", [row[1:] for row in MESH_ERRORS],
                         ids=[row[0] for row in MESH_ERRORS])
def test_mesh_constructor_errors(changes, message):
    verts, tris, edges, labels = _SQUARE
    kwargs = dict(vertices=verts, triangles=tris, boundary_edges=edges,
                  boundary_labels=labels)
    kwargs.update(changes)
    with pytest.raises(MeshInvariantError) as info:
        Mesh(**kwargs)
    assert str(info.value) == message


def test_mesh_leaves_the_callers_triangles_alone():
    verts, _, edges, labels = _SQUARE
    tris = np.array([(0, 2, 1), (0, 3, 2)])
    mesh = Mesh(verts, tris, edges, labels)
    assert tris.tolist() == [[0, 2, 1], [0, 3, 2]]
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]


# The rejections the loader gained, through the command line: exit 1, an
# error.json record, and a "mesh:" diagnostic from validate.
_NEW_REJECTIONS = {row[0]: row[1:] for row in ERROR_CORPUS
                   if row[0] in ("header-negative", "vertex-nan", "unused-vertex")}


@pytest.mark.parametrize("name", sorted(_NEW_REJECTIONS))
def test_new_rejections_through_cli(tmp_path, capsys, name):
    text, kind, message, line = _NEW_REJECTIONS[name]
    (tmp_path / "bad.mesh").write_text(text)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"pipeline = eigs\nmesh = bad.mesh\neigs.count = 2\n"
                   f"output = {tmp_path / 'out'}\n")
    assert cli.run(cfg) == 1
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["kind"] == kind.__name__
    assert record["error"].endswith(message)
    assert cli.main(["validate", str(cfg)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert [d for d in out if d.startswith("mesh:") and message in d], out


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


def test_comments_and_crlf_read_as_the_plain_file(tmp_path):
    # the same mesh with a trailing note on a vertex line, a comment line
    # after the data and CRLF line ends: the same arrays, and a bad line
    # reported at the same line number
    plain = tmp_path / "plain.mesh"
    save_mesh(standard_fixture_mesh(4), plain)
    lines = plain.read_text().splitlines()
    lines[1] += "  # note"
    noted = tmp_path / "noted.mesh"
    noted.write_bytes("\r\n".join(lines + ["# end of mesh", ""]).encode())
    a, b = load_mesh(plain), load_mesh(noted)
    for name in ("vertices", "triangles", "boundary_edges",
                 "interface_edges", "tri_regions"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.boundary_labels == b.boundary_labels
    bad = 1 + a.num_vertices + 3     # the third triangle line
    for path in (plain, noted):
        lines = path.read_bytes().decode().split("\n")
        lines[bad - 1] = lines[bad - 1].replace(" ", " x ", 1)
        path.write_bytes("\n".join(lines).encode())
        with pytest.raises(MeshFormatError) as info:
            load_mesh(path)
        assert info.value.line == bad
        assert str(info.value) == f"line {bad}: malformed integer in triangle"


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
