"""Property tests of the mesh layer over jittered, relabeled, reordered
and interface on/off meshes: refinement matches the element loop in
``oracles.refine_uniform_loop``, a saved mesh loads back exactly, and the
edge adjacency agrees with a brute-force search."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import jittered_mesh
from oracles import refine_uniform_loop
from formheat.geometry import Mesh, load_mesh, refine_uniform, save_mesh
from formheat.geometry.mesh import BOUNDARY_LABELS
from formheat.model_problems import unit_square_mesh

_label = st.sampled_from(BOUNDARY_LABELS)


@st.composite
def _meshes(draw):
    """A unit-square mesh, maybe refined, then jittered; its triangles
    shuffled, their vertices rotated or reversed, its edge ends swapped,
    its boundary edges relabeled and its triangles given regions."""
    n = draw(st.sampled_from([2, 4, 6]))
    mesh = unit_square_mesh(n, interface_y=0.5 if draw(st.booleans()) else None)
    if draw(st.booleans()):
        mesh = refine_uniform(mesh)
    seed = draw(st.integers(0, 2 ** 16))
    mesh = jittered_mesh(mesh, seed)
    rng = np.random.default_rng(seed)
    nt, nbe = mesh.num_triangles, len(mesh.boundary_edges)
    perm = rng.permutation(nt)
    tris = np.array([np.roll(t, k) for t, k in
                     zip(mesh.triangles[perm], rng.integers(0, 3, nt))])
    reverse = rng.random(nt) < 0.3
    tris[reverse] = tris[reverse][:, ::-1]
    bedges = mesh.boundary_edges.copy()
    swap = rng.random(nbe) < 0.5
    bedges[swap] = bedges[swap][:, ::-1]
    labels = draw(st.lists(_label, min_size=nbe, max_size=nbe))
    regions = rng.integers(0, 3, nt)
    return Mesh(mesh.vertices, tris, bedges, labels, mesh.interface_edges,
                regions)


def _assert_same(mesh, ref):
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    for name in ("triangles", "boundary_edges", "interface_edges",
                 "tri_regions", "_boundary_tri", "_interface_tris"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert mesh.boundary_labels == ref.boundary_labels


def _assert_adjacency(mesh):
    """Each listed edge's triangles, found by testing every triangle."""
    t = mesh.triangles

    def holding(i, j):
        return np.flatnonzero((t == i).any(axis=1) & (t == j).any(axis=1))

    for k, (i, j) in enumerate(mesh.boundary_edges):
        assert holding(i, j).tolist() == [mesh._boundary_tri[k]]
    for k, (i, j) in enumerate(mesh.interface_edges):
        assert holding(i, j).tolist() == mesh._interface_tris[k].tolist()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mesh=_meshes())
def test_refine_uniform_matches_the_loop(mesh):
    fine = refine_uniform(mesh)
    _assert_same(fine, refine_uniform_loop(mesh))
    _assert_adjacency(mesh)
    _assert_adjacency(fine)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mesh=_meshes())
def test_save_load_roundtrip_is_exact(mesh):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mesh.mesh"
        save_mesh(mesh, path)
        _assert_same(load_mesh(path), mesh)
