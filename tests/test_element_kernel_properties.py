"""Bit-for-bit checks of the array kernels of the weighted pencil against
their per-value and ``einsum`` forms in ``oracles``: the exact power
integrals (libm ``pow`` once per distinct value against once per
argument), the stiffness and weighted-mass element kernels, and the
scatter.  Every comparison is of ``int64`` views, so a sign of zero or a
last bit counts."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import jittered_mesh
from oracles import (linear_power_per_value, scatter_masked,
                     stiffness_einsum, weighted_masses_einsum)

from formheat import weights
from formheat.assembly import (_EDGE_RULE, _EDGE_TS, _TRIANGLE_RULE,
                               CoefficientSet, _cell_weights,
                               _coefficient_integrals, _edge_points,
                               _scatter, _stiffness, _surface_block_dofs,
                               _triangle_geometry, _weighted_masses,
                               build_dofmap)
from formheat.geometry import Mesh, Polyline
from formheat.geometry.mesh import DYNAMIC
from formheat.geometry.surface import INTERFACE, SurfaceMesh
from formheat.model_problems import unit_square_mesh
from formheat.weights import WeightSpec, weighted_cell_integral


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.int64)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _same_csr(a, b):
    return (_same_bits(a.data, b.data)
            and a.indices.dtype == b.indices.dtype
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.indptr, b.indptr))


_GAMMAS = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.5])
_coord = st.floats(-0.2, 1.2)


@st.composite
def _segment(draw):
    """An axis-parallel segment at a random height, or an oblique one."""
    if draw(st.booleans()):
        y = draw(st.floats(0.05, 0.95))
        return [(0.0, y), (1.0, y)]
    a = (draw(_coord), draw(_coord))
    b = (draw(_coord), draw(_coord))
    if np.hypot(b[0] - a[0], b[1] - a[1]) < 0.05:
        b = (a[0] + 0.5, a[1] + 0.3)
    return [a, b]


def _mesh(n, seed):
    return jittered_mesh(unit_square_mesh(n, interface_y=0.5), seed)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2 ** 16),
       segment=_segment(), gamma=_GAMMAS)
def test_distinct_value_power_matches_per_value(n, seed, segment, gamma):
    w = WeightSpec(Polyline(segment), gamma)
    mesh = _mesh(n, seed)
    tris = mesh.vertices[mesh.triangles]
    value = weighted_cell_integral(w, tris)
    with mock.patch.object(weights, "_linear_power", linear_power_per_value):
        reference = weighted_cell_integral(w, tris)
    assert _same_bits(value, reference)


def test_linear_power_keeps_signed_zeros_and_repeats():
    # repeated values, zeros of both signs, a flat and a zero-area row
    vals = np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, 1.0], [0.5, 0.5, 1.0],
                     [1.0, 0.5, -0.0], [0.25, 0.25, 0.25], [0.5, 0.5, 1.0],
                     [-0.0, 2.0, 2.0], [-0.0, -0.0, -0.0]])
    area = np.array([0.5, 0.5, 0.25, 0.125, 0.5, 0.0, 1.0, 0.5])
    assert _same_bits(weights._linear_power(area, vals, 1.0),
                      linear_power_per_value(area, vals, 1.0))
    # the powers themselves: pow(-0.0, 3.0) is -0.0, so the two zeros
    # are distinct values
    values = np.array([[-0.0, 0.0, 2.0], [2.0, -0.0, 0.5]])
    for power, exponent in zip(weights._pow(values, (2.0, 3.0)), (2.0, 3.0)):
        assert _same_bits(power, np.array(
            [[x ** exponent for x in row] for row in values.tolist()]))


def _coefficient_set(segment, gamma, zeta):
    return CoefficientSet([[2.0, 0.3], [0.3, 1.0]],
                          bulk_weight=WeightSpec(Polyline(segment), gamma),
                          zeta_bulk=zeta, zeta_gd=zeta, zeta_sigma=zeta)


_ZETA = st.sampled_from([1.0, 2.5, lambda p: 1.5 + p[:, 0] * p[:, 1],
                         lambda p: np.exp(np.sin(9.1 * p[:, 0] + 4.3 * p[:, 1]))])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2 ** 16),
       segment=_segment(), gamma=_GAMMAS, zeta=_ZETA)
def test_element_kernels_match_einsum(n, seed, segment, gamma, zeta):
    mesh = _mesh(n, seed)
    coeff = _coefficient_set(segment, gamma, zeta)
    smeshes = [SurfaceMesh.from_mesh(mesh, which)
               for which in (DYNAMIC, INTERFACE)]
    dofmap = build_dofmap(mesh, *smeshes)
    grads, area = _triangle_geometry(mesh)
    cell_mats = _coefficient_integrals(mesh, coeff, area,
                                       _cell_weights(mesh, coeff, area))
    assert _same_csr(_stiffness(mesh, dofmap, grads, cell_mats),
                     stiffness_einsum(mesh, dofmap, grads, cell_mats))

    points = _TRIANGLE_RULE[0] @ mesh.vertices[mesh.triangles]
    masses = _weighted_masses(coeff, "bulk", points, area, _TRIANGLE_RULE)
    assert _same_bits(masses, weighted_masses_einsum(
        coeff, "bulk", points, area, _TRIANGLE_RULE))
    dofs = dofmap.vertex_free[mesh.triangles]
    assert _same_csr(_scatter(dofs, masses, dofmap.n_free),
                     scatter_masked(dofs, masses, dofmap.n_free))
    for which, smesh in zip((DYNAMIC, INTERFACE), smeshes):
        args = (coeff, which, _edge_points(smesh, _EDGE_TS),
                smesh.edge_lengths, _EDGE_RULE)
        masses = _weighted_masses(*args)
        assert _same_bits(masses, weighted_masses_einsum(*args))
        dofs = _surface_block_dofs(dofmap, smesh, which)
        n_b = len(dofmap.surface_vertices(which))
        assert _same_csr(_scatter(dofs, masses, n_b),
                         scatter_masked(dofs, masses, n_b))


def test_stiffness_with_signed_zero_coefficients():
    # one free triangle, so the matrix holds its element entries; with a
    # coefficient of -0.0 every term of a diagonal entry is -0.0, and
    # einsum's sum from zero makes it +0.0
    mesh = Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                [(0, 1), (1, 2), (2, 0)], ["neumann"] * 3)
    dofmap = build_dofmap(mesh, *(SurfaceMesh.from_mesh(mesh, which)
                                  for which in (DYNAMIC, INTERFACE)))
    grads, _ = _triangle_geometry(mesh)
    for cell_mats in ([[-0.0, -0.0], [-0.0, -0.0]], [[1.0, -0.0], [0.5, 2.0]],
                      [[-0.0, 0.0], [-0.0, 3.0]]):
        cell_mats = np.array([cell_mats])
        stiffness = _stiffness(mesh, dofmap, grads, cell_mats)
        assert stiffness.nnz == 9
        assert _same_csr(stiffness,
                         stiffness_einsum(mesh, dofmap, grads, cell_mats))
    zeros = _stiffness(mesh, dofmap, grads, np.full((1, 2, 2), -0.0))
    assert not np.signbit(zeros.data).any()
