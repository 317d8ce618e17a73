"""Property tests of the assembled pencil over perturbed and refined
meshes: the structural facts of the energy form must hold on any
admissible mesh and coefficient, not only on the unit-square fixture."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import jittered_mesh
from formheat.assembly import CoefficientSet, build_pencil
from formheat.geometry import refine_uniform
from formheat.model_problems import unit_square_mesh

_positive = st.floats(0.2, 5.0)


@st.composite
def _bulk_coefficients(draw):
    """A constant scalar, or a per-region dict of scalars and symmetric
    positive definite matrices."""
    if draw(st.booleans()):
        return draw(_positive)
    a, c = draw(_positive), draw(_positive)
    b = draw(st.floats(-0.9, 0.9)) * np.sqrt(a * c)
    return {0: draw(_positive), 1: [[a, b], [b, c]]}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 4]), refine=st.booleans(),
       seed=st.integers(0, 2 ** 16), mu_bulk=_bulk_coefficients(),
       mu_gd=st.floats(0.0, 5.0), mu_sigma=st.floats(0.0, 5.0),
       lumped=st.booleans())
def test_pencil_properties_on_perturbed_meshes(n, refine, seed, mu_bulk,
                                               mu_gd, mu_sigma, lumped):
    mesh = unit_square_mesh(n, bottom="neumann", top="dynamic",
                            interface_y=0.5)
    if refine:
        mesh = refine_uniform(mesh)
    mesh = jittered_mesh(mesh, seed)
    pencil = build_pencil(mesh, CoefficientSet(mu_bulk=mu_bulk, mu_gd=mu_gd,
                                               mu_sigma=mu_sigma),
                          lumped=lumped)
    t_mat = pencil.T.toarray()
    scale = np.abs(t_mat).max()
    assert np.abs(t_mat - t_mat.T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(t_mat).min() >= -1e-12 * scale
    ones = np.ones(pencil.n_free)
    assert np.abs(t_mat @ ones).max() <= 1e-12 * scale
    # |Omega| + |Gamma_d| + |Sigma|
    assert pencil.M_blk.sum() == pytest.approx(3.0, rel=1e-13)
    assert pencil.M_blk_plain.sum() == pytest.approx(3.0, rel=1e-13)
