"""The factorization behind every pencil solve: band Cholesky after
reverse Cuthill-McKee reordering for symmetric positive definite matrices
with a narrow band, SuperLU's sparse LU for everything else."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from conftest import jittered_mesh
from formheat.assembly import (BAND_LIMIT, CoefficientSet, Factorization,
                               build_dofmap, build_pencil)
from formheat.errors import ConsistencyError, SolveError
from formheat.geometry import refine_uniform
from formheat.model_problems import standard_fixture_mesh, unit_square_mesh


def _superlu_solve(matrix, rhs):
    return spla.splu(sp.csc_matrix(matrix),
                     permc_spec="MMD_AT_PLUS_A").solve(rhs)


def _backward_error(matrix, x, rhs):
    norm = abs(matrix).sum(axis=1).max()
    return (np.abs(matrix @ x - rhs).max()
            / (norm * np.abs(x).max() + np.abs(rhs).max()))


def _pencil_matrices(pencil):
    mt = pencil.mtilde()
    return {"step": mt + 0.002 * pencil.T, "mtilde": mt,
            "shift": pencil.T + 0.01 * mt}


def test_pencil_matrices_take_the_band_path(std_pencil_8):
    rhs = np.random.default_rng(0).standard_normal(std_pencil_8.n_free)
    for name, matrix in _pencil_matrices(std_pencil_8).items():
        lu = Factorization(matrix)
        assert lu.kind == "band-cholesky", name
        n = matrix.shape[0]
        assert lu.nnz % n == 0 and 2 <= lu.nnz // n <= BAND_LIMIT + 1
        assert lu.shape == matrix.shape
        assert lu.norm == abs(matrix).sum(axis=1).max()
        x = lu.solve(rhs)
        reference = _superlu_solve(matrix, rhs)
        assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()
        # several right-hand sides, and the shift-invert operator
        both = lu.solve(np.stack([rhs, 2.0 * rhs], axis=1))
        np.testing.assert_array_equal(both[:, 0], x)
        np.testing.assert_array_equal(lu.operator().matvec(rhs), x)


def test_skew_coefficient_takes_lu():
    pencil = build_pencil(standard_fixture_mesh(8), CoefficientSet(
        mu_bulk=[[1.0, 0.5], [-0.5, 1.0]]))
    matrix = _pencil_matrices(pencil)["step"]
    lu = Factorization(matrix)
    assert lu.kind == "lu"
    rhs = np.ones(pencil.n_free)
    np.testing.assert_array_equal(lu.solve(rhs),
                                  _superlu_solve(matrix, rhs))


def test_wide_band_takes_lu():
    """An SPD arrow matrix: every dof couples to the last one, so no
    ordering gives a band narrower than about half its size."""
    n = 3 * BAND_LIMIT
    matrix = sp.lil_matrix((n, n))
    matrix.setdiag(float(n))
    matrix[n - 1, :n - 1] = 1.0
    matrix[:n - 1, n - 1] = 1.0
    matrix = matrix.tocsr()
    lu = Factorization(matrix)
    assert lu.kind == "lu"
    rhs = np.arange(n, dtype=float)
    np.testing.assert_array_equal(lu.solve(rhs),
                                  _superlu_solve(matrix, rhs))


@pytest.mark.parametrize("diagonal", [(2.0, -1.0, 3.0), (1.0, 0.0, 1.0)])
def test_symmetric_matrix_that_is_not_definite_takes_lu(diagonal):
    matrix = sp.diags([diagonal, (0.5, 0.5), (0.5, 0.5)], [0, 1, -1],
                      format="csr")
    lu = Factorization(matrix)
    assert lu.kind == "lu"
    rhs = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(matrix @ lu.solve(rhs), rhs, rtol=1e-14)


def test_singular_matrix_still_raises():
    with pytest.raises(SolveError, match="sparse LU factorization failed"):
        Factorization(sp.csr_matrix((3, 3)))


@pytest.mark.parametrize("build", [build_dofmap, lambda mesh: build_pencil(
    mesh, CoefficientSet())])
def test_mesh_without_free_dofs_is_rejected(build):
    mesh = unit_square_mesh(1, bottom="dirichlet", top="dirichlet",
                            left="dirichlet", right="dirichlet")
    with pytest.raises(ConsistencyError, match="no free bulk dofs"):
        build(mesh)


_sides = st.tuples(*[st.sampled_from(["dirichlet", "dynamic", "neumann"])] * 4
                   ).filter(lambda sides: set(sides) != {"dirichlet"})


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 4, 6]), refine=st.booleans(), sides=_sides,
       interface=st.booleans(), seed=st.integers(0, 2 ** 16),
       mu_bulk=st.floats(0.2, 5.0), mu_surface=st.floats(0.0, 5.0),
       theta=st.sampled_from([0.5, 1.0]), dt=st.floats(1e-4, 1.0),
       lumped=st.booleans())
def test_band_and_lu_solves_agree(n, refine, sides, interface, seed, mu_bulk,
                                  mu_surface, theta, dt, lumped):
    """On perturbed and relabeled meshes the step matrix takes the band
    path, and its solve agrees with SuperLU's and is backward stable."""
    bottom, top, left, right = sides
    mesh = unit_square_mesh(n, bottom=bottom, top=top, left=left,
                            right=right,
                            interface_y=0.5 if interface else None)
    if refine:
        mesh = refine_uniform(mesh)
    pencil = build_pencil(jittered_mesh(mesh, seed), CoefficientSet(
        mu_bulk=mu_bulk, mu_gd=mu_surface, mu_sigma=mu_surface),
        lumped=lumped)
    matrix = pencil.mtilde() + theta * dt * pencil.T
    lu = Factorization(matrix)
    assert lu.kind == "band-cholesky"
    # one definition of symmetric: the band path's is the pencil's
    assert pencil.is_symmetric()
    rhs = np.random.default_rng(seed).standard_normal(pencil.n_free)
    x = lu.solve(rhs)
    reference = _superlu_solve(matrix, rhs)
    assert np.abs(x - reference).max() <= 1e-12 * np.abs(reference).max()
    assert _backward_error(matrix, x, rhs) <= 1e-14
