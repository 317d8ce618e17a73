"""The initial-data projection by Jacobi-preconditioned CG against the
direct factorization it replaced (``oracles.project_initial_data_factored``),
over perturbed meshes, both mass types and relaxation coefficients that
span many orders of magnitude, and at data magnitudes near the overflow
and underflow thresholds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import formheat.assembly as assembly
from conftest import jittered_mesh
from oracles import project_initial_data_factored
from formheat.assembly import (BlockField, CoefficientSet, build_pencil,
                               project_initial_data)
from formheat.errors import ConsistencyError, SolveError
from formheat.geometry import Polyline
from formheat.model_problems import standard_fixture_mesh, unit_square_mesh
from formheat.weights import WeightSpec

# relaxation coefficients: constant, steep (1e-6 at x = 0, 1 at x = 1)
# and jumping across y = 1/2, with surface blocks six orders below and
# above the bulk
_RELAXATION = {
    "constant": {},
    "steep": {"zeta_bulk": lambda p: 1e-6 + p[:, 0] ** 8},
    "jumping": {"zeta_bulk": lambda p: np.where(p[:, 1] > 0.5, 1e4, 1e-4),
                "zeta_gd": 1e-6, "zeta_sigma": 1e6},
}
_SEGMENT = WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5)


def _random_block(pencil, seed):
    rng = np.random.default_rng(seed)
    dofmap = pencil.dofmap
    return BlockField(rng.uniform(0, 1, dofmap.n_free),
                      rng.uniform(0, 1, dofmap.n_gd),
                      rng.uniform(0, 1, dofmap.n_sigma))


def _counted_projection(raw, pencil):
    """``project_initial_data`` and the number of CG iterations it took."""
    counts = []
    real = assembly._jacobi_cg

    def counting(matrix, rhs):
        x, iterations = real(matrix, rhs)
        counts.append(iterations)
        return x, iterations

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assembly, "_jacobi_cg", counting)
        u = project_initial_data(raw, pencil)
    assert len(counts) == 1
    return u, counts[0]


@settings(max_examples=24, deadline=None, derandomize=True)
@given(n=st.sampled_from([4, 8, 16]), seed=st.integers(0, 2 ** 16),
       bottom=st.sampled_from(["neumann", "dirichlet"]),
       lumped=st.booleans(), weighted=st.booleans(),
       relaxation=st.sampled_from(sorted(_RELAXATION)))
def test_projection_matches_the_direct_solve(n, seed, bottom, lumped,
                                             weighted, relaxation):
    mesh = jittered_mesh(unit_square_mesh(n, bottom=bottom, top="dynamic",
                                          interface_y=0.5), seed)
    coeff = CoefficientSet(bulk_weight=_SEGMENT if weighted else None,
                           **_RELAXATION[relaxation])
    pencil = build_pencil(mesh, coeff, lumped=lumped)
    raw = _random_block(pencil, seed)
    u, iterations = _counted_projection(raw, pencil)
    want = project_initial_data_factored(raw, pencil)
    assert np.abs(u - want).max() <= 1e-13 * np.abs(u).max()
    assert iterations <= (1 if lumped else 40)


@pytest.fixture(scope="module")
def varying_pencil():
    mesh = unit_square_mesh(8, bottom="neumann", top="dynamic",
                            interface_y=0.5)
    return build_pencil(mesh, CoefficientSet(
        zeta_bulk=lambda p: 1.0 + p[:, 0], zeta_gd=2.0, zeta_sigma=0.5))


@pytest.mark.parametrize("k", [-990, -1, 1, 990])
def test_projection_commutes_with_powers_of_two(varying_pencil, k):
    pencil = varying_pencil
    raw = _random_block(pencil, 7)
    scaled = BlockField(*(np.ldexp(x, k) for x in (raw.bulk, raw.gd,
                                                   raw.sigma)))
    np.testing.assert_array_equal(project_initial_data(scaled, pencil),
                                  np.ldexp(project_initial_data(raw, pencil),
                                           k))


@pytest.mark.parametrize("value", [1e300, 1e-300, -1e300])
def test_projection_of_extreme_constants(varying_pencil, value):
    pencil = varying_pencil
    raw = BlockField.from_functions(pencil.mesh, pencil.dofmap,
                                    value, value, value)
    u = project_initial_data(raw, pencil)
    want = project_initial_data_factored(raw, pencil)
    assert np.abs(u - want).max() <= 1e-13 * abs(value)
    assert np.abs(u - value).max() <= 1e-13 * abs(value)


@pytest.mark.parametrize("relaxation", [
    {"zeta_bulk": 1e-307, "zeta_gd": 1e-307, "zeta_sigma": 1e-307},
    {"zeta_bulk": 1e308, "zeta_gd": 1e308, "zeta_sigma": 1e308},
    {"zeta_bulk": 1e-100},
    {"zeta_bulk": 1e-100, "zeta_gd": 1e100},
    {"zeta_bulk": 1e-300},
    {"zeta_bulk": 1e-150, "zeta_gd": 1e150, "zeta_sigma": 1e150}])
def test_projection_with_extreme_relaxation(varying_pencil, relaxation):
    # a normal matrix with subnormal or huge entries, or rows 100 to 300
    # orders of magnitude apart
    pencil = build_pencil(varying_pencil.mesh, CoefficientSet(**relaxation))
    raw = _random_block(pencil, 3)
    u = project_initial_data(raw, pencil)
    want = project_initial_data_factored(raw, pencil)
    assert np.abs(u - want).max() <= 1e-13 * np.abs(u).max()


def test_projection_at_a_contrast_of_300_orders_on_a_fine_mesh():
    # the count grows with the contrast and, up to n = 128, with the mesh:
    # 263 iterations here, past a fixed cap of 200
    mesh = standard_fixture_mesh(128)
    pencil = build_pencil(mesh, CoefficientSet(zeta_bulk=1e-300))
    raw = _random_block(pencil, 5)
    u, iterations = _counted_projection(raw, pencil)
    want = project_initial_data_factored(raw, pencil)
    assert np.abs(u - want).max() <= 1e-13 * np.abs(u).max()
    assert iterations > 200


@pytest.mark.parametrize("small, large", [(1e-300, 1e300), (1e-307, 1e308)])
def test_projection_at_the_widest_contrast(varying_pencil, small, large):
    # rows 600 orders apart: the Jacobi residual recomputed from u is at
    # rounding level in every row.  The direct solve is no reference here:
    # its factor loses the rows of the small coefficient (a Jacobi
    # residual of 0.3 times max |u| on the unit-square fixture at n = 16)
    pencil = build_pencil(varying_pencil.mesh, CoefficientSet(
        zeta_bulk=small, zeta_gd=large, zeta_sigma=large))
    raw = _random_block(pencil, 3)
    u = project_initial_data(raw, pencil)
    mt = pencil.mtilde()
    rhs = pencil.J.T @ (pencil.M_blk @ raw.stacked())
    residual = (rhs - mt @ u) / mt.diagonal()
    assert np.abs(residual).max() <= 1e-13 * np.abs(u).max()


def test_projection_reports_a_stalled_cg(varying_pencil, monkeypatch):
    # the cap adds half the binary orders the diagonal spans, 4 here
    monkeypatch.setattr(assembly, "_PROJECTION_MAXITER", 3)
    with pytest.raises(ConsistencyError, match="did not converge in 7 "):
        project_initial_data(_random_block(varying_pencil, 1), varying_pencil)


def test_projection_reports_overflow(varying_pencil):
    pencil, big = varying_pencil, np.finfo(float).max
    dofmap = pencil.dofmap
    # the projection of a jump of the largest magnitude overshoots it
    raw = BlockField(np.full(dofmap.n_free, big), np.full(dofmap.n_gd, -big),
                     np.full(dofmap.n_sigma, -big))
    with pytest.raises(SolveError, match="projected initial data overflows"):
        project_initial_data(raw, pencil)
    heavy = build_pencil(pencil.mesh, CoefficientSet(zeta_bulk=1e300))
    raw = BlockField.from_functions(pencil.mesh, dofmap, 1e20, 1e20, 1e20)
    with pytest.raises(SolveError, match="right-hand side"):
        project_initial_data(raw, heavy)
