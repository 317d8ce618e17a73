"""Property tests of the dense spectral calculus's eigenbasis over
perturbed, refined and relabeled meshes: the pencil's eigenvectors from
the band congruence of ``Mt`` must be Mt-orthonormal, diagonalize ``T``
and carry the eigenvalues of a dense generalized solve, and the tiled
congruence must match the one from band solves.  Every other dense
eigenproblem on the band congruence must match the dense generalized
solve too."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import jittered_mesh, ramp_half
from oracles import (band_congruence_dtbtrs, eigenvalues_gvd,
                     pencil_eigenvalues_gvd, trace_pair)
from formheat.assembly import CoefficientSet, build_pencil
from formheat.geometry import Mesh, Polyline, SurfaceMesh, refine_uniform
from formheat.model_problems import standard_fixture_mesh, unit_square_mesh
from formheat.spectral import (_band_congruence, _pencil_eigendecomposition,
                               count_eigenvalues_below, generalized_eigs,
                               j_ellipticity_constant, trace_norm_probe)
from formheat.weights import WeightSpec

_sides = st.tuples(*[st.sampled_from(["dirichlet", "dynamic", "neumann"])] * 4
                   ).filter(lambda sides: set(sides) != {"dirichlet"})
_surface_coefficient = st.one_of(st.floats(0.0, 5.0), st.just(ramp_half))


def _check_eigenbasis(pencil):
    """``V^T Mt V = I`` and ``V^T T V = Lambda`` to 1e-10 (the second
    relative to ``max(1, lambda_max)``), and eigenvalues within 1e-10 of
    the dense generalized solve, relative to the largest."""
    vals, vecs = _pencil_eigendecomposition(pencil)
    n = pencil.n_free
    gram = vecs.T @ (pencil.mtilde() @ vecs)
    assert np.abs(gram - np.eye(n)).max() <= 1e-10
    scale = max(1.0, vals[-1])
    diag = vecs.T @ (pencil.T @ vecs)
    assert np.abs(diag - np.diag(vals)).max() <= 1e-10 * scale
    reference = pencil_eigenvalues_gvd(pencil)
    assert np.abs(vals - reference).max() <= 1e-10 * np.abs(reference).max()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 4, 6]), refine=st.booleans(), sides=_sides,
       interface=st.booleans(),
       constrain=st.one_of(st.none(), st.integers(0, 2 ** 8)),
       seed=st.integers(0, 2 ** 16), mu_bulk=st.floats(0.2, 5.0),
       mu_gd=_surface_coefficient, mu_sigma=_surface_coefficient,
       lumped=st.booleans())
def test_eigenbasis_on_perturbed_meshes(n, refine, sides, interface,
                                        constrain, seed, mu_bulk, mu_gd,
                                        mu_sigma, lumped):
    bottom, top, left, right = sides
    mesh = unit_square_mesh(n, bottom=bottom, top=top, left=left,
                            right=right,
                            interface_y=0.5 if interface else None)
    if refine:
        mesh = refine_uniform(mesh)
    mesh = jittered_mesh(mesh, seed)
    ends = sorted({v for which in ("dynamic", "interface")
                   for chain in SurfaceMesh.from_mesh(mesh, which).chains
                   for v in (chain[0], chain[-1])})
    extra = () if constrain is None or not ends else (
        ends[constrain % len(ends)],)
    pencil = build_pencil(mesh, CoefficientSet(
        mu_bulk=mu_bulk, mu_gd=mu_gd, mu_sigma=mu_sigma), lumped=lumped,
        extra_constrained=extra)
    _check_eigenbasis(pencil)


def fan_mesh(rim=300):
    """A hub vertex joined to ``rim`` vertices on the unit circle, the rim
    edges alternately dynamic and Neumann: every RCM ordering of its
    ``Mt`` has a band about ``rim / 2`` wide."""
    angle = 2.0 * np.pi * np.arange(rim) / rim
    vertices = np.vstack([[0.0, 0.0],
                          np.column_stack([np.cos(angle), np.sin(angle)])])
    ring = 1 + np.arange(rim)
    triangles = np.column_stack([np.zeros(rim, dtype=int), ring,
                                 np.roll(ring, -1)])
    edges = np.column_stack([ring, np.roll(ring, -1)])
    labels = ["dynamic" if k % 2 else "neumann" for k in range(rim)]
    return Mesh(vertices, triangles, edges, labels)


def test_eigenbasis_of_a_band_wider_than_the_step_limit():
    pencil = build_pencil(fan_mesh(), CoefficientSet())
    assert pencil.n_free < 2000
    # wider than BAND_LIMIT: the solves' band Cholesky refuses this Mt
    assert pencil.factorization("mtilde", pencil.mtilde).kind == "lu"
    _check_eigenbasis(pencil)


def congruence_pencil(case):
    """A fixture pencil, lumped or not, a jittered refined one with an
    interface and a degenerate surface coefficient, or the fan's, whose
    band of 297 is wider than a tile."""
    if case == "fan":
        return build_pencil(fan_mesh(), CoefficientSet())
    if case == "jittered":
        mesh = jittered_mesh(refine_uniform(unit_square_mesh(
            6, bottom="dirichlet", top="dynamic", interface_y=0.5)), 7)
        return build_pencil(mesh, CoefficientSet(mu_bulk=2.5,
                                                 mu_sigma=ramp_half))
    return build_pencil(standard_fixture_mesh(12), CoefficientSet(),
                        lumped=case == "lumped")


@pytest.mark.parametrize("case", ["fixture", "jittered", "lumped", "fan"])
def test_tiled_congruence_matches_band_solves(case):
    """The lower triangle of the tiled congruence, which is all that
    ``dsyevd`` reads, within 1e-13 of the largest entry of the one from
    band solves, for ``T`` and for its symmetric part."""
    pencil = congruence_pencil(case)
    for stiffness in (pencil.T, 0.5 * (pencil.T + pencil.T.T)):
        lower, _, _ = _band_congruence(pencil.mtilde(), stiffness)
        reference = band_congruence_dtbtrs(pencil, stiffness)
        assert lower.flags.f_contiguous
        assert (np.abs(np.tril(lower) - np.tril(reference)).max()
                <= 1e-13 * np.abs(reference).max())


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.sampled_from([4, 8, 16]),
       seed=st.one_of(st.none(), st.integers(0, 2 ** 16)),
       lumped=st.booleans(), weighted=st.booleans(), few=st.booleans())
def test_dense_eigenproblems_match_generalized_solves(n, seed, lumped,
                                                      weighted, few):
    """The dense eigs, the eigenvalue count, the J-ellipticity constant
    and the trace supremum, all on a band congruence, against the dense
    generalized solve of their pencils: eigenvalues within 1e-12 of the
    largest, the eigs' vectors Mt-orthonormal within 1e-12."""
    mesh = standard_fixture_mesh(n)
    if seed is not None:
        mesh = jittered_mesh(mesh, seed)
    coeff = CoefficientSet(bulk_weight=WeightSpec(
        Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5) if weighted else None)
    pencil = build_pencil(mesh, coeff, lumped=lumped)
    mt = pencil.mtilde()

    reference = pencil_eigenvalues_gvd(pencil)
    scale = np.abs(reference).max()
    # the dense branch: up to the crossover, or nearly all pairs
    count = 8 if few and pencil.n_free <= 250 else pencil.n_free - 1
    vals, vecs, residuals = generalized_eigs(pencil, count)
    assert np.abs(vals - reference[:count]).max() <= 1e-12 * scale
    assert np.abs(vecs.T @ (mt @ vecs) - np.eye(count)).max() <= 1e-12
    assert residuals.max() <= 1e-8

    # T is bitwise symmetric, so sym T is T: count at the midpoints of
    # clear gaps in the reference spectrum
    gaps = np.flatnonzero(np.diff(reference) > 1e-9 * scale)
    for k in gaps[::max(1, len(gaps) // 8)]:
        bound = 0.5 * (reference[k] + reference[k + 1])
        assert count_eigenvalues_below(pencil, bound) == k + 1

    j_ref = eigenvalues_gvd(0.5 * (pencil.T + pencil.T.T) + mt,
                            pencil.M_form)
    assert (abs(j_ellipticity_constant(pencil) - j_ref[0])
            <= 1e-12 * np.abs(j_ref).max())

    t_ref = eigenvalues_gvd(*trace_pair(mesh, coeff))
    sup = trace_norm_probe(pencil, n_samples=1).sup_ratio
    assert abs(sup ** 2 - t_ref[-1]) <= 1e-12 * np.abs(t_ref).max()
