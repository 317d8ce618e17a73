"""Property tests of the assembled pencil over perturbed and refined
meshes: the structural facts of the energy form must hold on any
admissible mesh and coefficient, not only on the unit-square fixture."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import jittered_mesh, ramp_half
from oracles import FormOracle
from formheat.assembly import BlockField, CoefficientSet, build_pencil
from formheat.evolution import TimeSteppingConfig, evolve
from formheat.geometry import Points, Polyline, SurfaceMesh, refine_uniform
from formheat.model_problems import standard_fixture_mesh, unit_square_mesh
from formheat.spectral import j_ellipticity_constant, trace_norm_probe
from formheat.weights import WeightSpec

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
    # every drawn coefficient is symmetric, so the matrices are, bit for bit
    assert (pencil.T != pencil.T.T).nnz == 0
    assert (pencil.M_form != pencil.M_form.T).nnz == 0
    t_mat = pencil.T.toarray()
    scale = np.abs(t_mat).max()
    assert np.abs(t_mat - t_mat.T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(t_mat).min() >= -1e-12 * scale
    ones = np.ones(pencil.n_free)
    assert np.abs(t_mat @ ones).max() <= 1e-12 * scale
    # |Omega| + |Gamma_d| + |Sigma|
    assert pencil.M_blk.sum() == pytest.approx(3.0, rel=1e-13)
    assert pencil.M_blk_plain.sum() == pytest.approx(3.0, rel=1e-13)


_sides = st.tuples(*[st.sampled_from(["dirichlet", "dynamic", "neumann"])] * 4
                   ).filter(lambda sides: set(sides) != {"dirichlet"})
_surface_coefficient = st.one_of(st.floats(0.0, 5.0), st.just(ramp_half))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 4, 6]), sides=_sides, interface=st.booleans(),
       constrain=st.one_of(st.none(), st.integers(0, 2 ** 8)),
       seed=st.integers(0, 2 ** 16), mu_bulk=_positive,
       mu_gd=_surface_coefficient, mu_sigma=_surface_coefficient,
       lumped=st.booleans())
def test_pencil_properties_on_relabeled_meshes(n, sides, interface, constrain,
                                               seed, mu_bulk, mu_gd, mu_sigma,
                                               lumped):
    """Any side may be Dirichlet, dynamic or Neumann, the interface may be
    absent and a surface endpoint may carry an extra Dirichlet
    constraint: the pencil must still realize the form."""
    bottom, top, left, right = sides
    mesh = jittered_mesh(unit_square_mesh(
        n, bottom=bottom, top=top, left=left, right=right,
        interface_y=0.5 if interface else None), seed)
    ends = sorted({v for which in ("dynamic", "interface")
                   for chain in SurfaceMesh.from_mesh(mesh, which).chains
                   for v in (chain[0], chain[-1])})
    extra = () if constrain is None or not ends else (
        ends[constrain % len(ends)],)
    pencil = build_pencil(mesh, CoefficientSet(
        mu_bulk=mu_bulk, mu_gd=mu_gd, mu_sigma=mu_sigma), lumped=lumped,
        extra_constrained=extra)

    oracle = FormOracle(pencil)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        u = rng.standard_normal(pencil.n_free)
        v = rng.standard_normal(pencil.n_free)
        reference = oracle.value(u, v)
        scale = max(abs(reference),
                    1e-12 * np.linalg.norm(u) * np.linalg.norm(v))
        assert abs(float(v @ (pencil.T @ u)) - reference) <= 1e-10 * scale

    t_mat = pencil.T.toarray()
    scale = np.abs(t_mat).max()
    assert np.abs(t_mat - t_mat.T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(t_mat).min() >= -1e-12 * scale
    if "dirichlet" not in sides and not extra:
        assert np.abs(t_mat @ np.ones(pencil.n_free)).max() <= 1e-12 * scale
        # |Omega| + |Gamma_d| + |Sigma|
        measure = 1.0 + sides.count("dynamic") + (1.0 if interface else 0.0)
        assert pencil.M_blk.sum() == pytest.approx(measure, rel=1e-13)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 4]), refine=st.booleans(),
       seed=st.integers(0, 2 ** 16), mu_bulk=_bulk_coefficients(),
       zeta=st.tuples(_positive, _positive, _positive),
       theta=st.sampled_from([0.5, 1.0]))
def test_evolve_conserves_mass_and_dissipates_energy(n, refine, seed, mu_bulk,
                                                     zeta, theta):
    """C02's mass bound and, for theta = 1, C04's energy bound on meshes
    without a Dirichlet part, from random initial data."""
    mesh = unit_square_mesh(n, bottom="neumann", top="dynamic",
                            interface_y=0.5)
    if refine:
        mesh = refine_uniform(mesh)
    mesh = jittered_mesh(mesh, seed)
    pencil = build_pencil(mesh, CoefficientSet(
        mu_bulk=mu_bulk, zeta_bulk=zeta[0], zeta_gd=zeta[1],
        zeta_sigma=zeta[2]))
    _assert_mass_conserved_and_energy_dissipated(pencil, seed, theta)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 4, 6]),
       sides=st.tuples(*[st.sampled_from(["dynamic", "neumann"])] * 4),
       interface=st.booleans(), seed=st.integers(0, 2 ** 16),
       mu_bulk=_bulk_coefficients(),
       zeta=st.tuples(_positive, _positive, _positive),
       lumped=st.booleans(), theta=st.sampled_from([0.5, 1.0]))
def test_evolve_conserves_mass_on_relabeled_meshes(n, sides, interface, seed,
                                                   mu_bulk, zeta, lumped,
                                                   theta):
    """The same bounds whichever sides are dynamic, with or without an
    interface, and with lumped or consistent masses."""
    bottom, top, left, right = sides
    mesh = jittered_mesh(unit_square_mesh(
        n, bottom=bottom, top=top, left=left, right=right,
        interface_y=0.5 if interface else None), seed)
    pencil = build_pencil(mesh, CoefficientSet(
        mu_bulk=mu_bulk, zeta_bulk=zeta[0], zeta_gd=zeta[1],
        zeta_sigma=zeta[2]), lumped=lumped)
    _assert_mass_conserved_and_energy_dissipated(pencil, seed, theta)


def _assert_mass_conserved_and_energy_dissipated(pencil, seed, theta):
    rng = np.random.default_rng(seed)
    dofmap = pencil.dofmap
    raw = BlockField(rng.uniform(0, 1, dofmap.n_free),
                     rng.uniform(0, 1, dofmap.n_gd),
                     rng.uniform(0, 1, dofmap.n_sigma))
    tol = 1e-12
    report = evolve(pencil, raw, None, TimeSteppingConfig(
        dt=0.01, t_end=0.2, theta=theta, solver_tol=tol))
    drift = np.abs(report.mass - report.mass[0]).max() / abs(report.mass[0])
    assert drift <= 1e-10
    if theta == 1.0:
        assert np.all(np.diff(np.sqrt(report.energy)) <= 10 * tol)


@st.composite
def _bulk_weight(draw):
    """None, a segment weight on the interface (case B, gamma < 1) or a
    point weight inside the square (gamma < 2)."""
    kind = draw(st.sampled_from(["none", "segment", "point"]))
    if kind == "none":
        return None
    if kind == "segment":
        return WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]),
                          draw(st.sampled_from([0.25, 0.5, 0.75])))
    point = draw(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)))
    return WeightSpec(Points(point), draw(st.sampled_from([0.5, 1.0, 1.5])))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.sampled_from([4, 8]), seed=st.integers(0, 2 ** 16),
       mu_bulk=_positive, mu_gd=st.one_of(st.floats(0.0, 5.0),
                                          st.just(ramp_half)),
       mu_sigma=st.floats(0.0, 5.0),
       zeta=st.tuples(_positive, _positive, _positive),
       weight=_bulk_weight())
def test_j_ellipticity_on_jittered_meshes(n, seed, mu_bulk, mu_gd, mu_sigma,
                                          zeta, weight):
    """C06 on a jittered fixture and its refinement: the J-ellipticity
    constant is positive and moves by at most the acceptance factors."""
    mesh = jittered_mesh(standard_fixture_mesh(n), seed)
    coeff = CoefficientSet(mu_bulk=mu_bulk, mu_gd=mu_gd, mu_sigma=mu_sigma,
                           bulk_weight=weight, zeta_bulk=zeta[0],
                           zeta_gd=zeta[1], zeta_sigma=zeta[2])
    c_coarse = j_ellipticity_constant(build_pencil(mesh, coeff))
    c_fine = j_ellipticity_constant(build_pencil(refine_uniform(mesh), coeff))
    assert c_coarse > 0 and c_fine > 0
    assert 0.5 * c_coarse <= c_fine <= 1.5 * c_coarse


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16),
       gamma=st.sampled_from([0.25, 0.5, 0.75]))
def test_trace_norm_bounded_on_jittered_meshes(seed, gamma):
    """C10 on independently jittered fixtures at n = 8, 16, 32: the trace
    supremum under a segment weight on the interface grows by at most
    the acceptance factor per refinement."""
    weight = WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), gamma)
    sups = [trace_norm_probe(build_pencil(
                jittered_mesh(standard_fixture_mesh(n), seed),
                CoefficientSet(bulk_weight=weight)), n_samples=60).sup_ratio
            for n in (8, 16, 32)]
    assert sups[1] <= 1.10 * sups[0], sups
    assert sups[2] <= 1.10 * sups[1], sups
