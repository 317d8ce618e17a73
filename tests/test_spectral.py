import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import formheat.spectral as spectral
from formheat.assembly import CoefficientSet, build_pencil
from formheat.errors import (EigenSolveError, OutsideTheoryError,
                             SizeLimitError, UnsupportedScenarioError)
from formheat.geometry import Points, Polyline, refine_uniform
from formheat.model_problems import standard_fixture_mesh, unit_square_mesh
from formheat.spectral import (count_eigenvalues_below, embedding_exponents,
                               fractional_embedding_probe,
                               fractional_power_apply, generalized_eigs,
                               numerical_range_check, probe_trend,
                               trace_norm_probe)
from formheat.weights import WeightSpec
from oracles import (exact_l2_supremum_gemm, exact_l2_supremum_theta_one,
                     fractional_embedding_probe_loop, inverse_fractional_power,
                     pencil_eigenvalues_gvd, probe_ratio,
                     probe_sample_ratios_loop)

INF = math.inf


# -- exponent catalogue ----------------------------------------------------------

def test_exponents_d2_nondegenerate():
    rep = embedding_exponents(2, 0)
    assert rep.r_omega is INF and rep.r_tr is INF
    assert rep.r_tr_gamma is INF and rep.r_tr_star is INF
    assert rep.r0 is INF
    assert rep.theta_threshold(4) == Fraction(1, 4)


def test_exponents_d3_caseb():
    rep = embedding_exponents(3, 0.5, case="B")
    assert rep.r_omega == Fraction(4)
    assert rep.r_tr_gamma == Fraction(8, 3)
    assert rep.r0 == Fraction(8, 3)
    assert rep.active_trace == "r_tr_gamma"
    assert rep.effective("r_tr") is INF
    assert rep.csv_row() == "3,0.5,B,4,+inf,2.6667,+inf,2.6667"
    assert rep.cells() == {"d": "3", "gamma": "0.5", "case": "B",
                           "r_omega": "4", "r_tr": "+inf",
                           "r_tr_gamma": "2.6667", "r_tr_star": "+inf",
                           "r0": "2.6667"}


def test_exponents_d3_nondegenerate_and_surface_improvement():
    rep = embedding_exponents(3, 0)
    assert (rep.r_omega, rep.r_tr, rep.r0) == (Fraction(6), Fraction(4),
                                               Fraction(4))
    improved = embedding_exponents(3, 0, surface_uniformly_positive=True)
    assert improved.r0 == Fraction(6)
    # the limiting condition is 2 theta > d / p
    assert improved.theta_threshold(5) == Fraction(3, 10)


def test_exponents_nondegenerate_limit_matches_sobolev():
    for d in (3, 4, 5):
        rep = embedding_exponents(d, 0, surface_uniformly_positive=True)
        for p in (3, 4, 7):
            assert rep.theta_threshold(p) == Fraction(d, 2 * p)


def test_exponents_weight_consistency():
    weight = WeightSpec(Points((0.0, 0.0)), 1.5)
    rep = embedding_exponents(3, 1.5, case="A", weight=weight)
    assert rep.r_omega == Fraction(6, Fraction(5, 2))
    with pytest.raises(OutsideTheoryError):
        embedding_exponents(2, 1.5, case="A",
                            weight=WeightSpec(Polyline([(0, 0), (1, 0)]), 1.5))
    with pytest.raises(ValueError):
        embedding_exponents(3, 0.5, case="A", weight=weight)


def test_exponents_errors():
    with pytest.raises(OutsideTheoryError):
        embedding_exponents(3, 1.2, case="B")
    with pytest.raises(UnsupportedScenarioError):
        embedding_exponents(3, 0.5, case="nondegenerate")
    with pytest.raises(UnsupportedScenarioError):
        embedding_exponents(3, 0, case="A")
    with pytest.raises(UnsupportedScenarioError):
        embedding_exponents(3, 0.5, case="A", surface_positive_near_s=True)
    with pytest.raises(UnsupportedScenarioError):
        embedding_exponents(3, 0.5, case="unknown")


def test_exponents_r0_above_two_for_small_gamma():
    for d in (2, 3, 4, 6):
        for gamma in (0, 0.25, 0.5, 0.75, 0.99):
            for kwargs in ({"case": "A"}, {"case": "B"},
                           {"case": "B", "surface_positive_near_s": True},
                           {"case": "A", "surface_uniformly_positive": True}):
                if gamma == 0:
                    kwargs = {"surface_uniformly_positive":
                              kwargs.get("surface_uniformly_positive", False)}
                rep = embedding_exponents(d, gamma, **kwargs)
                assert rep.r0 is INF or rep.r0 > 2


def test_exponents_monotone_in_gamma():
    prev = None
    for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
        rep = embedding_exponents(3, gamma, case="B")
        if prev is not None:
            assert rep.r0 <= prev
        prev = rep.r0


def test_surface_diffusion_never_decreases_r0():
    for d in (2, 3, 4):
        for gamma, case in ((0, "nondegenerate"), (0.5, "A"), (0.5, "B")):
            base = embedding_exponents(d, gamma, case=case)
            up = embedding_exponents(d, gamma, case=case,
                                     surface_uniformly_positive=True)
            assert up.r0 >= base.r0


def test_case_b_near_set_surface_diffusion_improves():
    without = embedding_exponents(3, 0.5, case="B")
    with_near = embedding_exponents(3, 0.5, case="B",
                                    surface_positive_near_s=True)
    assert with_near.r0 > without.r0


# -- matrix spectra ----------------------------------------------------------------

def dirichlet_pencil(n):
    mesh = unit_square_mesh(n, bottom="dirichlet", top="dirichlet",
                            left="dirichlet", right="dirichlet")
    return build_pencil(mesh, CoefficientSet())


def test_pure_neumann_kernel():
    mesh = unit_square_mesh(8, bottom="neumann", top="neumann")
    pencil = build_pencil(mesh, CoefficientSet())
    vals, vecs, _ = generalized_eigs(pencil, 3)
    assert abs(vals[0]) <= 1e-10
    v0 = vecs[:, 0]
    assert np.abs(v0 / v0[0] - 1.0).max() <= 1e-10
    assert vals[1] > 1.0  # spectral gap on the unit square


def test_dirichlet_eigenvalue_convergence():
    target = 2 * np.pi ** 2
    lams = [generalized_eigs(dirichlet_pencil(n), 1)[0][0] for n in (4, 8, 16)]
    assert all(lam > target for lam in lams)
    assert lams[0] > lams[1] > lams[2]
    assert lams[2] == pytest.approx(target, rel=0.02)


def test_generalized_eigs_sparse_path_matches_dense(monkeypatch):
    pencil = dirichlet_pencil(10)
    dense_vals, *_ = generalized_eigs(pencil, 3)
    monkeypatch.setattr(spectral, "_DENSE_EIGS_CROSSOVER", 10)
    sparse_vals, *_ = generalized_eigs(pencil, 3)
    assert np.allclose(sparse_vals, dense_vals, rtol=1e-8)


def test_zeta_scaling_halves_eigenvalues():
    mesh = standard_fixture_mesh(6)
    one = build_pencil(mesh, CoefficientSet())
    two = build_pencil(mesh, CoefficientSet(zeta_bulk=2.0, zeta_gd=2.0,
                                            zeta_sigma=2.0))
    v1, *_ = generalized_eigs(one, 5)
    v2, *_ = generalized_eigs(two, 5)
    assert np.allclose(v2, 0.5 * v1, rtol=1e-12, atol=1e-12)


def test_eigs_rejects_nonsymmetric():
    mesh = standard_fixture_mesh(4)
    pencil = build_pencil(mesh, CoefficientSet(
        mu_bulk=np.array([[1.0, 0.5], [-0.5, 1.0]])))
    with pytest.raises(EigenSolveError):
        generalized_eigs(pencil, 2)


def test_interlacing_under_constraints():
    # constraining more dofs never lowers the ground eigenvalue
    mesh = unit_square_mesh(6, bottom="dirichlet", top="neumann")
    lam_base = generalized_eigs(build_pencil(mesh, CoefficientSet()),
                                1)[0][0]
    extra = build_pencil(mesh, CoefficientSet(),
                         extra_constrained=(mesh.num_vertices - 1,))
    lam_more = generalized_eigs(extra, 1)[0][0]
    assert lam_more >= lam_base - 1e-12


def test_compact_resolvent_witness():
    counts = []
    mesh = unit_square_mesh(4, bottom="dirichlet", top="dynamic",
                            interface_y=0.5)
    for _ in range(3):
        pencil = build_pencil(mesh, CoefficientSet())
        counts.append(count_eigenvalues_below(pencil, 200.0))
        mesh = refine_uniform(mesh)
    assert counts[0] < counts[1] < counts[2]


@pytest.mark.parametrize("lumped", [False, True])
def test_eigenvalue_count_matches_dense_solve(conserving_mesh_8, lumped):
    pencil = build_pencil(conserving_mesh_8, CoefficientSet(), lumped=lumped)
    vals = pencil_eigenvalues_gvd(pencil)
    # bounds halfway between neighbouring eigenvalues, and one above all
    for k in (1, 10, 40, pencil.n_free - 1):
        bound = 0.5 * (vals[k - 1] + vals[k])
        assert count_eigenvalues_below(pencil, bound) == k
    assert count_eigenvalues_below(pencil, 2.0 * vals[-1]) == pencil.n_free


def test_indefinite_block_gram_refused():
    pencil = build_pencil(standard_fixture_mesh(4), CoefficientSet())
    pencil._mtilde = -pencil.mtilde()
    with pytest.raises(EigenSolveError, match="not symmetric positive"):
        count_eigenvalues_below(pencil, 1.0)
    with pytest.raises(EigenSolveError, match="not symmetric positive"):
        fractional_power_apply(pencil, 0.5, np.ones(pencil.n_free))


def test_numerical_range_symmetric():
    mesh = standard_fixture_mesh(6)
    pencil = build_pencil(mesh, CoefficientSet())
    report = numerical_range_check(pencil, samples=300, seed=2)
    assert report.max_tangent <= 1e-12
    assert report.min_real >= -1e-10


def test_numerical_range_skew_bound():
    # brute-force sampling against the skew/symmetric part bound 1/2
    mesh = standard_fixture_mesh(6)
    pencil = build_pencil(mesh, CoefficientSet(
        mu_bulk=np.array([[1.0, 0.5], [-0.5, 1.0]])))
    report = numerical_range_check(pencil, samples=10000, seed=3)
    assert report.min_real >= -1e-10
    assert report.max_tangent <= 0.5 + 1e-6
    assert report.max_tangent > 0.0


@pytest.mark.parametrize("crossover", [250, 10], ids=["dense", "sparse"])
def test_eigs_return_their_checked_residuals(conserving_pencil_8, crossover,
                                             monkeypatch):
    monkeypatch.setattr(spectral, "_DENSE_EIGS_CROSSOVER", crossover)
    pencil = conserving_pencil_8
    mt = pencil.mtilde()
    vals, vecs, residuals = generalized_eigs(pencil, 3)
    assert residuals.shape == (3,) and residuals.max() <= 1e-8
    for lam, v, res in zip(vals, vecs.T, residuals):
        assert res == (np.linalg.norm(pencil.T @ v - lam * (mt @ v))
                       / np.linalg.norm(v))


@pytest.mark.parametrize("crossover", [250, 10], ids=["dense", "sparse"])
@pytest.mark.parametrize("count", [0, -3])
def test_eigs_reject_a_count_below_one(conserving_pencil_8, crossover,
                                       count, monkeypatch):
    monkeypatch.setattr(spectral, "_DENSE_EIGS_CROSSOVER", crossover)
    with pytest.raises(ValueError, match=f"at least 1, got {count}$"):
        generalized_eigs(conserving_pencil_8, count)


def test_eigenvalue_count_rejects_a_nan_bound(conserving_pencil_8):
    with pytest.raises(ValueError, match="got nan$"):
        count_eigenvalues_below(conserving_pencil_8, math.nan)


def test_fractional_power_rejects_a_vector_of_another_size(
        conserving_pencil_8):
    n = conserving_pencil_8.n_free
    for shape in [(n - 1,), (n + 1,), (n, 2)]:
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            fractional_power_apply(conserving_pencil_8, 0.5, np.ones(shape))


def test_fractional_power_consistency(conserving_pencil_8):
    pencil = conserving_pencil_8
    rng = np.random.default_rng(9)
    u = rng.standard_normal(pencil.n_free)
    twice = fractional_power_apply(pencil, 0.5,
                                   fractional_power_apply(pencil, 0.5, u))
    once = fractional_power_apply(pencil, 1.0, u)
    assert np.linalg.norm(twice - once) <= 1e-8 * np.linalg.norm(once)

    mt = pencil.mtilde().toarray()
    direct = u + np.linalg.solve(mt, pencil.T @ u)
    assert np.linalg.norm(once - direct) <= 1e-8 * np.linalg.norm(direct)

    ones = np.ones(pencil.n_free)
    fixed = fractional_power_apply(pencil, 0.37, ones)
    assert np.abs(fixed - 1.0).max() <= 1e-10


def test_fractional_power_commutes_with_pencil(conserving_pencil_8):
    pencil = conserving_pencil_8
    vals, vecs, _ = generalized_eigs(pencil, 4)
    for k in range(4):
        v = vecs[:, k]
        image = fractional_power_apply(pencil, 0.5, v)
        expected = (1.0 + vals[k]) ** 0.5 * v
        assert np.linalg.norm(image - expected) <= 1e-8 * np.linalg.norm(v)


def test_fractional_power_size_limit(monkeypatch):
    mesh = standard_fixture_mesh(4)
    pencil = build_pencil(mesh, CoefficientSet())
    monkeypatch.setattr(spectral, "_DENSE_CALCULUS_LIMIT", 4)
    with pytest.raises(SizeLimitError):
        fractional_power_apply(pencil, 0.5, np.zeros(pencil.n_free))


def probe_pencils(levels=4, n0=4):
    mesh = unit_square_mesh(n0, bottom="neumann", top="dynamic")
    pencils = []
    for _ in range(levels):
        pencils.append(build_pencil(mesh, CoefficientSet()))
        mesh = refine_uniform(mesh)
    return pencils


def test_probe_bounded_at_theta_one():
    rows = fractional_embedding_probe(probe_pencils(), 1.0, 2)
    ratios = [r.ratio for r in rows]
    assert ratios[-1] <= 1.3 * ratios[0]


def test_probe_bounded_above_threshold():
    # d = 2 needs theta > 1/p; take theta = 0.9, p = 2
    rows = fractional_embedding_probe(probe_pencils(), 0.9, 2)
    ratios = [r.ratio for r in rows]
    assert ratios[-1] <= 1.5 * ratios[0]
    assert probe_trend(rows) == "bounded"


def test_probe_grows_below_threshold():
    rows = fractional_embedding_probe(probe_pencils(), 0.05, 2)
    ratios = [r.ratio for r in rows]
    assert ratios[-1] >= 3.0 * ratios[0]
    assert probe_trend(rows) == "growing"


def test_probe_validates_inputs():
    pencils = probe_pencils(levels=2)
    with pytest.raises(ValueError):
        fractional_embedding_probe(pencils, 0.5, 2)
    with pytest.raises(ValueError):
        fractional_embedding_probe(probe_pencils(), 0.5, 3)


@pytest.mark.parametrize("theta", [-1.0, 0.0, 2.5, math.inf, math.nan])
def test_probe_rejects_theta_outside_unit_interval(theta):
    pencils = probe_pencils(levels=3, n0=2)
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
        fractional_embedding_probe(pencils, theta, 2)
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
        fractional_embedding_probe(pencils, theta, 4)


@pytest.fixture(scope="module")
def probe_families():
    """Three-level-or-more pencil families for the batched probe: the
    Neumann/dynamic square, a lumped pencil and a weighted one (segment,
    gamma = 0.5)."""
    weight = WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5)

    def levels(coeff, **kw):
        mesh, out = standard_fixture_mesh(4), []
        for _ in range(3):
            out.append(build_pencil(mesh, coeff, **kw))
            mesh = refine_uniform(mesh)
        return out

    return {"probe": probe_pencils(),
            "lumped": levels(CoefficientSet(), lumped=True),
            "weighted": levels(CoefficientSet(bulk_weight=weight))}


@pytest.fixture(scope="module")
def inverse_powers():
    """``(family, level, theta) -> B^-1`` of the dense oracle
    :func:`oracles.inverse_fractional_power`, computed once."""
    return {}


@pytest.mark.parametrize("family", ["probe", "lumped", "weighted"])
@pytest.mark.parametrize("p", [2, 4, 8])
@pytest.mark.parametrize("theta", [0.05, 0.5, 1.0])
def test_batched_probe_matches_loop(probe_families, inverse_powers, family,
                                    p, theta):
    pencils = probe_families[family]
    got = [r.ratio for r in fractional_embedding_probe(pencils, theta, p)]
    if p == 2:
        loop = fractional_embedding_probe_loop(pencils, theta, p,
                                               n_samples=16, seed=3)
        assert np.abs(np.array(got) - loop).max() <= 1e-13 * np.abs(loop).max()
        return
    # the exact supremum is the largest l^p' row norm of B^-1 Wt^-1/p,
    # p' = p/(p-1); the Hoelder extremal of that row attains it, and no
    # sample of the old sampler exceeds it
    dual = p / (p - 1)
    for level, (pencil, ratio) in enumerate(zip(pencils, got)):
        key = family, level, theta
        if key not in inverse_powers:
            inverse_powers[key] = inverse_fractional_power(pencil, theta)
        wt = np.asarray(pencil.J.T @ pencil.lumped_block_weights()).ravel()
        scaled = inverse_powers[key] / wt ** (1.0 / p)
        norms = (np.abs(scaled) ** dual).sum(axis=1) ** (1.0 / dual)
        assert ratio == pytest.approx(norms.max(), rel=1e-12)
        row = scaled[np.argmax(norms)]
        witness = inverse_powers[key] @ (
            np.sign(row) * np.abs(row) ** (dual - 1.0) / wt ** (1.0 / p))
        assert probe_ratio(pencil, theta, p, witness) == pytest.approx(
            ratio, rel=1e-12)
        samples = probe_sample_ratios_loop(pencil, theta, p, 200, seed=level)
        assert ratio >= max(samples) * (1 - 1e-12)


@pytest.mark.parametrize("theta", [0.05, 0.5, 1.0])
def test_probe_samples_below_exact_supremum(probe_families, theta):
    for pencil in probe_families["weighted"]:
        sup = fractional_embedding_probe([pencil] * 3, theta, 2)[0].ratio
        assert sup == pytest.approx(exact_l2_supremum_gemm(pencil, theta),
                                    rel=1e-13)
        samples = probe_sample_ratios_loop(pencil, theta, 2, 200, seed=5)
        assert max(samples) <= sup * (1 + 1e-12)


def test_probe_draws_no_samples(monkeypatch):
    # every p reports the exact supremum, so no sample is drawn
    pencils = probe_pencils(levels=3)
    exact = {p: fractional_embedding_probe(pencils, 0.5, p) for p in (2, 4, 8)}

    def no_draws(seed=None):
        raise AssertionError("the probe drew samples")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for p, rows in exact.items():
        assert fractional_embedding_probe(pencils, 0.5, p) == rows


@pytest.mark.parametrize("theta", [0.05, 0.5, 1.0])
def test_exact_supremum_bruteforce(theta):
    # sup_u ||u||_inf / ||B u||_l2 = sqrt(max_i (B^-1 G^-1 B^-T)_ii) with
    # B = (I + Mt^-1 T)^theta and G = J^T W J the lumped block Gram
    mesh = unit_square_mesh(2, bottom="neumann", top="dynamic")
    pencils = [build_pencil(mesh, CoefficientSet())]
    for _ in range(2):
        mesh = refine_uniform(mesh)
        pencils.append(build_pencil(mesh, CoefficientSet()))
    rows = fractional_embedding_probe(pencils, theta, 2)
    for pencil, row in zip(pencils, rows):
        mt = pencil.mtilde().toarray()
        gen = np.eye(pencil.n_free) + np.linalg.solve(mt, pencil.T.toarray())
        b_inv = np.linalg.inv(
            np.real(scipy.linalg.fractional_matrix_power(gen, theta)))
        w = pencil.lumped_block_weights()
        jay = pencil.J.toarray()
        gram = jay.T @ (w[:, None] * jay)
        diag = np.einsum("ij,ij->i", b_inv, np.linalg.solve(gram, b_inv.T).T)
        assert row.ratio == pytest.approx(np.sqrt(diag.max()), rel=1e-11)


def test_theta_one_supremum_without_eigenvectors():
    # the spectral workload's probe ladder, up to 1,640 dofs
    mesh, pencils = standard_fixture_mesh(10), []
    for _ in range(3):
        pencils.append(build_pencil(mesh, CoefficientSet()))
        mesh = refine_uniform(mesh)
    assert pencils[-1].n_free == 1640
    rows = fractional_embedding_probe(pencils, 1.0, 2)
    for pencil, row in zip(pencils, rows):
        assert row.ratio == pytest.approx(
            exact_l2_supremum_theta_one(pencil), rel=1e-11)


def test_trace_probe_bounded_case_b():
    weight = WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5)
    sups = []
    for n in (8, 16, 32):
        res = trace_norm_probe(build_pencil(
            standard_fixture_mesh(n), CoefficientSet(bulk_weight=weight)),
            n_samples=40)
        assert res.max_sampled_ratio <= res.sup_ratio * (1 + 1e-9)
        sups.append(res.sup_ratio)
    assert sups[1] <= 1.10 * sups[0]
    assert sups[2] <= 1.10 * sups[1]


def test_dense_eigensolve_refuses_fewer_pairs_than_asked():
    # on this overflowed stiffness LAPACK's dsyevr returns no pair at all
    # for a subset of three, and reports no error
    pencil = build_pencil(standard_fixture_mesh(4), CoefficientSet())
    with np.errstate(over="ignore"):
        stiffness = pencil.T * 1e308
    with pytest.raises(EigenSolveError,
                       match="returned 0 of the 3 eigenvalues asked for"):
        spectral._dense_eigh(pencil.mtilde(), stiffness, subset=(0, 2),
                             vectors=True)
