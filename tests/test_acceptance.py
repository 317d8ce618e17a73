"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success; a failed assertion
surfaces as the usual pytest FAILED line for that criterion.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import form_fixture_coefficients
from oracles import FormOracle
from formheat.assembly import BlockField, CoefficientSet, build_pencil
from formheat.evolution import TimeSteppingConfig, evolve
from formheat.geometry import Points, Polyline, SurfaceChart, refine_uniform, rotation, transition
from formheat.model_problems import (ManufacturedSolution, block_l2_error,
                                     standard_fixture_mesh, unit_square_mesh)
from formheat.spectral import (embedding_exponents, generalized_eigs,
                               j_ellipticity_constant, trace_norm_probe)
from formheat.weights import WeightSpec, muckenhoupt_lower_bound_scan

INF = math.inf


def _report(number, name):
    print(f"\nACCEPTANCE {number:02d} PASS: {name}")


def test_c01_manufactured_convergence():
    t_start = time.perf_counter()
    ms = ManufacturedSolution()
    t_end = 0.2
    errors = []
    for n in (4, 8, 16, 32):
        mesh = standard_fixture_mesh(n)
        pencil = build_pencil(mesh, CoefficientSet())
        h2 = (1.0 / n) ** 2
        n_steps = int(round(t_end / (0.2 * h2)))
        cfg = TimeSteppingConfig(dt=t_end / n_steps, t_end=t_end, theta=1.0)
        report = evolve(pencil, ms.initial(pencil), ms.forcing(pencil), cfg)
        errors.append(block_l2_error(pencil, report.final_vector,
                                     ms.u, ms.u, ms.u, t=t_end))
    rates = [np.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]
    elapsed = time.perf_counter() - t_start
    assert all(rate >= 1.8 for rate in rates), rates
    assert elapsed < 60.0
    _report(1, f"manufactured convergence, rates {np.round(rates, 3)}, "
               f"{elapsed:.1f}s")


def test_c02_mass_conservation():
    mesh = unit_square_mesh(8, bottom="neumann", top="dynamic",
                            interface_y=0.5)
    coeff = CoefficientSet(zeta_bulk=1.0, zeta_gd=2.0, zeta_sigma=1.5)
    pencil = build_pencil(mesh, coeff)
    rng = np.random.default_rng(12)
    raw = BlockField(rng.uniform(0, 1, pencil.dofmap.n_free),
                     rng.uniform(0, 1, pencil.dofmap.n_gd),
                     rng.uniform(0, 1, pencil.dofmap.n_sigma))
    worst = 0.0
    for theta in (0.5, 0.75, 1.0):
        cfg = TimeSteppingConfig(dt=0.01, t_end=2.0, theta=theta)
        report = evolve(pencil, raw, None, cfg)
        assert len(report.times) == 201
        drift = np.abs(report.mass - report.mass[0]).max() / abs(report.mass[0])
        worst = max(worst, drift)
        assert drift <= 1e-10, (theta, drift)
    _report(2, f"mass conservation, worst relative drift {worst:.2e}")


def test_c03_contractivity_and_positivity():
    mesh = unit_square_mesh(8, bottom="neumann", top="dynamic",
                            interface_y=0.5)
    pencil = build_pencil(mesh, CoefficientSet(), lumped=True)
    cfg = TimeSteppingConfig(dt=0.005, t_end=1.0, theta=1.0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        raw = BlockField(rng.uniform(0, 1, pencil.dofmap.n_free),
                         rng.uniform(0, 1, pencil.dofmap.n_gd),
                         rng.uniform(0, 1, pencil.dofmap.n_sigma))
        report = evolve(pencil, raw, None, cfg)
        assert len(report.times) == 201
        assert np.all(np.diff(report.supnorm) <= 1e-12), seed
        assert np.all(report.minval >= -1e-12), seed
    _report(3, "sup-norm contraction and positivity, 5 seeds x 200 steps")


def test_c04_energy_dissipation():
    mesh = standard_fixture_mesh(8)
    fixtures = [
        ("symmetric", CoefficientSet()),
        ("nonsymmetric", CoefficientSet(
            mu_bulk=np.array([[1.0, 0.4], [-0.4, 1.0]]))),
    ]
    tol = 1e-12
    for name, coeff in fixtures:
        pencil = build_pencil(mesh, coeff)
        rng = np.random.default_rng(5)
        raw = BlockField(rng.uniform(0, 1, pencil.dofmap.n_free),
                         rng.uniform(0, 1, pencil.dofmap.n_gd),
                         rng.uniform(0, 1, pencil.dofmap.n_sigma))
        cfg = TimeSteppingConfig(dt=0.01, t_end=1.0, theta=1.0, solver_tol=tol)
        report = evolve(pencil, raw, None, cfg)
        norms = np.sqrt(report.energy)
        assert np.all(np.diff(norms) <= 10 * tol), name
    _report(4, "weighted block norm nonincreasing, symmetric and "
               "nonsymmetric bulk coefficients")


def test_c05_form_correctness():
    mesh = standard_fixture_mesh(8)
    rng = np.random.default_rng(31)
    worst = 0.0
    for name, coeff in form_fixture_coefficients():
        pencil = build_pencil(mesh, coeff)
        oracle = FormOracle(pencil)
        for _ in range(50):
            u = rng.standard_normal(pencil.n_free)
            v = rng.standard_normal(pencil.n_free)
            assembled = float(v @ (pencil.T @ u))
            reference = oracle.value(u, v)
            scale = max(abs(reference),
                        1e-12 * np.linalg.norm(u) * np.linalg.norm(v))
            rel = abs(assembled - reference) / scale
            worst = max(worst, rel)
            assert rel <= 1e-10, name
    _report(5, f"form matches element-loop oracle on 4 fixtures, worst "
               f"relative gap {worst:.2e}")


def test_c06_j_ellipticity():
    mesh = standard_fixture_mesh(8)
    fine = refine_uniform(mesh)
    summary = []
    for name, coeff in form_fixture_coefficients():
        c_coarse = j_ellipticity_constant(build_pencil(mesh, coeff))
        c_fine = j_ellipticity_constant(build_pencil(fine, coeff))
        assert c_coarse > 0 and c_fine > 0, name
        assert c_fine >= 0.5 * c_coarse, (name, c_coarse, c_fine)
        assert c_fine <= 1.5 * c_coarse, (name, c_coarse, c_fine)
        summary.append(f"{name}: {c_coarse:.3f}->{c_fine:.3f}")
    _report(6, "coercivity constants positive and refinement-stable "
               f"({'; '.join(summary)})")


def test_c07_dyadic_lower_bound():
    point = WeightSpec(Points((0.0, 0.0)), 1.0)
    res_point = muckenhoupt_lower_bound_scan(point, 6, (-1, -1, 1, 1))
    assert res_point.c_min > 0
    on_s = [s["min_on_s"] for s in res_point.level_stats]
    assert all(v is not None for v in on_s)
    for v in on_s[1:]:
        assert abs(v - on_s[0]) <= 1e-3 * on_s[0]

    segment = WeightSpec(Polyline([(-1.0, 0.0), (1.0, 0.0)]), 0.5)
    res_seg = muckenhoupt_lower_bound_scan(segment, 6, (-1, -1, 1, 1))
    assert res_seg.c_min > 0
    on_s = [s["min_on_s"] for s in res_seg.level_stats]
    for v in on_s[1:]:
        assert abs(v - on_s[0]) <= 1e-3 * on_s[0]
    target = np.sqrt(2.0) / 3.0
    for v in on_s:
        assert abs(v - target) <= 1e-4 * target
    _report(7, f"dyadic lower bounds: point {res_point.c_min:.5f}, "
               f"segment {res_seg.c_min:.5f} (= sqrt(2)/3)")


def test_c08_exponent_table():
    rep = embedding_exponents(2, 0)
    assert (rep.r_omega, rep.r_tr, rep.r_tr_gamma, rep.r_tr_star,
            rep.r0) == (INF, INF, INF, INF, INF)

    rep = embedding_exponents(3, 0)
    assert rep.r_omega == Fraction(6)
    assert rep.r_tr == Fraction(4)
    assert rep.r_tr_star is INF
    assert not rep.is_active("r_tr_gamma")
    assert rep.r0 == Fraction(4)

    rep = embedding_exponents(3, 0.5, case="B")
    assert rep.r_omega == Fraction(4)
    assert rep.r_tr_gamma == Fraction(8, 3)
    assert not rep.is_active("r_tr")
    assert not rep.is_active("r_tr_star")
    assert rep.r0 == Fraction(8, 3)

    # nondegenerate limiting condition is exactly 2 theta > d / p
    for d in (2, 3, 4, 5):
        rep = embedding_exponents(d, 0, surface_uniformly_positive=True)
        for p in (3, 4, 6):
            assert rep.theta_threshold(p) == Fraction(d, 2 * p)
    _report(8, "exponent catalogue exact in rational arithmetic")


def test_c09_spectrum():
    target = 2 * np.pi ** 2
    lams = []
    for n in (4, 8, 16, 32):
        mesh = unit_square_mesh(n, bottom="dirichlet", top="dirichlet",
                                left="dirichlet", right="dirichlet")
        pencil = build_pencil(mesh, CoefficientSet())
        lams.append(float(generalized_eigs(pencil, 1)[0][0]))
    assert all(a > b for a, b in zip(lams, lams[1:]))
    assert all(lam > target for lam in lams)
    assert abs(lams[-1] - target) <= 0.02 * target

    neumann = build_pencil(unit_square_mesh(8, bottom="neumann",
                                            top="neumann"),
                           CoefficientSet())
    vals, vecs, _ = generalized_eigs(neumann, 1)
    assert abs(vals[0]) <= 1e-10
    v0 = vecs[:, 0]
    assert np.abs(v0 / v0[0] - 1.0).max() <= 1e-10
    _report(9, f"Dirichlet ground eigenvalue {lams[-1]:.4f} -> 2 pi^2 "
               f"({100 * (lams[-1] / target - 1):.2f}%), Neumann kernel exact")


def test_c10_trace_norm_boundedness():
    weight = WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5)
    sups = []
    for n in (8, 16, 32):
        res = trace_norm_probe(build_pencil(
            standard_fixture_mesh(n), CoefficientSet(bulk_weight=weight)),
            n_samples=60)
        sups.append(res.sup_ratio)
    assert sups[1] <= 1.10 * sups[0], sups
    assert sups[2] <= 1.10 * sups[1], sups

    # outside the admissible range: reported, not asserted
    wild = WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 1.5)
    outside = [trace_norm_probe(build_pencil(
                   standard_fixture_mesh(n), CoefficientSet(bulk_weight=wild)),
                   n_samples=60).sup_ratio
               for n in (8, 16, 32)]
    _report(10, f"trace ratios bounded for gamma=0.5 {np.round(sups, 4)}; "
                f"gamma=1.5 observed {np.round(outside, 4)} (no claim)")


def test_c11_chart_independence():
    rng = np.random.default_rng(77)
    checked = 0
    worst = 0.0
    while checked < 1000:
        # random Lipschitz graph polyline seen through two frames
        dx = rng.uniform(0.3, 1.0, 6)
        xs = np.concatenate([[0.0], np.cumsum(dx)])
        hs = np.concatenate([[0.0], np.cumsum(rng.uniform(-0.6, 0.6, 6) * dx)])
        pts = np.stack([xs, hs], axis=1)
        base = rotation(rng.uniform(0, 2 * np.pi))
        pts = pts @ base.T + rng.normal(size=2)
        chart_a = SurfaceChart.from_polyline(pts, q=base)
        chart_b = SurfaceChart.from_polyline(
            pts, q=base @ rotation(rng.uniform(-0.45, 0.45)),
            shift=rng.normal(size=2))
        values = rng.standard_normal(len(pts))
        lo, hi = chart_a.interval
        for y_a in rng.uniform(lo, hi, 25):
            if not chart_a.is_regular(y_a):
                continue
            y_b, _ = transition(chart_a, chart_b, y_a)
            if not chart_b.is_regular(y_b):
                continue
            va = chart_a.p1_surface_gradient(values, y_a)
            vb = chart_b.p1_surface_gradient(values, y_b)
            gap = np.linalg.norm(va - vb) / max(np.linalg.norm(va), 1e-30)
            worst = max(worst, gap)
            assert gap <= 1e-10
            checked += 1
    _report(11, f"surface gradients chart-independent at {checked} points, "
                f"worst relative gap {worst:.2e}")
