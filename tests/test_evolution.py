import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._sparsetools as sparsetools

from formheat.assembly import (BlockField, CoefficientSet, Factorization,
                               build_pencil, project_initial_data)
from formheat.errors import ConsistencyError, SolveError
from formheat.evolution import (ThetaStepper,
                                TimeSteppingConfig, evolve,
                                recover_interface_flux, steady_solve,
                                theta_step)
from formheat.geometry import refine_uniform
from formheat.model_problems import (ManufacturedSolution, nodal_full_vector,
                                     standard_fixture_mesh, unit_square_mesh)


class ScalarPencil:
    """One-dof stand-in: relaxation zeta, stiffness a."""

    def __init__(self, zeta, a):
        self.T = sp.csr_matrix(np.array([[a]], dtype=float))
        self.J = sp.identity(1, format="csr")
        self.M_blk = sp.csr_matrix(np.array([[zeta]], dtype=float))
        self._mt = sp.csr_matrix(np.array([[zeta]], dtype=float))

    def mtilde(self):
        return self._mt

    def factorization(self, key, build):
        return Factorization(build())


def test_scalar_implicit_euler():
    zeta, a, dt = 2.0, 3.0, 0.1
    pencil = ScalarPencil(zeta, a)
    cfg = TimeSteppingConfig(dt=dt, t_end=dt, theta=1.0)
    u1 = theta_step(pencil, np.array([1.0]), None, cfg)
    assert u1[0] == pytest.approx(1.0 / (1.0 + dt * a / zeta), rel=1e-14)


def test_scalar_trapezoidal():
    zeta, a, dt = 1.5, 2.0, 0.05
    pencil = ScalarPencil(zeta, a)
    cfg = TimeSteppingConfig(dt=dt, t_end=dt, theta=0.5)
    u1 = theta_step(pencil, np.array([1.0]), None, cfg)
    expected = (1.0 - 0.5 * dt * a / zeta) / (1.0 + 0.5 * dt * a / zeta)
    assert u1[0] == pytest.approx(expected, rel=1e-14)


def test_theta_range_enforced():
    with pytest.raises(ValueError):
        TimeSteppingConfig(dt=0.1, t_end=1.0, theta=0.3)
    with pytest.raises(ValueError):
        TimeSteppingConfig(dt=0.1, t_end=1.0, theta=1.2)
    with pytest.raises(ValueError):
        TimeSteppingConfig(dt=0.3, t_end=1.0).n_steps  # not a multiple


def test_constant_state_is_equilibrium(conserving_pencil_8):
    pencil = conserving_pencil_8
    cfg = TimeSteppingConfig(dt=0.02, t_end=0.2, theta=1.0)
    u0 = BlockField.from_functions(pencil.mesh, pencil.dofmap, 1.0, 1.0, 1.0)
    report = evolve(pencil, u0, None, cfg)
    assert np.abs(report.final.bulk - 1.0).max() <= 1e-12
    assert np.ptp(report.mass) <= 1e-12 * abs(report.mass[0])
    assert np.ptp(report.energy) <= 1e-11 * abs(report.energy[0])
    assert np.ptp(report.supnorm) <= 1e-12


def test_energy_monotone_backward_euler(conserving_pencil_8):
    pencil = conserving_pencil_8
    rng = np.random.default_rng(4)
    raw = BlockField(rng.uniform(0, 1, pencil.dofmap.n_free),
                     rng.uniform(0, 1, pencil.dofmap.n_gd),
                     rng.uniform(0, 1, pencil.dofmap.n_sigma))
    cfg = TimeSteppingConfig(dt=0.01, t_end=0.5, theta=1.0)
    report = evolve(pencil, raw, None, cfg)
    energies = np.sqrt(report.energy)
    assert np.all(np.diff(energies) <= 1e-12)


def test_forcing_sampled_at_intermediate_level():
    # du/dt = f(t) on one dof: theta sampling reproduces the midpoint rule
    pencil = ScalarPencil(1.0, 0.0)
    cfg = TimeSteppingConfig(dt=0.2, t_end=1.0, theta=0.5)
    forcing = lambda t: BlockField(np.array([np.cos(t)]), np.zeros(0),
                                   np.zeros(0))
    stepper = ThetaStepper(pencil, cfg)
    u = np.array([0.0])
    for n in range(cfg.n_steps):
        u = stepper.step(u, forcing((n + cfg.theta) * cfg.dt))
    midpoint = sum(np.cos((n + 0.5) * cfg.dt) * cfg.dt for n in range(5))
    assert u[0] == pytest.approx(midpoint, rel=1e-13)


def test_constant_forcing_field_equals_its_callable(conserving_pencil_8):
    pencil = conserving_pencil_8
    cfg = TimeSteppingConfig(dt=0.05, t_end=0.2, theta=0.5)
    u0 = BlockField.from_functions(pencil.mesh, pencil.dofmap, 1.0, 1.0, 1.0)
    f = BlockField.from_functions(pencil.mesh, pencil.dofmap,
                                  lambda x: x[:, 0], 2.0, -1.0)
    constant = evolve(pencil, u0, f, cfg)
    assert np.array_equal(constant.final_vector,
                          evolve(pencil, u0, lambda t: f, cfg).final_vector)
    assert not np.array_equal(constant.final_vector,
                              evolve(pencil, u0, None, cfg).final_vector)


@pytest.mark.parametrize("forcing", [1.0, "f", np.zeros(3)],
                         ids=["number", "string", "array"])
def test_forcing_of_another_type_is_a_type_error(conserving_pencil_8,
                                                 forcing):
    pencil = conserving_pencil_8
    u0 = BlockField.from_functions(pencil.mesh, pencil.dofmap, 1.0, 1.0, 1.0)
    with pytest.raises(TypeError, match="forcing must be None, a BlockField"):
        evolve(pencil, u0, forcing, TimeSteppingConfig(dt=0.1, t_end=0.2))


def test_time_order_theta_one_and_half():
    mesh = standard_fixture_mesh(8)
    pencil = build_pencil(mesh, CoefficientSet())
    ms = ManufacturedSolution()
    t_end = 0.4

    def run(theta, dt):
        cfg = TimeSteppingConfig(dt=dt, t_end=t_end, theta=theta)
        return evolve(pencil, ms.initial(pencil), ms.forcing(pencil),
                      cfg).final_vector

    ref = run(0.5, t_end / 512)
    mt = pencil.mtilde()

    for theta, expected_rate, window in ((1.0, 1.0, 0.25),
                                         (0.5, 2.0, 0.35)):
        errs = []
        for n in (8, 16, 32):
            diff = run(theta, t_end / n) - ref
            errs.append(np.sqrt(diff @ (mt @ diff)))
        rates = [np.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
        for rate in rates:
            assert abs(rate - expected_rate) <= window, (theta, rates)


def test_flux_recovery_tent():
    mesh = unit_square_mesh(8, bottom="dirichlet", top="dirichlet",
                            interface_y=0.5)
    pencil = build_pencil(mesh, CoefficientSet())
    verts = mesh.vertices[pencil.dofmap.free_vertices]
    u = np.minimum(verts[:, 1], 1.0 - verts[:, 1])
    jump = recover_interface_flux(pencil, u)
    assert np.abs(np.abs(jump) - 2.0).max() <= 1e-10


def test_flux_recovery_zero_state(std_pencil_8):
    pencil = std_pencil_8
    jump = recover_interface_flux(pencil, np.zeros(pencil.n_free))
    assert np.abs(jump).max() == 0.0


def test_flux_recovery_smooth_refinement():
    # globally smooth profile: recovered jump is consistency error, O(h)
    ms = ManufacturedSolution()
    t = 0.0
    maxima = []
    for n in (8, 16, 32):
        mesh = standard_fixture_mesh(n)
        pencil = build_pencil(mesh, CoefficientSet())
        verts = mesh.vertices[pencil.dofmap.free_vertices]
        u = ms.u(verts, t)
        # quasi-steady right-hand side: f_bulk - du/dt = -div grad u,
        # and du/dt = -u for this profile
        f = BlockField.from_functions(
            mesh, pencil.dofmap, f_bulk=lambda p: ms.f_bulk(p, t) + ms.u(p, t))
        interior = np.abs(recover_interface_flux(pencil, u, f))
        maxima.append(interior.max())
    assert maxima[1] <= 0.7 * maxima[0]
    assert maxima[2] <= 0.7 * maxima[1]


def test_empty_interface_gives_empty_flux():
    mesh = unit_square_mesh(4)
    pencil = build_pencil(mesh, CoefficientSet())
    jump = recover_interface_flux(pencil, np.zeros(pencil.n_free))
    assert jump.size == 0


def test_solver_failure_carries_residual(conserving_pencil_8):
    pencil = conserving_pencil_8
    cfg = TimeSteppingConfig(dt=1e6, t_end=2e6, theta=1.0, solver_tol=1e-300)
    rng = np.random.default_rng(0)
    raw = BlockField(rng.uniform(0, 1, pencil.dofmap.n_free),
                     rng.uniform(0, 1, pencil.dofmap.n_gd),
                     rng.uniform(0, 1, pencil.dofmap.n_sigma))
    with pytest.raises(SolveError) as failure:
        evolve(pencil, raw, None, cfg)
    residual = failure.value.residual
    assert residual > 0
    message = str(failure.value)
    assert message.startswith("step 1 failed: ")
    assert message.count("residual") == 1
    assert message.endswith(f"(final residual {residual:.3e})")


def test_snapshots_collected(conserving_pencil_8):
    pencil = conserving_pencil_8
    cfg = TimeSteppingConfig(dt=0.05, t_end=0.2, theta=1.0,
                             snapshot_times=(0.1, 0.2))
    u0 = BlockField.from_functions(pencil.mesh, pencil.dofmap, 1.0, 1.0, 1.0)
    report = evolve(pencil, u0, None, cfg)
    assert [t for t, _ in report.snapshots] == [0.1, 0.2]


def test_snapshot_at_zero_is_the_projected_initial_state(conserving_pencil_8):
    pencil = conserving_pencil_8
    raw = _random_block(pencil, 4)
    cfg = TimeSteppingConfig(dt=0.1, t_end=0.2, snapshot_times=(0.0, 0.2))
    report = evolve(pencil, raw, None, cfg)
    (t0, first), (t1, last) = report.snapshots
    assert (t0, t1) == (0.0, 0.2)
    start = BlockField.split(pencil.dofmap,
                             pencil.J @ project_initial_data(raw, pencil))
    for got, want in ((first, start), (last, report.final)):
        np.testing.assert_array_equal(got.stacked(), want.stacked())


@pytest.mark.parametrize("times", [(0.3,), (-0.1, 0.1), (float("nan"),)])
def test_snapshot_outside_the_run_is_rejected(times):
    with pytest.raises(ValueError, match="snapshot times"):
        TimeSteppingConfig(dt=0.1, t_end=0.2, snapshot_times=times)


def _random_block(pencil, seed):
    rng = np.random.default_rng(seed)
    return BlockField(rng.uniform(0, 1, pencil.dofmap.n_free),
                      rng.uniform(0, 1, pencil.dofmap.n_gd),
                      rng.uniform(0, 1, pencil.dofmap.n_sigma))


def test_one_factorization_per_theta_and_dt(monkeypatch):
    pencil = build_pencil(standard_fixture_mesh(8), CoefficientSet())
    factored = []
    real_init = Factorization.__init__

    def counting_init(self, matrix):
        factored.append(matrix.shape)
        real_init(self, matrix)

    monkeypatch.setattr(Factorization, "__init__", counting_init)
    cfg = TimeSteppingConfig(dt=0.01, t_end=0.05, theta=1.0)
    raw = _random_block(pencil, 1)
    report = evolve(pencil, raw, None, cfg)
    assert len(factored) == 2       # projection normal matrix, step matrix
    u = report.final_vector
    for _ in range(3):
        u = theta_step(pencil, u, None, cfg)
    evolve(pencil, raw, None, cfg)
    assert len(factored) == 2
    for dt, theta in ((0.02, 1.0), (0.01, 0.5)):
        step_cfg = TimeSteppingConfig(dt=dt, t_end=dt, theta=theta)
        theta_step(pencil, u, None, step_cfg)
        theta_step(pencil, u, None, step_cfg)
    assert len(factored) == 4


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_evolve_matches_dense_theta_loop(theta):
    pencil = build_pencil(standard_fixture_mesh(8), CoefficientSet())
    raw = _random_block(pencil, 2)
    cfg = TimeSteppingConfig(dt=0.01, t_end=0.2, theta=theta)
    report = evolve(pencil, raw, None, cfg)
    mt = pencil.mtilde().toarray()
    t_mat = pencil.T.toarray()
    u = np.linalg.solve(mt, pencil.J.T @ (pencil.M_blk @ raw.stacked()))
    lhs = mt + theta * cfg.dt * t_mat
    rhs = mt - (1.0 - theta) * cfg.dt * t_mat
    for _ in range(cfg.n_steps):
        u = np.linalg.solve(lhs, rhs @ u)
    assert np.abs(report.final_vector - u).max() <= 1e-12 * np.abs(u).max()
    assert np.all(report.cg_iters == 0)
    assert report.solver["method"] == "direct"
    assert report.solver["backward_error_max"] <= 10 * cfg.solver_tol


@pytest.mark.parametrize("coeff", [
    CoefficientSet(mu_bulk=0.0, mu_gd=0.0, mu_sigma=0.0),   # T = 0
    CoefficientSet(),       # no Dirichlet part: constants span the kernel
])
def test_steady_solve_singular_stiffness(conserving_mesh_8, coeff):
    pencil = build_pencil(conserving_mesh_8, coeff)
    f = BlockField.from_functions(conserving_mesh_8, pencil.dofmap,
                                  1.0, 1.0, 1.0)
    with pytest.raises(SolveError):
        steady_solve(pencil, f)


def test_projection_singular_normal_matrix(conserving_mesh_8):
    pencil = build_pencil(conserving_mesh_8, CoefficientSet(
        zeta_bulk=0.0, zeta_gd=0.0, zeta_sigma=0.0))
    with pytest.raises(ConsistencyError):
        project_initial_data(_random_block(pencil, 3), pencil)


@pytest.mark.parametrize("theta, lumped, forced", [
    (0.5, False, True), (1.0, False, True), (1.0, True, False),
    (0.5, True, True)])
def test_monitors_match_their_definitions(theta, lumped, forced):
    pencil = build_pencil(standard_fixture_mesh(8), CoefficientSet(
        zeta_bulk=lambda p: 1.0 + p[:, 0], zeta_gd=2.0, zeta_sigma=0.5),
                          lumped=lumped)
    ms = ManufacturedSolution()
    dt, n_steps = 0.01, 12
    cfg = TimeSteppingConfig(dt=dt, t_end=n_steps * dt, theta=theta,
                             snapshot_times=tuple(k * dt for k in
                                                  range(n_steps + 1)))
    report = evolve(pencil, ms.initial(pencil),
                    ms.forcing(pencil) if forced else None, cfg)
    assert len(report.snapshots) == n_steps + 1
    for k, (t, field) in enumerate(report.snapshots):
        assert t == report.times[k] == k * dt
        block = field.stacked()
        m_block = pencil.M_blk @ block
        assert report.mass[k] == pytest.approx(m_block.sum(), rel=1e-13)
        assert report.energy[k] == pytest.approx(block @ m_block, rel=1e-13)
        assert report.supnorm[k] == np.abs(block).max()
        assert report.minval[k] == block.min()
    np.testing.assert_array_equal(report.final.stacked(),
                                  report.snapshots[-1][1].stacked())


def test_one_sparse_product_per_step(monkeypatch):
    pencil = build_pencil(standard_fixture_mesh(8), CoefficientSet())
    cfg = TimeSteppingConfig(dt=0.01, t_end=0.05)
    stepper = ThetaStepper(pencil, cfg)
    u = project_initial_data(_random_block(pencil, 5), pencil)
    stepper.observe(u)
    products = []
    for name in ("csr_matvec", "csc_matvec"):
        real = getattr(sparsetools, name)
        monkeypatch.setattr(sparsetools, name, lambda *a, real=real: (
            products.append(a[0]), real(*a))[1])
    for k in range(cfg.n_steps):
        u = stepper.step(u)
        assert len(products) == k + 1
    assert not u.flags.writeable


def test_step_from_a_kept_state_equals_a_fresh_step(conserving_pencil_8):
    pencil = conserving_pencil_8
    forcing = BlockField.from_functions(pencil.mesh, pencil.dofmap,
                                        1.0, -2.0, 0.5)
    for theta in (0.5, 1.0):
        cfg = TimeSteppingConfig(dt=0.02, t_end=0.1, theta=theta)
        stepper = ThetaStepper(pencil, cfg)
        u = project_initial_data(_random_block(pencil, 6), pencil)
        for _ in range(3):
            start = u.copy()
            u = stepper.step(u, forcing)
            fresh = theta_step(pencil, start, forcing, cfg)
            np.testing.assert_array_equal(u, fresh)
            assert start.flags.writeable     # the caller's array is untouched


def test_stepper_rejects_a_trace_map_that_mixes_dofs():
    pencil = ScalarPencil(1.0, 2.0)
    cfg = TimeSteppingConfig(dt=0.1, t_end=0.1)
    for j_mat in (2.0 * sp.identity(1, format="csr"),
                  sp.csr_matrix(np.array([[1.0], [0.5]])),
                  sp.csr_matrix(np.array([[1.0], [0.0]]))):
        pencil.J = j_mat
        pencil.M_blk = sp.identity(j_mat.shape[0], format="csr")
        with pytest.raises(ConsistencyError, match="trace map"):
            ThetaStepper(pencil, cfg)

