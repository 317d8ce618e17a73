"""Theta-scheme time integration on the block space, with invariant monitors.

The semidiscrete system is ``Mt du/dt + T u = J^T M_blk f`` with
``Mt = J^T M_blk J``.  One theta step solves

    (Mt + theta dt T) u+ = (Mt - (1-theta) dt T) u + dt J^T M_blk f,

with the forcing sampled at ``t + theta dt`` to preserve the scheme
order.  Monitored per step: relaxation-weighted total mass, squared
block norm, sup norm, and minimum value.  Quasi-steady interface flux
jumps are recovered variationally from the bulk residual.

Steps are inherently sequential.  The step matrix is factored once per
pencil and ``(theta, dt)``; within a step there are matrix-vector
products and the two triangular solves of that sparse LU factorization.
The report is written by the driver alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (BlockField, Factorization, _surface_block_dofs,
                       _surface_plain_mass)
from .errors import SolveError
from .geometry.surface import INTERFACE


@dataclass
class TimeSteppingConfig:
    """Parameters of a theta-scheme run.

    ``theta`` must lie in [1/2, 1] (the A-stable range).  Each step is
    two triangular solves with the sparse LU factorization of the step
    matrix, computed once and reused.  ``solver_tol`` (positive) bounds
    the per-step normwise backward error by ``10 * solver_tol``.
    Each of the ``snapshot_times``, which lie in [0, t_end], records the
    state at the nearest time level (the earlier one on a tie).
    """

    dt: float
    t_end: float
    theta: float = 1.0
    solver_tol: float = 1e-12
    snapshot_times: tuple = ()

    def __post_init__(self):
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [1/2, 1]")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if not self.solver_tol > 0:
            raise ValueError("solver_tol must be positive")
        if not all(-1e-12 <= t <= self.t_end + 1e-12
                   for t in self.snapshot_times):
            raise ValueError("snapshot times must lie in [0, t_end]")

    @property
    def n_steps(self):
        n = int(round(self.t_end / self.dt))
        if abs(n * self.dt - self.t_end) > 1e-9 * max(self.t_end, 1.0):
            raise ValueError("t_end must be an integer multiple of dt")
        return n


@dataclass
class EvolutionReport:
    """Per-step monitor trails and the final block state."""

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray           # squared weighted block norm
    supnorm: np.ndarray
    minval: np.ndarray
    cg_iters: np.ndarray         # 0 for every direct solve
    final: BlockField
    final_vector: np.ndarray
    snapshots: list = field(default_factory=list)
    solver: dict = field(default_factory=dict)   # method, factor_nnz, ...

    def to_csv(self, path):
        """Write the monitor table (one row per time level)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("step,time,mass,energy,supnorm,minval,cg_iters\n")
            for k in range(len(self.times)):
                fh.write(f"{k},{float(self.times[k])!r},{float(self.mass[k])!r},"
                         f"{float(self.energy[k])!r},{float(self.supnorm[k])!r},"
                         f"{float(self.minval[k])!r},{int(self.cg_iters[k])}\n")


def _factorization(pencil, key, build):
    """The pencil's cached factorization of ``build()``; stand-in pencils
    without a cache get a fresh one."""
    cached = getattr(pencil, "factorization", None)
    if cached is None:
        return Factorization(build())
    return cached(key, build)


class ThetaStepper:
    """Theta-step solver for a fixed pencil and step size.

    The step matrix ``Mt + theta dt T`` is factored once per pencil and
    ``(theta, dt)``, and every stepper for that pair shares it.  Each step
    is checked by one extra matrix-vector product: its normwise backward
    error must stay within ``10 * solver_tol``.
    """

    method = "direct"

    def __init__(self, pencil, cfg):
        self.pencil = pencil
        self.cfg = cfg
        mt = pencil.mtilde()
        theta, dt = cfg.theta, cfg.dt
        self.lu = _factorization(pencil, ("step", theta, dt),
                                 lambda: mt + theta * dt * pencil.T)
        self.b_mat = (mt - (1.0 - theta) * dt * pencil.T).tocsr()
        self.backward_error_max = 0.0

    def step(self, u, fbar=None):
        """Advance one step; returns the new state."""
        rhs = self.b_mat @ u
        if fbar is not None:
            rhs = rhs + self.cfg.dt * (self.pencil.J.T
                                       @ (self.pencil.M_blk @ fbar.stacked()))
        u_new = self.lu.solve(rhs)
        error = self.lu.backward_error(u_new, rhs)
        if not error <= 10.0 * self.cfg.solver_tol:
            raise SolveError("backward error of the step solve above "
                             "10 * solver_tol", residual=error)
        self.backward_error_max = max(self.backward_error_max, error)
        return u_new


def theta_step(pencil, u, f, cfg):
    """Single theta step from state ``u`` with forcing ``f`` (a BlockField
    sampled at the intermediate time level, or None).  Reuses the
    pencil's factorization for ``(cfg.theta, cfg.dt)``."""
    stepper = ThetaStepper(pencil, cfg)
    return stepper.step(np.asarray(u, dtype=float), f)


def _resolve_forcing(forcing):
    if forcing is None:
        return lambda t: None
    if isinstance(forcing, BlockField):
        return lambda t: forcing
    if callable(forcing):
        return forcing
    raise TypeError("forcing must be None, a BlockField, or a callable of t")


def evolve(pencil, u0_raw, forcing, cfg):
    """Run the theta scheme from raw initial block data.

    The initial data components need not be related; they are projected
    onto the trace range in the weighted block norm first.  Returns an
    :class:`EvolutionReport` with monitors at every time level.
    """
    from .assembly import project_initial_data

    u = project_initial_data(u0_raw, pencil)
    stepper = ThetaStepper(pencil, cfg)
    get_f = _resolve_forcing(forcing)
    n_steps = cfg.n_steps

    times = np.zeros(n_steps + 1)
    mass = np.zeros(n_steps + 1)
    energy = np.zeros(n_steps + 1)
    supnorm = np.zeros(n_steps + 1)
    minval = np.zeros(n_steps + 1)

    snapshots = []
    snap_left = sorted(float(t) for t in cfg.snapshot_times)

    def record(k, t, vec):
        times[k] = t
        block = np.asarray(pencil.J @ vec).ravel()
        m_block = pencil.M_blk @ block
        mass[k] = float(np.sum(m_block))
        energy[k] = float(block @ m_block)
        supnorm[k] = float(np.abs(block).max()) if block.size else 0.0
        minval[k] = float(block.min()) if block.size else 0.0
        while snap_left and snap_left[0] <= t + 0.5 * cfg.dt:
            snapshots.append((snap_left.pop(0),
                              BlockField.split(pencil.dofmap, block)))

    record(0, 0.0, u)
    for n in range(n_steps):
        t_mid = (n + cfg.theta) * cfg.dt
        try:
            u = stepper.step(u, get_f(t_mid))
        except SolveError as exc:
            raise SolveError(f"step {n + 1} failed: {exc}",
                             residual=exc.residual) from exc
        t_next = (n + 1) * cfg.dt
        record(n + 1, t_next, u)

    final = BlockField.split(pencil.dofmap, pencil.J @ u)
    solver = {"method": stepper.method, "factor_nnz": stepper.lu.nnz,
              "backward_error_max": stepper.backward_error_max}
    return EvolutionReport(times=times, mass=mass, energy=energy,
                           supnorm=supnorm, minval=minval,
                           cg_iters=np.zeros(n_steps + 1, dtype=int),
                           final=final, final_vector=u, snapshots=snapshots,
                           solver=solver)


def steady_solve(pencil, f):
    """Solve the stationary problem ``T u = J^T M_blk_plain f``.

    Requires enough Dirichlet constraints for the stiffness to be
    invertible.
    """
    rhs = pencil.J.T @ (pencil.M_blk_plain @ f.stacked())
    u = pencil.factorization("T", lambda: pencil.T).solve(rhs)
    residual = np.linalg.norm(pencil.T @ u - rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    if not np.all(np.isfinite(u)) or residual > 1e-8 * scale:
        raise SolveError("stationary solve failed", residual=residual / scale)
    return u


def recover_interface_flux(pencil, mesh, u, f=None):
    """Variational recovery of the conormal flux jump on the interface.

    For each interface node hat function phi the bulk residual
    ``t_bulk(u, phi) - (f_bulk, phi)`` equals the integral of the
    conormal outflow sum against phi, for quasi-steady ``u``.
    Mass-normalizing with the interface edge mass matrix gives nodal
    values of

        (nu . mu grad u)|minus  -  (nu . mu grad u)|plus,

    where ``nu`` is the stored interface normal (edge tangent rotated
    +90 degrees) and ``plus`` the side it points into.  Equivalently the
    sum of conormal outflows of the two adjacent subdomains.  Away from
    interface endpoints this converges to the jump driving the interface
    equation.

    Returns per-interface-node scalars (empty when there is none).
    """
    dofmap = pencil.dofmap
    if dofmap.n_sigma == 0:
        return np.zeros(0)
    n = pencil.n_free
    residual = pencil.K_bulk @ np.asarray(u, dtype=float)
    if f is not None:
        m_bulk_plain = pencil.M_blk_plain[:n, :n]
        residual = residual - m_bulk_plain @ f.bulk
    r_sigma = pencil.J[n + dofmap.n_gd:] @ residual

    def interface_mass():
        smesh = pencil.smeshes[INTERFACE]
        return _surface_plain_mass(
            smesh, _surface_block_dofs(dofmap, smesh, INTERFACE),
            dofmap.n_sigma)

    lu = pencil.factorization(("M_plain", INTERFACE), interface_mass)
    return lu.solve(r_sigma)
