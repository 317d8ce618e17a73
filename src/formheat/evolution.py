"""Theta-scheme time integration on the block space, with invariant monitors.

The semidiscrete system is ``Mt du/dt + T u = J^T M_blk f`` with
``Mt = J^T M_blk J``.  One theta step solves

    (Mt + theta dt T) u+ = (Mt - (1-theta) dt T) u + dt J^T M_blk f,

with the forcing sampled at ``t + theta dt`` to preserve the scheme
order.  Monitored per step: relaxation-weighted total mass, squared
block norm, sup norm, and minimum value.  Quasi-steady interface flux
jumps are recovered variationally from the bulk residual.

Steps are inherently sequential.  The step matrix is factored once per
pencil and ``(theta, dt)``: by band Cholesky when it is symmetric and
its reordered band is narrow enough, by sparse LU otherwise.  It is the
only matrix a run factors: the initial data are projected by
Jacobi-preconditioned CG on ``Mt`` (``assembly.project_initial_data``),
so one ``evolve`` run builds one factorization.  A step is
the two triangular solves of that factorization plus one sparse product,
of the stacked matrix ``[Mt; dt T]`` with the new state.  That product
gives the next right-hand side, the backward error of the solve and the
monitors; the trace ``J u`` is formed only for snapshots and the final
state.  Only ``evolve`` writes the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import BlockField, project_initial_data
from .errors import ConsistencyError, SolveError
from .geometry.surface import INTERFACE

# most steps a run takes: its monitor trail holds four float64 values per
# time level, 32 bytes, so 10^7 steps keep 320 MB of trail
_MAX_STEPS = 10 ** 7


@dataclass
class TimeSteppingConfig:
    """Parameters of a theta-scheme run.

    ``theta`` must lie in [1/2, 1] (the A-stable range).  Each step is
    two triangular solves with the factorization of the step matrix
    (band Cholesky or sparse LU, see ``assembly.Factorization``),
    computed once and reused, and one sparse product that checks the
    solve.  ``solver_tol`` (finite and positive) bounds the per-step
    normwise backward error by ``10 * solver_tol``.
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
        for name in ("dt", "t_end", "solver_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not all(-1e-12 <= t <= self.t_end + 1e-12
                   for t in self.snapshot_times):
            raise ValueError("snapshot times must lie in [0, t_end]")

    @property
    def n_steps(self):
        """``t_end / dt`` as an integer.  Raises ``ValueError`` when the
        quotient is above ``_MAX_STEPS`` (infinite included) or is not an
        integer."""
        steps = self.t_end / self.dt
        if not steps <= _MAX_STEPS:
            raise ValueError(f"t_end / dt = {steps} steps is above the "
                             f"limit of {_MAX_STEPS}")
        n = int(round(steps))
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


def _check_trace_map(j_mat, n):
    """Raise unless ``j_mat`` is the n x n identity over rows that each
    hold one 1, so that ``J u`` only repeats entries of ``u``."""
    j_mat = sp.csr_matrix(j_mat)
    if not (j_mat.shape[0] >= n and j_mat.shape[1] == n
            and np.all(np.diff(j_mat.indptr) == 1)
            and np.all(j_mat.data == 1.0)
            and np.array_equal(j_mat.indices[:n], np.arange(n))):
        raise ConsistencyError("trace map is not the bulk identity over "
                               "0/1 selections of bulk dofs")


class ThetaStepper:
    """Theta-step solver for a fixed pencil and step size.

    The step matrix ``Mt + theta dt T`` is factored once per pencil and
    ``(theta, dt)``, and every stepper for that pair shares it.  Each new
    state ``u`` meets one sparse product, with the stacked matrix
    ``[Mt; dt T]``, and everything a step reports comes from it:

    - the next right-hand side ``Mt u - (1-theta) dt T u``;
    - the residual ``Mt u + theta dt T u - rhs`` of the solve that gave
      ``u``, whose normwise backward error
      ``||res|| / (||A|| ||u|| + ||rhs||)`` (infinity norms) must stay
      within ``10 * solver_tol``;
    - the monitors ``(mass, energy, supnorm, minval)`` of ``J u``: the
      energy is ``u . Mt u``, the mass ``c . u`` with
      ``c = J^T M_blk^T 1``, and, since the trace map is checked once to
      be the bulk identity over 0/1 selections, the sup norm and minimum
      are those of ``u``.

    The states the stepper keeps (those ``observe`` takes and ``step``
    returns) are made read-only, so that the next step from one of them
    can reuse its product.
    """

    method = "direct"

    def __init__(self, pencil, cfg):
        self.pencil = pencil
        self.cfg = cfg
        mt = pencil.mtilde()
        theta, dt = cfg.theta, cfg.dt
        self.lu = pencil.factorization(("step", theta, dt),
                                       lambda: mt + theta * dt * pencil.T)
        self._n = n = mt.shape[0]
        _check_trace_map(pencil.J, n)
        self.stacked = sp.vstack([mt, dt * pencil.T], format="csr")
        self.mass_row = pencil.J.T @ (pencil.M_blk.T
                                      @ np.ones(pencil.M_blk.shape[0]))
        self._explicit = 1.0 - theta     # weight of T u in the right side
        self.backward_error_max = 0.0
        self.monitors = None
        self._state = self._rhs = None

    def _apply(self, u):
        """Apply the stacked matrix to the new state ``u``, keep ``u``, its
        next right-hand side and its monitors, and return
        ``Mt u + theta dt T u``."""
        u.flags.writeable = False
        product = self.stacked @ u
        mt_u, dt_tu = product[:self._n], product[self._n:]
        self._rhs = mt_u - self._explicit * dt_tu if self._explicit else mt_u
        self._state = u
        self.monitors = (self.mass_row @ u, u @ mt_u, np.abs(u).max(),
                         u.min())
        return self._rhs + dt_tu

    def observe(self, u):
        """Take ``u`` as the current state and return its monitors
        ``(mass, energy, supnorm, minval)``; ``u`` becomes read-only."""
        self._apply(np.asarray(u, dtype=float))
        return self.monitors

    def step(self, u, fbar=None):
        """Advance one step from ``u``; returns the new state, whose
        monitors are then in ``monitors``."""
        if u is not self._state:
            self._apply(np.array(u, dtype=float))
        rhs = self._rhs
        if fbar is not None:
            rhs = rhs + self.cfg.dt * (self.pencil.J.T
                                       @ (self.pencil.M_blk @ fbar.stacked()))
        u_new = self.lu.solve(rhs)
        residual = self._apply(u_new)
        residual -= rhs
        scale = self.lu.norm * self.monitors[2] + np.abs(rhs).max()
        error = float(np.abs(residual).max() / max(scale, 1e-300))
        if not error <= 10.0 * self.cfg.solver_tol:
            raise SolveError("backward error of the step solve above "
                             "10 * solver_tol", residual=error)
        if error > self.backward_error_max:
            self.backward_error_max = error
        return u_new


def theta_step(pencil, u, f, cfg):
    """Single theta step from state ``u`` with forcing ``f`` (a BlockField
    sampled at the intermediate time level, or None).  Reuses the
    pencil's factorization for ``(cfg.theta, cfg.dt)``."""
    return ThetaStepper(pencil, cfg).step(u, f)


def _resolve_forcing(forcing):
    """The forcing as a callable of t, or None when there is none."""
    if forcing is None:
        return None
    if isinstance(forcing, BlockField):
        return lambda t: forcing
    if callable(forcing):
        return forcing
    raise TypeError("forcing must be None, a BlockField, or a callable of t")


def _finite_monitors(step, monitors):
    """The four monitor scalars of time level ``step``; raises
    :class:`SolveError` naming the step unless all are finite."""
    if not all(map(math.isfinite, monitors)):
        values = ", ".join(map(repr, map(float, monitors)))
        raise SolveError(f"non-finite monitor at step {step}: (mass, energy, "
                         f"supnorm, minval) = ({values})")
    return monitors


def evolve(pencil, u0_raw, forcing, cfg):
    """Run the theta scheme from raw initial block data.

    The initial data components need not be related; they are projected
    onto the trace range in the weighted block norm first, by
    Jacobi-preconditioned CG (:func:`~formheat.assembly.project_initial_data`),
    so the step matrix is the one matrix the run factors.  Returns an
    :class:`EvolutionReport` with monitors at every time level; the
    trace ``J u`` is formed only at snapshot times and at the end.
    Raises :class:`SolveError` naming the step at the first time level
    whose monitors are not all finite.
    """
    u = project_initial_data(u0_raw, pencil)
    stepper = ThetaStepper(pencil, cfg)
    get_f = _resolve_forcing(forcing)
    n_steps, dt, theta = cfg.n_steps, cfg.dt, cfg.theta
    times = np.arange(n_steps + 1) * dt

    # each snapshot time records the first level within half a step
    snap_times = sorted(float(t) for t in cfg.snapshot_times)
    snap_levels = np.searchsorted(times + 0.5 * dt, snap_times).tolist()
    wanted = set(snap_levels)
    snapshots = []

    def record_snapshots(k, vec):
        block = pencil.J @ vec
        snapshots.extend((t, BlockField.split(pencil.dofmap, block))
                         for t, level in zip(snap_times, snap_levels)
                         if level == k)

    trail = np.empty((n_steps + 1, 4))
    trail[0] = _finite_monitors(0, stepper.observe(u))
    if 0 in wanted:
        record_snapshots(0, u)
    for n in range(n_steps):
        f = None if get_f is None else get_f((n + theta) * dt)
        try:
            u = stepper.step(u, f)
        except SolveError as exc:
            # the message already ends in the residual, kept in .residual
            exc.args = (f"step {n + 1} failed: {exc}",)
            raise
        trail[n + 1] = _finite_monitors(n + 1, stepper.monitors)
        if n + 1 in wanted:
            record_snapshots(n + 1, u)

    mass, energy, supnorm, minval = trail.T.copy()
    final = BlockField.split(pencil.dofmap, pencil.J @ u)
    solver = {"method": stepper.method, "factorization": stepper.lu.kind,
              "factor_nnz": stepper.lu.nnz,
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


def recover_interface_flux(pencil, u, f=None):
    """Variational recovery of the conormal flux jump on the interface.

    For each interface node hat function phi the bulk residual
    ``t_bulk(u, phi) - (f_bulk, phi)`` equals the integral of the
    conormal outflow sum against phi, for quasi-steady ``u``.
    Mass-normalizing with the interface edge mass matrix
    (``pencil.interface_mass``) gives nodal
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
        residual = residual - pencil.M_blk_plain[:n, :n] @ f.bulk
    r_sigma = pencil.J[n + dofmap.n_gd:] @ residual
    lu = pencil.factorization(("M_plain", INTERFACE),
                              lambda: pencil.interface_mass)
    return lu.solve(r_sigma)
