"""Spectral diagnostics and integrability-exponent bookkeeping.

Two kinds of tools live here.  Matrix-level ones act on an assembled
pencil: generalized eigenpairs of ``T u = lambda Mt u``, numerical-range
sampling (sectoriality witness), fractional powers ``(I + Mt^-1 T)^theta``
by spectral calculus, and refinement probes for sup-norm embeddings and
trace-norm boundedness.  Symbolic ones compute the critical
integrability exponents of the trace and embedding catalogue in exact
rational arithmetic for general dimension.

The dense spectral calculus rests on the band Cholesky factor
``P Mt P^T = U^T U`` of the block Gram matrix, ``P`` its reverse
Cuthill-McKee permutation.  Two band triangular solves turn ``T`` into
the dense congruence ``C = U^-T P T P^T U^-1``, whose ordinary symmetric
eigenvalues are the pencil's; a third maps its eigenvectors to the
Mt-orthonormal eigenbasis ``V = P^T U^-1 Z``, cached on the pencil.  No
dense copy of ``Mt`` is formed.  The fractional powers go through one
block helper that applies ``(I + Mt^-1 T)^theta`` to an ``(n, k)`` block
with two dense products in that eigenbasis; every probe draws its random
samples as one block and evaluates their quotients column by column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .assembly import (build_dofmap, lanczos_start, _band_cholesky,
                       _form_gram_bulk, _surface_plain_mass,
                       _triangle_elements)
from .errors import (EigenSolveError, OutsideTheoryError, SizeLimitError,
                     UnsupportedScenarioError)
from .geometry.surface import INTERFACE, SurfaceMesh

INF = math.inf
# largest pencil, in free dofs, that the dense spectral calculus takes on:
# its eigenbasis and the p = 2 supremum's products are n x n arrays of
# 32 MB each at this size.  Below it the band factor of Mt, at most n
# wide, never holds more than a dense Mt would, so the band Cholesky of
# the calculus takes Mt at any bandwidth
_DENSE_CALCULUS_LIMIT = 2000


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _ratio(num, den):
    """num/den as a Fraction, +inf when the denominator is <= 0."""
    if den <= 0:
        return INF
    return Fraction(num, 1) / den


@dataclass
class EmbeddingReport:
    """Critical exponents of the integrability catalogue.

    The four catalogue values are always computed from the formulas
    (``+inf`` where a positive-part denominator vanishes); exactly one
    trace mechanism is active for the given scenario and feeds ``r0``
    together with the bulk exponent.  ``effective(name)`` returns the
    constraint a mechanism imposes in this scenario (``+inf`` when it
    does not apply).
    """

    d: int
    gamma: Fraction
    case: str
    surface_uniformly_positive: bool
    surface_positive_near_s: bool
    r_omega: object
    r_tr: object
    r_tr_gamma: object
    r_tr_star: object
    active_trace: str
    r0: object

    def is_active(self, name):
        return name == "r_omega" or name == self.active_trace

    def effective(self, name):
        return getattr(self, name) if self.is_active(name) else INF

    def theta_threshold(self, p):
        """Sup-norm embedding threshold r0 / ((r0 - 2) p) for the
        fractional power exponent; the limit 1/p when r0 = +inf."""
        p = _as_fraction(p)
        if p <= 2:
            raise ValueError("the embedding scale needs p > 2")
        if self.r0 is INF or (isinstance(self.r0, float) and math.isinf(self.r0)):
            return 1 / p
        return self.r0 / ((self.r0 - 2) * p)

    def csv_row(self):
        gamma = float(self.gamma)
        gamma_txt = str(int(gamma)) if gamma == int(gamma) else repr(gamma)
        cells = [str(self.d), gamma_txt, self.case]
        for name in ("r_omega", "r_tr", "r_tr_gamma", "r_tr_star"):
            cells.append(_fmt_exponent(self.effective(name)))
        cells.append(_fmt_exponent(self.r0))
        return ",".join(cells)


def _fmt_exponent(value):
    if value is INF or (isinstance(value, float) and math.isinf(value)):
        return "+inf"
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{float(frac):.4f}"


def embedding_exponents(d, gamma, *, case="nondegenerate",
                        surface_uniformly_positive=False,
                        surface_positive_near_s=False, weight=None):
    """Exact integrability exponents for a degeneracy scenario.

    Parameters
    ----------
    d : int
        Ambient dimension, at least 2.
    gamma : number
        Distance exponent of the bulk weight (0 means nondegenerate).
    case : str
        ``nondegenerate`` (gamma = 0), ``A`` (degeneracy away from the
        dynamic surfaces), or ``B`` (degeneracy touching them).
    surface_uniformly_positive : bool
        Surface diffusion bounded below everywhere.
    surface_positive_near_s : bool
        Surface diffusion bounded below near the contact set (case B).
    weight : WeightSpec, optional
        When given, gamma must match and stay below the codimension of
        the degeneracy set.

    Returns
    -------
    EmbeddingReport

    Raises
    ------
    OutsideTheoryError
        Case B with gamma >= 1, or an exponent at/above the codimension.
    UnsupportedScenarioError
        Flag combinations outside the catalogue.
    """
    d = int(d)
    if d < 2:
        raise ValueError("dimension must be at least 2")
    gamma = _as_fraction(gamma)
    if weight is not None:
        if _as_fraction(weight.gamma) != gamma:
            raise ValueError("gamma does not match the supplied weight")
        if weight.outside_theory:
            raise OutsideTheoryError(
                f"exponent {weight.gamma} is not below the codimension "
                f"{weight.codimension} of the degeneracy set")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if case not in ("nondegenerate", "A", "B"):
        raise UnsupportedScenarioError(f"unknown case '{case}'")
    if case == "nondegenerate" and gamma != 0:
        raise UnsupportedScenarioError(
            "positive gamma with a nondegenerate scenario")
    if case != "nondegenerate" and gamma == 0:
        raise UnsupportedScenarioError(
            "gamma = 0 is the nondegenerate scenario")
    if case == "B" and gamma >= 1:
        raise OutsideTheoryError(
            f"degeneracy at the dynamic surfaces needs gamma < 1, got {gamma}")
    if surface_positive_near_s and case != "B":
        raise UnsupportedScenarioError(
            "near-contact surface diffusion only distinguishes case B")

    r_omega = _ratio(2 * d, d + gamma - 2)
    r_tr = _ratio(2 * (d - 1), d - 2)
    r_tr_gamma = _ratio(2 * (d - 1), d + gamma - 2)
    r_tr_star = _ratio(2 * (d - 1), d - 3)

    if surface_uniformly_positive:
        active = "r_tr_star"
    elif case == "B" and surface_positive_near_s:
        active = "r_tr"
    elif case == "B":
        active = "r_tr_gamma"
    else:
        active = "r_tr"

    trace_bound = {"r_tr": r_tr, "r_tr_gamma": r_tr_gamma,
                   "r_tr_star": r_tr_star}[active]
    r0 = min(r_omega, trace_bound)

    return EmbeddingReport(d=d, gamma=gamma, case=case,
                           surface_uniformly_positive=surface_uniformly_positive,
                           surface_positive_near_s=surface_positive_near_s,
                           r_omega=r_omega, r_tr=r_tr,
                           r_tr_gamma=r_tr_gamma, r_tr_star=r_tr_star,
                           active_trace=active, r0=r0)


# -- matrix spectra ------------------------------------------------------------------

def generalized_eigs(pencil, count, *, tol=1e-8, dense_limit=250):
    """Smallest eigenpairs of ``T v = lambda Mt v`` for symmetric pencils.

    Returns ``(values, vectors, residuals)`` with ascending real
    eigenvalues, Mt-orthonormal columns and the residual
    ``||T v - lambda Mt v|| / ||v||`` of each pair, which is verified
    against ``tol``.  Up to ``dense_limit`` dofs, or when
    nearly all pairs are wanted, the pencil is solved densely; otherwise
    by shift-invert Lanczos at ``-0.01`` on the cached factorization of
    ``T + 0.01 Mt``.  The default limit is the measured crossover for
    8 pairs on the unit-square fixture with single-threaded BLAS: both
    take about 9 ms at 272 dofs; at 1,980 dofs dense takes 1.2 s and
    shift-invert 29 ms, with eigenvalues agreeing to 3e-12 relative.
    """
    if not pencil.is_symmetric():
        raise EigenSolveError("pencil is not symmetric; "
                              "use numerical_range_check instead")
    n = pencil.n_free
    if count > n:
        raise EigenSolveError(f"requested {count} eigenpairs of a pencil "
                              f"with {n} dofs")
    mt = pencil.mtilde()
    if n <= dense_limit or count >= n - 1:
        vals, vecs = scipy.linalg.eigh(pencil.T.toarray(), mt.toarray(),
                                       subset_by_index=[0, count - 1])
    else:
        sigma = -0.01
        lu = pencil.factorization(("shift", sigma),
                                  lambda: pencil.T - sigma * mt)
        vals, vecs = spla.eigsh(pencil.T, k=count, M=mt, sigma=sigma,
                                which="LM", OPinv=lu.operator(),
                                v0=lanczos_start(n))
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    residuals = np.array([
        np.linalg.norm(pencil.T @ v - lam * (mt @ v)) / np.linalg.norm(v)
        for lam, v in zip(vals, vecs.T)])
    worst = float(residuals.max())
    if worst > tol:
        raise EigenSolveError("eigen residual above tolerance", residual=worst)
    if vals[0] < -1e-10:
        raise EigenSolveError("negative eigenvalue from a nonnegative form",
                              residual=float(vals[0]))
    return vals, vecs, residuals


def count_eigenvalues_below(pencil, bound, dense_limit=2500):
    """Number of eigenvalues of ``(sym T, Mt)`` strictly below ``bound``:
    all eigenvalues of the dense band congruence of ``sym T``, without
    eigenvectors."""
    n = pencil.n_free
    if n > dense_limit:
        raise SizeLimitError("dense eigenvalue count limited to "
                             f"{dense_limit} dofs")
    congruence, _, _ = _band_congruence(pencil, 0.5 * (pencil.T + pencil.T.T))
    vals, _, info = scipy.linalg.lapack.dsyevd(congruence, compute_v=0,
                                               overwrite_a=1)
    _check_info(info, "dsyevd")
    return int(np.sum(vals < bound))


@dataclass
class NumericalRangeReport:
    """Sampled numerical range of the pencil over complex vectors."""

    min_real: float
    max_tangent: float
    samples: int


def _column_dots(a, b):
    """``a[:, j] @ b[:, j]`` for every column ``j``."""
    return np.einsum("ij,ij->j", a, b)


def numerical_range_check(pencil, samples=1000, seed=0):
    """Sample Rayleigh quotients of random complex vectors.

    Reports the minimal real part and the maximal ratio ``|Im|/Re``,
    whose finiteness witnesses a numerical-range angle strictly inside
    the right half plane.  The samples ``z = x + i y`` form one block,
    drawn in the order of one ``x`` then one ``y`` per sample; the real
    matrices act on the real and imaginary parts separately.
    """
    rng = np.random.default_rng(seed)
    n = pencil.n_free
    draws = rng.standard_normal((samples, 2, n))
    x, y = draws[:, 0].T, draws[:, 1].T
    tx, ty = pencil.T @ x, pencil.T @ y
    mt = pencil.mtilde()
    den = _column_dots(x, mt @ x) + _column_dots(y, mt @ y)
    re = (_column_dots(x, tx) + _column_dots(y, ty)) / den
    im = np.abs(_column_dots(x, ty) - _column_dots(y, tx)) / den
    with np.errstate(divide="ignore", invalid="ignore"):
        tangent = np.where(re > 1e-14, im / re,
                           np.where(im > 1e-14, np.inf, 0.0))
    return NumericalRangeReport(min_real=float(np.min(re, initial=np.inf)),
                                max_tangent=float(np.max(tangent,
                                                         initial=0.0)),
                                samples=samples)


def _check_dense_size(n, dense_limit=_DENSE_CALCULUS_LIMIT):
    """:class:`SizeLimitError` when a pencil of ``n`` free dofs is too
    large for the dense spectral calculus."""
    if n > dense_limit:
        raise SizeLimitError(f"dense spectral calculus limited to "
                             f"{dense_limit} dofs (pencil has {n})")


def _check_info(info, routine):
    """:class:`EigenSolveError` unless a LAPACK ``info`` is 0."""
    if info != 0:
        raise EigenSolveError(f"LAPACK {routine} failed with info {info}")


def _band_congruence(pencil, stiffness):
    """``(C, inverse, U)``: the band Cholesky factor ``U`` of
    ``P Mt P^T = U^T U``, with ``P`` the reverse Cuthill-McKee
    permutation of ``Mt`` and ``inverse`` its inverse as an index array,
    and the dense Fortran-ordered congruence ``C = U^-T P S P^T U^-1`` of
    the symmetric sparse ``stiffness`` ``S``.

    ``C`` is two band triangular solves, each on the transpose of the
    last array: the first gives ``Y = U^-T (P S P^T)^T``, the second
    ``U^-T Y^T = C``.  The eigenvalues of ``C`` are those of ``(S, Mt)``.
    Raises :class:`EigenSolveError` when ``Mt`` is not positive definite
    or a solve reports a nonzero ``info``.
    """
    mt = pencil.mtilde()
    band = _band_cholesky(mt, width_limit=None)
    if band is None:
        raise EigenSolveError("block Gram matrix Mt is not symmetric "
                              "positive definite")
    order, inverse, factor = band
    congruence = stiffness[order][:, order].toarray()
    for _ in range(2):
        # the first solve overwrites the Fortran-ordered transpose of
        # the C-ordered dense S; the second a Fortran copy of the
        # first's transpose
        congruence, info = scipy.linalg.lapack.dtbtrs(
            factor, congruence.T, trans="T", overwrite_b=1)
        _check_info(info, "dtbtrs")
    return congruence, inverse, factor


def _pencil_eigendecomposition(pencil, dense_limit):
    """``(Lambda, V)``: all eigenvalues of ``T v = lambda Mt v``,
    ascending, and the Mt-orthonormal eigenvectors as the columns of the
    dense ``V``, computed on the first request and cached on the pencil.

    ``dsyevd`` diagonalizes the band congruence ``C = Z Lambda Z^T`` in
    place (see :func:`_band_congruence`); a band triangular solve and a
    row gather give ``V = P^T U^-1 Z``, so that ``V^T Mt V = I`` and
    ``V^T T V = Lambda``.  Raises :class:`SizeLimitError` above
    ``dense_limit`` dofs and :class:`EigenSolveError` for a non-symmetric
    pencil, an ``Mt`` that is not positive definite or a nonzero LAPACK
    ``info``.
    """
    if pencil._eig_cache is None:
        _check_dense_size(pencil.n_free, dense_limit)
        if not pencil.is_symmetric():
            raise EigenSolveError("spectral calculus needs a symmetric pencil")
        congruence, inverse, factor = _band_congruence(pencil, pencil.T)
        vals, vecs, info = scipy.linalg.lapack.dsyevd(congruence,
                                                      overwrite_a=1)
        _check_info(info, "dsyevd")
        vecs, info = scipy.linalg.lapack.dtbtrs(factor, vecs, overwrite_b=1)
        _check_info(info, "dtbtrs")
        pencil._eig_cache = (vals, vecs.take(inverse, axis=0))
    return pencil._eig_cache


def _power_eigenbasis(pencil, theta, dense_limit):
    """The cached Mt-orthonormal eigenbasis ``V`` of the pencil and the
    diagonal of ``D^theta``, ``D = I + Lambda``, so that
    ``(I + Mt^-1 T)^theta = V D^theta V^T Mt``."""
    vals, vecs = _pencil_eigendecomposition(pencil, dense_limit)
    return vecs, (1.0 + np.clip(vals, 0.0, None)) ** theta


def _fractional_power_block(pencil, theta, block, dense_limit):
    """``(I + Mt^-1 T)^theta`` applied to every column of an ``(n, k)``
    block: two dense products for the whole block."""
    vecs, scale = _power_eigenbasis(pencil, theta, dense_limit)
    coeff = vecs.T @ (pencil.mtilde() @ block)
    coeff *= scale[:, None]
    return vecs @ coeff


def _check_theta(theta):
    """``ValueError`` unless ``theta`` lies in ``(0, 1]``; NaN and the
    infinities fail the comparison."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"fractional exponent must lie in (0, 1], "
                         f"got {theta}")


def fractional_power_apply(pencil, theta, u, *,
                           dense_limit=_DENSE_CALCULUS_LIMIT):
    """Apply ``(I + Mt^-1 T)^theta`` through the pencil eigenbasis."""
    _check_theta(theta)
    u = np.asarray(u, dtype=float)
    return _fractional_power_block(pencil, theta, u[:, None], dense_limit)[:, 0]


@dataclass
class ProbeRow:
    level: int
    h: float
    ratio: float


def _check_probe_arguments(levels, p_proxy, theta):
    """``ValueError`` unless the probe has 3 or more levels, a
    ``p_proxy`` of 2, 4 or 8 and a ``theta`` in ``(0, 1]``."""
    if p_proxy not in (2, 4, 8):
        raise ValueError("p_proxy must be one of 2, 4, 8")
    if levels < 3:
        raise ValueError("probe needs at least 3 refinement levels")
    _check_theta(theta)


def fractional_embedding_probe(pencils, theta, p_proxy, *, n_samples=64,
                               seed=0, dense_limit=_DENSE_CALCULUS_LIMIT):
    """Worst sup-norm-to-smoothed-norm ratios across refinement levels.

    For each pencil, reports the worst
    ``||u||_inf / ||(I + Mt^-1 T)^theta u||_{lp}`` (lumped block measure)
    over bulk vectors ``u``.  For ``p = 2`` that is the exact supremum
    over all ``u``; for ``p = 4`` and ``8`` it is the worst of
    ``n_samples`` random samples, and ``n_samples`` applies only there.
    Bounded ratios across levels witness an embedding; growing ones
    witness its failure.  The trend is qualitative, never a certified
    constant.

    Each level costs one dense eigendecomposition of its pencil on the
    band Cholesky of ``Mt`` (cached on the pencil), and then for
    ``p = 2`` one symmetric ``n x n`` product ``H H^T`` and one
    sparse-dense product, for ``p = 4, 8`` one ``(n, n_samples)`` block
    of samples put through the fractional power at once.  Level ``l``
    draws its samples from seed ``seed + l``.  Raises ``ValueError``
    for fewer than 3 levels, a ``p_proxy`` other than 2, 4 or 8, or a
    ``theta`` that is not a finite number in ``(0, 1]``.
    """
    _check_probe_arguments(len(pencils), p_proxy, theta)
    rows = []
    for level, pencil in enumerate(pencils):
        w = pencil.lumped_block_weights()
        if p_proxy == 2:
            worst = _exact_l2_supremum(pencil, theta, w, dense_limit)
        else:
            rng = np.random.default_rng(seed + level)
            # one row per sample: the stream of n_samples single draws
            u = rng.standard_normal((n_samples, pencil.n_free)).T
            bu = _fractional_power_block(pencil, theta, u, dense_limit)
            sup_u = np.abs(pencil.J @ u).max(axis=0, initial=0.0)
            ju = np.abs(pencil.J @ bu)
            ju **= p_proxy
            ratios = sup_u / (w @ ju) ** (1.0 / p_proxy)
            worst = float(np.max(ratios, initial=0.0))
        rows.append(ProbeRow(level=level, h=pencil.mesh.h_max(), ratio=worst))
    return rows


def _exact_l2_supremum(pencil, theta, w, dense_limit):
    """Exact ``sup_u ||u||_inf / ||(I + Mt^-1 T)^theta u||_{l2}``.

    With ``B = (I + Mt^-1 T)^theta`` and ``Wt`` the diagonal lumped block
    measure ``w`` pulled back to the bulk dofs, the supremum is the root
    of the largest diagonal entry of ``(B^T Wt B)^-1``, i.e. the largest
    column norm of ``Wt^-1/2 Mt F`` with ``F = V D^-theta V^T``.  ``F``
    is ``H H^T`` for ``H = V D^(-theta/2)``, one symmetric rank-n update
    (SYRK, half the flops of a general product), and ``Mt F`` is a
    sparse-dense product.
    """
    vecs, scale = _power_eigenbasis(pencil, theta, dense_limit)
    wt = np.asarray(pencil.J.T @ w).ravel()
    half = vecs / np.sqrt(scale)[None, :]
    # ``a @ a.T`` is one SYRK: numpy forms one triangle and mirrors it
    power = half @ half.T
    del half
    a_mat = pencil.mtilde() @ power
    del power
    a_mat /= np.sqrt(wt)[:, None]
    return float(np.sqrt(_column_dots(a_mat, a_mat).max()))


def probe_trend(rows, growth_factor=1.5):
    """Qualitative verdict on a probe table: ``bounded`` when the last
    ratio stays within ``growth_factor`` of the first, else ``growing``.
    Never a certified constant."""
    if rows[-1].ratio <= growth_factor * rows[0].ratio:
        return "bounded"
    return "growing"


@dataclass
class TraceProbeResult:
    """Discrete trace-inequality constants on one mesh."""

    sup_ratio: float
    max_sampled_ratio: float
    n_dofs: int


def trace_norm_probe(mesh, coeff, *, n_samples=200, seed=0, dense_limit=2500):
    """Discrete norm of the interface trace against the weighted bulk norm.

    Computes the exact supremum of
    ``||u_h|_Sigma||_{L2(Sigma)} / ||u_h||_{W^{1,2}(Omega, mu*)}``
    over the P1 space (a generalized eigenvalue problem) along with the
    maximum over random samples.  Bounded suprema under refinement
    witness trace-norm boundedness; for exponents outside the admissible
    range the numbers are reported without any claim.
    """
    smesh_sigma = SurfaceMesh.from_mesh(mesh, INTERFACE)
    dofmap = build_dofmap(mesh, None, smesh_sigma)
    if dofmap.n_free > dense_limit:
        raise SizeLimitError("trace probe limited to dense scale")
    n = dofmap.n_free
    numer = _surface_plain_mass(smesh_sigma,
                                dofmap.vertex_free[smesh_sigma.edges],
                                n).toarray()
    # the bulk part of the pencil's M_form
    _, denom = _form_gram_bulk(mesh, coeff, dofmap,
                               _triangle_elements(mesh, coeff))
    denom = denom.toarray()
    lam = scipy.linalg.eigh(numer, denom, eigvals_only=True,
                            subset_by_index=[n - 1, n - 1])
    sup_ratio = float(np.sqrt(max(lam[0], 0.0)))
    u = np.random.default_rng(seed).standard_normal((n_samples, n)).T
    quotients = _column_dots(u, numer @ u) / _column_dots(u, denom @ u)
    worst = np.sqrt(np.max(quotients, initial=0.0))
    return TraceProbeResult(sup_ratio=sup_ratio, max_sampled_ratio=float(worst),
                            n_dofs=n)
