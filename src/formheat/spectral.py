"""Spectral diagnostics and integrability-exponent bookkeeping.

Two kinds of tools live here.  Matrix-level ones act on an assembled
pencil: generalized eigenpairs of ``T u = lambda Mt u``, numerical-range
sampling (sectoriality witness), fractional powers ``(I + Mt^-1 T)^theta``
by spectral calculus, refinement probes for sup-norm embeddings and
trace-norm boundedness, and the J-ellipticity constant of the form.
Each reads the matrices of the pencil; none assembles its own.
Symbolic ones compute the critical integrability exponents of the trace
and embedding catalogue in exact rational arithmetic for general
dimension.

Every dense eigenproblem here, ``(T, Mt)``, ``(sym T, Mt)``,
``(sym T + Mt, M_form)`` or the interface mass against the bulk
``M_form``, goes through :func:`_dense_eigh`, on the band Cholesky
factor ``P M P^T = U^T U`` of its mass ``M``, ``P`` the reverse
Cuthill-McKee permutation (Golub & Van Loan, *Matrix Computations*, 4th
ed., section 8.7).  ``U`` is cut into dense upper triangular diagonal
tiles at least as wide as its band and the small blocks that join
neighbouring tiles, so that a triangular solve with ``n`` right-hand
sides is one level-3 DTRSM and one DGEMM per tile (Dongarra, Du Croz,
Hammarling & Duff, "A set of Level 3 BLAS", ACM TOMS 16, 1990).  Two
such tiled sweeps turn the stiffness ``S`` into the lower triangle of
the congruence ``C = U^-T P S P^T U^-1``, whose ordinary symmetric
eigenvalues are the pencil's; a third maps its eigenvectors to the
M-orthonormal ``V = P^T U^-1 Z``.  At 1,640 dofs the three sweeps take
about 15 ms of a 0.3 s eigendecomposition, nearly all of the rest being
``dsyevd``.  No dense ``Mt`` or ``M_form`` is formed.  The fractional
power ``(I + Mt^-1 T)^theta`` is applied with two dense products in the
eigenbasis of ``(T, Mt)``, cached on the pencil.  The embedding probe
reports the exact supremum for every ``p`` and draws no random sample,
so it needs no seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .assembly import lanczos_start, _band_cholesky
from .errors import (EigenSolveError, OutsideTheoryError, SizeLimitError,
                     UnsupportedScenarioError)

INF = math.inf
_DENSE_EIGS_CROSSOVER = 250        # see ``generalized_eigs``
# largest dense eigenproblem, in free dofs, that keeps its eigenvectors:
# they and the probe supremum's products are n x n arrays of 32 MB each.
# Below it the band factor of the mass never outgrows a dense mass
_DENSE_CALCULUS_LIMIT = 2000
# largest one that computes eigenvalues only: its congruence holds 50 MB
_DENSE_VALUES_LIMIT = 2500
# side of the dense diagonal tiles of the band factor of Mt, raised to
# its bandwidth b where b is wider, so that only neighbouring tiles
# couple.  A wider tile solves more zeros, a narrower one makes more
# calls.  One backward sweep of 1,640 right-hand sides at b = 40 (the
# spectral workload's finest probe level; AMD EPYC, 1 BLAS thread,
# OpenBLAS 0.3.31, medians of 15) took 6.1 ms with tiles of 40-56,
# 6.3 ms with 64, 6.9 ms with 96, 7.8 ms with 128 and 16.0 ms with 384
_TILE = 64


def _as_fraction(value):
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _ratio(num, den):
    """num/den as a Fraction, +inf when the denominator is <= 0."""
    return INF if den <= 0 else Fraction(num, 1) / den


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

    def cells(self):
        """The table row of the report, ``{column: cell text}``: ``d``,
        ``gamma``, ``case``, the effective ``r_omega``, ``r_tr``,
        ``r_tr_gamma`` and ``r_tr_star``, then ``r0``."""
        gamma = float(self.gamma)
        gamma_txt = str(int(gamma)) if gamma == int(gamma) else repr(gamma)
        cells = {"d": str(self.d), "gamma": gamma_txt, "case": self.case}
        for name in ("r_omega", "r_tr", "r_tr_gamma", "r_tr_star"):
            cells[name] = _fmt_exponent(self.effective(name))
        cells["r0"] = _fmt_exponent(self.r0)
        return cells

    def csv_row(self):
        """The cells of :meth:`cells`, comma-joined."""
        return ",".join(self.cells().values())


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

def generalized_eigs(pencil, count, *, tol=1e-8):
    """Smallest eigenpairs of ``T v = lambda Mt v`` for symmetric pencils.

    Returns ``(values, vectors, residuals)`` with ascending real
    eigenvalues, Mt-orthonormal columns and the residual
    ``||T v - lambda Mt v|| / ||v||`` of each pair, which is verified
    against ``tol``.  Up to ``_DENSE_EIGS_CROSSOVER`` dofs, or when
    nearly all pairs are wanted, the pencil is solved densely
    (:func:`_dense_eigh`); otherwise by shift-invert Lanczos at ``-0.01``
    on the cached factorization of ``T + 0.01 Mt``.  The crossover was
    measured for 8 pairs on the unit-square fixture (AMD EPYC, 1 BLAS
    thread, medians of 7): dense took 2.5, 4.6 and 35 ms at 272, 420 and
    1,056 dofs, shift-invert 2.2, 2.5 and 3.2 ms; eigenvalues agree to
    6e-14.  Raises ``ValueError`` for a ``count`` below 1.
    """
    if count < 1:
        raise ValueError(f"eigenpair count must be at least 1, got {count}")
    if not pencil.is_symmetric():
        raise EigenSolveError("pencil is not symmetric; "
                              "use numerical_range_check instead")
    n = pencil.n_free
    if count > n:
        raise EigenSolveError(f"requested {count} eigenpairs of a pencil "
                              f"with {n} dofs")
    mt = pencil.mtilde()
    if n <= _DENSE_EIGS_CROSSOVER or count >= n - 1:
        vals, vecs = _dense_eigh(mt, pencil.T, subset=(0, count - 1),
                                 vectors=True)
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


def count_eigenvalues_below(pencil, bound):
    """Number of eigenvalues of ``(sym T, Mt)`` strictly below ``bound``,
    all computed densely without eigenvectors (:func:`_dense_eigh`).
    Raises ``ValueError`` for a NaN ``bound``."""
    if math.isnan(bound):
        raise ValueError(f"eigenvalue bound must be a number, got {bound}")
    vals, _ = _dense_eigh(pencil.mtilde(), 0.5 * (pencil.T + pencil.T.T))
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


def _check_dense_size(n, vectors=True):
    """:class:`SizeLimitError` above ``_DENSE_CALCULUS_LIMIT`` dofs when
    eigenvectors are kept, above ``_DENSE_VALUES_LIMIT`` otherwise."""
    limit = _DENSE_CALCULUS_LIMIT if vectors else _DENSE_VALUES_LIMIT
    if n > limit:
        raise SizeLimitError(f"dense spectral calculus limited to "
                             f"{limit} dofs (pencil has {n})")


def _band_tiles(factor):
    """The upper band factor ``U`` of LAPACK storage (see
    :func:`assembly._band_cholesky`), of bandwidth ``b``, cut into dense
    Fortran-ordered tiles: one ``(start, stop, diag, couple)`` per
    diagonal block ``[start, stop)`` of side ``max(b, _TILE)`` (the last
    one shorter), with ``diag`` the upper triangular
    ``U[start:stop, start:stop]`` and ``couple`` the ``b x min(b, stop -
    start)`` block ``U[start-b:start, start:start+b]`` that joins the
    tile to the one before (None for the first tile and for b = 0).  A
    tile is at least ``b`` wide, so no other block of ``U`` is nonzero."""
    width, n = factor.shape[0] - 1, factor.shape[1]
    side = max(width, _TILE)
    tiles = []
    for start in range(0, n, side):
        stop = min(start + side, n)
        couple = (_dense_block(factor, start - width, start, start,
                               min(start + width, stop))
                  if start and width else None)
        tiles.append((start, stop,
                      _dense_block(factor, start, stop, start, stop), couple))
    return tiles


def _dense_block(factor, row0, row1, col0, col1):
    """``U[row0:row1, col0:col1]`` of an upper band factor in LAPACK
    storage, as a dense Fortran-ordered array."""
    width = factor.shape[0] - 1
    cols = np.arange(col0, col1)[:, None]
    band_row = width + np.arange(row0, row1)[None, :] - cols
    inside = (band_row >= 0) & (band_row <= width)
    # built transposed, so that its transpose is Fortran-ordered
    return np.where(inside, factor[band_row.clip(0, width), cols], 0.0).T


def _forward_sweep(tiles, blocks):
    """Solve ``X U = B`` tile column by tile column, yielding ``X``.

    ``blocks`` yields, tile by tile, ``(row0, block)``: the rows from
    ``row0`` on of ``B``'s tile columns as a Fortran-ordered array, which
    the sweep overwrites with the same rows of ``X`` and yields back.  A
    block starts and ends no higher than the one before; rows of ``X``
    below the one before are taken as zero, and rows above a block are
    not computed.  Each tile is one DGEMM, the last ``b`` columns of the
    block before times the coupling block, and one DTRSM with the
    diagonal block.  Every operand written in place is a whole contiguous
    array: on a strided view the BLAS wrappers would solve a silent copy.
    """
    before = None
    for (_, _, diag, couple), (row0, block) in zip(tiles, blocks):
        if couple is not None:
            prev0, prev = before
            skip = row0 - prev0
            rows = len(prev) - skip
            # the product of whole contiguous columns, kept on the rows
            # the two blocks share
            product = scipy.linalg.blas.dgemm(1.0, prev[:, -len(couple):],
                                              couple)
            block[:rows, :couple.shape[1]] -= product[skip:skip + rows]
        scipy.linalg.blas.dtrsm(1.0, diag, block, side=1, overwrite_b=1)
        before = row0, block
        yield block


def _backward_sweep(tiles, block):
    """Solve ``X U^T = B`` in place on the Fortran-ordered ``block``
    holding ``B``: tile columns from the last to the first, each one
    DGEMM with the coupling block of the tile after it and one DTRSM."""
    after = None
    for start, stop, diag, couple in reversed(tiles):
        if after is not None:
            next0, next_couple = after
            scipy.linalg.blas.dgemm(
                -1.0, block[:, next0:next0 + next_couple.shape[1]],
                next_couple, 1.0, block[:, next0 - len(next_couple):next0],
                trans_b=1, overwrite_c=1)
        scipy.linalg.blas.dtrsm(1.0, diag, block[:, start:stop], side=1,
                                trans_a=1, overwrite_b=1)
        after = None if couple is None else (start, couple)


def _band_congruence(mass, stiffness):
    """``(C, inverse, U)``: the lower triangle of the dense congruence
    ``C = U^-T P S P^T U^-1`` of the symmetric sparse ``stiffness`` ``S``
    in a Fortran-ordered array (its upper triangle is not set), the
    inverse of the reverse Cuthill-McKee permutation ``P`` of the sparse
    ``mass`` ``M`` as an index array, and the band Cholesky factor
    ``P M P^T = U^T U`` in LAPACK storage: ``C`` has the eigenvalues of
    ``(S, M)``.

    ``C`` is two tiled forward sweeps (:func:`_forward_sweep`).  The
    first gives ``W = P S P^T U^-1`` tile column by tile column, built
    from the sparse ``P S P^T`` and kept to the rows inside its band
    (below ``stop + b_S`` for tile columns ``[start, stop)``, ``b_S`` the
    band of ``P S P^T``), where ``W`` is nonzero.  The second solves
    ``C = W^T U^-1`` for the rows from ``start`` on: the lower triangle
    and the diagonal tiles.  Each of its tiles is packed contiguously at
    the start of its own columns of the result, the transposed rows of
    ``W`` are written straight into it, and at the end it moves to its
    place in the lower triangle.  At 1,640 dofs and b = 40 the
    congruence takes about 11 ms, band Cholesky included, and its largest
    array is ``C`` itself.  Raises :class:`EigenSolveError` when ``M``
    is not positive definite.
    """
    band = _band_cholesky(mass, width_limit=None)
    if band is None:
        raise EigenSolveError("mass matrix of the pencil is not symmetric "
                              "positive definite")
    order, inverse, factor = band
    tiles = _band_tiles(factor)
    n = len(order)
    permuted = stiffness[order][:, order].tocsc()
    permuted.sum_duplicates()       # the scatter below assigns entries
    cols = np.repeat(np.arange(n), np.diff(permuted.indptr))
    below = int((permuted.indices - cols).max(initial=0))
    lower = np.empty(n * n)
    packed = [lower[start * n:start * n + (n - start) * (stop - start)]
              .reshape((n - start, stop - start), order="F")
              for start, stop, _, _ in tiles]

    def stiffness_blocks():
        for start, stop, _, _ in tiles:
            block = np.zeros((min(n, stop + below), stop - start), order="F")
            first, last = permuted.indptr[start], permuted.indptr[stop]
            block[permuted.indices[first:last],
                  cols[first:last] - start] = permuted.data[first:last]
            yield 0, block

    for (start, stop, _, _), block in zip(
            tiles, _forward_sweep(tiles, stiffness_blocks())):
        # rows [start2, stop2) of these columns of W are rows
        # [start, stop) of the packed tile [start2, stop2) of W^T
        for (start2, stop2, _, _), tile in zip(tiles, packed):
            if start2 == stop:
                break
            tile[start - start2:stop - start2] = block[start2:stop2].T
    for _ in _forward_sweep(tiles, ((start, tile) for (start, *_), tile
                                    in zip(tiles, packed))):
        pass
    congruence = lower.reshape((n, n), order="F")
    for (start, stop, _, _), tile in zip(tiles, packed):
        # overlapping memory: numpy copies the source first
        congruence[start:, start:stop] = tile
    return congruence, inverse, factor


def _dense_eigh(mass, stiffness, *, subset=None, vectors=False):
    """``(values, V)`` of the pencil ``S v = lambda M v`` of the sparse
    ``stiffness`` ``S`` and ``mass`` ``M``: its eigenvalues, ascending,
    all or those with indices ``subset = (first, last)``, and with
    ``vectors`` the M-orthonormal eigenvectors as the columns of ``V``.

    ``scipy.linalg.eigh`` diagonalizes the band congruence
    (:func:`_band_congruence`) ``C = Z Lambda Z^T`` in place, by
    ``dsyevd``, or ``dsyevr`` for a subset.  ``V = P^T U^-1 Z`` is a transposed copy of
    ``Z``, a tiled backward sweep (:func:`_backward_sweep`) and a gather
    of rows: about 11 ms at 1,640 dofs.  Raises what
    :func:`_check_dense_size` and :func:`_band_congruence` raise, and
    :class:`EigenSolveError` for a failed eigensolve, or one that returns
    fewer eigenvalues than asked for (LAPACK may, on a non-finite
    pencil).
    """
    _check_dense_size(mass.shape[0], vectors)
    congruence, inverse, factor = _band_congruence(mass, stiffness)
    try:
        result = scipy.linalg.eigh(
            congruence, lower=True, eigvals_only=not vectors,
            overwrite_a=True, check_finite=False, subset_by_index=subset,
            driver="evd" if subset is None else "evr")
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"dense eigensolve failed: {exc}") from None
    del congruence      # overwritten, and for "evd" Z itself
    vals, vecs = result if vectors else (result, None)
    first, last = subset or (0, len(inverse) - 1)
    if len(vals) <= last - first:
        raise EigenSolveError(f"dense eigensolve returned {len(vals)} of the "
                              f"{last - first + 1} eigenvalues asked for")
    if not vectors:
        return vals, None
    trans = vecs.T.copy(order="F")
    del vecs, result
    # cut again: the tiles take about twice the memory of the band
    # factor, which is all that stays alive through the eigensolve
    _backward_sweep(_band_tiles(factor), trans)
    return vals, trans.T.take(inverse, axis=0)


def _pencil_eigendecomposition(pencil):
    """``(Lambda, V)`` of :func:`_dense_eigh` for all of ``(T, Mt)``,
    computed on the first request and cached on the pencil.  Raises
    :class:`EigenSolveError` for a non-symmetric pencil."""
    if pencil._eig_cache is None:
        if not pencil.is_symmetric():
            raise EigenSolveError("spectral calculus needs a symmetric pencil")
        pencil._eig_cache = _dense_eigh(pencil.mtilde(), pencil.T,
                                        vectors=True)
    return pencil._eig_cache


def _power_eigenbasis(pencil, theta):
    """The cached Mt-orthonormal eigenbasis ``V`` of the pencil and the
    diagonal of ``D^theta``, ``D = I + Lambda``, so that
    ``(I + Mt^-1 T)^theta = V D^theta V^T Mt``."""
    vals, vecs = _pencil_eigendecomposition(pencil)
    return vecs, (1.0 + np.clip(vals, 0.0, None)) ** theta


def _check_theta(theta):
    """``ValueError`` unless ``theta`` lies in ``(0, 1]``; NaN and the
    infinities fail the comparison."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"fractional exponent must lie in (0, 1], "
                         f"got {theta}")


def fractional_power_apply(pencil, theta, u):
    """Apply ``(I + Mt^-1 T)^theta`` through the pencil eigenbasis.
    Raises ``ValueError`` unless ``u`` is a vector of ``n_free``
    entries."""
    _check_theta(theta)
    u = np.asarray(u, dtype=float)
    if u.shape != (pencil.n_free,):
        raise ValueError(f"expected a vector of {pencil.n_free} free dofs, "
                         f"got shape {u.shape}")
    vecs, scale = _power_eigenbasis(pencil, theta)
    # an (n, 1) block, so that BLAS takes GEMM, which rounds unlike GEMV
    coeff = vecs.T @ (pencil.mtilde() @ u[:, None])
    coeff *= scale[:, None]
    return (vecs @ coeff)[:, 0]


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


def fractional_embedding_probe(pencils, theta, p_proxy):
    """Exact sup-norm-to-smoothed-norm suprema across refinement levels.

    For each pencil, reports the exact supremum of
    ``||u||_inf / ||(I + Mt^-1 T)^theta u||_{lp}`` (lumped block
    measure) over all bulk vectors ``u`` (:func:`_exact_supremum`), for
    every ``p``: no sample is drawn, so no seed enters.  Bounded ratios
    across levels witness an embedding; growing ones witness its
    failure.  The trend is qualitative, never a certified constant.

    Each level costs one dense eigendecomposition of its pencil
    (:func:`_pencil_eigendecomposition`, about 0.3 s at 1,640 dofs),
    one symmetric ``n x n`` product ``H H^T`` and one sparse-dense
    product.  Raises ``ValueError`` for fewer than 3 levels, a
    ``p_proxy`` other than 2, 4 or 8, or a ``theta`` that is not a
    finite number in ``(0, 1]``.
    """
    _check_probe_arguments(len(pencils), p_proxy, theta)
    return [ProbeRow(level=level, h=pencil.mesh.h_max(),
                     ratio=_exact_supremum(pencil, theta, p_proxy))
            for level, pencil in enumerate(pencils)]


def _exact_supremum(pencil, theta, p):
    """Exact ``sup_u ||u||_inf / ||(I + Mt^-1 T)^theta u||_{lp}``.

    With ``B = (I + Mt^-1 T)^theta``, ``F = V D^-theta V^T`` (so that
    ``B^-1 = F Mt``) and ``Wt`` the diagonal lumped block measure pulled
    back to the bulk dofs, the supremum is ``||F Mt Wt^-1/p||_{p->inf}``:
    the largest l^p' column norm of ``A = Wt^-1/p Mt F``, ``p' = p/(p-1)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    on mixed subordinate norms).  The Hoelder extremal
    ``sign(a) |a|^(p'-1)`` of the largest column ``a`` attains it.
    ``F`` is ``H H^T`` for ``H = V D^(-theta/2)``, one symmetric rank-n
    update (SYRK, half the flops of a general product), and ``Mt F`` is
    a sparse-dense product.  For ``p = 4, 8`` the column norms are taken
    in place on ``A``, so every ``p`` peaks at three ``n x n`` arrays.
    """
    vecs, scale = _power_eigenbasis(pencil, theta)
    wt = np.asarray(pencil.J.T @ pencil.lumped_block_weights()).ravel()
    half = vecs / np.sqrt(scale)[None, :]
    # ``a @ a.T`` is one SYRK: numpy forms one triangle and mirrors it
    power = half @ half.T
    del half
    a_mat = pencil.mtilde() @ power
    del power
    if p == 2:
        a_mat /= np.sqrt(wt)[:, None]
        return float(np.sqrt(_column_dots(a_mat, a_mat).max()))
    dual = p / (p - 1.0)
    a_mat /= (wt ** (1.0 / p))[:, None]
    np.abs(a_mat, out=a_mat)
    a_mat **= dual
    return float(a_mat.sum(axis=0).max() ** (1.0 / dual))


_PROBE_GROWTH_FACTOR = 1.5


def probe_trend(rows):
    """Qualitative verdict on a probe table: ``bounded`` when the last
    ratio stays within ``_PROBE_GROWTH_FACTOR`` of the first, else
    ``growing``.  Never a certified constant."""
    if rows[-1].ratio <= _PROBE_GROWTH_FACTOR * rows[0].ratio:
        return "bounded"
    return "growing"


@dataclass
class TraceProbeResult:
    """Discrete trace-inequality constants on one mesh."""

    sup_ratio: float
    max_sampled_ratio: float
    n_dofs: int


def trace_norm_probe(pencil, *, n_samples=200, seed=0):
    """Discrete norm of the interface trace against the weighted bulk norm.

    Computes the exact supremum of
    ``||u_h|_Sigma||_{L2(Sigma)} / ||u_h||_{W^{1,2}(Omega, mu*)}``
    over the P1 space of the pencil, along with the maximum over random
    samples: the pencil's ``interface_mass`` pulled back to the bulk dofs
    through the interface rows ``J_Sigma`` of ``J``, against its
    ``M_form_bulk`` (:func:`_dense_eigh`).  Neither depends on whether
    the pencil is lumped.  Bounded suprema under refinement witness
    trace-norm boundedness; for exponents outside the admissible range
    the numbers are reported without any claim.
    """
    n = pencil.n_free
    j_sigma = pencil.J[n + pencil.dofmap.n_gd:]
    numer = j_sigma.T @ pencil.interface_mass @ j_sigma
    denom = pencil.M_form_bulk
    lam, _ = _dense_eigh(denom, numer, subset=(n - 1, n - 1))
    sup_ratio = float(np.sqrt(max(lam[0], 0.0)))
    u = np.random.default_rng(seed).standard_normal((n_samples, n)).T
    quotients = _column_dots(u, numer @ u) / _column_dots(u, denom @ u)
    worst = np.sqrt(np.max(quotients, initial=0.0))
    return TraceProbeResult(sup_ratio=sup_ratio, max_sampled_ratio=float(worst),
                            n_dofs=n)


def j_ellipticity_constant(pencil):
    """Smallest generalized eigenvalue of ``(sym(T) + Mt, M_form)``.

    A positive value witnesses coercivity of the form plus the block
    norm against the form-domain norm.  Computed densely, on the band
    congruence of ``M_form`` (:func:`_dense_eigh`: above 2,500 dofs
    :class:`SizeLimitError`).  There is no sparse path: the smallest
    eigenvalue is often highly multiple (sym(T) + Mt and M_form differ
    only on the surfaces), and shift-invert Lanczos at 0 does not
    converge on the unit-square fixture at 272 or 1,056 dofs.
    """
    lam, _ = _dense_eigh(pencil.M_form,
                         0.5 * (pencil.T + pencil.T.T) + pencil.mtilde(),
                         subset=(0, 0))
    return float(lam[0])
