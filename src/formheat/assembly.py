"""Discrete realization of the coupled bulk-surface energy form.

P1 finite elements on a labeled mesh produce the operator pencil

    T       stiffness on free bulk dofs: bulk gradient term plus the
            tangential surface terms pulled back through the traces,
    M_blk   block-diagonal relaxation-weighted mass on (bulk, dynamic
            boundary, interface) values,
    J       0/1 trace map from free bulk dofs into the block space,
    M_form  Gram matrix of the form-domain inner product (unweighted
            bulk mass + envelope-weighted gradient terms),

the bulk part M_form_bulk of M_form, the unweighted block mass
M_blk_plain and the plain interface mass.  Only diagnostics read these
four, so the pencil assembles each on its own first use.

Dirichlet conditions are imposed by eliminating the dofs of the closed
Dirichlet boundary part (vertices of Dirichlet edges, plus any
explicitly constrained surface endpoints).

``build_pencil`` and the pencil it returns are the only assembler: no
other module builds a matrix from the mesh, every diagnostic reads the
pencil's.  There is one batched element path:
coefficients are evaluated once over all quadrature points of a region,
and each matrix is one ``einsum`` over element values summed onto its
dofs by one sparse constructor.  Each block of the block space (bulk,
dynamic boundary, interface) gets its element masses from one pass: the
plain masses are a reference matrix times the area or length, the
weighted ones take one evaluation of the relaxation coefficient, and
lumping is one rule for every block (element row sums, scattered as 1x1
elements).  Surface matrices go straight onto the dofs they act on: the
surface stiffness onto the free bulk dofs of the edge ends, the surface
masses onto each surface's block of free nodes.  Nonconstant surface
coefficients share one adaptive line integral over all edges.
Coefficient callables therefore receive (n, 2) point arrays and must
return one value per point.  Only a callable bulk coefficient under a
weight is integrated cell by cell.  Operators are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConsistencyError, EnvelopeViolationError, SolveError
from .geometry.mesh import DIRICHLET, DYNAMIC
from .geometry.surface import INTERFACE, SurfaceMesh
from .weights import (WeightSpec, adaptive_line_integral,
                      adaptive_triangles_integral, triangle_rule,
                      weighted_cell_integral)


# -- coefficient handling -------------------------------------------------------

def _matrix_of(value):
    """Normalize a scalar or 2x2 array to a 2x2 matrix."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(2)
    if arr.shape == (2, 2):
        return arr
    raise ValueError("bulk coefficient entries must be scalars or 2x2 matrices")


def _eval_matrix_callable(fn, points):
    """Evaluate a user matrix coefficient at (n, 2) points -> (n, 2, 2)."""
    vals = np.asarray(fn(points), dtype=float)
    if vals.shape == (len(points), 2, 2):
        return vals
    if vals.shape == (len(points),):
        return vals[:, None, None] * np.eye(2)
    raise ValueError(f"bulk coefficient callable returned shape {vals.shape} "
                     f"for {len(points)} points; expected (n,) or (n, 2, 2)")


class CoefficientSet:
    """Diffusion and relaxation coefficients with their envelopes.

    Parameters
    ----------
    mu_bulk : scalar, 2x2 array, dict, or callable
        Bulk diffusion matrix.  A dict maps triangle region ids to
        scalars/matrices/callables.  Callables receive point arrays
        (n, 2) and return (n, 2, 2) matrices or (n,) scalars; they are
        evaluated once over all quadrature points of a region.
    mu_gd, mu_sigma : scalar, 2x2 array, or callable
        Surface diffusion on the dynamic boundary / interface, and its own
        envelope.  Callables map points (n, 2) to (n,) or (n, 2, 2); only
        (mu tau, tau) enters, tau the unit tangent of each point's edge.
    bulk_weight : WeightSpec, optional
        Degenerate scalar envelope multiplying ``mu_bulk``; the bulk
        envelope is this weight, or 1 without one.
    zeta_bulk, zeta_gd, zeta_sigma : scalar or callable
        Relaxation coefficient per block, bounded away from zero.
    c1, c2 : float
        Declared envelope constants of the two-sided coefficient bounds.
    """

    def __init__(self, mu_bulk=1.0, mu_gd=1.0, mu_sigma=1.0, *,
                 bulk_weight=None,
                 zeta_bulk=1.0, zeta_gd=1.0, zeta_sigma=1.0,
                 c1=1.0, c2=1.0):
        self.mu_bulk = mu_bulk
        self.mu_gd = mu_gd
        self.mu_sigma = mu_sigma
        self.bulk_weight = bulk_weight
        if bulk_weight is not None and not isinstance(bulk_weight, WeightSpec):
            raise TypeError("bulk_weight must be a WeightSpec")
        self.zeta_bulk = zeta_bulk
        self.zeta_gd = zeta_gd
        self.zeta_sigma = zeta_sigma
        self.c1 = float(c1)
        self.c2 = float(c2)

    # bulk ---------------------------------------------------------------

    def _bulk_entry(self, region):
        """The ``mu_bulk`` entry of a region: scalar, matrix or callable."""
        mu = self.mu_bulk
        if isinstance(mu, dict):
            mu = mu.get(int(region), mu.get("default", 1.0))
        return mu

    def bulk_base_matrix(self, region):
        """Constant base matrix for a region, or None if callable."""
        mu = self._bulk_entry(region)
        if callable(mu):
            return None
        return _matrix_of(mu)

    def _bulk_unweighted(self, points, region):
        """The ``mu_bulk`` entry of a region at (n, 2) points, without
        the weight: (n, 2, 2)."""
        base = self.bulk_base_matrix(region)
        if base is None:
            return _eval_matrix_callable(self._bulk_entry(region), points)
        return np.broadcast_to(base, (len(points), 2, 2)).copy()

    def bulk_values(self, points, region):
        """Full bulk coefficient (weight included) at (n, 2) points."""
        vals = self._bulk_unweighted(points, region)
        if self.bulk_weight is not None:
            vals = vals * self.bulk_weight.eval(points)[:, None, None]
        return vals

    def bulk_envelope_values(self, points):
        """Scalar envelope of the bulk coefficient at (n, 2) points."""
        if self.bulk_weight is not None:
            return self.bulk_weight.eval(points)
        return np.ones(len(points))

    # surfaces -----------------------------------------------------------

    def surface_values(self, which, points, tangents):
        """Tangential action (mu tau, tau) of the surface coefficient at
        (n, 2) points with unit tangents ``tangents`` (n, 2)."""
        mu = self.mu_gd if which == DYNAMIC else self.mu_sigma
        if callable(mu):
            vals = np.asarray(mu(points), dtype=float)
            if vals.ndim == 3 and vals.shape[1:] == (2, 2):
                return np.vecdot(np.einsum("ni,nij->nj", tangents, vals),
                                 tangents)
            return vals.reshape(len(points))
        arr = np.asarray(mu, dtype=float)
        if arr.ndim == 2:
            return np.vecdot(tangents @ arr, tangents)
        return np.full(len(points), float(arr))

    # relaxation -----------------------------------------------------------

    def zeta_values(self, which, points):
        zeta = {None: self.zeta_bulk, "bulk": self.zeta_bulk,
                DYNAMIC: self.zeta_gd, INTERFACE: self.zeta_sigma}[which]
        if callable(zeta):
            return np.asarray(zeta(points), dtype=float).reshape(len(points))
        return np.full(len(points), float(zeta))


# -- degrees of freedom -----------------------------------------------------------

@dataclass
class DofMap:
    """Free bulk dofs and trace injections for the surface dofs.

    ``vertex_free[v]`` is the free-dof index of mesh vertex ``v`` or -1
    when the vertex is Dirichlet-constrained.  Surface node lists keep
    the local ordering of their SurfaceMesh restricted to free vertices.
    """

    n_vertices: int
    free_vertices: np.ndarray
    vertex_free: np.ndarray
    constrained_vertices: np.ndarray
    gd_vertices: np.ndarray
    sigma_vertices: np.ndarray

    @property
    def n_free(self):
        return len(self.free_vertices)

    @property
    def n_gd(self):
        return len(self.gd_vertices)

    @property
    def n_sigma(self):
        return len(self.sigma_vertices)

    def surface_vertices(self, which):
        return self.gd_vertices if which == DYNAMIC else self.sigma_vertices


def build_dofmap(mesh, smesh_gd=None, smesh_sigma=None, extra_constrained=()):
    """Constrain the closed Dirichlet part and list the surface dofs.

    Vertices of Dirichlet edges are always constrained (the Dirichlet
    part is closed, so vertices it shares with Neumann or dynamic edges
    are constrained too).  ``extra_constrained`` adds surface-endpoint
    vertices that should satisfy a Dirichlet condition as well; a
    vertex id outside the mesh raises ``ValueError``.  A mesh left with
    no free vertex raises :class:`ConsistencyError`: its pencil would be
    empty.
    """
    extra = np.asarray(extra_constrained, dtype=int).reshape(-1)
    if np.any((extra < 0) | (extra >= mesh.num_vertices)):
        raise ValueError("extra_constrained names a vertex outside the mesh")
    constrained = np.zeros(mesh.num_vertices, dtype=bool)
    constrained[extra] = True
    dirichlet = mesh.boundary_edges_with_label(DIRICHLET)
    constrained[mesh.boundary_edges[dirichlet].ravel()] = True
    free = np.flatnonzero(~constrained)
    if free.size == 0:
        raise ConsistencyError("no free bulk dofs: every vertex is "
                               "constrained")
    vertex_free = np.where(constrained, -1, np.cumsum(~constrained) - 1)

    def surf_list(smesh):
        if smesh is None:
            return np.zeros(0, dtype=int)
        nodes = np.asarray(smesh.node_vertices, dtype=int)
        return nodes[~constrained[nodes]]

    return DofMap(
        n_vertices=mesh.num_vertices,
        free_vertices=free,
        vertex_free=vertex_free,
        constrained_vertices=np.flatnonzero(constrained),
        gd_vertices=surf_list(smesh_gd),
        sigma_vertices=surf_list(smesh_sigma),
    )


@dataclass
class BlockField:
    """Element of the discrete block space: bulk + surface node values."""

    bulk: np.ndarray
    gd: np.ndarray
    sigma: np.ndarray

    def stacked(self):
        return np.concatenate([self.bulk, self.gd, self.sigma])

    def copy(self):
        return BlockField(self.bulk.copy(), self.gd.copy(), self.sigma.copy())

    @classmethod
    def zeros(cls, dofmap):
        return cls(np.zeros(dofmap.n_free), np.zeros(dofmap.n_gd),
                   np.zeros(dofmap.n_sigma))

    @classmethod
    def from_functions(cls, mesh, dofmap, f_bulk=None, f_gd=None, f_sigma=None):
        """Sample callables (points (n,2) -> values) at the dof nodes."""
        def sample(f, verts, n):
            if f is None:
                return np.zeros(n)
            pts = mesh.vertices[verts]
            if callable(f):
                return np.asarray(f(pts), dtype=float).reshape(n)
            return np.full(n, float(f))

        return cls(sample(f_bulk, dofmap.free_vertices, dofmap.n_free),
                   sample(f_gd, dofmap.gd_vertices, dofmap.n_gd),
                   sample(f_sigma, dofmap.sigma_vertices, dofmap.n_sigma))

    @classmethod
    def split(cls, dofmap, stacked):
        n, m = dofmap.n_free, dofmap.n_gd
        return cls(np.asarray(stacked[:n]),
                   np.asarray(stacked[n:n + m]),
                   np.asarray(stacked[n + m:]))


# -- element kernels --------------------------------------------------------------

_QUAD_ORDER = 2          # triangle rule for callables without a weight
_WEIGHT_TOL = 1e-8       # relative tolerance of the weighted cell integrals
_SURFACE_TOL = 1e-12     # relative tolerance of the surface edge integrals
_ENVELOPE_ORDER = 4      # triangle rule that samples the bulk envelope bounds
# edge parameters of the probe that finds constant surface coefficients;
# asymmetric, so that symmetric nonconstant profiles cannot pass for one
_PROBE_TS = np.array([0.0, 0.31, 0.5, 0.77, 1.0])
# barycentric mass rules (points (q, k), weights (q,)), exact for the
# plain P1 masses: order 2 on triangles, two-point Gauss on edges
_TRIANGLE_RULE = triangle_rule(2)
_EDGE_TS = np.array([0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)])
_EDGE_RULE = (np.stack([1.0 - _EDGE_TS, _EDGE_TS], axis=1),
              np.array([0.5, 0.5]))


def _plain_masses(size, rule):
    """P1 element masses (cells, k, k) of simplices of measure ``size``:
    the rule's reference matrix times the measure."""
    bary, wts = rule
    return size[:, None, None] * np.einsum("q,qa,qb->ab", wts, bary, bary)


def _weighted_masses(coeff, which, points, size, rule):
    """Relaxation-weighted P1 element masses (cells, k, k) of simplices of
    measure ``size`` whose ``rule`` points are ``points`` (cells, q, 2).
    The relaxation coefficient of block ``which`` is evaluated once, over
    all points; each mass is integrated on its upper triangle and
    mirrored, so that it is symmetric to the last bit."""
    bary, wts = rule
    z = coeff.zeta_values(which, points.reshape(-1, 2)).reshape(
        points.shape[:2])
    a, b = np.triu_indices(bary.shape[1])
    # einsum's "q,nq,qp,qp->np": from zero, over q in order, each term
    # multiplied left to right
    upper = np.zeros((len(size), len(a)))
    for q in range(len(wts)):
        upper += wts[q] * z[:, q, None] * bary[q, a] * bary[q, b]
    masses = np.empty((len(size),) + (bary.shape[1],) * 2)
    masses[:, a, b] = masses[:, b, a] = size[:, None] * upper
    return masses


def _triangle_geometry(mesh):
    """Constant P1 basis gradients (nt, 2, 3) and areas (nt,) of the
    triangles."""
    tri = mesh.vertices[mesh.triangles]
    e0 = tri[:, 2] - tri[:, 1]
    e1 = tri[:, 0] - tri[:, 2]
    e2 = tri[:, 1] - tri[:, 0]
    area = mesh.triangle_areas()
    grads = np.stack([np.stack([-e0[:, 1], -e1[:, 1], -e2[:, 1]], axis=1),
                      np.stack([e0[:, 0], e1[:, 0], e2[:, 0]], axis=1)], axis=1)
    return grads / (2.0 * area)[:, None, None], area


def _cell_weights(mesh, coeff, area):
    """Bulk-weight integral over every triangle (nt,): the areas ``area``
    when there is no weight."""
    if coeff.bulk_weight is None:
        return area
    return weighted_cell_integral(coeff.bulk_weight,
                                  mesh.vertices[mesh.triangles],
                                  tol_rel=_WEIGHT_TOL)


def _scatter(dofs, elem, n):
    """Sum element matrices (cells, k, k) onto the dofs (cells, k) of an
    n x n CSR matrix; a dof of -1 drops its rows and columns.  The
    entries go in row-major (cell, a, b) order."""
    k = dofs.shape[1]
    dofs = dofs.astype(np.int32)
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    keep = np.flatnonzero((rows >= 0) & (cols >= 0))
    return sp.csr_matrix((elem.reshape(-1).take(keep),
                          (rows.take(keep), cols.take(keep))), shape=(n, n))


def _coefficient_integrals(mesh, coeff, area, cell_w):
    """Integral of the full bulk coefficient over every triangle,
    (nt, 2, 2).  Constant bases scale the weight integrals ``cell_w``;
    callables are evaluated once per region over all its quadrature
    points, or, under a weight, integrated adaptively cell by cell."""
    tris = mesh.vertices[mesh.triangles]
    out = np.empty((mesh.num_triangles, 2, 2))
    for region in np.unique(mesh.tri_regions):
        sel = mesh.tri_regions == region
        base = coeff.bulk_base_matrix(region)
        if base is not None:
            out[sel] = cell_w[sel, None, None] * base
            continue

        def f(points):
            return coeff.bulk_values(points, region).reshape(len(points), 4)

        if coeff.bulk_weight is None:
            bary, wts = triangle_rule(_QUAD_ORDER)
            pts = bary @ tris[sel]
            vals = f(pts.reshape(-1, 2)).reshape(len(pts), len(wts), 4)
            out[sel] = (wts @ vals).reshape(-1, 2, 2) * area[sel, None, None]
            continue
        for k in np.flatnonzero(sel):
            value, _ = adaptive_triangles_integral(
                f, tris[k][None], tol_rel=_WEIGHT_TOL,
                weight_fn=coeff.bulk_weight.eval)
            out[k] = np.asarray(value).reshape(2, 2)
    return out


def _stiffness(mesh, dofmap, grads, cell_mats):
    """Stiffness with element matrices ``grad^T C grad`` for the cell
    coefficient integrals ``C``.  The entries (a, b), a <= b, and their
    mirrors (b, a) are one product with one summation order, of ``C`` and
    of ``C^T``, so a bitwise symmetric ``C`` gives element matrices, and
    a stiffness, that are symmetric to the last bit."""
    a, b = np.triu_indices(3)
    ga, gb = grads[:, :, a], grads[:, :, b]
    elem = np.empty((len(grads), 3, 3))
    elem[:, b, a] = _gram_products(ga, cell_mats.transpose(0, 2, 1), gb)
    elem[:, a, b] = _gram_products(ga, cell_mats, gb)
    return _scatter(dofmap.vertex_free[mesh.triangles], elem, dofmap.n_free)


def _gram_products(ga, mats, gb):
    """``ga[n, :, p] . mats[n] gb[n, :, p]`` (cells, p), summed as
    einsum's ``"nip,nij,njp->np"``: from zero, over (i, j) in row-major
    order, each term multiplied left to right."""
    out = np.zeros((len(ga), ga.shape[2]))
    for i in range(2):
        for j in range(2):
            out += ga[:, i] * mats[:, i, j, None] * gb[:, j]
    return out


def _form_gram_bulk(mesh, dofmap, cell_w):
    """The bulk part of the form-domain Gram matrix ``M_form``: the plain
    consistent bulk mass plus the envelope stiffness, whose envelope
    integrals are the weight integrals ``cell_w`` (:func:`_cell_weights`)."""
    grads, area = _triangle_geometry(mesh)
    mass = _scatter(dofmap.vertex_free[mesh.triangles],
                    _plain_masses(area, _TRIANGLE_RULE), dofmap.n_free)
    return mass + _stiffness(mesh, dofmap, grads,
                             cell_w[:, None, None] * np.eye(2))


def _edge_points(smesh, ts):
    """The points (ne, q, 2) at the parameters ``ts`` (q,) of every
    edge."""
    ends = smesh.mesh.vertices[smesh.edges]
    return ends[:, None, 0] + ts[:, None] * (ends[:, None, 1] - ends[:, None, 0])


def _surface_samples(smesh, coeff, which, ts):
    """The points (ne * q, 2) at the parameters ``ts`` (q,) of every edge
    and the tangential surface coefficient there, (ne, q)."""
    pts = _edge_points(smesh, ts).reshape(-1, 2)
    tangents = np.repeat(smesh.tangents, len(ts), axis=0)
    return pts, coeff.surface_values(which, pts, tangents).reshape(-1, len(ts))


def _surface_stiffness(smesh, coeff, which, dofs, n):
    """Tangential P1 stiffness of the surface edges, scattered onto the
    edge dofs ``dofs`` (ne, 2) of an n x n matrix.

    Each edge contributes ``(integral of mu_t / L^2) [[1,-1],[-1,1]]``;
    edges whose probe samples agree take that value times their length,
    and a vanishing coefficient gives zero rows, so arbitrarily supported
    (degenerate) surface diffusion assembles naturally.  Raises
    :class:`EnvelopeViolationError` naming the edge when a sampled value,
    an integral or a stiffness ``integral / L^2`` is not finite, or a
    sample or an integral is negative.
    """
    length = smesh.edge_lengths
    _, probe = _surface_samples(smesh, coeff, which, _PROBE_TS)
    bad = probe.min(axis=1) < -1e-12 * np.maximum(
        1.0, np.abs(probe).max(axis=1))
    bad |= ~np.isfinite(probe).all(axis=1)
    if bad.any():
        raise EnvelopeViolationError(
            f"negative or non-finite tangential coefficient sampled on "
            f"{which} edge {np.argmax(bad)}")
    s_e = probe[:, 0] * length
    vary = np.flatnonzero(np.ptp(probe, axis=1) != 0.0)
    if len(vary):
        ends = smesh.mesh.vertices[smesh.edges[vary]]
        tangents = smesh.tangents[vary]
        s_e[vary], _ = adaptive_line_integral(
            lambda pts, rows: coeff.surface_values(which, pts, tangents[rows]),
            ends[:, 0], ends[:, 1], tol_rel=_SURFACE_TOL)
        bad = s_e[vary] < -1e-12 * length[vary] * np.maximum(
            1.0, np.abs(s_e[vary]))
        bad |= ~np.isfinite(s_e[vary])
        if bad.any():
            raise EnvelopeViolationError(
                f"negative or non-finite tangential coefficient integral on "
                f"{which} edge {vary[np.argmax(bad)]}")
    w = s_e / length ** 2
    bad = ~np.isfinite(w)
    if bad.any():
        raise EnvelopeViolationError(
            f"{'mu_gd' if which == DYNAMIC else 'mu_sigma'} gives a "
            f"non-finite tangential stiffness (coefficient integral over "
            f"squared length) on {which} edge {np.argmax(bad)}")
    elem = w[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return _scatter(dofs, elem, n)


def _surface_plain_mass(smesh, dofs, n):
    """Plain consistent edge P1 mass, scattered onto the edge dofs
    ``dofs`` (ne, 2) of an n x n matrix."""
    return _scatter(dofs, _plain_masses(smesh.edge_lengths, _EDGE_RULE), n)


def _surface_block_dofs(dofmap, smesh, which):
    """Index of each surface edge end within the surface's block of free
    nodes, (ne, 2); -1 for a constrained node."""
    verts = dofmap.surface_vertices(which)
    index = np.full(dofmap.n_vertices, -1, dtype=int)
    index[verts] = np.arange(len(verts))
    return index[smesh.edges]


def _block_mass(blocks, lumped):
    """Block-diagonal CSR mass of the block space from its ``blocks``:
    (element dofs within the block, block size, element masses) of each
    nonempty block.  Lumping is one rule for every block: element row
    sums, scattered as 1x1 elements."""
    if lumped:
        blocks = [(dofs.reshape(-1, 1), n_b,
                   mass.sum(axis=2).reshape(-1, 1, 1))
                  for dofs, n_b, mass in blocks]
    return sp.block_diag([_scatter(dofs, mass, n_b)
                          for dofs, n_b, mass in blocks], format="csr")


def assemble_trace_map(dofmap):
    """Stacked 0/1 selection: bulk identity over the Gamma_d and Sigma
    restrictions, mapping free bulk dofs into the block space."""
    n = dofmap.n_free
    blocks = [sp.identity(n, format="csr")]
    for verts in (dofmap.gd_vertices, dofmap.sigma_vertices):
        rows = np.arange(len(verts))
        cols = dofmap.vertex_free[verts]
        if np.any(cols < 0):
            raise ConsistencyError("surface node without a free bulk counterpart")
        blocks.append(sp.csr_matrix((np.ones(len(verts)), (rows, cols)),
                                    shape=(len(verts), n)))
    return sp.vstack(blocks, format="csr")


# -- the pencil ---------------------------------------------------------------------

def lanczos_start(n):
    """Fixed-seed Lanczos start vector, so sparse eigensolves repeat
    bit for bit."""
    return np.random.default_rng(0).standard_normal(n)


# widest RCM band that ``Factorization`` factors by band Cholesky: the
# measured crossover against SuperLU (see ``Factorization``)
BAND_LIMIT = 140


def _symmetric(matrix):
    """Whether a sparse matrix equals its transpose bit for bit: the one
    meaning of symmetric for every pencil matrix."""
    return (matrix != matrix.T).nnz == 0


def _band_cholesky(matrix, width_limit=BAND_LIMIT):
    """``(order, inverse, factor)`` of a symmetric positive definite CSR
    matrix whose reverse Cuthill-McKee bandwidth is at most
    ``width_limit`` (``None``: any width): the LAPACK upper band Cholesky
    factor of the matrix with rows and columns taken in ``order``.  None
    otherwise.  Symmetric means :func:`_symmetric`: every entry equals
    its mirror bit for bit."""
    n = matrix.shape[0]
    if not _symmetric(matrix):
        return None
    # imported on first use, so runs that factor nothing do not load it
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    order = reverse_cuthill_mckee(matrix, symmetric_mode=True)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n, dtype=order.dtype)
    coo = matrix.tocoo()
    rows, cols = inverse[coo.row], inverse[coo.col]
    upper = rows <= cols
    rows, cols, data = rows[upper], cols[upper], coo.data[upper]
    width = int((cols - rows).max(initial=0))
    if width_limit is not None and width > width_limit:
        return None
    # LAPACK upper band storage: A[i, j] at ab[width + i - j, j]
    band = np.bincount(width + rows - cols + (width + 1) * cols,
                       weights=data, minlength=(width + 1) * n)
    del coo, rows, cols, data, upper
    factor, info = scipy.linalg.lapack.dpbtrf(
        band.reshape((width + 1, n), order="F"), lower=0, overwrite_ab=1)
    if info != 0:       # not positive definite
        return None
    return order, inverse, factor


class Factorization:
    """Factorization of one square matrix, reused by every solve.

    A symmetric matrix (every entry equal to its mirror bit for bit) is
    first reordered by reverse Cuthill-McKee.  If its band is then at
    most ``BAND_LIMIT`` wide and LAPACK's band Cholesky ``dpbtrf`` of the
    upper triangle succeeds, a solve is two band triangular solves and
    two permutation gathers (``kind == "band-cholesky"``).  Every other
    matrix, non-symmetric, too wide or not positive definite, gets
    SuperLU's sparse LU with the columns ordered by minimum degree on
    ``A^T + A`` (``kind == "lu"``); an exactly singular LU factor raises
    :class:`SolveError`.  ``nnz`` counts the entries the factor stores:
    ``(bandwidth + 1) n`` for the band, L plus U for SuperLU.  The shape
    and infinity norm are kept, so that a caller that forms ``A u``
    anyway can check a solve by its normwise backward error.

    ``BAND_LIMIT`` is the measured crossover on the step matrices of the
    unit-square fixture (theta = 1, dt = 0.002; n x n cells, about n^2
    dofs, RCM bandwidth n + 1).  Medians on a 2-core AMD EPYC with a
    32 MiB L3 cache, 1 BLAS thread, scipy 1.17.1:

    ====  ======  =====  =======  ==============  ==============
    n     dofs    width  band MB  factor ms       solve us
                                  (band, LU)      (band, LU)
    ====  ======  =====  =======  ==============  ==============
    64    4,160   65     2.2      2.0, 4.0        74, 136
    96    9,312   97     7.3      5.9, 10.0       215, 344
    128   16,512  129    17.2     16.5, 21.0      492, 664
    136   18,632  137    20.6     17.9, 22.9      694, 734
    144   20,880  145    24.4     21.1, 24.5      917, 807
    160   25,760  161    33.4     28.5, 40.8      1934, 1050
    192   37,056  193    57.5     50.5, 57.9      3709, 2022
    ====  ======  =====  =======  ==============  ==============

    The band solve loses once the band outgrows the cache.  At n = 64
    the band holds 274,560 entries, SuperLU's L and U 214,642.
    """

    def __init__(self, matrix):
        matrix = sp.csr_matrix(matrix)
        self.shape = matrix.shape
        self.norm = float(abs(matrix).sum(axis=1).max())
        band = _band_cholesky(matrix)
        if band is None:
            self.kind = "lu"
            try:
                self._lu = spla.splu(matrix.tocsc(),
                                     permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:     # SuperLU: exactly singular
                raise SolveError(
                    f"sparse LU factorization failed: {exc}") from None
            # entries SuperLU stores for L and U; reading ``.L``/``.U``
            # instead would keep a second, CSC copy of both factors alive
            self.nnz = int(self._lu.nnz)
        else:
            self.kind = "band-cholesky"
            self._order, self._inverse, self._band = band
            self.nnz = int(self._band.size)

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if self.kind == "lu":
            return self._lu.solve(rhs)
        x, _ = scipy.linalg.lapack.dpbtrs(
            self._band, rhs.take(self._order, axis=0), lower=0,
            overwrite_b=1)
        return x.take(self._inverse, axis=0)

    def operator(self):
        """The inverse as a LinearOperator (shift-invert ``OPinv``)."""
        return spla.LinearOperator(self.shape, matvec=self.solve, dtype=float)


class DiscreteOperator:
    """Matrix pencil realizing the energy form and the block geometry.

    Attributes
    ----------
    T : csr_matrix
        Stiffness on free bulk dofs: the bulk term plus the surface terms
        scattered onto the free bulk dofs of their edges.
    M_blk : csr_matrix
        Relaxation-weighted block mass.
    J : csr_matrix
        Trace map, free bulk dofs -> block space; its rows past the bulk
        identity select the dynamic-boundary, then the interface nodes.
    K_bulk : csr_matrix
        Bulk-only part of the stiffness (used for flux recovery).
    M_blk_plain : csr_matrix
        Unweighted block mass, lumped when the pencil is.
    M_form_bulk : csr_matrix
        Bulk part of ``M_form``: the plain consistent bulk mass plus the
        envelope stiffness of the weight integrals.
    M_form : csr_matrix
        Gram matrix of the form-domain inner product: ``M_form_bulk``
        plus the surface stiffnesses (each surface is its own envelope).
    interface_mass : csr_matrix
        Plain consistent interface edge mass on the interface block.
    smeshes : dict
        The ``dynamic`` and ``interface`` SurfaceMesh of the mesh.

    Only diagnostics read ``M_blk_plain`` (steady solves, flux recovery),
    ``M_form`` (the J-ellipticity constant), ``M_form_bulk`` (it and the
    trace probe) and ``interface_mass`` (flux recovery, the trace probe),
    so each is assembled on its own first use, as ``mtilde()`` is
    assembled on its first request.  Of the four only ``M_blk_plain``
    depends on ``lumped``.  For that the pencil keeps only what is costly
    to recompute: ``cell_w``, the bulk-weight integral of every triangle
    (the areas without a weight), and ``surface_stiffness``, the surface
    stiffnesses summed into ``T``, in that order; and whether it is
    ``lumped``.
    """

    def __init__(self, mesh, coeff, dofmap, smeshes, T, K_bulk, M_blk, J, *,
                 cell_w, surface_stiffness, lumped):
        self.mesh = mesh
        self.coeff = coeff
        self.dofmap = dofmap
        self.smeshes = smeshes
        self.T = T
        self.K_bulk = K_bulk
        self.M_blk = M_blk
        self.J = J
        self._cell_w = cell_w
        self._surface_stiffness = tuple(surface_stiffness)
        self._lumped = lumped
        self._mtilde = None
        self._eig_cache = None
        self._factors = {}

    @cached_property
    def M_blk_plain(self):
        mesh, dofmap = self.mesh, self.dofmap
        blocks = [(dofmap.vertex_free[mesh.triangles], dofmap.n_free,
                   _plain_masses(mesh.triangle_areas(), _TRIANGLE_RULE))]
        blocks += [(_surface_block_dofs(dofmap, smesh, which),
                    len(dofmap.surface_vertices(which)),
                    _plain_masses(smesh.edge_lengths, _EDGE_RULE))
                   for which, smesh in self.smeshes.items()
                   if len(dofmap.surface_vertices(which))]
        return _block_mass(blocks, self._lumped)

    @cached_property
    def M_form_bulk(self):
        return _form_gram_bulk(self.mesh, self.dofmap, self._cell_w)

    @cached_property
    def M_form(self):
        return sum(self._surface_stiffness, self.M_form_bulk).tocsr()

    @cached_property
    def interface_mass(self):
        smesh = self.smeshes[INTERFACE]
        return _surface_plain_mass(
            smesh, _surface_block_dofs(self.dofmap, smesh, INTERFACE),
            self.dofmap.n_sigma)

    @property
    def n_free(self):
        return self.dofmap.n_free

    def mtilde(self):
        """Gram matrix J^T M_blk J of the block norm on bulk dofs."""
        if self._mtilde is None:
            self._mtilde = (self.J.T @ self.M_blk @ self.J).tocsr()
        return self._mtilde

    def factorization(self, key, build):
        """The :class:`Factorization` of the matrix ``build()`` returns
        (band Cholesky or sparse LU), computed on the first request for
        ``key`` and shared by every later one.

        The pencil never changes, so one factorization per matrix serves
        every solve.  Keys name the matrix: ``("step", theta, dt)`` for
        ``Mt + theta dt T``, ``"mtilde"``, ``"T"``, ``("shift", sigma)``
        for ``T - sigma Mt`` and ``("M_plain", "interface")``.
        """
        lu = self._factors.get(key)
        if lu is None:
            lu = self._factors[key] = Factorization(build())
        return lu

    def is_symmetric(self):
        """Whether ``T`` equals its transpose bit for bit
        (:func:`_symmetric`).  It does whenever the bulk coefficient is
        bitwise symmetric, since the stiffness is assembled symmetric by
        construction."""
        return _symmetric(self.T)

    def lumped_block_weights(self):
        """Positive block measure weights (lumped M_blk diagonal)."""
        ones = np.ones(self.M_blk.shape[0])
        return np.asarray(self.M_blk @ ones).ravel()


def build_pencil(mesh, coeff, *, lumped=False, extra_constrained=()):
    """Assemble the discrete operator pencil for a labeled mesh.

    ``T``, ``K_bulk``, ``M_blk`` and ``J`` are assembled here, the
    diagnostic matrices each on its own first use (see
    :class:`DiscreteOperator`).
    One pass over the triangles gives the P1 gradients and areas, and one
    call the weight integrals, which serve both the coefficient stiffness
    and, later, the envelope stiffness of ``M_form``.  Each block of the
    block space (bulk, dynamic boundary, interface) gets its weighted
    element masses from one relaxation-coefficient evaluation.  Lumping
    is one rule for every block: element row sums, scattered as 1x1
    elements.  The surface stiffness, its own envelope, goes straight
    onto the free bulk dofs of its edges in ``T`` (and in ``M_form``).
    """
    smeshes = {which: SurfaceMesh.from_mesh(mesh, which)
               for which in (DYNAMIC, INTERFACE)}
    dofmap = build_dofmap(mesh, smeshes[DYNAMIC], smeshes[INTERFACE],
                          extra_constrained)
    n = dofmap.n_free

    grads, area = _triangle_geometry(mesh)
    cell_w = _cell_weights(mesh, coeff, area)
    k_bulk = _stiffness(mesh, dofmap, grads, _coefficient_integrals(
        mesh, coeff, area, cell_w))
    k_surfs = []
    # (element dofs within the block, block size, weighted element
    # masses) of each block of the block space
    blocks = [(dofmap.vertex_free[mesh.triangles], n, _weighted_masses(
        coeff, "bulk", _TRIANGLE_RULE[0] @ mesh.vertices[mesh.triangles],
        area, _TRIANGLE_RULE))]
    for which, smesh in smeshes.items():
        n_surf = len(dofmap.surface_vertices(which))
        if n_surf == 0:         # an empty block adds no rows to M_blk
            continue
        k_surfs.append(_surface_stiffness(smesh, coeff, which,
                                          dofmap.vertex_free[smesh.edges], n))
        blocks.append((_surface_block_dofs(dofmap, smesh, which), n_surf,
                       _weighted_masses(coeff, which,
                                        _edge_points(smesh, _EDGE_TS),
                                        smesh.edge_lengths, _EDGE_RULE)))

    t_mat = sum(k_surfs, k_bulk).tocsr()
    m_blk = _block_mass(blocks, lumped)
    # one pass over each matrix once its last sum is taken: a non-finite
    # coefficient value or an overflow shows as a non-finite entry
    for matrix, name, source in (
            (k_bulk, "bulk stiffness K_bulk", "mu_omega"),
            (t_mat, "stiffness T", "mu_omega with the surface coefficients"),
            (m_blk, "block mass M_blk", "the relaxation coefficient zeta")):
        if not np.isfinite(matrix.data).all():
            raise EnvelopeViolationError(f"{source} gives a non-finite {name}")
    return DiscreteOperator(mesh, coeff, dofmap, smeshes, t_mat, k_bulk, m_blk,
                            assemble_trace_map(dofmap), cell_w=cell_w,
                            surface_stiffness=k_surfs, lumped=lumped)


def project_initial_data(raw, pencil):
    """Block-mass-orthogonal projection of raw block data onto traces.

    Solves ``(J^T M_blk J) u = J^T M_blk raw`` for the bulk-dof vector
    whose trace triple is closest to the (possibly unrelated) components
    of ``raw`` in the weighted block norm.
    """
    rhs = pencil.J.T @ (pencil.M_blk @ raw.stacked())
    try:
        lu = pencil.factorization("mtilde", pencil.mtilde)
    except SolveError:
        raise ConsistencyError("projection normal matrix is singular") from None
    u = lu.solve(rhs)
    if not np.all(np.isfinite(u)):
        raise ConsistencyError("projection normal matrix is singular")
    return u


# -- envelope validation ---------------------------------------------------------------

def validate_envelopes(mesh, coeff):
    """Sample the coefficient bounds at quadrature points.

    Returns ``(diagnostics, observed)`` where observed carries the
    tightest constants seen: ``c1_obs = min lambda_min(sym mu)/mu*`` and
    ``c2_obs = max ||mu|| / mu*`` over bulk quadrature points, plus the
    minimum relaxation values per block.
    """
    diags = []
    bary, _ = triangle_rule(_ENVELOPE_ORDER)
    pts = bary @ mesh.vertices[mesh.triangles]            # (nt, q, 2)
    flat = pts.reshape(-1, 2)
    mu = np.empty(pts.shape[:2] + (2, 2))
    for region in np.unique(mesh.tri_regions):
        sel = mesh.tri_regions == region
        mu[sel] = coeff._bulk_unweighted(pts[sel].reshape(-1, 2),
                                         region).reshape(-1, len(bary), 2, 2)
    env = coeff.bulk_envelope_values(flat).reshape(pts.shape[:2])
    if coeff.bulk_weight is not None:   # the full coefficient, as bulk_values
        mu *= env[..., None, None]
    a, b, c, d = (mu[..., i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    # a sample whose entries could overflow the products below is scaled
    # by an exact power of two, and both bounds are scaled back: they are
    # homogeneous of degree one.  Every other sample keeps its arithmetic.
    shift = 0
    if max(mu.max(), -mu.min()) > 2.0 ** 500:
        big = np.abs(mu).max(axis=(-2, -1))
        shift = np.where(big > 2.0 ** 500, np.frexp(big)[1], 0)
        a, b, c, d = (np.ldexp(x, -shift) for x in (a, b, c, d))
    off = 0.5 * (b + c)                     # of the symmetric part
    tr = a + d
    disc = np.sqrt(np.maximum(0.25 * tr * tr - (a * d - off * off), 0.0))
    lam_min = np.ldexp(0.5 * tr - disc, shift)
    # largest singular value of a 2x2 matrix, free of cancellation
    norm2 = np.ldexp(np.hypot(0.5 * tr, 0.5 * (c - b))
                     + np.hypot(0.5 * (a - d), off), shift)
    pos = env > 0
    c1_obs = float(np.min(lam_min[pos] / env[pos])) if np.any(pos) else np.inf
    c2_obs = float(np.max(norm2[pos] / env[pos])) if np.any(pos) else 0.0
    below = lam_min + 1e-13 * np.maximum(env, 1.0) < coeff.c1 * env
    above = norm2 > coeff.c2 * env * (1 + 1e-13) + 1e-13
    diags += [f"bulk coefficient below c1 * envelope on triangle {k}"
              for k in np.flatnonzero(below.any(axis=1))]
    diags += [f"bulk coefficient above c2 * envelope on triangle {k}"
              for k in np.flatnonzero(above.any(axis=1))]
    zeta_min = float(np.min(coeff.zeta_values("bulk", flat)))

    ts = np.linspace(0.1, 0.9, 5)
    for which in (DYNAMIC, INTERFACE):
        smesh = SurfaceMesh.from_mesh(mesh, which)
        if len(smesh.edges) == 0:
            continue
        pts, mu_t = _surface_samples(smesh, coeff, which, ts)
        # the surface envelope is the coefficient itself, so c1 and c2
        # bound only the bulk; a surface coefficient need only be >= 0
        diags += [f"surface coefficient violates nonnegativity "
                  f"({which} edge {k})"
                  for k in np.flatnonzero((mu_t < -1e-13).any(axis=1))]
        zeta_min = min(zeta_min, float(np.min(coeff.zeta_values(which, pts))))

    if zeta_min <= 0:
        diags.append("relaxation coefficient is not positive")

    observed = {"c1_obs": c1_obs if np.isfinite(c1_obs) else None,
                "c2_obs": c2_obs,
                "zeta_min": zeta_min}
    return sorted(set(diags)), observed
