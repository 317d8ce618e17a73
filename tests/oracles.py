"""Independent verification oracles used by the test suite.

Everything here recomputes quantities through a different code path
than the library: P1 gradients come from a 3x3 Vandermonde solve rather
than edge rotations, the energy form is evaluated by a plain element
loop instead of sparse matrix algebra, reference integrals come from
Richardson-extrapolated midpoint grids, the dyadic scan measures the
distance of every cube, the polygon clip clips every row, pencil
spectra come from LAPACK's dense generalized solver or, at theta = 1,
from no eigensolve at all, inverse fractional powers from scipy's dense
``fractional_matrix_power``, the band congruence from band solves
that take one right-hand side at a time, the pencil's deferred
matrices from an eager assembly when the pencil is built, a surface
mesh's nodes, chains and arc coordinates from a set, a dict and an
edge-by-edge walk, the exact power integrals from one libm ``pow`` per
argument, the element kernels from ``einsum`` and a broadcast-mask
scatter, and the initial-data projection from a direct factorization.
"""

import hashlib

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from formheat.assembly import (_EDGE_RULE, _TRIANGLE_RULE, Factorization,
                               _band_cholesky, _cell_weights, _form_gram_bulk,
                               _plain_masses, _scatter, _surface_block_dofs,
                               _surface_plain_mass, _surface_stiffness,
                               build_dofmap)
from formheat.errors import (ConsistencyError, DegenerateGeometryError,
                             MeshInvariantError, SolveError)
from formheat.geometry.mesh import DIRICHLET, DYNAMIC, Mesh
from formheat.geometry.surface import INTERFACE, SurfaceMesh
from formheat.spectral import _pencil_eigendecomposition
from formheat.geometry.distance import set_polygon_distance
from formheat.weights import (_CORNERS, _EPS, DyadicCube, ScanResult,
                              _next_vertex, _scan_window,
                              adaptive_line_integral, weighted_cell_integral)


def tri_gradients_vandermonde(tri):
    """P1 basis gradients via the Vandermonde system (independent path)."""
    tri = np.asarray(tri, dtype=float)
    vand = np.column_stack([np.ones(3), tri])
    coeffs = np.linalg.solve(vand, np.eye(3))
    return coeffs[1:, :]  # rows: d/dx, d/dy of the three hats


def triangle_area(tri):
    tri = np.asarray(tri, dtype=float)
    return 0.5 * abs(np.linalg.det(np.column_stack([tri[1] - tri[0],
                                                    tri[2] - tri[0]])))


def midpoint_grid_triangle(f, tri, n):
    """Exact-partition midpoint rule on n^2 congruent subtriangles."""
    tri = np.asarray(tri, dtype=float)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    up = (i + j) < n
    down = (i + j) < n - 1
    bc = np.concatenate([
        np.stack([(i[up] + 1 / 3) / n, (j[up] + 1 / 3) / n], axis=1),
        np.stack([(i[down] + 2 / 3) / n, (j[down] + 2 / 3) / n], axis=1)])
    pts = tri[0] + np.outer(bc[:, 0], tri[1] - tri[0]) \
        + np.outer(bc[:, 1], tri[2] - tri[0])
    return float(np.sum(f(pts))) * triangle_area(tri) / (n * n)


def midpoint_grid_box(f, bounds, n):
    """Composite midpoint rule on an n x n grid over a box."""
    x0, y0, x1, y1 = bounds
    xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
    ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([xg.ravel(), yg.ravel()], axis=1)
    return float(np.mean(f(pts))) * (x1 - x0) * (y1 - y0)


def richardson(values):
    """Extrapolate a dyadically refined sequence with its observed rate."""
    i0, i1, i2 = values[-3:]
    num = i1 - i0
    den = i2 - i1
    if den == 0:
        return i2
    rate = np.log2(abs(num / den))
    rate = max(rate, 0.25)
    return i2 + (i2 - i1) / (2.0 ** rate - 1.0)


def grid_richardson_box(f, bounds, n0=200, levels=3):
    vals = [midpoint_grid_box(f, bounds, n0 * 2 ** k) for k in range(levels)]
    return richardson(vals)


def grid_richardson_triangle(f, tri, n0=200, levels=3):
    vals = [midpoint_grid_triangle(f, tri, n0 * 2 ** k) for k in range(levels)]
    return richardson(vals)


def edge_linear_coefficient_integral(p0, p1, a, b):
    """Exact integral over the edge of the linear field a . x + b."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    length = np.linalg.norm(p1 - p0)
    mid = 0.5 * (p0 + p1)
    return (float(np.dot(a, mid)) + b) * length


def adaptive_line_integral_loop(f, p0, p1, tol_rel, max_depth=40):
    """Adaptive Gauss-7 integration of ``f(points)`` along one segment by
    a depth-first stack of pieces, right half first (the reference for
    ``adaptive_line_integral``)."""
    xg, wg = np.polynomial.legendre.leggauss(7)
    t = 0.5 * (xg + 1.0)

    def gauss(a, b):
        return float(np.dot(wg, f(a + np.outer(t, b - a)))) * 0.5 \
            * np.linalg.norm(b - a)

    total = total_err = 0.0
    scale = None
    stack = [(np.asarray(p0, float), np.asarray(p1, float), 0)]
    while stack:
        a, b, depth = stack.pop()
        mid = 0.5 * (a + b)
        whole = gauss(a, b)
        refined = gauss(a, mid) + gauss(mid, b)
        if scale is None:
            scale = max(abs(whole), 1e-300)
        if abs(refined - whole) <= tol_rel * scale or depth >= max_depth:
            total += refined
            total_err += abs(refined - whole)
        else:
            stack += [(a, mid, depth + 1), (mid, b, depth + 1)]
    return total, total_err


def refine_uniform_loop(mesh):
    """Red refinement by a loop over triangles, numbering each midpoint
    when its edge is first met (the reference for ``refine_uniform``)."""
    v = mesh.vertices
    verts = list(map(tuple, v))
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            verts.append(tuple(0.5 * (v[i] + v[j])))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    tris = []
    regions = []
    for (a, b, c), r in zip(mesh.triangles, mesh.tri_regions):
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        regions.extend([r, r, r, r])

    bedges = []
    labels = []
    for (i, j), lab in zip(mesh.boundary_edges, mesh.boundary_labels):
        m = mid(i, j)
        bedges.extend([(i, m), (m, j)])
        labels.extend([lab, lab])

    iedges = []
    for i, j in mesh.interface_edges:
        m = mid(i, j)
        iedges.extend([(i, m), (m, j)])

    return Mesh(np.array(verts), np.array(tris, dtype=int),
                np.array(bedges, dtype=int), labels,
                np.array(iedges, dtype=int) if iedges else None,
                np.array(regions, dtype=int))


class FormOracle:
    """Element-loop evaluation of the energy form t(u_h, v_h).

    Walks triangles and surface edges directly, with its own gradient
    formula and scatter-free accumulation; coefficient cell integrals go
    through the same public quadrature primitives as the assembly and
    are precomputed once per mesh.
    """

    def __init__(self, pencil, weight_tol=1e-8, surface_tol=1e-12):
        self.pencil = pencil
        mesh = pencil.mesh
        coeff = pencil.coeff
        self.cell_grads = []
        self.cell_mats = []
        for k in range(mesh.num_triangles):
            tri = mesh.vertices[mesh.triangles[k]]
            self.cell_grads.append(tri_gradients_vandermonde(tri))
            self.cell_mats.append(
                _oracle_coefficient_integral(mesh, coeff, k, weight_tol))
        self.edge_terms = []
        for which in (DYNAMIC, INTERFACE):
            if len(pencil.dofmap.surface_vertices(which)) == 0:
                continue
            smesh = pencil.smeshes[which]
            for e in range(len(smesh.edges)):
                i, j = smesh.edges[e]
                p0, p1 = mesh.vertices[i], mesh.vertices[j]
                tau = (p1 - p0) / np.linalg.norm(p1 - p0)
                length = float(np.linalg.norm(p1 - p0))
                fn = lambda pts, rows=None: coeff.surface_values(
                    which, pts, np.tile(tau, (len(pts), 1)))
                probe = fn(np.array([0.5 * (p0 + p1), p0, p1]))
                if np.ptp(probe) == 0.0:
                    s_e = float(probe[0]) * length
                else:
                    s_e, _ = adaptive_line_integral(fn, p0, p1,
                                                    tol_rel=surface_tol)
                self.edge_terms.append((int(i), int(j), length, s_e))

    def value(self, u_free, v_free):
        pencil = self.pencil
        mesh = pencil.mesh
        full_u = np.zeros(mesh.num_vertices)
        full_v = np.zeros(mesh.num_vertices)
        full_u[pencil.dofmap.free_vertices] = u_free
        full_v[pencil.dofmap.free_vertices] = v_free

        total = 0.0
        for k in range(mesh.num_triangles):
            tri_idx = mesh.triangles[k]
            grad_u = self.cell_grads[k] @ full_u[tri_idx]
            grad_v = self.cell_grads[k] @ full_v[tri_idx]
            total += float(grad_v @ self.cell_mats[k] @ grad_u)
        for i, j, length, s_e in self.edge_terms:
            du = (full_u[j] - full_u[i]) / length
            dv = (full_v[j] - full_v[i]) / length
            total += s_e * du * dv
        return total


def form_value_oracle(pencil, u_free, v_free, weight_tol=1e-8,
                      surface_tol=1e-12):
    """One-shot wrapper around :class:`FormOracle`."""
    return FormOracle(pencil, weight_tol, surface_tol).value(u_free, v_free)


def _oracle_coefficient_integral(mesh, coeff, k, weight_tol):
    """Integral of the bulk coefficient over triangle ``k``: a constant
    base times the area or the weight integral, or, for a callable
    without a weight, the area times its value at the centroid, which is
    exact for an affine coefficient."""
    tri = mesh.vertices[mesh.triangles[k]]
    region = mesh.tri_regions[k]
    base = coeff.bulk_base_matrix(region)
    if base is None:
        if coeff.bulk_weight is not None:
            raise NotImplementedError("oracle covers callables only "
                                      "without a weight")
        centroid = tri.mean(axis=0)[None]
        return triangle_area(tri) * coeff.bulk_values(centroid, region)[0]
    if coeff.bulk_weight is None:
        return triangle_area(tri) * base
    scale = weighted_cell_integral(coeff.bulk_weight, tri, tol_rel=weight_tol)
    return scale * base


def probe_ratio(pencil, theta, p_proxy, u):
    """The embedding probe's ratio ``||u||_inf / ||B u||_lp`` of one
    vector ``u``, through one matrix-vector product chain.  It shares
    the pencil's cached eigenbasis with the library."""
    vals, vecs = _pencil_eigendecomposition(pencil)
    scale = (1.0 + np.clip(vals, 0.0, None)) ** theta
    bu = vecs @ (scale * (vecs.T @ (pencil.mtilde() @ u)))
    denom = float((pencil.lumped_block_weights()
                   @ np.abs(pencil.J @ bu) ** p_proxy) ** (1.0 / p_proxy))
    return float(np.abs(pencil.J @ u).max()) / denom


def probe_sample_ratios_loop(pencil, theta, p_proxy, n_samples, seed):
    """:func:`probe_ratio` of ``n_samples`` standard normal vectors from
    ``seed``, one at a time (the ratios the embedding probe once drew as
    its samples, all of them below its supremum)."""
    rng = np.random.default_rng(seed)
    return [probe_ratio(pencil, theta, p_proxy,
                        rng.standard_normal(pencil.n_free))
            for _ in range(n_samples)]


def inverse_fractional_power(pencil, theta):
    """``B^-1 = (I + Mt^-1 T)^-theta`` as a dense matrix, from
    ``scipy.linalg.fractional_matrix_power`` of the dense
    ``(Mt + T)^-1 Mt``.  Taking the power of the inverse, rather than
    inverting the power of ``I + Mt^-1 T``, keeps it within 3e-13 of
    the exact probe suprema up to 1,089 dofs, where the other order is
    off by up to 4e-12."""
    mt = pencil.mtilde().toarray()
    inverse = np.linalg.solve(mt + pencil.T.toarray(), mt)
    return np.real(scipy.linalg.fractional_matrix_power(inverse, theta))


def exact_l2_supremum_gemm(pencil, theta):
    """Exact ``sup_u ||u||_inf / ||B u||_l2`` as the largest column norm
    of ``Wt^-1/2 Mt V D^-theta V^T``, from the dense ``Mt`` and two
    GEMMs."""
    vals, vecs = _pencil_eigendecomposition(pencil)
    scale = (1.0 + np.clip(vals, 0.0, None)) ** theta
    wt = np.asarray(pencil.J.T @ pencil.lumped_block_weights()).ravel()
    a_mat = (pencil.mtilde().toarray() @ (vecs / scale[None, :])) @ vecs.T
    a_mat /= np.sqrt(wt)[:, None]
    return float(np.sqrt((a_mat ** 2).sum(axis=0).max()))


def eigenvalues_gvd(stiffness, mass):
    """All eigenvalues of ``stiffness v = lambda mass v``, ascending, from
    the dense generalized solver on dense copies of both sparse matrices
    (the reference for the band congruence of every dense eigenproblem)."""
    return scipy.linalg.eigh(stiffness.toarray(), mass.toarray(),
                             eigvals_only=True)


def pencil_eigenvalues_gvd(pencil):
    """All eigenvalues of ``T v = lambda Mt v`` (:func:`eigenvalues_gvd`)."""
    return eigenvalues_gvd(pencil.T, pencil.mtilde())


def trace_pair(mesh, coeff):
    """The plain interface mass and the bulk part of ``M_form``, on the
    free bulk dofs, whose largest generalized eigenvalue is the square of
    ``trace_norm_probe``'s supremum; assembled from the mesh with its own
    dof map, independently of the pencil the probe reads them from."""
    smesh = SurfaceMesh.from_mesh(mesh, INTERFACE)
    dofmap = build_dofmap(mesh, None, smesh)
    numer = _surface_plain_mass(smesh, dofmap.vertex_free[smesh.edges],
                                dofmap.n_free)
    denom = _form_gram_bulk(mesh, dofmap, _cell_weights(
        mesh, coeff, mesh.triangle_areas()))
    return numer, denom


def pencil_digest(pencil):
    """sha256 of the data, indices and indptr of ``T``, ``K_bulk``,
    ``M_blk``, ``M_blk_plain``, ``J``, ``M_form`` and ``mtilde()``, in
    that order: equal digests mean bit-identical pencil matrices."""
    digest = hashlib.sha256()
    for matrix in (pencil.T, pencil.K_bulk, pencil.M_blk, pencil.M_blk_plain,
                   pencil.J, pencil.M_form, pencil.mtilde()):
        for array in (matrix.data, matrix.indices, matrix.indptr):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def eager_plain_and_form(mesh, coeff, lumped=False):
    """``(M_blk_plain, M_form)`` of ``build_pencil(mesh, coeff,
    lumped=lumped)`` assembled at once from the mesh, with freshly
    integrated weights and surface stiffnesses, in the pencil's order of
    summation (the reference for the pencil's deferred assembly)."""
    smeshes = [SurfaceMesh.from_mesh(mesh, which)
               for which in (DYNAMIC, INTERFACE)]
    dofmap = build_dofmap(mesh, *smeshes)
    n = dofmap.n_free
    area = mesh.triangle_areas()
    m_form = _form_gram_bulk(mesh, dofmap, _cell_weights(mesh, coeff, area))
    blocks = [(dofmap.vertex_free[mesh.triangles], n,
               _plain_masses(area, _TRIANGLE_RULE))]
    for which, smesh in zip((DYNAMIC, INTERFACE), smeshes):
        n_surf = len(dofmap.surface_vertices(which))
        if n_surf == 0:
            continue
        m_form = m_form + _surface_stiffness(
            smesh, coeff, which, dofmap.vertex_free[smesh.edges], n)
        blocks.append((_surface_block_dofs(dofmap, smesh, which), n_surf,
                       _plain_masses(smesh.edge_lengths, _EDGE_RULE)))
    if lumped:
        blocks = [(dofs.reshape(-1, 1), n_b,
                   mass.sum(axis=2).reshape(-1, 1, 1))
                  for dofs, n_b, mass in blocks]
    plain = sp.block_diag([_scatter(dofs, mass, n_b)
                           for dofs, n_b, mass in blocks], format="csr")
    return plain, m_form.tocsr()


def surface_mesh_loop(mesh, edges):
    """The attributes ``SurfaceMesh(mesh, edges, label)`` builds, as a
    dict, built vertex by vertex and edge by edge: nodes from a set of
    vertex ids and a vertex -> node dict, chains walked through an
    incidence dict, arc lengths summed along each chain.  Raises as the
    surface mesh does: ``DegenerateGeometryError`` for a zero-length
    edge, then ``MeshInvariantError`` for a vertex on three edges."""
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    verts = sorted({int(v) for e in edges for v in e})
    local = {v: k for k, v in enumerate(verts)}
    lengths = mesh.edge_lengths(edges)
    if np.any(lengths <= 0):
        raise DegenerateGeometryError("zero-length surface edge")
    d = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    incident = {}
    for k, (i, j) in enumerate(edges):
        incident.setdefault(int(i), []).append(k)
        incident.setdefault(int(j), []).append(k)
    if any(len(eks) > 2 for eks in incident.values()):
        raise MeshInvariantError("surface edges do not form simple polylines")

    unused = set(range(len(edges)))
    chains = []
    while unused:
        # prefer an endpoint (degree-1 vertex) start; otherwise a loop
        start_edge = None
        for k in sorted(unused):
            i, j = edges[k]
            if len(incident[int(i)]) == 1 or len(incident[int(j)]) == 1:
                start_edge = k
                break
        if start_edge is None:
            start_edge = min(unused)
        i, j = map(int, edges[start_edge])
        if len(incident[j]) == 1 and len(incident[i]) != 1:
            i, j = j, i
        chain = [i, j]
        unused.discard(start_edge)
        current, prev_edge = j, start_edge
        while True:
            nxt = [k for k in incident[current]
                   if k != prev_edge and k in unused]
            if not nxt:
                break
            k = nxt[0]
            a, b = map(int, edges[k])
            current = b if a == current else a
            chain.append(current)
            unused.discard(k)
            prev_edge = k
            if current == chain[0]:
                break
        chains.append(chain)

    arc_coords = {}
    for chain in chains:
        s = 0.0
        arc_coords[chain[0]] = 0.0
        for a, b in zip(chain[:-1], chain[1:]):
            s += float(np.linalg.norm(mesh.vertices[b] - mesh.vertices[a]))
            arc_coords[b] = s
    return {"node_vertices": np.array(verts, dtype=int).reshape(-1),
            "edge_nodes": np.array([[local[int(i)], local[int(j)]]
                                    for i, j in edges],
                                   dtype=int).reshape(-1, 2),
            "edge_lengths": lengths,
            "tangents": d / np.sqrt(np.vecdot(d, d))[:, None],
            "chains": chains, "arc_coords": arc_coords, "local": local}


def band_congruence_dtbtrs(pencil, stiffness):
    """The dense congruence ``C = U^-T P S P^T U^-1`` of the sparse
    ``stiffness`` ``S`` on the band Cholesky factor ``P Mt P^T = U^T U``,
    both triangles, from two LAPACK band solves ``dtbtrs`` that take one
    right-hand side column at a time (the reference for the tiled sweeps
    of the spectral calculus)."""
    order, _, factor = _band_cholesky(pencil.mtilde(), width_limit=None)
    congruence = stiffness[order][:, order].toarray()
    for _ in range(2):
        congruence, info = scipy.linalg.lapack.dtbtrs(
            factor, congruence.T, trans="T", overwrite_b=1)
        assert info == 0
    return congruence


def exact_l2_supremum_theta_one(pencil):
    """The p = 2 probe ratio at theta = 1 without any eigensolve.  There
    ``V D^-1 V^T = (Mt + T)^-1``, so the ratio is the largest row norm
    of ``(Mt + T)^-1 Mt Wt^-1/2``, from a dense Cholesky solve."""
    mt = pencil.mtilde().toarray()
    wt = np.asarray(pencil.J.T @ pencil.lumped_block_weights()).ravel()
    factor = scipy.linalg.cho_factor(mt + pencil.T.toarray())
    rows = scipy.linalg.cho_solve(factor, mt / np.sqrt(wt)[None, :])
    return float(np.sqrt((rows ** 2).sum(axis=1).max()))


def fractional_embedding_probe_loop(pencils, theta, p_proxy, n_samples=64,
                                    seed=0):
    """``fractional_embedding_probe``'s ratios, sample by sample: level
    ``l`` keeps the worst of its samples from seed ``seed + l`` and, for
    ``p = 2``, the exact supremum."""
    ratios = []
    for level, pencil in enumerate(pencils):
        worst = max(probe_sample_ratios_loop(pencil, theta, p_proxy,
                                             n_samples, seed + level),
                    default=0.0)
        if p_proxy == 2:
            worst = max(worst, exact_l2_supremum_gemm(pencil, theta))
        ratios.append(worst)
    return ratios


def muckenhoupt_lower_bound_scan_full(w, l_max, window):
    """The dyadic scan measuring the distance of every cube of every
    level (reference for :func:`formheat.weights.muckenhoupt_lower_bound_scan`,
    which measures only where a parent is near the set)."""
    xmin, ymin, xmax, ymax = _scan_window(l_max, window)
    sx0, sy0, sx1, sy1 = w.bounding_box()
    covers = (xmin <= sx0 and ymin <= sy0 and xmax >= sx1 and ymax >= sy1)

    d = 2
    c_min = np.inf
    argmin = None
    rows = []
    level_stats = []
    deferred = []           # per level: (level, mx, my, bounds) of far cubes

    for level in range(l_max + 1):
        edge = 2.0 ** (-level)
        lo = np.ceil(np.array([xmin, ymin]) / edge - 0.5).astype(int)
        hi = np.floor(np.array([xmax, ymax]) / edge + 0.5).astype(int)
        mx, my = np.mgrid[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1].reshape(2, -1)
        polygons = (np.stack([mx, my], axis=-1)[:, None] + _CORNERS) * edge
        dist = set_polygon_distance(w.s, polygons)
        far = dist >= edge
        bounds = (2.0 ** level * dist[far]) ** w.gamma
        deferred.append((level, mx[far], my[far], bounds))
        norm_factor = 2.0 ** (level * (d + w.gamma))
        lvl_min = float(bounds.min(initial=np.inf))
        lvl_min_on_s = np.inf
        near = np.flatnonzero(~far)
        values = norm_factor * weighted_cell_integral(w, polygons[near])
        for i, value in zip(near.tolist(), values.tolist()):
            on_s = bool(dist[i] == 0.0)
            rows.append((level, int(mx[i]), int(my[i]), value, on_s))
            lvl_min = min(lvl_min, value)
            if on_s:
                lvl_min_on_s = min(lvl_min_on_s, value)
            if value < c_min:
                c_min = value
                argmin = DyadicCube(level, int(mx[i]), int(my[i]))
        level_stats.append({
            "level": level,
            "min": lvl_min,
            "min_on_s": None if np.isinf(lvl_min_on_s) else lvl_min_on_s,
        })

    for level, mxs, mys, bounds in deferred:
        norm_factor = 2.0 ** (level * (d + w.gamma))
        for mx, my, bound in zip(mxs.tolist(), mys.tolist(), bounds.tolist()):
            if bound < c_min:
                cube = DyadicCube(level, mx, my)
                value = norm_factor * weighted_cell_integral(w, cube)
                rows.append((level, mx, my, value, False))
                if value < c_min:
                    c_min = value
                    argmin = cube

    return ScanResult(c_min=float(c_min), argmin_cube=argmin,
                      level_stats=level_stats, rows=rows,
                      window_covers_s=covers)


def clip_every_row(polys, counts, normal, offset):
    """Sutherland-Hodgman clip of every row of a polygon stack against
    the half-plane ``{x : normal . x <= offset}`` (reference for
    :func:`formheat.weights._clip`, which clips only the rows crossing
    the line)."""
    m, k = polys.shape[:2]
    rows = np.arange(m)[:, None]
    vals = polys @ normal - offset
    nxt = _next_vertex(counts, k)
    ends, v_ends = polys[rows, nxt], vals[rows, nxt]
    edge = np.arange(k) < counts[:, None]
    keep = edge & (vals <= _EPS)
    cut = edge & (((vals < -_EPS) & (v_ends > _EPS))
                  | ((vals > _EPS) & (v_ends < -_EPS)))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = vals / (vals - v_ends)
        cuts = polys + t[..., None] * (ends - polys)
    # each edge emits its start vertex, then its cut point
    points = np.stack([polys, cuts], axis=2).reshape(m, 2 * k, 2)
    emit = np.stack([keep, cut], axis=2).reshape(m, 2 * k)
    new_counts = emit.sum(axis=1)
    new_counts[new_counts < 3] = 0
    width = int(new_counts.max(initial=0))
    order = np.argsort(~emit, axis=1, kind="stable")
    last = np.maximum(new_counts - 1, 0)[:, None]
    out = points[rows, order[rows, np.minimum(np.arange(width), last)]]
    out[new_counts == 0] = 0.0
    return out, new_counts


def linear_power_per_value(area, vals, gamma):
    """Exact integrals of ``l^gamma`` over triangles with one libm
    ``pow`` per argument, in a Python list per vertex slot (reference
    for :func:`formheat.weights._linear_power`, which calls ``pow`` once
    per distinct value)."""
    scale = np.maximum(1.0, np.abs(vals).max(axis=1))
    small = vals.min(axis=1) > -1e-9 * scale
    vals = np.where(small[:, None], np.clip(vals, 0.0, None), vals)
    l1, l2, l3 = np.sort(vals, axis=1).T
    if ((area > 0.0) & (l1 < 0.0)).any():
        raise ValueError("linear functional changes sign on triangle")
    live = (area > 0.0) & (l3 > 0.0)
    out = np.zeros(len(area))
    flat = live & (l3 - l1 <= 1e-14 * l3)
    out[flat] = area[flat] * ((l1 + l2 + l3)[flat] / 3.0) ** gamma
    sel = live & ~flat
    area, l1, l2, l3 = area[sel], l1[sel], l2[sel], l3[sel]
    g1 = gamma + 1.0
    g2 = g1 + 1.0
    p1 = [np.array([x ** g1 for x in v.tolist()]) for v in (l1, l2, l3)]
    p2 = [np.array([x ** g2 for x in v.tolist()]) for v in (l1, l2, l3)]
    den = l3 - l1
    rise = l2 - l1 > 1e-15 * l3
    fall = l3 - l2 > 1e-15 * l3
    with np.errstate(divide="ignore", invalid="ignore"):
        up = 2.0 * area / ((l2 - l1) * den) * (
            (p2[1] - p2[0]) / g2 - l1 * ((p1[1] - p1[0]) / g1))
        down = 2.0 * area / ((l3 - l2) * den) * (
            l3 * ((p1[2] - p1[1]) / g1) - (p2[2] - p2[1]) / g2)
    out[sel] = np.where(rise, up, 0.0) + np.where(fall, down, 0.0)
    return out


def scatter_masked(dofs, elem, n):
    """Element matrices summed onto a CSR matrix through broadcast row
    and column index arrays and a boolean mask (reference for
    :func:`formheat.assembly._scatter`)."""
    rows = np.broadcast_to(dofs[:, :, None], elem.shape)
    cols = np.broadcast_to(dofs[:, None, :], elem.shape)
    keep = (rows >= 0) & (cols >= 0)
    return sp.csr_matrix((elem[keep], (rows[keep], cols[keep])), shape=(n, n))


def stiffness_einsum(mesh, dofmap, grads, cell_mats):
    """Stiffness with element matrices ``grad^T C grad`` from ``einsum``
    (reference for :func:`formheat.assembly._stiffness`)."""
    a, b = np.triu_indices(3)
    ga, gb = grads[:, :, a], grads[:, :, b]
    elem = np.empty((len(grads), 3, 3))
    elem[:, b, a] = np.einsum("nip,nij,njp->np", ga, np.ascontiguousarray(
        cell_mats.transpose(0, 2, 1)), gb)
    elem[:, a, b] = np.einsum("nip,nij,njp->np", ga, cell_mats, gb)
    return scatter_masked(dofmap.vertex_free[mesh.triangles], elem,
                          dofmap.n_free)


def weighted_masses_einsum(coeff, which, points, size, rule):
    """Relaxation-weighted element masses from ``einsum`` (reference for
    :func:`formheat.assembly._weighted_masses`)."""
    bary, wts = rule
    z = coeff.zeta_values(which, points.reshape(-1, 2)).reshape(
        points.shape[:2])
    a, b = np.triu_indices(bary.shape[1])
    masses = np.empty((len(size),) + (bary.shape[1],) * 2)
    masses[:, a, b] = masses[:, b, a] = size[:, None] * np.einsum(
        "q,nq,qp,qp->np", wts, z, bary[:, a], bary[:, b])
    return masses


def project_initial_data_factored(raw, pencil):
    """Block-mass-orthogonal projection of raw block data onto traces by a
    direct solve: a fresh :class:`Factorization` (band Cholesky or sparse
    LU) of ``J^T M_blk J``, the projection's method before CG."""
    rhs = pencil.J.T @ (pencil.M_blk @ raw.stacked())
    try:
        lu = Factorization(pencil.mtilde())
    except SolveError:
        raise ConsistencyError("projection normal matrix is singular") from None
    u = lu.solve(rhs)
    if not np.all(np.isfinite(u)):
        raise ConsistencyError("projection normal matrix is singular")
    return u
