import numpy as np
import pytest
import scipy.sparse as sp

import formheat.assembly as assembly
import formheat.spectral as spectral
from conftest import form_fixture_coefficients, jittered_mesh
from oracles import (edge_linear_coefficient_integral, form_value_oracle,
                     grid_richardson_triangle)
from formheat.assembly import (BlockField, CoefficientSet, assemble_trace_map,
                               build_dofmap, build_pencil,
                               project_initial_data, validate_envelopes)
from formheat.errors import EnvelopeViolationError, SizeLimitError
from formheat.geometry import Mesh, Points, Polyline, SurfaceMesh, refine_uniform
from formheat.model_problems import standard_fixture_mesh, unit_square_mesh
from formheat.weights import WeightSpec

REF_ELEMENT = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0],
                              [-1.0, 0.0, 1.0]])


def reference_triangle_mesh():
    return Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)],
                [(0, 1), (1, 2), (2, 0)], ["neumann"] * 3)


def bulk_stiffness(mesh, coeff):
    """The pencil's bulk stiffness on a mesh without Dirichlet edges,
    where the free dofs are all vertices in mesh order."""
    pencil = build_pencil(mesh, coeff)
    assert pencil.n_free == mesh.num_vertices
    return pencil.K_bulk.toarray()


def surface_stiffness(mesh, coeff, which):
    """The surface stiffness of ``which`` on its nodes, in SurfaceMesh
    order: ``T - K_bulk`` of the pencil of a mesh without Dirichlet
    edges and without the other surface."""
    pencil = build_pencil(mesh, coeff)
    assert pencil.n_free == mesh.num_vertices
    other = "interface" if which == "dynamic" else "dynamic"
    assert len(SurfaceMesh.from_mesh(mesh, other).edges) == 0
    surf = (pencil.T - pencil.K_bulk).toarray()
    nodes = SurfaceMesh.from_mesh(mesh, which).node_vertices
    off = np.ones(mesh.num_vertices, dtype=bool)
    off[nodes] = False
    assert not surf[off].any() and not surf[:, off].any()
    return surf[np.ix_(nodes, nodes)]


def interface_only_mesh(n):
    """``standard_fixture_mesh(n)``'s interface with Neumann edges all
    round: no Dirichlet part and no dynamic boundary."""
    return unit_square_mesh(n, bottom="neumann", top="neumann",
                            interface_y=0.5)


def test_reference_element_matrix():
    mesh = reference_triangle_mesh()
    mat = bulk_stiffness(mesh, CoefficientSet())
    assert np.allclose(mat, REF_ELEMENT, atol=1e-15)


def test_stiffness_linear_in_coefficient():
    mesh = reference_triangle_mesh()
    one = bulk_stiffness(mesh, CoefficientSet(mu_bulk=1.0))
    two = bulk_stiffness(mesh, CoefficientSet(mu_bulk=2.0))
    assert np.allclose(two, 2.0 * one, atol=1e-15)


def test_weighted_stiffness_vs_bruteforce():
    # triangle crossed by the degeneracy line; entries against the
    # Richardson-extrapolated grid oracle
    mesh = Mesh([(0, 0.25), (1, 0.25), (0, 0.75)], [(0, 1, 2)],
                [(0, 1), (1, 2), (2, 0)], ["neumann"] * 3)
    weight = WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5)
    coeff = CoefficientSet(bulk_weight=weight)
    mat = bulk_stiffness(mesh, coeff)
    tri = mesh.vertices[mesh.triangles[0]]
    scale = grid_richardson_triangle(weight.eval, tri, n0=200)
    base = bulk_stiffness(mesh, CoefficientSet())
    area = 0.25
    assert np.allclose(mat, base * scale / area, rtol=1e-6)


def test_surface_stiffness_single_edge():
    verts = [(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)]
    mesh = Mesh(verts, [(0, 1, 2)], [(0, 1), (1, 2), (2, 0)],
                ["dynamic", "neumann", "neumann"])
    mat = surface_stiffness(mesh, CoefficientSet(mu_gd=1.0), "dynamic")
    assert np.allclose(mat, 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-15)


def test_surface_stiffness_zero_coefficient():
    mat = surface_stiffness(interface_only_mesh(4),
                            CoefficientSet(mu_sigma=0.0), "interface")
    assert abs(mat).max() == 0.0


def test_surface_stiffness_negative_coefficient():
    with pytest.raises(EnvelopeViolationError):
        build_pencil(interface_only_mesh(4), CoefficientSet(mu_sigma=-1.0))


def _infinite_between_samples(points):
    # finite at the probe samples of the interface edge from x = 0.25 to
    # 0.5, whichever way it runs, and infinite on a stretch between them
    return np.where(np.abs(points[:, 0] - 0.35) < 0.02, np.inf,
                    1.0 + points[:, 0])


@pytest.mark.parametrize("mu_sigma, message", [
    (np.inf, "non-finite tangential coefficient sampled on interface "
     "edge 0"),
    (_infinite_between_samples,
     r"non-finite tangential coefficient integral on interface edge \d+"),
])
def test_surface_stiffness_non_finite_coefficient(mu_sigma, message):
    with pytest.raises(EnvelopeViolationError, match=message):
        build_pencil(interface_only_mesh(4), CoefficientSet(mu_sigma=mu_sigma))


def _infinite(points):
    return np.full(len(points), np.inf)


@pytest.mark.parametrize("coefficients, message", [
    ({"mu_bulk": _infinite}, "mu_omega gives a non-finite bulk stiffness "
     "K_bulk"),
    ({"mu_bulk": 1e308}, "mu_omega gives a non-finite bulk stiffness K_bulk"),
    ({"zeta_bulk": _infinite}, "the relaxation coefficient zeta gives a "
     "non-finite block mass M_blk"),
    ({"zeta_gd": _infinite}, "the relaxation coefficient zeta gives a "
     "non-finite block mass M_blk"),
    ({"zeta_sigma": _infinite}, "the relaxation coefficient zeta gives a "
     "non-finite block mass M_blk"),
], ids=["mu_bulk-callable", "mu_bulk-1e308", "zeta_bulk", "zeta_gd",
        "zeta_sigma"])
def test_non_finite_pencil_names_its_coefficient(std_mesh_8, coefficients,
                                                 message):
    # a finite bulk coefficient may still overflow the stiffness, and an
    # infinite relaxation value passes validate_envelopes, which only
    # looks for values <= 0
    with pytest.raises(EnvelopeViolationError, match=message):
        build_pencil(std_mesh_8, CoefficientSet(**coefficients))


def test_surface_stiffness_degenerate_at_midpoint():
    # coefficient |x - M| vanishing at the chain midpoint: row sums zero
    # and entries match the exact per-edge linear integrals
    mesh = interface_only_mesh(4)
    smesh = SurfaceMesh.from_mesh(mesh, "interface")
    mid = np.array([0.5, 0.5])

    def mu(points):
        return np.linalg.norm(points - mid, axis=1)

    mat = surface_stiffness(mesh, CoefficientSet(mu_sigma=mu), "interface")
    assert np.abs(mat.sum(axis=1)).max() <= 1e-12

    expected = np.zeros_like(mat)
    for k in range(len(smesh.edges)):
        i, j = smesh.edges[k]
        p0, p1 = mesh.vertices[i], mesh.vertices[j]
        length = np.linalg.norm(p1 - p0)
        sign = 1.0 if 0.5 * (p0 + p1)[0] > 0.5 else -1.0
        s_e = edge_linear_coefficient_integral(p0, p1, np.array([sign, 0.0]),
                                               -sign * 0.5)
        a, b = smesh.edge_nodes[k]
        w = s_e / length ** 2
        expected[a, a] += w
        expected[b, b] += w
        expected[a, b] -= w
        expected[b, a] -= w
    assert np.allclose(mat, expected, atol=1e-8)


def test_block_mass_totals():
    square = unit_square_mesh(6, bottom="neumann", top="dynamic",
                              interface_y=0.5)
    for mesh in (square, jittered_mesh(square, seed=5)):
        m_blk = build_pencil(mesh, CoefficientSet()).M_blk
        n_free = mesh.num_vertices
        bulk_total = m_blk[:n_free, :n_free].sum()
        assert bulk_total == pytest.approx(1.0, rel=1e-13)
        surf_total = m_blk.sum() - bulk_total
        assert surf_total == pytest.approx(2.0, rel=1e-13)  # |Gamma_d| + |Sigma|

        tripled = build_pencil(mesh, CoefficientSet(
            zeta_bulk=3.0, zeta_gd=3.0, zeta_sigma=3.0)).M_blk
        assert abs(tripled - 3.0 * m_blk).max() <= 1e-13


@pytest.mark.parametrize("mesh", [
    standard_fixture_mesh(8),
    unit_square_mesh(6, bottom="neumann", top="dynamic", interface_y=0.5),
    unit_square_mesh(4, bottom="dirichlet", top="dirichlet")],
    ids=["fixture", "no-dirichlet", "no-surfaces"])
def test_lumped_block_masses_store_one_entry_per_dof(mesh):
    # lumping scatters element row sums as 1x1 elements: no stored
    # off-diagonal zeros; without a Dirichlet part (whose columns the
    # consistent masses drop) the row sums of the consistent masses
    coeff = CoefficientSet(zeta_bulk=lambda p: 1.0 + p[:, 0] * p[:, 1],
                           zeta_gd=2.0, zeta_sigma=0.5)
    lumped = build_pencil(mesh, coeff, lumped=True)
    consistent = build_pencil(mesh, coeff)
    n_block = lumped.J.shape[0]
    for name in ("M_blk", "M_blk_plain"):
        mat = getattr(lumped, name)
        assert mat.nnz == n_block
        assert np.array_equal(mat.indices, np.arange(n_block))
        if len(lumped.dofmap.constrained_vertices) == 0:
            row_sums = np.asarray(getattr(consistent, name).sum(axis=1))
            assert np.allclose(mat.diagonal(), row_sums.ravel(), rtol=1e-14,
                               atol=0.0)


def test_trace_map_examples():
    # no surfaces: identity on bulk
    mesh = unit_square_mesh(3, bottom="neumann", top="neumann")
    dofmap = build_dofmap(mesh)
    j_mat = assemble_trace_map(dofmap)
    assert (j_mat != sp.identity(dofmap.n_free)).nnz == 0

    # an interface node selects its bulk dof
    mesh = standard_fixture_mesh(4)
    pencil = build_pencil(mesh, CoefficientSet())
    dofmap = pencil.dofmap
    row0 = dofmap.n_free + dofmap.n_gd  # first interface row
    col = dofmap.vertex_free[dofmap.sigma_vertices[0]]
    assert pencil.J[row0, col] == 1.0
    assert pencil.J[row0].nnz == 1


def test_trace_block_norm_measures(conserving_pencil_8):
    pencil = conserving_pencil_8
    ones = np.ones(pencil.n_free)
    norm2 = ones @ (pencil.mtilde() @ ones)
    assert norm2 == pytest.approx(3.0, rel=1e-13)  # |Omega| + |Gamma_d| + |Sigma|


def test_projection_examples(conserving_pencil_8):
    pencil = conserving_pencil_8
    dofmap = pencil.dofmap
    mesh = pencil.mesh

    f = lambda p: np.sin(p[:, 0]) + p[:, 1]
    raw = BlockField.from_functions(mesh, dofmap, f, f, f)
    u = project_initial_data(raw, pencil)
    assert np.abs(u - raw.bulk).max() <= 1e-12

    raw = BlockField.zeros(dofmap)
    raw.sigma[:] = 1.0
    u = project_initial_data(raw, pencil)
    residual = pencil.J.T @ (pencil.M_blk @ (pencil.J @ u - raw.stacked()))
    assert np.abs(residual).max() <= 1e-12

    raw = BlockField.from_functions(mesh, dofmap, 1.0, 1.0, 1.0)
    u = project_initial_data(raw, pencil)
    assert np.abs(u - 1.0).max() <= 1e-12


def test_symmetry_and_nonnegativity(std_pencil_8):
    pencil = std_pencil_8
    assert abs(pencil.T - pencil.T.T).max() <= 1e-12 * abs(pencil.T).max()
    rng = np.random.default_rng(11)
    for _ in range(200):
        u = rng.standard_normal(pencil.n_free)
        assert u @ (pencil.T @ u) >= -1e-12 * (u @ u)


def test_constant_kernel_without_dirichlet(conserving_pencil_8):
    pencil = conserving_pencil_8
    ones = np.ones(pencil.n_free)
    assert np.abs(pencil.T @ ones).max() <= 1e-12


def test_closed_dirichlet_constrains_shared_vertices():
    mesh = standard_fixture_mesh(4)
    dofmap = build_dofmap(mesh)
    corners = {0, 4}  # bottom corners belong to Dirichlet and Neumann edges
    assert corners <= set(dofmap.constrained_vertices.tolist())


def test_extra_constrained_endpoints():
    mesh = unit_square_mesh(4, bottom="neumann", top="dynamic",
                            interface_y=0.5)
    sig = SurfaceMesh.from_mesh(mesh, "interface")
    endpoint = int(sig.chains[0][0])
    pencil = build_pencil(mesh, CoefficientSet(),
                          extra_constrained=(endpoint,))
    assert pencil.dofmap.vertex_free[endpoint] == -1
    assert endpoint not in pencil.dofmap.sigma_vertices.tolist()


def _dofmap_cases():
    """(mesh, extra_constrained) pairs with Dirichlet, dynamic and
    interface parts in several combinations."""
    fixture = standard_fixture_mesh(6)
    sides = unit_square_mesh(5, left="dirichlet", top="dynamic",
                             interface_y=0.4)
    sigma = SurfaceMesh.from_mesh(sides, "interface")
    gd = SurfaceMesh.from_mesh(sides, "dynamic")
    conserving = unit_square_mesh(4, bottom="neumann", top="dynamic",
                                  interface_y=0.5)
    return [(fixture, ()), (sides, ()),
            (sides, (int(sigma.chains[0][-1]), int(gd.node_vertices[2]),
                     int(sigma.node_vertices[3]))),
            (conserving, ()), (conserving, (0, 7)),
            (unit_square_mesh(3, bottom="neumann", top="neumann"), ())]


_DOFMAP_IDS = ["fixture", "dirichlet-side", "dirichlet-side-extra",
               "no-dirichlet", "no-dirichlet-extra", "no-surfaces"]


@pytest.mark.parametrize("case", _dofmap_cases(), ids=_DOFMAP_IDS)
def test_build_dofmap_matches_per_vertex_definition(case):
    mesh, extra = case
    smeshes = [SurfaceMesh.from_mesh(mesh, w) for w in ("dynamic",
                                                         "interface")]
    dofmap = build_dofmap(mesh, *smeshes, extra_constrained=extra)
    constrained = set(extra)
    for k, label in enumerate(mesh.boundary_labels):
        if label == "dirichlet":
            constrained.update(int(v) for v in mesh.boundary_edges[k])
    free = [v for v in range(mesh.num_vertices) if v not in constrained]
    vertex_free = np.full(mesh.num_vertices, -1, dtype=int)
    for idx, v in enumerate(free):
        vertex_free[v] = idx
    expected = {
        "free_vertices": free, "vertex_free": vertex_free,
        "constrained_vertices": sorted(constrained),
        "gd_vertices": [v for v in smeshes[0].node_vertices if v in free],
        "sigma_vertices": [v for v in smeshes[1].node_vertices if v in free]}
    for name, want in expected.items():
        got = getattr(dofmap, name)
        assert got.dtype == np.array([0]).dtype, name
        np.testing.assert_array_equal(got, np.array(want, dtype=int),
                                      err_msg=name)
    assert dofmap.n_vertices == mesh.num_vertices


def test_build_dofmap_rejects_vertices_outside_the_mesh():
    mesh = standard_fixture_mesh(2)
    for bad in ((-1,), (mesh.num_vertices,)):
        with pytest.raises(ValueError, match="outside the mesh"):
            build_dofmap(mesh, extra_constrained=bad)


@pytest.mark.parametrize("case", _dofmap_cases(), ids=_DOFMAP_IDS)
def test_trace_map_is_bulk_identity_over_selections(case):
    mesh, extra = case
    dofmap = build_dofmap(mesh, *(SurfaceMesh.from_mesh(mesh, w) for w in
                                  ("dynamic", "interface")),
                          extra_constrained=extra)
    j_mat = assemble_trace_map(dofmap).toarray()
    n = dofmap.n_free
    np.testing.assert_array_equal(j_mat[:n], np.eye(n))
    tail = j_mat[n:]
    assert np.all((tail == 0.0) | (tail == 1.0))
    np.testing.assert_array_equal(tail.sum(axis=1), 1.0)
    surface = np.concatenate([dofmap.gd_vertices, dofmap.sigma_vertices])
    np.testing.assert_array_equal(tail.argmax(axis=1),
                                  dofmap.vertex_free[surface])


def test_form_consistency_with_oracle(std_mesh_8):
    # the jittered mesh has no right triangles, so the batched gradients
    # meet the oracle's Vandermonde ones on general shapes
    from oracles import FormOracle
    rng = np.random.default_rng(23)
    for mesh in (std_mesh_8, jittered_mesh(std_mesh_8, seed=3)):
        for name, coeff in form_fixture_coefficients():
            pencil = build_pencil(mesh, coeff)
            oracle = FormOracle(pencil)
            for _ in range(10):
                u = rng.standard_normal(pencil.n_free)
                v = rng.standard_normal(pencil.n_free)
                assembled = float(v @ (pencil.T @ u))
                reference = oracle.value(u, v)
                scale = max(abs(reference), 1e-12 * np.linalg.norm(u)
                            * np.linalg.norm(v))
                assert abs(assembled - reference) <= 1e-10 * scale, name


@pytest.mark.parametrize("mu", [
    lambda p: 1.0 + p[:, 0] + 0.5 * p[:, 1],
    lambda p: np.stack([np.stack([2.0 + p[:, 0], 0.3 * p[:, 1]], axis=1),
                        np.stack([0.3 * p[:, 1], 1.0 + p[:, 1]], axis=1)],
                       axis=1),
], ids=["scalar", "matrix"])
def test_affine_callable_bulk_coefficient_matches_oracle(std_mesh_8, mu):
    # an unweighted callable takes the fixed triangle rule, which is exact
    # for an affine coefficient, as the oracle's centroid value is
    from oracles import FormOracle
    pencil = build_pencil(std_mesh_8, CoefficientSet(mu_bulk=mu))
    oracle = FormOracle(pencil)
    rng = np.random.default_rng(29)
    for _ in range(10):
        u = rng.standard_normal(pencil.n_free)
        v = rng.standard_normal(pencil.n_free)
        reference = oracle.value(u, v)
        scale = max(abs(reference),
                    1e-12 * np.linalg.norm(u) * np.linalg.norm(v))
        assert abs(float(v @ (pencil.T @ u)) - reference) <= 1e-10 * scale


def test_weighted_pencil_integrates_each_cell_once(std_mesh_8, monkeypatch):
    # the coefficient and envelope stiffness share one weight integral
    # per triangle, all computed in one call over the stack of triangles;
    # the deferred M_form reads the integrals the pencil kept
    cells = []
    integral = assembly.weighted_cell_integral

    def counting(w, cell, *args, **kwargs):
        cells.append(len(cell))
        return integral(w, cell, *args, **kwargs)

    monkeypatch.setattr(assembly, "weighted_cell_integral", counting)
    coeff = CoefficientSet(
        bulk_weight=WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5))
    build_pencil(std_mesh_8, coeff).M_form
    assert cells == [std_mesh_8.num_triangles]


def test_bulk_stiffness_integrates_weight_where_read(std_mesh_8, monkeypatch):
    # a callable region integrates its full coefficient adaptively, and
    # the envelope stiffness reads the weight integral of every triangle:
    # one call over all of them
    cells = []
    integral = assembly.weighted_cell_integral

    def counting(w, cell, *args, **kwargs):
        cells.append(len(cell))
        return integral(w, cell, *args, **kwargs)

    monkeypatch.setattr(assembly, "weighted_cell_integral", counting)
    coeff = CoefficientSet(
        mu_bulk={0: 1.0, 1: lambda points: np.ones(len(points))},
        bulk_weight=WeightSpec(Points((0.3, 0.6)), 0.5))
    build_pencil(std_mesh_8, coeff)
    assert cells == [std_mesh_8.num_triangles]


def test_bulk_coefficient_error_propagates(std_mesh_8):
    # callables take (n, 2) point arrays; an error they raise is not
    # retried point by point
    def mu(points):
        if np.ndim(points) == 2:
            raise ValueError("coefficient bug")
        return 1.0

    with pytest.raises(ValueError, match="coefficient bug"):
        build_pencil(std_mesh_8, CoefficientSet(mu_bulk=mu))


def test_matrix_valued_surface_callable(std_mesh_8):
    # (n, 2, 2) matrices from a callable are reduced with the tangent of
    # each point's edge, as a constant matrix is; the rotated mesh makes
    # both surfaces oblique
    c, s = np.cos(0.4), np.sin(0.4)
    m = std_mesh_8
    mesh = Mesh(m.vertices @ np.array([[c, s], [-s, c]]), m.triangles,
                m.boundary_edges, m.boundary_labels, m.interface_edges,
                m.tri_regions)
    mat = np.array([[2.0, 0.3], [-0.1, 1.5]])

    def mu(points):
        return np.broadcast_to(mat, (len(points), 2, 2))

    T = build_pencil(mesh, CoefficientSet(mu_gd=mu, mu_sigma=mu)).T
    T_const = build_pencil(mesh, CoefficientSet(mu_gd=mat, mu_sigma=mat)).T
    assert abs(T - T_const).max() <= 1e-15 * abs(T_const).max()


def test_surface_callable_error_propagates(std_mesh_8):
    # a surface callable takes points only, and a TypeError it raises
    # reaches the caller
    def broken(points):
        return 2.0 * "mu"

    with pytest.raises(TypeError, match="can't multiply sequence"):
        build_pencil(std_mesh_8, CoefficientSet(mu_sigma=broken))


def test_surface_callable_calls_independent_of_edge_count():
    # one call for the probe and one per bisection round over all edges,
    # so refining the mesh does not add calls
    spec = WeightSpec(Points((0.5, 1.0)), 0.5)
    counts = []
    for n in (8, 32):
        calls = []

        def mu(points):
            calls.append(len(points))
            return spec.eval(points)

        build_pencil(standard_fixture_mesh(n), CoefficientSet(mu_gd=mu))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 1 + 41


def test_j_ellipticity_positive_and_stable(std_mesh_8):
    coeff = CoefficientSet(
        bulk_weight=WeightSpec(Points((0.5, 0.25)), 1.0))
    coarse = spectral.j_ellipticity_constant(build_pencil(std_mesh_8, coeff))
    fine = spectral.j_ellipticity_constant(
        build_pencil(refine_uniform(std_mesh_8), coeff))
    assert coarse > 0 and fine > 0
    assert fine >= 0.5 * coarse
    assert fine <= 1.5 * coarse


def test_j_ellipticity_size_limit(std_pencil_8, monkeypatch):
    monkeypatch.setattr(spectral, "_DENSE_VALUES_LIMIT", 10)
    with pytest.raises(SizeLimitError):
        spectral.j_ellipticity_constant(std_pencil_8)


def test_envelope_validation_flags_bad_constants():
    mesh = standard_fixture_mesh(4)
    # declared c1 too optimistic for a coefficient below its envelope
    coeff = CoefficientSet(mu_bulk=0.5, c1=1.0)
    diags, observed = validate_envelopes(mesh, coeff)
    assert any("below c1" in d for d in diags)
    assert observed["c1_obs"] == pytest.approx(0.5, rel=1e-12)

    # a coefficient that breaks both bounds on every triangle gets both
    # diagnostics per triangle, in sorted order
    both = CoefficientSet(mu_bulk=[[0.5, 0.0], [0.0, 3.0]], c1=1.0, c2=2.0)
    diags, observed = validate_envelopes(mesh, both)
    assert diags == sorted(
        [f"bulk coefficient below c1 * envelope on triangle {k}"
         for k in range(mesh.num_triangles)]
        + [f"bulk coefficient above c2 * envelope on triangle {k}"
           for k in range(mesh.num_triangles)])
    assert observed["c1_obs"] == pytest.approx(0.5, rel=1e-12)
    assert observed["c2_obs"] == pytest.approx(3.0, rel=1e-12)

    ok_diags, observed = validate_envelopes(mesh, CoefficientSet())
    assert ok_diags == []
    assert observed["zeta_min"] == pytest.approx(1.0)


# entries whose squares overflow a float: both bounds are still found,
# without an overflow warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_envelope_validation_flags_a_huge_coefficient_below_c1():
    mesh = standard_fixture_mesh(2)
    diags, observed = validate_envelopes(
        mesh, CoefficientSet(mu_bulk=1e200, c1=1e300, c2=1e301))
    assert diags == sorted(f"bulk coefficient below c1 * envelope on "
                           f"triangle {k}" for k in range(8))
    assert observed["c1_obs"] == observed["c2_obs"] == 1e200


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_envelope_validation_passes_the_largest_coefficient_within_c2():
    diags, observed = validate_envelopes(
        standard_fixture_mesh(2), CoefficientSet(mu_bulk=1e308, c2=1e308))
    assert diags == []
    assert observed["c1_obs"] == observed["c2_obs"] == 1e308


def test_envelope_check_skips_a_missing_interface():
    # no interface: its negative coefficient has no edge to flag, while
    # every dynamic edge is still checked
    mesh = unit_square_mesh(4)
    diags, observed = validate_envelopes(
        mesh, CoefficientSet(mu_gd=-1.0, mu_sigma=-1.0, zeta_sigma=-1.0))
    assert diags == [f"surface coefficient violates nonnegativity "
                     f"(dynamic edge {k})" for k in range(4)]
    assert observed == {"c1_obs": 1.0, "c2_obs": 1.0, "zeta_min": 1.0}


def test_envelope_constants_bound_only_the_bulk():
    # a surface coefficient is its own envelope: c1 > 1 flags no edge
    mesh = standard_fixture_mesh(8)
    diags, observed = validate_envelopes(
        mesh, CoefficientSet(mu_bulk=2.0, c1=1.5, c2=2.0))
    assert diags == []
    assert observed["c1_obs"] == pytest.approx(2.0, rel=1e-12)
    # while a negative surface coefficient is still flagged on every edge
    diags, _ = validate_envelopes(
        mesh, CoefficientSet(mu_bulk=2.0, mu_sigma=-1.0, c1=1.5, c2=2.0))
    smesh = SurfaceMesh.from_mesh(mesh, "interface")
    assert diags == sorted(f"surface coefficient violates nonnegativity "
                           f"(interface edge {k})"
                           for k in range(len(smesh.edges)))
