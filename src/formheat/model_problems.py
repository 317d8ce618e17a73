"""Unit-square model problems: hand-built fixtures and a manufactured solution.

The standard fixture is the unit square with a horizontal interface at
``y = 1/2``, a dynamic top edge, a Dirichlet bottom edge, and Neumann
sides.  A smooth manufactured solution is carried along with the exact
forcing terms of the bulk, dynamic-boundary, and interface equations, so
convergence studies have an exact reference.
"""

from __future__ import annotations

import numpy as np

from .assembly import BlockField
from .geometry.mesh import Mesh
from .weights import triangle_rule, _gauss


def unit_square_mesh(n, *, bottom="dirichlet", top="dynamic", left="neumann",
                     right="neumann", interface_y=None):
    """Structured right-triangle mesh of the unit square.

    Parameters
    ----------
    n : int
        Cells per side; the mesh has (n+1)^2 vertices and 2 n^2
        triangles, all right triangles (non-obtuse).
    bottom, top, left, right : str
        Boundary labels (``dirichlet``, ``neumann``, ``dynamic``).
    interface_y : float, optional
        Height of a horizontal interface; must lie on a grid line
        strictly inside the square.  Interface edges are oriented in +x,
        so their normal points up; triangle regions are 0 below and 1
        above the interface.
    """
    idx = lambda i, j: j * (n + 1) + i
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([[xs[i], xs[j]] for j in range(n + 1) for i in range(n + 1)])

    j_mid = None
    if interface_y is not None:
        j_mid = int(round(interface_y * n))
        if not 0 < j_mid < n or abs(j_mid / n - interface_y) > 1e-12:
            raise ValueError("interface height must be an interior grid line")

    tris, regions = [], []
    for j in range(n):
        for i in range(n):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            tris.extend([(v00, v10, v11), (v00, v11, v01)])
            r = 1 if (j_mid is not None and j >= j_mid) else 0
            regions.extend([r, r])

    bedges, labels = [], []
    for i in range(n):
        bedges.append((idx(i, 0), idx(i + 1, 0)))
        labels.append(bottom)
        bedges.append((idx(i, n), idx(i + 1, n)))
        labels.append(top)
    for j in range(n):
        bedges.append((idx(0, j), idx(0, j + 1)))
        labels.append(left)
        bedges.append((idx(n, j), idx(n, j + 1)))
        labels.append(right)

    iedges = None
    if j_mid is not None:
        iedges = [(idx(i, j_mid), idx(i + 1, j_mid)) for i in range(n)]

    return Mesh(verts, tris, bedges, labels, iedges, regions)


def standard_fixture_mesh(n):
    """The reference coupled fixture: interface at y = 1/2, dynamic top,
    Dirichlet bottom, Neumann sides."""
    return unit_square_mesh(n, interface_y=0.5)


class ManufacturedSolution:
    """Smooth exact solution of the coupled system on the standard fixture.

    ``u(x, y, t) = exp(-t) cos(pi x) y (1 - y/3)`` satisfies the zero
    Dirichlet condition on the bottom edge and the homogeneous Neumann
    condition on the sides; it is smooth across the interface, so the
    conormal jump vanishes.  The forcing terms below make it solve the
    bulk equation, the dynamic equation on the top edge (where the
    surface Laplacian is the second tangential derivative plus the
    outgoing bulk flux), and the dynamic interface equation, for unit
    diffusion and relaxation coefficients.
    """

    sigma_y = 0.5

    @staticmethod
    def _g(y):
        return y * (1.0 - y / 3.0)

    def u(self, pts, t):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        return np.exp(-t) * np.cos(np.pi * pts[:, 0]) * self._g(pts[:, 1])

    def f_bulk(self, pts, t):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        cos = np.cos(np.pi * pts[:, 0])
        return np.exp(-t) * cos * ((np.pi ** 2 - 1.0) * self._g(pts[:, 1]) + 2.0 / 3.0)

    def f_gd(self, pts, t):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        cos = np.cos(np.pi * pts[:, 0])
        # d_t u - u_xx + outward flux u_y at y = 1 (g(1) = 2/3, g'(1) = 1/3)
        return np.exp(-t) * cos * ((np.pi ** 2 - 1.0) * (2.0 / 3.0) + 1.0 / 3.0)

    def f_sigma(self, pts, t):
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        cos = np.cos(np.pi * pts[:, 0])
        # smooth across the interface: zero conormal jump (g(1/2) = 5/12)
        return np.exp(-t) * cos * (np.pi ** 2 - 1.0) * (5.0 / 12.0)

    def initial(self, pencil):
        """Compatible initial block data (traces of the bulk profile)."""
        return BlockField.from_functions(
            pencil.mesh, pencil.dofmap,
            f_bulk=lambda p: self.u(p, 0.0),
            f_gd=lambda p: self.u(p, 0.0),
            f_sigma=lambda p: self.u(p, 0.0))

    def forcing(self, pencil):
        """Time-indexed block forcing for :func:`formheat.evolution.evolve`."""
        def f(t):
            return BlockField.from_functions(
                pencil.mesh, pencil.dofmap,
                f_bulk=lambda p: self.f_bulk(p, t),
                f_gd=lambda p: self.f_gd(p, t),
                f_sigma=lambda p: self.f_sigma(p, t))
        return f


def nodal_full_vector(pencil, u):
    """Expand a free-dof vector to all mesh vertices (zeros on Dirichlet)."""
    full = np.zeros(pencil.mesh.num_vertices)
    full[pencil.dofmap.free_vertices] = u
    return full


def block_l2_error(pencil, u, exact_bulk, exact_gd=None, exact_sigma=None,
                   t=0.0, order=4):
    """Block L2 distance between a discrete solution and exact profiles.

    Bulk, dynamic-boundary, and interface components are integrated with
    order-``order`` rules against the P1 interpolants; surface exact
    profiles default to the bulk one.
    """
    exact_gd = exact_gd or exact_bulk
    exact_sigma = exact_sigma or exact_bulk
    mesh = pencil.mesh
    full = nodal_full_vector(pencil, u)
    bary, wts = triangle_rule(order)

    pts = bary @ mesh.vertices[mesh.triangles]            # (nt, q, 2)
    uh = full[mesh.triangles] @ bary.T                    # (nt, q)
    diff = uh - np.reshape(exact_bulk(pts.reshape(-1, 2), t), uh.shape)
    total = float(mesh.triangle_areas() @ (diff ** 2 @ wts))

    xg, wg = _gauss(5)
    tg = 0.5 * (xg + 1.0)
    for which, exact in (("dynamic", exact_gd), ("interface", exact_sigma)):
        if len(pencil.dofmap.surface_vertices(which)) == 0:
            continue
        smesh = pencil.smeshes[which]
        i, j = smesh.edges.T
        p0, p1 = mesh.vertices[i], mesh.vertices[j]
        pts = p0[:, None] + tg[:, None] * (p1 - p0)[:, None]  # (ne, 5, 2)
        uh = np.outer(full[i], 1.0 - tg) + np.outer(full[j], tg)
        diff = uh - np.reshape(exact(pts.reshape(-1, 2), t), uh.shape)
        total += 0.5 * float(smesh.edge_lengths @ (diff ** 2 @ wg))
    return float(np.sqrt(total))
