"""Conforming triangle meshes with labeled boundary and interface edges.

A mesh carries a 2-D triangulation together with boundary edges labeled
``dirichlet``, ``neumann`` or ``dynamic``, and interior interface edges on
which dynamic interface conditions live.  The text file format is line
based (``#`` starts a comment; fields after those shown are ignored)::

    nv nt nbe nie
    x y                 (nv vertex lines)
    i j k region_id     (nt triangle lines)
    i j label           (nbe boundary edge lines)
    i j                 (nie interface edge lines)

All indices are 0-based.  Interface edges are oriented: the stored vertex
order (i, j) defines the edge tangent, and the edge normal is the tangent
rotated by +90 degrees.

:func:`load_mesh` names the first bad line (MeshFormatError) for a header
that is not four nonnegative integers, a line count other than the
header's, too few fields, a malformed or non-finite number, an index
outside ``[0, nv)`` or an unknown label.  :class:`Mesh` checks that
coordinates are finite, areas positive, triangles disjoint, boundary edges
distinct and covering the boundary, interface edges distinct, interior and
forming simple polylines, and every vertex used (MeshInvariantError).

Meshes are immutable after construction (construction itself is
single-threaded) and safe for concurrent read access.
"""

from __future__ import annotations

import numpy as np

from ..errors import MeshFormatError, MeshInvariantError

BOUNDARY_LABELS = ("dirichlet", "neumann", "dynamic")

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
DYNAMIC = "dynamic"


class Mesh:
    """Triangulation of a polygonal domain with labeled edges.

    Parameters
    ----------
    vertices : array_like, shape (nv, 2)
        Vertex coordinates.
    triangles : array_like, shape (nt, 3)
        Vertex index triples.  Negatively oriented triangles are flipped
        so that all stored triangles are counter-clockwise.
    boundary_edges : array_like, shape (nbe, 2)
        Vertex index pairs on the domain boundary.
    boundary_labels : sequence of str, length nbe
        One of ``dirichlet``, ``neumann``, ``dynamic`` per boundary edge.
    interface_edges : array_like, shape (nie, 2), optional
        Oriented vertex index pairs of interior interface edges.
    tri_regions : array_like, shape (nt,), optional
        Integer region id per triangle (default all 0).

    Raises
    ------
    MeshInvariantError
        If any structural invariant fails; the message names the check.
    """

    def __init__(self, vertices, triangles, boundary_edges, boundary_labels,
                 interface_edges=None, tri_regions=None):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 2)
        # a copy: the triangles are turned counter-clockwise in place
        self.triangles = np.array(triangles, dtype=int).reshape(-1, 3)
        self.boundary_edges = np.asarray(boundary_edges, dtype=int).reshape(-1, 2)
        self.boundary_labels = list(boundary_labels)
        if interface_edges is None or len(np.atleast_1d(interface_edges)) == 0:
            self.interface_edges = np.zeros((0, 2), dtype=int)
        else:
            self.interface_edges = np.asarray(interface_edges, dtype=int).reshape(-1, 2)
        if tri_regions is None:
            self.tri_regions = np.zeros(len(self.triangles), dtype=int)
        else:
            self.tri_regions = np.asarray(tri_regions, dtype=int).reshape(-1)

        self._validate()

    # -- construction helpers -------------------------------------------------

    def _validate(self):
        """Check the invariants in array passes, turn every triangle
        counter-clockwise, and record the triangles beside each edge listed."""
        nv = len(self.vertices)
        for name, arr in (("triangle", self.triangles),
                          ("boundary edge", self.boundary_edges),
                          ("interface edge", self.interface_edges)):
            if arr.size and (arr.min() < 0 or arr.max() >= nv):
                raise MeshInvariantError(f"{name} vertex index out of range")

        if len(self.boundary_labels) != len(self.boundary_edges):
            raise MeshInvariantError("boundary label count does not match edge count")
        for lab in self.boundary_labels:
            if lab not in BOUNDARY_LABELS:
                raise MeshInvariantError(f"unknown boundary label '{lab}'")

        if not np.isfinite(self.vertices).all():
            raise MeshInvariantError("non-finite vertex coordinate")
        flip = self.triangle_areas() < 0
        self.triangles[flip] = self.triangles[flip][:, [0, 2, 1]]
        if np.any(self.triangle_areas() <= 0.0):
            raise MeshInvariantError("degenerate triangle (area <= 0)")

        # Edge i -> j is keyed i * nv + j.  A triangle with a repeated vertex
        # has area 0, so the directed edges of the CCW triangles must now be
        # distinct, or triangles overlap; an undirected edge then lies in at
        # most two triangles, one per direction.
        t = self.triangles
        i, j = t.ravel(), t[:, [1, 2, 0]].ravel()
        order = np.argsort(i * nv + j)
        keys = (i * nv + j)[order]
        if np.any(keys[1:] == keys[:-1]):
            raise MeshInvariantError("duplicate directed edge (overlapping triangles)")
        # triangle(a, b) holds the directed edge a -> b, or is -1; a sentinel
        # above every key keeps each lookup inside the arrays
        keys, owner = np.append(keys, nv * nv), np.append(order // 3, -1)

        def triangle(a, b):
            pos = np.searchsorted(keys, a * nv + b)
            return np.where(keys[pos] == a * nv + b, owner[pos], -1)

        b = self.boundary_edges
        b_fwd, b_bwd = triangle(b[:, 0], b[:, 1]), triangle(b[:, 1], b[:, 0])
        b_keys = _edge_keys(*b.T, nv)
        _raise_first(None, (_repeats(b_keys), "boundary edge listed twice"),
                     ((b_fwd < 0) & (b_bwd < 0),
                      "boundary edge is not an edge of any triangle"),
                     ((b_fwd >= 0) & (b_bwd >= 0),
                      "boundary edge belongs to more than one triangle"))
        # the listed edges are distinct edges of one triangle each, so they
        # cover the boundary iff as many edges as them lie in one triangle
        if len(b) != np.count_nonzero(triangle(j, i) < 0):
            raise MeshInvariantError("boundary labels do not cover the topological boundary")

        e = self.interface_edges
        e_fwd, e_bwd = triangle(e[:, 0], e[:, 1]), triangle(e[:, 1], e[:, 0])
        e_keys = _edge_keys(*e.T, nv)
        _raise_first(None, (_repeats(e_keys), "interface edge listed twice"),
                     (np.isin(e_keys, b_keys), "edge labeled both boundary and interface"),
                     ((e_fwd < 0) | (e_bwd < 0),
                      "interface edge must be adjacent to exactly two triangles"))
        if np.any(np.bincount(e.ravel(), minlength=nv) > 2):
            raise MeshInvariantError("interface edges do not form simple polylines")

        if np.any(np.bincount(t.ravel(), minlength=nv) == 0):
            raise MeshInvariantError("vertex used by no triangle")

        self._boundary_tri = np.maximum(b_fwd, b_bwd)
        self._interface_tris = np.sort(np.stack([e_fwd, e_bwd], axis=1), axis=1)

    # -- basic queries ---------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def triangle_areas(self):
        """Areas of all triangles (positive for CCW orientation)."""
        v = self.vertices
        t = self.triangles
        a = v[t[:, 1]] - v[t[:, 0]]
        b = v[t[:, 2]] - v[t[:, 0]]
        return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])

    def edge_length(self, i, j):
        return float(np.linalg.norm(self.vertices[j] - self.vertices[i]))

    def edge_lengths(self, edges):
        edges = np.asarray(edges, dtype=int).reshape(-1, 2)
        d = self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def h_max(self):
        """Longest edge over all triangles."""
        v = self.vertices
        t = self.triangles
        h = 0.0
        for i, j in ((0, 1), (1, 2), (2, 0)):
            d = v[t[:, j]] - v[t[:, i]]
            h = max(h, float(np.hypot(d[:, 0], d[:, 1]).max()))
        return h

    def boundary_edges_with_label(self, label):
        """Indices into ``boundary_edges`` carrying the given label."""
        return [k for k, lab in enumerate(self.boundary_labels) if lab == label]

    def boundary_vertices_with_label(self, label):
        """Sorted vertex ids incident to boundary edges of the given label."""
        verts = set()
        for k in self.boundary_edges_with_label(label):
            verts.update(self.boundary_edges[k])
        return sorted(verts)

    def boundary_outward_normal(self, k):
        """Outward unit normal of boundary edge ``k``."""
        i, j = self.boundary_edges[k]
        tri = self.triangles[self._boundary_tri[k]]
        opp = [v for v in tri if v != i and v != j][0]
        t = self.vertices[j] - self.vertices[i]
        n = np.array([t[1], -t[0]])
        if np.dot(n, self.vertices[opp] - self.vertices[i]) > 0:
            n = -n
        return n / np.linalg.norm(n)

    def interface_normal(self, k):
        """Oriented unit normal of interface edge ``k`` (tangent rotated +90deg)."""
        i, j = self.interface_edges[k]
        t = self.vertices[j] - self.vertices[i]
        n = np.array([-t[1], t[0]])
        return n / np.linalg.norm(n)

    def interface_sides(self, k):
        """Triangle pair (minus_tri, plus_tri) adjacent to interface edge ``k``.

        ``plus_tri`` is the triangle on the side the oriented edge normal
        points into.
        """
        i, j = self.interface_edges[k]
        n = self.interface_normal(k)
        mid = 0.5 * (self.vertices[i] + self.vertices[j])
        t1, t2 = self._interface_tris[k]
        c1 = self.vertices[self.triangles[t1]].mean(axis=0)
        if np.dot(c1 - mid, n) > 0:
            return t2, t1
        return t1, t2

    def boundary_loop_area(self):
        """Polygon area enclosed by the boundary loop(s).

        Uses the shoelace formula with edges directed as they appear in
        their adjacent triangle, which makes outer loops CCW and hole
        loops CW, so holes subtract.
        """
        total = 0.0
        for k, (i, j) in enumerate(self.boundary_edges):
            tri = self.triangles[self._boundary_tri[k]]
            cyc = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]
            if (i, j) not in cyc:
                i, j = j, i
            xi, yi = self.vertices[i]
            xj, yj = self.vertices[j]
            total += 0.5 * (xi * yj - xj * yi)
        return total

    def stats(self):
        """Small summary dict used by run manifests."""
        return {
            "num_vertices": self.num_vertices,
            "num_triangles": self.num_triangles,
            "num_boundary_edges": len(self.boundary_edges),
            "num_interface_edges": len(self.interface_edges),
            "h_max": self.h_max(),
            "area": float(self.triangle_areas().sum()),
        }


def load_mesh(path):
    """Read a mesh from the line-based text format.

    Each section is parsed in one array pass; lines are parsed one by one
    only after a pass has failed, to name the first bad line.

    Parameters
    ----------
    path : str or Path
        File to read.

    Returns
    -------
    Mesh

    Raises
    ------
    MeshFormatError
        On malformed content or text that is not UTF-8, with the
        offending line number.
    MeshInvariantError
        If the parsed data violates a mesh invariant.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read()
    except UnicodeDecodeError as exc:
        raise MeshFormatError(
            "not UTF-8 text",
            line=exc.object.count(b"\n", 0, exc.start) + 1) from None
    lines = content.split("\n")
    if "#" in content:
        lines = [raw.split("#", 1)[0] for raw in lines]
    text = [line.strip() for line in lines]
    linenos = [k for k, line in enumerate(text, start=1) if line]
    rows = [line for line in text if line]
    if not rows:
        raise MeshFormatError("empty mesh file")

    header, error = _read(rows[:1], linenos, 4, int,
                          "expected 4 fields for header", "malformed integer in header")
    _raise_first(linenos, (header.min(axis=1) < 0, "negative count in header"),
                 pending=error)
    nv, nt, nbe, nie = header[0].tolist()
    expected = 1 + nv + nt + nbe + nie
    if len(rows) != expected:
        raise MeshFormatError(
            f"expected {expected} data lines, found {len(rows)}", line=linenos[-1])

    lines, nos = rows[1:1 + nv], linenos[1:1 + nv]
    vertices, error = _read(lines, nos, 2, float,
                            "expected 'x y' vertex line", "malformed vertex coordinate")
    _raise_first(nos, (~np.isfinite(vertices).all(axis=1), "non-finite vertex coordinate"),
                 pending=error)

    lines, nos = rows[1 + nv:1 + nv + nt], linenos[1 + nv:1 + nv + nt]
    triangles, error = _read(lines, nos, 4, int,
                             "expected 4 fields for triangle", "malformed integer in triangle")
    _raise_first(nos, _index_check(triangles[:, :3], nv), pending=error)

    start = 1 + nv + nt
    lines, nos = rows[start:start + nbe], linenos[start:start + nbe]
    no_label = "expected 'i j label' boundary edge line"
    fields, error = _read(lines, nos, 3, str, no_label, no_label)
    bedges, bad_int = _read(lines[:len(fields)], nos, 2, int,
                            no_label, "malformed integer in boundary edge")
    labels = fields[:len(bedges), 2].tolist()
    _raise_first(nos, _index_check(bedges, nv),
                 (np.isin(labels, BOUNDARY_LABELS, invert=True),
                  lambda row: f"unknown boundary label '{labels[row]}' "
                              f"(expected one of {BOUNDARY_LABELS})"),
                 pending=bad_int or error)

    lines, nos = rows[start + nbe:], linenos[start + nbe:]
    iedges, error = _read(lines, nos, 2, int, "expected 2 fields for interface edge",
                          "malformed integer in interface edge")
    _raise_first(nos, _index_check(iedges, nv), pending=error)

    return Mesh(vertices, triangles[:, :3].copy(), bedges, labels, iedges,
                triangles[:, 3].copy())


def _read(lines, linenos, ncols, dtype, short, malformed):
    """The first ``ncols`` fields of each line, parsed in one call, and None;
    or, if a line does not parse, the rows before it and the error naming
    it (``short`` if it has fewer than ``ncols`` fields, else ``malformed``)."""
    def table(lines):
        if not lines:
            return np.zeros((0, ncols), dtype=dtype)
        return np.loadtxt(lines, dtype=dtype, usecols=range(ncols), ndmin=2, comments=None)

    try:
        return table(lines), None
    except ValueError:
        pass
    for k, line in enumerate(lines):
        try:
            table([line])
        except ValueError:
            message = short if len(line.split()) < ncols else malformed
            return table(lines[:k]), MeshFormatError(message, line=linenos[k])


def _index_check(indices, nv):
    """Check of each row's vertex indices against ``[0, nv)``."""
    bad = (indices < 0) | (indices >= nv)
    return (bad.any(axis=1),
            lambda row: f"vertex index out of range: {indices[row][bad[row]][0]} of {nv}")


def _raise_first(linenos, *checks, pending=None):
    """Raise for the first row failing a ``(mask, message)`` check, taken in
    order within a row (``message`` may be a function of the row), else
    raise ``pending``: a MeshFormatError at line ``linenos[row]``, or a
    MeshInvariantError if ``linenos`` is None."""
    bad = np.any([mask for mask, _ in checks], axis=0)
    if bad.any():
        row = int(bad.argmax())
        message = next(message for mask, message in checks if mask[row])
        message = message(row) if callable(message) else message
        if linenos is None:
            raise MeshInvariantError(message)
        raise MeshFormatError(message, line=linenos[row])
    if pending:
        raise pending


def _repeats(keys):
    """True where a key already appeared in an earlier row."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse] != np.arange(len(keys))


def _edge_keys(i, j, nv):
    """Key ``lo * nv + hi`` of each undirected edge {i, j}."""
    return np.minimum(i, j) * nv + np.maximum(i, j)


def save_mesh(mesh, path):
    """Write a mesh in the text format understood by :func:`load_mesh`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mesh.num_vertices} {mesh.num_triangles} "
                 f"{len(mesh.boundary_edges)} {len(mesh.interface_edges)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for (i, j, k), r in zip(mesh.triangles, mesh.tri_regions):
            fh.write(f"{i} {j} {k} {r}\n")
        for (i, j), lab in zip(mesh.boundary_edges, mesh.boundary_labels):
            fh.write(f"{i} {j} {lab}\n")
        for i, j in mesh.interface_edges:
            fh.write(f"{i} {j}\n")


def refine_uniform(mesh):
    """One level of red refinement (each triangle split into four).

    Boundary and interface edges are split in two and inherit label and
    orientation; triangle region ids are inherited.  Midpoints are
    numbered after the old vertices, in the order their edges first
    appear in the triangles (edges ab, bc, ca of each).
    """
    v, t, nv = mesh.vertices, mesh.triangles, mesh.num_vertices
    i, j = t.ravel(), t[:, [1, 2, 0]].ravel()
    edges, first, inverse = np.unique(_edge_keys(i, j, nv), return_index=True,
                                      return_inverse=True)
    number = nv + np.argsort(np.argsort(first))
    first = np.sort(first)
    verts = np.concatenate([v, 0.5 * (v[i[first]] + v[j[first]])])

    a, b, c = t.T
    ab, bc, ca = number[inverse].reshape(-1, 3).T
    tris = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)

    def split(pairs):
        m = number[np.searchsorted(edges, _edge_keys(*pairs.T, nv))]
        return np.stack([pairs[:, 0], m, m, pairs[:, 1]], axis=1).reshape(-1, 2)

    labels = [lab for lab in mesh.boundary_labels for _ in (0, 1)]
    return Mesh(verts, tris, split(mesh.boundary_edges), labels,
                split(mesh.interface_edges), np.repeat(mesh.tri_regions, 4))
