"""Surface meshes: chains of labeled mesh edges carrying surface dofs.

A :class:`SurfaceMesh` realizes one labeled surface (the dynamic boundary
part or the interface) as ordered chains of mesh edges.  Surface nodes
are exactly the mesh vertices incident to edges of that label; the
cross-reference from local surface node index to bulk vertex id is the
``node_vertices`` array.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateGeometryError, MeshInvariantError
from .charts import SurfaceChart
from .mesh import DYNAMIC

INTERFACE = "interface"


class SurfaceMesh:
    """Edge chains of one labeled surface with arc coordinates and charts.

    Parameters
    ----------
    mesh : Mesh
        Parent bulk mesh.
    edges : array_like, shape (k, 2)
        Oriented vertex index pairs of the surface edges.
    label : str
        ``dynamic`` or ``interface``; informational.
    """

    def __init__(self, mesh, edges, label):
        self.mesh = mesh
        self.label = label
        self.edges = np.asarray(edges, dtype=int).reshape(-1, 2)
        if len(self.edges) == 0:
            self.node_vertices = np.zeros(0, dtype=int)
            self.edge_nodes = np.zeros((0, 2), dtype=int)
            self.edge_lengths = np.zeros(0)
            self.tangents = np.zeros((0, 2))
            self.chains = []
            self.arc_coords = {}
            return

        verts = sorted({int(v) for e in self.edges for v in e})
        self.node_vertices = np.array(verts, dtype=int)
        self._local = {v: k for k, v in enumerate(verts)}
        self.edge_nodes = np.array(
            [[self._local[i], self._local[j]] for i, j in self.edges], dtype=int)

        lengths = mesh.edge_lengths(self.edges)
        if np.any(lengths <= 0):
            raise DegenerateGeometryError("zero-length surface edge")
        self.edge_lengths = lengths
        d = mesh.vertices[self.edges[:, 1]] - mesh.vertices[self.edges[:, 0]]
        self.tangents = d / np.sqrt(np.vecdot(d, d))[:, None]   # (k, 2), unit
        self.chains = self._build_chains()
        self.arc_coords = self._arc_coordinates()

    @classmethod
    def from_mesh(cls, mesh, label):
        """Collect all edges of the given label from a mesh.

        ``label`` is ``dynamic`` (boundary) or ``interface``.
        """
        if label == INTERFACE:
            edges = mesh.interface_edges
        elif label == DYNAMIC:
            idx = mesh.boundary_edges_with_label(DYNAMIC)
            edges = mesh.boundary_edges[idx] if idx else np.zeros((0, 2), int)
        else:
            raise ValueError(f"no surface dofs live on label '{label}'")
        return cls(mesh, edges, label)

    # -- topology ---------------------------------------------------------------

    def _build_chains(self):
        """Order edges into simple chains (paths, or loops when closed)."""
        incident = {}
        for k, (i, j) in enumerate(self.edges):
            incident.setdefault(int(i), []).append(k)
            incident.setdefault(int(j), []).append(k)
        for v, eks in incident.items():
            if len(eks) > 2:
                raise MeshInvariantError("surface edges do not form simple polylines")

        unused = set(range(len(self.edges)))
        chains = []
        while unused:
            # prefer an endpoint (degree-1 vertex) start; otherwise a loop
            start_edge = None
            for k in sorted(unused):
                i, j = self.edges[k]
                if len(incident[int(i)]) == 1 or len(incident[int(j)]) == 1:
                    start_edge = k
                    break
            if start_edge is None:
                start_edge = min(unused)
            i, j = map(int, self.edges[start_edge])
            if len(incident[j]) == 1 and len(incident[i]) != 1:
                i, j = j, i
            chain = [i, j]
            unused.discard(start_edge)
            current, prev_edge = j, start_edge
            while True:
                nxt = [k for k in incident[current] if k != prev_edge and k in unused]
                if not nxt:
                    break
                k = nxt[0]
                a, b = map(int, self.edges[k])
                current = b if a == current else a
                chain.append(current)
                unused.discard(k)
                prev_edge = k
                if current == chain[0]:
                    break
            chains.append(chain)
        return chains

    def _arc_coordinates(self):
        """Arc length of every surface node along its chain."""
        coords = {}
        v = self.mesh.vertices
        for chain in self.chains:
            s = 0.0
            coords[chain[0]] = 0.0
            for a, b in zip(chain[:-1], chain[1:]):
                s += float(np.linalg.norm(v[b] - v[a]))
                coords[b] = s
        return coords

    # -- measure and charts -------------------------------------------------------

    @property
    def num_nodes(self):
        return len(self.node_vertices)

    def total_length(self):
        """Discrete 1-D Hausdorff measure: sum of edge lengths."""
        return float(self.edge_lengths.sum()) if len(self.edges) else 0.0

    def local_index(self, vertex):
        return self._local[int(vertex)]

    def edge_midpoint(self, k):
        i, j = self.edges[k]
        return 0.5 * (self.mesh.vertices[i] + self.mesh.vertices[j])

    def default_charts(self):
        """Graph charts covering every chain.

        Each chain is charted over its chord direction when it is a graph
        over that direction; otherwise it falls back to one chart per
        edge (an edge is always a graph over itself).
        """
        charts = []
        v = self.mesh.vertices
        for chain in self.chains:
            pts = v[np.array(chain)]
            chord = pts[-1] - pts[0]
            if np.linalg.norm(chord) > 0:
                d = chord / np.linalg.norm(chord)
                q = np.array([[d[0], -d[1]], [d[1], d[0]]])
                try:
                    charts.append(SurfaceChart.from_polyline(pts, q=q))
                    continue
                except DegenerateGeometryError:
                    pass
            for a, b in zip(chain[:-1], chain[1:]):
                seg = v[[a, b]]
                d = (seg[1] - seg[0]) / np.linalg.norm(seg[1] - seg[0])
                q = np.array([[d[0], -d[1]], [d[1], d[0]]])
                charts.append(SurfaceChart.from_polyline(seg, q=q))
        return charts


def surface_gradient_p1(smesh, nodal_values, edge):
    """Constant per-edge surface gradient of the P1 interpolant.

    Parameters
    ----------
    smesh : SurfaceMesh
    nodal_values : array_like
        One value per surface node (local node order).
    edge : int
        Index into ``smesh.edges``.

    Returns
    -------
    ndarray, shape (2,)
        Tangent vector ``(difference / length) * unit tangent``.
    """
    vals = np.asarray(nodal_values, dtype=float)
    if edge < 0 or edge >= len(smesh.edges):
        raise IndexError("edge index outside surface mesh")
    if len(vals) != smesh.num_nodes:
        raise ValueError("nodal values must cover every surface node")
    a, b = smesh.edge_nodes[edge]
    length = smesh.edge_lengths[edge]
    if length <= 0:
        raise DegenerateGeometryError("zero-length surface edge")
    return (vals[b] - vals[a]) / length * smesh.tangents[edge]
