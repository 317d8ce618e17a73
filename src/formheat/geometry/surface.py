"""Surface meshes: chains of labeled mesh edges carrying surface dofs.

A :class:`SurfaceMesh` realizes one labeled surface (the dynamic boundary
part or the interface) as a set of mesh edges.  Surface nodes are exactly
the mesh vertices incident to edges of that label; the cross-reference
from local surface node index to bulk vertex id is the ``node_vertices``
array.  Nodes, lengths and tangents are built in array passes at
construction; the ordered chains and their arc coordinates, which only
the Lipschitz charts read, are built on first read.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

import numpy as np

from ..errors import DegenerateGeometryError, MeshInvariantError
from .charts import SurfaceChart
from .mesh import DYNAMIC

INTERFACE = "interface"


class SurfaceMesh:
    """Edges of one labeled surface, with chains, arc coordinates and charts.

    ``node_vertices`` (sorted), ``edge_nodes``, ``edge_lengths`` and
    ``tangents`` are built at construction, as is the check that the
    edges form simple polylines.  ``chains`` and ``arc_coords`` are built
    on first read.

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
        # the inverse's shape differs between numpy 2.x releases
        self.node_vertices, inverse = np.unique(self.edges,
                                                return_inverse=True)
        self.edge_nodes = inverse.reshape(-1, 2)

        lengths = mesh.edge_lengths(self.edges)
        if np.any(lengths <= 0):
            raise DegenerateGeometryError("zero-length surface edge")
        self.edge_lengths = lengths
        d = mesh.vertices[self.edges[:, 1]] - mesh.vertices[self.edges[:, 0]]
        self.tangents = d / np.sqrt(np.vecdot(d, d))[:, None]   # (k, 2), unit
        if np.any(np.bincount(self.edge_nodes.ravel()) > 2):
            raise MeshInvariantError("surface edges do not form simple polylines")

    @classmethod
    def from_mesh(cls, mesh, label):
        """Collect all edges of the given label from a mesh.

        ``label`` is ``dynamic`` (boundary) or ``interface``.
        """
        if label == INTERFACE:
            edges = mesh.interface_edges
        elif label == DYNAMIC:
            edges = mesh.boundary_edges[mesh.boundary_edges_with_label(DYNAMIC)]
        else:
            raise ValueError(f"no surface dofs live on label '{label}'")
        return cls(mesh, edges, label)

    # -- topology ---------------------------------------------------------------

    @cached_property
    def chains(self):
        """Edges ordered into simple chains of bulk vertex ids (paths, or
        loops whose last vertex repeats the first).  A chain starts at the
        lowest unused edge with an endpoint, else at the lowest unused
        edge."""
        edges = self.edges.tolist()
        incident = {}
        for k, (i, j) in enumerate(edges):
            incident.setdefault(i, []).append(k)
            incident.setdefault(j, []).append(k)
        ends = [k for k, (i, j) in enumerate(edges)
                if len(incident[i]) == 1 or len(incident[j]) == 1]
        unused = set(range(len(edges)))
        chains = []
        while unused:
            start = next((k for k in ends if k in unused), min(unused))
            i, j = edges[start]
            if len(incident[j]) == 1 and len(incident[i]) != 1:
                i, j = j, i
            chain = [i, j]
            unused.discard(start)
            while chain[-1] != chain[0]:
                nxt = [k for k in incident[chain[-1]] if k in unused]
                if not nxt:
                    break
                a, b = edges[nxt[0]]
                chain.append(b if a == chain[-1] else a)
                unused.discard(nxt[0])
            chains.append(chain)
        return chains

    @cached_property
    def arc_coords(self):
        """Arc length of every surface node along its chain."""
        coords = {}
        v = self.mesh.vertices
        for chain in self.chains:
            steps = [float(np.linalg.norm(v[b] - v[a]))
                     for a, b in zip(chain[:-1], chain[1:])]
            coords.update(zip(chain, accumulate(steps, initial=0.0)))
        return coords

    # -- measure and charts -------------------------------------------------------

    @property
    def num_nodes(self):
        return len(self.node_vertices)

    def total_length(self):
        """Discrete 1-D Hausdorff measure: sum of edge lengths."""
        return float(self.edge_lengths.sum())

    def local_index(self, vertex):
        """Local node index of a bulk vertex; ``KeyError`` when the vertex
        is not on the surface."""
        k = int(np.searchsorted(self.node_vertices, vertex))
        if k == self.num_nodes or self.node_vertices[k] != vertex:
            raise KeyError(vertex)
        return k

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
