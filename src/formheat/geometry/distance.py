"""Euclidean distances to points, segments, and polylines.

These are the exact distance kernels behind the degenerate bulk weight
``dist(x, S)^gamma``, where ``S`` is a finite point set (codimension 2)
or a polyline (codimension 1).

:func:`set_polygon_distance` measures it to a stack of convex polygons
(one dyadic scan level) in array passes over (polygons x edges x target
points): 0 where a target point lies inside or a target segment meets
an edge, else the least point-to-edge or vertex-to-segment distance.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateGeometryError


class Points:
    """Finite point set, a 0-dimensional target of distance queries.

    Parameters
    ----------
    points : array_like, shape (n, 2) or (2,)
    """

    codimension = 2

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, 2)
        if pts.size == 0:
            raise DegenerateGeometryError("empty point set")
        self.points = pts.reshape(-1, 2)

    def distance(self, x):
        """Distance from ``x`` (shape (..., 2)) to the nearest point."""
        x = np.asarray(x, dtype=float)
        diff = x[..., None, :] - self.points
        return np.sqrt((diff ** 2).sum(axis=-1)).min(axis=-1)

    def bounding_box(self):
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return lo[0], lo[1], hi[0], hi[1]

    def __repr__(self):
        return f"Points({self.points.tolist()})"


class Polyline:
    """Chain of straight segments, a 1-dimensional distance target.

    Parameters
    ----------
    vertices : array_like, shape (n, 2), n >= 2
        Consecutive vertices; segment k joins vertex k and k+1.
    """

    codimension = 1

    def __init__(self, vertices):
        verts = np.asarray(vertices, dtype=float).reshape(-1, 2)
        if len(verts) < 2:
            raise DegenerateGeometryError("polyline needs at least two vertices")
        seg = verts[1:] - verts[:-1]
        if np.any(np.hypot(seg[:, 0], seg[:, 1]) <= 0.0):
            raise DegenerateGeometryError("polyline has a zero-length segment")
        self.vertices = verts

    def distance(self, x):
        """Distance from ``x`` (shape (..., 2)) to the polyline: the least
        of its :func:`_segment_distance` to the segments."""
        x = np.asarray(x, dtype=float)
        return _segment_distance(x[..., None, :], self.vertices[:-1],
                                 self.vertices[1:]).min(axis=-1)

    def total_length(self):
        seg = self.vertices[1:] - self.vertices[:-1]
        return float(np.hypot(seg[:, 0], seg[:, 1]).sum())

    def bounding_box(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return lo[0], lo[1], hi[0], hi[1]

    def merged_collinear(self):
        """Collapse runs of collinear consecutive segments.

        Returns a new :class:`Polyline`; exact integration formulas apply
        segment by segment, so fewer segments mean fewer case splits.
        """
        verts = [self.vertices[0]]
        for k in range(1, len(self.vertices) - 1):
            a, b, c = verts[-1], self.vertices[k], self.vertices[k + 1]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            along = np.dot(b - a, c - b)
            if abs(cross) > 1e-14 * max(1.0, np.abs(c - a).max()) or along <= 0:
                verts.append(b)
        verts.append(self.vertices[-1])
        return Polyline(np.array(verts))

    def __repr__(self):
        return f"Polyline({self.vertices.tolist()})"


def as_submanifold(spec):
    """Coerce ``spec`` into a :class:`Points` or :class:`Polyline`.

    Accepts an existing instance or a single coordinate pair.  Ambiguous
    raw arrays must be wrapped explicitly by the caller.
    """
    if isinstance(spec, (Points, Polyline)):
        return spec
    arr = np.asarray(spec, dtype=float)
    if arr.shape == (2,):
        return Points(arr)
    raise TypeError("wrap the target set in Points(...) or Polyline(...)")


def distance_to_submanifold(s_spec, x):
    """Exact Euclidean distance from ``x`` to the target set.

    Parameters
    ----------
    s_spec : Points | Polyline | (2,) coordinate pair
    x : array_like, shape (..., 2)

    Returns
    -------
    float or ndarray
    """
    target = as_submanifold(s_spec)
    d = target.distance(x)
    if np.ndim(d) == 0:
        return float(d)
    return d


# -- batched exact predicates used by scans ---------------------------------

def _segment_distance(p, a, b):
    """Distance from points ``p`` to segments ``a``-``b`` (broadcast (..., 2)
    arrays): the one point-segment kernel, behind :meth:`Polyline.distance`
    (so the weight's values) and the dyadic scan's distances alike.  Each
    distance is computed on its own, so a cube gets the same value however
    the stack around it is composed."""
    d = b - a
    t = np.clip(np.vecdot(p - a, d) / np.vecdot(d, d), 0.0, 1.0)
    diff = p - (a + t[..., None] * d)
    return np.sqrt(np.vecdot(diff, diff))


def _cross(a, b, c):
    """Orientation ``(b - a) x (c - a)``: positive when ``c`` lies left of
    the directed line ``a`` -> ``b``."""
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _in_box(a, b, c):
    """Whether ``c`` lies in the bounding box of the segment ``a``-``b``."""
    return ((np.minimum(a, b) <= c) & (c <= np.maximum(a, b))).all(axis=-1)


# (polygon, target point, edge) triples per array pass: bounds the
# temporaries at a few MB whatever the number of cubes or target points
_BLOCK = 1 << 18


def set_polygon_distance(s_spec, polygons):
    """Distances from a Points/Polyline target to a stack of convex polygons.

    Parameters
    ----------
    s_spec : Points | Polyline | (2,) coordinate pair
    polygons : array_like, shape (m, k, 2)
        Convex polygons with distinct consecutive vertices.

    Returns
    -------
    ndarray, shape (m,)
        Zero where the target touches or enters the polygon.
    """
    target = as_submanifold(s_spec)
    poly = np.asarray(polygons, dtype=float)
    verts = target.points if isinstance(target, Points) else target.vertices
    step = max(1, _BLOCK // (len(verts) * poly.shape[1]))
    if len(poly) > step:
        return np.concatenate([set_polygon_distance(target, poly[i:i + step])
                               for i in range(0, len(poly), step)])
    a = poly[:, None]                          # (m, 1, k, 2): edge k is a -> b
    b = np.roll(poly, -1, axis=1)[:, None]
    p = verts[:, None]                         # (n, 1, 2)
    side = _cross(a, b, p)                     # (m, n, k)
    inside = ~((side > 0).any(axis=-1) & (side < 0).any(axis=-1))
    touch = inside.any(axis=1)
    dist = _segment_distance(p, a, b).min(axis=(1, 2))
    if isinstance(target, Polyline):
        s0, s1 = p[:-1], p[1:]                 # segment j is s0 -> s1
        o1 = np.sign(_cross(s0, s1, a))        # (m, s, k): edge ends vs segments
        o2 = np.roll(o1, -1, axis=-1)
        o3 = np.sign(side[:, :-1])             # segment ends vs edges
        o4 = np.sign(side[:, 1:])
        meets = (((o1 != o2) & (o3 != o4))
                 | ((o1 == 0) & _in_box(s0, s1, a))
                 | ((o2 == 0) & _in_box(s0, s1, b))
                 | ((o3 == 0) & _in_box(a, b, s0))
                 | ((o4 == 0) & _in_box(a, b, s1)))
        touch |= meets.any(axis=(1, 2))
        dist = np.minimum(dist, _segment_distance(a, s0, s1).min(axis=(1, 2)))
    return np.where(touch, 0.0, dist)
