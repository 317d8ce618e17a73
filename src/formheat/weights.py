"""Degenerate distance weights and their integration.

The bulk diffusion envelope is ``w(x) = dist(x, S)^gamma`` for a point
set or polyline ``S`` and an exponent ``0 <= gamma < codim(S)``.  This
module evaluates the weight, integrates it over triangles, squares and
convex polygons, scans dyadic cubes for the normalized lower bound

    2^(l (d + gamma)) * integral over Q(2^-l m, 2^-l) of dist(x,S)^gamma dx,

and classifies whether the weight degenerates away from (case A) or at
(case B) the dynamic surfaces.

Cell integrals use exact decompositions wherever the geometry allows it
(single segment, point sets): the cell is clipped into pieces on which
the distance is either a linear function (closed-form power integrals)
or a radial one (smooth 1-D angular profiles).  A stack of cells is one
array pass: the clips, the power integrals and the Gauss panels of all
radial wedges run over every cell at once, and round as one cell at a
time would.  A clip runs Sutherland-Hodgman only on the cells that cross
its line; every other cell passes whole or drops out, bit-identical to
clipping it.  Other targets fall back to an error-driven adaptive
subdivision, cell by cell, which also splits any cell whose sampled
weight ratio exceeds 4.

Everything here is a pure function of immutable inputs and safe to
evaluate concurrently; the scan minimum is a commutative reduction over
cubes, so cubes could be partitioned across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureAccuracyError, SizeLimitError
from .geometry.distance import (Points, Polyline, as_submanifold,
                                set_polygon_distance)

_EPS = 1e-14
# CCW cube corners (m + offset) * 2^-l: dyadic rationals, computed exactly
_CORNERS = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])


class WeightSpec:
    """Distance weight ``dist(x, S)^gamma``.

    Parameters
    ----------
    s : Points | Polyline | (2,) coordinate pair
        The degeneracy set.  Codimension is 2 for points, 1 for polylines.
    gamma : float
        Finite nonnegative exponent.  Values with ``gamma >= codim(S)`` are
        permitted for out-of-range experiments but flagged via
        ``outside_theory``.
    """

    def __init__(self, s, gamma):
        self.s = as_submanifold(s)
        self.gamma = float(gamma)
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"weight exponent must be nonnegative and "
                             f"finite, got {gamma}")
        self.codimension = self.s.codimension
        self.outside_theory = self.gamma >= self.codimension

    def eval(self, x):
        """Weight values at points ``x`` of shape (..., 2)."""
        if self.gamma == 0.0:
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                return 1.0
            return np.ones(x.shape[:-1])
        d = self.s.distance(x)
        return d ** self.gamma

    def bounding_box(self):
        return self.s.bounding_box()

    def __repr__(self):
        return f"WeightSpec({self.s!r}, gamma={self.gamma})"


# -- polygon stacks -------------------------------------------------------------
#
# The exact kernels work on a stack of convex CCW polygons: an (m, k, 2)
# array and a vertex count per row.  A row with fewer than k vertices
# repeats its last one; an empty row (count 0) is all zeros.  The Python
# loops below run over vertex slots, target points or panel steps; only
# ``_pow``, for the cancelling power primitives, visits values one by one,
# and only the distinct ones, keyed by bit pattern.

def _signed_areas(polys):
    """Shoelace areas of polygons (..., k, 2), positive when CCW.
    ``np.vecdot`` is the BLAS dot ``np.dot`` uses, so a stack rounds as a
    loop over single polygons would."""
    x, y = polys[..., 0], polys[..., 1]
    return 0.5 * (np.vecdot(x, np.roll(y, -1, axis=-1))
                  - np.vecdot(y, np.roll(x, -1, axis=-1)))


def _norms(vecs):
    """Euclidean norms of (n, 2) rows, rounded as ``np.linalg.norm``."""
    return np.sqrt(np.vecdot(vecs, vecs))


def _next_vertex(counts, k):
    """Index (m, k) of the vertex after slot j of each row: j + 1, or 0
    at the row's last vertex."""
    return np.arange(1, k + 1) % np.maximum(counts, 1)[:, None]


def _clip(polys, counts, normal, offset):
    """Clip of a polygon stack against the half-plane
    ``{x : normal . x <= offset}``.

    A vertex within ``_EPS`` of the line is kept, an edge is cut only
    where it runs from below ``-_EPS`` to above ``_EPS`` or back, and a
    row left with fewer than three vertices is empty.  So a row with no
    vertex on one of those two sides has no cut: it keeps every vertex
    and passes unchanged, or keeps fewer than three and is empty.  Only
    the rows crossing the line (and degenerate rows that keep three or
    more vertices and lose others) go through
    :func:`_sutherland_hodgman`, and the result is bit-identical to
    clipping every row.  Returns the
    clipped stack, each row padded by repeating its last vertex, and its
    counts.
    """
    m, k = polys.shape[:2]
    # one BLAS product over all vertices, not one per row: the same
    # two-term dot for each vertex
    vals = (polys.reshape(-1, 2) @ normal).reshape(m, k) - offset
    kept, below = np.zeros(m, dtype=int), np.zeros(m, dtype=bool)
    for j in range(k):
        valid = j < counts
        kept += valid & (vals[:, j] <= _EPS)
        below |= valid & (vals[:, j] < -_EPS)
    cross = np.flatnonzero((kept < counts) & (below | (kept >= 3)))
    cut, cut_counts = _sutherland_hodgman(polys[cross], counts[cross],
                                          vals[cross])
    new_counts = np.where((kept == counts) & (counts >= 3), counts, 0)
    new_counts[cross] = cut_counts
    # one gather from the unclipped rows, the clipped ones and a zero row
    source = np.concatenate([polys.reshape(-1, 2), cut.reshape(-1, 2),
                             np.zeros((1, 2))])
    first = np.arange(m) * k
    first[cross] = m * k + np.arange(len(cross)) * cut.shape[1]
    first[new_counts == 0] = len(source) - 1
    width = int(new_counts.max(initial=0))
    last = np.maximum(new_counts - 1, 0)[:, None]
    slots = np.minimum(np.arange(width), last)
    return np.take(source, first[:, None] + slots, axis=0), new_counts


def _sutherland_hodgman(polys, counts, vals):
    """Sutherland-Hodgman clip of the rows of a polygon stack against the
    half-plane where ``vals``, the signed vertex values (m, k), are at
    most ``_EPS``.  Returns each row's emitted vertices first, in order,
    as an (m, 2k, 2) array, and their counts, 0 below three."""
    m, k = polys.shape[:2]
    rows = np.arange(m)[:, None]
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
    order = np.argsort(~emit, axis=1, kind="stable")
    return points[rows, order], new_counts


# -- exact pieces ----------------------------------------------------------------

def _pow(values, exponents):
    """``values ** e`` (values.shape) for each of ``exponents``, with
    libm's ``pow`` (Python floats), for the power primitives
    ``x1^(p+1) - x0^(p+1)`` of :func:`_linear_power` only: they cancel,
    so they keep libm's rounding, which numpy's vectorized power misses
    by up to an ulp.  Every other power is numpy's.  ``pow`` runs once
    per distinct value and exponent, and the results are gathered back;
    values are told apart by bit pattern, so ``-0.0`` keeps its own
    power (``pow(-0.0, 3.0)`` is ``-0.0``).  Raises
    :class:`QuadratureAccuracyError` naming the exponent when a power
    overflows a float."""
    keys, inverse = np.unique(np.ravel(values).view(np.int64),
                              return_inverse=True)
    distinct = keys.view(np.float64).tolist()
    powers = []
    for exponent in exponents:
        try:
            powers.append(np.array([x ** exponent for x in distinct],
                                   dtype=float)[inverse].reshape(values.shape))
        except OverflowError:
            raise _out_of_range(exponent) from None
    return powers


def _out_of_range(exponent):
    """The error of an exact weight integral whose power with exponent
    ``exponent`` overflows a float."""
    return QuadratureAccuracyError(
        f"exact weight integral out of float range: a power with "
        f"exponent {exponent!r} overflows")


def _linear_power(area, vals, gamma):
    """Exact integrals of ``l^gamma`` over triangles of area ``area`` (t,)
    on which the linear function ``l`` takes the vertex values ``vals``
    (t, 3).  ``l`` must be nonnegative up to rounding; small negative
    values are clamped.  The cross-section density of ``l`` rises on
    ``[l1, l2]`` and falls on ``[l2, l3]`` (sorted values), which gives
    closed-form power integrals.
    """
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
    # integrals of t^p from x0 to x1 for p = gamma and gamma + 1, written
    # as the scalar power primitive (p + 1) rounds
    g1 = gamma + 1.0
    g2 = g1 + 1.0
    p1, p2 = _pow(np.stack([l1, l2, l3]), (g1, g2))
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


_GAUSS_CACHE = {}


def _gauss(n):
    if n not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GAUSS_CACHE[n] = (x, w)
    return _GAUSS_CACHE[n]


def _panel_edges(lo, hi):
    """Panels covering each interval ``[lo[i], hi[i]]`` of ``t``, none of
    which holds 0 in its interior, as ``(start, end, owner)`` arrays in
    ascending ``t`` per interval, intervals in order.

    Widths are 2 near ``t = 0`` and grow geometrically away from it
    (``next = x + max(2, x)`` in ``|t|``), matching the profile
    ``(1 + t^2)^(gamma/2)``, which is smooth on the scale of ``|t|``.  A
    near-collinear wedge can reach ``|t| ~ 1e14``; its panel count is
    O(log |t|) and never above that of uniform width-2 panels.
    """
    near = np.minimum(np.abs(lo), np.abs(hi))
    far = np.maximum(np.abs(lo), np.abs(hi))
    start, end, owner = [np.zeros(0)], [np.zeros(0)], [np.zeros(0, int)]
    x, idx = near, np.arange(len(near))
    while len(idx):
        step = x + np.maximum(2.0, x)
        more = step < far[idx]
        start.append(x)
        end.append(np.where(more, step, far[idx]))
        owner.append(idx)
        x, idx = step[more], idx[more]
    start, end, owner = map(np.concatenate, (start, end, owner))
    mirror = hi[owner] <= 0.0
    start, end = np.where(mirror, -end, start), np.where(mirror, -start, end)
    order = np.lexsort((start, owner))
    return start[order], end[order], owner[order]


# Gauss panels per array pass of the wedge profile: a few MB of temporaries
_PANEL_BLOCK = 1 << 13


def _wedges(p, a, b, gamma):
    """Signed integrals of ``|x - p|^gamma`` over the triangles (p, a, b),
    rows of (n, 2) arrays; positive when counter-clockwise.

    The substitution t = tan of the angle from the foot of ``p`` on the
    line ``ab`` turns the angular profile into the smooth function
    ``(1 + t^2)^(gamma/2)``, integrated by 32-point Gauss on the panels
    of :func:`_panel_edges`, one array over every wedge.
    """
    out = np.zeros(len(p))
    u, v = a - p, b - p
    scale = np.maximum(_norms(u), _norms(v))
    live = np.flatnonzero(np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
                          > 1e-15 * scale * scale)
    p, a, u, v, scale = p[live], a[live], u[live], v[live], scale[live]
    seg = b[live] - a
    direction = seg / _norms(seg)[:, None]
    dvec = a + np.vecdot(p - a, direction)[:, None] * direction - p
    d = _norms(dvec)
    keep = d > 1e-15 * scale
    live, u, v, dvec, d = live[keep], u[keep], v[keep], dvec[keep], d[keep]
    e_perp = np.stack([-dvec[:, 1], dvec[:, 0]], axis=1) / d[:, None]
    ta = np.vecdot(u, e_perp) / d
    tb = np.vecdot(v, e_perp) / d
    lo, hi = np.minimum(ta, tb), np.maximum(ta, tb)
    # split at t = 0, where the panels are narrowest
    neg, pos = np.flatnonzero(lo < 0.0), np.flatnonzero(hi > 0.0)
    start, end, owner = _panel_edges(
        np.concatenate([lo[neg], np.maximum(lo[pos], 0.0)]),
        np.concatenate([np.minimum(hi[neg], 0.0), hi[pos]]))
    xg, wg = _gauss(32)
    half = 0.5 * (end - start)
    mid = 0.5 * (end + start)
    panels = np.empty(len(half))
    # a profile or a scale that overflows leaves a non-finite wedge
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, len(half), _PANEL_BLOCK):
            t = (mid[s:s + _PANEL_BLOCK, None]
                 + half[s:s + _PANEL_BLOCK, None] * xg)
            panels[s:s + _PANEL_BLOCK] = half[s:s + _PANEL_BLOCK] * np.vecdot(
                (1.0 + t * t) ** (0.5 * gamma), wg)
        total = np.bincount(np.concatenate([neg, pos])[owner], panels,
                            minlength=len(d))
        total = np.where(ta > tb, -total, total)
        out[live] = d ** (gamma + 2.0) / (gamma + 2.0) * total
    if not np.isfinite(out).all():
        raise _out_of_range(gamma)
    return out


def _radial_sums(m, pieces, gamma):
    """Integral of ``|x - apex|^gamma`` over each piece, one (m,) array per
    piece: the sum of the wedges on its edges, all wedges in one array.
    ``pieces`` lists ``(apex, (polys, counts))`` of stacks of m rows."""
    which, rows = [np.zeros(0, int)], [np.zeros(0, int)]
    apex, a, b = [np.zeros((0, 2))], [np.zeros((0, 2))], [np.zeros((0, 2))]
    for k, (p, (polys, counts)) in enumerate(pieces):
        nxt = _next_vertex(counts, polys.shape[1])
        for j in range(polys.shape[1]):
            r = np.flatnonzero(j < counts)
            which.append(np.full(len(r), k))
            rows.append(r)
            apex.append(np.broadcast_to(p, (len(r), 2)))
            a.append(polys[r, j])
            b.append(polys[r, nxt[r, j]])
    which, rows = np.concatenate(which), np.concatenate(rows)
    values = _wedges(np.concatenate(apex), np.concatenate(a),
                     np.concatenate(b), gamma)
    return [np.bincount(rows[which == k], values[which == k], minlength=m)
            for k in range(len(pieces))]


def _linear_terms(pieces, gamma):
    """``(rows, values)``: the integrals of ``(lin_a . x + lin_b)^gamma``
    over the fan triangles (0, j, j + 1) of every piece, and the rows
    they belong to.  ``pieces`` lists ``((polys, counts), lin_a, lin_b)``."""
    rows, area, vals = [np.zeros(0, dtype=int)], [np.zeros(0)], \
        [np.zeros((0, 3))]
    for (polys, counts), lin_a, lin_b in pieces:
        for j in range(1, polys.shape[1] - 1):
            r = np.flatnonzero(j + 1 < counts)
            tris = polys[r[:, None], [0, j, j + 1]]
            rows.append(r)
            area.append(np.abs(_signed_areas(tris)))
            vals.append(tris @ lin_a + lin_b)
    return np.concatenate(rows), _linear_power(
        np.concatenate(area), np.concatenate(vals), gamma)


def _segment_integrals(a, b, polys, gamma):
    """Exact integrals of dist(x, segment ab)^gamma over a polygon stack.

    The end caps, where the nearest point is an endpoint, are radial about
    it.  In the strip between them the distance is ``|n . (x - a)|``,
    linear on either side of the segment's line.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    e_hat = (b - a) / np.linalg.norm(b - a)
    n_hat = np.array([-e_hat[1], e_hat[0]])
    whole = (polys, np.full(len(polys), polys.shape[1]))
    caps = [(a, _clip(*whole, e_hat, float(np.dot(e_hat, a)))),
            (b, _clip(*whole, -e_hat, float(-np.dot(e_hat, b))))]
    strip = _clip(*_clip(*whole, -e_hat, float(-np.dot(e_hat, a))),
                  e_hat, float(np.dot(e_hat, b)))
    offset = float(np.dot(n_hat, a))
    sides = [(_clip(*strip, -sign * n_hat, -sign * offset), sign * n_hat,
              -sign * offset) for sign in (1.0, -1.0)]
    # add in the order of one cell at a time: each cap's sum, then every
    # fan triangle (np.add.at adds one by one)
    total = sum(_radial_sums(len(polys), caps, gamma), np.zeros(len(polys)))
    np.add.at(total, *_linear_terms(sides, gamma))
    return total


def _points_integrals(points, polys, gamma):
    """Exact integrals of dist(x, point set)^gamma over a polygon stack:
    the part of a cell nearer to one point than to the others (clipped
    by their bisectors) is radial about it."""
    whole = (polys, np.full(len(polys), polys.shape[1]))
    pieces = []
    for k, p in enumerate(points):
        piece = whole
        for j, q in enumerate(points):
            if j != k:
                # keep the side closer to p
                normal = q - p
                piece = _clip(*piece, normal,
                              float(np.dot(normal, 0.5 * (p + q))))
        pieces.append((p, piece))
    return sum(_radial_sums(len(polys), pieces, gamma), np.zeros(len(polys)))


def _exact_integrals(w, polys):
    """Exact weighted areas of a polygon stack, or None if unsupported."""
    if w.gamma == 0.0:
        return np.abs(_signed_areas(polys))
    target = w.s
    if isinstance(target, Points):
        return _points_integrals(target.points, polys, w.gamma)
    merged = target.merged_collinear()
    if len(merged.vertices) == 2:
        return _segment_integrals(merged.vertices[0], merged.vertices[1],
                                  polys, w.gamma)
    return None


def _fan_triangles(poly):
    return [(poly[0], poly[k], poly[k + 1]) for k in range(1, len(poly) - 1)]


# -- adaptive fallback -----------------------------------------------------------

_TRI_RULES = {
    2: (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.array([1.0, 1.0, 1.0]) / 3.0),
    4: (np.array([
        [0.108103018168070, 0.445948490915965, 0.445948490915965],
        [0.445948490915965, 0.108103018168070, 0.445948490915965],
        [0.445948490915965, 0.445948490915965, 0.108103018168070],
        [0.816847572980459, 0.091576213509771, 0.091576213509771],
        [0.091576213509771, 0.816847572980459, 0.091576213509771],
        [0.091576213509771, 0.091576213509771, 0.816847572980459]]),
        np.array([0.223381589678011, 0.223381589678011, 0.223381589678011,
                  0.109951743655322, 0.109951743655322, 0.109951743655322])),
}


def triangle_rule(order):
    """Barycentric points and weights (summing to 1) for triangles."""
    return _TRI_RULES[2 if order <= 2 else 4]


def _tri_children(tris):
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    kids = np.stack([
        np.stack([a, ab, ca], axis=1),
        np.stack([b, bc, ab], axis=1),
        np.stack([c, ca, bc], axis=1),
        np.stack([ab, bc, ca], axis=1),
    ], axis=1)
    return kids.reshape(-1, 3, 2)


def _tri_rule_values(f, tris, bary, wts):
    """Batched rule evaluation; returns per-cell integrals (n, k)."""
    pts = np.einsum("qj,njd->nqd", bary, tris)
    vals = np.asarray(f(pts.reshape(-1, 2)), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    vals = vals.reshape(len(tris), len(wts), -1)
    u = tris[:, 1] - tris[:, 0]
    v = tris[:, 2] - tris[:, 0]
    areas = np.abs(0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]))
    return np.einsum("q,nqk->nk", wts, vals) * areas[:, None], vals


def adaptive_triangles_integral(f, tris, *, tol_rel=1e-8, max_cells=300000,
                                weight_fn=None):
    """Error-driven adaptive integration over a batch of triangles.

    Per iteration every active cell holds a coarse estimate (one rule
    application) and a fine one (rule on its four children); the cell
    error is their difference.  Cells are split Doerfler-style until the
    summed error meets ``tol_rel`` relative to the integral.  When
    ``weight_fn`` is given, cells whose sampled weight ratio exceeds 4
    are split as well.

    Returns ``(value, error_estimate)``; value has the output width of
    ``f`` (scalars squeezed).
    """
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 2)
    bary_lo, wts_lo = triangle_rule(2)
    bary_hi, wts_hi = triangle_rule(4)

    def evaluate(cells):
        # two rules of different degree on the four children: their error
        # constants differ, so near-singular cells cannot fool the estimate
        # by accidental cancellation
        kids = _tri_children(cells)
        lo, lo_vals = _tri_rule_values(f, kids, bary_lo, wts_lo)
        hi, _ = _tri_rule_values(f, kids, bary_hi, wts_hi)
        fine = hi.reshape(len(cells), 4, -1).sum(axis=1)
        err = np.abs(fine - lo.reshape(len(cells), 4, -1).sum(axis=1)).max(axis=1)
        ratio_bad = np.zeros(len(cells), dtype=bool)
        if weight_fn is not None:
            pts = np.einsum("qj,njd->nqd", bary_lo, kids)
            wv = np.asarray(weight_fn(pts.reshape(-1, 2))).reshape(len(cells), -1)
            wmax = wv.max(axis=1)
            wmin = wv.min(axis=1)
            ratio_bad = wmax > 4.0 * np.maximum(wmin, 1e-300)
        return fine, err, ratio_bad

    fine, err, ratio_bad = evaluate(tris)
    cells = tris
    accepted_val = np.zeros(fine.shape[1])
    accepted_err = 0.0
    n_spent = len(cells)

    while True:
        total = accepted_val + fine.sum(axis=0)
        total_err = accepted_err + err.sum()
        tol_abs = tol_rel * max(float(np.abs(total).max()), 1e-300)
        if total_err <= tol_abs:
            value = total if total.size > 1 else float(total[0])
            return value, total_err
        if n_spent > max_cells:
            raise QuadratureAccuracyError(
                "adaptive integration budget exhausted",
                achieved_tol=total_err / max(float(np.abs(total).max()), 1e-300))
        # Doerfler marking on the error, plus the weight-ratio rule
        order_idx = np.argsort(err)[::-1]
        cum = np.cumsum(err[order_idx])
        n_mark = int(np.searchsorted(cum, 0.7 * err.sum()) + 1)
        mark = np.zeros(len(cells), dtype=bool)
        mark[order_idx[:n_mark]] = True
        mark |= ratio_bad & (err > tol_abs / max(8 * len(cells), 8))
        keep = ~mark
        # cells with negligible error retire into the accumulator
        tiny = err <= tol_abs / max(4 * len(cells), 4)
        retire = keep & tiny
        accepted_val += fine[retire].sum(axis=0)
        accepted_err += err[retire].sum()
        keep &= ~retire

        new_cells = _tri_children(cells[mark])
        new_fine, new_err, new_ratio = evaluate(new_cells)
        cells = np.concatenate([cells[keep], new_cells])
        fine = np.concatenate([fine[keep], new_fine])
        err = np.concatenate([err[keep], new_err])
        ratio_bad = np.concatenate([ratio_bad[keep], new_ratio])
        n_spent += len(new_cells)


def adaptive_line_integral(f, p0, p1, *, tol_rel=1e-10, max_depth=40):
    """Adaptive Gauss integration of ``f`` along the segments p0-p1.

    ``p0``, ``p1`` are points (2,) or stacks (m, 2); ``f(points, rows)``
    maps points (n, 2) on the segments of stack rows ``rows`` (n,) to
    values (n,).  Deterministic bisection on the Gauss-7 vs two-half-
    Gauss-7 difference, accepted below ``tol_rel`` times the segment's
    whole Gauss-7 value, when not finite or at ``max_depth``.  Each round
    calls ``f`` once for the live pieces of all segments; each segment
    sums its accepted pieces from its end backwards, so a stack rounds as
    one segment at a time does.  Returns values and error estimates,
    floats for a point.
    """
    p0 = np.asarray(p0, float)
    a, b = p0.reshape(-1, 2), np.asarray(p1, float).reshape(-1, 2)
    total, total_err = np.zeros(len(a)), np.zeros(len(a))
    xg, wg = _gauss(7)
    t = 0.5 * (xg + 1.0)
    row = np.arange(len(a))
    start = np.zeros(len(a))            # where each piece starts on its segment
    scale = None
    leaves = [(row[:0], start[:0], start[:0], start[:0])]   # for m = 0
    for depth in range(max_depth + 1):
        if not len(row):
            break
        mid = 0.5 * (a + b)
        lo, hi = np.concatenate([a, a, mid]), np.concatenate([b, mid, b])
        pts = lo[:, None] + t[:, None] * (hi - lo)[:, None]
        vals = f(pts.reshape(-1, 2), np.repeat(np.tile(row, 3), len(t)))
        piece = (np.vecdot(np.reshape(vals, (-1, len(t))), wg) * 0.5
                 * np.sqrt(np.vecdot(hi - lo, hi - lo)))
        whole, left, right = piece.reshape(3, -1)
        refined = left + right
        with np.errstate(invalid="ignore"):     # inf - inf is NaN
            err = np.abs(refined - whole)
        if scale is None:
            scale = np.maximum(np.abs(whole), 1e-300)
        done = ((err <= tol_rel * scale[row]) | ~np.isfinite(err)
                | (depth >= max_depth))
        leaves.append((row[done], start[done], refined[done], err[done]))
        live = ~done
        a, mid, b = a[live], mid[live], b[live]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        start = np.concatenate([start[live], start[live] + 0.5 ** (depth + 1)])
        row = np.tile(row[live], 2)
    rows, starts, refined, err = (np.concatenate(x) for x in zip(*leaves))
    order = np.lexsort((-starts, rows))
    np.add.at(total, rows[order], refined[order])
    np.add.at(total_err, rows[order], err[order])
    if p0.ndim == 1:
        return float(total[0]), float(total_err[0])
    return total, total_err


# -- cell integrals ----------------------------------------------------------------

@dataclass(frozen=True)
class DyadicCube:
    """Axis-parallel square Q(2^-l m, 2^-l) of edge 2^-l centered at 2^-l m."""

    level: int
    mx: int
    my: int

    @property
    def edge(self):
        return 2.0 ** (-self.level)

    @property
    def center(self):
        return np.array([self.mx, self.my]) * self.edge

    @property
    def volume(self):
        return self.edge ** 2

    def polygon(self):
        return (np.array([self.mx, self.my]) + _CORNERS) * self.edge


def _cell_polygons(cell):
    """The cell as a stack of CCW polygons (m, k, 2), and whether it was a
    single cell."""
    if isinstance(cell, DyadicCube):
        return cell.polygon()[None], True
    polys = np.asarray(cell, dtype=float)
    single = polys.ndim == 2
    if single:
        polys = polys[None]
    if polys.ndim != 3 or polys.shape[1] < 3 or polys.shape[2] != 2:
        raise ValueError("cell must be a DyadicCube, an (n, 2) polygon or "
                         "an (m, n, 2) stack of polygons")
    clockwise = _signed_areas(polys) < 0
    if clockwise.any():
        polys = polys.copy()
        polys[clockwise] = polys[clockwise, ::-1]
    return polys, single


def weighted_cell_integral(w, cell, tol_rel=1e-6):
    """Integral of the weight over a triangle, dyadic cube, or polygon, or
    over each polygon of a stack.

    Uses the exact decomposition when the degeneracy set is a point set
    or a single segment, one array pass over the whole stack; otherwise
    adaptive subdivision to ``tol_rel``, cell by cell.

    Parameters
    ----------
    w : WeightSpec
    cell : DyadicCube, array_like (n, 2), or array_like (m, n, 2)
        One cell, or a stack of m convex polygons with n vertices each.

    Returns
    -------
    float, or ndarray (m,) for a stack

    Raises
    ------
    QuadratureAccuracyError
        If the adaptive fallback exhausts its budget; the error carries
        the achieved tolerance.
    """
    polys, single = _cell_polygons(cell)
    values = _exact_integrals(w, polys)
    if values is None:
        values = np.array([adaptive_triangles_integral(
            w.eval, np.array(_fan_triangles(poly)), tol_rel=tol_rel,
            weight_fn=w.eval)[0] for poly in polys])
    return float(values[0]) if single else values


# -- dyadic scan -------------------------------------------------------------------

@dataclass
class ScanResult:
    """Outcome of a dyadic lower-bound scan."""

    c_min: float
    argmin_cube: DyadicCube
    level_stats: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    window_covers_s: bool = True

    @property
    def warning(self):
        if not self.window_covers_s:
            return "window does not cover the degeneracy set"
        return None


# Most cubes the finest scan level may hold.  The scan's grid arrays grow
# with it, and so does its work where every cube is measured (a window
# that misses the set, at gamma > 0): at the limit, a 1025 x 1025 grid
# (window -2 -2 2 2 at l_max = 8), such a scan took 0.3-1.4 s and
# 220-234 MB max RSS on a 2-core AMD EPYC host, and one whose window
# holds a segment or a point 0.02-0.06 s and 100-105 MB, at gamma = 0
# as at gamma = 0.5.
_SCAN_CUBE_LIMIT = 1025 ** 2
# A skipped cube's bound is compared with a threshold times (1 + slack).
# Its distance lower bound ``lb`` is at most its measured distance ``d``
# (the half-edge margin dwarfs the distance kernel's rounding), and both
# bounds are numpy's power, k ulp or less from the exact one: then
# ``lb ** gamma <= d ** gamma (1 + 2 k eps)``, and one more eps rounds the
# threshold.  Measured, numpy's float64 power is within 1 ulp of libm's
# ``pow`` (itself within 1) on an AVX-512 host; allowing k = 4, twice
# that, the slack must exceed (2 k + 1) eps = 9 eps = 2.0e-15, and 1e-14
# leaves a margin of 5.
_SCAN_SLACK = 1e-14


def _level_grid(level, box):
    """Least cube index ``(mx, my)`` and grid shape ``(nx, ny)``, as
    floats, of the level's cubes meeting the window ``box``."""
    edge = 2.0 ** (-level)
    lo = np.ceil(np.array(box[:2]) / edge - 0.5)
    hi = np.floor(np.array(box[2:]) / edge + 0.5)
    return lo, hi - lo + 1


def _scan_window(l_max, window):
    """The scan window as floats; ``ValueError`` unless ``l_max`` is in
    0..8 and the window is finite and non-empty, :class:`SizeLimitError`
    if level ``l_max`` holds more than ``_SCAN_CUBE_LIMIT`` cubes."""
    if not 0 <= l_max <= 8:
        raise ValueError("scan level must be in 0..8")
    xmin, ymin, xmax, ymax = box = tuple(map(float, window))
    if not (np.isfinite(box).all() and xmin <= xmax and ymin <= ymax):
        raise ValueError("scan window must be finite and non-empty "
                         "(xmin <= xmax, ymin <= ymax)")
    cubes = float(np.prod(_level_grid(l_max, box)[1]))
    if cubes > _SCAN_CUBE_LIMIT:
        raise SizeLimitError(f"dyadic scan limited to {_SCAN_CUBE_LIMIT} "
                             f"cubes per level (level {l_max} has "
                             f"{cubes:.0f})")
    return box


def _child_lower_bounds(parent, parent_lo, lo, shape):
    """Least value of ``parent`` (one level up, least index ``parent_lo``)
    over the at most 2 x 2 parents covering each cube of the grid
    ``lo``, ``shape``; -inf where a parent lies outside ``parent``.

    Per axis, cube m of a level lies in parent m/2 (m even) or in the
    union of parents (m-1)/2 and (m+1)/2 (m odd).
    """
    padded = np.pad(parent, 1, constant_values=-np.inf)

    def parents(axis):
        # padded positions of parents floor(m/2) and ceil(m/2)
        m = np.arange(lo[axis], lo[axis] + shape[axis]) - 2 * parent_lo[axis]
        return m // 2 + 1, (m + 1) // 2 + 1

    (x0, x1), (y0, y1) = parents(0), parents(1)
    rows = np.minimum(padded[x0], padded[x1])
    return np.minimum(rows[:, y0], rows[:, y1])


def _cube_polygons(level, lo, ny, flat):
    """Indices ``mx``, ``my`` and CCW polygons of the grid cubes at the
    row-major positions ``flat`` of a level's ``(nx, ny)`` grid."""
    mx, my = lo[0] + flat // ny, lo[1] + flat % ny
    return mx, my, (np.stack([mx, my], axis=-1)[:, None] + _CORNERS) * (
        2.0 ** (-level))


def _split_levels(w, l_max, box):
    """First pass of the scan: every level's cubes split into near, far
    and skipped, and the near cubes' polygons of all levels stacked.

    Which cubes are measured, and which of them are near, depends on
    distances alone, never on an integral.  Per level: grid, near cubes'
    indices and on-set flags, far cubes with their bounds, and the
    skipped cubes with lower bounds of theirs (cubes as row-major grid
    positions).
    """
    levels = []
    near_polygons = []
    # per grid cube, row-major: its distance, or a lower bound of it
    flat_dist = None

    for level in range(l_max + 1):
        edge = 2.0 ** (-level)
        lo, shape = (tuple(int(v) for v in a) for a in _level_grid(level, box))
        ny = shape[1]
        if flat_dist is None:
            flat_dist = np.full(shape[0] * ny, -np.inf)
        else:
            flat_dist = _child_lower_bounds(
                flat_dist.reshape(parent_shape), parent_lo, lo, shape).ravel()
        parent_lo, parent_shape = lo, shape
        # a far parent is at least its edge, twice this level's, from the set
        measured = flat_dist < 2.0 * edge
        cubes = np.flatnonzero(measured)
        mx, my, polygons = _cube_polygons(level, lo, ny, cubes)
        dist = set_polygon_distance(w.s, polygons)
        flat_dist[cubes] = dist
        far = dist >= edge
        near = ~far
        near_polygons.append(polygons[near])
        # A skipped cube lies inside its parents' union with a margin of
        # half its edge, so its distance exceeds the lower bound by far
        # more than the distance kernel's rounding
        skipped = np.flatnonzero(~measured)
        skipped_bounds = (2.0 ** level * flat_dist[skipped]) ** w.gamma
        levels.append((level, lo, ny, mx[near], my[near], dist[near] == 0.0,
                       cubes[far], (2.0 ** level * dist[far]) ** w.gamma,
                       skipped, skipped_bounds))

    return levels, np.concatenate(near_polygons)


def muckenhoupt_lower_bound_scan(w, l_max, window):
    """Scan dyadic cubes for the normalized weighted volume lower bound.

    For every level ``l <= l_max`` and every cube meeting the window,
    bounds ``2^(l(d+gamma)) * integral_Q w`` from below, with d = 2.
    A cube nearer to the degeneracy set than its edge is integrated and
    reported as a row.  A farther cube has the analytic bound
    ``(2^l dist)^gamma``; it is integrated, and becomes a row, only when
    that bound undercuts the minimum observed so far.

    Distances are measured on level 0 in full and, on each finer level,
    for the cubes with a parent nearer to the set than the parent's edge
    or a parent outside the previous level's grid.  Every other cube
    lies in the union of its at most 2 x 2 parents, all far, so it is
    far, and its distance is at least the least of theirs.  Such a cube
    is measured only when the bound this gives could set or tie its
    level's minimum, or undercut the running minimum when the far cubes
    are visited after the last level.  At gamma = 0 that bound is exactly
    1, the bound of every far cube, so such a cube is not measured.
    Which cubes are measured and which are near depends on distances
    alone: every level is split first, the near cubes of all levels are
    integrated in one call, and the levels are then replayed from the
    values.  The outputs are those of measuring every cube.  A window
    that misses the set, at gamma > 0, still measures every cube.

    Parameters
    ----------
    w : WeightSpec
    l_max : int
        Finest level, in 0..8.
    window : (xmin, ymin, xmax, ymax)
        Finite, non-empty region to scan; should cover a neighbourhood
        of the set.

    Returns
    -------
    ScanResult
        Observed infimum, its cube, per-level minima (including the
        on-set cubes), and per-cube rows for export.

    Raises
    ------
    SizeLimitError
        If level ``l_max`` holds more than ``_SCAN_CUBE_LIMIT`` cubes.
    QuadratureAccuracyError
        If no cube has a finite bound: the distance from the window to
        the set overflows.
    """
    box = xmin, ymin, xmax, ymax = _scan_window(l_max, window)
    sx0, sy0, sx1, sy1 = w.bounding_box()
    covers = (xmin <= sx0 and ymin <= sy0 and xmax >= sx1 and ymax >= sy1)

    levels, near_polygons = _split_levels(w, l_max, box)
    values = weighted_cell_integral(w, near_polygons)

    c_min = np.inf
    argmin = None
    rows = []
    level_stats = []
    # replay the levels in order from the near cubes' values
    start = 0
    for k, (level, lo, ny, near_mx, near_my, on_set, far_cubes, bounds,
            skipped, skipped_bounds) in enumerate(levels):
        norm_factor = _level_normalization(level, w.gamma)
        stop = start + len(near_mx)
        lvl_min = float(bounds.min(initial=np.inf))
        lvl_min_on_s = np.inf
        for x, y, value, on_s in zip(
                near_mx.tolist(), near_my.tolist(),
                (norm_factor * values[start:stop]).tolist(), on_set.tolist()):
            rows.append((level, x, y, value, on_s))
            lvl_min = min(lvl_min, value)
            if on_s:
                lvl_min_on_s = min(lvl_min_on_s, value)
            if value < c_min:
                c_min = value
                argmin = DyadicCube(level, x, y)
        start = stop

        if w.gamma == 0.0:
            # x ** 0.0 is 1.0 for every float, inf included: a skipped
            # cube's bound is exact, and it ties the minimum at most
            if len(skipped):
                lvl_min = min(lvl_min, 1.0)
        else:
            late = skipped_bounds <= lvl_min * (1.0 + _SCAN_SLACK)
            if late.any():
                far_cubes, bounds = _with_measured(
                    w, level, lo, ny, far_cubes, bounds, skipped[late])
                lvl_min = min(lvl_min, float(bounds.min()))
                skipped, skipped_bounds = skipped[~late], skipped_bounds[~late]
        levels[k] = (level, lo, ny, far_cubes, bounds, skipped, skipped_bounds)
        level_stats.append({
            "level": level,
            "min": lvl_min,
            "min_on_s": None if np.isinf(lvl_min_on_s) else lvl_min_on_s,
        })

    # a far cube can only matter if its analytic bound undercuts the
    # minimum; at gamma = 0 a skipped cube's bound is exact, so it is
    # measured only where it is integrated
    for level, lo, ny, far_cubes, bounds, skipped, skipped_bounds in levels:
        late = (skipped_bounds < c_min if w.gamma == 0.0
                else skipped_bounds <= c_min * (1.0 + _SCAN_SLACK))
        if late.any():
            far_cubes, bounds = _with_measured(
                w, level, lo, ny, far_cubes, bounds, skipped[late])
        norm_factor = _level_normalization(level, w.gamma)
        for k, bound in zip(far_cubes.tolist(), bounds.tolist()):
            if bound < c_min:
                cube = DyadicCube(level, lo[0] + k // ny, lo[1] + k % ny)
                value = norm_factor * weighted_cell_integral(w, cube)
                rows.append((level, cube.mx, cube.my, value, False))
                if value < c_min:
                    c_min = value
                    argmin = cube

    if argmin is None:
        raise QuadratureAccuracyError(
            "dyadic scan out of float range: no cube has a finite bound "
            "(the distance from the window to the set overflows)")
    return ScanResult(c_min=float(c_min), argmin_cube=argmin,
                      level_stats=level_stats, rows=rows,
                      window_covers_s=covers)


def _level_normalization(level, gamma):
    """``2^(level (d + gamma))``, d = 2, the factor that makes the cube
    integrals of a level comparable across levels.  Raises
    :class:`QuadratureAccuracyError` naming the exponent when it
    overflows a float."""
    try:
        return 2.0 ** (level * (2 + gamma))
    except OverflowError:
        raise QuadratureAccuracyError(
            f"dyadic scan out of float range: the level-{level} "
            f"normalization 2^({level} * (2 + gamma)) overflows at "
            f"exponent gamma = {gamma!r}") from None


def _with_measured(w, level, lo, ny, far_cubes, bounds, cubes):
    """The far cubes and bounds of a level with the skipped ``cubes``
    measured and merged in, in grid order."""
    dist = set_polygon_distance(w.s, _cube_polygons(level, lo, ny, cubes)[2])
    far_cubes = np.concatenate([far_cubes, cubes])
    order = np.argsort(far_cubes)
    bounds = np.concatenate([bounds, (2.0 ** level * dist) ** w.gamma])
    return far_cubes[order], bounds[order]


# -- case classification --------------------------------------------------------------

@dataclass(frozen=True)
class CaseReport:
    """Degeneracy placement relative to the dynamic surfaces."""

    case: str                 # "nondegenerate", "A", or "B"
    outside_theory: bool
    separation: float

    def __str__(self):
        flag = " (outside theory)" if self.outside_theory else ""
        return f"{self.case}{flag}"


def classify_case(w, mesh):
    """Classify a weight as nondegenerate, case A, or case B.

    Nondegenerate means gamma = 0.  Otherwise the weight is case A when
    the degeneracy set stays farther than one mesh-cell diameter from
    every dynamic-boundary and interface node, and case B when it comes
    closer: below mesh resolution the discrete solver cannot distinguish
    the cases.
    In case B with gamma >= 1 the report carries an outside-theory flag.
    """
    if w.gamma == 0.0:
        return CaseReport("nondegenerate", False, np.inf)
    nodes = set(mesh.boundary_vertices_with_label("dynamic"))
    nodes.update(int(v) for e in mesh.interface_edges for v in e)
    if not nodes:
        return CaseReport("A", False, np.inf)
    pts = mesh.vertices[sorted(nodes)]
    separation = float(np.min(w.s.distance(pts)))
    if separation > mesh.h_max():
        return CaseReport("A", False, separation)
    return CaseReport("B", w.gamma >= 1.0, separation)
