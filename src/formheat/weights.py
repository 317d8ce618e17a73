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
or a radial one (smooth 1-D angular profiles).  Other targets fall back
to an error-driven adaptive subdivision, which also splits any cell
whose sampled weight ratio exceeds 4.

Everything here is a pure function of immutable inputs and safe to
evaluate concurrently; the scan minimum is a commutative reduction over
cubes, so cubes could be partitioned across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureAccuracyError
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
        Nonnegative exponent.  Values with ``gamma >= codim(S)`` are
        permitted for out-of-range experiments but flagged via
        ``outside_theory``.
    """

    def __init__(self, s, gamma):
        self.s = as_submanifold(s)
        self.gamma = float(gamma)
        if self.gamma < 0:
            raise ValueError("weight exponent must be nonnegative")
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


# -- polygon helpers -----------------------------------------------------------

def polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_halfplane(poly, normal, offset):
    """Clip a convex CCW polygon against ``{x : normal . x <= offset}``."""
    if len(poly) == 0:
        return poly
    vals = poly @ normal - offset
    out = []
    n = len(poly)
    for k in range(n):
        a, va = poly[k], vals[k]
        b, vb = poly[(k + 1) % n], vals[(k + 1) % n]
        if va <= _EPS:
            out.append(a)
            if vb > _EPS and va < -_EPS:
                t = va / (va - vb)
                out.append(a + t * (b - a))
        elif vb < -_EPS:
            t = va / (va - vb)
            out.append(a + t * (b - a))
    if len(out) < 3:
        return np.zeros((0, 2))
    return np.array(out)


def _fan_triangles(poly):
    return [(poly[0], poly[k], poly[k + 1]) for k in range(1, len(poly) - 1)]


# -- exact pieces ----------------------------------------------------------------

def _power_primitive(p, x0, x1):
    # integral of t^p from x0 to x1, x >= 0
    return (x1 ** (p + 1) - x0 ** (p + 1)) / (p + 1)


def _tri_linear_power(tri, lin_a, lin_b, gamma):
    """Exact integral of (lin_a . x + lin_b)^gamma over a triangle.

    The linear functional must be nonnegative on the triangle up to
    rounding; small negative vertex values are clamped.
    """
    tri = np.asarray(tri, dtype=float)
    area = abs(polygon_area(tri))
    if area <= 0.0:
        return 0.0
    vals = tri @ lin_a + lin_b
    scale = max(1.0, float(np.abs(vals).max()))
    vals = np.clip(vals, 0.0, None) if vals.min() > -1e-9 * scale else vals
    if vals.min() < 0:
        raise ValueError("linear functional changes sign on triangle")
    l1, l2, l3 = np.sort(vals)
    if l3 <= 0.0:
        return 0.0
    if l3 - l1 <= 1e-14 * l3:
        return area * ((l1 + l2 + l3) / 3.0) ** gamma
    den = l3 - l1
    total = 0.0
    # rising piece of the cross-section density on [l1, l2]
    if l2 - l1 > 1e-15 * l3:
        c1 = 2.0 * area / ((l2 - l1) * den)
        total += c1 * (_power_primitive(gamma + 1, l1, l2)
                       - l1 * _power_primitive(gamma, l1, l2))
    # falling piece on [l2, l3]
    if l3 - l2 > 1e-15 * l3:
        c1 = 2.0 * area / ((l3 - l2) * den)
        total += c1 * (l3 * _power_primitive(gamma, l2, l3)
                       - _power_primitive(gamma + 1, l2, l3))
    return total


_GAUSS_CACHE = {}


def _gauss(n):
    if n not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GAUSS_CACHE[n] = (x, w)
    return _GAUSS_CACHE[n]


def _panel_edges(lo, hi):
    """Ascending panel edges on ``[lo, hi]``, which does not contain 0 in
    its interior.  Widths are 2 near ``t = 0`` and grow geometrically
    away from it (``next = x + max(2, x)`` in ``|t|``), matching the
    profile ``(1 + t^2)^(gamma/2)``, which is smooth on the scale of
    ``|t|``.  A near-collinear wedge can reach ``|t| ~ 1e14``; the panel
    count is O(log |t|) and never above that of uniform width-2 panels.
    """
    near, far = sorted((abs(lo), abs(hi)))
    edges = [near]
    while edges[-1] + max(2.0, edges[-1]) < far:
        edges.append(edges[-1] + max(2.0, edges[-1]))
    edges.append(far)
    if hi <= 0.0:
        return [-x for x in reversed(edges)]
    return edges


def _radial_wedge(p, a, b, gamma):
    """Signed integral of |x - p|^gamma over the triangle (p, a, b).

    Positive when (p, a, b) is counter-clockwise.  Uses the substitution
    t = tan of the angle from the foot direction, which turns the
    angular profile into the smooth function (1 + t^2)^(gamma/2).
    """
    u = a - p
    v = b - p
    cross = u[0] * v[1] - u[1] * v[0]
    scale = max(np.linalg.norm(u), np.linalg.norm(v))
    if abs(cross) <= 1e-15 * scale * scale:
        return 0.0
    seg = b - a
    seg_len = np.linalg.norm(seg)
    direction = seg / seg_len
    foot = a + np.dot(p - a, direction) * direction
    dvec = foot - p
    d = np.linalg.norm(dvec)
    if d <= 1e-15 * scale:
        return 0.0
    e_hat = dvec / d
    e_perp = np.array([-e_hat[1], e_hat[0]])
    ta = float(np.dot(u, e_perp) / d)
    tb = float(np.dot(v, e_perp) / d)
    # panel-composite Gauss on the smooth profile
    breaks = [ta, tb] if ta <= tb else [tb, ta]
    if breaks[0] < 0.0 < breaks[1]:
        breaks = [breaks[0], 0.0, breaks[1]]
    xg, wg = _gauss(32)
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        edges = _panel_edges(lo, hi)
        for p0, p1 in zip(edges[:-1], edges[1:]):
            half = 0.5 * (p1 - p0)
            mid = 0.5 * (p1 + p0)
            t = mid + half * xg
            total += half * float(np.dot(wg, (1.0 + t * t) ** (0.5 * gamma)))
    if ta > tb:
        total = -total
    return d ** (gamma + 2.0) / (gamma + 2.0) * total


def _radial_polygon(p, poly, gamma):
    """Integral of |x - p|^gamma over a convex CCW polygon (signed fan)."""
    total = 0.0
    n = len(poly)
    for k in range(n):
        total += _radial_wedge(p, poly[k], poly[(k + 1) % n], gamma)
    return total


def _segment_weight_polygon(a, b, poly, gamma):
    """Exact integral of dist(x, segment ab)^gamma over a convex polygon."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    length = np.linalg.norm(b - a)
    e_hat = (b - a) / length
    n_hat = np.array([-e_hat[1], e_hat[0]])
    total = 0.0
    # end caps: nearest point is an endpoint
    left = clip_halfplane(poly, e_hat, float(np.dot(e_hat, a)))
    if len(left):
        total += _radial_polygon(a, left, gamma)
    right = clip_halfplane(poly, -e_hat, float(-np.dot(e_hat, b)))
    if len(right):
        total += _radial_polygon(b, right, gamma)
    # strip: distance is |(x - a) . n|
    strip = clip_halfplane(poly, -e_hat, float(-np.dot(e_hat, a)))
    strip = clip_halfplane(strip, e_hat, float(np.dot(e_hat, b)))
    if len(strip):
        offset = float(np.dot(n_hat, a))
        for sign in (1.0, -1.0):
            piece = clip_halfplane(strip, -sign * n_hat, -sign * offset)
            for tri in _fan_triangles(piece):
                total += _tri_linear_power(np.array(tri), sign * n_hat,
                                           -sign * offset, gamma)
    return total


def _points_weight_polygon(points, poly, gamma):
    """Exact integral of dist(x, point set)^gamma via Voronoi clipping."""
    total = 0.0
    for k, p in enumerate(points):
        piece = poly
        for j, q in enumerate(points):
            if j == k:
                continue
            # keep the side closer to p
            normal = q - p
            offset = float(np.dot(normal, 0.5 * (p + q)))
            piece = clip_halfplane(piece, normal, offset)
            if len(piece) == 0:
                break
        if len(piece):
            total += _radial_polygon(p, piece, gamma)
    return total


def _exact_weight_polygon(w, poly):
    """Exact weighted area of a convex polygon, or None if unsupported."""
    if w.gamma == 0.0:
        return abs(polygon_area(poly))
    target = w.s
    if isinstance(target, Points):
        return _points_weight_polygon(target.points, poly, w.gamma)
    merged = target.merged_collinear()
    if len(merged.vertices) == 2:
        return _segment_weight_polygon(merged.vertices[0], merged.vertices[1],
                                       poly, w.gamma)
    return None


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


def adaptive_triangles_integral(f, tris, *, tol_rel=1e-8, order=2,
                                max_cells=300000, weight_fn=None):
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
    bary_lo, wts_lo = triangle_rule(min(order, 2))
    bary_hi, wts_hi = triangle_rule(max(order, 3))

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
    """Adaptive Gauss integration of ``f`` along the segment p0-p1.

    ``f`` maps point arrays (m, 2) to values (m,).  Deterministic
    bisection on the Gauss-7 vs two-half-Gauss-7 difference.
    """
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    xg, wg = _gauss(7)

    def gauss_piece(a, b):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        t = 0.5 * (xg + 1.0)
        pts = a + np.outer(t, b - a)
        return float(np.dot(wg, f(pts))) * 0.5 * np.linalg.norm(b - a), mid, half

    total = 0.0
    total_err = 0.0
    stack = [(p0, p1, 0)]
    ref_scale = None
    while stack:
        a, b, depth = stack.pop()
        whole, mid, _ = gauss_piece(a, b)
        left, _, _ = gauss_piece(a, mid)
        right, _, _ = gauss_piece(mid, b)
        refined = left + right
        err = abs(refined - whole)
        if ref_scale is None:
            ref_scale = max(abs(whole), 1e-300)
        if err <= tol_rel * ref_scale or depth >= max_depth:
            total += refined
            total_err += err
        else:
            stack.append((a, mid, depth + 1))
            stack.append((mid, b, depth + 1))
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


def _cell_polygon(cell):
    if isinstance(cell, DyadicCube):
        return cell.polygon()
    poly = np.asarray(cell, dtype=float)
    if poly.ndim != 2 or poly.shape[0] < 3 or poly.shape[1] != 2:
        raise ValueError("cell must be a DyadicCube or an (n, 2) polygon")
    if polygon_area(poly) < 0:
        poly = poly[::-1]
    return poly


def weighted_cell_integral(w, cell, order=2, tol_rel=1e-6):
    """Integral of the weight over a triangle, dyadic cube, or polygon.

    Uses the exact decomposition when the degeneracy set is a point set
    or a single segment; otherwise adaptive subdivision to ``tol_rel``.

    Parameters
    ----------
    w : WeightSpec
    cell : DyadicCube or array_like (n, 2)
    order : int
        Base quadrature order for the adaptive fallback (>= 1).

    Raises
    ------
    QuadratureAccuracyError
        If the adaptive fallback exhausts its budget; the error carries
        the achieved tolerance.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    poly = _cell_polygon(cell)
    exact = _exact_weight_polygon(w, poly)
    if exact is not None:
        return exact
    tris = np.array(_fan_triangles(poly))
    value, _ = adaptive_triangles_integral(
        w.eval, tris, tol_rel=tol_rel, order=order, weight_fn=w.eval)
    return value


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


def _scan_window(l_max, window):
    """The scan window as floats; ``ValueError`` unless ``l_max`` is in
    0..8 and the window is finite and non-empty."""
    if not 0 <= l_max <= 8:
        raise ValueError("scan level must be in 0..8")
    xmin, ymin, xmax, ymax = box = tuple(map(float, window))
    if not (np.isfinite(box).all() and xmin <= xmax and ymin <= ymax):
        raise ValueError("scan window must be finite and non-empty "
                         "(xmin <= xmax, ymin <= ymax)")
    return box


def muckenhoupt_lower_bound_scan(w, l_max, window):
    """Scan dyadic cubes for the normalized weighted volume lower bound.

    For every level ``l <= l_max`` and every cube meeting the window,
    computes ``2^(l(d+gamma)) * integral_Q w`` with d = 2.  Cubes farther
    than one edge length from the degeneracy set are handled by the
    analytic bound ``(2^l dist)^gamma`` and only integrated when that
    bound could compete with the observed minimum.

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
    """
    xmin, ymin, xmax, ymax = _scan_window(l_max, window)
    sx0, sy0, sx1, sy1 = w.bounding_box()
    covers = (xmin <= sx0 and ymin <= sy0 and xmax >= sx1 and ymax >= sy1)

    d = 2
    c_min = np.inf
    argmin = None
    rows = []
    level_stats = []
    deferred = []

    for level in range(l_max + 1):
        edge = 2.0 ** (-level)
        lo = np.ceil(np.array([xmin, ymin]) / edge - 0.5).astype(int)
        hi = np.floor(np.array([xmax, ymax]) / edge + 0.5).astype(int)
        mx, my = np.mgrid[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1].reshape(2, -1)
        polygons = (np.stack([mx, my], axis=-1)[:, None] + _CORNERS) * edge
        dist = set_polygon_distance(w.s, polygons)
        far = dist >= edge
        # Python's float pow: numpy's vectorized power may round differently
        bounds = [(2.0 ** level * r) ** w.gamma for r in dist[far].tolist()]
        deferred.extend(zip([level] * len(bounds), mx[far].tolist(),
                            my[far].tolist(), bounds))
        norm_factor = 2.0 ** (level * (d + w.gamma))
        lvl_min = min(bounds, default=np.inf)
        lvl_min_on_s = np.inf
        for i in np.flatnonzero(~far):
            value = norm_factor * weighted_cell_integral(w, polygons[i])
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

    # a far cube can only matter if its analytic bound undercuts the minimum
    for level, mx, my, bound in deferred:
        if bound < c_min:
            cube = DyadicCube(level, mx, my)
            value = (2.0 ** (level * (d + w.gamma))
                     * weighted_cell_integral(w, cube))
            rows.append((level, mx, my, value, False))
            if value < c_min:
                c_min = value
                argmin = cube

    return ScanResult(c_min=float(c_min), argmin_cube=argmin,
                      level_stats=level_stats, rows=rows,
                      window_covers_s=covers)


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


def classify_case(w, mesh, separation_tol=None):
    """Classify a weight as nondegenerate, case A, or case B.

    Nondegenerate means gamma = 0.  Otherwise the weight is case A when
    the degeneracy set stays farther than the separation tolerance from
    every dynamic-boundary and interface node, and case B when it comes
    closer.  The tolerance defaults to one mesh-cell diameter: below
    mesh resolution the discrete solver cannot distinguish the cases.
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
    tol = mesh.h_max() if separation_tol is None else float(separation_tol)
    if separation > tol:
        return CaseReport("A", False, separation)
    return CaseReport("B", w.gamma >= 1.0, separation)
