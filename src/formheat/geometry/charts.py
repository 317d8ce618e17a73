"""Lipschitz graph charts for 1-D surfaces (polylines) in the plane.

A chart parametrizes part of a surface as ``g(y) = Q @ (y, h(y)) + x*``
with an orthogonal frame ``Q``, a shift ``x*`` and a piecewise-linear
Lipschitz profile ``h``.  The metric tensor is the scalar
``G(y) = 1 + h'(y)^2``; points where ``h`` changes slope are the
irregular points, and pointwise formulas are only evaluated away from
them.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateGeometryError, IrregularPointError

_SLOPE_TOL = 1e-12


def rotation(angle):
    """Orthogonal frame whose first column is (cos a, sin a)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class SurfaceChart:
    """Graph chart of a polyline with a piecewise-linear profile.

    Parameters
    ----------
    q : array_like, shape (2, 2)
        Orthogonal frame.  Column 0 is the abscissa direction of the
        graph, column 1 the profile direction.
    shift : array_like, shape (2,)
        Offset ``x*`` of the parametrization.
    param_nodes : array_like, shape (m,)
        Strictly increasing parameter breakpoints; the chart interval is
        ``(param_nodes[0], param_nodes[-1])``.
    h_values : array_like, shape (m,)
        Profile values at the breakpoints; ``h`` is linear in between.
    """

    def __init__(self, q, shift, param_nodes, h_values):
        self.q = np.asarray(q, dtype=float).reshape(2, 2)
        if not np.allclose(self.q.T @ self.q, np.eye(2), atol=1e-12):
            raise DegenerateGeometryError("chart frame is not orthogonal")
        self.shift = np.asarray(shift, dtype=float).reshape(2)
        self.param_nodes = np.asarray(param_nodes, dtype=float).reshape(-1)
        self.h_values = np.asarray(h_values, dtype=float).reshape(-1)
        if len(self.param_nodes) != len(self.h_values) or len(self.param_nodes) < 2:
            raise DegenerateGeometryError("chart needs matching parameter/profile nodes")
        if np.any(np.diff(self.param_nodes) <= 0):
            raise DegenerateGeometryError("chart parameters must increase strictly")
        self.slopes = np.diff(self.h_values) / np.diff(self.param_nodes)

    @classmethod
    def from_polyline(cls, vertices, q=None, angle=0.0, shift=None):
        """Build the chart describing a polyline in the frame ``q``.

        The polyline must be a graph over the frame's first axis, i.e.
        the projected abscissae must increase strictly along the chain.
        """
        verts = np.asarray(vertices, dtype=float).reshape(-1, 2)
        if q is None:
            q = rotation(angle)
        q = np.asarray(q, dtype=float)
        if shift is None:
            shift = verts[0]
        local = (verts - np.asarray(shift, float)) @ q  # rows: (y_i, h_i)
        y, h = local[:, 0], local[:, 1]
        if np.any(np.diff(y) <= 0):
            raise DegenerateGeometryError(
                "polyline is not a graph over the chosen direction")
        return cls(q, shift, y, h)

    # -- profile evaluation ----------------------------------------------------

    @property
    def interval(self):
        """Parameter interval (open) of the chart."""
        return float(self.param_nodes[0]), float(self.param_nodes[-1])

    def _segment(self, y):
        lo, hi = self.interval
        if not (lo <= y <= hi):
            raise ValueError(f"parameter {y} outside chart interval [{lo}, {hi}]")
        k = int(np.searchsorted(self.param_nodes, y, side="right") - 1)
        return min(max(k, 0), len(self.slopes) - 1)

    def is_regular(self, y):
        """Whether the profile is differentiable at ``y``."""
        inner = self.param_nodes[1:-1]
        scale = max(1.0, float(np.abs(self.param_nodes).max()))
        hits = np.nonzero(np.abs(inner - y) <= 1e-13 * scale)[0]
        for k in hits:
            if abs(self.slopes[k + 1] - self.slopes[k]) > _SLOPE_TOL:
                return False
        return True

    def h(self, y):
        k = self._segment(y)
        return float(self.h_values[k] + self.slopes[k] * (y - self.param_nodes[k]))

    def h_prime(self, y):
        if not self.is_regular(y):
            raise IrregularPointError(
                f"irregular point: profile has a kink at parameter {y}")
        return float(self.slopes[self._segment(y)])

    # -- chart maps --------------------------------------------------------------

    def g(self, y):
        """Map a parameter value to the surface point."""
        return self.q @ np.array([y, self.h(y)]) + self.shift

    def g_prime(self, y):
        """Tangent vector Q @ (1, h'(y)); raises at irregular points."""
        return self.q @ np.array([1.0, self.h_prime(y)])

    def metric(self, y):
        """Metric data (G, Ginv, sqrtG) with G = 1 + h'(y)^2."""
        hp = self.h_prime(y)
        g = 1.0 + hp * hp
        return g, 1.0 / g, np.sqrt(g)

    def inverse(self, x, tol=1e-9):
        """Parameter of a surface point ``x`` lying on the chart image."""
        local = self.q.T @ (np.asarray(x, dtype=float) - self.shift)
        y = float(local[0])
        lo, hi = self.interval
        if y < lo - tol or y > hi + tol:
            raise ValueError("point projects outside the chart interval")
        y = min(max(y, lo), hi)
        if abs(self.h(y) - float(local[1])) > tol * max(1.0, abs(local[1])):
            raise ValueError("point does not lie on the chart image")
        return y

    def surface_gradient(self, y, du_dy):
        """Surface gradient g'(y) G^{-1}(y) (u o g)'(y) as a vector in R^2."""
        _, ginv, _ = self.metric(y)
        return self.g_prime(y) * (ginv * du_dy)

    def p1_surface_gradient(self, nodal_values, y):
        """Surface gradient of the piecewise-linear interpolant.

        ``nodal_values`` are per-breakpoint values (same order as the
        chart nodes); the interpolant is linear on each piece.
        """
        vals = np.asarray(nodal_values, dtype=float)
        if len(vals) != len(self.param_nodes):
            raise ValueError("nodal values must match chart breakpoints")
        k = self._segment(y)
        du_dy = (vals[k + 1] - vals[k]) / (self.param_nodes[k + 1] - self.param_nodes[k])
        return self.surface_gradient(y, du_dy)


def chart_metric(chart, y):
    """Metric tensor data (G, Ginv, sqrtG) of a chart at parameter ``y``."""
    return chart.metric(y)


def transition(chart_a, chart_b, y_a, tol=1e-9):
    """Transition data between overlapping charts of the same surface.

    Returns ``(y_b, dphi)`` where ``y_b`` parametrizes the same point in
    ``chart_b`` and ``dphi`` is the derivative of the transition map at
    ``y_a``.
    """
    x = chart_a.g(y_a)
    y_b = chart_b.inverse(x, tol=tol)
    dphi = float((chart_b.q.T @ chart_a.g_prime(y_a))[0])
    return y_b, dphi
