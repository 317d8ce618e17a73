"""Property test of the exact cell-integral kernel against adaptive
quadrature, on triangles and dyadic cubes placed where the decomposition
into caps, strip halves and Voronoi pieces has its cases."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from formheat.geometry import Points, Polyline
from formheat.weights import (DyadicCube, WeightSpec,
                              adaptive_triangles_integral,
                              weighted_cell_integral)

_coord = st.floats(-1.0, 1.0)
_point = st.tuples(_coord, _coord).map(np.array)
_unit = st.floats(0.0, 1.0)
_gamma = st.sampled_from([0.0, 0.5, 1.0, 1.5])


@st.composite
def _target(draw):
    """A segment of length above 0.05, or one or two points: the
    target and the anchor points a cell is placed against."""
    kind = draw(st.sampled_from(["segment", "point", "points"]))
    p0 = draw(_point)
    if kind == "point":
        return Points(p0), [p0]
    p1 = draw(_point)
    assume(np.hypot(*(p1 - p0)) > 0.05)
    if kind == "points":
        return Points([p0, p1]), [p0, p1]
    return Polyline([p0, p1]), [p0, p1]


@st.composite
def _triangle(draw, anchors):
    """A triangle that straddles the target, holds an anchor, has an edge
    on the segment (or an anchor on an edge), is a sliver, or is random;
    in either vertex order."""
    p0, p1 = anchors[0], anchors[-1]
    kind = draw(st.sampled_from(["straddle", "holds", "edge", "sliver",
                                 "random"]))
    if kind == "holds":
        turn = draw(st.floats(0.0, 2.0 * np.pi))
        radii = draw(st.lists(st.floats(0.05, 0.6), min_size=3, max_size=3))
        angles = turn + 2.0 * np.pi * np.arange(3) / 3.0
        tri = p0 + np.array(radii)[:, None] * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1)
    elif kind == "edge":
        s0, s1 = draw(_unit), draw(_unit)
        assume(abs(s1 - s0) > 0.05)
        tri = np.array([p0 + s0 * (p1 - p0), p0 + s1 * (p1 - p0),
                        draw(_point)])
    elif kind == "sliver":
        a, b = draw(_point), draw(_point)
        s = draw(_unit)
        normal = np.array([a[1] - b[1], b[0] - a[0]])
        tri = np.array([a, b, a + s * (b - a) + 1e-6 * normal])
    elif kind == "straddle":
        mid = 0.5 * (p0 + p1)
        tri = mid + np.array([draw(st.tuples(st.floats(-0.5, 0.5),
                                             st.floats(-0.5, 0.5)))
                              for _ in range(3)])
    else:
        tri = np.array([draw(_point) for _ in range(3)])
    u, v = tri[1] - tri[0], tri[2] - tri[0]
    assume(abs(u[0] * v[1] - u[1] * v[0]) > 1e-12)
    return tri[::-1] if draw(st.booleans()) else tri


def _reference(w, tris):
    value, _ = adaptive_triangles_integral(w.eval, tris, tol_rel=1e-7)
    return value


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), target=_target(), gamma=_gamma)
def test_triangle_integral_matches_adaptive(data, target, gamma):
    s, anchors = target
    w = WeightSpec(s, gamma)
    tri = data.draw(_triangle(anchors))
    value = weighted_cell_integral(w, tri)
    assert value > 0.0
    assert abs(value - _reference(w, tri[None])) <= 1e-6 * value


@settings(max_examples=30, deadline=None, derandomize=True)
@given(target=_target(), gamma=_gamma, level=st.integers(0, 3),
       shift=st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
def test_cube_integral_matches_adaptive(target, gamma, level, shift):
    # a cube at or next to the one holding the first anchor
    s, anchors = target
    w = WeightSpec(s, gamma)
    mx, my = np.round(anchors[0] * 2.0 ** level).astype(int) + shift
    cube = DyadicCube(level, int(mx), int(my))
    poly = cube.polygon()
    value = weighted_cell_integral(w, cube)
    reference = _reference(w, np.stack([poly[[0, 1, 2]], poly[[0, 2, 3]]]))
    assert abs(value - reference) <= 1e-6 * value
