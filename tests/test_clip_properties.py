"""Property tests of the polygon-stack clip: clipping only the rows that
cross the line must give, bit for bit, what clipping every row gives, in
the clip and in the exact kernels built on it."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import formheat.weights as weights
from oracles import clip_every_row
from formheat.geometry import Polyline
from formheat.model_problems import standard_fixture_mesh
from formheat.weights import (_CORNERS, _EPS, WeightSpec,
                              weighted_cell_integral)

_coord = st.floats(-1.0, 1.0)
_point = st.tuples(_coord, _coord).map(np.array)
_gamma = st.sampled_from([0.25, 0.5, 1.0, 1.5])
# offsets that put a vertex on the line, or within or just beyond _EPS
_touch = st.sampled_from([0.0, 0.5 * _EPS, -0.5 * _EPS, _EPS, -_EPS,
                          2.0 * _EPS, -2.0 * _EPS])


@st.composite
def _line(draw):
    """``(normal, offset)`` of the half-plane ``normal . x <= offset``:
    an oblique line, or a grid line ``x`` or ``y = j / 4`` on which
    dyadic cube corners fall exactly."""
    if draw(st.booleans()):
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        return np.array([np.cos(angle), np.sin(angle)]), draw(_coord)
    normal = np.zeros(2)
    normal[draw(st.integers(0, 1))] = draw(st.sampled_from([1.0, -1.0]))
    return normal, float(normal.sum()) * draw(st.integers(-4, 4)) / 4.0


@st.composite
def _row(draw, normal, offset, k):
    """One row of a k-slot stack and its count: a convex CCW polygon of
    1 to k vertices, padded by repeating its last one, that lies inside,
    outside, across the line or touches it from either side; a dyadic
    cube; a triangle with an edge on the line and a vertex in its middle;
    or an empty row."""
    kind = draw(st.sampled_from(["inside", "outside", "straddle",
                                 "touch-inside", "touch-outside", "cube",
                                 "flat", "empty"]))
    if kind == "empty":
        return np.zeros((k, 2)), 0
    if kind == "flat":
        # three vertices within rounding of the line, the apex on either side
        tangent = np.array([-normal[1], normal[0]])
        t0, t1 = sorted(draw(st.tuples(_coord, _coord)))
        assume(t1 - t0 > 0.01)
        a, b = offset * normal + t0 * tangent, offset * normal + t1 * tangent
        side = draw(st.sampled_from([1.0, -1.0]))
        apex = 0.5 * (a + b) + side * draw(st.floats(0.01, 0.5)) * normal
        poly = np.array([a, 0.5 * (a + b), b, apex])
        poly = poly if side < 0 else poly[::-1]
    elif kind == "cube":
        level = draw(st.integers(0, 3))
        m = np.array([draw(st.integers(-4, 4)), draw(st.integers(-4, 4))])
        poly = (m + _CORNERS) * 2.0 ** -level
    else:
        count = draw(st.integers(1, k))
        angles = np.sort(draw(st.lists(st.floats(0.0, 2.0 * np.pi),
                                       min_size=count, max_size=count)))
        poly = draw(_point) + draw(st.floats(0.01, 0.5)) * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1)
        vals = poly @ normal - offset
        if kind == "inside":
            shift = -vals.max() - draw(st.floats(1e-12, 1.0))
        elif kind == "outside":
            shift = -vals.min() + draw(st.floats(1e-12, 1.0))
        elif kind == "straddle":
            shift = -(vals.min() + draw(st.floats(0.05, 0.95))
                      * (vals.max() - vals.min()))
        elif kind == "touch-inside":
            shift = -vals.max() + draw(_touch)
        else:
            shift = -vals.min() + draw(_touch)
        poly = poly + shift * normal
    count = len(poly)
    return np.concatenate([poly, np.repeat(poly[-1:], k - count, axis=0)]), \
        count


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), line=_line(), k=st.integers(4, 6),
       m=st.integers(1, 12))
def test_clip_matches_clipping_every_row(data, line, k, m):
    normal, offset = line
    rows = [data.draw(_row(normal, offset, k)) for _ in range(m)]
    polys = np.stack([poly for poly, _ in rows])
    counts = np.array([count for _, count in rows])
    out, new_counts = weights._clip(polys, counts, normal, offset)
    ref, ref_counts = clip_every_row(polys, counts, normal, offset)
    assert np.array_equal(new_counts, ref_counts)
    # the whole padded stack, so the next clip sees the same rows too
    assert out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


@st.composite
def _stack(draw, anchors):
    """Up to 40 cells about the anchor points, as CCW quadrilaterals
    (a triangle repeats its last vertex): random triangles, dyadic cubes
    on grid lines and triangles snapped to a grid, less those that
    snapping flattened."""
    cells = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["triangle", "cube", "snapped"]))
        anchor = anchors[draw(st.integers(0, len(anchors) - 1))]
        if kind == "cube":
            level = draw(st.integers(0, 4))
            m = np.round(anchor * 2.0 ** level) + np.array(
                [draw(st.integers(-1, 1)), draw(st.integers(-1, 1))])
            cells.append((m + _CORNERS) * 2.0 ** -level)
            continue
        tri = anchor + np.array([draw(st.tuples(
            st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))) for _ in range(3)])
        if kind == "snapped":
            grid = 2.0 ** draw(st.integers(1, 4))
            tri = np.round(tri * grid) / grid
        cells.append(tri[[0, 1, 2, 2]])
    polys = np.stack(cells)
    polys = polys[np.abs(weights._signed_areas(polys)) > 1e-12]
    assume(len(polys))
    return weights._cell_polygons(polys)[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(["segment", "grid-segment",
                                             "points"]),
       p0=_point, p1=_point, gamma=_gamma)
def test_kernels_match_on_the_reference_clip(data, kind, p0, p1, gamma):
    if kind == "grid-segment":
        p0, p1 = np.round(p0 * 4.0) / 4.0, np.round(p1 * 4.0) / 4.0
    assume(np.hypot(*(p1 - p0)) > 0.05)
    polys = data.draw(_stack([p0, p1]))
    if kind == "points":
        def kernel():
            return weights._points_integrals(np.stack([p0, p1]), polys,
                                             gamma)
    else:
        def kernel():
            return weights._segment_integrals(p0, p1, polys, gamma)
    values = kernel()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weights, "_clip", clip_every_row)
        reference = kernel()
    assert values.tobytes() == reference.tobytes()


def _straddling(polys, counts, normal, offset):
    """Rows with a vertex below ``-_EPS`` and one above ``_EPS``."""
    vals = polys @ normal - offset
    edge = np.arange(polys.shape[1]) < counts[:, None]
    return ((edge & (vals < -_EPS)).any(axis=1)
            & (edge & (vals > _EPS)).any(axis=1))


@pytest.mark.parametrize("segment, crossed", [
    ([(0.0, 0.5), (1.0, 0.5)], False),
    ([(0.1, 0.2), (0.9, 0.7)], True)])
def test_only_rows_crossing_a_line_are_clipped(segment, crossed,
                                               monkeypatch):
    """On the fixture mesh, a segment along grid lines crosses no cell,
    so no row is handed to Sutherland-Hodgman; an oblique one hands over
    exactly the rows that straddle each of the six clip lines."""
    mesh = standard_fixture_mesh(16)
    clips = []
    clip, sutherland_hodgman = weights._clip, weights._sutherland_hodgman

    def recording_clip(polys, counts, normal, offset):
        clips.append({"straddling": _straddling(polys, counts, normal,
                                                offset)})
        return clip(polys, counts, normal, offset)

    def recording_sutherland_hodgman(polys, counts, vals):
        clips[-1]["received"] = len(polys)
        return sutherland_hodgman(polys, counts, vals)

    monkeypatch.setattr(weights, "_clip", recording_clip)
    monkeypatch.setattr(weights, "_sutherland_hodgman",
                        recording_sutherland_hodgman)
    weighted_cell_integral(WeightSpec(Polyline(segment), 0.5),
                           mesh.vertices[mesh.triangles])
    assert len(clips) == 6
    received = [c.get("received", 0) for c in clips]
    assert received == [int(c["straddling"].sum()) for c in clips]
    assert (sum(received) > 0) == crossed
    assert max(received) < mesh.num_triangles
