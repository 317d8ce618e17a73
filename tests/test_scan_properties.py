"""Property test of the dyadic scan, which measures a cube's distance only
where a parent is near the set, against the scan that measures every
cube: the same rows, level minima, infimum and cube, field for field and
type for type.  Sets and windows are drawn where pruning has its cases:
sets on dyadic lines (parent and child distances tie), windows that
hold, straddle or miss the set, and one-point windows."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from formheat import weights
from formheat.geometry import Points, Polyline
from formheat.weights import (DyadicCube, WeightSpec,
                              muckenhoupt_lower_bound_scan)

from oracles import muckenhoupt_lower_bound_scan_full

# dyadic coordinates put the set on cube edges
_coord = st.one_of(st.integers(-8, 8).map(lambda k: k / 8.0),
                   st.floats(-1.0, 1.0))
_point = st.tuples(_coord, _coord)


def _length(p, q):
    return float(np.hypot(q[0] - p[0], q[1] - p[1]))


@st.composite
def _target(draw, kind):
    """One or two points, an axis-parallel or oblique segment, or a
    two-segment polyline."""
    p0 = draw(_point)
    if kind == "point":
        return Points(p0)
    p1 = draw(_point)
    if kind == "points":
        return Points([p0, p1])
    if kind == "horizontal":
        p1 = (p1[0], p0[1])
    elif kind == "vertical":
        p1 = (p0[0], p1[1])
    assume(_length(p0, p1) > 0.05)
    if kind != "polyline":
        return Polyline([p0, p1])
    p2 = draw(_point)
    assume(_length(p1, p2) > 0.05)
    return Polyline([p0, p1, p2])


@st.composite
def _window(draw, target):
    """A window that holds the set with a margin, straddles its first
    vertex, misses the set, or is one point."""
    x0, y0, x1, y1 = target.bounding_box()
    kind = draw(st.sampled_from(["holds", "straddles", "misses", "point"]))
    if kind == "holds":
        pads = draw(st.lists(st.floats(0.0, 0.5), min_size=4, max_size=4))
        return (x0 - pads[0], y0 - pads[1], x1 + pads[2], y1 + pads[3])
    if kind == "point":
        x, y = draw(_point)
        return (x, y, x, y)
    sizes = draw(st.lists(st.floats(0.0, 0.6), min_size=4, max_size=4))
    cx, cy = (x0, y0) if kind == "straddles" else (x1 + 1.5, y0)
    return (cx - sizes[0], cy - sizes[1], cx + sizes[2], cy + sizes[3])


def _exact(value):
    """``value`` spelled out with the type of every part, floats by repr."""
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_exact(v) for v in value]
    if isinstance(value, dict):
        return "dict", sorted((k, _exact(v)) for k, v in value.items())
    if isinstance(value, DyadicCube):
        return "DyadicCube", _exact((value.level, value.mx, value.my))
    return type(value).__name__, repr(value)


# multi-segment polylines integrate adaptively, cube by cube, so they
# stay on coarse levels
_KINDS = {"point": 5, "points": 5, "horizontal": 5, "vertical": 5,
          "oblique": 5, "polyline": 1}


@pytest.mark.parametrize("kind", sorted(_KINDS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data(), gamma=st.sampled_from([0.0, 0.5, 1.0, 1.5]))
def test_pruned_scan_matches_full_scan(kind, data, gamma):
    target = data.draw(_target(kind))
    window = data.draw(_window(target))
    l_max = data.draw(st.integers(0, _KINDS[kind]))
    _assert_same_scan(WeightSpec(target, gamma), l_max, window)


@pytest.mark.parametrize("target, gamma, l_max, window", [
    # C07's segment runs along cube edges on every level
    (Polyline([(-1.0, 0.0), (1.0, 0.0)]), 0.5, 5, (-1.0, -1.0, 1.0, 1.0)),
    # the level-1 cube m = (2, 1), whose bound is level 1's minimum, has
    # its nearer parent (1, 0) outside level 0's grid
    (Points([(-0.88, 0.24), (0.76, -0.64)]), 0.5, 1,
     (0.41, 0.53, 1.11, 0.74)),
    # at gamma = 0 every far bound is 1.0 and ties the on-set values
    (Polyline([(-1.0, 0.1), (1.0, 0.1)]), 0.0, 6, (-2.0, -2.0, 2.0, 2.0)),
], ids=["dyadic-lines", "parent-outside-grid", "gamma-zero"])
def test_pruned_scan_matches_full_scan_on(target, gamma, l_max, window):
    _assert_same_scan(WeightSpec(target, gamma), l_max, window)


def _assert_same_scan(w, l_max, window):
    pruned = muckenhoupt_lower_bound_scan(w, l_max, window)
    full = muckenhoupt_lower_bound_scan_full(w, l_max, window)
    for field in ("rows", "level_stats", "c_min", "argmin_cube",
                  "window_covers_s"):
        assert _exact(getattr(pruned, field)) == _exact(getattr(full, field))


def _counted_scan(monkeypatch, w, l_max, window):
    """The scan's calls of the exact kernel, on a stack or on one cube,
    and of the distance, each with the number of cells it was given."""
    calls = {"stack": [], "cube": [], "distance": []}
    integral = weights.weighted_cell_integral
    distance = weights.set_polygon_distance

    def counting_integral(w, cell, *args, **kwargs):
        if isinstance(cell, DyadicCube):
            calls["cube"].append(1)
        else:
            calls["stack"].append(len(cell))
        return integral(w, cell, *args, **kwargs)

    def counting_distance(target, polygons):
        calls["distance"].append(len(polygons))
        return distance(target, polygons)

    monkeypatch.setattr(weights, "weighted_cell_integral", counting_integral)
    monkeypatch.setattr(weights, "set_polygon_distance", counting_distance)
    return muckenhoupt_lower_bound_scan(w, l_max, window), calls


def test_scan_integrates_every_level_in_one_call(monkeypatch):
    w = WeightSpec(Polyline([(-1.0, 0.3), (1.0, 0.3)]), 0.5)
    result, calls = _counted_scan(monkeypatch, w, 5, (-1, -1, 1, 1))
    assert calls["stack"] == [len(result.rows)]
    assert calls["cube"] == []
    # one distance call per level, none for a skipped cube
    assert len(calls["distance"]) == 6


def test_scan_at_gamma_zero_measures_no_skipped_cube(monkeypatch):
    # every far bound is 1.0, so a skipped cube ties a minimum at most:
    # of the 1,402,193 cubes, only those with a parent near the set are
    # measured, one distance call per level
    w = WeightSpec(Polyline([(-1.0, 0.1), (1.0, 0.1)]), 0.0)
    result, calls = _counted_scan(monkeypatch, w, 8, (-2, -2, 2, 2))
    assert len(calls["distance"]) == 9
    assert sum(calls["distance"]) < 8_000
    assert calls["cube"] == []
    assert result.c_min == 1.0
