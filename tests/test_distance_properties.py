"""Property test of the batched cube-set distance against dense sampling
of the exact point-to-polyline distance."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from formheat.geometry import Polyline
from formheat.geometry.distance import set_polygon_distance

_coord = st.floats(-2.0, 2.0)
_size = st.floats(0.05, 1.5)
_N = 41            # samples per box side


@settings(max_examples=60, deadline=None, derandomize=True)
@given(boxes=st.lists(st.tuples(_coord, _coord, _size, _size),
                      min_size=1, max_size=5),
       p0=st.tuples(_coord, _coord), p1=st.tuples(_coord, _coord))
def test_set_polygon_distance_matches_sampling(boxes, p0, p1):
    assume(np.hypot(p1[0] - p0[0], p1[1] - p0[1]) > 1e-3)
    segment = Polyline([p0, p1])
    polygons = np.array([[(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
                         for x, y, w, h in boxes])
    dist = set_polygon_distance(segment, polygons)
    for (x, y, w, h), value in zip(boxes, dist):
        # every point of the box lies within `spacing` of a sample
        spacing = np.hypot(w, h) / (_N - 1)
        gx, gy = np.meshgrid(np.linspace(x, x + w, _N),
                             np.linspace(y, y + h, _N))
        sampled = segment.distance(np.stack([gx, gy], axis=-1)).min()
        if value == 0.0:
            assert sampled <= spacing
        else:
            assert sampled - spacing <= value <= sampled * (1.0 + 1e-12)
