import time

import numpy as np
import pytest

import formheat.weights as weights
from oracles import adaptive_line_integral_loop, grid_richardson_box
from formheat.errors import QuadratureAccuracyError, SizeLimitError
from formheat.geometry import Points, Polyline
from formheat.model_problems import standard_fixture_mesh
from formheat.weights import (DyadicCube, WeightSpec, adaptive_line_integral,
                              adaptive_triangles_integral, classify_case,
                              muckenhoupt_lower_bound_scan,
                              weighted_cell_integral)
from formheat.weights import _wedges

SQRT2_THIRD = np.sqrt(2.0) / 3.0
# frozen from the Richardson-extrapolated midpoint-grid oracle (n0 = 200)
POINT_G1_CUBE = 0.3825978584650808


def test_weight_eval_examples():
    w0 = WeightSpec(Points((0.3, 0.7)), 0.0)
    assert w0.eval((10.0, -3.0)) == 1.0
    w1 = WeightSpec(Points((0.0, 0.0)), 1.0)
    assert w1.eval((3.0, 4.0)) == pytest.approx(5.0)
    w2 = WeightSpec(Polyline([(-1.0, 0.0), (1.0, 0.0)]), 0.5)
    assert w2.eval((0.3, 0.09)) == pytest.approx(0.3)


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(Points((0, 0)), -0.5)
    assert WeightSpec(Points((0, 0)), 1.5).outside_theory is False
    assert WeightSpec(Points((0, 0)), 2.0).outside_theory is True
    assert WeightSpec(Polyline([(0, 0), (1, 0)]), 1.5).outside_theory is True


def test_cell_integral_gamma_zero_is_area():
    w = WeightSpec(Points((0.0, 0.0)), 0.0)
    tri = np.array([[0, 0], [2, 0], [0, 1.0]])
    assert weighted_cell_integral(w, tri) == pytest.approx(1.0, abs=1e-15)
    assert weighted_cell_integral(w, DyadicCube(2, 1, 1)) == pytest.approx(
        2.0 ** -4, abs=1e-18)


def test_cell_integral_segment_closed_form():
    w = WeightSpec(Polyline([(-2.0, 0.0), (2.0, 0.0)]), 0.5)
    val = weighted_cell_integral(w, DyadicCube(0, 0, 0))
    assert val == pytest.approx(SQRT2_THIRD, rel=1e-13)


def test_cell_integral_point_vs_bruteforce():
    w = WeightSpec(Points((0.0, 0.0)), 1.0)
    val = weighted_cell_integral(w, DyadicCube(0, 0, 0))
    assert val == pytest.approx(POINT_G1_CUBE, rel=1e-6)
    # the oracle itself, re-run at runtime
    oracle = grid_richardson_box(w.eval, (-0.5, -0.5, 0.5, 0.5), n0=200)
    assert val == pytest.approx(oracle, rel=1e-6)


def test_adaptive_budget_error_reports_tolerance():
    w = WeightSpec(Polyline([(-0.5, -0.2), (0.0, 0.0), (0.4, 0.3)]), 0.5)
    tri = np.array([[-0.5, -0.5], [0.5, -0.5], [0.0, 0.5]])
    with pytest.raises(QuadratureAccuracyError) as err:
        adaptive_triangles_integral(w.eval, tri[None], tol_rel=1e-12,
                                    max_cells=64, weight_fn=w.eval)
    assert err.value.achieved_tol is not None


def test_scaling_law():
    # integral over Q(c, r) with the set through c scales like r^(d+gamma)
    for w, center in ((WeightSpec(Polyline([(-3, 0), (3, 0)]), 0.5), (0.0, 0.0)),
                      (WeightSpec(Points((0.2, 0.1)), 1.0), (0.2, 0.1))):
        r = 1.0
        prev = None
        for _ in range(5):
            half = 0.5 * r
            poly = np.array([[center[0] - half, center[1] - half],
                             [center[0] + half, center[1] - half],
                             [center[0] + half, center[1] + half],
                             [center[0] - half, center[1] + half]])
            val = weighted_cell_integral(w, poly)
            if prev is not None:
                ratio = val / prev
                assert ratio == pytest.approx(2.0 ** -(2 + w.gamma), rel=0.01)
            prev = val
            r = half


def test_monotone_in_gamma():
    target = Polyline([(-1.0, 0.0), (1.0, 0.0)])
    cube = DyadicCube(1, 0, 0)  # inside the unit-distance tube
    vals = [weighted_cell_integral(WeightSpec(target, g), cube)
            for g in (0.1, 0.3, 0.5, 0.8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_weight_continuity():
    rng = np.random.default_rng(5)
    for gamma in (0.4, 1.0, 1.6):
        w = WeightSpec(Points((0.0, 0.0)), gamma)
        xs = rng.uniform(-2, 2, size=(200, 2))
        ys = xs + rng.uniform(-0.3, 0.3, size=(200, 2))
        dist_cap = float(max(w.s.distance(xs).max(), w.s.distance(ys).max()))
        if gamma <= 1.0:
            lip = 1.0
            exponent = gamma
        else:
            lip = gamma * dist_cap ** (gamma - 1.0)
            exponent = 1.0
        gap = np.abs(w.eval(xs) - w.eval(ys))
        step = np.linalg.norm(xs - ys, axis=1) ** exponent
        assert np.all(gap <= lip * step * (1 + 1e-12) + 1e-12)


def test_scan_gamma_zero_is_one():
    w = WeightSpec(Points((0.0, 0.0)), 0.0)
    result = muckenhoupt_lower_bound_scan(w, 3, (-1, -1, 1, 1))
    assert result.c_min == pytest.approx(1.0, abs=1e-14)
    for stats in result.level_stats:
        assert stats["min"] == pytest.approx(1.0, abs=1e-14)


def test_scan_segment_on_set_value_level_free():
    w = WeightSpec(Polyline([(-1.0, 0.0), (1.0, 0.0)]), 0.5)
    result = muckenhoupt_lower_bound_scan(w, 4, (-1, -1, 1, 1))
    for stats in result.level_stats:
        assert stats["min_on_s"] == pytest.approx(SQRT2_THIRD, rel=1e-10)
    assert result.window_covers_s


def test_scan_point_level_agreement():
    w = WeightSpec(Points((0.0, 0.0)), 1.0)
    result = muckenhoupt_lower_bound_scan(w, 6, (-1, -1, 1, 1))
    on_s = [s["min_on_s"] for s in result.level_stats]
    assert all(v is not None for v in on_s)
    base = on_s[0]
    for v in on_s[1:]:
        assert abs(v - base) <= 1e-3 * base
    assert result.c_min > 0
    assert result.argmin_cube is not None


def test_scan_window_warning():
    w = WeightSpec(Points((5.0, 5.0)), 1.0)
    result = muckenhoupt_lower_bound_scan(w, 2, (-1, -1, 1, 1))
    assert not result.window_covers_s
    assert result.warning is not None


def test_scan_integrates_only_the_cubes_it_reports(monkeypatch):
    # with the window far from the set every cube is deferred; a deferred
    # cube is integrated only while its bound undercuts the running
    # minimum, and every integrated cube is a row
    cells = []
    integral = weights.weighted_cell_integral

    def counting(w, cell, *args, **kwargs):
        cells.append(1 if isinstance(cell, DyadicCube) else len(cell))
        return integral(w, cell, *args, **kwargs)

    monkeypatch.setattr(weights, "weighted_cell_integral", counting)
    w = WeightSpec(Points((5.0, 5.0)), 1.0)
    result = muckenhoupt_lower_bound_scan(w, 2, (-1, -1, 1, 1))
    assert sum(cells) == len(result.rows)
    assert 0 < len(result.rows) < 9 + 25 + 81


def test_scan_window_limits_the_finest_level():
    # 1025 x 1025 cubes on level 8 is the limit; one more row is refused
    assert weights._scan_window(8, (-2, -2, 2, 2)) == (-2.0, -2.0, 2.0, 2.0)
    with pytest.raises(SizeLimitError, match="level 8 has 1051650"):
        weights._scan_window(8, (-2, -2, 2, 2.003))


@pytest.mark.parametrize("s, gamma, l_max, most", [
    # every cube of levels 0..8 is 351,577 polygons; about 7,200 have a
    # parent near the set or a bound that could set a minimum
    (Polyline([(-1.0, 0.1), (1.0, 0.1)]), 0.5, 8, 8_000),
    # a window that misses the set measures every cube of levels 0..4
    (Points((5.0, 5.0)), 1.0, 4, 9 + 25 + 81 + 289 + 1089),
], ids=["holds-set", "misses-set"])
def test_scan_measures_each_cube_at_most_once(monkeypatch, s, gamma, l_max,
                                              most):
    stacks = []
    distance = weights.set_polygon_distance

    def counting(target, polygons):
        stacks.append(np.array(polygons))
        return distance(target, polygons)

    monkeypatch.setattr(weights, "set_polygon_distance", counting)
    muckenhoupt_lower_bound_scan(WeightSpec(s, gamma), l_max, (-1, -1, 1, 1))
    # opposite corners name a cube, whatever its level
    corners = np.concatenate(stacks)[:, [0, 2]].reshape(-1, 4)
    assert len(corners) <= most
    assert len(np.unique(corners, axis=0)) == len(corners)

def test_dyadic_cube_fields():
    cube = DyadicCube(3, -2, 5)
    assert cube.edge == pytest.approx(2.0 ** -3)
    assert cube.volume == pytest.approx(2.0 ** -6)
    assert np.allclose(cube.center, [-2 / 8, 5 / 8])
    poly = cube.polygon()
    assert poly.shape == (4, 2)


def test_classify_case_examples():
    mesh = standard_fixture_mesh(8)
    assert classify_case(WeightSpec(Points((0.5, 0.5)), 0.0), mesh).case \
        == "nondegenerate"

    # point at the domain center:  interface at y = 1/2 passes through it,
    # so move the probe point off the interface for the case-A example
    report = classify_case(WeightSpec(Points((0.5, 0.25)), 1.0), mesh)
    assert report.case == "A"
    assert not report.outside_theory

    inside = classify_case(
        WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5), mesh)
    assert inside.case == "B"
    assert not inside.outside_theory

    flagged = classify_case(
        WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 1.2), mesh)
    assert flagged.case == "B"
    assert flagged.outside_theory


def test_near_collinear_wedge():
    # The right end cap of this cell, split into a fan about the segment
    # end (0.9, 0.7), holds a sliver whose apex lies ~1e-16 off the line
    # through its far edge, so the wedge substitution reaches |t| ~ 8e13.
    w = WeightSpec(Polyline([(0.1, 0.2), (0.9, 0.7)]), 0.5)
    tri = np.array([[0.75, 0.625], [0.875, 0.625], [0.875, 0.75]])
    start = time.perf_counter()
    value = weighted_cell_integral(w, tri)
    assert time.perf_counter() - start < 5.0
    reference, _ = adaptive_triangles_integral(w.eval, tri[None],
                                               tol_rel=1e-6)
    assert value == pytest.approx(reference, rel=1e-6)

    apex = np.array([[0.9, 0.7]])
    a = np.array([[0.8711538461538462, 0.7461538461538462]])
    b = np.array([[0.875, 0.7399999999999999]])
    sliver, backwards = _wedges(np.vstack([apex, apex]), np.vstack([a, b]),
                                np.vstack([b, a]), 0.5)
    assert sliver == -backwards
    u, v = a[0] - apex[0], b[0] - apex[0]
    area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
    reach = max(np.linalg.norm(u), np.linalg.norm(v))
    assert 0.0 < sliver <= area * reach ** 0.5 * (1 + 1e-6)


@pytest.mark.parametrize("target", [
    Polyline([(0.0, 0.5), (1.0, 0.5)]), Polyline([(0.1, 0.2), (0.9, 0.7)]),
    Points((0.3, 0.6)), Points([(0.3, 0.6), (0.71, 0.45)])])
def test_stack_matches_single_cells(target):
    # one call over a stack rounds as one call per cell does, for cells
    # of either orientation, and for triangles and cubes alike
    mesh = standard_fixture_mesh(8)
    tris = mesh.vertices[mesh.triangles]
    tris[::3] = tris[::3, ::-1]
    cubes = np.array([DyadicCube(3, mx, my).polygon()
                      for mx in range(-1, 9) for my in range(-1, 9)])
    # the scan integrates the near cubes of every level in one stack:
    # cubes of levels 0..8 holding the targets' vertices, with the
    # triangles as quadrilaterals whose last vertex repeats
    vertices = [(0.0, 0.5), (0.1, 0.2), (0.9, 0.7), (0.3, 0.6), (0.71, 0.45)]
    levels = np.array([
        DyadicCube(level, *(int(round(c * 2 ** level)) for c in p)).polygon()
        for level in range(9) for p in vertices])
    quads = np.concatenate([tris, tris[:, -1:]], axis=1)
    mixed = np.concatenate([levels, quads])
    for gamma in (0.0, 0.5, 1.5):
        w = WeightSpec(target, gamma)
        for cells in (tris, cubes, mixed):
            stacked = weighted_cell_integral(w, cells)
            single = [weighted_cell_integral(w, cell) for cell in cells]
            assert stacked.shape == (len(cells),)
            assert np.array_equal(stacked, single)


def test_stack_of_no_cells():
    w = WeightSpec(Polyline([(0.0, 0.5), (1.0, 0.5)]), 0.5)
    assert weighted_cell_integral(w, np.zeros((0, 3, 2))).shape == (0,)


def _distance_power(p, gamma):
    return lambda x, rows: np.sqrt(np.vecdot(x - p, x - p)) ** gamma


def test_line_stack_matches_single_segments():
    # one call over a stack of segments rounds as one call per segment,
    # and as the depth-first loop, for segments that start at, end at,
    # pass through or miss the point
    rng = np.random.default_rng(3)
    p = np.array([0.3, 0.6])
    p0 = rng.uniform(-1.0, 1.0, (60, 2))
    p1 = rng.uniform(-1.0, 1.0, (60, 2))
    p0[:10] = p
    p1[10:20] = p
    p1[20:30] = 2.0 * p - p0[20:30]
    for gamma in (0.25, 0.5, 0.7, 1.0, 1.5):
        f = _distance_power(p, gamma)
        values, errors = adaptive_line_integral(f, p0, p1, tol_rel=1e-12)
        single = [adaptive_line_integral(f, a, b, tol_rel=1e-12)
                  for a, b in zip(p0, p1)]
        assert values.shape == errors.shape == (60,)
        assert all(type(v) is float for v in single[0])
        assert np.array_equal(values, [v for v, _ in single])
        assert np.array_equal(errors, [e for _, e in single])
        loop = [adaptive_line_integral_loop(lambda x: f(x, None), a, b, 1e-12)
                for a, b in zip(p0, p1)]
        assert single == loop


def test_line_integral_keeps_a_non_finite_piece_whole():
    # infinite on a stretch of the segment: a piece there has a
    # non-finite estimate however fine it gets, so it is not split
    calls = []

    def f(points, rows):
        calls.append(len(points))
        return np.where(np.abs(points[:, 0] - 0.5) < 0.1, np.inf, 1.0)

    value, _ = adaptive_line_integral(f, np.array([0.0, 0.0]),
                                      np.array([1.0, 0.0]))
    assert value == np.inf
    assert len(calls) <= 3


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_line_integral_closed_forms(gamma):
    # |x - p|^gamma along a line at distance d from p, with s the signed
    # arc length from the foot of the perpendicular
    p = np.array([0.3, 0.6])
    p0 = np.array([[0.0, 0.0], [1.0, 1.0], [-0.5, 0.6], [0.3, 0.0]])
    p1 = np.array([[1.0, 0.2], [0.0, 1.0], [1.5, 0.9], [0.9, 0.55]])
    values, _ = adaptive_line_integral(_distance_power(p, gamma), p0, p1,
                                       tol_rel=1e-12)
    tangent = (p1 - p0) / np.linalg.norm(p1 - p0, axis=1)[:, None]
    s0 = np.vecdot(p0 - p, tangent)
    s1 = np.vecdot(p1 - p, tangent)
    d = np.abs(tangent[:, 0] * (p0 - p)[:, 1] - tangent[:, 1] * (p0 - p)[:, 0])
    if gamma == 1.0:
        def primitive(s):
            return 0.5 * (s * np.sqrt(d * d + s * s) + d * d * np.arcsinh(s / d))
    else:
        def primitive(s):
            return d * d * s + s ** 3 / 3.0
    exact = primitive(s1) - primitive(s0)
    assert np.all(np.abs(values - exact) <= 1e-12 * np.abs(exact))
