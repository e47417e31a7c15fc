"""Triangulation tests, checked against brute-force oracles and Qhull."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctosim.engine import SimConfig
from ctosim.geometry import (
    Point,
    TriangulationError,
    delaunay_triangulate,
    triangulation_edges,
)
from ctosim.world import MAX_VERTICES, generate_random_graph
from oracles import (
    convex_hull,
    delaunay_triangulate_brute_force,
    delaunay_violations,
    polygon_area,
    segments_cross,
    triangle_area,
)


def _random_points(rng: np.random.Generator, n: int) -> list[Point]:
    coords = rng.uniform(0.0, 150.0, size=(n, 2))
    return [Point(float(x), float(y)) for x, y in coords]


def _assert_edges_equal_qhull(n_vertices, seeds):
    spatial = pytest.importorskip("scipy.spatial")
    for seed in seeds:
        g = generate_random_graph(n_vertices, seed)
        qhull = {
            (min(u, v), max(u, v))
            for s in spatial.Delaunay(np.array(g.vertices)).simplices.tolist()
            for u, v in itertools.combinations(s, 2)
        }
        assert sorted(e[:2] for e in g.edges) == sorted(qhull), f"seed {seed}"


class TestDelaunayTriangulate:
    def test_too_few_points(self):
        with pytest.raises(TriangulationError):
            delaunay_triangulate([Point(0.0, 0.0), Point(1.0, 1.0)])

    def test_collinear_points(self):
        pts = [Point(float(i), float(2 * i)) for i in range(5)]
        with pytest.raises(TriangulationError):
            delaunay_triangulate(pts)

    def test_single_triangle(self):
        pts = [Point(0.0, 0.0), Point(10.0, 0.0), Point(0.0, 10.0)]
        tris = delaunay_triangulate(pts)
        assert len(tris) == 1
        assert set(tris[0]) == {0, 1, 2}

    def test_square_splits_into_two_triangles(self):
        # A square is cocircular: both diagonals are Delaunay, so it raises
        # rather than pick one. With one corner pulled in, the split is unique.
        square = [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 10.0), Point(0.0, 10.0)]
        with pytest.raises(TriangulationError):
            delaunay_triangulate(square)
        quad = square[:3] + [Point(0.0, 9.0)]
        tris = delaunay_triangulate(quad)
        assert len(tris) == 2
        edges = triangulation_edges(tris)
        assert len(edges) == 5  # four sides plus one diagonal
        assert (1, 3) in edges  # (0, 9) lies inside the circle through the other three

    @pytest.mark.parametrize("dy, diagonal", [(1e-9, (0, 2)), (-1e-9, (1, 3))])
    def test_nearly_cocircular_square_gets_the_delaunay_diagonal(self, dy, diagonal):
        # the fourth corner sits 1e-9 outside (dy > 0) or inside the circle
        pts = [Point(0.0, 0.0), Point(100.0, 0.0), Point(100.0, 100.0), Point(0.0, 100.0 + dy)]
        assert diagonal in triangulation_edges(delaunay_triangulate(pts))

    def test_empty_circumcircle_property(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            pts = _random_points(rng, int(rng.integers(4, 30)))
            tris = delaunay_triangulate(pts)
            raw = [(p.x, p.y) for p in pts]
            assert delaunay_violations(raw, tris) == [], f"trial {trial}"

    def test_no_edge_crossings(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            pts = _random_points(rng, 20)
            edges = triangulation_edges(delaunay_triangulate(pts))
            segs = [((pts[u].x, pts[u].y), (pts[v].x, pts[v].y)) for u, v in edges]
            for i in range(len(segs)):
                for j in range(i + 1, len(segs)):
                    assert not segments_cross(*segs[i], *segs[j])

    def test_triangle_count_matches_euler_formula(self):
        # A triangulation of n points with h of them on the convex hull has
        # T = 2n - 2 - h triangles; h comes from the independent hull oracle.
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = _random_points(rng, int(rng.integers(5, 40)))
            tris = delaunay_triangulate(pts)
            h = len(convex_hull([(p.x, p.y) for p in pts]))
            assert len(tris) == 2 * len(pts) - 2 - h

    def test_edges_equal_qhull_on_the_default_graph_stream(self):
        _assert_edges_equal_qhull(SimConfig().n_vertices, range(500))

    def test_edges_equal_qhull_at_the_vertex_cap(self):
        _assert_edges_equal_qhull(MAX_VERTICES, range(100))

    def test_traced_memory_at_the_vertex_cap_is_under_one_mib(self):
        # Gift wrapping holds O(n) per step and one (triangles x points)
        # plane test: about 0.5 MiB at 100 points, where every triple's
        # planes took 4.7 MiB.
        pts = np.random.default_rng(0).uniform(0.0, 150.0, size=(MAX_VERTICES, 2))
        delaunay_triangulate(pts)  # numpy's first-use allocations are not the function's
        tracemalloc.start()
        try:
            delaunay_triangulate(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_triangles_tile_the_convex_hull(self):
        rng = np.random.default_rng(11)
        pts = _random_points(rng, 25)
        tris = delaunay_triangulate(pts)
        raw = [(p.x, p.y) for p in pts]
        total = sum(triangle_area(raw[a], raw[b], raw[c]) for a, b, c in tris)
        hull_area = polygon_area(convex_hull(raw))
        assert math.isclose(total, hull_area, rel_tol=1e-9)

    def test_every_point_is_used(self):
        rng = np.random.default_rng(23)
        pts = _random_points(rng, 30)
        tris = delaunay_triangulate(pts)
        used = set()
        for t in tris:
            used.update(t)
        assert used == set(range(30))

    def test_deterministic_output(self):
        rng = np.random.default_rng(5)
        pts = _random_points(rng, 25)
        assert delaunay_triangulate(pts) == delaunay_triangulate(list(pts))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "pts",
        [
            [(0.0, 0.0), (10.0, 0.0), (float("nan"), 10.0)],
            [(0.0, 0.0), (10.0, 0.0), (0.0, float("inf"))],
            [(0.0, 0.0), (1e200, 0.0), (0.0, 1e200)],  # finite, but the lift overflows
            [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0), (0.0, 10.0, 0.0)],
            [(0.0,), (10.0,), (5.0,)],
            [(0.0, 0.0), (10.0,), (0.0, 10.0)],
            [(0.0, 0.0), (10.0, 0.0), (None, 10.0)],
        ],
        ids=["nan", "inf", "1e200", "3 coordinates", "1 coordinate", "ragged", "not a number"],
    )
    def test_rejects_points_that_are_not_finite_pairs(self, pts):
        # one error, raised before any triple is tested and without a numpy warning
        with pytest.raises(TriangulationError, match=r"^points must be finite \(x, y\) pairs small enough to lift$"):
            delaunay_triangulate(pts)


def _outcome(pts):
    try:
        return delaunay_triangulate(pts)
    except TriangulationError as exc:
        return str(exc)


def _fixed_cases():
    rng = np.random.default_rng(20)
    cases = [_random_points(rng, n) for n in [*range(3, 13), 15, 20, 25, 30, 40, 50, 60]]
    grid = [Point(float(x), float(y)) for x in range(5) for y in range(5)]
    collinear = [Point(float(i), float(3 * i)) for i in range(12)]
    repeat = [cases[7][0], *cases[7]]  # point 0 twice: no start edge of length 0
    return cases + [grid, collinear, repeat]


def _oracle_outcome(pts):
    try:
        return delaunay_triangulate_brute_force(pts)
    except ValueError as exc:
        return str(exc)


def test_equals_the_brute_force_oracle_on_fixed_cases():
    # Gift wrapping gives the oracle's triangles in the oracle's order, or
    # its error: the 5x5 grid's cocircular error, the collinear points'
    # failed Euler check, and the repeated point's triangles.
    cases = _fixed_cases()
    expected = [_outcome(pts) for pts in cases]
    assert "four points lie on one circle within rounding error" in expected
    assert "points are collinear or too close to it to triangulate" in expected
    assert [_oracle_outcome(pts) for pts in cases] == expected


def _lattice_points(rng):
    # A square lattice, scaled, turned and moved: its centred coordinates
    # are rounded, so collinear rows and cocircular squares are only so
    # within rounding.
    side, spacing = int(rng.integers(2, 7)), rng.uniform(0.5, 30.0)
    turn = rng.uniform(0.0, 2.0 * math.pi)
    u, v = np.divmod(np.arange(side * side), side)
    x = rng.uniform(0.0, 150.0) + spacing * (u * math.cos(turn) - v * math.sin(turn))
    y = rng.uniform(0.0, 150.0) + spacing * (u * math.sin(turn) + v * math.cos(turn))
    return np.column_stack([x, y])


def _lattice(rng):
    grid = _lattice_points(rng)
    return grid[rng.permutation(len(grid))[: int(rng.integers(3, len(grid) + 1))]].tolist()


def _jittered_lattice(rng):
    grid = _lattice_points(rng)
    return (grid + 10.0 ** rng.uniform(-14.0, -4.0) * rng.uniform(-1.0, 1.0, grid.shape)).tolist()


def _near_cocircular(rng):
    k = int(rng.integers(4, 16))
    cx, cy = rng.uniform(0.0, 150.0, 2)
    radius = rng.uniform(1.0, 75.0) * (1.0 + 10.0 ** rng.uniform(-16.0, -3.0) * rng.uniform(-1.0, 1.0, k))
    angle = rng.uniform(0.0, 2.0 * math.pi, k)
    ring = list(zip((cx + radius * np.cos(angle)).tolist(), (cy + radius * np.sin(angle)).tolist()))
    return ring + rng.uniform(0.0, 150.0, (int(rng.integers(0, 4)), 2)).tolist()


def _near_collinear(rng):
    k = int(rng.integers(3, 16))
    along = rng.uniform(-50.0, 50.0, k)
    off = 10.0 ** rng.uniform(-16.0, -2.0) * rng.uniform(-1.0, 1.0, k)
    (x0, y0), (dx, dy) = rng.uniform(0.0, 150.0, 2), rng.normal(size=2)
    return list(zip((x0 + along * dx - off * dy).tolist(), (y0 + along * dy + off * dx).tolist()))


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([_lattice, _jittered_lattice, _near_cocircular, _near_collinear]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_equals_the_brute_force_oracle_on_degenerate_draws(make, seed):
    # Equal outcomes, with one exception: on near-collinear points both may
    # raise with different messages. Inside the rounding band the oracle can
    # find a fourth point on the circle of a triple that is no triangle of
    # the answer, which gift wrapping never tests, and then reports a circle
    # where gift wrapping reports the missing triangles.
    pts = make(np.random.default_rng(seed))
    got, want = _outcome(pts), _oracle_outcome(pts)
    if make is _near_collinear and isinstance(got, str) and isinstance(want, str):
        return
    assert got == want


def test_triangulation_edges_sorted_unique():
    tris = [(2, 0, 1), (1, 2, 3)]
    assert triangulation_edges(tris) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=4, max_value=18))
def test_triangulation_is_planar_and_delaunay(seed, n):
    rng = np.random.default_rng(seed)
    pts = _random_points(rng, n)
    tris = delaunay_triangulate(pts)
    raw = [(p.x, p.y) for p in pts]
    assert delaunay_violations(raw, tris) == []
    edges = triangulation_edges(tris)
    segs = [(raw[u], raw[v]) for u, v in edges]
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            assert not segments_cross(*segs[i], *segs[j])
