"""Triangulation tests, checked against brute-force oracles and Qhull."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctosim.geometry as geometry
from ctosim.engine import SimConfig
from ctosim.geometry import (
    Point,
    TriangulationError,
    delaunay_triangulate,
    triangulation_edges,
)
from ctosim.world import generate_random_graph
from oracles import (
    convex_hull,
    delaunay_violations,
    polygon_area,
    segments_cross,
    triangle_area,
)


def _random_points(rng: np.random.Generator, n: int) -> list[Point]:
    coords = rng.uniform(0.0, 150.0, size=(n, 2))
    return [Point(float(x), float(y)) for x, y in coords]


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
        spatial = pytest.importorskip("scipy.spatial")
        n_vertices = SimConfig().n_vertices
        for seed in range(500):
            g = generate_random_graph(n_vertices, seed)
            qhull = {
                (min(u, v), max(u, v))
                for s in spatial.Delaunay(np.array(g.vertices)).simplices.tolist()
                for u, v in itertools.combinations(s, 2)
            }
            assert sorted(e[:2] for e in g.edges) == sorted(qhull), f"seed {seed}"

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


def _block_cases():
    rng = np.random.default_rng(20)
    cases = [_random_points(rng, n) for n in [*range(3, 13), 15, 20, 25, 30, 40, 50, 60]]
    grid = [Point(float(x), float(y)) for x in range(5) for y in range(5)]
    collinear = [Point(float(i), float(3 * i)) for i in range(12)]
    return cases + [grid, collinear]


@pytest.mark.parametrize("block", [1, 7, math.comb(60, 3) + 1])
def test_blocks_of_triples_do_not_change_the_result(monkeypatch, block):
    # Every test is per triple and the blocks run in index order, so the
    # block size changes neither the triangles, nor their order, nor the
    # error. On the 5x5 grid the cocircular error comes from a later block
    # than the first; collinear points fail the final Euler check.
    cases = _block_cases()
    expected = [_outcome(pts) for pts in cases]
    assert "four points lie on one circle within rounding error" in expected
    assert "points are collinear or too close to it to triangulate" in expected
    monkeypatch.setattr(geometry, "TRIPLE_BLOCK", block)
    for pts, want in zip(cases, expected):
        if math.comb(len(pts), 3) > 5000 * block:
            continue  # thousands of blocks cost seconds
        assert _outcome(pts) == want, f"n={len(pts)}"


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
