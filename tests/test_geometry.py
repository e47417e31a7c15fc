"""Triangulation and predicate tests, checked against brute-force oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctosim.geometry import (
    Point,
    Triangle,
    TriangulationError,
    circumcircle_contains,
    delaunay_triangulate,
    distance,
    triangulation_edges,
)
from oracles import (
    convex_hull,
    delaunay_violations,
    polygon_area,
    segments_cross,
    triangle_area,
)


def test_distance_3_4_5():
    assert distance(Point(0.0, 0.0), Point(3.0, 4.0)) == 5.0
    assert distance(Point(2.0, 2.0), Point(2.0, 2.0)) == 0.0


def test_distance_symmetry():
    p, q = Point(1.5, -2.0), Point(-7.25, 3.0)
    assert distance(p, q) == distance(q, p)


class TestCircumcirclePredicate:
    # Right triangle (0,0) (10,0) (0,10): circumcenter (5,5), radius sqrt(50).
    tri = Triangle(0, 1, 2)
    pts = [Point(0.0, 0.0), Point(10.0, 0.0), Point(0.0, 10.0)]

    def test_point_inside(self):
        assert circumcircle_contains(self.tri, self.pts, Point(5.0, 5.0))

    def test_point_outside(self):
        assert not circumcircle_contains(self.tri, self.pts, Point(30.0, 30.0))

    def test_point_on_circle_is_not_inside(self):
        # (10, 10) is exactly on the circle; containment is strict.
        assert not circumcircle_contains(self.tri, self.pts, Point(10.0, 10.0))

    def test_orientation_does_not_matter(self):
        clockwise = [Point(0.0, 0.0), Point(0.0, 10.0), Point(10.0, 0.0)]
        assert circumcircle_contains(self.tri, clockwise, Point(5.0, 5.0))
        assert not circumcircle_contains(self.tri, clockwise, Point(10.0, 10.0))

    def test_degenerate_triangle_rejected(self):
        flat = [Point(0.0, 0.0), Point(5.0, 0.0), Point(10.0, 0.0)]
        with pytest.raises(ValueError):
            circumcircle_contains(self.tri, flat, Point(1.0, 1.0))

    def test_agrees_with_center_radius_oracle(self):
        rng = np.random.default_rng(7)
        agree = 0
        for _ in range(300):
            coords = rng.uniform(0.0, 100.0, size=(4, 2))
            pts = [Point(float(x), float(y)) for x, y in coords]
            try:
                import oracles

                cx, cy, r2 = oracles.circumcircle_center(
                    tuple(pts[0]), tuple(pts[1]), tuple(pts[2])
                )
            except ValueError:
                continue
            d2 = (pts[3].x - cx) ** 2 + (pts[3].y - cy) ** 2
            if abs(d2 - r2) < 1e-6 * max(r2, 1.0):
                continue  # too close to the boundary to compare meaningfully
            expected = d2 < r2
            got = circumcircle_contains(Triangle(0, 1, 2), pts, pts[3])
            assert got == expected
            agree += 1
        assert agree > 250  # the filter should discard almost nothing


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
        pts = [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 10.0), Point(0.0, 10.0)]
        tris = delaunay_triangulate(pts)
        assert len(tris) == 2
        edges = triangulation_edges(tris)
        assert len(edges) == 5  # four sides plus one diagonal

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
        # With b = number of boundary edges (edges used by exactly one
        # triangle), a triangulated disc satisfies T = 2n - 2 - b.
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = _random_points(rng, int(rng.integers(5, 40)))
            tris = delaunay_triangulate(pts)
            usage: dict[tuple[int, int], int] = {}
            for t in tris:
                i, j, k = t
                for u, v in ((i, j), (j, k), (i, k)):
                    key = (min(u, v), max(u, v))
                    usage[key] = usage.get(key, 0) + 1
            assert set(usage.values()) <= {1, 2}  # an edge borders at most 2 faces
            boundary = sum(1 for n_faces in usage.values() if n_faces == 1)
            assert len(tris) == 2 * len(pts) - 2 - boundary

    def test_triangles_tile_the_convex_hull(self):
        rng = np.random.default_rng(11)
        pts = _random_points(rng, 25)
        tris = delaunay_triangulate(pts)
        raw = [(p.x, p.y) for p in pts]
        total = sum(triangle_area(raw[t.a], raw[t.b], raw[t.c]) for t in tris)
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


def test_triangulation_edges_sorted_unique():
    tris = [Triangle(2, 0, 1), Triangle(1, 2, 3)]
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
