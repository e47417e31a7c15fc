"""Planar geometry primitives and Delaunay triangulation.

The triangulation is the exact Delaunay triangulation, found by testing
every triple of points for an empty circumcircle through the lifting map. It
is built for the modest point counts the simulator needs (tens of vertices)
and is verified against brute-force empty-circumcircle and
segment-intersection oracles, and against Qhull, in the test suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np


class Point(NamedTuple):
    """A position in the plane, in arena length units."""

    x: float
    y: float


class TriangulationError(ValueError):
    """The input point set has no valid triangulation."""


# Triples whose planes delaunay_triangulate tests at once, at about 200
# bytes of working arrays each. At this size a 40-point build (9880
# triples, three blocks) peaks at 1.07 MB traced against 1.75 MB for one
# block, and its median time rose 0.19 ms, from 2.83 ms (2-core VM).
TRIPLE_BLOCK = 4096

_BAD_POINTS = "points must be finite (x, y) pairs small enough to lift"


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def delaunay_triangulate(points: Sequence[Point]) -> list[tuple[int, int, int]]:
    """Delaunay triangulation of a point set, by brute force over all triples.

    The lifting map (x, y) -> (x, y, x² + y²) turns "no point strictly inside
    the circumcircle of a, b, c" into "no lifted point strictly below the
    plane through the lifted a, b, c" (de Berg et al., Computational
    Geometry, 3rd ed., ch. 9), so every triple passing that test is a
    Delaunay triangle. The work is O(n⁴) in time. In memory it is the
    O(n³) triple indices plus one block of at most TRIPLE_BLOCK triples'
    planes: the test runs block by block, in index order.

    Returns triangles as ascending index triples into ``points``. Raises
    TriangulationError for fewer than three points, for points that are not
    finite (x, y) pairs small enough to lift, and for inputs whose
    triangulation is not unique within rounding error: all points
    collinear, a repeated point, or four points on (or within rounding of)
    one circle.
    """
    n = len(points)
    if n < 3:
        raise TriangulationError(f"need at least 3 points, got {n}")
    try:
        xy = np.asarray(points, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        xy = None
    if xy is None or xy.shape != (n, 2):
        raise TriangulationError(_BAD_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        xy = xy - xy.mean(axis=0)
        lifted = np.column_stack([xy, (xy * xy).sum(axis=1)])
        # Rounding bound. Every centred, lifted coordinate c is at most M_c in
        # size, and M_z >= M_x², M_y². Charging each rounding in the centring,
        # the lift, the differences, the cross product and the two dot products
        # u = 2⁻⁵³ times the largest product it can touch, and summing, gives
        # under 800 u Π for normal @ q - offset (Π = M_x M_y M_z) and under
        # 50 u M_x M_y for normal[:, 2]; the tolerances round up to 2¹⁰ and 2⁶.
        m = np.abs(lifted).max(axis=0)
        u = 2.0**-53
        tol = 2**10 * u * m.prod()
    if not np.isfinite(tol):  # a nan or inf coordinate, or a lift that overflows
        raise TriangulationError(_BAD_POINTS)
    flat = 2**6 * u * m[0] * m[1]
    below = np.tri(n, k=-1, dtype=bool)
    every_i, every_j, every_k = np.nonzero(below[:, :, None] & below[None])  # every i > j > k
    triangles = []
    for start in range(0, len(every_i), TRIPLE_BLOCK):
        block = slice(start, start + TRIPLE_BLOCK)
        i, j, k = every_i[block], every_j[block], every_k[block]
        a = lifted[i]
        normal = np.cross(lifted[j] - a, lifted[k] - a)
        normal[normal[:, 2] < 0.0] *= -1.0  # z points up
        offset = np.einsum("ij,ij->i", normal, a)
        empty = normal[:, 2] > flat  # flat triples are no triangles
        touching = np.zeros(len(i), dtype=np.int64)
        for q in lifted:
            side = normal @ q - offset
            empty &= side >= -tol
            touching += side <= tol
        # A kept triple's own corners lie within tol of its plane; a fourth
        # point there could lie on either side, and so could the diagonal it
        # implies.
        if np.any(touching[empty] > 3):
            raise TriangulationError("four points lie on one circle within rounding error")
        triangles.extend(zip(k[empty].tolist(), j[empty].tolist(), i[empty].tolist()))
    # A triangulated disc has V - E + T = 1; a hole left by a flat triple
    # that was a Delaunay triangle breaks it.
    if n - len(triangulation_edges(triangles)) + len(triangles) != 1:
        raise TriangulationError("points are collinear or too close to it to triangulate")
    return triangles


def triangulation_edges(triangles: Sequence[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Sorted unique undirected edges (u < v) of a triangle set."""
    edges = set()
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)
