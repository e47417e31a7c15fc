"""Planar geometry primitives and Delaunay triangulation.

The triangulation is the exact Delaunay triangulation, found by gift
wrapping and then checked, triangle by triangle, for an empty circumcircle
through the lifting map. It is verified against a brute-force triangulation
over all triples, empty-circumcircle and segment-intersection oracles, and
Qhull, in the test suite.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np


class Point(NamedTuple):
    """A position in the plane, in arena length units."""

    x: float
    y: float


class TriangulationError(ValueError):
    """The input point set has no valid triangulation."""


_BAD_POINTS = "points must be finite (x, y) pairs small enough to lift"


def delaunay_triangulate(points: Sequence[Point]) -> list[tuple[int, int, int]]:
    """Delaunay triangulation of a point set, by gift wrapping.

    From the edge between point 0 and its nearest neighbour, always a
    Delaunay edge, each directed edge a→b with no triangle yet on its left
    takes as apex the point c on its left that minimises cot∠acb: Chand and
    Kapur's gift wrapping in the plane, O(n) numpy work per triangle. An
    edge with no point on its left is a hull edge.

    The walk is not trusted. The lifting map (x, y) -> (x, y, x² + y²) turns
    "no point strictly inside the circumcircle of a, b, c" into "no lifted
    point strictly below the plane through the lifted a, b, c" (de Berg et
    al., Computational Geometry, 3rd ed., ch. 9). Every triangle found is
    tested so against all points, within a rounding bound, and the
    triangles must tile: none overlap, every point is used, V - E + T = 1.

    Returns triangles as ascending index triples into ``points``, sorted by
    their largest index, then the middle one, then the smallest. Raises
    TriangulationError for fewer than three points, for points that are not
    finite (x, y) pairs small enough to lift, and for inputs whose
    triangulation is not unique within rounding error: all points
    collinear, a repeated point, or four points on (or within rounding of)
    one circle. Near a line, an input that a test of every triple rejects
    for a circle may be rejected here for the line.
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
        # under 800 u Π for normal·q - offset (Π = M_x M_y M_z) and under
        # 50 u M_x M_y for a cross product of differences; the tolerances
        # round up to 2¹⁰ and 2⁶.
        m = np.abs(lifted).max(axis=0)
        u = 2.0**-53
        tol = 2**10 * u * m.prod()
    if not np.isfinite(tol):  # a nan or inf coordinate, or a lift that overflows
        raise TriangulationError(_BAD_POINTS)
    flat = 2**6 * u * m[0] * m[1]
    x, y = xy.T
    xs, ys = xy.T.tolist()
    gap = (x - xs[0]) ** 2 + (y - ys[0]) ** 2
    first = int(np.where(gap > 0.0, gap, np.inf).argmin())  # not point 0, nor a repeat of it
    walk = []  # (a, b, c), each counterclockwise
    done = set()  # directed edges with a triangle on their left
    todo = [(0, first), (first, 0)]
    while todo:
        a, b = todo.pop()
        if (a, b) in done:
            continue
        ax, ay = x - xs[a], y - ys[a]
        bx, by = x - xs[b], y - ys[b]
        cross = ax * by - ay * bx  # (c - a) × (c - b), > 0 left of a→b
        (left,) = (cross > flat).nonzero()
        if not len(left):
            continue  # a hull edge
        c = int(left[((ax[left] * bx[left] + ay[left] * by[left]) / cross[left]).argmin()])
        walk.append((a, b, c))
        done.update(((a, b), (b, c), (c, a)))
        todo += ((c, b), (a, c))
    ijk = sorted(tuple(sorted(t, reverse=True)) for t in walk)  # i > j > k, sorted by i, then j, then k
    i, j, k = np.array(ijk, dtype=np.intp).reshape(-1, 3).T
    # The plane test, per triangle, against every lifted point.
    a = lifted[i].T
    d, e = lifted[j].T - a, lifted[k].T - a
    normal = np.array([d[1] * e[2] - d[2] * e[1], d[2] * e[0] - d[0] * e[2], d[0] * e[1] - d[1] * e[0]])
    normal[:, normal[2] < 0.0] *= -1.0  # z points up
    offset = normal[0] * a[0] + normal[1] * a[1] + normal[2] * a[2]
    nx, ny, nz = normal[:, :, None]  # a row per triangle, a column per point
    side = nx * lifted[:, 0] + ny * lifted[:, 1] + nz * lifted[:, 2] - offset[:, None]
    empty = (normal[2] > flat) & (side >= -tol).all(axis=1)
    # A triangle's own corners lie within tol of its plane; a fourth point
    # there could lie on either side, and so could the diagonal it implies.
    if np.any((side <= tol).sum(axis=1)[empty] > 3):
        raise TriangulationError("four points lie on one circle within rounding error")
    triangles = [(k, j, i) for i, j, k in ijk]
    # A triangulated disc has V - E + T = 1. Overlapping triangles share a
    # directed edge; a point the walk missed lies off every triangle.
    if (
        not empty.all()
        or len(done) != 3 * len(walk)
        or len({v for t in walk for v in t}) != n
        or n - len(triangulation_edges(triangles)) + len(triangles) != 1
    ):
        raise TriangulationError("points are collinear or too close to it to triangulate")
    return triangles


def triangulation_edges(triangles: Sequence[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Sorted unique undirected edges (u < v) of a triangle set."""
    edges = set()
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)
