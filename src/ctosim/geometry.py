"""Planar geometry primitives and Delaunay triangulation.

The triangulation is an incremental Bowyer-Watson construction seeded with a
super-triangle. It is built for the modest point counts the simulator needs
(tens of vertices) and is verified against brute-force empty-circumcircle and
segment-intersection oracles in the test suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

#: Relative tolerance applied to orientation and in-circle determinants.
PREDICATE_EPS = 1e-9


class Point(NamedTuple):
    """A position in the plane, in arena length units."""

    x: float
    y: float


class Triangle(NamedTuple):
    """Three vertex indices into a point sequence."""

    a: int
    b: int
    c: int


class TriangulationError(ValueError):
    """The input point set has no valid triangulation."""


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _orient_det(pa, pb, pc) -> tuple[float, float]:
    """Signed doubled area of (pa, pb, pc) plus a magnitude scale for tolerancing.

    Positive when the triple winds counterclockwise.
    """
    adx = pa[0] - pc[0]
    ady = pa[1] - pc[1]
    bdx = pb[0] - pc[0]
    bdy = pb[1] - pc[1]
    det = adx * bdy - ady * bdx
    scale = abs(adx * bdy) + abs(ady * bdx)
    return det, scale


def _incircle_det(pa, pb, pc, pd) -> tuple[float, float]:
    """In-circle determinant of pd against the circle through pa, pb, pc.

    Positive when pd lies strictly inside, assuming (pa, pb, pc) is
    counterclockwise. The second value scales the rounding tolerance.
    """
    adx = pa[0] - pd[0]
    ady = pa[1] - pd[1]
    bdx = pb[0] - pd[0]
    bdy = pb[1] - pd[1]
    cdx = pc[0] - pd[0]
    cdy = pc[1] - pd[1]
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    bxcy = bdx * cdy
    bycx = bdy * cdx
    cxay = cdx * ady
    cyax = cdy * adx
    axby = adx * bdy
    aybx = ady * bdx
    det = alift * (bxcy - bycx) + blift * (cxay - cyax) + clift * (axby - aybx)
    scale = (
        alift * (abs(bxcy) + abs(bycx))
        + blift * (abs(cxay) + abs(cyax))
        + clift * (abs(axby) + abs(aybx))
    )
    return det, scale


def circumcircle_contains(t: Triangle, points: Sequence[Point], p: Point) -> bool:
    """Whether p lies strictly inside the circumcircle of triangle t.

    Points on the circle (within a relative tolerance of the determinant
    magnitude) are reported as outside, so the test is strict.

    Raises ValueError if the triangle is degenerate (collinear vertices).
    """
    pa, pb, pc = points[t.a], points[t.b], points[t.c]
    orient, oscale = _orient_det(pa, pb, pc)
    if abs(orient) <= PREDICATE_EPS * oscale:
        raise ValueError("degenerate triangle has no circumcircle")
    det, scale = _incircle_det(pa, pb, pc, p)
    if orient < 0.0:
        det = -det
    return det > PREDICATE_EPS * scale


def _has_spanning_triple(points: Sequence[Point]) -> bool:
    """True when some triple of points is not collinear (within tolerance)."""
    p0 = points[0]
    p1 = None
    for q in points[1:]:
        if q[0] != p0[0] or q[1] != p0[1]:
            p1 = q
            break
    if p1 is None:
        return False
    for q in points[1:]:
        det, scale = _orient_det(p0, p1, q)
        if abs(det) > PREDICATE_EPS * scale:
            return True
    return False


def delaunay_triangulate(points: Sequence[Point]) -> list[Triangle]:
    """Delaunay triangulation of a point set by incremental insertion.

    Returns triangles as index triples into ``points``. Requires at least
    three points, not all collinear; raises TriangulationError otherwise.
    For inputs in general position the result satisfies the empty-circumcircle
    property; exact degeneracies (cocircular quadruples) may yield an
    arbitrary but still planar diagonal choice.
    """
    n = len(points)
    if n < 3:
        raise TriangulationError(f"need at least 3 points, got {n}")
    if not _has_spanning_triple(points):
        raise TriangulationError("points are collinear")

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    cx = (min(xs) + max(xs)) / 2.0
    cy = (min(ys) + max(ys)) / 2.0
    ext = list(points) + [
        Point(cx - 20.0 * span, cy - 10.0 * span),
        Point(cx + 20.0 * span, cy - 10.0 * span),
        Point(cx, cy + 20.0 * span),
    ]

    triangles = [Triangle(n, n + 1, n + 2)]
    for i in range(n):
        p = ext[i]
        bad = []
        for t in triangles:
            try:
                if circumcircle_contains(t, ext, p):
                    bad.append(t)
            except ValueError:
                pass  # a degenerate triangle is never part of the cavity
        if not bad:
            # Numerically filtered out of every cavity; the caller resamples.
            raise TriangulationError(f"point {i} could not be inserted")
        edge_count: dict[tuple[int, int], int] = {}
        for t in bad:
            for u, v in ((t.a, t.b), (t.b, t.c), (t.c, t.a)):
                key = (u, v) if u < v else (v, u)
                edge_count[key] = edge_count.get(key, 0) + 1
        bad_set = set(bad)
        triangles = [t for t in triangles if t not in bad_set]
        for u, v in sorted(k for k, cnt in edge_count.items() if cnt == 1):
            triangles.append(Triangle(u, v, i))

    return [t for t in triangles if t.a < n and t.b < n and t.c < n]


def triangulation_edges(triangles: Sequence[Triangle]) -> list[tuple[int, int]]:
    """Sorted unique undirected edges (u < v) of a triangle set."""
    edges = set()
    for t in triangles:
        for u, v in ((t.a, t.b), (t.b, t.c), (t.c, t.a)):
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)
