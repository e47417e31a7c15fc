"""Independent brute-force reference implementations used only by tests.

Everything in here is deliberately written the slow, obvious way — double
loops, direct linear algebra — so that agreement with the package is
meaningful rather than circular.
"""

from __future__ import annotations

import math
from typing import Sequence

XY = tuple[float, float]


def observed_count_loops(
    observer_points: Sequence[XY], target_points: Sequence[XY], sr: float
) -> int:
    """Number of targets with at least one observer within sr (closed disc)."""
    count = 0
    for tx, ty in target_points:
        for ox, oy in observer_points:
            if math.sqrt((tx - ox) ** 2 + (ty - oy) ** 2) <= sr:
                count += 1
                break
    return count


def coverage_fraction_loops(
    observer_points: Sequence[XY], target_points: Sequence[XY], sr: float
) -> float:
    return observed_count_loops(observer_points, target_points, sr) / len(target_points)


def circumcircle_center(a: XY, b: XY, c: XY) -> tuple[float, float, float]:
    """Circumcenter (cx, cy) and squared radius via perpendicular-bisector solve.

    This is an independent derivation from any determinant predicate: solve
    the 2x2 linear system for the point equidistant from all three corners.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-12:
        raise ValueError("degenerate triangle")
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    return ux, uy, r2


def delaunay_violations(points: Sequence[XY], triangles) -> list[tuple[int, int]]:
    """(triangle_index, point_index) pairs where a point sits strictly inside
    a triangle's circumcircle. Empty list means the triangulation is Delaunay.

    Strictness uses a relative tolerance so cocircular quadruples (where either
    diagonal is legal) are not flagged.
    """
    bad = []
    for ti, tri in enumerate(triangles):
        corners = set(tri)
        ux, uy, r2 = circumcircle_center(points[tri.a], points[tri.b], points[tri.c])
        for pi, (px, py) in enumerate(points):
            if pi in corners:
                continue
            if (px - ux) ** 2 + (py - uy) ** 2 < r2 * (1.0 - 1e-9):
                bad.append((ti, pi))
    return bad


def _orient(p: XY, q: XY, r: XY) -> int:
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if v > 1e-12:
        return 1
    if v < -1e-12:
        return -1
    return 0


def _on_segment(p: XY, q: XY, r: XY) -> bool:
    """Whether r (already known collinear with p-q) lies within the segment box."""
    return (
        min(p[0], q[0]) - 1e-12 <= r[0] <= max(p[0], q[0]) + 1e-12
        and min(p[1], q[1]) - 1e-12 <= r[1] <= max(p[1], q[1]) + 1e-12
    )


def segments_cross(p1: XY, q1: XY, p2: XY, q2: XY) -> bool:
    """True when the open interiors of two segments intersect.

    Shared endpoints do not count as a crossing; collinear overlap of more
    than a single point does.
    """
    ends1 = {p1, q1}
    ends2 = {p2, q2}
    shared = ends1 & ends2
    if len(shared) >= 2:
        return True  # identical segment
    o1 = _orient(p1, q1, p2)
    o2 = _orient(p1, q1, q2)
    o3 = _orient(p2, q2, p1)
    o4 = _orient(p2, q2, q1)
    if shared:
        # Touching at one endpoint: only collinear overlap can still cross.
        if o1 == o2 == o3 == o4 == 0:
            free1 = next(iter(ends1 - shared))
            free2 = next(iter(ends2 - shared))
            s = next(iter(shared))
            # Overlap iff the free ends extend to the same side of the shared point.
            return _on_segment(s, free1, free2) or _on_segment(s, free2, free1)
        return False
    if o1 != o2 and o3 != o4 and not (o1 == o2 == 0):
        return True
    if o1 == 0 and _on_segment(p1, q1, p2):
        return True
    if o2 == 0 and _on_segment(p1, q1, q2):
        return True
    if o3 == 0 and _on_segment(p2, q2, p1):
        return True
    if o4 == 0 and _on_segment(p2, q2, q1):
        return True
    return False


def convex_hull(points: Sequence[XY]) -> list[XY]:
    """Monotone-chain convex hull, counterclockwise, no duplicate endpoint."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[XY] = []
    for p in pts:
        while len(lower) >= 2 and _orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[XY] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polygon_area(vertices: Sequence[XY]) -> float:
    """Shoelace area (positive for counterclockwise order)."""
    n = len(vertices)
    acc = 0.0
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return acc / 2.0


def triangle_area(a: XY, b: XY, c: XY) -> float:
    return abs(polygon_area([a, b, c]))
