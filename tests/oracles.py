"""Independent brute-force reference implementations used only by tests.

Everything in here is deliberately written the slow, obvious way — double
loops, direct linear algebra — so that agreement with the package is
meaningful rather than circular.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from ctosim.controllers import (
    N_CANDIDATES,
    ControlInput,
    ControllerKind,
    hc_control,
    hc_h_control,
    hc_hp_control,
    kmeans_control,
)
from ctosim.world import ARENA, generate_random_graph

XY = tuple[float, float]


def observed_count_loops(
    observer_points: Sequence[XY], target_points: Sequence[XY], sr: float
) -> int:
    """Number of targets with at least one observer within sr (closed disc).

    Squared distance against sr², as the package's kernel compares: a
    square root would round once more and could move a target on the rim.
    """
    count = 0
    for tx, ty in target_points:
        for ox, oy in observer_points:
            if (ox - tx) * (ox - tx) + (oy - ty) * (oy - ty) <= sr * sr:
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
        a, b, c = tri
        ux, uy, r2 = circumcircle_center(points[a], points[b], points[c])
        for pi, (px, py) in enumerate(points):
            if pi in corners:
                continue
            if (px - ux) ** 2 + (py - uy) ** 2 < r2 * (1.0 - 1e-9):
                bad.append((ti, pi))
    return bad


def delaunay_triangulate_brute_force(points) -> list[tuple[int, int, int]]:
    """Delaunay triangulation by testing every triple of points, O(n⁴).

    The lifting map (x, y) -> (x, y, x² + y²) turns "no point strictly
    inside the circumcircle of a, b, c" into "no lifted point strictly below
    the plane through the lifted a, b, c", so every triple passing that test
    is a Delaunay triangle. The checks, the tolerances, the error messages
    and the order of the result are the package's, so the two can be
    compared outcome for outcome; this one raises plain ValueError.
    """
    n = len(points)
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    bad_points = "points must be finite (x, y) pairs small enough to lift"
    try:
        xy = np.asarray(points, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        xy = None
    if xy is None or xy.shape != (n, 2):
        raise ValueError(bad_points)
    with np.errstate(over="ignore", invalid="ignore"):
        xy = xy - xy.mean(axis=0)
        lifted = np.column_stack([xy, (xy * xy).sum(axis=1)])
        m = np.abs(lifted).max(axis=0)  # the rounding bound of ctosim.geometry
        u = 2.0**-53
        tol = 2**10 * u * m.prod()
    if not np.isfinite(tol):  # a nan or inf coordinate, or a lift that overflows
        raise ValueError(bad_points)
    flat = 2**6 * u * m[0] * m[1]
    below = np.tri(n, k=-1, dtype=bool)
    i, j, k = np.nonzero(below[:, :, None] & below[None])  # every i > j > k
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
    # A kept triple's own corners lie within tol of its plane; a fourth point
    # there could lie on either side, and so could the diagonal it implies.
    if np.any(touching[empty] > 3):
        raise ValueError("four points lie on one circle within rounding error")
    triangles = list(zip(k[empty].tolist(), j[empty].tolist(), i[empty].tolist()))
    edges = {e for t in triangles for e in itertools.combinations(t, 2)}  # t is ascending
    # A triangulated disc has V - E + T = 1; a hole left by a flat triple
    # that was a Delaunay triangle breaks it.
    if n - len(edges) + len(triangles) != 1:
        raise ValueError("points are collinear or too close to it to triangulate")
    return triangles


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


# -- world step -------------------------------------------------------------
#
# Scalar references for one target or observer step, on plain data: a
# target is an (edge, toward, offset, speed) tuple on a graph given by its
# vertex (x, y) pairs, its edges, each led by (u, v, length), and its
# per-vertex incident edge lists. The arithmetic repeats the package's step
# for step, so the two must agree bit for bit, random draws included.


def target_point_scalar(vertices: Sequence[XY], edges, state) -> XY:
    """Position of a target at ``offset`` along its edge, measured from the
    endpoint it heads away from."""
    edge, toward, offset, _ = state
    u, v, length = edges[edge][:3]
    if toward == v:
        start = u
    elif toward == u:
        start = v
    else:
        raise ValueError(f"vertex {toward} is not an endpoint of edge {edge}")
    if offset < 0.0 or offset > length:
        raise ValueError(f"offset {offset} outside [0, {length}]")
    sx, sy = vertices[start]
    dx, dy = vertices[toward]
    f = offset / length
    return (sx + f * (dx - sx), sy + f * (dy - sy))


def predict_target_scalar(vertices: Sequence[XY], edges, state, horizon: int) -> XY:
    """Position ``horizon`` steps ahead along the current edge, held at the
    vertex it heads toward once the projection reaches it."""
    edge, toward, offset, speed = state
    offset = offset + speed * horizon
    length = edges[edge][2]
    if offset > length:
        offset = length
    return target_point_scalar(vertices, edges, (edge, toward, offset, speed))


def step_target_scalar(edges, adjacency, state, rng):
    """One random-walk step: move ``speed`` along the edge, and at each
    vertex reached pick the next edge uniformly among its incident edges
    (one ``rng.integers`` draw per vertex, in order of arrival)."""
    edge, toward, offset, speed = state
    offset = offset + speed
    while True:
        u, v, length = edges[edge][:3]
        if offset < length:
            return (edge, toward, offset, speed)
        offset = offset - length
        choices = adjacency[toward]
        edge = choices[int(rng.integers(len(choices)))]
        u, v, _ = edges[edge][:3]
        if u == toward:
            toward = v
        else:
            toward = u


def step_observer_scalar(position: XY, destination: XY) -> tuple[XY, XY]:
    """One observer step: a unit move toward the destination, or a snap onto
    it from within one unit."""
    px, py = position
    qx, qy = destination
    gap = math.hypot(qx - px, qy - py)
    if gap <= 1.0:
        return destination, destination
    f = 1.0 / gap
    return (px + f * (qx - px), py + f * (qy - py)), destination


# -- k-means ------------------------------------------------------------------


def kmeans_lloyd_reference(targets: np.ndarray, observers: np.ndarray, max_iters: int):
    """Lloyd's rounds from the observers' positions, one cluster per observer,
    stopping only when a round leaves every centroid unchanged or after
    ``max_iters`` rounds. An empty cluster keeps its centroid. The arithmetic
    is the controller's, op for op, and unchanged centroids give the same
    assignment again, so the two must agree bit for bit. Returns the
    centroids and the number of rounds run."""
    centroids = np.array(observers, dtype=float)
    pts = np.array(targets, dtype=float)
    rounds = 0
    for _ in range(max_iters):
        rounds += 1
        dx = pts[:, 0, None] - centroids[:, 0]
        dy = pts[:, 1, None] - centroids[:, 1]
        assign = np.argmin(dx * dx + dy * dy, axis=1)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, pts)
        sizes = np.bincount(assign, minlength=len(centroids))
        moved = centroids.copy()
        nonempty = sizes > 0
        moved[nonempty] = sums[nonempty] / sizes[nonempty, None]
        unchanged = np.array_equal(moved, centroids)
        centroids = moved
        if unchanged:
            break
    return centroids, rounds



# -- whole run ----------------------------------------------------------------


def reference_run(cfg) -> float:
    """The coverage index of one run, from the scalar references above.

    The same four ``SeedSequence(cfg.seed)`` children as the engine: the
    package's graph from child 0, then targets, observers and controller.
    Targets are placed by their own draws (edge, offset, heading) and
    stepped with ``step_target_scalar``; observers start at their drawn
    points and step with ``step_observer_scalar``. The package's
    controllers choose destinations every round(1 / ur) steps from step 0,
    before motion. After motion each step counts the targets within sr of
    an observer, ``d² <= sr²``, as ``observed_count_loops`` does.
    """
    target_rng, observer_rng, controller_rng = map(
        np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(4)[1:]
    )
    graph = generate_random_graph(cfg.n_vertices, cfg.seed)
    vertices, edges, adjacency = graph.vertices, graph.edges, graph.adjacency
    targets = []
    for _ in range(cfg.n_targets):
        edge = int(target_rng.integers(len(edges)))
        u, v, length = edges[edge][:3]
        offset = float(target_rng.uniform(0.0, length))
        targets.append((edge, v if int(target_rng.integers(2)) else u, offset, cfg.rv))
    drawn = observer_rng.uniform(0.0, ARENA, size=(cfg.n_observers, 2))
    positions = [(float(x), float(y)) for x, y in drawn]
    destinations = list(positions)
    points = [target_point_scalar(vertices, edges, s) for s in targets]
    period = round(1.0 / cfg.ur)
    observed = 0
    for t in range(cfg.steps):
        if t % period == 0:
            inp = ControlInput(tuple(positions), tuple(destinations), tuple(points), cfg.sr, controller_rng)
            if cfg.controller is ControllerKind.KMEANS:
                chosen = kmeans_control(inp)
            elif cfg.controller is ControllerKind.HC:
                chosen = hc_control(inp, N_CANDIDATES)
            elif cfg.controller is ControllerKind.HC_H:
                chosen = hc_h_control(inp, N_CANDIDATES)
            else:
                chosen = hc_hp_control(inp, N_CANDIDATES, cfg.horizon, graph, targets)
            destinations = [(float(x), float(y)) for x, y in chosen]
        targets = [step_target_scalar(edges, adjacency, s, target_rng) for s in targets]
        moves = [step_observer_scalar(p, d) for p, d in zip(positions, destinations)]
        positions, destinations = [p for p, _ in moves], [d for _, d in moves]
        points = [target_point_scalar(vertices, edges, s) for s in targets]
        observed += observed_count_loops(positions, points, cfg.sr)
    return observed / cfg.steps / cfg.n_targets
