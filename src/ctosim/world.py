"""World model: random planar graphs, target random walks, observer kinematics.

All motion here is pure: stepping functions take a state and an explicit
random generator and return a new state, so trajectories are reproducible
from the generator alone.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import Point, distance, delaunay_triangulate, triangulation_edges, TriangulationError


class GraphEdge(NamedTuple):
    """Undirected edge between vertex indices u and v with cached length."""

    u: int
    v: int
    length: float


class GraphGenerationError(RuntimeError):
    """Random graph generation failed after bounded retries."""


@dataclass(frozen=True)
class PlanarGraph:
    """Connected planar graph embedded in the arena.

    ``adjacency[v]`` lists indices into ``edges`` for every edge incident to
    vertex v. Every vertex has degree >= 2.
    """

    vertices: tuple[Point, ...]
    edges: tuple[GraphEdge, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_index_pairs(cls, vertices: Sequence[Point], pairs: Sequence[tuple[int, int]]) -> "PlanarGraph":
        verts = tuple(Point(float(p[0]), float(p[1])) for p in vertices)
        n = len(verts)
        seen: set[tuple[int, int]] = set()
        edges: list[GraphEdge] = []
        incident: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            length = distance(verts[u], verts[v])
            if length <= 0.0:
                raise ValueError(f"zero-length edge ({u}, {v})")
            incident[u].append(len(edges))
            incident[v].append(len(edges))
            edges.append(GraphEdge(u, v, length))
        for v, inc in enumerate(incident):
            if len(inc) < 2:
                raise ValueError(f"vertex {v} has degree {len(inc)} < 2")
        return cls(verts, tuple(edges), tuple(tuple(inc) for inc in incident))


@dataclass(frozen=True, slots=True)
class TargetState:
    """A target walking an edge: index of the edge, the endpoint it is
    heading toward, distance already covered from the opposite endpoint,
    and speed in length units per step."""

    edge: int
    toward: int
    offset: float
    speed: float


@dataclass(frozen=True, slots=True)
class ObserverState:
    """An observer moving in free space toward its destination at unit speed."""

    position: Point
    destination: Point


def _is_connected(adjacency: Sequence[Sequence[int]], edges: Sequence[GraphEdge]) -> bool:
    n = len(adjacency)
    if n == 0:
        return False
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for ei in adjacency[v]:
            e = edges[ei]
            w = e.v if e.u == v else e.u
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return all(seen)


def _delaunay_offender(coords: np.ndarray, triangles) -> int | None:
    """Index of a point strictly inside some triangle's circumcircle, else None.

    Vectorized counterpart of the scalar predicate, used to validate freshly
    generated triangulations cheaply. The relative tolerance mirrors the
    predicate's: points within ~1e-9 of the circle are not offenders.
    """
    if not triangles:
        return 0
    tri = np.asarray([(t.a, t.b, t.c) for t in triangles], dtype=int)
    a = coords[tri[:, 0]]
    b = coords[tri[:, 1]]
    c = coords[tri[:, 2]]
    d = 2.0 * (a[:, 0] * (b[:, 1] - c[:, 1]) + b[:, 0] * (c[:, 1] - a[:, 1]) + c[:, 0] * (a[:, 1] - b[:, 1]))
    if np.any(np.abs(d) < 1e-12):
        return 0  # degenerate sliver slipped through; force a resample
    a2 = (a * a).sum(axis=1)
    b2 = (b * b).sum(axis=1)
    c2 = (c * c).sum(axis=1)
    ux = (a2 * (b[:, 1] - c[:, 1]) + b2 * (c[:, 1] - a[:, 1]) + c2 * (a[:, 1] - b[:, 1])) / d
    uy = (a2 * (c[:, 0] - b[:, 0]) + b2 * (a[:, 0] - c[:, 0]) + c2 * (b[:, 0] - a[:, 0])) / d
    centers = np.stack([ux, uy], axis=1)
    r2 = ((a - centers) ** 2).sum(axis=1)
    diff = coords[None, :, :] - centers[:, None, :]
    dist2 = (diff * diff).sum(axis=2)
    inside = dist2 < r2[:, None] * (1.0 - 1e-9)
    rows = np.arange(len(tri))
    inside[rows, tri[:, 0]] = False
    inside[rows, tri[:, 1]] = False
    inside[rows, tri[:, 2]] = False
    hits = np.nonzero(inside.any(axis=0))[0]
    return int(hits[0]) if hits.size else None


def generate_random_graph(
    n_vertices: int,
    width: float,
    height: float,
    rng: np.random.Generator,
    max_attempts: int = 32,
) -> PlanarGraph:
    """Delaunay triangulation of points drawn uniformly over the arena.

    Draws n_vertices points, triangulates, and validates the result
    (empty circumcircles, connectivity, minimum degree). A point taking part
    in a near-cocircular degeneracy is resampled; wholesale failures resample
    the full set. Raises GraphGenerationError after max_attempts attempts,
    ValueError for invalid arguments.
    """
    if n_vertices < 3:
        raise ValueError(f"need at least 3 vertices, got {n_vertices}")
    if width <= 0.0 or height <= 0.0:
        raise ValueError(f"arena dimensions must be positive, got {width} x {height}")

    high = np.asarray([width, height], dtype=float)
    coords = rng.uniform(0.0, high, size=(n_vertices, 2))
    for _ in range(max_attempts):
        points = [Point(float(x), float(y)) for x, y in coords]
        try:
            triangles = delaunay_triangulate(points)
        except TriangulationError:
            coords = rng.uniform(0.0, high, size=(n_vertices, 2))
            continue
        offender = _delaunay_offender(coords, triangles)
        if offender is not None:
            coords = coords.copy()
            coords[offender] = rng.uniform(0.0, high, size=2)
            continue
        try:
            graph = PlanarGraph.from_index_pairs(points, triangulation_edges(triangles))
        except ValueError:
            coords = rng.uniform(0.0, high, size=(n_vertices, 2))
            continue
        if not _is_connected(graph.adjacency, graph.edges):
            coords = rng.uniform(0.0, high, size=(n_vertices, 2))
            continue
        return graph
    raise GraphGenerationError(f"no valid graph after {max_attempts} attempts")


def random_target_state(graph: PlanarGraph, speed: float, rng: np.random.Generator) -> TargetState:
    """Place a target uniformly: random edge, random offset along it, random heading."""
    if speed <= 0.0:
        raise ValueError(f"target speed must be positive, got {speed}")
    edge = int(rng.integers(len(graph.edges)))
    e = graph.edges[edge]
    offset = float(rng.uniform(0.0, e.length))
    toward = e.v if int(rng.integers(2)) else e.u
    return TargetState(edge=edge, toward=toward, offset=offset, speed=speed)


def _interpolate(graph: PlanarGraph, edge: int, toward: int, offset: float) -> Point:
    e = graph.edges[edge]
    if toward == e.v:
        src = graph.vertices[e.u]
    elif toward == e.u:
        src = graph.vertices[e.v]
    else:
        raise ValueError(f"state heads toward vertex {toward}, not an endpoint of edge {edge}")
    if not 0.0 <= offset <= e.length:
        raise ValueError(f"offset {offset} outside [0, {e.length}] on edge {edge}")
    dst = graph.vertices[toward]
    f = offset / e.length
    return Point(src.x + f * (dst.x - src.x), src.y + f * (dst.y - src.y))


def target_point(graph: PlanarGraph, state: TargetState) -> Point:
    """Planar position of a target state on its edge."""
    return _interpolate(graph, state.edge, state.toward, state.offset)


def step_target(graph: PlanarGraph, state: TargetState, rng: np.random.Generator) -> TargetState:
    """Advance a target by one step of length ``speed`` along the graph.

    When the target reaches or passes the vertex it heads toward, the next
    edge is chosen uniformly among all edges incident to that vertex (the
    arrival edge included) and the leftover distance is spent on it within
    the same step.
    """
    edge = state.edge
    toward = state.toward
    offset = state.offset + state.speed
    length = graph.edges[edge].length
    while offset >= length:
        offset -= length
        incident = graph.adjacency[toward]
        edge = incident[int(rng.integers(len(incident)))]
        u, v, length = graph.edges[edge]
        toward = v if u == toward else u
    return TargetState(edge=edge, toward=toward, offset=offset, speed=state.speed)


def step_observer(state: ObserverState) -> ObserverState:
    """Move an observer up to one unit straight toward its destination.

    Arrival within one step's reach snaps exactly onto the destination;
    the observer then holds position until given a new destination.
    """
    px, py = state.position
    dx = state.destination.x - px
    dy = state.destination.y - py
    gap = math.hypot(dx, dy)
    if gap <= 1.0:
        return ObserverState(state.destination, state.destination)
    f = 1.0 / gap
    return ObserverState(Point(px + f * dx, py + f * dy), state.destination)


def predict_target(graph: PlanarGraph, state: TargetState, horizon: int) -> Point:
    """Projected position of a target ``horizon`` steps ahead.

    The projection continues along the current edge only; a target that
    would reach its vertex within the horizon is held at that vertex
    (branching beyond it is unpredictable). horizon = 0 gives the current
    position exactly.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    e = graph.edges[state.edge]
    offset = state.offset + state.speed * horizon
    if offset > e.length:
        offset = e.length
    return _interpolate(graph, state.edge, state.toward, offset)
