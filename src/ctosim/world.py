"""World model: random planar graphs, target random walks, observer kinematics.

All motion here is pure: stepping functions take a state and an explicit
random generator and return the next state, so trajectories are reproducible
from the generator alone.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import Point, distance, delaunay_triangulate, triangulation_edges

#: Most graph vertices a world may have: triangulation is O(n⁴) work.
MAX_VERTICES = 100


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


class TargetState(NamedTuple):
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


def generate_random_graph(
    n_vertices: int,
    width: float,
    height: float,
    rng: np.random.Generator,
    max_attempts: int = 32,
) -> PlanarGraph:
    """Delaunay triangulation of points drawn uniformly over the arena.

    Draws n_vertices points, triangulates, and validates the result
    (connectivity, minimum degree). A draw that cannot be triangulated
    uniquely (points on one circle or one line, within rounding error) or
    fails validation is replaced by a fresh draw of the full set. Raises
    GraphGenerationError after max_attempts attempts, ValueError for invalid
    arguments, including more than MAX_VERTICES vertices.
    """
    if not 3 <= n_vertices <= MAX_VERTICES:
        raise ValueError(f"need 3 to {MAX_VERTICES} vertices, got {n_vertices}")
    if not (0.0 < width < math.inf and 0.0 < height < math.inf):
        raise ValueError(f"arena dimensions must be finite and positive, got {width} x {height}")

    high = np.asarray([width, height], dtype=float)
    for _ in range(max_attempts):
        points = [Point(float(x), float(y)) for x, y in rng.uniform(0.0, high, size=(n_vertices, 2))]
        try:  # TriangulationError is a ValueError
            graph = PlanarGraph.from_index_pairs(points, triangulation_edges(delaunay_triangulate(points)))
        except ValueError:
            continue
        if _is_connected(graph.adjacency, graph.edges):
            return graph
    raise GraphGenerationError(f"no valid graph after {max_attempts} attempts")


def random_target_state(graph: PlanarGraph, speed: float, rng: np.random.Generator) -> TargetState:
    """Place a target uniformly: random edge, random offset along it, random heading."""
    if not 0.0 < speed < math.inf:
        raise ValueError(f"target speed must be finite and positive, got {speed}")
    edge = int(rng.integers(len(graph.edges)))
    e = graph.edges[edge]
    offset = float(rng.uniform(0.0, e.length))
    toward = e.v if int(rng.integers(2)) else e.u
    return TargetState(edge=edge, toward=toward, offset=offset, speed=speed)


def target_point(graph: PlanarGraph, state: TargetState) -> Point:
    """Planar position of a target state on its edge."""
    edge, toward, offset, _ = state
    u, v, length = graph.edges[edge]
    if toward == v:
        sx, sy = graph.vertices[u]
    elif toward == u:
        sx, sy = graph.vertices[v]
    else:
        raise ValueError(f"state heads toward vertex {toward}, not an endpoint of edge {edge}")
    if not 0.0 <= offset <= length:
        raise ValueError(f"offset {offset} outside [0, {length}] on edge {edge}")
    dx, dy = graph.vertices[toward]
    f = offset / length
    return Point(sx + f * (dx - sx), sy + f * (dy - sy))


def step_target(graph: PlanarGraph, state: TargetState, rng: np.random.Generator) -> TargetState:
    """Advance a target by one step of length ``speed`` along the graph.

    When the target reaches or passes the vertex it heads toward, the next
    edge is chosen uniformly among all edges incident to that vertex (the
    arrival edge included) and the leftover distance is spent on it within
    the same step.
    """
    edge, toward, offset, speed = state
    offset += speed
    length = graph.edges[edge].length
    while offset >= length:
        offset -= length
        incident = graph.adjacency[toward]
        edge = incident[int(rng.integers(len(incident)))]
        u, v, length = graph.edges[edge]
        toward = v if u == toward else u
    return TargetState(edge, toward, offset, speed)


def step_observer(state: ObserverState) -> ObserverState:
    """Move an observer up to one unit straight toward its destination.

    Arrival within one step's reach snaps exactly onto the destination;
    the observer then holds position until given a new destination, and
    a state at rest (position and destination one object) is returned as is.
    """
    position, destination = state.position, state.destination
    if position is destination:
        return state
    px, py = position
    qx, qy = destination
    dx = qx - px
    dy = qy - py
    gap = math.hypot(dx, dy)
    if gap <= 1.0:
        return ObserverState(destination, destination)
    f = 1.0 / gap
    return ObserverState(Point(px + f * dx, py + f * dy), destination)


def predict_target(graph: PlanarGraph, state: TargetState, horizon: int) -> Point:
    """Projected position of a target ``horizon`` steps ahead.

    The projection continues along the current edge only; a target that
    would reach its vertex within the horizon is held at that vertex
    (branching beyond it is unpredictable). horizon = 0 gives the current
    position exactly.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    edge, toward, offset, speed = state
    offset += speed * horizon
    length = graph.edges[edge].length
    if offset > length:
        offset = length
    # A plain tuple in TargetState's field order: target_point only unpacks
    # it, and the named tuple's constructor would add a third to this call.
    return target_point(graph, (edge, toward, offset, speed))
