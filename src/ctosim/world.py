"""World model: random planar graphs, target random walks, observer kinematics.

All motion here is pure: stepping functions take a state and an explicit
random generator and return the next state, so trajectories are reproducible
from the generator alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _rules
from .geometry import Point, delaunay_triangulate, triangulation_edges

#: Most graph vertices a world may have: the range over which generated
#: graphs are checked against Qhull and pinned by digest, and the size at
#: which GRAPH_MEMO's bound below was measured.
MAX_VERTICES = 100

#: The arena's width and height, a constant of the model.
ARENA = (150.0, 150.0)

#: Fastest target speed in length units per step: the arena's diagonal.
#: SimConfig's rv, random_target_state and step_target's crossings all apply it.
MAX_SPEED = math.hypot(*ARENA)

#: Most vertices one step_target call crosses. Only a hand-made graph with
#: edges shorter than MAX_SPEED / MAX_CROSSINGS (about 0.021) can need
#: more; on edges below the rounding of the offset the loop would never end.
MAX_CROSSINGS = 10_000

#: Fresh vertex draws a graph gets before generation gives up.
GRAPH_ATTEMPTS = 32

#: Graphs kept for reuse by later runs with the same seed: the 20 seeds of
#: a sweep cell fit, at about 32 KB a graph at 40 vertices and 85 KB at
#: MAX_VERTICES.
GRAPH_MEMO = 64


class GraphGenerationError(RuntimeError):
    """Random graph generation failed after bounded retries."""


@dataclass(frozen=True)
class PlanarGraph:
    """Connected planar graph embedded in the arena.

    Each edge is a plain tuple ``(u, v, length, ux, uy, vx, vy, ex, ey)``:
    the int vertex indices u and v, the edge's length, its ends (ux, uy)
    and (vx, vy), and its delta (ex, ey) = (vx - ux, vy - uy), each
    component one rounded difference, as an inline vx - ux is. An exact
    tuple, not a named one: CPython specialises the hot path's unpacking
    and indexing only for exact tuples. ``adjacency[v]`` lists indices into
    ``edges`` for every edge incident to vertex v. ``from_index_pairs``,
    the one constructor, checks that the graph has a vertex, that every
    vertex has two coordinates, that every edge joins two distinct
    existing vertices, named by integer indices, at a finite positive
    distance, once, that every vertex has degree >= 2, and that every
    vertex is reachable from vertex 0. It does not check that edges do not
    cross or that vertices lie in the arena: a hand-made graph may break
    both, a generated one has both.
    """

    vertices: tuple[Point, ...]
    edges: tuple[tuple[int, int, float, float, float, float, float, float, float], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_index_pairs(cls, vertices: Sequence[Point], pairs: Sequence[tuple[int, int]]) -> "PlanarGraph":
        for i, p in enumerate(vertices):
            if len(p) != 2:
                raise ValueError(f"vertex {i} has {len(p)} coordinates, not 2")
        verts = tuple(Point(float(p[0]), float(p[1])) for p in vertices)
        n = len(verts)
        if n == 0:
            raise ValueError("graph has no vertices")
        seen: set[tuple[int, int]] = set()
        edges: list[tuple] = []
        incident: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                for w in (u, v):  # a bool or a float names no vertex; a numpy int is stored as an int
                    _rules.integer(f"edge ({u}, {v}) references a missing vertex: an index", w, 0, n - 1)
                u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            (ux, uy), (vx, vy) = verts[u], verts[v]
            ex, ey = vx - ux, vy - uy
            length = math.hypot(ex, ey)
            if not 0.0 < length < math.inf:  # a nan or inf coordinate gives a nan or inf length
                raise ValueError(f"edge ({u}, {v}) is zero-length or not finite: length {length}")
            incident[u].append(len(edges))
            incident[v].append(len(edges))
            edges.append((u, v, length, ux, uy, vx, vy, ex, ey))
        for v, inc in enumerate(incident):
            if len(inc) < 2:
                raise ValueError(f"vertex {v} has degree {len(inc)} < 2")
        reached, frontier = {0}, [0]
        while frontier:
            for ei in incident[frontier.pop()]:
                for w in edges[ei][:2]:
                    if w not in reached:
                        reached.add(w)
                        frontier.append(w)
        if len(reached) < n:
            raise ValueError(f"graph is disconnected: vertex 0 reaches {len(reached)} of {n} vertices")
        return cls(verts, tuple(edges), tuple(tuple(inc) for inc in incident))


class TargetState(NamedTuple):
    """A target walking an edge: index of the edge, the endpoint it is
    heading toward, distance already covered from the opposite endpoint,
    and speed in length units per step."""

    edge: int
    toward: int
    offset: float
    speed: float


@dataclass(frozen=True, slots=True, init=False)
class ObserverState:
    """An observer moving at unit speed toward its destination; both are (x, y) pairs."""

    position: tuple[float, float]
    destination: tuple[float, float]

    def __init__(self, position: tuple[float, float], destination: tuple[float, float]) -> None:
        # set through the slots: a third cheaper than the frozen __init__'s object.__setattr__
        _set_position(self, position)
        _set_destination(self, destination)


_set_position, _set_destination = ObserverState.position.__set__, ObserverState.destination.__set__
_new_tuple = tuple.__new__  # bound once: step_target builds a TargetState per target and step
_INF = math.inf  # a global: step_observer's finite check then skips an attribute lookup


def generate_random_graph(n_vertices: int, seed: int) -> PlanarGraph:
    """Delaunay triangulation of points drawn uniformly over the ARENA.

    The graph is a function of its arguments: the points come from the
    seed's graph stream, ``default_rng(SeedSequence(seed, spawn_key=(0,)))``,
    child 0 of the run's ``SeedSequence(seed).spawn(4)``, which nothing else
    draws from. Draws n_vertices points, triangulates them, and builds the
    graph with PlanarGraph.from_index_pairs, which checks it. A draw that
    cannot be triangulated uniquely (points on one circle or one line,
    within rounding error) or that the constructor rejects is replaced by a
    fresh draw of the full set. Raises GraphGenerationError after GRAPH_ATTEMPTS
    attempts, ValueError for fewer than 3 or more than MAX_VERTICES
    vertices or a seed that is not an integer >= 0.

    The last GRAPH_MEMO graphs built are returned again for the same
    arguments; a PlanarGraph is immutable, so runs share it. A failed
    generation is not kept.
    """
    # Checked before the lookup: 1.0 and True compare equal to the key 1.
    _rules.integer("n_vertices", n_vertices, 3, MAX_VERTICES)
    _rules.integer("seed", seed, 0)
    # A plain function over the memo: the benchmark's tracer wraps only
    # objects for which inspect.isfunction holds, and an lru_cache is not one.
    return _build_graph(int(n_vertices), int(seed))


@functools.lru_cache(maxsize=GRAPH_MEMO)
def _build_graph(n_vertices: int, seed: int) -> PlanarGraph:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    for _ in range(GRAPH_ATTEMPTS):
        points = rng.uniform(0.0, ARENA, size=(n_vertices, 2))
        try:  # TriangulationError is a ValueError
            return PlanarGraph.from_index_pairs(points, triangulation_edges(delaunay_triangulate(points)))
        except ValueError:
            continue
    raise GraphGenerationError(f"no valid graph after {GRAPH_ATTEMPTS} attempts")


def random_target_state(graph: PlanarGraph, speed: float, rng: np.random.Generator) -> TargetState:
    """Place a target uniformly: random edge, random offset along it, random heading.
    ValueError unless the speed is in (0, MAX_SPEED], in SimConfig's rv wording."""
    _rules.positive("target speed", speed, MAX_SPEED)
    edge = int(rng.integers(len(graph.edges)))
    u, v, length = graph.edges[edge][:3]
    offset = float(rng.uniform(0.0, length))
    toward = v if int(rng.integers(2)) else u
    return TargetState(edge=edge, toward=toward, offset=offset, speed=speed)


def target_point(graph: PlanarGraph, state: TargetState) -> tuple[float, float]:
    """Planar position of a target state on its edge, as a plain (x, y) pair. ValueError for an
    edge index not in the graph, a heading off the edge's ends, or an offset outside [0, length]."""
    edge, toward, offset, _ = state
    try:  # free unless raised; a negative index would read the table from its end
        u, v, length, ux, uy, vx, vy, ex, ey = graph.edges[edge]
        if edge < 0 or toward != v and toward != u:
            raise IndexError
    except IndexError:
        raise ValueError(f"state heads toward vertex {toward}, not an endpoint of edge {edge}") from None
    if not 0.0 <= offset <= length:
        raise ValueError(f"offset {offset} outside [0, {length}] on edge {edge}")
    f = offset / length
    if toward == v:
        return (ux + f * ex, uy + f * ey)
    # u - v inline: -ex would give -0.0 in place of 0.0 where both ends sit at -0.0
    return (vx + f * (ux - vx), vy + f * (uy - vy))


def step_target(graph: PlanarGraph, state: TargetState, rng: np.random.Generator) -> TargetState:
    """Advance a target by one step of length ``speed`` along the graph.

    When the target reaches or passes the vertex it heads toward, the next
    edge is chosen uniformly among all edges incident to that vertex (the
    arrival edge included) and the leftover distance is spent on it within
    the same step.

    A step that reaches the vertex checks the state first, so that its
    crossing loop ends: ValueError unless the speed is in (0, MAX_SPEED]
    and target_point accepts the state, and ValueError once the step has
    crossed MAX_CROSSINGS vertices without coming to rest. A step within
    the edge checks only that its edge index is not past the table's end:
    run_simulation reads every stepped state through target_point in the
    same step, and that read rejects the rest (edge -1, say).
    """
    edge, toward, start, speed = state
    offset = start + speed
    try:
        length = graph.edges[edge][2]
    except IndexError:
        target_point(graph, state)  # raises the edge rule's ValueError
    if offset >= length:
        _rules.positive("target speed", speed, MAX_SPEED)
        target_point(graph, state)
        for _ in range(MAX_CROSSINGS):
            offset -= length
            incident = graph.adjacency[toward]
            edge = incident[int(rng.integers(len(incident)))]
            e = graph.edges[edge]  # by index, not sliced: a crossing builds no tuple
            toward = e[1] if e[0] == toward else e[0]
            length = e[2]
            if offset < length:
                break
        else:
            raise ValueError(f"step at speed {speed} crosses more than {MAX_CROSSINGS} vertices")
    # Built without the named tuple's generated __new__, which takes twice as long.
    return _new_tuple(TargetState, (edge, toward, offset, speed))


def step_observer(state: ObserverState) -> ObserverState:
    """Move an observer up to one unit straight toward its destination.

    Arrival within one step's reach snaps exactly onto the destination;
    the observer then holds position until given a new destination, and
    a state at rest (position and destination one object) is returned as is.
    A moving observer whose gap to its destination is not finite (a nan or
    infinite coordinate, or a difference that overflows) raises ValueError.
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
    if not gap < _INF:
        raise ValueError(f"observer gap from {position} to {destination} is not finite")
    f = 1.0 / gap
    return ObserverState((px + f * dx, py + f * dy), destination)


def predict_target(graph: PlanarGraph, state: TargetState, horizon: int) -> tuple[float, float]:
    """Projected (x, y) position of a target ``horizon`` steps ahead.

    The projection continues along the current edge only; a target that
    would reach its vertex within the horizon is held at that vertex
    (branching beyond it is unpredictable). horizon = 0 gives the current
    position exactly. ValueError for a state that target_point rejects,
    its offset checked against [0, length] before the projection.
    """
    _rules.horizon(horizon)
    edge, toward, offset, speed = state
    try:
        length = graph.edges[edge][2]
    except IndexError:
        target_point(graph, state)  # raises the edge rule's ValueError
    if not 0.0 <= offset <= length:
        raise ValueError(f"offset {offset} outside [0, {length}] on edge {edge}")
    offset += speed * horizon
    if offset > length:
        offset = length
    # A plain tuple in TargetState's field order: target_point only unpacks
    # it, and the named tuple's constructor would add a third to this call.
    return target_point(graph, (edge, toward, offset, speed))
