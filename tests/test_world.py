"""Graph generation and motion-model tests."""

from __future__ import annotations

import dataclasses
import math
import signal
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import ctosim.world as world
from ctosim.engine import SimConfig
from ctosim.geometry import Point
from ctosim.world import (
    GRAPH_ATTEMPTS,
    GRAPH_MEMO,
    MAX_CROSSINGS,
    MAX_SPEED,
    GraphGenerationError,
    ObserverState,
    PlanarGraph,
    TargetState,
    generate_random_graph,
    predict_target,
    random_target_state,
    step_observer,
    step_target,
    target_point,
)
from oracles import (
    predict_target_scalar,
    segments_cross,
    step_observer_scalar,
    step_target_scalar,
    target_point_scalar,
)


def triangle_graph() -> PlanarGraph:
    """3 vertices, 3 edges; edge 0 runs from (0,0) to (10,0) with length 10."""
    verts = [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 30.0)]
    return PlanarGraph.from_index_pairs(verts, [(0, 1), (1, 2), (0, 2)])


@contextmanager
def time_limit(seconds: int):
    """Fail a call that does not return within ``seconds``: an unbounded
    loop fails the test rather than hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def wheel_graph(k: int) -> PlanarGraph:
    """Hub at the origin joined to k rim vertices, rim closed into a cycle."""
    verts = [Point(0.0, 0.0)]
    for i in range(k):
        a = 2.0 * math.pi * i / k
        verts.append(Point(10.0 * math.cos(a), 10.0 * math.sin(a)))
    pairs = [(0, i) for i in range(1, k + 1)]
    pairs += [(i, i % k + 1) for i in range(1, k + 1)]
    return PlanarGraph.from_index_pairs(verts, pairs)


class TestPlanarGraphValidation:
    verts = [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 30.0)]

    def test_valid_triangle(self):
        g = triangle_graph()
        assert len(g.edges) == 3
        assert g.edges[0][2] == 10.0
        # adjacency holds edge indices, per vertex
        assert set(g.adjacency[1]) == {0, 1}

    def test_missing_vertex_reference(self):
        with pytest.raises(ValueError, match="missing vertex"):
            PlanarGraph.from_index_pairs(self.verts, [(0, 1), (1, 3), (0, 2)])

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            PlanarGraph.from_index_pairs(self.verts, [(0, 0), (1, 2), (0, 2)])

    def test_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            PlanarGraph.from_index_pairs(self.verts, [(0, 1), (1, 0), (1, 2), (0, 2)])

    def test_degree_below_two(self):
        # a path: endpoints have degree 1
        with pytest.raises(ValueError, match="degree"):
            PlanarGraph.from_index_pairs(self.verts, [(0, 1), (1, 2)])

    def test_disconnected(self):
        # two disjoint triangles: every vertex has degree 2
        verts = self.verts + [Point(50.0, 0.0), Point(60.0, 0.0), Point(60.0, 30.0)]
        pairs = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        with pytest.raises(ValueError, match="disconnected"):
            PlanarGraph.from_index_pairs(verts, pairs)

    def test_no_vertices(self):
        with pytest.raises(ValueError, match="no vertices"):
            PlanarGraph.from_index_pairs([], [])

    def test_zero_length_edge(self):
        verts = [Point(0.0, 0.0), Point(0.0, 0.0), Point(10.0, 30.0)]
        with pytest.raises(ValueError, match="zero-length"):
            PlanarGraph.from_index_pairs(verts, [(0, 1), (1, 2), (0, 2)])

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_vertex_not_finite(self, x):
        # such a graph was accepted, with nan or inf edge lengths
        verts = [Point(0.0, 0.0), Point(10.0, 0.0), Point(x, 30.0)]
        with pytest.raises(ValueError, match="not finite"):
            PlanarGraph.from_index_pairs(verts, [(0, 1), (1, 2), (0, 2)])

    @pytest.mark.parametrize(
        "vertex",
        [(10.0, 30.0, 5.0), (10.0,)],
        ids=["three coordinates", "one coordinate"],
    )
    def test_vertex_without_two_coordinates(self, vertex):
        # three coordinates were truncated and accepted; one raised IndexError
        verts = self.verts[:2] + [vertex]
        with pytest.raises(ValueError, match="vertex 2 has"):
            PlanarGraph.from_index_pairs(verts, [(0, 1), (1, 2), (0, 2)])

    @pytest.mark.parametrize("index", [1.0, True], ids=["float", "bool"])
    def test_index_not_an_integer(self, index):
        # 1.0 raised TypeError; True was stored as a vertex number
        with pytest.raises(ValueError, match="an index must be an integer"):
            PlanarGraph.from_index_pairs(self.verts, [(0, index), (1, 2), (0, 2)])

    def test_numpy_indices_stored_as_int(self):
        pairs = [(np.int64(0), np.int32(1)), (np.intp(1), 2), (0, np.uint8(2))]
        g = PlanarGraph.from_index_pairs(self.verts, pairs)
        assert g.edges == triangle_graph().edges
        assert all(type(i) is int for e in g.edges for i in e[:2])


class TestGenerateRandomGraph:
    def test_shape_and_bounds(self):
        g = generate_random_graph(40, 0)
        assert len(g.vertices) == 40
        assert all(0.0 <= p.x <= 150.0 and 0.0 <= p.y <= 150.0 for p in g.vertices)
        assert all(len(inc) >= 2 for inc in g.adjacency)
        assert all(length == math.dist(g.vertices[u], g.vertices[v]) for u, v, length, *_ in g.edges)

    def test_connected(self):
        g = generate_random_graph(25, 1)
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for ei in g.adjacency[v]:
                a, b = g.edges[ei][:2]
                w = b if a == v else a
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert seen == set(range(25))

    def test_edges_do_not_cross(self):
        g = generate_random_graph(30, 2)
        segs = [
            ((g.vertices[u].x, g.vertices[u].y), (g.vertices[v].x, g.vertices[v].y))
            for u, v, *_ in g.edges
        ]
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                assert not segments_cross(*segs[i], *segs[j])

    def test_deterministic_for_fixed_seed(self):
        a = generate_random_graph(20, 42)
        world._build_graph.cache_clear()
        b = generate_random_graph(20, 42)
        assert a is not b
        assert a == b

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_random_graph(2, 0)
        with pytest.raises(ValueError, match="n_vertices must be at most 100"):
            generate_random_graph(101, 0)

    def test_gives_up_after_max_attempts(self, monkeypatch):
        calls = []

        def never(points):
            calls.append(points)
            raise ValueError("no unique triangulation")

        world._build_graph.cache_clear()
        monkeypatch.setattr(world, "delaunay_triangulate", never)
        with pytest.raises(GraphGenerationError):
            generate_random_graph(5, 0)
        assert len(calls) == GRAPH_ATTEMPTS

    def test_retries_a_disconnected_draw(self, monkeypatch):
        calls = []

        def disjoint_first(triangles):
            calls.append(triangles)
            if len(calls) == 1:
                return [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
            return real(triangles)

        real = world.triangulation_edges
        world._build_graph.cache_clear()
        monkeypatch.setattr(world, "triangulation_edges", disjoint_first)
        try:
            g = generate_random_graph(6, 0)
        finally:
            world._build_graph.cache_clear()  # g is the seed's second draw
        assert len(calls) == 2
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0,)))
        rng.uniform(0.0, 150.0, size=(6, 2))
        assert [list(p) for p in g.vertices] == rng.uniform(0.0, 150.0, size=(6, 2)).tolist()

    def test_draws_the_seeds_graph_stream(self):
        # the key-0 stream the engine gave the graph before the memo, so
        # every graph, and every rho, is unchanged
        g = generate_random_graph(40, 3)
        rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(0,)))
        assert [list(p) for p in g.vertices] == rng.uniform(0.0, 150.0, size=(40, 2)).tolist()


class TestGraphMemo:
    def test_hit_is_the_kept_graph_and_equals_a_fresh_build(self):
        g = generate_random_graph(30, 11)
        assert generate_random_graph(30, 11) is g
        fresh = world._build_graph.__wrapped__(30, 11)
        assert fresh is not g and fresh == g and hash(fresh) == hash(g)

    def test_different_arguments_never_collide(self):
        keys = [(n, seed) for n in (10, 11, 12) for seed in (0, 1, 10, 11, 12)]
        graphs = {key: generate_random_graph(*key) for key in keys}
        assert len({(g.vertices, g.edges) for g in graphs.values()}) == len(keys)
        for key, g in graphs.items():
            assert g == world._build_graph.__wrapped__(*key)

    def test_failure_is_not_kept(self, monkeypatch):
        world._build_graph.cache_clear()

        def never(points):
            raise ValueError("no unique triangulation")

        with monkeypatch.context() as m:
            m.setattr(world, "delaunay_triangulate", never)
            with pytest.raises(GraphGenerationError):
                generate_random_graph(8, 5)
        assert world._build_graph.cache_info().currsize == 0
        assert generate_random_graph(8, 5) == world._build_graph.__wrapped__(8, 5)

    def test_never_exceeds_its_bound(self):
        world._build_graph.cache_clear()
        for seed in range(GRAPH_MEMO + 8):
            generate_random_graph(4, seed)
            assert world._build_graph.cache_info().currsize <= GRAPH_MEMO
        assert world._build_graph.cache_info().currsize == GRAPH_MEMO

    @pytest.mark.parametrize(
        "n_vertices, seed", [(40, 1.0), (40, True), (40, -1), (40, "1"), (40, None), (40.0, 1), (True, 1)]
    )
    def test_bad_arguments_rejected_before_the_lookup(self, n_vertices, seed):
        generate_random_graph(40, 1)
        before = world._build_graph.cache_info()
        with pytest.raises(ValueError):
            generate_random_graph(n_vertices, seed)
        assert world._build_graph.cache_info() == before


class TestRandomTargetState:
    def test_state_is_valid(self):
        g = triangle_graph()
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = random_target_state(g, 0.5, rng)
            u, v, length = g.edges[s.edge][:3]
            assert 0.0 <= s.offset <= length
            assert s.toward in (u, v)
            assert s.speed == 0.5

    def test_speed_must_be_positive(self):
        with pytest.raises(ValueError):
            random_target_state(triangle_graph(), 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("speed", [math.inf, math.nan, -math.inf, -0.5, 0.0, 300.0])
    def test_speed_must_be_finite_and_positive(self, speed):
        # inf made the first step_target loop forever and nan gave nan offsets; a nan,
        # infinite or non-positive speed was worded "> 0", unlike SimConfig's rv
        with pytest.raises(ValueError) as caught:
            random_target_state(triangle_graph(), speed, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^rv must be a finite number in \(0, 212\.132\], got ") as rv_caught:
            SimConfig(rv=speed)
        assert str(caught.value) == "target speed" + str(rv_caught.value)[len("rv"):]

    @pytest.mark.parametrize("speed", [1e300, math.nextafter(MAX_SPEED, math.inf)])
    def test_speed_above_the_bound_is_rejected_as_simconfig_rejects_rv(self, speed):
        with pytest.raises(ValueError) as caught:
            random_target_state(triangle_graph(), speed, np.random.default_rng(0))
        assert str(caught.value) == f"target speed must be a finite number in (0, 212.132], got {speed!r}"
        with pytest.raises(ValueError, match=r"^rv must be a finite number in \(0, 212\.132\], got "):
            SimConfig(rv=speed)

    def test_the_bound_itself_is_accepted(self):
        assert random_target_state(triangle_graph(), MAX_SPEED, np.random.default_rng(0)).speed == MAX_SPEED
        assert SimConfig(rv=MAX_SPEED).rv == MAX_SPEED

    def test_placement_is_uniform(self):
        g = triangle_graph()
        rng = np.random.default_rng(9)
        n = 3000
        edge_counts = [0, 0, 0]
        offset_fracs = []
        heading_v = 0
        for _ in range(n):
            s = random_target_state(g, 0.25, rng)
            edge_counts[s.edge] += 1
            offset_fracs.append(s.offset / g.edges[s.edge][2])
            heading_v += s.toward == g.edges[s.edge][1]
        for c in edge_counts:
            assert abs(c / n - 1.0 / 3.0) < 0.03
        assert abs(np.mean(offset_fracs) - 0.5) < 0.03
        assert abs(heading_v / n - 0.5) < 0.03


class TestTargetPoint:
    def test_endpoints_and_midpoint(self):
        g = triangle_graph()
        # heading from vertex 0 toward vertex 1 along edge 0
        assert target_point(g, TargetState(0, 1, 0.0, 0.5)) == Point(0.0, 0.0)
        assert target_point(g, TargetState(0, 1, 10.0, 0.5)) == Point(10.0, 0.0)
        assert target_point(g, TargetState(0, 1, 5.0, 0.5)) == Point(5.0, 0.0)
        # same edge, opposite heading
        assert target_point(g, TargetState(0, 0, 2.5, 0.5)) == Point(7.5, 0.0)

    def test_invalid_states_rejected(self):
        g = triangle_graph()
        with pytest.raises(ValueError, match="not an endpoint"):
            target_point(g, TargetState(0, 2, 1.0, 0.5))
        with pytest.raises(ValueError, match="outside"):
            target_point(g, TargetState(0, 1, 10.5, 0.5))
        with pytest.raises(ValueError, match="outside"):
            target_point(g, TargetState(0, 1, -0.1, 0.5))

    @pytest.mark.parametrize("toward", [0, 2])
    @pytest.mark.parametrize(
        "call",
        [
            target_point,
            lambda g, s: predict_target(g, s, 3),
            lambda g, s: step_target(g, s, np.random.default_rng(0)),  # 31 + 1 passes the edge's end
        ],
        ids=["target_point", "predict_target", "crossing-step_target"],
    )
    def test_a_negative_edge_index_is_rejected(self, call, toward):
        # edge -1 read the graph's last edge, (0, 2), whose ends both headings name;
        # an index at or past the table's end raised IndexError, crossing or not
        g = triangle_graph()
        for edge in (-1, len(g.edges), len(g.edges) + 5):
            with pytest.raises(ValueError, match=f"heads toward vertex {toward}, not an endpoint of edge {edge}$"):
                call(g, TargetState(edge, toward, 31.0, 1.0))


class TestStepTarget:
    def test_plain_advance(self):
        g = triangle_graph()
        s = step_target(g, TargetState(0, 1, 3.0, 0.5), np.random.default_rng(0))
        assert s == TargetState(0, 1, 3.5, 0.5)

    def test_crossing_carries_residual(self):
        # 9.8 + 0.5 on a length-10 edge leaves 0.3 on the next edge
        g = triangle_graph()
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = step_target(g, TargetState(0, 1, 9.8, 0.5), rng)
            assert s.edge in g.adjacency[1]
            u, v = g.edges[s.edge][:2]
            assert s.toward in (u, v) and s.toward != 1
            assert abs(s.offset - 0.3) < 1e-12

    def test_arrival_edge_can_be_rechosen(self):
        # the walk may turn back onto the edge it arrived on
        g = triangle_graph()
        rng = np.random.default_rng(1)
        seen_edges = {step_target(g, TargetState(0, 1, 9.9, 0.5), rng).edge for _ in range(100)}
        assert seen_edges == set(g.adjacency[1])

    def test_multiple_crossings_in_one_step(self):
        verts = [Point(0.0, 0.0), Point(0.3, 0.0), Point(0.15, 0.26)]
        g = PlanarGraph.from_index_pairs(verts, [(0, 1), (1, 2), (0, 2)])
        rng = np.random.default_rng(3)
        s = TargetState(0, 1, 0.0, 1.0)
        for _ in range(200):
            before = target_point(g, s)
            s = step_target(g, s, rng)
            u, v, length = g.edges[s.edge][:3]
            assert 0.0 <= s.offset <= length
            assert s.toward in (u, v)
            assert math.dist(before, target_point(g, s)) <= s.speed + 1e-9

    def test_displacement_never_exceeds_speed(self):
        g = generate_random_graph(15, 4)
        rng = np.random.default_rng(5)
        s = random_target_state(g, 0.9, rng)
        for _ in range(2000):
            before = target_point(g, s)
            s = step_target(g, s, rng)
            assert math.dist(before, target_point(g, s)) <= 0.9 + 1e-9

    @pytest.mark.parametrize(
        "offset, speed, message",
        [
            (9.8, math.inf, r"target speed must be a finite number in \(0, 212\.132\], got inf"),
            (9.8, 1e300, r"target speed must be a finite number in \(0, 212\.132\], got 1e\+300"),
            (1e300, 0.5, r"offset 1e\+300 outside \[0, 10\.0\] on edge 0"),
        ],
        ids=["inf-speed", "1e300-speed", "1e300-offset"],
    )
    def test_a_crossing_from_an_unbounded_state_raises(self, offset, speed, message):
        # each of these looped forever: offset -= length no longer changed offset
        with time_limit(10), pytest.raises(ValueError, match=message):
            step_target(triangle_graph(), TargetState(0, 1, offset, speed), np.random.default_rng(0))

    def test_a_crossing_heading_off_its_edge_raises(self):
        # the crossing took an edge at vertex 2, which edge 0 = (0, 1) does not touch
        with pytest.raises(ValueError, match="heads toward vertex 2, not an endpoint of edge 0"):
            step_target(triangle_graph(), TargetState(0, 2, 9.8, 0.5), np.random.default_rng(0))

    def test_the_step_bound_itself_is_accepted(self):
        g = triangle_graph()
        with time_limit(10):
            s = step_target(g, TargetState(0, 1, 10.0, MAX_SPEED), np.random.default_rng(0))
        assert 0.0 <= s.offset <= g.edges[s.edge][2]

    def test_edges_below_the_rounding_of_the_offset_raise(self):
        # offset -= 1e-300 leaves 1.0 unchanged: uncapped, the crossing loop would never end
        verts = [Point(0.0, 0.0), Point(1e-300, 0.0), Point(0.0, 1e-300)]
        g = PlanarGraph.from_index_pairs(verts, [(0, 1), (1, 2), (0, 2)])
        message = f"step at speed 1.0 crosses more than {MAX_CROSSINGS} vertices"
        with time_limit(10), pytest.raises(ValueError, match=message):
            step_target(g, TargetState(0, 1, 0.0, 1.0), np.random.default_rng(0))

    def test_a_step_within_the_crossing_cap_is_accepted(self):
        # edges twice the length the cap allows: about MAX_CROSSINGS / 2 crossings at the top speed
        side = 2 * MAX_SPEED / MAX_CROSSINGS
        verts = [Point(0.0, 0.0), Point(side, 0.0), Point(side / 2, side * math.sqrt(3) / 2)]
        g = PlanarGraph.from_index_pairs(verts, [(0, 1), (1, 2), (0, 2)])
        with time_limit(10):
            s = step_target(g, TargetState(0, 1, 0.0, MAX_SPEED), np.random.default_rng(0))
        assert 0.0 <= s.offset < g.edges[s.edge][2]

    def test_edge_choice_uniform_at_vertex(self):
        # force 10k arrivals at the hub of a 6-spoke wheel; each of its 6
        # incident edges should be taken about equally often
        k = 6
        g = wheel_graph(k)
        hub_incident = list(g.adjacency[0])
        assert len(hub_incident) == k
        arrival = g.adjacency[0][0]
        length = g.edges[arrival][2]
        rng = np.random.default_rng(6)
        n = 10_000
        counts = dict.fromkeys(hub_incident, 0)
        for _ in range(n):
            s = TargetState(arrival, 0, length - 0.25, 0.5)
            counts[step_target(g, s, rng).edge] += 1
        expected = n / k
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < stats.chi2.ppf(0.99, k - 1)
        for c in counts.values():
            assert abs(c / n - 1.0 / k) < 0.02


class TestStepObserver:
    def test_unit_step_toward_destination(self):
        s = step_observer(ObserverState(Point(0.0, 0.0), Point(10.0, 0.0)))
        assert s.position == Point(1.0, 0.0)
        assert s.destination == Point(10.0, 0.0)

    def test_snap_on_arrival(self):
        s = step_observer(ObserverState(Point(0.0, 0.0), Point(0.4, 0.3)))
        assert s.position == Point(0.4, 0.3)

    def test_holds_at_destination(self):
        s = step_observer(ObserverState(Point(2.0, 2.0), Point(2.0, 2.0)))
        assert s.position == Point(2.0, 2.0)

    def test_diagonal_step_has_unit_length(self):
        s = step_observer(ObserverState(Point(0.0, 0.0), Point(30.0, 40.0)))
        assert math.isclose(math.hypot(*s.position), 1.0, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "position, destination",
        [
            ((0.0, 0.0), (math.inf, 0.0)),
            ((0.0, 0.0), (5.0, math.nan)),
            ((-1e308, 0.0), (1e308, 0.0)),  # the gap overflows to inf
        ],
        ids=["inf-destination", "nan-destination", "overflowing-gap"],
    )
    def test_a_gap_that_is_not_finite_raises(self, position, destination):
        # each gave a nan position
        with pytest.raises(ValueError, match="observer gap from .* is not finite"):
            step_observer(ObserverState(position, destination))


class TestObserverStateBuild:
    """ObserverState's own __init__ sets the two slots directly, skipping the
    frozen dataclass's object.__setattr__: it must still be a frozen value."""

    def test_is_a_value_built_by_position_or_keyword(self):
        position, destination = (1.5, 2.0), Point(3.0, 4.0)
        built = ObserverState(position, destination)
        assert built.position is position and built.destination is destination
        assert built == ObserverState(destination=Point(3.0, 4.0), position=(1.5, 2.0))
        assert hash(built) == hash(ObserverState((1.5, 2.0), (3.0, 4.0)))
        assert built != ObserverState(destination, position)
        assert repr(built) == "ObserverState(position=(1.5, 2.0), destination=Point(x=3.0, y=4.0))"

    def test_takes_exactly_the_two_fields(self):
        with pytest.raises(TypeError):
            ObserverState((1.5, 2.0))
        with pytest.raises(TypeError):
            ObserverState((1.5, 2.0), (3.0, 4.0), (5.0, 6.0))
        with pytest.raises(TypeError):
            ObserverState(position=(1.5, 2.0), target=(3.0, 4.0))

    def test_is_frozen(self):
        built = ObserverState((1.5, 2.0), (3.0, 4.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.position = (0.0, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.destination = (0.0, 0.0)
        with pytest.raises((AttributeError, TypeError)):
            built.speed = 1.0

    def test_replace_builds_a_new_state(self):
        built = ObserverState((1.5, 2.0), (3.0, 4.0))
        moved = dataclasses.replace(built, position=(2.5, 2.0))
        assert moved == ObserverState((2.5, 2.0), (3.0, 4.0))
        assert built.position == (1.5, 2.0)

    @pytest.mark.parametrize("destination", [Point(10.0, 0.0), Point(0.6, 0.8), Point(0.0, 0.0)])
    def test_step_observer_returns_observer_states(self, destination):
        state = ObserverState(Point(0.0, 0.0), destination)
        for _ in range(3):
            state = step_observer(state)
            assert type(state) is ObserverState


class TestLegTable:
    """Each edge carries its ends and its delta, which target_point reads."""

    @pytest.mark.parametrize("n", [3, 10, 40, 100])
    def test_every_edge_carries_its_ends_and_delta(self, n):
        for seed in range(5):
            g = generate_random_graph(n, seed)
            for e in g.edges:
                # an exact tuple of exact ints and floats: the hot path's
                # unpacking and indexing are specialised only for those
                assert type(e) is tuple and len(e) == 9
                assert [type(x) for x in e] == [int, int] + [float] * 7
                u, v, length, ux, uy, vx, vy, ex, ey = e
                assert (ux, uy) == g.vertices[u] and (vx, vy) == g.vertices[v]
                assert (ex.hex(), ey.hex()) == ((vx - ux).hex(), (vy - uy).hex())
                assert length.hex() == math.dist(g.vertices[u], g.vertices[v]).hex()

    def test_keeps_the_sign_of_a_zero_coordinate(self):
        # Both ends of edge 0 sit at x = -0.0 and both ends of edge 3 at y = -0.0:
        # an inline -0.0 - -0.0 is 0.0, so a position on them has that coordinate 0.0.
        verts = [Point(-0.0, 0.0), Point(-0.0, 10.0), Point(5.0, -0.0), Point(-5.0, -0.0)]
        g = PlanarGraph.from_index_pairs(verts, [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)])
        assert (g.edges[0][7].hex(), g.edges[3][8].hex()) == ("0x0.0p+0", "0x0.0p+0")
        for edge, (u, v, length, *_) in enumerate(g.edges):
            for toward in (u, v):
                for offset in (0.0, length / 3, length):
                    s = TargetState(edge, toward, offset, 1.0)
                    assert _hex(target_point(g, s)) == _hex(target_point_scalar(g.vertices, g.edges, s))


class TestPredictTarget:
    def test_horizon_zero_matches_current_position(self):
        g = generate_random_graph(12, 7)
        rng = np.random.default_rng(8)
        for _ in range(100):
            s = random_target_state(g, 0.5, rng)
            assert predict_target(g, s, 0) == target_point(g, s)

    def test_advances_along_edge(self):
        g = triangle_graph()
        assert predict_target(g, TargetState(0, 1, 5.0, 0.5), 4) == Point(7.0, 0.0)

    def test_held_at_vertex_beyond_edge_end(self):
        g = triangle_graph()
        # 5.0 + 0.5 * 20 = 15 > 10: projection stops at vertex 1
        assert predict_target(g, TargetState(0, 1, 5.0, 0.5), 20) == Point(10.0, 0.0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            predict_target(triangle_graph(), TargetState(0, 1, 5.0, 0.5), -1)

    @pytest.mark.parametrize("offset", [-1.0, 15.0, math.nan])
    @pytest.mark.parametrize("horizon", [0, 3])
    def test_offset_off_the_edge_rejected(self, offset, horizon):
        # an offset past the end was clamped to the vertex, and a negative one
        # projected onto the edge, where target_point rejects both states
        s = TargetState(0, 1, offset, 0.5)
        with pytest.raises(ValueError, match=r"outside \[0, 10\.0\] on edge 0"):
            target_point(triangle_graph(), s)
        with pytest.raises(ValueError, match=r"outside \[0, 10\.0\] on edge 0"):
            predict_target(triangle_graph(), s, horizon)


@lru_cache(maxsize=1)
def _property_graph() -> PlanarGraph:
    return generate_random_graph(15, 100)


@settings(max_examples=150, deadline=None)
@given(
    edge=st.integers(min_value=0, max_value=10_000),
    frac=st.floats(min_value=0.0, max_value=1.0),
    head=st.booleans(),
    speed=st.floats(min_value=0.01, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_step_target_preserves_invariants(edge, frac, head, speed, seed):
    g = _property_graph()
    ei = edge % len(g.edges)
    u, v, length = g.edges[ei][:3]
    s = TargetState(ei, v if head else u, frac * length, speed)
    before = target_point(g, s)
    after = step_target(g, s, np.random.default_rng(seed))
    u, v, length = g.edges[after.edge][:3]
    assert 0.0 <= after.offset <= length
    assert after.toward in (u, v)
    assert after.speed == speed
    assert math.dist(before, target_point(g, after)) <= speed + 1e-9


def _short_edge_graph() -> PlanarGraph:
    """A triangle of 0.3-unit edges: a unit step crosses several vertices."""
    verts = [Point(0.0, 0.0), Point(0.3, 0.0), Point(0.15, 0.26)]
    return PlanarGraph.from_index_pairs(verts, [(0, 1), (1, 2), (0, 2)])


def _hex(point) -> tuple[str, str]:
    return tuple(float(c).hex() for c in point)


def _plain_pair(point) -> bool:
    """A plain tuple of two floats, not a Point: the hot path builds no Points."""
    return type(point) is tuple and len(point) == 2 and all(type(c) is float for c in point)


@settings(max_examples=300, deadline=None)
@given(
    which=st.sampled_from(["random", "short", "wheel"]),
    edge=st.integers(min_value=0, max_value=10_000),
    frac=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    head=st.booleans(),
    speed_frac=st.floats(min_value=1e-6, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_target_world_step_equals_the_scalar_oracle(which, edge, frac, head, speed_frac, seed):
    g = {"random": _property_graph, "short": _short_edge_graph, "wheel": lambda: wheel_graph(6)}[which]()
    longest = max(e[2] for e in g.edges)
    ei = edge % len(g.edges)
    u, v, length = g.edges[ei][:3]
    # frac 1.0 puts the target exactly on the vertex it heads toward; step_target
    # takes no speed above MAX_SPEED, and the short edges still cross several vertices
    speed = min(speed_frac * longest, MAX_SPEED)
    s = TargetState(ei, v if head else u, length if frac == 1.0 else frac * length, speed)
    plain = (s.edge, s.toward, s.offset, s.speed)
    point = target_point(g, s)
    assert _plain_pair(point)
    assert _hex(point) == _hex(target_point_scalar(g.vertices, g.edges, plain))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        s = step_target(g, s, rng)
        plain = step_target_scalar(g.edges, g.adjacency, plain, oracle_rng)
        # the benchmark's tracer reads the result's edge and toward fields
        assert isinstance(s, TargetState)
        assert (s.edge, s.toward, s.offset.hex(), s.speed.hex()) == (plain[0], plain[1], plain[2].hex(), plain[3].hex())
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        point = target_point(g, s)
        assert _plain_pair(point)
        assert _hex(point) == _hex(target_point_scalar(g.vertices, g.edges, plain))


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=150.0),
    y=st.floats(min_value=0.0, max_value=150.0),
    gap=st.one_of(
        st.just(0.0),
        st.just(1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=3.0),
        st.floats(min_value=3.0, max_value=300.0),
    ),
    angle=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0 * math.pi)),
)
def test_observer_world_step_equals_the_scalar_oracle(x, y, gap, angle):
    position = Point(x, y)
    destination = Point(x + gap * math.cos(angle), y + gap * math.sin(angle))
    states = [ObserverState(position, destination)]
    if gap == 0.0:
        # at rest: the destination itself, and an equal but distinct point
        states += [ObserverState(destination, destination), ObserverState(Point(x, y), destination)]
    for state in states:
        plain = (tuple(state.position), tuple(state.destination))
        for _ in range(3):
            state = step_observer(state)
            plain = step_observer_scalar(*plain)
            assert isinstance(state, ObserverState)
            assert (_hex(state.position), _hex(state.destination)) == (_hex(plain[0]), _hex(plain[1]))


@settings(max_examples=300, deadline=None)
@given(
    which=st.sampled_from(["random", "short", "wheel"]),
    edge=st.integers(min_value=0, max_value=10_000),
    frac=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    head=st.booleans(),
    speed_frac=st.floats(min_value=1e-6, max_value=4.0),
    horizon=st.one_of(st.just(0), st.integers(min_value=1, max_value=30), st.integers(min_value=1000, max_value=10**9)),
)
def test_predict_target_equals_the_scalar_oracle(which, edge, frac, head, speed_frac, horizon):
    g = {"random": _property_graph, "short": _short_edge_graph, "wheel": lambda: wheel_graph(6)}[which]()
    longest = max(e[2] for e in g.edges)
    ei = edge % len(g.edges)
    u, v, length = g.edges[ei][:3]
    # frac 1.0 puts the target exactly on the vertex it heads toward; the
    # large horizons overshoot it, so the projection is held there
    s = TargetState(ei, v if head else u, length if frac == 1.0 else frac * length, speed_frac * longest)
    point = predict_target(g, s, horizon)
    assert _plain_pair(point)
    assert _hex(point) == _hex(predict_target_scalar(g.vertices, g.edges, tuple(s), horizon))
