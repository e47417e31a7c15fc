"""Deterministic simulation engine.

A run is fully determined by its SimConfig. The seed is split into four
independent substreams (graph layout, target placement and motion, observer
placement, controller randomness) so that, for a fixed seed, the target
trajectories are identical no matter which controller is being exercised.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .controllers import (
    N_CANDIDATES,
    ControlInput,
    ControllerKind,
    hc_control,
    hc_h_control,
    hc_hp_control,
    kmeans_control,
)
from .geometry import Point
from .metrics import finalize_rho, observation_matrix
from .world import (
    ARENA,
    MAX_VERTICES,
    ObserverState,
    PlanarGraph,
    TargetState,
    generate_random_graph,
    random_target_state,
    step_observer,
    step_target,
    target_point,
)

# Observers and targets per run: sensing and candidate scoring work over
# every (observer, target) pair each step, a million pairs at this cap.
MAX_AGENTS = 1000


class SeedStreams(NamedTuple):
    """The four independent random streams derived from one run seed."""

    graph: np.random.Generator
    targets: np.random.Generator
    observers: np.random.Generator
    controller: np.random.Generator


def derive_streams(seed: int) -> SeedStreams:
    """Split a run seed into the four per-concern generators.

    Each stream is spawned with a fixed key, so drawing from one stream never
    perturbs the others: two runs with the same seed see identical graphs and
    target trajectories even if their controllers consume different amounts
    of randomness.
    """
    return SeedStreams(
        *(
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))
            for key in range(4)
        )
    )


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation run. Defaults follow the
    benchmark setup: a 150 x 150 arena, 1500 steps, 12 observers watching
    24 targets on a 40-vertex graph, with the median parameter settings.
    The arena's size is a constant of the model, not a setting."""

    width: ClassVar[float] = ARENA[0]
    height: ClassVar[float] = ARENA[1]
    steps: int = 1500
    n_observers: int = 12
    n_targets: int = 24
    n_vertices: int = 40
    sr: float = 15.0
    rv: float = 0.5
    ur: float = 0.25
    controller: ControllerKind = ControllerKind.HC_H
    horizon: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("sr", "rv", "ur"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("steps", "n_observers", "n_targets", "n_vertices", "horizon", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not 1 <= self.n_observers <= MAX_AGENTS:
            raise ValueError(f"need 1 to {MAX_AGENTS} observers, got {self.n_observers}")
        if not 1 <= self.n_targets <= MAX_AGENTS:
            raise ValueError(f"need 1 to {MAX_AGENTS} targets, got {self.n_targets}")
        if not 3 <= self.n_vertices <= MAX_VERTICES:
            raise ValueError(f"need 3 to {MAX_VERTICES} graph vertices, got {self.n_vertices}")
        if self.sr <= 0.0:
            raise ValueError(f"sensor range must be positive, got {self.sr}")
        diagonal = math.hypot(self.width, self.height)
        if not 0.0 < self.rv <= diagonal:
            raise ValueError(f"target speed must be in (0, {diagonal:g}], the arena diagonal; got {self.rv}")
        update_period(self.ur)
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        try:  # hc-hp scales the target speed by the horizon in floats
            float(self.horizon)
        except OverflowError:
            raise ValueError("horizon is too large to convert to a float") from None
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.controller, ControllerKind):
            raise ValueError(f"controller must be a ControllerKind, got {self.controller!r}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run: the coverage index plus reproducibility metadata."""

    rho: float
    config: SimConfig
    wall_time: float
    observed_counts: tuple[int, ...] | None = None
    target_trace: tuple[tuple[Point, ...], ...] | None = None


def update_period(ur: float) -> int:
    """Steps between controller invocations for an update rate in (0, 1].

    Raises ValueError for a rate outside (0, 1] or one so small that 1/ur
    overflows to infinity.
    """
    if not 0.0 < ur <= 1.0:
        raise ValueError(f"update rate must be in (0, 1], got {ur}")
    period = 1.0 / ur
    if not math.isfinite(period):
        raise ValueError(f"update rate {ur} is too small: 1/ur is not finite")
    return max(1, int(round(period)))


def _next_destinations(
    cfg: SimConfig,
    graph: PlanarGraph,
    targets: list[TargetState],
    target_pts: tuple[tuple[float, float], ...],
    observers: list[ObserverState],
    rng: np.random.Generator,
) -> list[Point]:
    inp = ControlInput(
        observer_points=tuple(o.position for o in observers),
        current_destinations=tuple(o.destination for o in observers),
        target_eval_points=target_pts,
        sr=cfg.sr,
        rng=rng,
    )
    if cfg.controller is ControllerKind.KMEANS:
        return kmeans_control(inp)
    # The count goes positionally: the benchmark's tracer reads it as args[1].
    if cfg.controller is ControllerKind.HC:
        return hc_control(inp, N_CANDIDATES)
    if cfg.controller is ControllerKind.HC_H:
        return hc_h_control(inp, N_CANDIDATES)
    if cfg.controller is ControllerKind.HC_HP:
        return hc_hp_control(inp, N_CANDIDATES, cfg.horizon, graph, targets)
    raise ValueError(f"unknown controller {cfg.controller!r}")


def run_simulation(
    cfg: SimConfig, record_counts: bool = False, record_targets: bool = False
) -> RunResult:
    """Execute one run and return its coverage index.

    The world advances in lockstep: destinations are refreshed on schedule,
    every target takes one random-walk step, every observer moves toward its
    destination, and the observed-target count is sampled after motion at
    each of t = 1..steps. record_counts keeps the per-step counts and
    record_targets the per-step target positions, for inspection.
    """
    start = time.perf_counter()

    streams = derive_streams(cfg.seed)
    graph = generate_random_graph(cfg.n_vertices, streams.graph)
    targets = [random_target_state(graph, cfg.rv, streams.targets) for _ in range(cfg.n_targets)]
    coords = streams.observers.uniform(0.0, ARENA, size=(cfg.n_observers, 2))
    observers = [ObserverState(Point(float(x), float(y)), Point(float(x), float(y))) for x, y in coords]

    target_pts = tuple([target_point(graph, s) for s in targets])
    period = update_period(cfg.ur)
    target_rng = streams.targets
    observed_sum = 0
    counts: list[int] = []
    trace: list[tuple[Point, ...]] = []
    for t in range(cfg.steps):
        if t % period == 0:
            destinations = _next_destinations(
                cfg, graph, targets, target_pts, observers, streams.controller
            )
            observers = [ObserverState(o.position, d) for o, d in zip(observers, destinations)]
        targets = [step_target(graph, s, target_rng) for s in targets]
        observers = [step_observer(o) for o in observers]
        target_pts = tuple([target_point(graph, s) for s in targets])
        seen = observation_matrix([o.position for o in observers], target_pts, cfg.sr).any(axis=0)
        observed = int(np.count_nonzero(seen))
        observed_sum += observed
        if record_counts:
            counts.append(observed)
        if record_targets:
            trace.append(tuple(map(Point._make, target_pts)))

    return RunResult(
        rho=finalize_rho(observed_sum, cfg.steps, cfg.n_targets),
        config=cfg,
        wall_time=time.perf_counter() - start,
        observed_counts=tuple(counts) if record_counts else None,
        target_trace=tuple(trace) if record_targets else None,
    )
