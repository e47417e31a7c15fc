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
from typing import NamedTuple

import numpy as np

from .controllers import (
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
    ObserverState,
    PlanarGraph,
    TargetState,
    generate_random_graph,
    random_target_state,
    step_observer,
    step_target,
    target_point,
)

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
    24 targets on a 40-vertex graph, with the median parameter settings."""

    width: float = 150.0
    height: float = 150.0
    steps: int = 1500
    n_observers: int = 12
    n_targets: int = 24
    n_vertices: int = 40
    sr: float = 15.0
    rv: float = 0.5
    ur: float = 0.25
    controller: ControllerKind = ControllerKind.HC_H
    n_candidates: int = 100
    perturb_mag: float = 10.0
    horizon: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("width", "height", "sr", "rv", "ur", "perturb_mag"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("steps", "n_observers", "n_targets", "n_vertices", "n_candidates", "horizon", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.width <= 0.0 or self.height <= 0.0:
            raise ValueError(f"arena must have positive dimensions, got {self.width} x {self.height}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.n_observers < 1:
            raise ValueError(f"need at least 1 observer, got {self.n_observers}")
        if self.n_targets < 1:
            raise ValueError(f"need at least 1 target, got {self.n_targets}")
        if self.n_vertices < 3:
            raise ValueError(f"need at least 3 graph vertices, got {self.n_vertices}")
        if self.sr <= 0.0:
            raise ValueError(f"sensor range must be positive, got {self.sr}")
        diagonal = math.hypot(self.width, self.height)
        if not 0.0 < self.rv <= diagonal:
            raise ValueError(f"target speed must be in (0, {diagonal:g}], the arena diagonal; got {self.rv}")
        if not 0.0 < self.ur <= 1.0:
            raise ValueError(f"update rate must be in (0, 1], got {self.ur}")
        if self.n_candidates < 1:
            raise ValueError(f"need at least 1 candidate, got {self.n_candidates}")
        if self.perturb_mag < 0.0:
            raise ValueError(f"perturbation magnitude must be >= 0, got {self.perturb_mag}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run: the coverage index plus reproducibility metadata."""

    rho: float
    seed: int
    config: SimConfig
    wall_time: float
    observed_counts: tuple[int, ...] | None = None
    target_trace: tuple[tuple[Point, ...], ...] | None = None


def update_period(ur: float) -> int:
    """Steps between controller invocations for an update rate in (0, 1]."""
    if not 0.0 < ur <= 1.0:
        raise ValueError(f"update rate must be in (0, 1], got {ur}")
    return max(1, int(round(1.0 / ur)))


def _next_destinations(
    cfg: SimConfig,
    graph: PlanarGraph,
    targets: tuple[TargetState, ...],
    target_pts: tuple[Point, ...],
    observers: tuple[ObserverState, ...],
    rng: np.random.Generator,
) -> list[Point]:
    inp = ControlInput(
        observer_points=tuple(o.position for o in observers),
        current_destinations=tuple(o.destination for o in observers),
        target_eval_points=target_pts,
        sr=cfg.sr,
        arena=(cfg.width, cfg.height),
        rng=rng,
    )
    if cfg.controller is ControllerKind.KMEANS:
        return kmeans_control(inp)
    if cfg.controller is ControllerKind.HC:
        return hc_control(inp, cfg.n_candidates, mag=cfg.perturb_mag)
    if cfg.controller is ControllerKind.HC_H:
        return hc_h_control(inp, cfg.n_candidates, mag=cfg.perturb_mag)
    return hc_hp_control(
        inp, cfg.n_candidates, cfg.horizon, graph, targets, mag=cfg.perturb_mag
    )


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
    graph = generate_random_graph(cfg.n_vertices, cfg.width, cfg.height, streams.graph)
    targets = tuple(
        random_target_state(graph, cfg.rv, streams.targets)
        for _ in range(cfg.n_targets)
    )
    coords = streams.observers.uniform(
        0.0, np.asarray([cfg.width, cfg.height]), size=(cfg.n_observers, 2)
    )
    observers = tuple(
        ObserverState(Point(float(x), float(y)), Point(float(x), float(y)))
        for x, y in coords
    )

    target_pts = tuple(target_point(graph, s) for s in targets)
    period = update_period(cfg.ur)
    observed_sum = 0
    counts: list[int] = []
    trace: list[tuple[Point, ...]] = []
    for t in range(cfg.steps):
        if t % period == 0:
            destinations = _next_destinations(
                cfg, graph, targets, target_pts, observers, streams.controller
            )
            observers = tuple(
                ObserverState(o.position, d) for o, d in zip(observers, destinations)
            )
        targets = tuple(step_target(graph, s, streams.targets) for s in targets)
        observers = tuple(step_observer(o) for o in observers)
        target_pts = tuple(target_point(graph, s) for s in targets)
        observed = int(
            observation_matrix([o.position for o in observers], target_pts, cfg.sr).any(axis=0).sum()
        )
        observed_sum += observed
        if record_counts:
            counts.append(observed)
        if record_targets:
            trace.append(target_pts)

    return RunResult(
        rho=finalize_rho(observed_sum, cfg.steps, cfg.n_targets),
        seed=cfg.seed,
        config=cfg,
        wall_time=time.perf_counter() - start,
        observed_counts=tuple(counts) if record_counts else None,
        target_trace=tuple(trace) if record_targets else None,
    )
