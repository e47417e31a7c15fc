"""Deterministic simulation engine.

A run is fully determined by its SimConfig. The seed is split into four
independent substreams, the children of ``SeedSequence(seed).spawn(4)``:
graph layout, target placement and motion, observer placement, controller
randomness. So, for a fixed seed, the graph and the target trajectories
are identical no matter which controller is being exercised. The graph's
stream is drawn inside generate_random_graph, which builds each seed's
graph once and shares it between runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

# The rules are called through their module: the benchmark's tracer wraps
# every ctosim function that the engine imports by name.
from . import _rules
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
from .metrics import observation_matrix
from .world import (
    ARENA,
    MAX_SPEED,
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
        _rules.integer("steps", self.steps, 1)
        _rules.integer("n_observers", self.n_observers, 1, MAX_AGENTS)
        _rules.integer("n_targets", self.n_targets, 1, MAX_AGENTS)
        _rules.integer("n_vertices", self.n_vertices, 3, MAX_VERTICES)
        _rules.positive("sr", self.sr)
        _rules.positive("rv", self.rv, MAX_SPEED)
        update_period(self.ur)
        _rules.horizon(self.horizon)
        _rules.integer("seed", self.seed, 0)
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
    _rules.positive("ur", ur, 1.0)
    period = 1.0 / ur if float(ur) else math.inf  # float(Fraction(1, 10**400)) is 0.0
    if not math.isfinite(period):
        raise ValueError(f"update rate {_rules._shown(ur)} is too small: 1/ur is not finite")
    return round(period)


def _next_destinations(
    cfg: SimConfig,
    graph: PlanarGraph,
    targets: list[TargetState],
    target_pts: tuple[tuple[float, float], ...],
    observers: list[ObserverState],
    rng: np.random.Generator,
) -> list[Point]:
    inp = ControlInput(
        observer_points=tuple([o.position for o in observers]),
        current_destinations=tuple([o.destination for o in observers]),
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
    each of t = 1..steps. The coverage index is ρ = Σₜ observedₜ / steps /
    n_targets, the mean fraction of targets observed, in [0, 1].
    record_counts keeps the per-step counts and record_targets the per-step
    target positions, for inspection.
    """
    start = time.perf_counter()

    # Child 0 is the graph's stream, drawn inside generate_random_graph. Each
    # child is its own stream, so a controller that draws more never shifts
    # the targets' draws.
    target_rng, observer_rng, controller_rng = map(
        np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(4)[1:]
    )
    graph = generate_random_graph(cfg.n_vertices, cfg.seed)
    targets = [random_target_state(graph, cfg.rv, target_rng) for _ in range(cfg.n_targets)]
    coords = observer_rng.uniform(0.0, ARENA, size=(cfg.n_observers, 2))
    observers = [ObserverState(Point(float(x), float(y)), Point(float(x), float(y))) for x, y in coords]

    target_pts = tuple([target_point(graph, s) for s in targets])
    period = update_period(cfg.ur)
    observed_sum = 0
    counts: list[int] = []
    trace: list[tuple[Point, ...]] = []
    for t in range(cfg.steps):
        if t % period == 0:
            destinations = _next_destinations(cfg, graph, targets, target_pts, observers, controller_rng)
            pairs = zip(observers, destinations)  # a kept destination comes back as the same object
            observers = [o if d is o.destination else ObserverState(o.position, d) for o, d in pairs]
        targets = [step_target(graph, s, target_rng) for s in targets]
        observers = [step_observer(o) for o in observers]
        target_pts = tuple([target_point(graph, s) for s in targets])
        seen = np.logical_or.reduce(observation_matrix([o.position for o in observers], target_pts, cfg.sr))
        observed = int(np.count_nonzero(seen))
        observed_sum += observed
        if record_counts:
            counts.append(observed)
        if record_targets:
            trace.append(tuple(map(Point._make, target_pts)))

    return RunResult(
        rho=observed_sum / cfg.steps / cfg.n_targets,
        config=cfg,
        wall_time=time.perf_counter() - start,
        observed_counts=tuple(counts) if record_counts else None,
        target_trace=tuple(trace) if record_targets else None,
    )
