"""Observer destination controllers.

Four strategies choose where the observers should head next:

* ``kmeans``: destinations are the centroids of a k-means clustering of
  the current target positions, one cluster per observer.
* ``hc``: random-restart hill climbing on the destination vector, adopting
  a perturbed candidate only when it strictly raises the fraction of
  targets covered (candidates are scored as if observers sat at them).
* ``hc-h``: ``hc`` plus a dispersion heuristic; among candidates that tie
  the current coverage, the most spread-out one (greatest mean pairwise
  distance) is adopted if it strictly beats the incumbent's spread.
* ``hc-hp``: ``hc-h`` scored against projected target positions a fixed
  horizon ahead instead of current ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .geometry import Point
from .metrics import mean_pairwise_observer_distance, observation_matrix
from .world import PlanarGraph, TargetState, predict_target

DEFAULT_PERTURB_MAG = 10.0
KMEANS_MAX_ITERS = 50
KMEANS_TOL = 1e-6


class ControllerKind(Enum):
    KMEANS = "kmeans"
    HC = "hc"
    HC_H = "hc-h"
    HC_HP = "hc-hp"

    @classmethod
    def parse(cls, label: str) -> "ControllerKind":
        for kind in cls:
            if kind.value == label:
                return kind
        raise ValueError(f"unknown controller {label!r}; expected one of "
                         f"{', '.join(k.value for k in cls)}")


@dataclass(frozen=True)
class ControlInput:
    """Everything a controller may look at when choosing destinations."""

    observer_points: tuple[Point, ...]
    current_destinations: tuple[Point, ...]
    target_eval_points: tuple[Point, ...]
    sr: float
    arena: tuple[float, float]
    rng: np.random.Generator

    def __post_init__(self):
        if len(self.observer_points) != len(self.current_destinations):
            raise ValueError("one destination per observer is required")
        if len(self.observer_points) == 0:
            raise ValueError("at least one observer is required")
        if self.sr <= 0.0:
            raise ValueError(f"sensor range must be positive, got {self.sr}")


def _rows_to_points(rows: np.ndarray) -> list[Point]:
    return [Point(float(x), float(y)) for x, y in rows]


def _hc_family(
    inp: ControlInput, n_candidates: int, mag: float, use_dispersion: bool
) -> list[Point]:
    if n_candidates < 1:
        raise ValueError(f"need at least 1 candidate, got {n_candidates}")
    base = np.asarray(inp.current_destinations, dtype=float)
    targets = np.asarray(inp.target_eval_points, dtype=float).reshape(
        len(inp.target_eval_points), 2
    )
    arena = np.asarray(inp.arena, dtype=float)

    offsets = inp.rng.uniform(-mag, mag, size=(n_candidates,) + base.shape)
    candidates = np.clip(base + offsets, 0.0, arena)

    current_count = int(observation_matrix(base, targets, inp.sr).any(axis=0).sum())
    counts = observation_matrix(candidates, targets, inp.sr).any(axis=-2).sum(axis=-1)
    best = int(np.argmax(counts))
    if int(counts[best]) > current_count:
        return _rows_to_points(candidates[best])

    if not use_dispersion or len(inp.current_destinations) < 2:
        return list(inp.current_destinations)

    tied = counts == current_count
    if not bool(tied.any()):
        return list(inp.current_destinations)
    spreads = np.where(tied, mean_pairwise_observer_distance(candidates), -np.inf)
    pick = _rows_to_points(candidates[int(np.argmax(spreads))])
    # Settle the adoption with two single-set calls so the guarantee is exact:
    # a batched mean may differ from a single-set one in the last bit.
    if mean_pairwise_observer_distance(pick) > mean_pairwise_observer_distance(
        inp.current_destinations
    ):
        return pick
    return list(inp.current_destinations)


def hc_control(
    inp: ControlInput, n_candidates: int = 100, mag: float = DEFAULT_PERTURB_MAG
) -> list[Point]:
    """Hill climbing on coverage alone; ties and regressions keep the
    current destinations."""
    return _hc_family(inp, n_candidates, mag, use_dispersion=False)


def hc_h_control(
    inp: ControlInput, n_candidates: int = 100, mag: float = DEFAULT_PERTURB_MAG
) -> list[Point]:
    """Hill climbing with the dispersion tie-break: coverage first, then
    observer spread among coverage ties."""
    return _hc_family(inp, n_candidates, mag, use_dispersion=True)


def hc_hp_control(
    inp: ControlInput,
    n_candidates: int,
    horizon: int,
    graph: PlanarGraph,
    target_states: Sequence[TargetState],
    mag: float = DEFAULT_PERTURB_MAG,
) -> list[Point]:
    """hc-h scored against target positions projected ``horizon`` steps ahead.

    With horizon 0 this reduces exactly to hc_h_control on the targets'
    current positions.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    predicted = tuple(predict_target(graph, s, horizon) for s in target_states)
    return _hc_family(
        replace(inp, target_eval_points=predicted), n_candidates, mag, use_dispersion=True
    )


def kmeans_control(inp: ControlInput) -> list[Point]:
    """Destinations from Lloyd's algorithm over current target positions.

    There is one cluster per observer: centroids start at the observers' own
    positions and each observer is sent to its own centroid, so assignments
    persist across invocations. Clusters left empty keep their previous
    centroid. Iteration stops when no centroid moves more than KMEANS_TOL or
    after KMEANS_MAX_ITERS rounds.
    """
    if len(inp.target_eval_points) == 0:
        raise ValueError("k-means needs at least one target position")
    pts = np.asarray(inp.target_eval_points, dtype=float)
    centroids = np.asarray(inp.observer_points, dtype=float).copy()
    for _ in range(KMEANS_MAX_ITERS):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, pts)
        sizes = np.bincount(assign, minlength=len(centroids))
        moved = centroids.copy()
        nonempty = sizes > 0
        moved[nonempty] = sums[nonempty] / sizes[nonempty, None]
        shift = float(np.sqrt(((moved - centroids) ** 2).sum(axis=1)).max())
        centroids = moved
        if shift < KMEANS_TOL:
            break
    return _rows_to_points(centroids)
