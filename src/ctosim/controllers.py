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

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .geometry import Point
from .metrics import mean_pairwise_observer_distance, points_array, squared_distances
from .world import PlanarGraph, TargetState, predict_target

N_CANDIDATES = 100
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
        if not self.sr > 0.0:
            raise ValueError(f"sensor range must be positive, got {self.sr}")
        if len(self.arena) != 2 or not all(0.0 < size < math.inf for size in self.arena):
            raise ValueError(f"arena must be two finite, positive sizes, got {self.arena}")


def _rows_to_points(rows: np.ndarray) -> list[Point]:
    return [Point(x, y) for x, y in rows.tolist()]


def _covered_counts(
    candidates: np.ndarray,
    base: np.ndarray,
    targets: np.ndarray,
    sr: float,
    mag: float,
    arena: np.ndarray,
) -> np.ndarray:
    """Targets covered by each candidate set, equal to
    ``observation_matrix(candidates, targets, sr).any(axis=-2).sum(axis=-1)``
    but scored only over the (observer, target) pairs that can count.

    ``candidates`` must be ``clip(base + offsets, 0, arena)`` with every
    offset coordinate in [-mag, mag]. Clipping into a box never moves two
    points apart along an axis, so candidate observer k lies within mag·√2
    of ``clip(base_k)``, and a target farther than sr + mag·√2 from that
    centre is out of every candidate's sight. For a base inside the arena
    the centre is the base; for one outside, it is the nearest arena point
    (a reach around the base itself would have to be widened by the base's
    distance outside, since clipping can move a candidate that far). Each
    kept pair is tested with the kernel's own arithmetic, so every count
    equals the kernel's bit for bit.
    """
    # Slack on the reach, from a worst-case rounding bound (u = 2**-53,
    # A = W + H, R = sr + mag·√2). A candidate's computed test passing
    # gives |c - t| <= sr(1 + 3u) + 2**-536 (each squared difference and the
    # sum round once; the last term covers subnormal squares). Rounding
    # base + offset moves a coordinate at most u·A farther, so
    # |c - centre| <= √2·mag + 1.5u·A. The computed pruning test keeps the
    # pair when |centre - t| <= reach(1 - 3u) - 2**-536, and computing
    # mag·√2 and the reach costs 4u·R. Together the reach needs
    # 10u·R + 1.5u·A + 2**-534 above R; 2**-48·(R + A) + 2**-500 is more.
    reach = sr + mag * math.sqrt(2.0)
    reach += 2.0**-48 * (reach + float(arena[0]) + float(arena[1])) + 2.0**-500
    centres = np.clip(base, 0.0, arena)
    # (target, observer) pairs in target order, so each target's pairs are
    # one run of rows below; a run starts where the target changes
    pair_target, pair_observer = np.nonzero(squared_distances(centres, targets).T <= reach * reach)
    starts = np.ones(len(pair_target), dtype=bool)
    np.not_equal(pair_target[1:], pair_target[:-1], out=starts[1:])
    # pairs-major (P, C): each pair's candidates are one contiguous row
    by_observer = np.ascontiguousarray(candidates.transpose(1, 2, 0))
    dx = by_observer[pair_observer, 0]
    dx -= targets[pair_target, 0, None]
    dx *= dx
    dy = by_observer[pair_observer, 1]
    dy -= targets[pair_target, 1, None]
    dy *= dy
    dx += dy
    seen = dx <= sr * sr
    return np.logical_or.reduceat(seen, np.flatnonzero(starts), axis=0).sum(axis=0)


def _hc_family(
    inp: ControlInput, n_candidates: int, mag: float, use_dispersion: bool
) -> list[Point]:
    if n_candidates < 1:
        raise ValueError(f"need at least 1 candidate, got {n_candidates}")
    if not 0.0 <= 2.0 * mag < math.inf:  # the draw spans 2·mag
        raise ValueError(f"perturbation magnitude mag must be >= 0 with 2·mag finite, got {mag}")
    base = points_array(inp.current_destinations)
    targets = points_array(inp.target_eval_points)
    arena = np.asarray(inp.arena, dtype=float)

    # clip(base + offsets, 0, arena), in the offsets' buffer
    candidates = inp.rng.uniform(-mag, mag, size=(n_candidates,) + base.shape)
    candidates += base
    np.maximum(candidates, 0.0, out=candidates)
    np.minimum(candidates, arena, out=candidates)

    current_count = int((squared_distances(base, targets) <= inp.sr * inp.sr).any(axis=0).sum())
    counts = _covered_counts(candidates, base, targets, inp.sr, mag, arena)
    best = int(np.argmax(counts))
    if int(counts[best]) > current_count:
        return _rows_to_points(candidates[best])

    if not use_dispersion or len(base) < 2:
        return list(inp.current_destinations)

    # The incumbent and the tied candidates in one batch, so every spread
    # has the same arithmetic; the incumbent comes first and wins every tie,
    # so a candidate is adopted only by a strictly greater spread.
    tied = candidates[counts == current_count]
    pick = int(np.argmax(mean_pairwise_observer_distance(np.concatenate([base[None], tied]))))
    return _rows_to_points(tied[pick - 1]) if pick else list(inp.current_destinations)


def hc_control(
    inp: ControlInput, n_candidates: int = N_CANDIDATES, mag: float = DEFAULT_PERTURB_MAG
) -> list[Point]:
    """Hill climbing on coverage alone; ties and regressions keep the
    current destinations."""
    return _hc_family(inp, n_candidates, mag, use_dispersion=False)


def hc_h_control(
    inp: ControlInput, n_candidates: int = N_CANDIDATES, mag: float = DEFAULT_PERTURB_MAG
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
    pts = points_array(inp.target_eval_points)
    centroids = points_array(inp.observer_points)
    for _ in range(KMEANS_MAX_ITERS):
        assign = np.argmin(squared_distances(pts, centroids), axis=1)
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
