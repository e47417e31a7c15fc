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
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Sequence

import numpy as np

from . import _rules
from .geometry import Point
from .metrics import mean_pairwise_observer_distance, points_array, squared_distances
from .world import ARENA, PlanarGraph, TargetState, predict_target

N_CANDIDATES = 100
#: Largest shift per coordinate of a hill-climb candidate's destinations.
PERTURB_MAG = 10.0
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

    observer_points: tuple[tuple[float, float], ...]
    current_destinations: tuple[Point, ...]
    target_eval_points: tuple[tuple[float, float], ...]
    sr: float
    rng: np.random.Generator

    def __post_init__(self):
        if len(self.observer_points) != len(self.current_destinations):
            raise ValueError("one destination per observer is required")
        if len(self.observer_points) == 0:
            raise ValueError("at least one observer is required")
        _rules.positive("sensor range", self.sr)
        coords = chain(*self.observer_points, *self.current_destinations, *self.target_eval_points)
        try:  # math.isfinite raises OverflowError for an int beyond float range
            finite = all(map(math.isfinite, coords))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("observer points, destinations and target points must be finite")


def _rows_to_points(rows: np.ndarray) -> list[Point]:
    return [Point(x, y) for x, y in rows.tolist()]


def _covered_counts(sets: np.ndarray, targets: np.ndarray, sr: float) -> np.ndarray:
    """Targets covered by each observer set of ``sets`` (S, N, 2), equal to
    ``observation_matrix(sets, targets, sr).any(axis=-2).sum(axis=-1)`` but
    scored only over the (observer, target) pairs that can count.

    A pair is kept when the target lies within sr of the box spanned by that
    observer's rows over all sets. The box's nearest point is measured with
    the kernel's own arithmetic, and rounding is monotone: no row inside the
    box computes a smaller squared distance than the box's nearest point. So
    every count equals the kernel's, bit for bit.
    """
    # coordinate-major (2, N, S): each observer's rows over the sets are one
    # contiguous run per coordinate, for the box and for the pairs below
    by_coord = np.ascontiguousarray(sets.transpose(2, 1, 0))
    # each target's offsets (2, N, M) from the nearest point of each box
    along = targets.T[:, None, :]
    nearest = np.maximum(along, by_coord.min(axis=2)[:, :, None])
    np.minimum(nearest, by_coord.max(axis=2)[:, :, None], out=nearest)
    nearest -= along
    nearest *= nearest
    # (target, observer) pairs in target order, so each target's pairs are
    # one run of rows below; a run starts where the target changes
    pair_target, pair_observer = np.nonzero((nearest[0] + nearest[1]).T <= sr * sr)
    starts = np.ones(len(pair_target), dtype=bool)
    np.not_equal(pair_target[1:], pair_target[:-1], out=starts[1:])
    dx = by_coord[0, pair_observer]
    dx -= targets[pair_target, 0, None]
    dx *= dx
    dy = by_coord[1, pair_observer]
    dy -= targets[pair_target, 1, None]
    dy *= dy
    dx += dy
    seen = dx <= sr * sr
    return np.logical_or.reduceat(seen, np.flatnonzero(starts), axis=0).sum(axis=0)


def _hc_family(
    inp: ControlInput, eval_points: Sequence, n_candidates: int, use_dispersion: bool
) -> list[Point]:
    _rules.integer("n_candidates", n_candidates, 1)
    base = points_array(inp.current_destinations)
    targets = points_array(eval_points)

    # clip(base + offsets, 0, ARENA), in the offsets' buffer
    candidates = inp.rng.uniform(-PERTURB_MAG, PERTURB_MAG, size=(n_candidates,) + base.shape)
    candidates += base
    np.maximum(candidates, 0.0, out=candidates)
    np.minimum(candidates, ARENA, out=candidates)
    # The incumbent first: argmax returns the first of equal counts, so a
    # candidate is adopted only by strictly more coverage.
    sets = np.concatenate([base[None], candidates])
    counts = _covered_counts(sets, targets, inp.sr)
    pick = int(np.argmax(counts))
    if pick == 0 and use_dispersion and len(base) > 1:
        # The incumbent and the candidates that tie it, first to last, in one
        # batch so that every spread has the same arithmetic.
        sets = sets[counts == counts[0]]
        pick = int(np.argmax(mean_pairwise_observer_distance(sets)))
    return _rows_to_points(sets[pick]) if pick else list(inp.current_destinations)


def hc_control(inp: ControlInput, n_candidates: int) -> list[Point]:
    """Hill climbing on coverage alone; ties and regressions keep the
    current destinations."""
    return _hc_family(inp, inp.target_eval_points, n_candidates, use_dispersion=False)


def hc_h_control(inp: ControlInput, n_candidates: int) -> list[Point]:
    """Hill climbing with the dispersion tie-break: coverage first, then
    observer spread among coverage ties."""
    return _hc_family(inp, inp.target_eval_points, n_candidates, use_dispersion=True)


def hc_hp_control(
    inp: ControlInput,
    n_candidates: int,
    horizon: int,
    graph: PlanarGraph,
    target_states: Sequence[TargetState],
) -> list[Point]:
    """hc-h scored against target positions projected ``horizon`` steps ahead.

    With horizon 0 this reduces exactly to hc_h_control on the targets'
    current positions.
    """
    _rules.horizon(horizon)
    predicted = [predict_target(graph, s, horizon) for s in target_states]
    return _hc_family(inp, predicted, n_candidates, use_dispersion=True)


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
