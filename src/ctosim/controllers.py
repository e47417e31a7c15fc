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

from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from math import isfinite
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
        points = chain(self.observer_points, self.current_destinations, self.target_eval_points)
        try:  # unpacking raises for a point that is not a pair; isfinite for an int beyond float range
            finite = all([isfinite(x) and isfinite(y) for x, y in points])
        except (ValueError, TypeError, OverflowError):
            finite = False
        if not finite:
            raise ValueError("observer points, destinations and target points must be finite (x, y) pairs")


def _rows_to_points(rows: np.ndarray) -> list[Point]:
    # rows is always (N, 2): Point._make's frame and length check add nothing
    return list(map(tuple.__new__, repeat(Point, len(rows)), rows.tolist()))


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
    pair_target, pair_observer = ((nearest[0] + nearest[1]).T <= sr * sr).nonzero()
    starts = np.empty(len(pair_target), dtype=bool)
    starts[:1] = True
    np.not_equal(pair_target[1:], pair_target[:-1], out=starts[1:])
    dx = by_coord[0, pair_observer]
    dx -= targets[pair_target, 0, None]
    dx *= dx
    dy = by_coord[1, pair_observer]
    dy -= targets[pair_target, 1, None]
    dy *= dy
    dx += dy
    seen = np.packbits(dx <= sr * sr, axis=1)  # sets eight to a byte: the OR loops over bytes
    covered = np.bitwise_or.reduceat(seen, starts.nonzero()[0], axis=0)
    return np.unpackbits(covered, axis=1, count=len(sets)).sum(axis=0)


def _hc_family(
    inp: ControlInput, eval_points: Sequence, n_candidates: int, use_dispersion: bool
) -> list[Point]:
    _rules.integer("n_candidates", n_candidates, 1)
    base = points_array(inp.current_destinations)
    targets = points_array(eval_points)

    # The incumbent first: argmax returns the first of equal counts, so a
    # candidate is adopted only by strictly more coverage.
    sets = np.empty((n_candidates + 1,) + base.shape)
    sets[0] = base
    # clip(base + U[-PERTURB_MAG, PERTURB_MAG), 0, ARENA) in place, as Generator.uniform draws it
    candidates = inp.rng.random(out=sets[1:])
    candidates *= 2.0 * PERTURB_MAG
    candidates -= PERTURB_MAG
    candidates += base
    np.maximum(candidates, 0.0, out=candidates)
    np.minimum(candidates, ARENA[0], out=candidates)  # the arena is square: one scalar bound is exact
    counts = _covered_counts(sets, targets, inp.sr)
    pick = int(counts.argmax())
    if pick == 0 and use_dispersion and len(base) > 1:
        # The incumbent and the candidates that tie it, first to last, in one
        # batch so that every spread has the same arithmetic.
        tied = (counts == counts[0]).nonzero()[0]
        if len(tied) > 1:
            pick = int(tied[mean_pairwise_observer_distance(sets[tied]).argmax()])
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
    centroid. Iteration stops when a round's assignment repeats the previous
    round's, which is Lloyd's fixed point, or after KMEANS_MAX_ITERS rounds.
    """
    if len(inp.target_eval_points) == 0:
        raise ValueError("k-means needs at least one target position")
    pts = points_array(inp.target_eval_points)
    centroids = points_array(inp.observer_points)  # a new array, updated in place
    last = None
    for _ in range(KMEANS_MAX_ITERS):
        assign = np.argmin(squared_distances(pts, centroids), axis=1)
        key = assign.tobytes()
        # a repeat would give the same sums in the same order: the same
        # centroids, bit for bit, in this round and every later one
        if key == last:
            break
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, pts)
        sizes = np.bincount(assign, minlength=len(centroids))
        nonempty = sizes > 0
        centroids[nonempty] = sums[nonempty] / sizes[nonempty, None]
        last = key
    return _rows_to_points(centroids)
