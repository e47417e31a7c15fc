"""Observation bookkeeping: who sees whom, and the time-averaged coverage index.

The quantity optimized throughout is the fraction of targets observed by at
least one observer, averaged over the run. A target counts as observed by an
observer when it lies within the observer's sensor range (closed disc).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from . import _rules
from .geometry import Point


def points_array(points: Sequence[Point] | np.ndarray) -> np.ndarray:
    """Points as a float array of shape (n, 2); an ndarray of shape
    (..., n, 2) passes through as floats.

    A sequence is read coordinate by coordinate with ``np.fromiter``, about
    four times cheaper than ``np.asarray`` for a few dozen points. Raises
    ValueError unless every point has exactly two coordinates.
    """
    if isinstance(points, np.ndarray):
        if points.ndim < 2 or points.shape[-1] != 2:
            raise ValueError(f"points must have shape (..., n, 2), got {points.shape}")
        return points.astype(float, copy=False)
    if set(map(len, points)) - {2}:
        raise ValueError("every point must have exactly two coordinates")
    return np.fromiter(chain.from_iterable(points), float, 2 * len(points)).reshape(len(points), 2)


def squared_distances(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Squared distances of shape (..., N, M) from points (..., N, 2) to
    targets (M, 2): ``dx*dx + dy*dy``, each step rounded once."""
    dx = points[..., 0, None] - targets[:, 0]
    dy = points[..., 1, None] - targets[:, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def observation_matrix(
    observer_points: Sequence[Point] | np.ndarray, target_points: Sequence[Point], sr: float
) -> np.ndarray:
    """Pairwise visibility of targets from observers under sensor range sr.

    Observer points of shape (..., N, 2) against M targets give a boolean
    array of shape (..., N, M): entry (..., k, j) is True when observer k
    sees target j. ``.any(axis=-2).sum(axis=-1)`` counts the observed
    targets of each observer set. The sensing disc is closed: a target
    exactly at distance sr is observed.
    """
    _rules.positive("sensor range", sr)
    return squared_distances(points_array(observer_points), points_array(target_points)) <= sr * sr


def finalize_rho(observed_sum: int, steps: int, n_targets: int) -> float:
    """Normalized coverage index: mean observed-target count over the run,
    divided by the target population. Always in [0, 1]."""
    if steps <= 0:
        raise ValueError("no steps accumulated")
    if n_targets <= 0:
        raise ValueError(f"target population must be positive, got {n_targets}")
    return observed_sum / steps / n_targets


@lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, 1)


def mean_pairwise_observer_distance(points: Sequence[Point] | np.ndarray) -> float | np.ndarray:
    """Mean Euclidean distance over all unordered pairs of points.

    A single set of N points gives a float; a batch of shape (..., N, 2)
    gives one mean per set. A batch of two or more sets may differ from the
    single-set value in the last bit (the sums run in another order), so
    compare like with like.
    """
    arr = points_array(points)
    n = arr.shape[-2]
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    iu, jv = _pair_indices(n)
    dx = arr[..., iu, 0] - arr[..., jv, 0]
    dy = arr[..., iu, 1] - arr[..., jv, 1]
    means = np.mean(np.sqrt(dx * dx + dy * dy), axis=-1)
    return float(means) if arr.ndim == 2 else means
