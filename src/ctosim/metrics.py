"""Observation bookkeeping: who sees whom, and the time-averaged coverage index.

The quantity optimized throughout is the fraction of targets observed by at
least one observer, averaged over the run. A target counts as observed by an
observer when it lies within the observer's sensor range (closed disc).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .geometry import Point


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
    if sr <= 0.0:
        raise ValueError(f"sensor range must be positive, got {sr}")
    obs = np.asarray(observer_points, dtype=float)
    if obs.ndim < 2:
        obs = obs.reshape(len(obs), 2)
    tgt = np.asarray(target_points, dtype=float).reshape(len(target_points), 2)
    dx = obs[..., 0][..., None] - tgt[:, 0]
    dy = obs[..., 1][..., None] - tgt[:, 1]
    return dx * dx + dy * dy <= sr * sr


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
    arr = np.asarray(points, dtype=float)
    n = arr.shape[-2] if arr.ndim >= 2 else 0
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    iu, jv = _pair_indices(n)
    dx = arr[..., iu, 0] - arr[..., jv, 0]
    dy = arr[..., iu, 1] - arr[..., jv, 1]
    means = np.mean(np.sqrt(dx * dx + dy * dy), axis=-1)
    return float(means) if arr.ndim == 2 else means
