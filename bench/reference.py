"""The fixed reference loop that every timed figure is divided by.

Neighbouring processes on a shared host slow the benchmark and this loop
alike, so the ratio of the two repeats far better than either wall time.
The loop imitates the simulator's mix (Python-level arithmetic on small
named tuples, scalar random draws and small numpy broadcasts) but shares
no code with ``ctosim``, so no change to the program moves it.

Do not edit this file: every ``run_ref`` figure ever recorded is a multiple
of this loop's cost, and an edit would silently rescale them all.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

#: Iterations in one chunk; one chunk takes 15 to 25 ms on a 2-core Xeon VM.
CHUNK_ITERS = 100


class _P(NamedTuple):
    x: float
    y: float


def _one_iteration(rng: np.random.Generator, obs: np.ndarray, tgt: np.ndarray) -> int:
    pts = []
    for j in range(24):
        hi = 2 + j % 4
        k = int(rng.integers(hi))
        a = _P(float(j), float(k))
        b = _P(a.x + 0.5, a.y - 0.25)
        pts.append(_P(a.x + 0.3 * (b.x - a.x), a.y + 0.3 * (b.y - a.y)))
    moved = 0
    for i in range(12):
        dx = 3.0 - i
        dy = 1.0 + i
        gap = math.hypot(dx, dy)
        if gap > 1.0:
            moved += 1
    t = np.asarray(pts, dtype=float)
    dx = obs[:, 0][:, None] - t[:, 0][None, :]
    dy = obs[:, 1][:, None] - t[:, 1][None, :]
    seen = int((dx * dx + dy * dy <= 16.0).any(axis=0).sum())
    cand = obs[None, :, :] + tgt[:, None, None, :1]
    cx = cand[..., 0][..., None] - t[:, 0]
    cy = cand[..., 1][..., None] - t[:, 1]
    seen += int((cx * cx + cy * cy <= 16.0).any(axis=-2).sum())
    return seen + moved


def reference_chunk() -> float:
    """Run one fixed chunk of the reference loop; return its wall seconds."""
    rng = np.random.default_rng(12345)
    obs = np.linspace(0.0, 30.0, 24).reshape(12, 2)
    tgt = np.linspace(0.0, 10.0, 40).reshape(20, 2)
    start = time.perf_counter()
    acc = 0
    for _ in range(CHUNK_ITERS):
        acc += _one_iteration(rng, obs, tgt)
    elapsed = time.perf_counter() - start
    if acc <= 0:  # consume the result so no step can be skipped
        raise RuntimeError("reference loop produced no work")
    return elapsed
