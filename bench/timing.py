"""Reference-normalised timing: the reference loop runs inside the timed work.

A one-shot ``SIGALRM`` timer interrupts the work every ``period`` seconds
of wall time. Its handler runs one reference chunk in the main thread,
between two bytecodes of whatever the program was doing, and re-arms the
timer. The chunk's wall time is added to ``excluded``, so ``clock()`` is a
work clock: it stops while the reference loop runs. A unit of work is then
measured twice, in work seconds and in reference chunks sampled during it,
and the ratio of the two repeats even when neighbours on the host slow both.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Callable, TypeVar

from reference import reference_chunk

T = TypeVar("T")


class Interleaver:
    """Runs reference chunks between the program's bytecodes; see the module doc."""

    def __init__(self, period: float):
        self.period = period
        self.excluded = 0.0
        self.paused_s = 0.0
        self.chunks: list[float] = []
        self._paused = False
        self._previous = None

    def clock(self) -> float:
        """Wall seconds minus the time spent in reference chunks and pauses."""
        while True:  # a chunk that lands between the two reads forces a retry
            excluded = self.excluded
            now = time.perf_counter()
            if self.excluded == excluded:
                return now - excluded

    def _handler(self, signum, frame) -> None:
        if not self._paused:
            start = time.perf_counter()
            self.chunks.append(reference_chunk())
            self.excluded += time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self) -> "Interleaver":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self.chunks.append(reference_chunk())  # so every unit has a neighbour chunk
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def paused(self):
        """Stop the work clock, and the reference chunks, for a block of
        benchmark-side work such as an output check."""
        start = time.perf_counter()
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            spent = time.perf_counter() - start
            self.excluded += spent
            self.paused_s += spent

    def measure(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """Run ``fn``; return its result, its work seconds, and the median
        reference chunk seen while it ran (the last one before it, if none)."""
        first = len(self.chunks)
        start = self.clock()
        out = fn()
        work = self.clock() - start
        seen = self.chunks[first:] or self.chunks[-1:]
        return out, work, statistics.median(seen)
