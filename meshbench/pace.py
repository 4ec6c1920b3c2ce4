"""How fast this host runs right now, sampled all through a round.

This host has spells of half a minute to a few minutes in which everything
runs up to a third faster, long enough to cover whole runs, so raw times of
one commit spread by more than any bound two sets of runs could keep.  A
``Pacer`` times a fixed slice of work (``_slice``: dict updates and numpy
calls on small arrays, nothing of meshprof) every ``INTERVAL_S`` on a
SIGALRM timer, between the program's own bytecodes.  The mean slice time is
the process's pace: since the slices sample the round evenly in time, it
grows with the round's mean time per unit of work, as the round's own time
does.  A slice that took more than ``INTERRUPTED`` times the median was
descheduled part-way, which measures the scheduler rather than the pace; the
mean leaves those out.  run.py scales the round's times by the pace
(``scaled``).

The slices' own time is kept apart (``spent``) so it can be taken out of the
times they fell into.  Only the main thread runs them; a child process does
not inherit the timer.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
INTERRUPTED = 2.0
# Mean slice time on the reference machine (README) in a calm minute.
REFERENCE_S = 0.0019

_SMALL = np.arange(48.0)


def _slice() -> float:
    counts: dict[int, int] = {}
    for i in range(3_750):
        key = (i * 7919) % 211
        counts[key] = counts.get(key, 0) + i
    acc = float(len(counts))
    for i in range(300):
        acc += float(np.add.reduce(_SMALL * i))
    return acc


class Pacer:
    """Times ``_slice`` every ``INTERVAL_S`` from ``start`` until ``stop``."""

    def __init__(self) -> None:
        self.slices: list[float] = []

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        _slice()
        self.slices.append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self) -> float:
        """Seconds spent in slices so far."""
        return sum(self.slices)

    def pace(self) -> float:
        """The mean of the uninterrupted slice times, or REFERENCE_S if no slice ran."""
        if not self.slices:
            return REFERENCE_S
        limit = INTERRUPTED * statistics.median(self.slices)
        return statistics.fmean(t for t in self.slices if t <= limit)


def scaled(seconds: float, pace: float) -> float:
    """``seconds`` as they would read at the reference pace."""
    return seconds * REFERENCE_S / pace
