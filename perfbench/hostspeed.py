"""Host-speed normalisation of the benchmark's wall times.

On a shared host the same single-threaded work can take a third longer
from one few-second stretch to the next, and the level can shift for
minutes, so raw wall times of separate runs disagree by more than any
useful bound.  While a :class:`HostSpeed` sampler is installed, a
``SIGALRM`` timer runs a fixed reference probe every :data:`INTERVAL_S`
of wall time.  The probe (a pure-Python loop and a few small numpy
operations, nothing from the program under test) does the same work
every time, so its duration tracks how fast the host runs Python just
then.

A wall time measured over a window ``[start, end]`` is reported as
seconds *at the reference speed*: the probes' own time inside the window
is taken off, and the rest is scaled by ``REFERENCE_PROBE_S`` over the
interquartile mean of the probe times in the window.  Probes take about
2% of the run; a unit of 0.7 s gets some 35 of them.  A change to the
program moves the scaled time exactly as it moves the raw time; a host
that slows down moves the probe too and cancels out.  Calls shorter
than a probe are timed with :meth:`HostSpeed.work_clock`, which stops
while a probe runs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

clock = time.perf_counter

INTERVAL_S = 0.02
REFERENCE_PROBE_S = 4e-4
"""Probe time that defines the reference speed: a round figure near the
probe's median on the shared 2.0 GHz Xeon vCPUs the benchmark was tuned
on.  It sets only the scale of the reported times."""
MIN_PROBES = 5
"""Fewest probes a window's speed is taken from; shorter windows borrow
the probes nearest to them."""

_GRID = np.linspace(0.1, 1.0, 315)
_TABLE = {key: float(key) for key in range(256)}


def probe() -> float:
    """The fixed reference work; returns a value so nothing is elided."""
    acc = 0.0
    for i in range(600):
        acc = acc * 0.999 + _TABLE[i & 255]
    for _ in range(40):
        acc += float(np.sqrt(_GRID * 1.5 + 0.2).max())
    return acc


def _interquartile_mean(values) -> float:
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


class HostSpeed:
    """Samples the probe's duration while installed (a context manager)."""

    def __init__(self):
        self._starts = []
        self._durations = []
        self._probe_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = clock()
        probe()
        duration = clock() - start
        self._starts.append(start)
        self._durations.append(duration)
        self._probe_s += duration

    def work_clock(self) -> float:
        """:data:`clock` without the time spent in probes, for timing
        calls short enough that one probe would distort them."""
        return clock() - self._probe_s

    def __enter__(self) -> "HostSpeed":
        for _ in range(MIN_PROBES):
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(MIN_PROBES):
            self._sample(None, None)

    def burst(self, count: int) -> None:
        """Take ``count`` probes now (for windows spent in a child process,
        which the timer cannot sample)."""
        for _ in range(count):
            self._sample(None, None)

    def _span(self, start: float, end: float) -> tuple:
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_left(self._starts, end)
        return lo, hi

    def factor(self, start: float, end: float,
               min_probes: int = MIN_PROBES) -> float:
        """Reference speed over the host's speed during the window."""
        lo, hi = self._span(start, end)
        missing = min_probes - (hi - lo)
        if missing > 0:
            lo = max(0, lo - (missing + 1) // 2)
            hi = min(len(self._starts), lo + min_probes)
            lo = max(0, hi - min_probes)
        return REFERENCE_PROBE_S / _interquartile_mean(self._durations[lo:hi])

    def seconds(self, start: float, end: float) -> float:
        """The window's wall time without probes, at the reference speed."""
        lo, hi = self._span(start, end)
        work = (end - start) - sum(self._durations[lo:hi])
        return work * self.factor(start, end)

    def median_probe_s(self) -> float:
        return statistics.median(self._durations)
