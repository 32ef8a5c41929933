"""Scale a wall time to a fixed reference speed of the host.

The benchmark's host is shared: in some intervals the same instructions run
up to 1.6 times slower than in others, for seconds or minutes, while the
process is never descheduled.  Raw wall times of one job therefore spread
too widely to compare two commits.  ``HostSpeed`` measures the host's speed
while the job runs: every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler
times one ``burst``, a fixed piece of pure-Python work (stdlib ``Fraction``
arithmetic and dict updates, no ``gwdesc`` code, so no change to the library
can move it).  The scaled time is

    (wall time - time spent in bursts) * REFERENCE_BURST_S / mean burst time,

the time the job would take on a host that runs one burst in
``REFERENCE_BURST_S``.  The mean, not the median, of the burst times is the
divisor, because the wall time is a sum over the whole interval too.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# one burst in a fast interval on the 2-vCPU Xeon host the benchmark was
# written on; only the ratio of two scaled times means anything
REFERENCE_BURST_S = 0.004
INTERVAL_S = 0.1
# a block too short to be sampled this often is followed by bursts instead
MIN_SAMPLES = 10


def burst() -> Fraction:
    """Fixed work of about 4 ms, shaped like the library's inner loops."""
    table: dict[tuple[int, int], Fraction] = {}
    acc = Fraction(0)
    for i in range(1, 400):
        f = Fraction(i % 17 + 1, i % 13 + 2)
        key = (i % 31, i % 5)
        table[key] = table.get(key, 0) + f * f
        acc += table[key] / (i % 7 + 1)
    return acc


def timed_burst() -> float:
    start = perf_counter()
    burst()
    return perf_counter() - start


class HostSpeed:
    """Sample the host's speed while a ``with`` block runs (main thread only)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.inside_s = 0.0

    def _tick(self, signum, frame) -> None:
        self.samples.append(timed_burst())

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.inside_s = sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(timed_burst())

    @property
    def scaled_s(self) -> float:
        """The block's wall time without its bursts, at the reference speed."""
        return (self.wall_s - self.inside_s) * REFERENCE_BURST_S / statistics.fmean(self.samples)
