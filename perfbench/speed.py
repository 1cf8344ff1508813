"""Host-speed probe: turns measured latencies into reference-speed latencies.

The benchmark runs on small VMs of shared machines.  There, the speed of the
same single-threaded code swings between levels about 2x apart, in spells
from about a second to minutes, so raw times of the same program spread far
wider than any useful regression bound.  The probe measures that speed
alongside the program.  While it is active, a SIGALRM handler wakes every
INTERVAL_S of wall time and times LOOP_ROUNDS rounds of a fixed pure-Python
loop that belongs to the benchmark.  The loop allocates no container, so the
garbage collector never runs in it and the program's heap does not change
its cost.

A request's reference-speed latency is its measured latency, less the time
the handler took inside it, scaled by REF_S over the loop's time around it.
That loop time is the median over the samples taken while the request ran,
or over the NEAREST samples closest to its midpoint when fewer fell inside.
REF_S is the loop's time at the fast level of the host the benchmark was
tuned on, so there reference-speed times read as measured times at that
level.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

INTERVAL_S = 0.01
LOOP_ROUNDS = 600
REF_S = 50e-6
NEAREST = 9

_TABLE = {i: 7 * i + 3 for i in range(64)}


def _loop() -> int:
    total = 0
    table = _TABLE
    for i in range(LOOP_ROUNDS):
        total += table[i & 63] * i % 7
    return total


class Probe:
    """Samples the loop's time while active (use as a context manager).

    Interval timers are not inherited across fork, so pool workers the
    program starts are never interrupted.
    """

    def __init__(self) -> None:
        self.at = array("d")  # perf_counter() when each sample ended
        self.cost = array("d")  # the loop's time in that sample
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        _loop()
        ended = time.perf_counter()
        self.at.append(ended)
        self.cost.append(ended - started)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """The loop's median time over REF_S: 1 at the reference speed."""
        return statistics.median(self.cost) / REF_S

    def at_reference_speed(self, sent: float, latency: float) -> float:
        """The latency of a request sent at perf_counter() time sent, less
        the probe's own time inside it, at the reference speed."""
        lo = bisect.bisect_left(self.at, sent)
        hi = bisect.bisect_right(self.at, sent + latency)
        inside = self.cost[lo:hi]
        own = latency - sum(inside)
        if len(inside) < NEAREST:
            middle = bisect.bisect_left(self.at, sent + latency / 2)
            first = min(max(0, middle - NEAREST // 2), max(0, len(self.cost) - NEAREST))
            inside = self.cost[first:first + NEAREST]
        return own * REF_S / statistics.median(inside)
