"""Machine-speed sampling, so that timings on a shared host can be compared.

A CPU shared with other tenants runs the same code at speeds that differ by
up to about 1.5x and change every few seconds to minutes.  That swings a
run's timings by more than any bound a regression check could use.

:class:`MachineSpeed` samples that speed for as long as it is active: every
``INTERVAL`` seconds a ``SIGALRM`` handler times a fixed calibration loop
(small-integer list arithmetic and ``Fraction`` sums, the kind of work the
package does) in the process's one thread.  An interval of the run is then
scaled by ``NOMINAL`` over the median calibration time sampled during it
and up to ``MARGIN`` seconds around it, which gives its length in seconds
of a machine on which the calibration loop takes ``NOMINAL`` seconds.  The
calibration code is fixed and does not call the package, so a change to
the package moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.2
MARGIN = 0.5
NOMINAL = 1e-3

_A = [(i * 7919) % 1009 for i in range(56)]
_B = [(i * 104729) % 1009 for i in range(56)]


def calibration() -> Fraction:
    """Fixed work: a product of two polynomials mod 1009, then a
    rational sum of its coefficients."""
    out = [0] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] = (out[i + j] + x * y) % 1009
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(out[i], i)
    return total


class MachineSpeed:
    """Context manager that samples the calibration time every
    ``INTERVAL`` seconds.

    ``spent`` is the time the samples have taken so far; a caller that
    times an interval subtracts the part of it that fell inside the
    interval, then passes the rest to :meth:`seconds` once the run is over,
    when the samples after the interval exist too.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, *_) -> None:
        if self._busy:  # a signal that arrives while sampling is dropped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            calibration()
            end = time.perf_counter()
            self.times.append(start)
            self.durations.append(end - start)
            self.spent += end - start
        finally:
            self._busy = False

    def __enter__(self) -> "MachineSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)``; return its result, its start and
        end, and the sampling time spent inside it."""
        spent, start = self.spent, time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        return result, start, end, self.spent - spent

    def seconds(self, start: float, end: float, spent: float) -> float:
        """Length of the interval ``[start, end]``, less the ``spent``
        sampling time inside it, in seconds at nominal speed."""
        lo = bisect.bisect_left(self.times, start - MARGIN)
        hi = bisect.bisect_right(self.times, end + MARGIN)
        if lo == hi:  # no sample near: take the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        speed = NOMINAL / statistics.median(self.durations[lo:hi])
        return (end - start - spent) * speed

    def median_ms(self) -> float:
        return statistics.median(self.durations) * 1e3
