"""Timing that corrects for the host's changing speed.

On a shared host, other tenants can change the speed of this process by
up to 2x within seconds. That is more than any regression bound worth
having. :class:`HostClock` therefore reads the host's current speed from
a fixed calibration loop. It reads it right before and right after every
timed call, and every :data:`PERIOD_S` during the call from a ``SIGALRM``
handler. :meth:`HostClock.time` reports the call's wall time without the
handler's readings, and the same time scaled to the reference speed:
``seconds * CALIBRATION_REF_S / mean reading``. For a short call the
two readings at its ends decide the scale; for a call of several seconds
the readings taken during it do.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, Dict, List, Tuple, TypeVar

__all__ = ["CALIBRATION_REF_S", "HostClock", "calibration_loop"]

#: the calibration loop's time on the host the bounds were set on
#: (2-core Xeon VM) when no other tenant competed for it
CALIBRATION_REF_S = 0.0006
#: how often a reading is taken during a timed call
PERIOD_S = 0.1

T = TypeVar("T")


def calibration_loop() -> int:
    """Fixed pure-Python work of the compiler's kind (dict updates,
    integer arithmetic), about 0.6 ms on an idle host."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(4000):
        k = (i * 7919) % 509
        table[k] = table.get(k, 0) + i
        acc ^= k
    return acc


class HostClock:
    """Calibration readings plus the timer that takes them."""

    def __init__(self) -> None:
        self.readings: List[Tuple[float, float]] = []   # (start, seconds)
        self._busy = False
        self._old_handler = None

    def sample(self) -> None:
        if self._busy:      # an alarm that lands inside a reading waits
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            calibration_loop()
            self.readings.append((t0, time.perf_counter() - t0))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostClock":
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def time(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``fn``; return its result, its wall time without the
        readings taken during it, and that time at reference speed."""
        self.sample()
        first = len(self.readings)
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        inside = [r for r in self.readings[first:] if t0 <= r[0] < t1]
        self.sample()
        seconds = (t1 - t0) - sum(dt for _, dt in inside)
        host = statistics.fmean(dt for _, dt in self.readings[first - 1:])
        return result, seconds, seconds * CALIBRATION_REF_S / host
