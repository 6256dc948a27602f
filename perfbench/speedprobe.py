"""Put timings from a noisy shared machine on one scale.

On a shared machine the speed of one core drifts by tens of percent within
seconds, as other tenants load the sibling hyperthread and the caches.  While
an operation runs, a timer signal interrupts it every ``interval`` seconds
and a fixed piece of pure Python work (string building, dict stores, string
compares, integer arithmetic: the package's own kind of inner loop) is
timed.  The operation's time, minus the probes' own time, is scaled by
``PROBE_REF_S`` over the mean probe time, giving reference seconds: the
seconds the operation takes on this interpreter when the probe work takes
``PROBE_REF_S`` (about its time on an idle 2.1 GHz core, so reference and
wall-clock seconds agree on a quiet machine).

The probe runs in the main thread from a signal handler; it starts no
thread or process.
"""

from __future__ import annotations

import signal
from time import perf_counter

PROBE_REF_S = 0.0015
_N = 2000


def _probe_work() -> int:
    table = {}  # bounded, so probing does not raise the peak memory
    acc = 0
    for i in range(_N):
        word = bin(i)[2:]
        table[word[-10:]] = i
        acc += i * i % 7
        if word < "1011" and word.startswith("10"):
            acc += table[word[-10:]] & 3
    return acc


class SpeedProbe:
    """Context manager sampling the interpreter's speed during a block."""

    def __init__(self, interval: float):
        self.interval = interval
        self.spent = 0.0  # seconds spent inside probes so far
        self.probes: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _probe_work()
        dt = perf_counter() - t0
        self.probes.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, since: int = 0) -> float:
        """Reference seconds per wall second, from the probes after index ``since``."""
        recent = self.probes[since:]
        if not recent:
            raise RuntimeError("no speed probe fired; the timed block was too short")
        return PROBE_REF_S * len(recent) / sum(recent)
