"""The machine's speed during a run, from a fixed pure-Python kernel.

On a shared virtual machine plain Python runs at a speed that changes within
seconds and drifts over minutes (on a 2-vCPU Xeon VM, Python 3.11.7, the
kernel below took between 120 and 270 us at different times of the same
hour, and thread CPU time moved with wall time).  A latency measured at one
moment is therefore not comparable with one measured at another.

The run loop times this kernel in short bursts between the operations, so
the run carries its own record of the machine's speed.  An operation's time
is then scaled to the reference speed, at which the kernel takes
``REFERENCE_S``: its wall time times (``REFERENCE_S`` / k) ** ``SENSITIVITY``,
where k is the median of the ``NEAREST`` kernel timings closest to it, half
before its middle and half after.  Around a short operation these span about
a second; around a long one, the bursts of a few operations on either side.

The tight kernel slows down more than the package's code when the machine
is busy: regressing the log of an operation's time on the log of k, over the
repeats of each operation in one run, gave slopes of 0.5-0.7 on the three
workloads, and comparing runs made in a fast and in a slow period gave about
0.75.  ``SENSITIVITY`` is that slope; with 1 the scaling overshoots and a run
in a slow period reads faster than one in a fast period.  The kernel uses
nothing from ``toyfield``, so a faster package shows as a proportionally
lower scaled time.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import perf_counter

KERNEL_LOOPS = 600
REFERENCE_S = 150e-6  # kernel time that defines the reference speed
SENSITIVITY = 0.75
NEAREST = 300
BURST = 3  # kernel timings per burst after a short operation
MAX_BURST = 100  # after a long one: one kernel timing per SPACING_S, up to this
SPACING_S = 3e-3
EVERY_S = 10e-3  # at most one burst per this much wall time


def kernel() -> int:
    """Dictionary updates and integer arithmetic, about 0.1-0.3 ms."""
    table: dict[int, int] = {}
    total = 0
    for i in range(KERNEL_LOOPS):
        key = i % 61
        table[key] = table.get(key, 0) + i
        total += (i * 7) ^ (total >> 3)
    return total


class Speedometer:
    """Kernel timings taken in bursts, and the scale factor they give."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._last = -float("inf")
        self._cache: dict[tuple[int, int], float] = {}

    def burst(self, size: int | None = None) -> None:
        """Time the kernel ``size`` times; by default as many times as the
        wall time since the last burst calls for."""
        now = perf_counter()
        if size is None:
            if now - self._last < EVERY_S:
                return
            size = min(MAX_BURST, max(BURST, round((now - self._last) / SPACING_S)))
        for _ in range(size):
            start = perf_counter()
            kernel()
            self.starts.append(start)
            self.seconds.append(perf_counter() - start)
        self._last = perf_counter()

    def scale(self, start: float, seconds: float) -> float:
        """Factor that takes the wall time of an operation that started at
        ``start`` and took ``seconds`` to the reference speed."""
        if not self.seconds:
            raise RuntimeError("no kernel timings")
        middle = bisect_left(self.starts, start + seconds / 2)
        lo = max(0, min(middle - NEAREST // 2, len(self.starts) - NEAREST))
        hi = min(len(self.starts), lo + NEAREST)
        if (lo, hi) not in self._cache:
            ratio = REFERENCE_S / statistics.median(self.seconds[lo:hi])
            self._cache[(lo, hi)] = ratio ** SENSITIVITY
        return self._cache[(lo, hi)]

    def summary(self) -> dict:
        return {"kernel_timings": len(self.seconds),
                "kernel_median_us": statistics.median(self.seconds) * 1e6,
                "kernel_min_us": min(self.seconds) * 1e6,
                "kernel_max_us": max(self.seconds) * 1e6}
