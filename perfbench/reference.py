"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same code runs up to twice as slow while neighbours load
the cores. The benchmark times `reference_kernel` right before and right after
each timed request and set-up, and every 20 ms during it, and scales each
stretch of wall time between readings by ``REFERENCE_MS`` over the
reference's mean time at its ends, so a run reports what the request would
take at a fixed host speed. The kernel never calls the library, so on an
idle host the scaling is a constant factor and a change to the library
moves the scaled times as it moves wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Nominal duration of `reference_kernel`, about its time on an idle core of
#: a shared two-vCPU Xeon (2.0 GHz). A time measured while the kernel took
#: ``t`` ms is scaled by ``REFERENCE_MS / t``.
REFERENCE_MS = 1.0

_REF_MATRIX = np.arange(400.0).reshape(20, 20) / 400
_REF_BLOCKS = (np.arange(16 * 64 * 64.0).reshape(16, 64, 64) + 1) / (16 * 64 * 64)


def reference_kernel() -> float:
    """Fixed work in the library's style: small NumPy calls and Python loops.

    Its mix of matrix-vector products, element-wise logs over 64×64 blocks
    and dict updates slows down under the host's contention by about as much
    as each workload's requests do.
    """
    total = 0.0
    for i in range(120):
        total += float((_REF_MATRIX @ _REF_MATRIX[i % 20]).sum())
        for j in range(30):
            total += j * 0.5
    for i in range(30):
        block = _REF_BLOCKS[i % 16]
        total += float((np.log(block) * block).sum(axis=1).min())
    counts: dict[int, int] = {}
    for j in range(1500):
        counts[j % 97] = counts.get(j % 97, 0) + j
    return total


class WallTimer:
    """Times the work inside its ``with`` block in wall time, as ``wall_s``."""

    def __enter__(self) -> WallTimer:
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start


class ScaledTimer:
    """Times the work inside its ``with`` block, reading the reference during it.

    It reads the reference on entry, on exit, and every ``LAP_S`` of wall
    time in between, when a timer signal interrupts the work; the signal
    handler runs between any two Python bytecodes of the main thread, so the
    work needs no hooks. Each segment between readings is scaled by the
    readings at its ends. ``wall_s`` and ``scaled_s`` leave out the readings'
    own time.
    """

    LAP_S = 0.02

    def __enter__(self) -> ScaledTimer:
        self.wall_s = self.scaled_s = 0.0
        self._before = reference_ms()
        self._mark = time.perf_counter()
        self._handler = signal.signal(signal.SIGALRM, lambda signum, frame: self._lap())
        signal.setitimer(signal.ITIMER_REAL, self.LAP_S, self.LAP_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._lap()

    def _lap(self) -> None:
        wall = time.perf_counter() - self._mark
        after = reference_ms()
        self.wall_s += wall
        self.scaled_s += wall * 2 * REFERENCE_MS / (self._before + after)
        self._before, self._mark = after, time.perf_counter()


def reference_ms() -> float:
    """The shorter of two back-to-back timings of `reference_kernel`, in ms."""
    times = []
    for _ in range(2):
        start = time.perf_counter_ns()
        reference_kernel()
        times.append(time.perf_counter_ns() - start)
    return min(times) / 1e6
