"""A clock that runs at the reference speed of the CPU it is read on.

The vCPUs of a shared VM slow down by a third or more for seconds to
minutes at a time, each on its own, when a neighbour loads the physical
core under them.  Wall time then follows the neighbour as much as the
program.  :data:`CLOCK` measures the speed of the CPU while the work
runs: every :data:`TICK_S` of wall time a ``SIGALRM`` handler times a
fixed chunk of work on the main thread, and the clock advances by
the elapsed wall time divided by the slowdown — the mean of the last
:data:`WINDOW` chunk times over :data:`REF_CHUNK_S`.  On an unloaded
vCPU of the reference machine (2-core VM, Python 3.11) it reads about
wall time; while the vCPU runs at two thirds of its speed, one wall
second reads as two thirds of a second.

The handler costs about 0.5% of a CPU.  Interval timers do not survive
``fork``, so child processes run unsampled: the benchmark keeps the
children whose time it measures on the benchmark's own CPU (see
``run.py``), where the samples describe them too.  Before
:meth:`RefClock.start` and after :meth:`RefClock.stop` the clock reads
plain wall time.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from statistics import fmean

import numpy as np

#: Chunk time in a quiet stretch of the reference machine's vCPU.
REF_CHUNK_S = 42e-6
#: Wall seconds between speed samples.
TICK_S = 0.02
#: Samples in the running mean that sets the current slowdown.
WINDOW = 5
_ARRAY = np.arange(64.0)


def chunk() -> float:
    """The fixed unit of work the clock times: an interpreter loop and
    small-array numpy calls, the mix the workloads spend their time in.
    (Timed alone, either part tracked the workloads' slowdowns less
    well than the two together.)"""
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(200):
        acc += i * 0.5
        table[i & 63] = acc
    for _ in range(6):
        acc += float(np.sqrt(_ARRAY * 1.5 + 2.0).sum())
    return acc + len(table)


class RefClock:
    """Reference-speed seconds; see the module docstring."""

    def __init__(self) -> None:
        self._recent: list[float] = []
        # (wall, reference, slowdown) at the last sample, swapped as one
        # tuple so that a read interrupted by the handler stays coherent.
        self._state: tuple[float, float, float] | None = None
        self._busy = False
        self._previous = None
        self.samples = 0

    def _sample(self) -> tuple[float, float]:
        # A first, untimed pass brings the chunk's code and data back
        # into the caches the work evicted them from.
        chunk()
        start = time.perf_counter()
        chunk()
        end = time.perf_counter()
        self._recent.append(end - start)
        del self._recent[:-WINDOW]
        self.samples += 1
        return end, fmean(self._recent) / REF_CHUNK_S

    def _tick(self, _signum, _frame) -> None:
        if self._busy or self._state is None:
            return
        self._busy = True
        try:
            wall0, ref0, slowdown = self._state
            wall, new_slowdown = self._sample()
            # The interval that just ended runs at the slowdown measured
            # at its start, so the clock is continuous and monotonic.
            self._state = (wall, ref0 + (wall - wall0) / slowdown,
                           new_slowdown)
        finally:
            self._busy = False

    def now(self) -> float:
        state = self._state
        if state is None:
            return time.perf_counter()
        wall0, ref0, slowdown = state
        return ref0 + (time.perf_counter() - wall0) / slowdown

    def start(self) -> None:
        for _ in range(WINDOW):
            wall, slowdown = self._sample()
        self._state = (wall, wall, slowdown)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        if self._state is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._state = None

    @contextmanager
    def running(self):
        self.start()
        try:
            yield self
        finally:
            self.stop()


#: The process's clock: there is one ``SIGALRM`` (and one main thread
#: to run its handler) per process, so one clock.
CLOCK = RefClock()
now = CLOCK.now
