"""Machine-speed calibration: a fixed kernel timed alongside the workload.

On a shared host the same code runs up to half again as slow from one second
to the next, because other tenants contend for the core, its caches and its
memory. No hardware cycle counter is exposed to the guest, so the benchmark
times a fixed kernel of its own next to the program. The kernel has two
halves, each the kind of work the pipeline spends its time in: a loop of
NumPy calls on 6x6 matrices (interpreter and per-call overhead, which a busy
sibling core slows), and a Python loop over floats scattered through a few
megabytes of heap (cache misses, which a neighbour thrashing the shared
cache slows). The kernel is part of the benchmark and never changes with
the program.

While the workload runs, an interval timer interrupts it every ``INTERVAL_S``
of wall time and runs the kernel once, in the same thread, so the kernel
samples the host's speed evenly over the workload's own time. The workload's
timings exclude the time spent in the kernel (``Speed.clock``).

Every timing the benchmark reports is in reference seconds: wall seconds
multiplied by ``sum(REFERENCE_HALVES_S) / mean kernel time`` of the same
run. A change to the program moves the program's time but not the kernel's,
so it shows in full; a slow spell of the host moves both, and cancels.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
from time import perf_counter

import numpy as np

# Round figures near the two halves' times on a 2-core Intel Xeon (2.1 GHz)
# guest with one OpenBLAS thread, while a workload runs.
REFERENCE_HALVES_S = (0.0005, 0.0005)

# Wall time between two kernel runs while the workload runs: about 5% of it.
INTERVAL_S = 0.02

_MATRIX = np.random.default_rng(12345).standard_normal((6, 6))
_EYE = np.eye(6)

# 150k float objects allocated in order, listed in shuffled order: ~5 MB of
# heap, past the per-core caches. Each tick reads 1500 of them at random.
# Between ticks the workload's and the host's memory traffic push them out of
# cache, and the reads take about as long as the NumPy half.
_shuffle = random.Random(12345)
_HEAP = [float(k) for k in range(150_000)]
_shuffle.shuffle(_HEAP)
_WALK = _shuffle.sample(range(len(_HEAP)), 1500)


def tick() -> tuple[float, float]:
    """The kernel, run once; the wall times of its two halves."""
    start = perf_counter()
    for _ in range(30):
        product = _MATRIX @ _MATRIX.T
        np.linalg.solve(product + _EYE, _MATRIX[0])
        np.abs(product).max()
    middle = perf_counter()
    total = 0.0
    for k in _WALK:
        total += _HEAP[k]
    return middle - start, perf_counter() - middle


class Speed:
    """Kernel times of one run, and a clock that leaves them out."""

    def __init__(self):
        for _ in range(20):
            tick()  # warm the interpreter's caches
        self.ticks: list[tuple[float, float]] = []
        self._spent = 0.0  # wall time spent in the kernel so far

    def sample(self) -> tuple[float, float]:
        """Run the kernel once now; return its halves' wall times."""
        start = perf_counter()
        halves = tick()
        self._spent += perf_counter() - start
        self.ticks.append(halves)
        return halves

    def clock(self) -> float:
        """Wall time without the time spent in the kernel."""
        while True:
            spent = self._spent
            now = perf_counter()
            if spent == self._spent:  # no kernel run slipped in between
                return now - spent

    @contextlib.contextmanager
    def sampling(self):
        """Run the kernel every ``INTERVAL_S`` of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def halves_s(self) -> list[float]:
        """Mean time of each half over the run."""
        return [statistics.fmean(half) for half in zip(*self.ticks)]

    @property
    def scale(self) -> float:
        """Factor from wall seconds to reference seconds."""
        return sum(REFERENCE_HALVES_S) / sum(self.halves_s)


def numpy_scale(times: list[float]) -> float:
    """Factor from wall to reference seconds by the NumPy half alone.

    For work in another process: the heap half, run back to back in an idle
    process, stays in cache and does not see the host."""
    return REFERENCE_HALVES_S[0] / statistics.fmean(times)
