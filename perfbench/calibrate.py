"""Host-speed reference, sampled while the points run.

This shared 2-core host alternates between fast and slow phases lasting
seconds to tens of seconds (the simulator runs up to about 1.5x slower
in a slow phase), so raw host seconds from two runs of identical work
differ by more than any useful regression bound. :class:`SpeedSampler`
runs a fixed pure-Python reference slice every :data:`PERIOD_S` from an
interval-timer signal, between two bytecodes of the point being timed,
so the slices see the same host phases as the work around them. A
point's host time (less the slices) divided by the mean slice time over
the point, times :data:`REFERENCE_SLICE_S`, is its time at reference
host speed.

The slice mimics the simulator's hot path -- slotted objects allocated
and dropped, dict traffic over a working set of about 10 MB, heap
operations -- which is what makes its speed track the simulator's
across phases. It lives here, in the benchmark, so no change to
``repro`` can change it. The sampler runs no ``repro`` code.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import time
from typing import List, Tuple

#: Host seconds of one reference slice at reference speed (about its
#: median on a 2-core x86_64 host under CPython 3.11.7). Scaling by it
#: keeps normalized times in seconds.
REFERENCE_SLICE_S = 0.002

#: Wall seconds between slices: the sampler costs a few percent.
PERIOD_S = 0.05

_WORKING_SET = 50_000
_SLICE_OPS = 800


class _Node:
    __slots__ = ("key", "weight", "hits")

    def __init__(self, key: int, weight: float):
        self.key = key
        self.weight = weight
        self.hits = 0


class _Reference:
    """Working set the slices walk; built once per sampler."""

    def __init__(self):
        self.table = {(i * 2654435761) & 0xFFFFFF: _Node(i, (i * 7919) % 997)
                      for i in range(_WORKING_SET)}
        self.keys = list(self.table)
        self.cursor = 0

    def slice(self) -> int:
        table, keys = self.table, self.keys
        heap: List[Tuple[float, int, _Node]] = []
        cursor = self.cursor
        acc = 0
        for i in range(_SLICE_OPS):
            cursor = (cursor + 7919) % len(keys)
            node = table[keys[cursor]]
            fresh = _Node(node.key, node.weight + i)
            heapq.heappush(heap, (fresh.weight, i, fresh))
            if len(heap) > 64:
                _, _, old = heapq.heappop(heap)
                node.hits += 1
                acc += old.key
        self.cursor = cursor
        return acc


class SpeedSampler:
    """Times one reference slice every ``period_s`` of wall time.

    An interval timer (``SIGALRM``) runs the slice in the main thread
    between two bytecodes of whatever is running -- the simulator, in
    practice -- so the samples interleave with the measured work at a
    fine grain without a second thread. Use as a context manager. A
    shorter period suits sub-second windows such as an import.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self._reference = _Reference()
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        # The slice's allocations must not trigger a collection of the
        # simulator's heap inside the timed slice: that would charge a
        # large-heap GC pause to host speed. The slice frees everything
        # it allocates by reference counting.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._reference.slice()
            self.durations.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            if collecting:
                gc.enable()

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """``(sampler seconds, mean slowdown)`` over ``[start, end]``.

        The first is the time the slices took inside the window, which
        the caller subtracts from its own measurement. The slowdown is
        the mean slice time relative to :data:`REFERENCE_SLICE_S`,
        taken from the nearest slices when none fell inside the window.
        """
        starts = self.starts
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_right(starts, end)
        spent = sum(self.durations[lo:hi])
        if hi - lo < 2:
            lo, hi = max(0, lo - 2), min(len(starts), hi + 2)
        window = self.durations[lo:hi]
        if not window:
            return spent, 1.0
        return spent, sum(window) / len(window) / REFERENCE_SLICE_S
