"""Machine-speed probe: puts the benchmark's seconds on a fixed speed scale.

A shared host's speed can drift by tens of percent over tens of seconds:
on a shared two-vCPU Xeon virtual machine the same y_ladder pass took 13 s
in one minute and 24 s in the next, with CPU time equal to wall time.  A run
of half a minute cannot average that out.  So while the probe is running,
a SIGALRM handler times a fixed kernel every ``PERIOD_S`` seconds.  The
kernel is code of the benchmark's own, never the package's, so a faster
package cannot speed up the probe.  It mixes a heap-based shortest-path
search with small NumPy operations, as the solver does.

``speed_factor`` turns the seconds measured over a span into seconds at the
reference speed, where one kernel run takes ``REFERENCE_KERNEL_S``.  It
removes the probe's own share of the span and divides by how much slower
than the reference the kernel ran during it.
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
REFERENCE_KERNEL_S = 2.5e-4

# a fixed digraph: 60 nodes, each with arcs to the next 8 (mod 60)
_ARCS = [[((u + d) % 60, float((u * 7 + d * 13) % 17 + 1)) for d in range(1, 9)]
         for u in range(60)]
_VECTOR = np.arange(64.0)


def _kernel() -> float:
    """Shortest paths by heap Dijkstra, then small-array NumPy arithmetic:
    the two kinds of work the solver's flow and position steps do."""
    dist = [math.inf] * 60
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ARCS[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    x = _VECTOR
    for _ in range(30):
        x = np.sqrt(x * x + 1.0)
    return sum(dist) + float(x[0])


class SpeedProbe:
    """Kernel timings sampled on a timer signal while the probe is entered."""

    def __init__(self) -> None:
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Sample index at the start of a span, for ``speed_factor``."""
        return len(self.durations)

    def speed_factor(self, since: int, seconds: float) -> float:
        """Multiplier from the seconds of a span that began at ``mark()`` ==
        ``since`` and lasted ``seconds`` to seconds at the reference speed.
        A span too short to hold a sample uses every sample so far."""
        window = self.durations[since:]
        probe_share = sum(window) / seconds
        speed = REFERENCE_KERNEL_S / statistics.median(window or self.durations)
        return (1.0 - probe_share) * speed
