"""Reference kernel: a fixed measure of how fast the machine runs right now.

On a shared host the same code runs at different speeds from one minute
to the next (other guests contend for the core's caches and its
hyper-thread sibling), by up to half again its fastest time.  A run
therefore times this kernel between its steps (warm, after an untimed
call) and scales the times it reports to reference speed:

    reported = measured * REFERENCE_S / kernel time

so a figure reads as the time the work would take while the kernel takes
REFERENCE_S.  Each step of an untraced visit is scaled by the kernel
times just before and just after it (SpeedProbe.scale_around), so a step
that met a slow stretch is scaled by that stretch's speed; the traced
visits' figures are scaled by the run's median kernel time
(SpeedProbe.scale).

The kernel does the same kinds of work as divmatch's solvers, from code
that is fixed here and shares nothing with divmatch: a heap-based
shortest-path search over an 8 000-node adjacency list (memory-bound
Python objects), a dense 16x16 assignment by successive shortest paths
(Python loops over numpy rows), small-array numpy calls (per-call
overhead), and a tight arithmetic loop that takes about a third of the
kernel's time.  On the host the benchmark was written on, the loop alone
slowed down less than the solvers did and the other three parts more;
their sum tracked the solvers' slow-downs most closely of the kernels
tried, though not exactly (see README.md, "Reference speed").
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
import time

import numpy as np

# A round value within the kernel's times on the 2-vCPU, 2.1 GHz VM the
# benchmark was written on (Python 3.11.7, numpy 2.4.6): over the runs in
# baseline.json the median kernel time of a run was 2.3 to 4.2 ms.  Only
# ratios between commits measured with the same value mean anything.
REFERENCE_S = 0.003

_GRAPH_NODES = 8_000
_GRAPH_DEGREE = 4
_SEARCH_SETTLED = 500
_ASSIGN_N = 16
_LOOP_ITERATIONS = 12_000


def _build():
    rng = random.Random(20260815)
    # node u's arcs as one flat tuple: (head, weight, head, weight, ...)
    graph = [tuple(x for _ in range(_GRAPH_DEGREE)
                   for x in (rng.randrange(_GRAPH_NODES), rng.random()))
             for _ in range(_GRAPH_NODES)]
    gen = np.random.default_rng(20260815)
    return graph, gen.random((_ASSIGN_N, _ASSIGN_N)), gen.random((10, 10))


_GRAPH, _COST, _SMALL = _build()


def _shortest_paths() -> int:
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    settled = 0
    while heap and settled < _SEARCH_SETTLED:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        settled += 1
        arcs = _GRAPH[u]
        for k in range(0, len(arcs), 2):
            v, nd = arcs[k], d + arcs[k + 1]
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled


def _assignment() -> tuple[int, ...]:
    n = _ASSIGN_N
    col_of_row = [-1] * n
    row_of_col = [-1] * n
    pu, pv = np.zeros(n), np.zeros(n)
    for s in range(n):
        dist, prev, done = [math.inf] * n, [s] * n, [False] * n
        red = _COST[s] - pu[s] - pv
        for c in range(n):
            dist[c] = float(red[c])
        while True:
            j = min((dist[c], c) for c in range(n) if not done[c])[1]
            done[j] = True
            if row_of_col[j] < 0:
                break
            r = row_of_col[j]
            red = _COST[r] - pu[r] - pv
            base = dist[j] - float(red[j])
            for c in range(n):
                if not done[c] and base + float(red[c]) < dist[c]:
                    dist[c] = base + float(red[c])
                    prev[c] = r
        dj = dist[j]
        for c in range(n):
            if done[c]:
                pv[c] -= dj - dist[c]
        pu[s] += dj
        while True:
            r = prev[j]
            nxt = col_of_row[r]
            col_of_row[r], row_of_col[j] = j, r
            if r == s:
                break
            j = nxt
    return tuple(col_of_row)


def _small_arrays() -> float:
    total = 0.0
    for i in range(50):
        b = _SMALL + i
        j = int(np.argmin(b[i % 10]))
        total += float(b[:, j].sum()) + float(b[b > 0.5].size)
    return total


def _arithmetic() -> int:
    total = 0
    for i in range(_LOOP_ITERATIONS):
        total += i * i % 7
    return total


PARTS = (("shortest_paths", _shortest_paths), ("assignment", _assignment),
         ("small_arrays", _small_arrays), ("arithmetic", _arithmetic))


def kernel() -> tuple:
    """One fixed unit of reference work; returns its (fixed) result."""
    return tuple(part() for _, part in PARTS)


EXPECTED = kernel()


def time_kernel() -> tuple[float, list[float]]:
    """Wall time of one kernel call, and of each of its parts.

    An untimed call comes first, so the timed one finds its data in the
    caches whatever ran before it, and the time does not depend on how
    much memory the measured program touched.  Fails if the kernel's
    result changed.
    """
    kernel()
    result, times = [], []
    for _, part in PARTS:
        start = time.perf_counter()
        result.append(part())
        times.append(time.perf_counter() - start)
    if tuple(result) != EXPECTED:
        raise RuntimeError("reference kernel returned a different result")
    return math.fsum(times), times


class SpeedProbe:
    """Times the kernel every `every_s` seconds of a run; gives the scale."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples: list[float] = []
        self.part_samples: list[list[float]] = []
        self._next = time.perf_counter()

    def maybe_sample(self) -> float:
        """Time the kernel if `every_s` have passed since the last time.

        Returns the wall time this call took, so callers can leave it out
        of their own timings.
        """
        start = time.perf_counter()
        if start < self._next:
            return 0.0
        total, parts = time_kernel()
        self.samples.append(total)
        self.part_samples.append(parts)
        end = time.perf_counter()
        self._next = end + self.every_s
        return end - start

    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns the run's wall times into reference times."""
        return REFERENCE_S / self.kernel_s()

    def scale_around(self, taken_before: int) -> float:
        """Scale for work that began when `taken_before` samples were taken.

        It uses the last sample before the work and the first one after
        it, so work that met a slow stretch is scaled by that stretch's
        speed.
        """
        around = self.samples[max(0, taken_before - 1):taken_before + 1]
        return REFERENCE_S / statistics.median(around)

    def summary(self) -> dict:
        """Kernel figures of the run, for the report line."""
        return {"kernel_s": self.kernel_s(), "scale": self.scale(),
                "samples": len(self.samples),
                "parts_s": {name: statistics.median(
                    p[k] for p in self.part_samples)
                    for k, (name, _) in enumerate(PARTS)}}


def to_reference(metrics: dict[str, float], scale: float) -> dict[str, float]:
    """Scale the times (names ending in _s) and rates (_per_s) of metrics.

    Counts, ratios and memory are returned unchanged.
    """
    out = {}
    for name, value in metrics.items():
        if name.endswith("_per_s"):
            value = value / scale
        elif name.endswith("_s") or name.endswith(".us_per_augmentation"):
            value = value * scale
        out[name] = value
    return out
