"""A fixed reference loop that measures how fast the machine runs right now.

On a shared host the speed of a core drifts by tens of per cent between
ten-second windows, and an op's wall time drifts with it.  The benchmark
runs this loop between ops and divides each op's wall time by the mean of
the two reference times around it; the ratio cancels much of the drift.

The loop is a minimax Dijkstra (a flooding from one corner) over a fixed
128 x 128 grid: dicts, lists, tuples, a set and a heap, with a working set
of a few MB, like the program's own ops.  It never touches the program, so
a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import random
import time

SIZE = 128
_WEIGHTS = [random.Random(0).randrange(256) for _ in range(SIZE * SIZE)]


def _flood() -> int:
    n = SIZE * SIZE
    level = {0: _WEIGHTS[0]}
    heap = [(_WEIGHTS[0], 0)]
    done = set()
    while heap:
        d, i = heapq.heappop(heap)
        if i in done:
            continue
        done.add(i)
        x = i % SIZE
        for j in (i - 1 if x else -1, i + 1 if x + 1 < SIZE else -1, i - SIZE, i + SIZE):
            if 0 <= j < n and j not in done:
                nd = max(d, _WEIGHTS[j])
                if nd < level.get(j, 256):
                    level[j] = nd
                    heapq.heappush(heap, (nd, j))
    return len(done)


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    if _flood() != SIZE * SIZE:
        raise AssertionError("reference loop missed nodes")
    return time.perf_counter() - start
