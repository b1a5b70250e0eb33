"""Interpreter speed gauge, so that timings survive a host whose speed drifts.

On a shared machine the speed of a core moves by a quarter or more within a
minute, as neighbours load it.  A fixed slice of generic interpreter work
(dict updates, small frozensets, sums; nothing from ``scvoting``) is timed
between ops.  An op's time multiplied by ``REFERENCE_S`` over the median of
the slice times around it gives its time at reference speed: the speed at
which one slice takes ``REFERENCE_S``.  Both timings slow down together, so
the product cancels the drift while keeping the op's own cost.
"""

from __future__ import annotations

import statistics
import time

# one slice takes about this long on an idle core of the machine the benchmark
# was defined on (2 vCPUs of a shared x86-64 Linux host, CPython 3.11)
REFERENCE_S = 0.002
# slices around each op: two before it and two after it
WINDOW = 4


def _work() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(1500):
        key = i & 255
        table[key] = table.get(key, 0) + i
        group = frozenset(range(i & 15, (i & 15) + 8))
        total += len(group & {3, 5, 7, 11}) + sum(x for x in (i, i >> 1, i >> 2) if x & 1)
    return total + len(sorted(table.values()))


def slice_s() -> float:
    """Wall time of one fixed slice of interpreter work."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


class Gauge:
    """Every slice time taken in one process, in order."""

    def __init__(self):
        self.slices: list[float] = []

    def sample(self, count: int = 1) -> None:
        self.slices.extend(slice_s() for _ in range(count))

    def factor(self, since: int = 0) -> float:
        """Reference seconds per wall second, from the slices since the ``since``-th."""
        return REFERENCE_S / statistics.median(self.slices[since:])


def reference_times(wall: list[float], slices: list[float]) -> list[float]:
    """Scale each wall time by the slices around it.

    Op ``i`` ran between ``slices[i]`` and ``slices[i + 1]``; its window is
    the ``WINDOW`` slices centred on that gap, cut short at either end.
    """
    half = WINDOW // 2
    return [
        took * REFERENCE_S / statistics.median(slices[max(0, i + 1 - half):i + 1 + half])
        for i, took in enumerate(wall)
    ]
