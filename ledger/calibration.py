"""The calibration kernel: a fixed workout that measures the machine, not the program."""

from __future__ import annotations

import gc
import heapq
import time
from typing import Dict

#: Seconds the calibration kernel takes when the host is quiet (the
#: development box's fast mode).  The constant only fixes the unit: a speed
#: factor of 1.0 means "as fast as that".
KERNEL_NOMINAL_S = 0.05


class _Record:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0.0


def calibration_kernel() -> float:
    """Host seconds a fixed pure-Python workout takes right now.

    The sandbox's speed drifts by a quarter and more within seconds (identical
    repetitions of one workload measured 1.02-2.27 s over five minutes), far
    beyond any bound worth setting.  The drift is the host's, so it slows
    this workout and the program alike; bracketing every repetition with it
    and dividing gives times at nominal machine speed that repeat to a few
    percent.  Two halves, because the host slows compute-bound and
    allocation-bound code differently and the workloads are a mix: a
    dict-update loop, then building, heapifying and draining 20 000 small
    objects under string keys.  It touches no ``repro`` code and runs with
    the collector off (a collection would scan the program's heap), so a
    change to the program cannot move it.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for index in range(300_000):
        table[index & 1023] = table.get(index & 1023, 0) + index
    records: Dict[str, _Record] = {}
    heap = []
    for index in range(20_000):
        record = _Record(index)
        records[f"tenant{index & 7}/lineitem.{index}"] = record
        heap.append((index * 7919 % 20_000, index, record))
    heapq.heapify(heap)
    while heap:
        _priority, index, record = heapq.heappop(heap)
        record.value = index * 0.5
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed
