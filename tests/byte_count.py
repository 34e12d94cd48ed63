"""Count the bytes a piece of code allocates: the deterministic size of
what it keeps.

``tracemalloc`` records every allocation with the frame that made it, and
on one interpreter the sizes repeat exactly, so a budget test can gate on
them where an RSS reading cannot.  ``count_bytes_by_layer`` gives the bytes
still live when the body returns — what it built and keeps, its result
included — bucketed by the ``src/repro/<layer>/`` package of the line that
allocated them (:func:`frame_count.layer_of`), and the peak above the
starting point while it ran.  The collector runs before both readings, so
cyclic garbage is not counted as live.

The table behind a reading, by allocation site, is one line::

    tracemalloc.start(); before = tracemalloc.take_snapshot(); kept = body()
    for stat in tracemalloc.take_snapshot().compare_to(before, "lineno")[:20]: print(stat)
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import Counter
from typing import Callable, Tuple, TypeVar

from frame_count import layer_of

T = TypeVar("T")


def count_bytes_by_layer(body: Callable[[], T]) -> Tuple[T, Counter, int]:
    """``(body(), bytes live after it per layer, peak bytes during it)``.

    Bytes freed inside the body that were allocated before it count
    negative in their layer, so the layers add up to the net growth.
    """
    assert not tracemalloc.is_tracing(), "the body must be the only thing traced"
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        start, _peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = body()
        gc.collect()
        _current, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # The snapshots' own objects are allocated by ``tracemalloc.py``.
    ours = [tracemalloc.Filter(False, tracemalloc.__file__)]
    by_layer: Counter = Counter()
    for stat in after.filter_traces(ours).compare_to(before.filter_traces(ours), "filename"):
        by_layer[layer_of(stat.traceback[0].filename)] += stat.size_diff
    return result, by_layer, peak - start
