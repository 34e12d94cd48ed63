"""Metrics used across the paper's evaluation.

* :func:`attribute_waiting_batch` splits each query's blocked time into
  group-switch wait and data-transfer wait by intersecting the client's blocked intervals
  with the device's busy intervals (Figure 9 / Table 3).  The busy log is
  read once, in the order given — for a fleet, each device's own log
  chained in roster order, never a merged and sorted copy.
* :func:`merge_intervals`, :class:`MergedSpans` and :func:`sweep_blocked` are
  the interval algebra behind it — the only one in the tree:
  :mod:`repro.obs.analysis` runs the same sweep over a trace document.
* :func:`stretches`, :func:`l2_norm` and :func:`max_stretch` implement the
  scheduling-theory metrics of Section 5.2.5 (Figure 12): the stretch of a
  query is its observed execution time divided by its ideal (single-client)
  execution time, and the L2 norm aggregates stretches across clients.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter
from typing import Iterable, List, Sequence, Tuple

from repro.csd.device import BusyInterval
from repro.exceptions import ConfigurationError

#: An interval's start, as a sort key with no Python frame per interval.
_START = itemgetter(0)


@dataclass
class ExecutionBreakdown:
    """Decomposition of one query's execution time (seconds)."""

    processing: float
    switch_wait: float
    transfer_wait: float
    other_wait: float

    @property
    def total(self) -> float:
        """Total accounted execution time."""
        return self.processing + self.switch_wait + self.transfer_wait + self.other_wait

    def fractions(self) -> dict:
        """Each component as a fraction of the total (empty total → zeros)."""
        total = self.total
        if total <= 0:
            return {"processing": 0.0, "switch": 0.0, "transfer": 0.0, "other": 0.0}
        return {
            "processing": self.processing / total,
            "switch": self.switch_wait / total,
            "transfer": self.transfer_wait / total,
            "other": self.other_wait / total,
        }


def merge_intervals(intervals: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of a collection of closed intervals as disjoint, sorted spans.

    Overlapping or touching intervals are coalesced so that downstream
    accounting never double-counts the same stretch of simulated time.
    """
    cleaned: List[Tuple[float, float]] = []
    for start, end in intervals:
        if end < start:
            raise ConfigurationError("blocked interval ends before it starts")
        if end > start:
            cleaned.append((start, end))
    cleaned.sort()
    merged: List[Tuple[float, float]] = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class MergedSpans:
    """Union of intervals, indexed for windowed overlap sweeps.

    The merged spans are disjoint and sorted, so both their starts and their
    ends are monotonically increasing; a query window ``[start, end]`` can
    bisect to the contiguous run of spans it intersects instead of scanning
    the whole union.  Skipped spans would have contributed exactly ``0.0`` to
    the running sum, and adding ``0.0`` is the floating-point identity, so
    the windowed sum is bit-identical to the full scan.
    """

    __slots__ = ("spans", "starts", "ends")

    def __init__(self, intervals: Sequence[Tuple[float, float]]) -> None:
        self.spans = merge_intervals(intervals)
        self.starts = [span[0] for span in self.spans]
        self.ends = [span[1] for span in self.spans]


def attribute_waiting_batch(
    blocked_interval_lists: Sequence[Sequence[Tuple[float, float]]],
    busy_intervals: Iterable[BusyInterval],
    processing_times: Sequence[float],
) -> List[ExecutionBreakdown]:
    """Attribute each query's blocked time to device switches vs. transfers.

    Any part of a blocked interval during which some device was transferring
    an object (for any tenant) counts as transfer wait; any part covered
    only by a group switch counts as switch wait; whatever is left (devices
    idle, queueing artefacts) is reported as ``other_wait``.

    Both the blocked intervals and the busy time of each kind are unioned
    first, so duplicated blocked intervals and *concurrently* busy devices
    (a fleet's devices' logs, chained) are each counted once — every
    blocked second lands in exactly one bucket and the components always
    sum to the total blocked time.  For a single device, whose busy
    intervals never overlap, this is exactly the per-interval attribution
    the paper's Figure 9 uses.

    All queries go through one sorted sweep.  The busy-span unions depend
    only on the interval log, so they are built once, in one pass over
    ``busy_intervals``: the non-switch busy time and all busy time
    (entries of no length or ending by time 0 are skipped).  An entry that
    overlaps or touches the run before it joins that run as
    it is read — a device's own log is back to back, so it collapses to a
    few runs — and only the runs go through :func:`merge_intervals`.  A run
    is the union of its entries and its ends are input floats, so any input
    order (several devices' logs chained, say) gives the same unions, bit
    for bit.  Every query's blocked intervals are then walked against them
    by :func:`sweep_blocked` (inner = every kind but ``switch``) — a batch
    of N is bit-identical to N one-query calls.
    """
    transfer_runs: List[Tuple[float, float]] = []
    busy_runs: List[Tuple[float, float]] = []
    # The open run of each union; (inf, -inf) is the empty run nothing
    # touches.  Unrolled over the two unions, like ``sweep_blocked``.
    t_low = b_low = math.inf
    t_high = b_high = -math.inf
    for interval in busy_intervals:
        start = interval.start
        end = interval.end
        if not (end > start and end > 0):
            continue
        if start <= b_high and end >= b_low:
            if start < b_low:
                b_low = start
            if end > b_high:
                b_high = end
        else:
            if b_low < b_high:
                busy_runs.append((b_low, b_high))
            b_low, b_high = start, end
        if interval.kind == "switch":
            continue
        if start <= t_high and end >= t_low:
            if start < t_low:
                t_low = start
            if end > t_high:
                t_high = end
        else:
            if t_low < t_high:
                transfer_runs.append((t_low, t_high))
            t_low, t_high = start, end
    if b_low < b_high:
        busy_runs.append((b_low, b_high))
    if t_low < t_high:
        transfer_runs.append((t_low, t_high))
    transfer_spans = MergedSpans(transfer_runs)
    busy_spans = MergedSpans(busy_runs)
    totals, transfers, switches = sweep_blocked(
        blocked_interval_lists, transfer_spans, busy_spans
    )
    return [
        ExecutionBreakdown(
            processing=processing_times[query],
            switch_wait=switches[query],
            transfer_wait=transfers[query],
            other_wait=max(0.0, totals[query] - switches[query] - transfers[query]),
        )
        for query in range(len(totals))
    ]


def sweep_blocked(
    blocked_interval_lists: Sequence[Sequence[Tuple[float, float]]],
    inner_spans: MergedSpans,
    busy_spans: MergedSpans,
) -> Tuple[List[float], List[float], List[float]]:
    """Split every query's blocked seconds by what the devices were doing.

    Returns three lists aligned with ``blocked_interval_lists``: the blocked
    seconds in total, the part covered by ``inner_spans``, and the part
    covered by ``busy_spans`` but not by ``inner_spans`` (which must lie
    inside ``busy_spans``).  Figure 9's attribution (inner = transfers and
    migration I/O, the rest of busy = switches) and the trace's critical
    path (inner = migration I/O, the rest = foreground work) are this sweep.

    All queries' merged blocked intervals are sorted by start and walked
    against the two unions with a single forward-only pointer each.  Each
    query's intervals keep their relative order under the stable sort (they
    are disjoint and ascending), so every per-query float accumulates in the
    same sequence whatever other queries share the sweep.
    """
    merged_per_query = [
        merge_intervals(blocked) for blocked in blocked_interval_lists
    ]
    tagged = [
        (start, end, query)
        for query, merged in enumerate(merged_per_query)
        for start, end in merged
    ]
    tagged.sort(key=_START)

    count = len(merged_per_query)
    totals = [0.0] * count
    inners = [0.0] * count
    outers = [0.0] * count
    b_spans, b_starts, b_ends = busy_spans.spans, busy_spans.starts, busy_spans.ends
    i_spans, i_starts, i_ends = inner_spans.spans, inner_spans.starts, inner_spans.ends
    b_size, i_size = len(b_spans), len(i_spans)
    b_low = 0
    i_low = 0
    # Unrolled over the two unions on purpose: written as a generic loop
    # over a list of unions this read 0.88x on the ledger's attribution probe.
    for start, end, query in tagged:
        while b_low < b_size and b_ends[b_low] <= start:
            b_low += 1
        covered = 0.0
        for index in range(b_low, bisect_left(b_starts, end, b_low)):
            span_start, span_end = b_spans[index]
            covered += (span_end if span_end < end else end) - (
                span_start if span_start > start else start
            )
        while i_low < i_size and i_ends[i_low] <= start:
            i_low += 1
        inside = 0.0
        for index in range(i_low, bisect_left(i_starts, end, i_low)):
            span_start, span_end = i_spans[index]
            inside += (span_end if span_end < end else end) - (
                span_start if span_start > start else start
            )
        totals[query] += end - start
        inners[query] += inside
        # Seconds covered by busy time but not by any inner span: for the
        # Figure 9 split a switch was the only thing happening (switch-while-
        # transferring counts as transfer wait, the bucket closest to the
        # client's experience).  Subtracted per blocked interval, not once at
        # the end, so the floats accumulate as they always have.
        outers[query] += covered - inside
    return totals, inners, outers


def stretches(observed_times: Iterable[float], ideal_time: float) -> List[float]:
    """Per-query stretch values: observed execution time / ideal time."""
    if ideal_time <= 0:
        raise ConfigurationError("ideal execution time must be positive")
    return [observed / ideal_time for observed in observed_times]


def l2_norm(values: Iterable[float]) -> float:
    """The L2 norm (root of the sum of squares) of a collection of stretches."""
    return math.sqrt(sum(value * value for value in values))


def max_stretch(values: Iterable[float]) -> float:
    """The maximum stretch of a workload (worst-served query)."""
    values = list(values)
    if not values:
        raise ConfigurationError("max_stretch requires at least one value")
    return max(values)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty collection), summed in order."""
    values = list(values)
    if not values:
        return 0.0
    # Not ``sum()``: it is compensated on CPython >= 3.12, and the report
    # must not depend on the interpreter.
    return reduce(add, values, 0.0) / len(values)


def percentile(values: Iterable[float], fraction: float) -> float:
    """Linear-interpolation percentile of ``values`` (``fraction`` in [0, 1]).

    Deterministic and dependency-free, matching numpy's default
    ("linear") method; used for the latency distributions in scenario
    reports.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("percentile fraction must be between 0 and 1")
    ordered = sorted(values)
    if not ordered:
        raise ConfigurationError("percentile requires at least one value")
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def imbalance_coefficient(values: Iterable[float]) -> float:
    """Coefficient of variation (population std / mean) of a load vector.

    0.0 means perfectly even load across devices; the fleet layer reports it
    both fleet-wide and per membership epoch, which is how a rebalance is
    shown to actually *balance* (the post-join coefficient drops).  An empty
    or all-zero vector is perfectly balanced by convention; negative loads
    are a sign of broken accounting and are rejected rather than silently
    reported as balance.
    """
    values = list(values)
    if not values:
        return 0.0
    if any(value < 0 for value in values):
        raise ConfigurationError("imbalance_coefficient requires non-negative values")
    mean_value = sum(values) / len(values)
    if mean_value == 0:
        return 0.0
    variance = sum((value - mean_value) ** 2 for value in values) / len(values)
    return variance**0.5 / mean_value


def jain_fairness(values: Iterable[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n · Σx²)``.

    1.0 means perfectly even allocation across clients; 1/n means a single
    client got everything.  An all-zero allocation is reported as perfectly
    fair (1.0).
    """
    values = list(values)
    if not values:
        raise ConfigurationError("jain_fairness requires at least one value")
    if any(value < 0 for value in values):
        raise ConfigurationError("jain_fairness requires non-negative values")
    square_sum = sum(value * value for value in values)
    if square_sum == 0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)
