"""Edge cases for :mod:`repro.cluster.metrics`.

The scenario engine leans on these metrics for every golden file, so the
corner cases — empty inputs, single queries, overlapping blocked intervals —
get explicit coverage here.  The overlapping-interval tests pin the fix for
a real double-counting bug: blocked intervals are unioned before being
intersected with device busy time.
"""

from __future__ import annotations

import random
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from repro.cluster.client import ClientSpec
from repro.cluster.cluster import ClusterConfig, ClusterResult
from repro.cluster.metrics import (
    ExecutionBreakdown,
    MergedSpans,
    attribute_waiting_batch,
    imbalance_coefficient,
    jain_fairness,
    max_stretch,
    mean,
    merge_intervals,
    percentile,
    stretches,
    sweep_blocked,
)
from repro.csd.device import BusyInterval
from repro.exceptions import ConfigurationError
from repro.workloads import tpch


def switch(start, end, group=0):
    return BusyInterval(start=start, end=end, kind="switch", group_id=group)


def transfer(start, end, group=0):
    return BusyInterval(
        start=start, end=end, kind="transfer", group_id=group, client_id="c", query_id="q"
    )


#: (start, end) with end >= start on a tenth-of-a-second grid: intervals
#: touch, nest and coincide often, and tenths are inexact in binary, so a
#: sum accumulated in a different order would differ in the last bits.
_INTERVAL = st.tuples(st.integers(0, 200), st.integers(0, 100)).map(
    lambda pair: (pair[0] / 10.0, (pair[0] + pair[1]) / 10.0)
)
_INTERVALS = st.lists(_INTERVAL, max_size=8)


_KINDS = ("switch", "transfer", "migration")

#: Blocked intervals over the whole span of the device logs below.
_WIDE_INTERVALS = st.lists(
    st.tuples(st.integers(-500, 20000), st.integers(0, 3000)).map(
        lambda pair: (pair[0] / 10.0, (pair[0] + pair[1]) / 10.0)
    ),
    max_size=8,
)


def _serialized_log(first, entries, seed):
    """One device's log of ``entries`` entries from ``first`` tenths on:
    each starts a gap after the one before it ends (mostly none: back to
    back) and lasts a few tenths or none at all."""
    rng = random.Random(seed)
    log = []
    clock = first
    for _ in range(entries):
        clock += rng.choice((0, 0, 0, 4, 25))
        length = rng.choice((0, 3, 47, 96, 100))
        log.append(BusyInterval(clock / 10.0, (clock + length) / 10.0, rng.choice(_KINDS), 0))
        clock += length
    return log


#: A device's serialized log of 100-150 entries, starting early enough
#: that some entries end at or before time 0.  The entries come from a
#: seeded ``random.Random``: drawn one by one through hypothesis, the logs
#: take ~7 s to generate.
_DEVICE_LOG = st.builds(
    _serialized_log,
    st.integers(-400, 100),
    st.integers(100, 150),
    st.integers(0, 2**32),
)


def _full_scan(blocked, busy_intervals, inner_kinds):
    """Reference sweep: every blocked span against every busy span.

    Returns the blocked seconds in total, those inside busy intervals of
    ``inner_kinds``, and those inside any other busy interval only.
    """

    def overlap(spans, start, end):
        total = 0.0
        for span_start, span_end in spans:
            if span_end > start and span_start < end:
                total += min(span_end, end) - max(span_start, start)
        return total

    busy_spans = merge_intervals(
        [(b.start, b.end) for b in busy_intervals if b.end > 0 and b.end > b.start]
    )
    inner_spans = merge_intervals(
        [
            (b.start, b.end)
            for b in busy_intervals
            if b.end > 0 and b.end > b.start and b.kind in inner_kinds
        ]
    )
    blocked_total = inner = outer = 0.0
    for start, end in merge_intervals(blocked):
        blocked_total += end - start
        inside = overlap(inner_spans, start, end)
        inner += inside
        outer += overlap(busy_spans, start, end) - inside
    return blocked_total, inner, outer


def _full_scan_attribution(blocked, busy_intervals, processing_time):
    """Reference attribution: inner = every kind but ``switch``."""
    blocked_total, transfer_wait, switch_wait = _full_scan(
        blocked, busy_intervals, ("transfer", "migration")
    )
    return ExecutionBreakdown(
        processing=processing_time,
        switch_wait=switch_wait,
        transfer_wait=transfer_wait,
        other_wait=max(0.0, blocked_total - switch_wait - transfer_wait),
    )


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_zero_length_intervals_dropped(self):
        assert merge_intervals([(3.0, 3.0), (1.0, 2.0)]) == [(1.0, 2.0)]

    def test_overlapping_and_nested_coalesce(self):
        merged = merge_intervals([(0.0, 5.0), (1.0, 2.0), (4.0, 8.0), (10.0, 11.0)])
        assert merged == [(0.0, 8.0), (10.0, 11.0)]

    def test_touching_intervals_coalesce(self):
        assert merge_intervals([(0.0, 1.0), (1.0, 2.0)]) == [(0.0, 2.0)]

    def test_unsorted_input(self):
        assert merge_intervals([(5.0, 6.0), (0.0, 1.0)]) == [(0.0, 1.0), (5.0, 6.0)]

    def test_inverted_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_intervals([(2.0, 1.0)])


def _one_query(blocked, busy, processing_time=0.0):
    """One query's attribution: the one-element batch."""
    return attribute_waiting_batch([blocked], busy, [processing_time])[0]


class TestAttributeWaiting:
    def test_empty_blocked_intervals(self):
        breakdown = _one_query([], [switch(0.0, 10.0)], processing_time=2.0)
        assert breakdown.switch_wait == 0.0
        assert breakdown.transfer_wait == 0.0
        assert breakdown.other_wait == 0.0
        assert breakdown.total == 2.0

    def test_no_busy_intervals_all_other_wait(self):
        breakdown = _one_query([(0.0, 4.0)], [])
        assert breakdown.other_wait == 4.0

    def test_overlapping_blocked_intervals_counted_once(self):
        """Duplicated/overlapping blocked intervals must not double-count."""
        busy = [switch(0.0, 10.0)]
        exact = _one_query([(0.0, 10.0)], busy)
        duplicated = _one_query([(0.0, 10.0), (0.0, 10.0)], busy)
        overlapping = _one_query([(0.0, 6.0), (4.0, 10.0)], busy)
        assert exact.switch_wait == 10.0
        assert duplicated.switch_wait == exact.switch_wait
        assert overlapping.switch_wait == exact.switch_wait
        assert duplicated.total == exact.total

    def test_split_attribution(self):
        busy = [switch(0.0, 5.0), transfer(5.0, 8.0)]
        breakdown = _one_query([(2.0, 9.0)], busy)
        assert breakdown.switch_wait == pytest.approx(3.0)
        assert breakdown.transfer_wait == pytest.approx(3.0)
        assert breakdown.other_wait == pytest.approx(1.0)

    def test_inverted_blocked_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            _one_query([(5.0, 1.0)], [])

    @given(
        blocked_lists=st.lists(_INTERVALS, min_size=0, max_size=6),
        busy=st.lists(
            st.tuples(_INTERVAL, st.sampled_from(_KINDS)),
            max_size=12,
        ),
        duplicate=st.booleans(),
    )
    def test_batch_is_bit_identical_to_one_query_calls(self, blocked_lists, busy, duplicate):
        """One sweep over N queries == N one-query sweeps == a full scan.

        Blocked intervals overlap and repeat freely, and the busy log is
        fleet-shaped (several devices busy at once, unordered), so both
        unions are exercised.  Equality is exact: every float must be
        accumulated in the same order whatever else shares the sweep.
        """
        if duplicate:
            blocked_lists = [blocked + blocked[:1] for blocked in blocked_lists] * 2
        busy_intervals = [
            BusyInterval(start=start, end=end, kind=kind, group_id=0)
            for (start, end), kind in busy
        ]
        processing = [float(index) for index in range(len(blocked_lists))]
        batch = attribute_waiting_batch(blocked_lists, busy_intervals, processing)
        assert batch == [
            _one_query(blocked, busy_intervals, processing_time=seconds)
            for blocked, seconds in zip(blocked_lists, processing)
        ]
        assert batch == [
            _full_scan_attribution(blocked, busy_intervals, seconds)
            for blocked, seconds in zip(blocked_lists, processing)
        ]

    @given(
        blocked_lists=st.lists(_WIDE_INTERVALS, min_size=1, max_size=5),
        logs=st.lists(_DEVICE_LOG, min_size=2, max_size=4),
    )
    def test_chained_device_logs_are_bit_identical_to_a_full_scan(self, blocked_lists, logs):
        """The shape ``StorageService.run`` passes: every device's own
        serialized log, chained in device order — back-to-back runs, gaps,
        zero-length entries and entries ending at or before 0.  The unions
        built while reading it, the old caller's merged copy sorted by
        completion, and the full scan agree on every float."""
        busy_intervals = [interval for log in logs for interval in log]
        assert len(busy_intervals) >= 200
        processing = [float(index) for index in range(len(blocked_lists))]
        chained = attribute_waiting_batch(blocked_lists, chain.from_iterable(logs), processing)
        merged_copy = sorted(busy_intervals, key=lambda interval: (interval.end, interval.start))
        assert chained == attribute_waiting_batch(blocked_lists, merged_copy, processing)
        assert chained == [
            _full_scan_attribution(blocked, busy_intervals, seconds)
            for blocked, seconds in zip(blocked_lists, processing)
        ]

    @given(
        blocked_lists=st.lists(_INTERVALS, min_size=0, max_size=6),
        busy=st.lists(st.tuples(_INTERVAL, st.sampled_from(_KINDS)), max_size=12),
        inner_kinds=st.sets(st.sampled_from(_KINDS)),
    )
    def test_sweep_is_bit_identical_to_a_full_scan_for_any_inner_kinds(
        self, blocked_lists, busy, inner_kinds
    ):
        """The one sweep serves two readers with different *inner* unions —
        everything but switches (Figure 9), migration only (the trace's
        critical path) — so the oracle picks the inner kinds freely, the
        empty and the full set included."""
        busy_intervals = [
            BusyInterval(start=start, end=end, kind=kind, group_id=0)
            for (start, end), kind in busy
        ]
        totals, inners, outers = sweep_blocked(
            blocked_lists,
            MergedSpans([(b.start, b.end) for b in busy_intervals if b.kind in inner_kinds]),
            MergedSpans([(b.start, b.end) for b in busy_intervals]),
        )
        assert list(zip(totals, inners, outers)) == [
            _full_scan(blocked, busy_intervals, inner_kinds) for blocked in blocked_lists
        ]

    def test_fractions_of_zero_total_are_zero(self):
        breakdown = ExecutionBreakdown(0.0, 0.0, 0.0, 0.0)
        assert breakdown.fractions() == {
            "processing": 0.0,
            "switch": 0.0,
            "transfer": 0.0,
            "other": 0.0,
        }


class TestClusterResultEdgeCases:
    def _empty_result(self):
        config = ClusterConfig(
            client_specs=[
                ClientSpec(client_id="c0", queries=[tpch.q12()], cache_capacity=8)
            ]
        )
        return ClusterResult(
            config=config,
            results_by_client={"c0": []},
            breakdowns_by_client={"c0": []},
            device_switches=0,
            device_objects_served=0,
            total_simulated_time=0.0,
        )

    def test_empty_results_average_is_zero(self):
        result = self._empty_result()
        assert result.execution_times() == []
        assert result.average_execution_time() == 0.0
        assert result.cumulative_execution_time() == 0.0
        assert result.total_get_requests() == 0

    def test_empty_results_breakdown_is_zero(self):
        breakdown = self._empty_result().average_breakdown()
        assert breakdown.total == 0.0

    def test_per_client_totals_with_empty_lists(self):
        assert self._empty_result().per_client_totals() == {"c0": 0.0}


class TestStretchMetrics:
    def test_single_query_breakdown(self):
        values = stretches([10.0], ideal_time=5.0)
        assert values == [2.0]
        assert max_stretch(values) == 2.0

    def test_nonpositive_ideal_rejected(self):
        with pytest.raises(ConfigurationError):
            stretches([1.0], ideal_time=0.0)

    def test_max_stretch_of_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            max_stretch([])

    def test_mean_of_empty_is_zero(self):
        assert mean([]) == 0.0

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1e16, 1.0, -1e16], 0.0),
            ([1e16, -1e16, 1.0], 1.0 / 3),
            ([0.1] * 10, 0.9999999999999999 / 10),
            ([1.0, 1e100, 1.0, -1e100], 0.0),
        ],
        ids=["absorbed-one", "one-after-cancel", "tenth-times-ten", "two-absorbed"],
    )
    def test_mean_sums_left_to_right(self, values, expected):
        """Not a compensated sum (``sum()`` on CPython >= 3.12, ``math.fsum``):
        the report's means are the same on every interpreter."""
        assert mean(values) == expected


class TestPercentile:
    def test_single_value(self):
        assert percentile([7.0], 0.95) == 7.0

    def test_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == pytest.approx(2.5)
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0

    def test_order_independent(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == percentile([1.0, 2.0, 3.0, 4.0], 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([], 0.5)

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 1.5)
        with pytest.raises(ConfigurationError):
            percentile([1.0], -0.1)


class TestImbalanceCoefficient:
    def test_even_load_is_zero(self):
        assert imbalance_coefficient([4.0, 4.0, 4.0]) == 0.0

    def test_empty_and_all_zero_are_balanced_by_convention(self):
        assert imbalance_coefficient([]) == 0.0
        assert imbalance_coefficient([0.0, 0.0]) == 0.0

    def test_negative_values_rejected(self):
        # A negative load is broken accounting; it must not cancel against
        # positive loads into a zero mean and report as "perfectly balanced".
        with pytest.raises(ConfigurationError):
            imbalance_coefficient([1.0, -1.0])
        with pytest.raises(ConfigurationError):
            imbalance_coefficient([-3.0, -3.0])


class TestJainFairness:
    def test_even_allocation_is_one(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_one_hot_allocation_is_one_over_n(self):
        assert jain_fairness([9.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_all_zero_is_perfectly_fair(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            jain_fairness([])

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            jain_fairness([1.0, -1.0])
