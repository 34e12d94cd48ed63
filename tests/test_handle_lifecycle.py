"""Lifecycle tests for :class:`~repro.service.handles.QueryHandle`.

The handle is a tiny state machine (pending → queued → running → finished,
with rejected as the other terminal); these tests pin the derived duration
properties and the new transition validation — illegal transitions and
non-monotonic timestamps raise instead of silently corrupting measurements.
"""

import pytest

from repro.exceptions import AdmissionError, ServiceError
from repro.service.handles import (
    STATUS_FINISHED,
    STATUS_PENDING,
    STATUS_QUEUED,
    STATUS_REJECTED,
    STATUS_RUNNING,
    QueryHandle,
)
from repro.workloads import tpch


def make_handle(submitted_at=0.0):
    return QueryHandle(tpch.q12(), "tenant0", submitted_at=submitted_at)


class TestDurations:
    def test_service_and_total_seconds_after_finish(self):
        handle = make_handle(submitted_at=1.0)
        handle._mark_queued(2.0)
        handle._mark_running(5.0)
        handle._mark_finished(object(), 12.0)
        assert handle.queue_delay == 3.0
        assert handle.service_seconds == 7.0
        assert handle.total_seconds == 11.0

    def test_durations_zero_before_terminal(self):
        handle = make_handle()
        assert handle.service_seconds == 0.0
        assert handle.total_seconds == 0.0
        handle._mark_running(4.0)
        assert handle.service_seconds == 0.0

    def test_straight_through_query_has_no_queue_delay(self):
        handle = make_handle()
        handle._mark_running(3.0)
        handle._mark_finished(object(), 9.0)
        assert handle.queue_delay == 0.0
        assert handle.service_seconds == 6.0
        assert handle.total_seconds == 9.0


class TestTransitions:
    def test_happy_path_statuses(self):
        handle = make_handle()
        assert handle.status == STATUS_PENDING
        handle._mark_queued(1.0)
        assert handle.status == STATUS_QUEUED
        handle._mark_running(2.0)
        assert handle.status == STATUS_RUNNING
        handle._mark_finished(object(), 3.0)
        assert handle.status == STATUS_FINISHED
        assert handle.done

    def test_rejected_from_queued(self):
        handle = make_handle()
        handle._mark_queued(1.0)
        handle._mark_rejected(AdmissionError("shed"), 1.0)
        assert handle.status == STATUS_REJECTED
        assert handle.done
        with pytest.raises(AdmissionError):
            handle.result()

    def test_finish_requires_running(self):
        handle = make_handle()
        with pytest.raises(ServiceError):
            handle._mark_finished(object(), 1.0)

    def test_queue_requires_pending(self):
        handle = make_handle()
        handle._mark_running(1.0)
        with pytest.raises(ServiceError):
            handle._mark_queued(2.0)

    def test_no_transition_out_of_terminal(self):
        handle = make_handle()
        handle._mark_running(1.0)
        handle._mark_finished(object(), 2.0)
        with pytest.raises(ServiceError):
            handle._mark_running(3.0)
        with pytest.raises(ServiceError):
            handle._mark_rejected(AdmissionError("late"), 3.0)


class TestMonotonicity:
    def test_queued_before_submitted_rejected(self):
        handle = make_handle(submitted_at=5.0)
        with pytest.raises(ServiceError):
            handle._mark_queued(4.0)

    def test_running_before_queued_rejected(self):
        handle = make_handle()
        handle._mark_queued(3.0)
        with pytest.raises(ServiceError):
            handle._mark_running(2.0)

    def test_finished_before_started_rejected(self):
        handle = make_handle()
        handle._mark_running(5.0)
        with pytest.raises(ServiceError):
            handle._mark_finished(object(), 4.0)

    def test_equal_timestamps_allowed(self):
        handle = make_handle()
        handle._mark_queued(0.0)
        handle._mark_running(0.0)
        handle._mark_finished(object(), 0.0)
        assert handle.status == STATUS_FINISHED
