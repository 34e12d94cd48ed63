"""Future-like handles for queries submitted through the service façade.

A :class:`QueryHandle` is returned by :meth:`Session.submit
<repro.service.session.Session.submit>` the moment a query enters the
service.  It tracks the query through its lifecycle — submitted, held by
admission control, running, finished or rejected — with a simulated-time
timestamp for every transition, and exposes the measurement the executor
produced once the simulation has run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.exceptions import AdmissionError, ServiceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.execution import QueryResult
    from repro.engine.query import Query

#: Lifecycle states of a submitted query.
STATUS_PENDING = "pending"  #: submitted, waiting for its session to pick it up
STATUS_QUEUED = "queued"  #: held in the admission controller's queue
STATUS_RUNNING = "running"  #: executing against the storage backend
STATUS_FINISHED = "finished"  #: completed; :meth:`QueryHandle.result` is ready
STATUS_REJECTED = "rejected"  #: refused by admission control


class QueryHandle:
    """Tracks one submitted query from admission to completion."""

    def __init__(self, query: Query, tenant_id: str, submitted_at: float) -> None:
        self.query = query
        self.tenant_id = tenant_id
        self.status = STATUS_PENDING
        #: When the query entered the service.
        self.submitted_at = submitted_at
        #: When admission control queued the query (``None`` if it never waited).
        self.queued_at: Optional[float] = None
        #: When the executor started running the query.
        self.started_at: Optional[float] = None
        #: When the query finished or was rejected.
        self.finished_at: Optional[float] = None
        self._result: Optional[QueryResult] = None
        self._error: Optional[AdmissionError] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """Whether the query reached a terminal state (finished or rejected)."""
        return self.status in (STATUS_FINISHED, STATUS_REJECTED)

    @property
    def queue_delay(self) -> float:
        """Seconds spent in the admission queue (0.0 if never queued)."""
        if self.queued_at is None or self.started_at is None:
            return 0.0
        return self.started_at - self.queued_at

    @property
    def service_seconds(self) -> float:
        """Execution time only: from running to finished (0.0 until then)."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    @property
    def total_seconds(self) -> float:
        """End-to-end time in the service: submit to terminal (0.0 until then)."""
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.submitted_at

    def result(self) -> QueryResult:
        """The executor's measurement, once the simulation has run.

        Raises :class:`~repro.exceptions.AdmissionError` if the query was
        rejected by admission control, and
        :class:`~repro.exceptions.ServiceError` if it has not reached a
        terminal state yet (run the service first).
        """
        if self.status == STATUS_REJECTED:
            assert self._error is not None
            raise self._error
        if self.status != STATUS_FINISHED:
            raise ServiceError(
                f"query {self.query.name!r} of tenant {self.tenant_id!r} has "
                f"not finished (status: {self.status}); call "
                "StorageService.run() to drive the simulation first"
            )
        return self._result

    # ------------------------------------------------------------------ #
    # Transitions (driven by the session / admission controller)
    # ------------------------------------------------------------------ #
    def _check_transition(self, target: str, allowed: tuple, now: float, floor: Optional[float]) -> None:
        if self.status not in allowed:
            raise ServiceError(
                f"query {self.query.name!r} of tenant {self.tenant_id!r}: "
                f"illegal transition {self.status} -> {target}"
            )
        if floor is not None and now < floor:
            raise ServiceError(
                f"query {self.query.name!r} of tenant {self.tenant_id!r}: "
                f"non-monotonic timestamp {now} < {floor} entering {target}"
            )

    def _mark_queued(self, now: float) -> None:
        self._check_transition(STATUS_QUEUED, (STATUS_PENDING,), now, self.submitted_at)
        self.status = STATUS_QUEUED
        self.queued_at = now

    def _mark_running(self, now: float) -> None:
        self._check_transition(
            STATUS_RUNNING,
            (STATUS_PENDING, STATUS_QUEUED),
            now,
            self.queued_at if self.queued_at is not None else self.submitted_at,
        )
        self.status = STATUS_RUNNING
        self.started_at = now

    def _mark_finished(self, result: QueryResult, now: float) -> None:
        self._check_transition(STATUS_FINISHED, (STATUS_RUNNING,), now, self.started_at)
        self.status = STATUS_FINISHED
        self.finished_at = now
        self._result = result

    def _mark_rejected(self, error: AdmissionError, now: float) -> None:
        self._check_transition(
            STATUS_REJECTED,
            (STATUS_PENDING, STATUS_QUEUED),
            now,
            self.queued_at if self.queued_at is not None else self.submitted_at,
        )
        self.status = STATUS_REJECTED
        self.finished_at = now
        self._error = error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QueryHandle {self.query.name!r} tenant={self.tenant_id!r} "
            f"status={self.status}>"
        )
