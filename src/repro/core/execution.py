"""One query run: the measurement loop both executors share.

The paper compares Skipper against the pull-based baseline with one
instrument (Figure 9 / Table 3: processing vs. switch-wait vs.
transfer-wait).  :class:`QueryRun` is that instrument: it owns what every
execution does identically between its first GET and its result — the query
id, the request count, the processing-time total, the blocked intervals and
the ``execute`` / ``request-overhead`` / ``wait`` / ``compute`` spans.  The
executors keep their strategy (which segments to request, when, and what
each arrival costs) and both return a :class:`QueryResult`.

By construction ``execution_time == processing_time + waiting_time``: a run
advances simulated time only by charging CPU seconds (processing) and by
waiting on the backend (blocked).  The two per-object loops do both in one
generator per burst — :meth:`QueryRun.consume` takes arrivals as they come,
:meth:`QueryRun.pull_each` blocks on one GET at a time — and
:meth:`QueryRun.charge` is the verb for the charges that are not per object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, List, Literal, Optional, Sequence, Tuple

from repro.core.client_proxy import ClientProxy
from repro.engine.operators.base import OperatorStats, Row
from repro.engine.query import Query
from repro.engine.relation import Segment
from repro.exceptions import ExecutionError
from repro.obs import Span, Tracer
from repro.sim import Event, Timeout

#: Execution modes a client can run in.
MODE_SKIPPER = "skipper"
MODE_VANILLA = "vanilla"
Mode = Literal["skipper", "vanilla"]


@dataclass
class QueryResult:
    """Outcome and metrics of one query execution, in either mode.

    The MJoin and cache counters stay 0 for a pull-based run.
    """

    query_name: str
    client_id: str
    mode: str
    rows: List[Row]
    start_time: float
    end_time: float
    processing_time: float
    num_requests: int
    stats: OperatorStats
    blocked_intervals: List[Tuple[float, float]] = field(default_factory=list)
    num_cycles: int = 0
    num_evictions: int = 0
    subplans_total: int = 0
    subplans_executed: int = 0
    subplans_pruned: int = 0
    cache_hits: int = 0
    cache_insertions: int = 0
    cache_peak_occupancy: int = 0
    cache_capacity: int = 0

    @property
    def execution_time(self) -> float:
        """End-to-end simulated execution time of the query."""
        return self.end_time - self.start_time

    @property
    def waiting_time(self) -> float:
        """Total simulated time spent blocked on the CSD."""
        return sum(end - start for start, end in self.blocked_intervals)


class QueryRun:
    """One execution of one query by one client, from first GET to result."""

    def __init__(
        self,
        proxy: ClientProxy,
        query: Query,
        mode: str,
        tracer: Optional[Tracer] = None,
        trace_parent: Optional[Span] = None,
    ) -> None:
        self.env = proxy.env
        self.proxy = proxy
        self.query = query
        self.mode = mode
        self.query_id = proxy.new_query_id(query.name)
        self.start_time = self.env.now
        self.num_requests = 0
        self.processing_time = 0.0
        self.blocked: List[Tuple[float, float]] = []
        self.tracer = tracer
        #: The ``execute`` span, or ``None`` when the run is not traced.
        self.span: Optional[Span] = None
        if tracer is not None:
            self.span = tracer.start_span(
                "execute",
                kind="executor",
                track=proxy.client_id,
                parent=trace_parent,
                query_id=self.query_id,
                mode=mode,
            )
            tracer.bind_query(self.query_id, self.span)

    def request(self, segment_ids: Sequence[str]) -> None:
        """Issue one GET per segment id, tagged with this run's query id."""
        self.proxy.request_objects(segment_ids, self.query_id)
        self.num_requests += len(segment_ids)

    def _record(self, name: str, kind: str, start: float, **attrs: Any) -> None:
        """One finished span on this client's track (traced runs only)."""
        assert self.tracer is not None
        self.tracer.record_span(
            name, kind, self.proxy.client_id, start, self.env.now, self.span, **attrs
        )

    def charge(
        self, seconds: float, name: str = "compute", **attrs: Any
    ) -> Generator[Event, Any, None]:
        """Spend ``seconds`` of client CPU (no event and no span for 0 s)."""
        if seconds <= 0:
            return
        self.processing_time += seconds
        start = self.env.now
        yield Timeout(self.env, seconds)
        if self.span is not None:
            self._record(name, "compute", start, **attrs)

    def consume(
        self, count: int, on_arrival: Callable[[str, Segment], float]
    ) -> Generator[Event, Any, None]:
        """Take the next ``count`` deliveries, whatever order they come in.

        Each wait on the backend counts as blocked (a ``wait`` span when it
        took time), the delivery is handed to ``on_arrival(segment_id,
        payload)`` and the CPU seconds that returns are charged against it (a
        ``compute`` span) — one generator for the whole burst.
        """
        env = self.env
        next_arrival = self.proxy.arrivals.get
        blocked = self.blocked
        for _ in range(count):
            wait_start = env.now
            segment_id, payload = yield next_arrival()
            now = env.now
            if now > wait_start:
                blocked.append((wait_start, now))
                if self.span is not None:
                    self._record("wait", "wait", wait_start, object_key=segment_id)
            seconds = on_arrival(segment_id, payload)
            if seconds > 0:
                self.processing_time += seconds
                yield Timeout(env, seconds)
                if self.span is not None:
                    self._record("compute", "compute", now, object_key=segment_id)

    def pull_each(
        self,
        segment_ids: Iterable[str],
        overhead_seconds: float,
        on_arrival: Callable[[str, Segment], float],
    ) -> Generator[Event, Any, None]:
        """Fetch ``segment_ids`` one blocking GET at a time, in order.

        The pull-based mirror of :meth:`consume`: per id, charge the request
        overhead (a ``request-overhead`` span), issue the one GET, wait for
        it, hand it to ``on_arrival`` and charge what that returns.  Any other
        object arriving in its place is an :class:`~repro.exceptions.ExecutionError`.
        """
        env = self.env
        request_objects = self.proxy.request_objects
        next_arrival = self.proxy.arrivals.get
        blocked = self.blocked
        for segment_id in segment_ids:
            if overhead_seconds > 0:
                self.processing_time += overhead_seconds
                start = env.now
                yield Timeout(env, overhead_seconds)
                if self.span is not None:
                    self._record("request-overhead", "compute", start, requests=1)
            request_objects((segment_id,), self.query_id)
            self.num_requests += 1
            wait_start = env.now
            arrived_id, payload = yield next_arrival()
            now = env.now
            if now > wait_start:
                blocked.append((wait_start, now))
                if self.span is not None:
                    self._record("wait", "wait", wait_start, object_key=arrived_id)
            if arrived_id != segment_id:
                raise ExecutionError(
                    f"pull-based executor expected {segment_id!r} but received {arrived_id!r}"
                )
            seconds = on_arrival(segment_id, payload)
            if seconds > 0:
                self.processing_time += seconds
                yield Timeout(env, seconds)
                if self.span is not None:
                    self._record("compute", "compute", now, object_key=segment_id)

    def finish(self, rows: List[Row], stats: OperatorStats, **mjoin_counters: int) -> QueryResult:
        """Close the run at the current simulated time and build its result."""
        end_time = self.env.now
        if self.tracer is not None and self.span is not None:
            self.span.attrs["num_requests"] = self.num_requests
            if "num_cycles" in mjoin_counters:
                self.span.attrs["num_cycles"] = mjoin_counters["num_cycles"]
            self.tracer.end_span(self.span, end_time)
        return QueryResult(
            query_name=self.query.name,
            client_id=self.proxy.client_id,
            mode=self.mode,
            rows=rows,
            start_time=self.start_time,
            end_time=end_time,
            processing_time=self.processing_time,
            num_requests=self.num_requests,
            stats=stats,
            blocked_intervals=self.blocked,
            **mjoin_counters,
        )
