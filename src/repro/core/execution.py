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
waiting on the backend (blocked).  The two per-object loops do both —
:meth:`QueryRun.consume` is a whole Skipper execution, request cycle after
request cycle, taking arrivals as they come; :meth:`QueryRun.pull_each` is
a whole pull-based one, blocking on one GET at a time — and
:meth:`QueryRun.charge` is the verb for the charges that are not per object.
What both compute from the deliveries is shared too: a :class:`SharedRun`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any, Callable, Dict, Generator, Generic, Hashable, Iterable, List, Literal, Optional,
    Sequence, Tuple, Type, TypeVar, cast,
)

from repro.core.client_proxy import ClientProxy
from repro.engine.operators.base import OperatorStats, Row
from repro.engine.query import Query
from repro.engine.relation import Segment
from repro.exceptions import ExecutionError
from repro.obs import Span, Tracer
from repro.sim import Waitable

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
    ) -> Generator[Waitable, Any, None]:
        """Spend ``seconds`` of client CPU (no event and no span for 0 s)."""
        if seconds <= 0:
            return
        self.processing_time += seconds
        start = self.env.now
        yield seconds
        if self.span is not None:
            self._record(name, "compute", start, **attrs)

    def consume(
        self,
        requests: Sequence[str],
        overhead: Callable[[int], float],
        cursor: RunCursor[Any, Any],
        end_cycle: Callable[[], Sequence[str]],
        result: Callable[[], QueryResult],
    ) -> Generator[Waitable, Any, QueryResult]:
        """The CSD-driven loop: request, take the deliveries in whatever
        order they come, re-request; then the result.

        Per request cycle: issue ``requests``, charge ``overhead(len(requests))``
        (a ``request-overhead`` span), then take as many deliveries.  Each wait
        on the backend counts as blocked (a ``wait`` span when it took time),
        the delivery is handed to ``cursor.arrive(segment_id, payload)`` —
        looked up per delivery: a cursor that forks rebinds it — and the CPU
        seconds that returns are charged against it (a ``compute`` span).
        ``end_cycle()`` then gives the next cycle's requests, none once the
        query is done, and the generator returns ``result()``.  One generator
        for the whole execution: a delivery resumes it and its caller only.
        """
        env = self.env
        arrivals = self.proxy.arrivals
        blocked = self.blocked
        while requests:
            count = len(requests)
            self.request(requests)
            yield from self.charge(overhead(count), "request-overhead", requests=count)
            for _ in range(count):
                wait_start = env.now
                segment_id, payload = yield arrivals
                now = env.now
                if now > wait_start:
                    blocked.append((wait_start, now))
                    if self.span is not None:
                        self._record("wait", "wait", wait_start, object_key=segment_id)
                seconds = cursor.arrive(segment_id, payload)
                if seconds > 0:
                    self.processing_time += seconds
                    yield seconds
                    if self.span is not None:
                        self._record("compute", "compute", now, object_key=segment_id)
            requests = end_cycle()
        return result()

    def pull_each(
        self,
        segment_ids: Iterable[str],
        overhead_seconds: float,
        on_arrival: Callable[[str, Segment], float],
        end: Callable[[], Generator[Waitable, Any, QueryResult]],
    ) -> Generator[Waitable, Any, QueryResult]:
        """Fetch ``segment_ids`` one blocking GET at a time, in order; then
        the result.

        The pull-based mirror of :meth:`consume`: per id, charge the request
        overhead (a ``request-overhead`` span), issue the one GET, wait for
        it, hand it to ``on_arrival`` and charge what that returns.  Any other
        object arriving in its place is an :class:`~repro.exceptions.ExecutionError`.
        The generator then returns what ``end()`` — the run's last step,
        itself a generator — returns.  One generator for every object: a
        delivery resumes it and its caller only.
        """
        env = self.env
        request_objects = self.proxy.request_objects
        arrivals = self.proxy.arrivals
        blocked = self.blocked
        for segment_id in segment_ids:
            if overhead_seconds > 0:
                self.processing_time += overhead_seconds
                start = env.now
                yield overhead_seconds
                if self.span is not None:
                    self._record("request-overhead", "compute", start, requests=1)
            request_objects((segment_id,), self.query_id)
            self.num_requests += 1
            wait_start = env.now
            arrived_id, payload = yield arrivals
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
                yield seconds
                if self.span is not None:
                    self._record("compute", "compute", now, object_key=segment_id)
        return (yield from end())

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


S = TypeVar("S")
E = TypeVar("E")
R = TypeVar("R", bound="SharedRun[Any, Any]")
#: A service's shared runs, both modes in one, by :meth:`SharedRun.shared`'s key.
SharedRuns = Dict[Tuple[Hashable, ...], "SharedRun[Any, Any]"]


class SharedRun(Generic[S, E]):
    """One execution's work, done once for every execution that matches it.

    In either mode what an execution computes is a pure function of the
    query, the executor's settings and the deliveries it is fed, so a service
    keeps one run per key (:meth:`shared`) and each execution walks it with
    its own :class:`RunCursor`.  The first execution to reach a step takes it
    on the one shared state ``S`` and logs what it returned; every execution
    whose deliveries match the log so far takes the logged outcome; one whose
    delivery differs *forks* — it replays its own prefix into a private
    state, uncharged, and goes on alone.  Every charge and outcome an
    execution sees is the one a private state would have given, so sharing
    moves no simulation event.  A subclass supplies the three hooks.

    ``steps`` is the log: ``(segment_id, payload, seconds)`` for a delivery
    and the CPU seconds :meth:`arrive` charged for it, ``(None, None,
    outcome)`` for what :meth:`end` returned.  ``state`` is the state after
    the whole log, or ``None`` once a step raised in it: a step that raises
    is not logged, and whoever reaches it next forks and raises itself.
    """

    #: The mode of the executions that follow this kind of run.
    mode: str

    def __init__(self) -> None:
        self.state: Optional[S] = self.new_state()
        self.steps: List[Tuple[Optional[str], Optional[Segment], Any]] = []

    @classmethod
    def shared(cls: Type[R], runs: SharedRuns, *settings: object) -> R:
        """The run of ``settings`` in ``runs``, started on first use.

        Its key is the mode, then each setting: by value when it is hashable,
        by ``id`` otherwise — the run holds it, so no id is reused while the
        run lives.  A run whose first state cannot be built is not kept, so
        every execution raises that error itself.
        """
        key = (cls.mode, *[s if isinstance(s, Hashable) else id(s) for s in settings])
        run = runs.get(key)
        if run is None:
            run = runs[key] = cls(*settings)
        return cast(R, run)

    def new_state(self) -> S:
        """A state before any step."""
        raise NotImplementedError

    def arrive(self, state: S, segment_id: str, payload: Segment) -> float:
        """Feed one delivery to ``state``; the CPU seconds it cost."""
        raise NotImplementedError

    def end(self, state: S) -> E:
        """What ``state`` yields once a round of deliveries is in."""
        raise NotImplementedError

    def step(self, position: int, segment_id: Optional[str], payload: Optional[Segment]) -> Any:
        """What step ``position`` returns — a delivery's seconds, or the end's
        outcome when ``segment_id`` is ``None`` — if it is the logged one or
        extends the log; ``None`` if the caller must fork."""
        steps = self.steps
        if position < len(steps):
            logged_id, logged, kept = steps[position]
            return kept if logged is payload and logged_id == segment_id else None
        state = self.state
        if state is None:
            return None
        self.state = None
        outcome = self._take(state, segment_id, payload)
        self.state = state
        steps.append((segment_id, payload, outcome))
        return outcome

    def release(self) -> None:
        """Drop the log and the shared state once no execution can step or
        fork again (the simulation is over); the outcomes each execution
        took are its own."""
        self.steps = []
        self.state = None

    def fork(self, position: int) -> S:
        """A private state after the first ``position`` logged steps."""
        state = self.new_state()
        for segment_id, payload, _outcome in self.steps[:position]:
            self._take(state, segment_id, payload)
        return state

    def _take(self, state: S, segment_id: Optional[str], payload: Optional[Segment]) -> Any:
        if segment_id is None:
            return self.end(state)
        assert payload is not None
        return self.arrive(state, segment_id, payload)


class RunCursor(Generic[S, E]):
    """One execution's walk through a :class:`SharedRun`; private once forked."""

    def __init__(self, run: SharedRun[S, E]) -> None:
        self.run = run
        #: Steps taken on the shared run (frozen once forked).
        self.position = 0
        self.private: Optional[S] = None
        #: ``arrive(segment_id, payload)``: feed one delivery; the CPU seconds
        #: it cost.  Once forked, the run's own ``arrive`` bound to the
        #: private state: a forked execution's deliveries enter no cursor frame.
        self.arrive: Callable[[str, Segment], float] = self._follow

    @property
    def state(self) -> S:
        """The state after every step this execution took."""
        state = self.run.state if self.private is None else self.private
        assert state is not None, "a cursor on the shared run is never past a step that raised"
        return state

    def _follow(self, segment_id: str, payload: Segment) -> float:
        """:attr:`arrive` before the fork: the logged seconds, or a fork."""
        if self.private is None:
            seconds: Optional[float] = self.run.step(self.position, segment_id, payload)
            if seconds is not None:
                self.position += 1
                return seconds
            self._fork()
        return self.arrive(segment_id, payload)

    def end(self) -> E:
        """What the state yields once this round of deliveries is in."""
        private = self.private
        if private is None:
            outcome: Optional[E] = self.run.step(self.position, None, None)
            if outcome is not None:
                self.position += 1
                return outcome
            private = self._fork()
        return self.run.end(private)

    def _fork(self) -> S:
        """Go private at the current position; the private state."""
        self.private = private = self.run.fork(self.position)
        self.arrive = partial(self.run.arrive, private)
        return private
