"""Per-tenant sessions: the submission side of the service façade.

A :class:`Session` is a long-lived, per-tenant connection to a
:class:`~repro.service.service.StorageService`.  Queries submitted to a
session run **sequentially in submission order** (one in flight per session,
like a database connection); each :meth:`Session.submit` returns a
:class:`~repro.service.handles.QueryHandle` immediately.  Every query passes
through the service's admission controller (when one is configured) before an
executor is created for it.  The session is configured by the tenant's
:class:`~repro.cluster.client.ClientSpec` (``session.spec``) and owns the
connection's one :class:`~repro.core.client_proxy.ClientProxy`: executors
carry no state from query to query, the proxy does, so every execution gets
its own query id.

Determinism note: with admission disabled, a session that has all its queries
submitted before the simulation runs performs exactly the same sequence of
simulation events as a plain per-tenant batch loop (optional start delay,
then one executor per query, back to back) — this is what keeps the
pre-façade golden metrics byte-identical.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional

from repro.core.client_proxy import ClientProxy
from repro.core.execution import MODE_SKIPPER, QueryResult
from repro.core.executor import SkipperExecutor
from repro.exceptions import ConfigurationError, SessionClosedError
from repro.service.handles import QueryHandle
from repro.vanilla.executor import VanillaExecutor

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.client import ClientSpec
    from repro.engine.query import Query
    from repro.service.service import StorageService


class Session:
    """One tenant's open connection to the storage service."""

    def __init__(self, service: StorageService, spec: ClientSpec) -> None:
        self.service = service
        self.env = service.env
        #: The tenant's description (validated when it was constructed).
        self.spec = spec
        self.tenant_id = spec.client_id
        self.proxy = ClientProxy(self.env, service.backend, self.tenant_id)
        #: Every handle ever issued by this session, in submission order.
        self.handles: List[QueryHandle] = []
        #: Results of the queries that ran to completion, in execution order.
        self.results: List[QueryResult] = []
        self._pending: Deque[QueryHandle] = deque()
        self._outstanding = 0
        self._closed = False
        self._wakeup = None
        self.process = self.env.process(self._run(), name=f"session:{self.tenant_id}")

    # ------------------------------------------------------------------ #
    # Client-facing API
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def submit(self, query: Query, at: Optional[float] = None) -> QueryHandle:
        """Hand ``query`` to the service; returns its handle immediately.

        ``at`` defers the submission to an absolute simulated time (it must
        not lie in the past).  Queries run sequentially per session, in the
        order they arrive.
        """
        if self._closed:
            raise SessionClosedError(
                f"session {self.tenant_id!r} is closed; open a new session to "
                "submit more queries"
            )
        if at is not None:
            if not math.isfinite(at) or at < self.env.now:
                raise ConfigurationError(
                    f"submit time {at!r} must be finite and not in the past "
                    f"(now: {self.env.now})"
                )
        handle = QueryHandle(query, self.tenant_id, submitted_at=None)
        self.handles.append(handle)
        self._outstanding += 1
        if at is None or at <= self.env.now:
            handle._mark_submitted(self.env.now)
            self._pending.append(handle)
            self._notify()
        else:
            self.env.process(
                self._deliver_at(handle, at),
                name=f"session-submit:{self.tenant_id}",
            )
        return handle

    def close(self) -> None:
        """Refuse further submissions; queued work still runs to completion."""
        if self._closed:
            return
        self._closed = True
        self._notify()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _notify(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)

    def _deliver_at(self, handle: QueryHandle, at: float):
        yield self.env.timeout(at - self.env.now)
        handle._mark_submitted(self.env.now)
        self._pending.append(handle)
        self._notify()

    def _make_executor(self):
        """Executor for one query: fresh cache and MJoin state, shared proxy."""
        connection = dict(
            env=self.env,
            client_id=self.tenant_id,
            catalog=self.service.catalog,
            device=self.service.backend,
            cost_model=self.service.cost_model,
            proxy=self.proxy,
        )
        if self.spec.mode == MODE_SKIPPER:
            return SkipperExecutor(
                cache_capacity=self.spec.cache_capacity,
                eviction_policy=self.spec.eviction_policy,
                enable_pruning=self.spec.enable_pruning,
                **connection,
            )
        return VanillaExecutor(**connection)

    def _run(self):
        if self.spec.start_delay > 0:
            yield self.env.timeout(self.spec.start_delay)
        while True:
            while self._pending:
                handle = self._pending.popleft()
                yield from self._execute(handle)
            if self._closed and self._outstanding == 0:
                break
            # Idle but not finished: wait for a submit, a deferred delivery
            # or close().  Never reached in pre-submitted batch runs, so the
            # legacy event sequence is preserved exactly.
            self._wakeup = self.env.event(name=f"session-wake:{self.tenant_id}")
            yield self._wakeup
            self._wakeup = None

    def _execute(self, handle: QueryHandle):
        tracer = self.service.tracer
        root = None
        if tracer.enabled:
            root = tracer.start_span(
                f"query:{handle.query.name}",
                kind="query",
                track=self.tenant_id,
                tenant=self.tenant_id,
                query=handle.query.name,
            )
        admission = self.service.admission
        if admission is not None:
            ticket = admission.request(self.tenant_id)
            if ticket.rejected:
                handle._mark_rejected(ticket.error, self.env.now)
                self._outstanding -= 1
                if root is not None:
                    root.attrs["status"] = "rejected"
                    tracer.add_event(root, "admission.rejected")
                    tracer.end_span(root)
                return
            if ticket.queued:
                handle._mark_queued(self.env.now)
                if root is not None:
                    tracer.add_event(root, "admission.queued")
            yield ticket.event
            if root is not None:
                tracer.add_event(root, "admission.granted")
        handle._mark_running(self.env.now)
        executor = self._make_executor()
        executor.tracer = tracer
        executor.trace_parent = root
        try:
            result = yield from executor.execute(handle.query)
        finally:
            if admission is not None:
                admission.release(self.tenant_id)
        handle._mark_finished(result, self.env.now)
        if root is not None:
            root.attrs["status"] = "finished"
            root.attrs["queue_delay"] = handle.queue_delay
            root.attrs["execution_time"] = result.execution_time
            tracer.end_span(root)
        self.results.append(result)
        self._outstanding -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<Session {self.tenant_id!r} {state} outstanding={self._outstanding}>"
