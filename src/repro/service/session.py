"""Per-tenant sessions: the submission side of the service façade.

A :class:`Session` is a per-tenant connection to a
:class:`~repro.service.service.StorageService`.  Queries are submitted
before the service runs and run **sequentially in submission order** (one in
flight per session, like a database connection); each
:meth:`Session.submit` returns a :class:`~repro.service.handles.QueryHandle`
immediately.  Every query passes through the service's admission controller
(when one is configured) before an executor is created for it.  The session
is configured by the tenant's :class:`~repro.cluster.client.ClientSpec`
(``session.spec``) and owns the connection's one
:class:`~repro.core.client_proxy.ClientProxy`: executors carry no state from
query to query, the proxy does, so every execution gets its own query id.

With admission disabled, a session is a plain per-tenant batch loop: its
optional start delay, then one executor per query, back to back.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List

from repro.core.client_proxy import ClientProxy
from repro.core.execution import MODE_SKIPPER, QueryResult
from repro.core.executor import SkipperExecutor
from repro.exceptions import SessionClosedError
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
        self._closed = False
        self.process = self.env.process(self._run(), name=f"session:{self.tenant_id}")

    # ------------------------------------------------------------------ #
    # Client-facing API
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def submit(self, query: Query) -> QueryHandle:
        """Hand ``query`` to the service; returns its handle immediately.

        Queries run sequentially per session, in submission order.
        """
        if self._closed:
            raise SessionClosedError(
                f"session {self.tenant_id!r} is closed; open a new session to "
                "submit more queries"
            )
        handle = QueryHandle(query, self.tenant_id, submitted_at=self.env.now)
        self.handles.append(handle)
        self._pending.append(handle)
        return handle

    def close(self) -> None:
        """Refuse further submissions; queued work still runs to completion."""
        self._closed = True

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _make_executor(self):
        """Executor for one query: shared proxy and the service's runs."""
        connection = dict(
            env=self.env,
            client_id=self.tenant_id,
            catalog=self.service.catalog,
            proxy=self.proxy,
            cost_model=self.service.cost_model,
            shared_runs=self.service.shared_runs,
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
        """The session's one generator: its start delay, then each query in
        turn — admission, executor, result — inline, so a delivery into an
        execution resumes this frame and the run's own, no third."""
        env = self.env
        if self.spec.start_delay > 0:
            yield self.spec.start_delay
        tracer = self.service.tracer
        admission = self.service.admission
        # Every submission precedes the run (it closes the session first).
        while self._pending:
            handle = self._pending.popleft()
            root = None
            if tracer is not None:
                root = tracer.start_span(
                    f"query:{handle.query.name}",
                    kind="query",
                    track=self.tenant_id,
                    tenant=self.tenant_id,
                    query=handle.query.name,
                )
            if admission is not None:
                ticket = admission.request(self.tenant_id)
                if ticket.rejected:
                    handle._mark_rejected(ticket.error, env.now)
                    if root is not None:
                        root.attrs["status"] = "rejected"
                        tracer.add_event(root, "admission.rejected")
                        tracer.end_span(root)
                    continue
                if ticket.queued:
                    handle._mark_queued(env.now)
                    if root is not None:
                        tracer.add_event(root, "admission.queued")
                yield ticket.event
                if root is not None:
                    tracer.add_event(root, "admission.granted")
            handle._mark_running(env.now)
            executor = self._make_executor()
            executor.tracer = tracer
            executor.trace_parent = root
            try:
                result = yield from executor.execute(handle.query)
            finally:
                if admission is not None:
                    admission.release(self.tenant_id)
            handle._mark_finished(result, env.now)
            if root is not None:
                root.attrs["status"] = "finished"
                root.attrs["queue_delay"] = handle.queue_delay
                root.attrs["execution_time"] = result.execution_time
                tracer.end_span(root)
            self.results.append(result)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<Session {self.tenant_id!r} {state} pending={len(self._pending)}>"
