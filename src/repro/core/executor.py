"""The Skipper query executor.

Drives the MJoin state manager over simulated time: it issues all object
requests for a query up front through the client proxy, processes objects in
whatever order the CSD pushes them back, charges CPU time for the work each
arrival triggers, and re-issues requests for evicted objects cycle by cycle
until every subplan has been executed or pruned.  The manager is a
:class:`SharedMJoin`'s state, so executions whose deliveries match share one
(:class:`~repro.core.execution.SharedRun`); each result gets its own rows and
counters.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Generator, List, Optional, Tuple

from repro.core.cache import EvictionPolicy, ObjectCache
from repro.core.client_proxy import ClientProxy
from repro.core.execution import (
    MODE_SKIPPER, QueryResult, QueryRun, RunCursor, SharedRun, SharedRuns,
)
from repro.core.mjoin import MJoinStateManager
from repro.core.subplan import SubplanLayout
from repro.engine.catalog import Catalog
from repro.engine.cost import CostModel
from repro.engine.planner import QueryPlan
from repro.engine.query import Query
from repro.engine.relation import Segment
from repro.exceptions import CacheError
from repro.obs import Span, Tracer
from repro.sim import Environment, Waitable


class SharedMJoin(SharedRun[MJoinStateManager, Tuple[int, List[str]]]):
    """One MJoin run: a delivery costs what the manager's work on it does,
    and a cycle end yields the subplans executed or pruned so far and the
    next cycle's requests."""

    mode = MODE_SKIPPER

    def __init__(
        self,
        query: Query,
        catalog: Catalog,
        cache_capacity: int,
        eviction_policy: Optional[EvictionPolicy],
        enable_pruning: bool,
        cost_model: CostModel,
    ) -> None:
        self.query = query
        self.catalog = catalog
        self.cache_capacity = cache_capacity
        self.eviction_policy = eviction_policy
        self.enable_pruning = enable_pruning
        self.cost_model = cost_model
        #: The first manager's plan and subplan layout, which every fork reuses.
        self.plan: Optional[QueryPlan] = None
        self.layout: Optional[SubplanLayout] = None
        super().__init__()
        assert self.state is not None
        self.plan = self.state.plan
        self.layout = self.state.tracker.layout
        self.initial_requests = self.state.initial_requests()

    def new_state(self) -> MJoinStateManager:
        """A fresh manager over a fresh cache (raises :class:`CacheError` for
        a cache smaller than the query's table count)."""
        return MJoinStateManager(
            self.query,
            self.catalog,
            ObjectCache(self.cache_capacity, policy=self.eviction_policy),
            enable_pruning=self.enable_pruning,
            plan=self.plan,
            layout=self.layout,
        )

    def arrive(self, state: MJoinStateManager, segment_id: str, payload: Segment) -> float:
        work = state.on_arrival(segment_id, payload)
        cost_model = self.cost_model
        if work.tuples_built or work.tuples_probed or work.tuples_output:
            return cost_model.cpu_time(work)
        # The scan alone: ``cpu_time(work)`` without its frame.  Its three
        # zero terms add exactly nothing to a finite non-negative charge.
        return cost_model.scan_seconds_per_tuple * work.tuples_scanned * cost_model.tuple_scale

    def end(self, state: MJoinStateManager) -> Tuple[int, List[str]]:
        return state.subplans_handled, state.next_cycle_requests()


class SkipperExecutor:
    """Cache-aware, CSD-driven executor for one database client."""

    #: Consecutive request cycles without a single executed or pruned subplan
    #: after which execution is aborted.  No registered query stalls at the
    #: cache sizes the goldens and figures use, but maximal progress can
    #: still stall on dense joins, and naive policies (LRU/FIFO) can livelock
    #: at very small cache sizes because the same objects are evicted cycle
    #: after cycle; the abort stays until a progress rule makes it unreachable.
    max_stalled_cycles = 3

    def __init__(
        self,
        env: Environment,
        client_id: str,
        catalog: Catalog,
        proxy: ClientProxy,
        cost_model: CostModel,
        shared_runs: SharedRuns,
        cache_capacity: int,
        eviction_policy: Optional[EvictionPolicy] = None,
        enable_pruning: bool = True,
    ) -> None:
        self.env = env
        self.client_id = client_id
        self.catalog = catalog
        self.proxy = proxy
        self.cost_model = cost_model
        #: The runs so far, shared by every executor of a service.
        self.shared_runs = shared_runs
        self.cache_capacity = cache_capacity
        #: As supplied: ``None`` stands for a fresh :class:`MaxProgressEviction`.
        self.eviction_policy = eviction_policy
        self.enable_pruning = enable_pruning
        #: Installed by the session when the service traces (``None`` otherwise).
        self.tracer: Optional[Tracer] = None
        self.trace_parent: Optional[Span] = None

    def execute(self, query: Query) -> Generator[Waitable, Any, QueryResult]:
        """Simulation-process generator executing ``query`` to completion.

        Use as ``result = yield from executor.execute(query)`` inside another
        process, or wrap it as ``process = env.process(executor.execute(query))``
        and take ``env.run(process)``.  The generator is the
        run's own request-cycle loop (:meth:`QueryRun.consume`) with this
        executor's cycle end and result plugged in: a delivery resumes no
        generator of the executor's.
        """
        shared = SharedMJoin.shared(
            self.shared_runs,
            query,
            self.catalog,
            self.cache_capacity,
            self.eviction_policy,
            self.enable_pruning,
            self.cost_model,
        )
        cursor = RunCursor(shared)
        run = QueryRun(self.proxy, query, MODE_SKIPPER, self.tracer, self.trace_parent)
        handled_after_last_cycle = 0
        stalled_cycles = 0

        def end_cycle() -> List[str]:
            nonlocal handled_after_last_cycle, stalled_cycles
            handled, requests = cursor.end()
            if handled == handled_after_last_cycle:
                stalled_cycles += 1
            else:
                stalled_cycles = 0
            handled_after_last_cycle = handled
            if stalled_cycles >= self.max_stalled_cycles:
                raise CacheError(
                    f"client {self.client_id!r}: eviction policy "
                    f"{cursor.state.cache.policy.name!r} made no progress for "
                    f"{stalled_cycles} consecutive request cycles with a cache of "
                    f"{self.cache_capacity} objects; use a larger cache or the "
                    "maximal-progress policy"
                )
            return requests

        return run.consume(
            shared.initial_requests,
            self.cost_model.request_overhead,
            cursor,
            end_cycle,
            lambda: self._result(run, cursor.state),
        )

    def _result(self, run: QueryRun, state: MJoinStateManager) -> QueryResult:
        """Close ``run`` on the manager's answer and counters."""
        cache = state.cache
        stats = replace(state.stats)
        if run.tracer is not None:
            run.tracer.record_span(
                "operators",
                kind="operator",
                track=self.client_id,
                start=self.env.now,
                end=self.env.now,
                parent=run.span,
                tuples_scanned=stats.tuples_scanned,
                tuples_built=stats.tuples_built,
                tuples_probed=stats.tuples_probed,
                tuples_output=stats.tuples_output,
                subplans_executed=state.tracker.num_executed,
                subplans_pruned=state.tracker.num_pruned,
            )
        return run.finish(
            state.results(),
            stats,
            num_cycles=state.cycles_completed,
            num_evictions=cache.num_evictions,
            subplans_total=state.tracker.total_subplans,
            subplans_executed=state.tracker.num_executed,
            subplans_pruned=state.tracker.num_pruned,
            cache_hits=cache.num_hits,
            cache_insertions=cache.num_insertions,
            cache_peak_occupancy=cache.peak_occupancy,
            cache_capacity=cache.capacity,
        )
