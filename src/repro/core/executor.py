"""The Skipper query executor.

Drives the MJoin state manager over simulated time: it issues all object
requests for a query up front through the client proxy, processes objects in
whatever order the CSD pushes them back, charges CPU time for the work each
arrival triggers, and re-issues requests for evicted objects cycle by cycle
until every subplan has been executed or pruned.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.cache import EvictionPolicy, MaxProgressEviction, ObjectCache
from repro.core.client_proxy import ClientProxy
from repro.core.execution import MODE_SKIPPER, QueryResult, QueryRun
from repro.core.mjoin import MJoinStateManager
from repro.csd.backend import StorageBackend
from repro.engine.catalog import Catalog
from repro.engine.cost import CostModel
from repro.engine.query import Query
from repro.engine.relation import Segment
from repro.exceptions import CacheError
from repro.obs import Span, Tracer
from repro.sim import Environment, Event


class SkipperExecutor:
    """Cache-aware, CSD-driven executor for one database client."""

    #: Consecutive request cycles without a single executed or pruned subplan
    #: after which execution is aborted.  The paper's maximal-progress policy
    #: never hits this; naive policies (LRU/FIFO) can livelock at very small
    #: cache sizes because the same objects are evicted cycle after cycle.
    max_stalled_cycles = 3

    def __init__(
        self,
        env: Environment,
        client_id: str,
        catalog: Catalog,
        device: StorageBackend,
        cache_capacity: int,
        eviction_policy: Optional[EvictionPolicy] = None,
        cost_model: Optional[CostModel] = None,
        enable_pruning: bool = True,
        proxy: Optional[ClientProxy] = None,
    ) -> None:
        self.env = env
        self.client_id = client_id
        self.catalog = catalog
        self.device = device
        self.cache_capacity = cache_capacity
        self.eviction_policy = eviction_policy or MaxProgressEviction()
        self.cost_model = cost_model or CostModel()
        self.enable_pruning = enable_pruning
        self.proxy = proxy or ClientProxy(env, device, client_id)
        #: Installed by the session when the service traces (``None`` otherwise).
        self.tracer: Optional[Tracer] = None
        self.trace_parent: Optional[Span] = None

    def execute(self, query: Query) -> Generator[Event, Any, QueryResult]:
        """Simulation-process generator executing ``query`` to completion.

        Use as ``result = yield from executor.execute(query)`` inside another
        process, or wrap with ``env.process(executor.execute(query))`` and
        read the process value after ``env.run()``.
        """
        cache = ObjectCache(self.cache_capacity, policy=self.eviction_policy)
        state = MJoinStateManager(
            query,
            self.catalog,
            cache,
            enable_pruning=self.enable_pruning,
        )
        run = QueryRun(self.proxy, query, MODE_SKIPPER, self.tracer, self.trace_parent)
        cost_model = self.cost_model

        def on_arrival(segment_id: str, payload: Segment) -> float:
            """Feed one delivery to MJoin; the CPU seconds it cost."""
            return cost_model.cpu_time(state.on_arrival(segment_id, payload))

        handled_after_last_cycle = 0
        stalled_cycles = 0

        requests = state.initial_requests()
        while requests:
            run.request(requests)
            yield from run.charge(
                cost_model.request_overhead(len(requests)),
                "request-overhead",
                requests=len(requests),
            )
            yield from run.consume(len(requests), on_arrival)

            handled = state.tracker.num_executed + state.tracker.num_pruned
            if handled == handled_after_last_cycle:
                stalled_cycles += 1
            else:
                stalled_cycles = 0
            handled_after_last_cycle = handled
            if stalled_cycles >= self.max_stalled_cycles:
                raise CacheError(
                    f"client {self.client_id!r}: eviction policy "
                    f"{self.eviction_policy.name!r} made no progress for "
                    f"{stalled_cycles} consecutive request cycles with a cache of "
                    f"{self.cache_capacity} objects; use a larger cache or the "
                    "maximal-progress policy"
                )
            requests = state.next_cycle_requests()

        if run.tracer is not None:
            run.tracer.record_span(
                "operators",
                kind="operator",
                track=self.client_id,
                start=self.env.now,
                end=self.env.now,
                parent=run.span,
                tuples_scanned=state.stats.tuples_scanned,
                tuples_built=state.stats.tuples_built,
                tuples_probed=state.stats.tuples_probed,
                tuples_output=state.stats.tuples_output,
                subplans_executed=state.tracker.num_executed,
                subplans_pruned=state.tracker.num_pruned,
            )
        return run.finish(
            state.results(),
            state.stats,
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
