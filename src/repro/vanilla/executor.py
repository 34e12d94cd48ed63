"""Pull-based query execution over the CSD (vanilla PostgreSQL model)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.client_proxy import ClientProxy
from repro.csd.backend import StorageBackend
from repro.engine.catalog import Catalog
from repro.engine.cost import CostModel
from repro.engine.operators.base import OperatorStats, Row
from repro.engine.planner import Planner
from repro.engine.query import Query
from repro.engine.relation import Relation, Segment
from repro.exceptions import ExecutionError
from repro.obs import NULL_TRACER
from repro.sim import Environment


@dataclass
class VanillaQueryResult:
    """Outcome and metrics of one pull-based query execution."""

    query_name: str
    client_id: str
    rows: List[Row]
    start_time: float
    end_time: float
    processing_time: float
    num_requests: int
    stats: OperatorStats
    blocked_intervals: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def execution_time(self) -> float:
        """End-to-end simulated execution time of the query."""
        return self.end_time - self.start_time

    @property
    def waiting_time(self) -> float:
        """Total simulated time spent blocked on the CSD."""
        return sum(end - start for start, end in self.blocked_intervals)


class VanillaExecutor:
    """Pull-based executor: one outstanding segment request at a time.

    The executor requests segments in the order dictated by the left-deep
    plan (all segments of the topmost build table first, …, the streamed
    fact table last), charges a per-segment scan cost as each segment
    arrives, and charges the remaining join/aggregation CPU once all inputs
    are local — the access pattern of a classical engine, which is what the
    paper's Figures 4, 5 and 7 measure.
    """

    def __init__(
        self,
        env: Environment,
        client_id: str,
        catalog: Catalog,
        device: StorageBackend,
        cost_model: Optional[CostModel] = None,
        proxy: Optional[ClientProxy] = None,
    ) -> None:
        self.env = env
        self.client_id = client_id
        self.catalog = catalog
        self.device = device
        self.cost_model = cost_model or CostModel()
        self.proxy = proxy or ClientProxy(env, device, client_id)
        self.planner = Planner(catalog)
        #: Installed by the session when the service traces (NULL otherwise).
        self.tracer = NULL_TRACER
        self.trace_parent = None

    def execute(self, query: Query):
        """Simulation-process generator executing ``query`` to completion."""
        plan = self.planner.plan(query)
        access_order = plan.segment_access_order(self.catalog)
        query_id = self.proxy.new_query_id(query.name)

        start_time = self.env.now
        processing_time = 0.0
        blocked: List[Tuple[float, float]] = []
        fetched: Dict[str, List[Segment]] = {table: [] for table in query.tables}

        tracer = self.tracer
        traced = tracer.enabled
        exec_span = None
        if traced:
            exec_span = tracer.start_span(
                "execute",
                kind="executor",
                track=self.client_id,
                parent=self.trace_parent,
                query_id=query_id,
                mode="vanilla",
            )
            tracer.bind_query(query_id, exec_span)

        for segment_id in access_order:
            overhead = self.cost_model.request_overhead(1)
            if overhead > 0:
                processing_time += overhead
                overhead_start = self.env.now
                yield self.env.timeout(overhead)
                if traced:
                    tracer.record_span(
                        "request-overhead",
                        kind="compute",
                        track=self.client_id,
                        start=overhead_start,
                        end=self.env.now,
                        parent=exec_span,
                        requests=1,
                    )
            self.proxy.request_objects([segment_id], query_id)
            wait_start = self.env.now
            arrived_id, payload = yield self.proxy.receive()
            if self.env.now > wait_start:
                blocked.append((wait_start, self.env.now))
                if traced:
                    tracer.record_span(
                        "wait",
                        kind="wait",
                        track=self.client_id,
                        start=wait_start,
                        end=self.env.now,
                        parent=exec_span,
                        object_key=segment_id,
                    )
            if arrived_id != segment_id:
                raise ExecutionError(
                    f"pull-based executor expected {segment_id!r} but received {arrived_id!r}"
                )
            table = self.catalog.table_of_segment(segment_id)
            fetched[table].append(payload)
            scan_seconds = self.cost_model.scan_time(payload.num_rows)
            if scan_seconds > 0:
                processing_time += scan_seconds
                scan_start = self.env.now
                yield self.env.timeout(scan_seconds)
                if traced:
                    tracer.record_span(
                        "compute",
                        kind="compute",
                        track=self.client_id,
                        start=scan_start,
                        end=self.env.now,
                        parent=exec_span,
                        object_key=segment_id,
                    )

        rows, stats, root = self._process_locally(query, plan, fetched)
        remaining_cpu = self._remaining_cpu_time(stats)
        if remaining_cpu > 0:
            processing_time += remaining_cpu
            cpu_start = self.env.now
            yield self.env.timeout(remaining_cpu)
            if traced:
                tracer.record_span(
                    "compute",
                    kind="compute",
                    track=self.client_id,
                    start=cpu_start,
                    end=self.env.now,
                    parent=exec_span,
                    phase="join-aggregate",
                )

        end_time = self.env.now
        if traced:
            self._record_operator_spans(tracer, root, exec_span, end_time)
            exec_span.attrs["num_requests"] = len(access_order)
            tracer.end_span(exec_span, end_time)
        return VanillaQueryResult(
            query_name=query.name,
            client_id=self.client_id,
            rows=rows,
            start_time=start_time,
            end_time=end_time,
            processing_time=processing_time,
            num_requests=len(access_order),
            stats=stats,
            blocked_intervals=blocked,
        )

    # ------------------------------------------------------------------ #
    # Local processing over the fetched segments
    # ------------------------------------------------------------------ #
    def _process_locally(
        self, query: Query, plan, fetched: Dict[str, List[Segment]]
    ) -> Tuple[List[Row], OperatorStats, object]:
        # Scanned as delivered: ``Relation`` rejects an incomplete or foreign fetch.
        relations: Dict[str, Relation] = {
            table: Relation(
                self.catalog.schema(table), sorted(segments, key=lambda segment: segment.index)
            )
            for table, segments in fetched.items()
        }
        root = self.planner.build_operator_tree(plan, relation_provider=relations.__getitem__)
        rows = root.rows()
        return rows, root.collect_stats(), root

    def _record_operator_spans(self, tracer, operator, parent, at: float) -> None:
        """Instant span per physical operator, preserving the tree shape."""
        span = tracer.record_span(
            f"operator:{type(operator).__name__}",
            kind="operator",
            track=self.client_id,
            start=at,
            end=at,
            parent=parent,
            tuples_scanned=operator.stats.tuples_scanned,
            tuples_built=operator.stats.tuples_built,
            tuples_probed=operator.stats.tuples_probed,
            tuples_output=operator.stats.tuples_output,
        )
        for child in operator.children():
            self._record_operator_spans(tracer, child, span, at)

    def _remaining_cpu_time(self, stats: OperatorStats) -> float:
        """Join/aggregation CPU not already charged during the fetch phase.

        Scans were charged segment by segment as data arrived, so only the
        build/probe/output components of the final plan are charged here.
        """
        return (
            self.cost_model.build_time(stats.tuples_built)
            + self.cost_model.probe_time(stats.tuples_probed)
            + self.cost_model.output_time(stats.tuples_output)
        )
