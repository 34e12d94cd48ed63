"""Pull-based query execution over the CSD (vanilla PostgreSQL model).

The executor owns the strategy (the plan's access order, the scan cost, the
local join); the per-object loop — overhead, one blocking GET, wait, scan
charge — is :meth:`~repro.core.execution.QueryRun.pull_each`.

The local join is a pure function of the ``Query`` object and the fetched
``Segment`` objects, so a service computes it once per query
(:class:`LocalJoin`, kept in the service's :data:`LocalJoins`) and charges
it to every execution: the simulated join CPU is derived from the counters
per execution, as before.  Each execution gets its own copy of the rows and
of the counters, and only reads the shared operator tree (to trace it).
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter, is_
from typing import Any, Dict, Generator, List, NamedTuple, Optional, Tuple

from repro.core.client_proxy import ClientProxy
from repro.core.execution import MODE_VANILLA, QueryResult, QueryRun
from repro.csd.backend import StorageBackend
from repro.engine.catalog import Catalog
from repro.engine.cost import CostModel
from repro.engine.operators.base import Operator, OperatorStats, Row
from repro.engine.planner import Planner, QueryPlan
from repro.engine.query import Query
from repro.engine.relation import Relation, Segment
from repro.obs import Span, Tracer
from repro.sim import Environment, Event

_BY_INDEX = attrgetter("index")


class LocalJoin(NamedTuple):
    """One computed local join: its inputs, its rows, counters and tree."""

    query: Query
    #: The fetched segments, table by table, each table's in index order.
    segments: List[Segment]
    rows: List[Row]
    stats: OperatorStats
    root: Operator


#: A service's local joins by ``id(query)``.  An entry holds its query, so
#: the id cannot be reused by another query while the entry lives.
LocalJoins = Dict[int, LocalJoin]


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
        local_joins: Optional[LocalJoins] = None,
    ) -> None:
        self.env = env
        self.client_id = client_id
        self.catalog = catalog
        self.device = device
        self.cost_model = cost_model or CostModel()
        self.proxy = proxy or ClientProxy(env, device, client_id)
        self.planner = Planner(catalog)
        #: The joins already computed, shared by every executor of a service.
        self.local_joins: LocalJoins = {} if local_joins is None else local_joins
        #: Installed by the session when the service traces (``None`` otherwise).
        self.tracer: Optional[Tracer] = None
        self.trace_parent: Optional[Span] = None

    def execute(self, query: Query) -> Generator[Event, Any, QueryResult]:
        """Simulation-process generator executing ``query`` to completion."""
        plan = self.planner.plan(query)
        run = QueryRun(self.proxy, query, MODE_VANILLA, self.tracer, self.trace_parent)
        cost_model = self.cost_model
        fetched: Dict[str, List[Segment]] = {table: [] for table in query.tables}

        def scan(segment_id: str, payload: Segment) -> float:
            fetched[self.catalog.table_of_segment(segment_id)].append(payload)
            return cost_model.scan_time(payload.num_rows)

        yield from run.pull_each(
            plan.segment_access_order(self.catalog), cost_model.request_overhead(1), scan
        )

        rows, stats, root = self._local_join(query, plan, fetched)
        # Scans were charged segment by segment as data arrived, so only the
        # build/probe/output components of the final plan are charged here.
        yield from run.charge(
            cost_model.build_time(stats.tuples_built)
            + cost_model.probe_time(stats.tuples_probed)
            + cost_model.output_time(stats.tuples_output),
            phase="join-aggregate",
        )
        if run.tracer is not None:
            self._record_operator_spans(run.tracer, root, run.span, self.env.now)
        return run.finish(rows, stats)

    # ------------------------------------------------------------------ #
    # Local processing over the fetched segments
    # ------------------------------------------------------------------ #
    def _local_join(
        self, query: Query, plan: QueryPlan, fetched: Dict[str, List[Segment]]
    ) -> Tuple[List[Row], OperatorStats, Operator]:
        """Rows and counters of this execution, and the tree to trace.

        Joins only when this service has not joined ``query`` over these very
        segment objects yet.  A join that raises is not kept, so a hit is a
        fetch ``Relation`` already accepted, and any other fetch is checked.
        """
        segments = [
            segment for listed in fetched.values() for segment in sorted(listed, key=_BY_INDEX)
        ]
        kept = self.local_joins.get(id(query))
        if (
            kept is None
            or len(kept.segments) != len(segments)
            or not all(map(is_, kept.segments, segments))
        ):
            kept = LocalJoin(query, segments, *self._process_locally(query, plan, fetched))
            self.local_joins[id(query)] = kept
        return list(map(dict, kept.rows)), replace(kept.stats), kept.root

    def _process_locally(
        self, query: Query, plan: QueryPlan, fetched: Dict[str, List[Segment]]
    ) -> Tuple[List[Row], OperatorStats, Operator]:
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

    def _record_operator_spans(
        self, tracer: Tracer, operator: Operator, parent: Optional[Span], at: float
    ) -> None:
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
