"""Pull-based query execution over the CSD (vanilla PostgreSQL model).

The executor owns the strategy (the plan's access order, the scan cost, the
local join and its charge); the per-object loop — overhead, one blocking
GET, wait, scan charge — is :meth:`~repro.core.execution.QueryRun.pull_each`,
which ends with the executor's join step.  The fetched
segments and the join over them are a :class:`SharedPullJoin`'s state and
end, so executions whose fetch is the same segment objects share one
(:class:`~repro.core.execution.SharedRun`); each result gets its own copy of
the rows and counters and only reads the shared operator tree, to trace it.
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.client_proxy import ClientProxy
from repro.core.execution import (
    MODE_VANILLA, QueryResult, QueryRun, RunCursor, SharedRun, SharedRuns,
)
from repro.engine.catalog import Catalog
from repro.engine.cost import CostModel
from repro.engine.operators.base import Operator, OperatorStats, Row
from repro.engine.planner import Planner
from repro.engine.query import Query
from repro.engine.relation import Relation, Segment
from repro.obs import Span, Tracer
from repro.sim import Environment, Waitable

_BY_INDEX = attrgetter("index")
#: What a pull-based run ends with: the rows, their counters and the tree.
JoinOutcome = Tuple[List[Row], OperatorStats, Operator]


class SharedPullJoin(SharedRun[Dict[str, List[Segment]], JoinOutcome]):
    """One pull-based run: a delivery is filed under its table and costs its
    scan, and the end joins the fetched segments along the plan."""

    mode = MODE_VANILLA

    def __init__(self, query: Query, catalog: Catalog, cost_model: CostModel) -> None:
        self.query = query
        self.catalog = catalog
        self.cost_model = cost_model
        self.planner = Planner(catalog)
        self.plan = self.planner.plan(query)
        self.access_order = self.plan.segment_access_order(catalog)
        super().__init__()

    def new_state(self) -> Dict[str, List[Segment]]:
        return {table: [] for table in self.query.tables}

    def arrive(self, fetched: Dict[str, List[Segment]], segment_id: str, payload: Segment) -> float:
        fetched[self.catalog.table_of_segment(segment_id)].append(payload)
        return self.cost_model.scan_time(len(payload.rows))

    def end(self, fetched: Dict[str, List[Segment]]) -> JoinOutcome:
        # Scanned as delivered: ``Relation`` rejects an incomplete or foreign fetch.
        relations: Dict[str, Relation] = {
            table: Relation(self.catalog.schema(table), sorted(segments, key=_BY_INDEX))
            for table, segments in fetched.items()
        }
        root = self.planner.build_operator_tree(self.plan, relation_provider=relations.__getitem__)
        return root.rows(), root.collect_stats(), root


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
        proxy: ClientProxy,
        cost_model: CostModel,
        shared_runs: SharedRuns,
    ) -> None:
        self.env = env
        self.client_id = client_id
        self.catalog = catalog
        self.proxy = proxy
        self.cost_model = cost_model
        #: The runs so far, shared by every executor of a service.
        self.shared_runs = shared_runs
        #: Installed by the session when the service traces (``None`` otherwise).
        self.tracer: Optional[Tracer] = None
        self.trace_parent: Optional[Span] = None

    def execute(self, query: Query) -> Generator[Waitable, Any, QueryResult]:
        """Simulation-process generator executing ``query`` to completion.

        The generator is the run's own pull loop (:meth:`QueryRun.pull_each`)
        with this executor's join step plugged in as its end: a delivery
        resumes no generator of the executor's.
        """
        shared = SharedPullJoin.shared(self.shared_runs, query, self.catalog, self.cost_model)
        cursor = RunCursor(shared)
        run = QueryRun(self.proxy, query, MODE_VANILLA, self.tracer, self.trace_parent)
        cost_model = self.cost_model

        def join() -> Generator[Waitable, Any, QueryResult]:
            rows, stats, root = cursor.end()
            # Scans were charged segment by segment as data arrived, so only
            # the build/probe/output components of the final plan are
            # charged here.
            yield from run.charge(
                cost_model.build_time(stats.tuples_built)
                + cost_model.probe_time(stats.tuples_probed)
                + cost_model.output_time(stats.tuples_output),
                phase="join-aggregate",
            )
            if run.tracer is not None:
                self._record_operator_spans(run.tracer, root, run.span, self.env.now)
            return run.finish(list(map(dict, rows)), replace(stats))

        return run.pull_each(
            shared.access_order, cost_model.request_overhead(1), cursor.arrive, join
        )

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
