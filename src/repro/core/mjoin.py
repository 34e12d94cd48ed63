"""The cache-aware MJoin state manager (Algorithm 1 in the paper).

The state manager owns the query's subplan tracker, the bounded object cache
and the incremental aggregate.  It is deliberately free of any notion of
simulated time: the Skipper executor (or a unit test) feeds it object
arrivals one by one and receives back the :class:`OperatorStats` of the work
each one took, so callers can charge simulated CPU seconds through the cost
model.  The subplans an arrival completes travel as one
:class:`~repro.core.subplan.Batch`: tracker → cache → join → tracker.  What
else happened — subplans executed or pruned, evictions, result rows — is
read off the tracker's, the cache's and :attr:`MJoinStateManager.stats`'s
counters.

An arrival is filtered first, by the pull-based scans'
:func:`~repro.engine.operators.scan.select_rows`, which the segment answers
from its last selection when the predicate object is the same: one
selection per object per predicate per service, however many tenants read
it.  An object that filters to nothing is pruned before any
:class:`~repro.core.njoin.PreparedSegment` is built, and the rows a
prepared segment holds are that shared selection, read and never mutated.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.cache import ObjectCache
from repro.core.njoin import NAryJoin, PreparedSegment
from repro.core.subplan import SubplanTracker
from repro.engine.catalog import Catalog
from repro.engine.operators.aggregate import AggregateState
from repro.engine.operators.base import OperatorStats, Row
from repro.engine.operators.scan import select_rows
from repro.engine.planner import Planner, QueryPlan
from repro.engine.query import Query
from repro.engine.relation import Segment
from repro.exceptions import CacheError


class MJoinStateManager:
    """Implements the MJoin state-manager loop over out-of-order arrivals."""

    def __init__(
        self,
        query: Query,
        catalog: Catalog,
        cache: ObjectCache,
        enable_pruning: bool = True,
        planner: Optional[Planner] = None,
    ) -> None:
        self.query = query
        self.catalog = catalog
        self.cache = cache
        self.enable_pruning = enable_pruning
        planner = planner or Planner(catalog)
        self.plan: QueryPlan = planner.plan(query)
        if cache.capacity < len(query.tables):
            raise CacheError(
                f"cache capacity {cache.capacity} is smaller than the number of joined "
                f"relations ({len(query.tables)}); no subplan could ever run"
            )
        self.tracker = SubplanTracker(query, catalog, table_order=self.plan.join_order)
        self.njoin = NAryJoin(query, self.plan)
        #: The symmetric hash join's state: by name, for every table after the
        #: plan's first, one hash table over the *cached* segments of that
        #: relation.  An arrival merges its segment in, an eviction takes the
        #: victim's out.
        self.relation_tables = self.njoin.relation_tables()
        self.aggregate = AggregateState(query.group_by, query.aggregates)
        self.cycles_completed = 0
        #: The work of every arrival so far; ``tuples_output`` counts the
        #: result rows.
        self.stats = OperatorStats()

    # ------------------------------------------------------------------ #
    # Request planning
    # ------------------------------------------------------------------ #
    def initial_requests(self) -> List[str]:
        """All objects needed to evaluate the query (issued up front)."""
        requests: List[str] = []
        for table in self.plan.join_order:
            requests.extend(self.catalog.segment_ids(table))
        return requests

    def next_cycle_requests(self) -> List[str]:
        """Objects needed by pending subplans that are not currently cached.

        Called once all previously issued requests have been received; the
        returned objects form the next request cycle (the paper's re-issue
        queue).  Objects pruned as empty are never re-requested: pruning left
        them in no pending subplan.
        """
        self.cycles_completed += 1
        if not self.tracker.has_pending():
            return []
        return sorted(self.tracker.objects_needed().difference(self.cache.ids_view()))

    # ------------------------------------------------------------------ #
    # Arrival processing
    # ------------------------------------------------------------------ #
    def on_arrival(self, segment_id: str, segment: Segment) -> OperatorStats:
        """Process one object pushed by the CSD; returns the work it took.

        A segment of no table of the query raises :class:`QueryError`.
        """
        stats = OperatorStats(tuples_scanned=segment.num_rows)
        if segment_id in self.cache or not self.tracker.object_in_pending(segment_id):
            # Either a duplicate delivery or every subplan involving the
            # object has already been executed/pruned while it was in flight.
            self.stats.merge(stats)
            return stats

        # The selection the pull-based scans make, and shared with them: a
        # segment keeps its last one, so every tenant of this ``Query`` (and
        # every re-fetch) after the first gets the same row list back.
        rows = select_rows(segment, self.query.filter_for(segment.table_name))
        num_rows = len(rows)
        if self.enable_pruning and num_rows == 0:
            self.tracker.prune_object(segment_id)
            self.stats.merge(stats)
            return stats

        # Not before the object is known to stay: nine in ten objects of a
        # selective single-table query are pruned above.
        prepared = PreparedSegment(
            segment_id, segment.table_name, rows, self.tracker.offset_of(segment_id)
        )
        if self.cache.is_full:
            victim = self.cache.evict(segment_id, self.tracker).payload
            relation_table = self.relation_tables.get(victim.table_name)
            if relation_table is not None:
                self.njoin.unmerge(relation_table, victim)

        batch = self.tracker.runnable_batch(self.cache.ids_view(), segment_id)
        self.cache.add(segment_id, prepared)
        stats.tuples_built += num_rows

        # Execute every newly runnable subplan.  The union over subplans is
        # exactly the query answer, with no duplicates, and the join is the
        # MJoin's symmetric hashing: the batch's rows probe one hash table per
        # other relation once, regardless of how many segment combinations
        # they complete.  The arriving object stands alone at its position, so
        # it is probed (or probes, at the first position) through its own
        # table and merged into its relation's only afterwards.  The work
        # counters charge the incremental cost of the arrival — one probe per
        # buffered tuple of the new object per other relation, plus the
        # emitted result tuples — not the rows of cached segments that flow
        # through the levels again.
        if batch.num_pending:
            # The batch's lists follow the plan's join order, as the tracker
            # does.  Rows are folded in id order: float sums depend on it.
            aggregate_add = self.aggregate.add_all
            result_rows = 0
            payloads = self.cache.get_batch(batch)
            for rows in self.njoin.execute_batch(batch, payloads, self.relation_tables):
                aggregate_add(rows)
                result_rows += len(rows)
            self.tracker.mark_batch_executed(batch)
            other_tables = len(self.plan.steps) - 1
            stats.tuples_probed += num_rows * max(1, other_tables)
            stats.tuples_output += result_rows
        relation_table = self.relation_tables.get(segment.table_name)
        if relation_table is not None:
            self.njoin.merge(relation_table, prepared)
        self.stats.merge(stats)
        return stats

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def results(self) -> List[Row]:
        """Final query answer accumulated across all executed subplans."""
        rows = self.aggregate.results()
        if self.query.order_by:
            rows.sort(key=lambda row: tuple(row[column] for column in self.query.order_by))
        if self.query.limit is not None:
            rows = rows[: self.query.limit]
        return rows
