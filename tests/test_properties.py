"""Property-based tests for the core data structures and invariants.

The headline invariant: Skipper's out-of-order, cache-constrained execution
produces exactly the same answer as an in-memory execution, for *any* arrival
order and any (feasible) cache size.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mjoin_oracle import tracker_has_pending

from repro.core.cache import (
    FIFOEviction,
    LRUEviction,
    MaxPendingSubplansEviction,
    MaxProgressEviction,
    ObjectCache,
)
from repro.core.mjoin import MJoinStateManager
from repro.core.subplan import SubplanLayout, SubplanTracker
from repro.csd.layout import ClientsPerGroupLayout, IncrementalLayout
from repro.csd.ordering import SemanticRoundRobinOrdering
from repro.csd.request import GetRequest
from repro.csd.scheduler import MaxQueriesScheduler, RankBasedScheduler
from repro.engine import InMemoryExecutor
from repro.engine.executor import canonical_rows
from repro.engine.operators.aggregate import AggregateState
from repro.engine.predicate import col
from repro.engine.query import AggregateSpec
from repro.exceptions import SchedulingError
from repro.sim import Environment
from repro.workloads import tpch
from scheduler_oracle import SchedulerOracle, rank_of

# A single module-level catalog keeps data generation out of the hypothesis
# hot loop (the catalog is never mutated by the tests).
_CATALOG = tpch.build_catalog("tiny", seed=42)
_Q12 = tpch.q12()
_EXPECTED_Q12 = canonical_rows(InMemoryExecutor(_CATALOG).execute(_Q12).rows)
_Q12_OBJECTS = _CATALOG.segment_ids("orders") + _CATALOG.segment_ids("lineitem")


@st.composite
def arrival_orders(draw):
    """A permutation of all objects Q12 needs."""
    return draw(st.permutations(_Q12_OBJECTS))


class TestMJoinInvariants:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(order=arrival_orders(), cache_capacity=st.integers(min_value=2, max_value=12))
    def test_any_arrival_order_any_cache_size_gives_the_same_answer(self, order, cache_capacity):
        cache = ObjectCache(cache_capacity, policy=MaxProgressEviction())
        manager = MJoinStateManager(_Q12, _CATALOG, cache)
        pending_requests = list(order)
        while pending_requests:
            for segment_id in pending_requests:
                manager.on_arrival(segment_id, _CATALOG.resolve_segment_id(segment_id))
            pending_requests = manager.next_cycle_requests()
        assert canonical_rows(manager.results()) == _EXPECTED_Q12
        assert not tracker_has_pending(manager.tracker)

    @settings(max_examples=15, deadline=None)
    @given(order=arrival_orders())
    def test_every_subplan_is_executed_or_pruned_exactly_once(self, order):
        cache = ObjectCache(4, policy=MaxProgressEviction())
        manager = MJoinStateManager(_Q12, _CATALOG, cache)
        tracker = manager.tracker
        executed_total = 0
        pruned_total = 0
        pending_requests = list(order)
        while pending_requests:
            for segment_id in pending_requests:
                executed, pruned = tracker.num_executed, tracker.num_pruned
                manager.on_arrival(segment_id, _CATALOG.resolve_segment_id(segment_id))
                # An arrival executes or prunes, never both, and never
                # hands a subplan back.
                executed_delta = tracker.num_executed - executed
                pruned_delta = tracker.num_pruned - pruned
                assert executed_delta >= 0 and pruned_delta >= 0
                assert not (executed_delta and pruned_delta)
                executed_total += executed_delta
                pruned_total += pruned_delta
            pending_requests = manager.next_cycle_requests()
        assert executed_total + pruned_total == manager.tracker.total_subplans
        assert executed_total == manager.tracker.num_executed
        assert pruned_total == manager.tracker.num_pruned
        assert not tracker_has_pending(manager.tracker)


class TestCacheInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        arrivals=st.lists(st.sampled_from(_Q12_OBJECTS), min_size=1, max_size=40, unique=True),
        policy=st.sampled_from(
            [MaxProgressEviction(), MaxPendingSubplansEviction(), LRUEviction(), FIFOEviction()]
        ),
    )
    def test_cache_never_exceeds_capacity_and_victims_are_cached(self, capacity, arrivals, policy):
        tracker = SubplanTracker(SubplanLayout(_Q12, _CATALOG, _Q12.tables))
        cache = ObjectCache(capacity, policy=policy)
        for segment_id in arrivals:
            if segment_id in cache.ids_view():
                continue
            if cache.is_full:
                victim = cache.evict(segment_id, tracker)
                assert victim.segment_id not in cache.ids_view()
            cache.add(segment_id, segment_id)
            assert len(cache.ids_view()) <= capacity
        assert cache.num_insertions == len({a for a in arrivals})


class TestAggregateInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(-1000, 1000)),
            min_size=1,
            max_size=60,
        ),
        split=st.integers(min_value=0, max_value=60),
    )
    def test_incremental_aggregation_matches_single_pass(self, values, split):
        rows = [{"g": group, "v": value} for group, value in values]
        specs = [
            AggregateSpec("count", None, "cnt"),
            AggregateSpec("sum", col("v"), "total"),
            AggregateSpec("min", col("v"), "low"),
            AggregateSpec("max", col("v"), "high"),
            AggregateSpec("avg", col("v"), "mean"),
        ]
        one_pass = AggregateState(["g"], specs)
        one_pass.add_all(rows)
        split = min(split, len(rows))
        two_pass = AggregateState(["g"], specs)
        two_pass.add_all(rows[:split])
        two_pass.add_all(rows[split:])
        key = lambda row: row["g"]
        assert sorted(one_pass.results(), key=key) == sorted(two_pass.results(), key=key)


class TestSchedulerInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        groups=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30),
        switches=st.lists(st.integers(min_value=0, max_value=4), max_size=10),
    )
    def test_rank_is_at_least_query_count_and_waiting_is_non_negative(self, groups, switches):
        env = Environment()
        scheduler = RankBasedScheduler()
        for index, group in enumerate(groups):
            request = GetRequest(f"c{index}/t.{index}", f"c{index}", f"q{index}", env.event())
            scheduler.add_request(request, group)
        for group in switches:
            scheduler.notify_switch(group)
        for group in scheduler.pending_groups():
            assert rank_of(scheduler, group) >= len(scheduler.queries_on_group(group))
        for query_id in scheduler.pending_queries():
            assert scheduler.waiting_time(query_id) >= 0
        chosen = scheduler.choose_next_group(None)
        assert chosen in scheduler.pending_groups()
        best_rank = max(rank_of(scheduler, group) for group in scheduler.pending_groups())
        assert rank_of(scheduler, chosen) == pytest.approx(best_rank)

    @pytest.mark.parametrize("fairness_constant", [None, 0, 0.5, 1, 3])  # None: max-queries
    @settings(max_examples=60, deadline=None)
    @given(
        operations=st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.integers(0, 4), st.integers(0, 3)),
                st.tuples(st.just("add"), st.integers(0, 4), st.integers(0, 3)),
                st.tuples(st.just("switch"), st.integers(0, 5)),
                st.tuples(st.just("next"), st.integers(0, 5)),
                st.tuples(st.just("choose")),
                st.tuples(st.just("serve")),
                st.tuples(st.just("drain")),
            ),
            max_size=40,
        ),
    )
    def test_decisions_and_waiting_agree_with_the_oracle(self, fairness_constant, operations):
        """Any interleaving of arrivals, decisions, switches, served requests
        and drains: the scheduler's one-pass decision and in-place indexes
        answer exactly as ``scheduler_oracle`` recomputing from the pool.

        Mutations driven by hand against this property, each caught: the
        tie-break on ``+group`` instead of ``-group``; ``>=`` for ``>`` on the
        running maximum's rank; ``has_pending`` left true after the last
        removal (``_query_pending`` entry kept at zero).
        """
        env = Environment()
        oracle = SchedulerOracle(fairness_constant)
        scheduler = (
            MaxQueriesScheduler()
            if fairness_constant is None
            else RankBasedScheduler(fairness_constant=fairness_constant)
        )
        current = None

        def choose():
            if not oracle.has_pending():
                with pytest.raises(SchedulingError):
                    scheduler.choose_next_group(current)
                return None
            chosen = scheduler.choose_next_group(current)
            assert chosen == oracle.choose_next_group()
            return chosen

        def switch(group):
            scheduler.notify_switch(group)
            oracle.notify_switch(group)
            return group

        def serve_one(group):
            request = scheduler.next_request(group)
            assert (request is None) == (group not in oracle.pending_groups())
            if request is not None:
                oracle.remove_request(request.request_id, group)

        for operation in operations:
            if operation[0] == "add":
                _, group, query = operation
                request = GetRequest(f"c{query}/t.0", f"c{query}", f"q{query}", env.event())
                scheduler.add_request(request, group)
                oracle.add_request(request.request_id, request.query_id, group)
            elif operation[0] == "switch":
                current = switch(operation[1])
            elif operation[0] == "next":
                serve_one(operation[1])
            elif operation[0] == "choose":
                choose()
            elif operation[0] == "serve":  # what the device loop does per decision
                chosen = choose()
                if chosen is not None:
                    if chosen != current:
                        current = switch(chosen)
                    for _ in range(scheduler.service_quota(chosen)):
                        serve_one(chosen)
            else:  # a fail-stop drain: every group emptied in turn
                for group in oracle.pending_groups():
                    while oracle.queries_on_group(group):
                        serve_one(group)

            assert bool(scheduler.has_pending()) == oracle.has_pending()
            assert scheduler.pending_groups() == oracle.pending_groups()
            assert scheduler.pending_queries() == oracle.pending_queries()
            assert scheduler.num_switches == oracle.num_switches
            assert scheduler.max_waiting_seen == oracle.max_waiting_seen
            for query in range(4):
                assert scheduler.waiting_time(f"q{query}") == oracle.waiting_time(f"q{query}")
            for group in range(6):
                assert scheduler.queries_on_group(group) == oracle.queries_on_group(group)
                assert bool(scheduler._group_queries.get(group)) == bool(
                    scheduler._pending.get(group)
                )
                if fairness_constant is not None:
                    assert rank_of(scheduler, group) == oracle.rank(group)

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=0, max_value=9),
                st.sampled_from(["q0", "q1"]),
            ),
            min_size=1,
            max_size=25,
            unique=True,
        )
    )
    def test_semantic_ordering_is_a_permutation(self, keys):
        env = Environment()
        requests = [
            GetRequest(f"c/{table}.{index}", "c", query, env.event())
            for table, index, query in keys
        ]
        ordered = SemanticRoundRobinOrdering().order(requests)
        assert sorted(r.request_id for r in ordered) == sorted(r.request_id for r in requests)


class TestLayoutInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        num_clients=st.integers(min_value=1, max_value=6),
        num_objects=st.integers(min_value=1, max_value=15),
        clients_per_group=st.integers(min_value=1, max_value=3),
    )
    def test_group_count_bounds(self, num_clients, num_objects, clients_per_group):
        clients = {
            f"c{c}": [f"c{c}/t.{i}" for i in range(num_objects)] for c in range(num_clients)
        }
        layout = ClientsPerGroupLayout(clients_per_group).build(clients)
        expected_groups = -(-num_clients // clients_per_group)  # ceil division
        assert layout.num_groups == expected_groups
        incremental = IncrementalLayout().build(clients)
        assert incremental.num_groups <= num_clients
