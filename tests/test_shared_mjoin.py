"""Shared runs against private state, for both kinds of run.

A service runs each execution's work once per (mode, ``Query``, settings):
an execution whose deliveries match the run's log takes the logged outcomes,
the first to reach a step takes it on the one shared state, and one whose
delivery differs forks into a private state.  The oracles: drive several
executions of one query through one run, each with its own delivery order —
a prefix every execution shares, then its own shuffle — interleaved in a
drawn order, and check every charge and outcome each one saw against private
work fed the same deliveries: a private :class:`MJoinStateManager` for a
:class:`SharedMJoin`, the in-memory executor for a :class:`SharedPullJoin`.
The executions also do no more work between them than they would alone, and
exactly one execution's worth when their orders all match.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings, strategies as st
from test_core_arrival_properties import _POLICIES, chain_joins

from repro.core.cache import MaxProgressEviction, ObjectCache
from repro.core.execution import RunCursor
from repro.core.executor import SharedMJoin
from repro.core.mjoin import MJoinStateManager
from repro.engine.cost import CostModel
from repro.engine.executor import InMemoryExecutor, canonical_rows
from repro.engine.relation import Segment
from repro.exceptions import CacheError, ExecutionError, QueryError, SchemaError
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.service import StorageService
from repro.vanilla.executor import SharedPullJoin
from repro.workloads import tpch

#: A prefix no run reaches: the execution never leaves the shared order.
NEVER = 10**6
#: Cycles without progress after which a drive stops, as the executor does.
STALLED_CYCLES = 3

_TINY = tpch.build_catalog("tiny", seed=42)
_Q5 = tpch.q5()
#: Tiny Q5 delivered in request order: with a cache of its six tables, cycles
#: of 10, 4 and 3 deliveries.
_Q5_CASE = (_TINY, _Q5, MJoinStateManager(_Q5, _TINY, ObjectCache(6)).initial_requests())


def _order(requests, delivered, first_cycle, prefix, rng):
    """One cycle's delivery order: the shared one — ``first_cycle`` for the
    first cycle, the requests as issued after it — up to delivery ``prefix``,
    then the execution's own shuffle, which starts with a different object
    whenever two or more are left."""
    shared = list(first_cycle) if delivered == 0 else list(requests)
    keep = max(0, prefix - delivered)
    if keep >= len(shared):
        return shared
    tail = shared[keep:]
    rng.shuffle(tail)
    if len(tail) > 1 and tail[0] == shared[keep]:
        tail[0], tail[1] = tail[1], tail[0]
    return shared[:keep] + tail


def _drive(cursor, catalog, first_cycle, prefix, seed, seen):
    """One execution, yielding after each delivery; ``seen`` gets every
    ``("arrival", segment_id, seconds)`` and ``("cycle", handled, requests)``."""
    rng = random.Random(seed)
    requests = list(cursor.run.initial_requests)
    delivered = stalled = handled_before = 0
    while requests and stalled < STALLED_CYCLES:
        for segment_id in _order(requests, delivered, first_cycle, prefix, rng):
            seconds = cursor.arrive(segment_id, catalog.resolve_segment_id(segment_id))
            seen.append(("arrival", segment_id, seconds))
            delivered += 1
            yield
        handled, requests = cursor.end()
        seen.append(("cycle", handled, requests))
        stalled = stalled + 1 if handled == handled_before else 0
        handled_before = handled


def _pull(cursor, catalog, prefix, seed, seen):
    """One pull-based execution, yielding after each delivery; ``seen`` gets
    every ``("arrival", segment_id, seconds)`` and the ``("end", rows, stats)``."""
    for segment_id in _order([], 0, cursor.run.access_order, prefix, random.Random(seed)):
        seconds = cursor.arrive(segment_id, catalog.resolve_segment_id(segment_id))
        seen.append(("arrival", segment_id, seconds))
        yield
    rows, stats, _root = cursor.end()
    seen.append(("end", rows, stats))


def _interleave(walks, schedule):
    """Advance ``walks`` in the drawn order, then each to its end."""
    live = list(range(len(walks)))
    for pick in schedule:
        if not live:
            break
        index = live[pick % len(live)]
        if next(walks[index], StopIteration) is StopIteration:
            live.remove(index)
    for index in live:
        for _ in walks[index]:
            pass


def _executions():
    """2–4 executions: each one's shared prefix and shuffle seed."""
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.integers(0, 2**16)),
        min_size=2,
        max_size=4,
    )


def _counters(manager):
    return dict(
        stats=asdict(manager.stats),
        num_cycles=manager.cycles_completed,
        num_evictions=manager.cache.num_evictions,
        subplans_total=manager.tracker.total_subplans,
        subplans_executed=manager.tracker.num_executed,
        subplans_pruned=manager.tracker.num_pruned,
        cache_hits=manager.cache.num_hits,
        cache_insertions=manager.cache.num_insertions,
        cache_peak_occupancy=manager.cache.peak_occupancy,
    )


class TestForkOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        case=chain_joins(),
        spare_capacity=st.integers(min_value=0, max_value=3),
        policy=st.sampled_from(_POLICIES),
        enable_pruning=st.booleans(),
        executions=_executions(),
        schedule=st.lists(st.integers(min_value=0, max_value=3), max_size=120),
    )
    # Tiny Q5, cycles of 10, 4 and 3 deliveries: the second execution leaves
    # the shared order at its first delivery, at the first delivery of the
    # second cycle, in the last cycle, and never; the last example runs the
    # executions one after the other (an empty schedule), so every later one
    # starts after the first finished.
    @example(_Q5_CASE, 0, MaxProgressEviction, True, [(NEVER, 0), (0, 1)], [1, 0] * 20)
    @example(_Q5_CASE, 0, MaxProgressEviction, True, [(NEVER, 0), (10, 1)], [0, 1] * 20)
    @example(_Q5_CASE, 0, MaxProgressEviction, True, [(NEVER, 0), (15, 1)], [0, 0, 1] * 20)
    @example(_Q5_CASE, 0, MaxProgressEviction, True, [(NEVER, 0), (NEVER, 1), (NEVER, 2)], [2, 1, 0] * 9)
    @example(_Q5_CASE, 0, MaxProgressEviction, True, [(NEVER, 0), (NEVER, 1), (12, 2)], [])
    def test_every_execution_sees_what_a_private_manager_gives(
        self, case, spare_capacity, policy, enable_pruning, executions, schedule
    ):
        catalog, query, first_cycle = case
        cost_model = CostModel()
        fed = []
        real_on_arrival = MJoinStateManager.on_arrival

        def counted(manager, segment_id, segment):
            fed.append(segment_id)
            return real_on_arrival(manager, segment_id, segment)

        MJoinStateManager.on_arrival = counted
        try:
            run = SharedMJoin(
                query, catalog, len(query.tables) + spare_capacity, policy(), enable_pruning, cost_model
            )
            cursors = [RunCursor(run) for _ in executions]
            seen = [[] for _ in executions]
            _interleave(
                [
                    _drive(cursor, catalog, first_cycle, prefix, seed, log)
                    for cursor, (prefix, seed), log in zip(cursors, executions, seen)
                ],
                schedule,
            )
        finally:
            MJoinStateManager.on_arrival = real_on_arrival

        received = [sum(kind == "arrival" for kind, _, _ in log) for log in seen]
        assert len(fed) <= sum(received)
        if all(log == seen[0] for log in seen):
            assert len(fed) == received[0]
        for cursor, log in zip(cursors, seen):
            private = MJoinStateManager(
                query,
                catalog,
                ObjectCache(len(query.tables) + spare_capacity, policy=policy()),
                enable_pruning=enable_pruning,
            )
            assert list(run.initial_requests) == private.initial_requests()
            for kind, first, second in log:
                if kind == "arrival":
                    stats = private.on_arrival(first, catalog.resolve_segment_id(first))
                    assert second == cost_model.cpu_time(stats)
                else:
                    assert (first, second) == (
                        private.subplans_handled,
                        private.next_cycle_requests(),
                    )
            state = cursor.state
            assert _counters(state) == _counters(private)
            assert canonical_rows(state.results()) == canonical_rows(private.results())

    @settings(max_examples=30, deadline=None)
    @given(
        case=chain_joins(),
        executions=_executions(),
        schedule=st.lists(st.integers(min_value=0, max_value=3), max_size=40),
    )
    # Tiny Q5, 30 objects: the second execution leaves the access order at
    # its first delivery, in the middle and never; the last example runs the
    # executions one after the other.
    @example(_Q5_CASE, [(NEVER, 0), (0, 1)], [1, 0] * 20)
    @example(_Q5_CASE, [(NEVER, 0), (14, 1)], [0, 1] * 20)
    @example(_Q5_CASE, [(NEVER, 0), (NEVER, 1), (NEVER, 2)], [2, 1, 0] * 9)
    @example(_Q5_CASE, [(NEVER, 0), (NEVER, 1), (12, 2)], [])
    def test_every_pull_based_execution_sees_what_the_in_memory_join_gives(
        self, case, executions, schedule
    ):
        catalog, query, _first_cycle = case
        cost_model = CostModel()
        joins = []
        real_end = SharedPullJoin.end

        def counted(run, fetched):
            joins.append(run)
            return real_end(run, fetched)

        SharedPullJoin.end = counted
        try:
            run = SharedPullJoin(query, catalog, cost_model)
            seen = [[] for _ in executions]
            _interleave(
                [
                    _pull(RunCursor(run), catalog, prefix, seed, log)
                    for (prefix, seed), log in zip(executions, seen)
                ],
                schedule,
            )
        finally:
            SharedPullJoin.end = real_end

        expected = InMemoryExecutor(catalog).execute(query)
        assert 1 <= len(joins) <= len(executions)
        if all(log == seen[0] for log in seen):
            assert len(joins) == 1
        for log in seen:
            *arrivals, (kind, rows, stats) = log
            assert sorted(segment_id for _, segment_id, _ in arrivals) == sorted(run.access_order)
            for _, segment_id, seconds in arrivals:
                segment = catalog.resolve_segment_id(segment_id)
                assert seconds == cost_model.scan_time(segment.num_rows)
            assert kind == "end" and rows == expected.rows and stats == expected.stats


def test_executions_that_follow_get_their_own_rows_and_counters():
    """Two Skipper tenants of one query share a run; their results are equal
    and independent: mutating one's rows or stats leaves the other's alone."""
    spec = ScenarioSpec(
        name="shared-run-isolation",
        description="two Skipper Q5 tenants on one CSD",
        tenants=uniform_tenants(2, "tpch:q5", cache_capacity=7),
        scale="tiny",
    )
    service = StorageService(spec)
    first, second = [results[0] for results in service.run().results_by_client.values()]
    assert len(service.shared_runs) == 1
    assert first.rows == second.rows and first.stats == second.stats
    assert first.rows is not second.rows and first.stats is not second.stats
    expected_rows = [dict(row) for row in second.rows]
    first.rows[0].clear()
    first.rows.append({"extra": 1})
    first.stats.tuples_output += 1
    assert second.rows == expected_rows
    assert second.stats.tuples_output == first.stats.tuples_output - 1


def _walk_mjoin(cursor, deliveries):
    """Drive an MJoin cursor to completion: the first cycle's ``deliveries``
    as given, every later cycle's requests as issued; the outcomes it saw."""
    seen = []
    requests = deliveries
    while requests:
        for segment_id, segment in requests:
            seen.append(cursor.arrive(segment_id, segment))
        handled, ids = cursor.end()
        seen.append((handled, ids))
        requests = _resolved(ids)
    return seen


def _resolved(segment_ids):
    return [(segment_id, _TINY.resolve_segment_id(segment_id)) for segment_id in segment_ids]


_FIRST = _TINY.resolve_segment_id(_Q5_CASE[2][0])
#: A copy of tiny Q5's first requested object: equal rows, another object.
POISON = Segment(_FIRST.table_name, _FIRST.index, _FIRST.rows)


class _PoisonedMJoin(SharedMJoin):
    """An MJoin run whose cycle end refuses a state that was fed ``POISON``:
    a failure of the end step itself."""

    def arrive(self, state, segment_id, payload):
        if payload is POISON:
            state.poisoned = True
        return super().arrive(state, segment_id, payload)

    def end(self, state):
        if getattr(state, "poisoned", False):
            raise ExecutionError("poisoned cycle end")
        return super().end(state)


class TestErrorsStayPerExecution:
    def test_a_raising_arrival_is_not_logged_and_the_next_forks_and_raises(self):
        """The first execution delivers a foreign object at step 4: the step
        is not logged and the run's manager is dropped.  The second follows
        four steps and raises the same error from a private manager; a third
        that delivers the right object there forks and runs on correctly."""
        run = SharedMJoin(_Q5, _TINY, 8, MaxProgressEviction(), True, CostModel())
        order = list(run.initial_requests)
        foreign = _TINY.segment_ids("part")[0]
        first, second, third = RunCursor(run), RunCursor(run), RunCursor(run)
        for segment_id in order[:4]:
            first.arrive(segment_id, _TINY.resolve_segment_id(segment_id))
        with pytest.raises(QueryError, match="belongs to no table"):
            first.arrive(foreign, _TINY.resolve_segment_id(foreign))
        assert len(run.steps) == 4 and run.state is None

        for segment_id in order[:4]:
            second.arrive(segment_id, _TINY.resolve_segment_id(segment_id))
        assert second.private is None and second.position == 4
        with pytest.raises(QueryError, match="belongs to no table"):
            second.arrive(foreign, _TINY.resolve_segment_id(foreign))
        assert second.private is not None and len(run.steps) == 4

        private = RunCursor(SharedMJoin(_Q5, _TINY, 8, None, True, CostModel()))
        assert _walk_mjoin(third, _resolved(order)) == _walk_mjoin(private, _resolved(order))
        assert third.private is not None and len(run.steps) == 4
        assert _counters(third.state) == _counters(private.state)

    def test_a_raising_cycle_end_is_not_logged_and_the_next_forks_there_and_raises(self):
        """The first execution is fed ``POISON`` first, so its first cycle end
        raises: the end is not logged and the run's manager is dropped.  The
        second delivers the same objects, follows the whole cycle, forks at
        the end and raises the same error itself; a third that delivers the
        catalog's object in ``POISON``'s place forks there and matches a
        private run."""
        run = _PoisonedMJoin(_Q5, _TINY, 8, None, True, CostModel())
        order = list(run.initial_requests)
        poisoned = [(order[0], POISON)] + _resolved(order[1:])
        first, second, third = RunCursor(run), RunCursor(run), RunCursor(run)
        with pytest.raises(ExecutionError, match="poisoned cycle end"):
            _walk_mjoin(first, poisoned)
        assert len(run.steps) == len(order) and run.state is None

        with pytest.raises(ExecutionError, match="poisoned cycle end"):
            _walk_mjoin(second, poisoned)
        assert second.private is not None and second.position == len(order)
        assert len(run.steps) == len(order)

        private = RunCursor(SharedMJoin(_Q5, _TINY, 8, None, True, CostModel()))
        assert _walk_mjoin(third, _resolved(order)) == _walk_mjoin(private, _resolved(order))
        assert third.private is not None and third.position == 0
        assert _counters(third.state) == _counters(private.state)

    def test_a_raising_join_is_not_logged_and_the_next_forks_there_and_raises(self):
        """The pull-based kind: the first execution fetches ``orders.1`` in
        ``lineitem.1``'s place, so its join raises and is not logged.  The
        second fetches the same objects, forks at the join and raises the
        same error itself; a third with the right fetch forks at
        ``lineitem.1`` and matches a private run."""
        query = tpch.q12()
        run = SharedPullJoin(query, _TINY, CostModel())
        order = run.access_order
        foreign = [
            (segment_id, _TINY.segment("orders", 1) if segment_id == "lineitem.1" else segment)
            for segment_id, segment in _resolved(order)
        ]
        first, second, third = RunCursor(run), RunCursor(run), RunCursor(run)
        for cursor in (first, second):
            for segment_id, segment in foreign:
                cursor.arrive(segment_id, segment)
            with pytest.raises(SchemaError, match=r"orders\.1 does not belong to table 'lineitem'"):
                cursor.end()
            assert len(run.steps) == len(order) and run.state is None
        assert first.private is None and second.private is not None
        assert second.position == len(order)

        private = RunCursor(SharedPullJoin(query, _TINY, CostModel()))
        for cursor in (third, private):
            for segment_id, segment in _resolved(order):
                cursor.arrive(segment_id, segment)
        (rows, stats, _), (private_rows, private_stats, _) = third.end(), private.end()
        assert rows == private_rows and stats == private_stats
        assert third.private is not None and third.position == order.index("lineitem.1")

    def test_a_cache_below_the_table_count_fails_every_execution_before_any_get(
        self, make_rig
    ):
        rig = make_rig(_TINY, _Q5.tables)
        runs = {}
        for tenant in ("tenant", "tenant"):
            executor = rig.skipper(3, tenant, shared_runs=runs)
            with pytest.raises(CacheError, match="smaller than the number of joined"):
                next(executor.execute(_Q5))
        assert runs == {}
        assert rig.device.stats.requests_received == 0
