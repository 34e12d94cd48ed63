"""Unit tests for intra-group orderings and the I/O schedulers."""

import random

import pytest
from frame_count import count_frames
from hypothesis import given, strategies as st
from ordering_oracle import semantic_round_robin, table_name
from scheduler_oracle import rank_of

from repro.csd.ordering import (
    ArrivalOrdering,
    SemanticRoundRobinOrdering,
    TableMajorOrdering,
)
from repro.csd import AllInOneLayout, ColdStorageDevice, DeviceConfig, ObjectStore
from repro.csd.request import GetRequest
from repro.csd.scheduler import (
    IOScheduler,
    MaxQueriesScheduler,
    ObjectFCFSScheduler,
    QueryFCFSScheduler,
    RankBasedScheduler,
    SlackFCFSScheduler,
)
from repro.exceptions import SchedulingError, StorageError
from repro.obs import MetricsRegistry
from repro.sim import Environment


def _request(env, object_key, client="c0", query="c0:q:0"):
    return GetRequest(object_key, client, query, env.event())


@pytest.fixture()
def env():
    return Environment()


class TestOrderings:
    def _requests(self, env):
        keys = ["c0/a.0", "c0/b.0", "c0/a.1", "c0/c.0", "c0/b.1", "c0/a.2"]
        return [_request(env, key) for key in keys]

    def test_arrival_ordering_preserves_request_order(self, env):
        requests = self._requests(env)
        ordered = ArrivalOrdering().order(list(reversed(requests)))
        assert [r.object_key for r in ordered] == [r.object_key for r in requests]

    def test_table_major_groups_by_table(self, env):
        ordered = TableMajorOrdering().order(self._requests(env))
        tables = [table_name(request) for request in ordered]
        assert tables == sorted(tables)

    def test_semantic_round_robin_interleaves_tables(self, env):
        ordered = SemanticRoundRobinOrdering().order(self._requests(env))
        tables = [table_name(request) for request in ordered]
        # First pass should touch each distinct table once before repeating.
        distinct = len(set(tables))
        assert len(set(tables[:distinct])) == distinct

    def test_semantic_round_robin_interleaves_queries(self, env):
        requests = [
            _request(env, "c0/a.0", "c0", "q0"),
            _request(env, "c0/a.1", "c0", "q0"),
            _request(env, "c1/a.0", "c1", "q1"),
            _request(env, "c1/a.1", "c1", "q1"),
        ]
        ordered = SemanticRoundRobinOrdering().order(requests)
        queries = [request.query_id for request in ordered]
        assert queries == ["q0", "q1", "q0", "q1"]

    def test_orderings_return_permutations(self, env):
        requests = self._requests(env)
        for ordering in (ArrivalOrdering(), TableMajorOrdering(), SemanticRoundRobinOrdering()):
            ordered = ordering.order(requests)
            assert sorted(r.request_id for r in ordered) == sorted(r.request_id for r in requests)


@st.composite
def request_pools(draw):
    """A group's pending pool: 1-4 queries over 1-6 tables (tenant prefixes
    shared across tables and queries), duplicate segment indices allowed,
    request ids a shuffled permutation and the pool in shuffled order."""
    queries = draw(st.integers(min_value=1, max_value=4))
    tables = draw(st.integers(min_value=1, max_value=6))
    draws = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=queries - 1),
                st.integers(min_value=0, max_value=tables - 1),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=40,
        )
    )
    shuffle = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    request_ids = list(range(len(draws)))
    shuffle.shuffle(request_ids)
    pool = []
    for (query, table, segment, tenant), request_id in zip(draws, request_ids):
        request = GetRequest(f"c{tenant}/t{table}.{segment}", f"c{tenant}", f"q{query}", None)
        request.request_id = request_id
        pool.append(request)
    shuffle.shuffle(pool)
    return pool


class TestOrderingOracles:
    """The orderings parse each key once and sort once; the references are
    the orderings as first written (``tests/ordering_oracle.py``) and the
    table-major sort key over the same parse."""

    @given(pool=request_pools())
    def test_semantic_round_robin_is_the_reference(self, pool):
        assert SemanticRoundRobinOrdering().order(pool) == semantic_round_robin(pool)

    @given(pool=request_pools())
    def test_table_major_is_the_sort_by_query_table_segment_and_id(self, pool):
        expected = sorted(
            pool,
            key=lambda request: (
                request.query_id,
                table_name(request),
                int(request.object_key.rpartition(".")[2]),
                request.request_id,
            ),
        )
        assert TableMajorOrdering().order(pool) == expected

    @pytest.mark.parametrize("ordering", [SemanticRoundRobinOrdering(), TableMajorOrdering()])
    def test_a_malformed_segment_index_is_a_typed_error(self, env, ordering):
        """A store refuses such keys (``put_segments``); a request built
        without one still gets the typed error from the sort."""
        store = ObjectStore()
        for segment_id in ("x", "t.y"):
            with pytest.raises(StorageError, match=f"malformed object key: 'a/{segment_id}'"):
                store.put_segments("a", [segment_id], [0])
        for key in ("a/x", "a/t.y"):
            pool = [_request(env, key), _request(env, "a/t.0")]
            with pytest.raises(StorageError, match=f"malformed object key: '{key}'"):
                ordering.order(pool)


#: Frames entered inside ``SemanticRoundRobinOrdering.order`` per ordered
#: request, on one query's pool of one table (31 requests, the shape a
#: Skipper tenant's group queue has on ``fleet-churn``) and of six tables
#: (120 requests).  The ordering as first written entered two key parses
#: and two sort-key lambdas per request (4.16 and 4.04 on CPython 3.11); one
#: decorated sort enters none: 0.06 and 0.03 (the call, the parse, one
#: interleave per query and one across them).  Ceilings are those readings
#: plus half a frame: one more frame per request trips them.
FRAMES_PER_ORDERED_REQUEST_CEILINGS = {1: 0.6, 6: 0.6}


@pytest.mark.parametrize("tables", sorted(FRAMES_PER_ORDERED_REQUEST_CEILINGS))
def test_frames_per_ordered_request_stay_under_the_ceiling(env, tables):
    size = 31 if tables == 1 else 120
    pool = [
        _request(env, f"c0/t{index % tables}.{index // tables}", query="c0:q6:0")
        for index in range(size)
    ]
    random.Random(tables).shuffle(pool)
    ordering = SemanticRoundRobinOrdering()
    ordered, frames = count_frames(
        lambda: ordering.order(pool), within=SemanticRoundRobinOrdering.order.__code__
    )
    assert ordered == semantic_round_robin(pool)
    ceiling = FRAMES_PER_ORDERED_REQUEST_CEILINGS[tables]
    assert frames / size <= ceiling, (
        f"{frames / size:.2f} frames per ordered request on a {tables}-table pool, "
        f"ceiling {ceiling}: the ordering went back to per-request calls"
    )


class TestSchedulerBookkeeping:
    def test_pending_pool_accounting(self, env):
        scheduler = RankBasedScheduler()
        assert not scheduler.has_pending()
        scheduler.add_request(_request(env, "c0/a.0", query="q0"), group_id=0)
        scheduler.add_request(_request(env, "c1/a.0", "c1", "q1"), group_id=1)
        assert scheduler.has_pending()
        assert scheduler.pending_groups() == [0, 1]
        assert scheduler.pending_count() == 2
        assert scheduler.queries_on_group(0) == {"q0"}
        assert scheduler.queries_on_group(1) == {"q1"}
        assert scheduler.pending_queries() == {"q0", "q1"}

    def test_next_request_removes_from_pool(self, env):
        scheduler = RankBasedScheduler()
        scheduler.add_request(_request(env, "c0/a.0", query="q0"), group_id=0)
        request = scheduler.next_request(0)
        assert request.object_key == "c0/a.0"
        assert scheduler.pending_count() == 0 and not scheduler.queries_on_group(0)
        assert scheduler.next_request(0) is None

    def test_notify_switch_updates_waiting_times(self, env):
        scheduler = RankBasedScheduler()
        scheduler.add_request(_request(env, "c0/a.0", "c0", "q0"), group_id=0)
        scheduler.add_request(_request(env, "c1/a.0", "c1", "q1"), group_id=1)
        scheduler.notify_switch(0)
        assert scheduler.waiting_time("q0") == 0
        assert scheduler.waiting_time("q1") == 1
        scheduler.notify_switch(0)
        assert scheduler.waiting_time("q1") == 2
        scheduler.notify_switch(1)
        assert scheduler.waiting_time("q1") == 0
        assert scheduler.num_switches == 3

    def test_a_group_is_served_in_the_order_its_queue_was_given(self, env):
        """Ordered once, when the group's first request is served: ordering
        what is left again after each request would serve ``a.1`` second."""
        scheduler = RankBasedScheduler()
        for key in ("c0/a.0", "c0/a.1", "c0/b.0"):
            scheduler.add_request(_request(env, key, query="q0"), group_id=0)
        served = [scheduler.next_request(0).object_key for _ in range(3)]
        assert served == ["c0/a.0", "c0/b.0", "c0/a.1"]

    def test_a_request_added_to_a_group_being_served_is_ordered_in(self, env):
        scheduler = RankBasedScheduler(ordering=TableMajorOrdering())
        for key in ("c0/b.0", "c0/b.1"):
            scheduler.add_request(_request(env, key, query="q0"), group_id=0)
        assert scheduler.next_request(0).object_key == "c0/b.0"
        scheduler.add_request(_request(env, "c0/a.0", query="q0"), group_id=0)
        assert [scheduler.next_request(0).object_key for _ in range(2)] == ["c0/a.0", "c0/b.1"]

    @pytest.mark.parametrize("policy", [QueryFCFSScheduler, RankBasedScheduler])
    def test_the_query_indexes_follow_the_pool(self, env, policy):
        scheduler = policy()
        pool = {}
        for index, (query, group) in enumerate([(0, 1), (1, 1), (0, 1), (1, 0), (0, 0)]):
            request = _request(env, f"c{query}/a.{index}", f"c{query}", f"q{query}")
            scheduler.add_request(request, group)
            pool[request.request_id] = (request.query_id, group)
        while pool:
            group = scheduler.choose_next_group(None)
            del pool[scheduler.next_request(group).request_id]
            assert scheduler.pending_queries() == {query for query, _ in pool.values()}
            for group in (0, 1):
                expected = {query for query, at in pool.values() if at == group}
                assert scheduler.queries_on_group(group) == expected

    def test_the_base_class_leaves_the_decision_to_a_policy(self):
        with pytest.raises(NotImplementedError):
            IOScheduler().choose_next_group(None)


class TestObjectFCFS:
    def test_chooses_group_of_oldest_request(self, env):
        scheduler = ObjectFCFSScheduler()
        first = _request(env, "c0/a.0", "c0", "q0")
        second = _request(env, "c1/a.0", "c1", "q1")
        scheduler.add_request(first, group_id=3)
        scheduler.add_request(second, group_id=1)
        assert scheduler.choose_next_group(None) == 3
        assert scheduler.service_quota(3) == 1

    def test_no_pending_raises(self):
        with pytest.raises(SchedulingError):
            ObjectFCFSScheduler().choose_next_group(None)


class TestQueryFCFS:
    def test_serves_oldest_query_to_completion(self, env):
        scheduler = QueryFCFSScheduler()
        scheduler.add_request(_request(env, "c0/a.0", "c0", "q0"), group_id=0)
        scheduler.add_request(_request(env, "c1/b.0", "c1", "q1"), group_id=1)
        scheduler.add_request(_request(env, "c0/a.1", "c0", "q0"), group_id=0)
        assert scheduler.choose_next_group(None) == 0
        first = scheduler.next_request(0)
        assert first.query_id == "q0"
        # q0 still has a pending request, so q1 must keep waiting.
        assert scheduler.choose_next_group(0) == 0
        second = scheduler.next_request(0)
        assert second.query_id == "q0"
        assert scheduler.choose_next_group(0) == 1

    def test_does_not_serve_other_queries_from_same_group(self, env):
        scheduler = QueryFCFSScheduler()
        scheduler.add_request(_request(env, "c0/a.0", "c0", "q0"), group_id=0)
        scheduler.add_request(_request(env, "c1/b.0", "c1", "q1"), group_id=0)
        request = scheduler.next_request(0)
        assert request.query_id == "q0"
        # The remaining request belongs to q1; q0 is done so q1 becomes oldest.
        request = scheduler.next_request(0)
        assert request.query_id == "q1"

    def test_queries_are_served_in_the_order_their_first_requests_came(self, env):
        scheduler = QueryFCFSScheduler()
        for query in (3, 0, 5, 1, 4, 2):
            scheduler.add_request(_request(env, f"c{query}/a.0", f"c{query}", f"q{query}"), query)
        served = []
        while scheduler.has_pending():
            group = scheduler.choose_next_group(None)
            served.append(scheduler.next_request(group).query_id)
        assert served == ["q3", "q0", "q5", "q1", "q4", "q2"]

    def test_the_oldest_query_is_served_from_the_group_of_its_oldest_request(self, env):
        scheduler = QueryFCFSScheduler()
        for index, group in enumerate((2, 0, 1)):
            scheduler.add_request(_request(env, f"c0/a.{index}", query="q0"), group)
        assert scheduler.choose_next_group(None) == 2

    def test_a_group_without_the_oldest_query_serves_nothing(self, env):
        scheduler = QueryFCFSScheduler()
        scheduler.add_request(_request(env, "c0/a.0", "c0", "q0"), group_id=0)
        scheduler.add_request(_request(env, "c1/a.0", "c1", "q1"), group_id=1)
        assert scheduler.next_request(1) is None
        assert scheduler.pending_count() == 2 and scheduler.queries_on_group(1) == {"q1"}


class TestMaxQueries:
    def test_prefers_group_with_most_queries(self, env):
        scheduler = MaxQueriesScheduler()
        scheduler.add_request(_request(env, "c0/a.0", "c0", "q0"), group_id=0)
        scheduler.add_request(_request(env, "c1/a.0", "c1", "q1"), group_id=1)
        scheduler.add_request(_request(env, "c2/a.0", "c2", "q2"), group_id=1)
        assert scheduler.choose_next_group(None) == 1
        assert scheduler.service_quota(1) == 2


class TestRankBased:
    def test_rank_combines_queue_length_and_waiting_time(self, env):
        scheduler = RankBasedScheduler(fairness_constant=1.0)
        scheduler.add_request(_request(env, "c0/a.0", "c0", "q0"), group_id=0)
        scheduler.add_request(_request(env, "c1/a.0", "c1", "q1"), group_id=1)
        scheduler.add_request(_request(env, "c2/a.0", "c2", "q2"), group_id=1)
        # Initially group 1 has two queries and wins.
        assert scheduler.choose_next_group(None) == 1
        # After three switches to group 1, the lone query on group 0 has
        # accumulated enough waiting time to outrank it (1 + 3 > 2 + 0).
        scheduler.notify_switch(1)
        scheduler.notify_switch(1)
        assert rank_of(scheduler, 0) == pytest.approx(3.0)
        assert rank_of(scheduler, 1) == pytest.approx(2.0)
        assert scheduler.choose_next_group(1) == 0

    def test_zero_fairness_constant_degenerates_to_max_queries(self, env):
        scheduler = RankBasedScheduler(fairness_constant=0.0)
        scheduler.add_request(_request(env, "c0/a.0", "c0", "q0"), group_id=0)
        scheduler.add_request(_request(env, "c1/a.0", "c1", "q1"), group_id=1)
        scheduler.add_request(_request(env, "c2/a.0", "c2", "q2"), group_id=1)
        for _ in range(10):
            scheduler.notify_switch(1)
        assert scheduler.choose_next_group(1) == 1

    def test_negative_fairness_constant_rejected(self):
        with pytest.raises(SchedulingError):
            RankBasedScheduler(fairness_constant=-1.0)


POLICIES = [
    ObjectFCFSScheduler,
    SlackFCFSScheduler,
    QueryFCFSScheduler,
    MaxQueriesScheduler,
    RankBasedScheduler,
]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda policy: policy.__name__)
class TestEmptyPoolIsATypedError:
    """``choose_next_group`` with nothing pending is a ``SchedulingError`` for
    every policy — never ``max()``'s ``ValueError``, never a group — whether
    the pool was never filled or was emptied again, by serving or by a drain
    (which leaves empty per-group dicts behind in every index)."""

    def _fill(self, env, scheduler):
        for index, group in enumerate((2, 0, 2, 1)):
            client = f"c{index % 2}"
            scheduler.add_request(
                _request(env, f"{client}/a.{index}", client, f"{client}:q:0"), group_id=group
            )

    def test_never_filled(self, policy):
        with pytest.raises(SchedulingError):
            policy().choose_next_group(None)

    def test_emptied_through_next_request(self, env, policy):
        scheduler = policy()
        self._fill(env, scheduler)
        current = None
        served = 0
        while scheduler.has_pending():
            current = scheduler.choose_next_group(current)
            scheduler.notify_switch(current)
            for _ in range(scheduler.service_quota(current)):
                served += scheduler.next_request(current) is not None
        assert served == 4
        for current_group in (None, current):
            with pytest.raises(SchedulingError):
                scheduler.choose_next_group(current_group)

    def test_emptied_through_drain_pending(self, env, policy):
        store = ObjectStore()
        keys = {"c0": store.put_segments("c0", [f"a.{index}" for index in range(3)], range(3))}
        device = ColdStorageDevice(
            env, store, AllInOneLayout().build(keys), policy(), DeviceConfig(), MetricsRegistry()
        )
        device.submit_many([_request(env, key) for key in keys["c0"]])
        assert len(device.drain_pending()) == 3
        assert not device.scheduler.has_pending()
        with pytest.raises(SchedulingError):
            device.scheduler.choose_next_group(None)


@pytest.mark.parametrize("fairness_constant", [-1.0, -1e-9, float("nan"), float("inf")])
def test_rank_based_rejects_a_fairness_constant_it_cannot_rank_with(fairness_constant):
    # inf * 0 waited switches and NaN would make every rank NaN, which
    # compares false against everything: no group would ever be chosen.
    with pytest.raises(SchedulingError):
        RankBasedScheduler(fairness_constant=fairness_constant)


@pytest.mark.parametrize("slack", [0, -3])
def test_slack_fcfs_rejects_a_slack_below_one(slack):
    with pytest.raises(SchedulingError):
        SlackFCFSScheduler(slack)
