"""Unit tests for intra-group orderings and the I/O schedulers."""

import pytest

from repro.csd.ordering import (
    ArrivalOrdering,
    SemanticRoundRobinOrdering,
    TableMajorOrdering,
)
from repro.csd import AllInOneLayout, ColdStorageDevice, ObjectStore
from repro.csd.request import GetRequest
from repro.csd.scheduler import (
    MaxQueriesScheduler,
    ObjectFCFSScheduler,
    QueryFCFSScheduler,
    RankBasedScheduler,
    SlackFCFSScheduler,
)
from repro.exceptions import SchedulingError
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
        tables = [request.table_name for request in ordered]
        assert tables == sorted(tables)

    def test_semantic_round_robin_interleaves_tables(self, env):
        ordered = SemanticRoundRobinOrdering().order(self._requests(env))
        tables = [request.table_name for request in ordered]
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


class TestSchedulerBookkeeping:
    def test_pending_pool_accounting(self, env):
        scheduler = RankBasedScheduler()
        assert not scheduler.has_pending()
        scheduler.add_request(_request(env, "c0/a.0", query="q0"), group_id=0)
        scheduler.add_request(_request(env, "c1/a.0", "c1", "q1"), group_id=1)
        assert scheduler.has_pending()
        assert scheduler.pending_groups() == [0, 1]
        assert scheduler.pending_count() == 2
        assert scheduler.pending_count(0) == 1
        assert scheduler.queries_on_group(1) == {"q1"}
        assert scheduler.pending_queries() == {"q0", "q1"}

    def test_next_request_removes_from_pool(self, env):
        scheduler = RankBasedScheduler()
        scheduler.add_request(_request(env, "c0/a.0", query="q0"), group_id=0)
        request = scheduler.next_request(0)
        assert request.object_key == "c0/a.0"
        assert scheduler.pending_count(0) == 0
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
        assert scheduler.rank(0) == pytest.approx(3.0)
        assert scheduler.rank(1) == pytest.approx(2.0)
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


@pytest.mark.parametrize("policy", POLICIES, ids=lambda policy: policy.name)
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
        keys = {"c0": [store.put_segment("c0", f"a.{index}", index) for index in range(3)]}
        device = ColdStorageDevice(env, store, AllInOneLayout().build(keys), policy())
        for key in keys["c0"]:
            device.get(key, "c0", "c0:q:0")
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
