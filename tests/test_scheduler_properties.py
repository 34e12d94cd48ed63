"""Property-based tests for the CSD I/O schedulers.

These drive each scheduler through the same decision loop the device uses
(choose group → notify switch → drain the service quota) over randomly
generated request streams, and assert the properties every policy must
satisfy regardless of input:

* every added request is eventually served, exactly once;
* ``num_switches`` equals the number of observed group changes;
* the rank-based policy with K > 0 never lets a query wait more than the
  starvation bound, while efficiency-first policies carry no such guarantee.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.csd.request import GetRequest
from repro.csd.scheduler import (
    IOScheduler,
    MaxQueriesScheduler,
    ObjectFCFSScheduler,
    QueryFCFSScheduler,
    RankBasedScheduler,
    SlackFCFSScheduler,
)
from repro.scenarios.invariants import starvation_bound

_key_counter = itertools.count()

MAX_GROUPS = 6
MAX_QUERIES = 8


def make_request(query: int, group: int) -> GetRequest:
    """A well-formed request (object keys parse as ``tenant/table.index``)."""
    return GetRequest(
        object_key=f"client{query}/grp{group}.{next(_key_counter)}",
        client_id=f"client{query}",
        query_id=f"query{query}",
        deliver=None,
    )


#: A request stream: batches of (query, group) pairs; later batches arrive
#: after the scheduler has started serving (online arrivals).
request_streams = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=MAX_QUERIES - 1),
            st.integers(min_value=0, max_value=MAX_GROUPS - 1),
        ),
        min_size=0,
        max_size=20,
    ),
    min_size=1,
    max_size=4,
).filter(lambda batches: any(batches))


def drain(
    scheduler: IOScheduler, batches: List[List[Tuple[int, int]]]
) -> Tuple[List[GetRequest], int]:
    """Run the device's decision loop to completion; return (served, switches).

    Mirrors :meth:`repro.csd.device.ColdStorageDevice._run`: one batch of
    requests is registered before each scheduling decision, the chosen
    group's service quota is drained, and ``notify_switch`` fires exactly
    when the loaded group changes.
    """
    stream = [
        [(make_request(query, group), group) for query, group in batch]
        for batch in batches
    ]
    for request, group in stream.pop(0):
        scheduler.add_request(request, group)

    served: List[GetRequest] = []
    switches = 0
    current: Optional[int] = None
    while scheduler.has_pending() or stream:
        if not scheduler.has_pending():
            for request, group in stream.pop(0):
                scheduler.add_request(request, group)
            continue
        group = scheduler.choose_next_group(current)
        if group != current:
            scheduler.notify_switch(group)
            switches += 1
            current = group
        quota = scheduler.service_quota(group)
        while quota > 0:
            request = scheduler.next_request(group)
            if request is None:
                break
            served.append(request)
            quota -= 1
        if stream:
            for request, new_group in stream.pop(0):
                scheduler.add_request(request, new_group)
    return served, switches


ALL_SCHEDULERS = [
    ObjectFCFSScheduler,
    lambda: SlackFCFSScheduler(slack=3),
    QueryFCFSScheduler,
    MaxQueriesScheduler,
    RankBasedScheduler,
    lambda: RankBasedScheduler(fairness_constant=0.5),
]


class TestEveryScheduler:
    @settings(max_examples=40, deadline=None)
    @given(batches=request_streams, which=st.integers(min_value=0, max_value=5))
    def test_every_request_served_exactly_once(self, batches, which):
        scheduler = ALL_SCHEDULERS[which]()
        served, _switches = drain(scheduler, batches)
        expected = sum(len(batch) for batch in batches)
        assert len(served) == expected
        assert len({request.request_id for request in served}) == expected
        assert not scheduler.has_pending()
        assert scheduler.pending_count() == 0

    @settings(max_examples=40, deadline=None)
    @given(batches=request_streams, which=st.integers(min_value=0, max_value=5))
    def test_num_switches_matches_observed_group_changes(self, batches, which):
        scheduler = ALL_SCHEDULERS[which]()
        _served, switches = drain(scheduler, batches)
        assert scheduler.num_switches == switches

    @settings(max_examples=40, deadline=None)
    @given(batches=request_streams, which=st.integers(min_value=0, max_value=5))
    def test_waiting_counters_reset_for_serviced_queries(self, batches, which):
        scheduler = ALL_SCHEDULERS[which]()
        drain(scheduler, batches)
        # After the drain nothing is pending, so the last switch reset the
        # serviced queries and max_waiting_seen bounds every counter.
        for query in range(MAX_QUERIES):
            assert scheduler.waiting_time(f"query{query}") <= scheduler.max_waiting_seen


class TestRankBasedStarvation:
    @settings(max_examples=60, deadline=None)
    @given(
        batches=request_streams,
        fairness_constant=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    )
    def test_waiting_never_exceeds_starvation_bound(self, batches, fairness_constant):
        scheduler = RankBasedScheduler(fairness_constant=fairness_constant)
        drain(scheduler, batches)
        queries = {query for batch in batches for query, _group in batch}
        bound = starvation_bound(MAX_GROUPS, max(1, len(queries)), fairness_constant)
        assert scheduler.max_waiting_seen <= bound

    def test_max_queries_can_starve_where_rank_based_cannot(self):
        """An adversarial stream: one query stuck on an unpopular group while
        a crowd keeps a popular group busy.  Max-Queries keeps choosing the
        crowd; the rank-based policy services the loner within the bound."""
        crowd_batches = []
        for _round in range(6):
            batch = [(query, 0) for query in range(1, 6)]
            crowd_batches.append(batch)
        lone = [(0, 1)]

        def run(scheduler):
            batches = [crowd_batches[0] + lone] + crowd_batches[1:]
            drain(scheduler, batches)
            return scheduler.max_waiting_seen

        rank_waiting = run(RankBasedScheduler(fairness_constant=1.0))
        max_queries_waiting = run(MaxQueriesScheduler())
        assert rank_waiting <= max_queries_waiting
        assert rank_waiting <= starvation_bound(2, 6, 1.0)
