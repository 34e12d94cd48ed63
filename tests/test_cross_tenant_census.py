"""Cross-tenant work census: each pure piece of per-object work runs once per
query per service, however many tenants and repetitions read the object.

Tenants of one ``Query`` share its object (``build_cluster_config`` resolves
each query reference once) and its predicates, and the work done over an
immutable ``Segment`` with them is the same for every reader.  Two such units
are counted over one service run, exactly, so the counts gate in tier-1:

* ``Segment.filtered_rows``, the one place a segment is filtered (the
  predicate's bulk ``select`` over its row list): at most once per (segment,
  predicate object) — the segment keeps its last selection;
* ``SharedPullJoin.end``, the pull-based local join over every fetched
  segment: once per distinct pull-based ``Query`` — every later execution
  over the same segment objects follows the service's run and copies it;
* ``MJoinStateManager.on_arrival``, Skipper's arrival path: once per step of
  one run per (``Query``, cache size, policy, pruning) — executions whose
  deliveries match the run's log take its charges and requests instead;
* ``Planner.plan`` and the tracker's ``SubplanLayout``: once per shared run
  — an execution that forks builds its private manager on the plan and
  the subplan layout the run's first one made.

When one trips: ``build_cluster_config`` resolves a query per tenant again,
something on the arrival or scan path filters without ``select_rows``, or
an executor works on a state of its own where the service's run would do
(or the run's key or its match on a delivery is off).
"""

from __future__ import annotations

import runpy
from collections import Counter
from pathlib import Path

from repro.core.mjoin import MJoinStateManager
from repro.core.subplan import SubplanLayout, SubplanTracker
from repro.engine.planner import Planner
from repro.engine.relation import Segment
from repro.scenarios.spec import ScenarioSpec, TenantSpec, uniform_tenants
from repro.service import StorageService
from repro.vanilla.executor import SharedPullJoin
from repro.workloads import tpch

REPETITIONS = 2


def _tenants(prefix: str, mode: str):
    return tuple(
        TenantSpec(
            tenant_id=f"{prefix}{index}",
            queries=("tpch:q5", "tpch:q6"),
            mode=mode,
            repetitions=REPETITIONS,
        )
        for index in range(2)
    )


def test_each_unit_runs_once_per_query_per_service(monkeypatch):
    """Two Skipper and two pull-based tenants run Q5 and Q6 twice each: eight
    pull-based executions and two local joins."""
    joins: Counter = Counter()
    selections: Counter = Counter()
    real_join = SharedPullJoin.end
    real_filtered_rows = Segment.filtered_rows

    def counted_join(run, fetched):
        joins[id(run.query)] += 1
        return real_join(run, fetched)

    def counted_selection(segment, predicate):
        selections[segment.segment_id, id(predicate)] += 1
        return real_filtered_rows(segment, predicate)

    monkeypatch.setattr(SharedPullJoin, "end", counted_join)
    monkeypatch.setattr(Segment, "filtered_rows", counted_selection)
    spec = ScenarioSpec(
        name="cross-tenant-census",
        description="Q5 and Q6 tenants of both modes sharing one CSD.",
        tenants=_tenants("skipper", "skipper") + _tenants("puller", "vanilla"),
        scale="tiny",
        seed=7,
    )
    service = StorageService(spec)
    result = service.run()

    pulled = [
        query
        for client in service.config.client_specs
        if client.mode == "vanilla"
        for query in client.queries
    ]
    executions = sum(
        len(results) for client, results in result.results_by_client.items()
        if client.startswith("puller")
    )
    assert executions == len(pulled) * REPETITIONS == 8
    assert len({id(query) for query in pulled}) == 2
    assert joins == Counter({id(query): 1 for query in pulled})
    assert selections and max(selections.values()) == 1


def test_a_shared_query_filters_each_object_once(monkeypatch):
    """Three Skipper tenants running Q6 twice each and two pull-based ones
    make 8 × as many deliveries as there are ``lineitem`` objects, and one
    bulk selection per object."""
    selections: Counter = Counter()
    real_filtered_rows = Segment.filtered_rows

    def counted(segment, predicate):
        selections[segment.segment_id] += 1
        return real_filtered_rows(segment, predicate)

    monkeypatch.setattr(Segment, "filtered_rows", counted)
    spec = ScenarioSpec(
        name="selection-budget",
        description="Q6 tenants of both modes sharing one CSD.",
        tenants=uniform_tenants(3, "tpch:q6", repetitions=2)
        + uniform_tenants(2, "tpch:q6", mode="vanilla", prefix="puller"),
        scale="small",
        seed=7,
    )
    service = StorageService(spec)
    result = service.run()
    segments = service.catalog.num_segments("lineitem")
    assert result.device_objects_served == (3 * 2 + 2) * segments
    assert sorted(selections) == sorted(service.catalog.segment_ids("lineitem"))
    assert sum(selections.values()) == segments


def test_matching_skipper_tenants_feed_one_state_manager(monkeypatch):
    """Three Skipper Q5 tenants with a 12-object cache run twice each, two
    with a 7-object cache once.  Each group's deliveries match, so managers
    are fed one tenant's deliveries per cache size: 130 arrivals where the
    eight executions received 364.  The two sizes share nothing."""
    arrivals: Counter = Counter()
    real_on_arrival = MJoinStateManager.on_arrival

    def counted(manager, segment_id, segment):
        arrivals[manager.cache.capacity] += 1
        return real_on_arrival(manager, segment_id, segment)

    monkeypatch.setattr(MJoinStateManager, "on_arrival", counted)
    spec = ScenarioSpec(
        name="mjoin-census",
        description="two cache sizes of Skipper Q5 tenants on one CSD.",
        tenants=uniform_tenants(3, "tpch:q5", repetitions=2, cache_capacity=12)
        + uniform_tenants(2, "tpch:q5", cache_capacity=7, prefix="small"),
        scale="small",
        seed=7,
    )
    service = StorageService(spec)
    result = service.run()

    deliveries = {capacity: set() for capacity in (12, 7)}
    for results in result.results_by_client.values():
        for execution in results:
            assert execution.num_evictions > 0
            deliveries[execution.cache_capacity].add(execution.num_requests)
    # One delivery count per group: the executions of a group match.
    one_tenant = {capacity: counts.pop() for capacity, counts in deliveries.items() if len(counts) == 1}
    assert arrivals == Counter(one_tenant) == Counter({12: 26, 7: 104})
    assert result.device_objects_served == 26 * 6 + 104 * 2
    assert len(service.shared_runs) == 2


def _keys_fanout_quick():
    """The ledger's ``keys-fanout`` at ``--quick`` size, run: eight Skipper Q6
    tenants on a fleet follow one shared run, and each one after the first
    forks at its first delivery (the devices deliver in another order)."""
    ledger = Path(__file__).resolve().parent.parent / "ledger" / "workloads.py"
    profile, spec = runpy.run_path(str(ledger))["WORKLOADS"]["keys-fanout"](43, True)
    service = StorageService(spec, catalog=tpch.build_catalog(profile, 42))
    result = service.run()
    executions = sum(len(results) for results in result.results_by_client.values())
    assert executions == 8 and len(service.shared_runs) == 1
    return service


def test_forked_executions_reuse_their_runs_plan(monkeypatch):
    """The run plans once; every fork's manager used to plan again (8 plans)."""
    plans: Counter = Counter()
    real_plan = Planner.plan

    def counted(planner, query):
        plans[id(query)] += 1
        return real_plan(planner, query)

    monkeypatch.setattr(Planner, "plan", counted)
    service = _keys_fanout_quick()
    assert sum(plans.values()) == len(service.shared_runs)


def test_forked_executions_reuse_their_runs_subplan_layout(monkeypatch):
    """The run lays its subplan space out once, and every fork's tracker
    holds that layout with pending state of its own; every fork used to
    build the tables again (8 layouts for 8 trackers)."""
    layouts = []
    trackers = []
    real_layout, real_tracker = SubplanLayout.__init__, SubplanTracker.__init__

    def counted_layout(layout, *args):
        layouts.append(layout)
        real_layout(layout, *args)

    def counted_tracker(tracker, layout):
        trackers.append(tracker)
        real_tracker(tracker, layout)

    monkeypatch.setattr(SubplanLayout, "__init__", counted_layout)
    monkeypatch.setattr(SubplanTracker, "__init__", counted_tracker)
    service = _keys_fanout_quick()
    assert len(layouts) == len(service.shared_runs)
    assert len(trackers) == 8
    assert all(tracker.layout is layouts[0] for tracker in trackers)
    assert len({id(tracker._pending) for tracker in trackers}) == 8
