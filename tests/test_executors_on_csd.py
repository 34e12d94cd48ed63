"""Integration tests: Skipper and vanilla executors running against the CSD."""

import dataclasses
import random

import pytest
from mjoin_oracle import tracker_has_pending

from repro.core import ClientProxy
from repro.core.cache import LRUEviction, ObjectCache
from repro.core.execution import RunCursor
from repro.core.mjoin import MJoinStateManager
from repro.csd import (
    ClientsPerGroupLayout,
    ColdStorageDevice,
    DeviceConfig,
    ObjectFCFSScheduler,
    ObjectStore,
    RankBasedScheduler,
)
from repro.engine import CostModel, InMemoryExecutor
from repro.engine.executor import canonical_rows
from repro.engine.relation import Segment
from repro.exceptions import QueryError, SchemaError
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.vanilla import VanillaExecutor
from repro.vanilla.executor import SharedPullJoin
from repro.workloads import tpch


def _expected(catalog, query):
    return canonical_rows(InMemoryExecutor(catalog).execute(query).rows)


class TestSkipperExecutorOnCSD:
    @pytest.mark.parametrize("query_name", ["q1", "q6", "q12", "q5"])
    def test_results_match_in_memory(self, tiny_tpch_catalog, make_rig, query_name):
        query = tpch.query(query_name)
        rig = make_rig(tiny_tpch_catalog, query.tables)
        result = rig.run_skipper(query, cache_capacity=8)
        assert canonical_rows(result.rows) == _expected(tiny_tpch_catalog, query)

    def test_small_cache_still_correct_but_costlier(self, tiny_tpch_catalog, make_rig):
        query = tpch.q12()
        rig_small = make_rig(tiny_tpch_catalog, query.tables)
        small = rig_small.run_skipper(query, cache_capacity=2)
        rig_large = make_rig(tiny_tpch_catalog, query.tables)
        large = rig_large.run_skipper(query, cache_capacity=20)
        assert canonical_rows(small.rows) == canonical_rows(large.rows)
        assert small.num_requests > large.num_requests
        assert small.execution_time > large.execution_time
        assert small.num_evictions > 0
        assert large.num_evictions == 0

    def test_metrics_are_consistent(self, tiny_tpch_catalog, make_rig):
        query = tpch.q12()
        rig = make_rig(tiny_tpch_catalog, query.tables)
        result = rig.run_skipper(query, cache_capacity=6)
        assert result.end_time >= result.start_time
        assert result.processing_time <= result.execution_time
        assert result.waiting_time <= result.execution_time
        assert result.subplans_executed + result.subplans_pruned == result.subplans_total
        assert result.num_cycles >= 1

    def test_deterministic_across_runs(self, tiny_tpch_catalog, make_rig):
        query = tpch.q12()
        first = make_rig(tiny_tpch_catalog, query.tables).run_skipper(query, cache_capacity=4)
        second = make_rig(tiny_tpch_catalog, query.tables).run_skipper(query, cache_capacity=4)
        assert first.execution_time == pytest.approx(second.execution_time)
        assert first.num_requests == second.num_requests

    def test_lru_policy_also_correct_with_roomy_cache(self, tiny_tpch_catalog, make_rig):
        query = tpch.q12()
        rig = make_rig(tiny_tpch_catalog, query.tables)
        result = rig.run_skipper(query, cache_capacity=6, eviction_policy=LRUEviction())
        assert canonical_rows(result.rows) == _expected(tiny_tpch_catalog, query)


class TestVanillaExecutorOnCSD:
    def _vanilla_executor(self, catalog, query, scheduler=None, config=None):
        env = Environment()
        store = ObjectStore()
        segments = [
            segment for table in query.tables for segment in catalog.relation(table).segments
        ]
        keys = store.put_segments("tenant", [segment.segment_id for segment in segments], segments)
        layout = ClientsPerGroupLayout(1).build({"tenant": keys})
        device = ColdStorageDevice(
            env,
            store,
            layout,
            scheduler or ObjectFCFSScheduler(),
            config or DeviceConfig(group_switch_seconds=5.0, transfer_seconds_per_object=1.0),
            MetricsRegistry(),
        )
        proxy = ClientProxy(env, device, "tenant")
        return env, VanillaExecutor(env, "tenant", catalog, proxy, CostModel(), {}), device

    def _run_vanilla(self, catalog, query, scheduler=None, config=None):
        env, executor, device = self._vanilla_executor(catalog, query, scheduler, config)
        process = env.process(executor.execute(query))
        env.run(until=process)
        return process.value, device

    @staticmethod
    def _join(catalog, query, fetched):
        rows, _stats, _root = SharedPullJoin(query, catalog, CostModel()).end(fetched)
        return rows

    def test_out_of_order_fetch_is_put_back_in_segment_order(self, tiny_tpch_catalog):
        query = tpch.q12()
        fetched = {
            table: list(reversed(tiny_tpch_catalog.relation(table).segments))
            for table in query.tables
        }
        assert len(fetched["lineitem"]) > 2
        # Same rows in the same order, not merely the same set.
        assert (
            self._join(tiny_tpch_catalog, query, fetched)
            == InMemoryExecutor(tiny_tpch_catalog).execute(query).rows
        )

    def test_incomplete_fetch_is_a_typed_error(self, tiny_tpch_catalog):
        """A missing middle segment is not renumbered into a smaller relation."""
        query = tpch.q12()
        fetched = {table: list(tiny_tpch_catalog.relation(table).segments) for table in query.tables}
        del fetched["lineitem"][1]
        with pytest.raises(SchemaError, match=r"found lineitem\.2 at position 1"):
            self._join(tiny_tpch_catalog, query, fetched)

    def test_payload_of_another_table_is_a_typed_error(self, tiny_tpch_catalog):
        query = tpch.q12()
        fetched = {table: list(tiny_tpch_catalog.relation(table).segments) for table in query.tables}
        fetched["lineitem"][1] = tiny_tpch_catalog.segment("orders", 1)
        with pytest.raises(SchemaError, match=r"orders\.1 does not belong to table 'lineitem'"):
            self._join(tiny_tpch_catalog, query, fetched)

    @pytest.mark.parametrize("query_name", ["q1", "q12", "q5"])
    def test_results_match_in_memory(self, tiny_tpch_catalog, query_name):
        query = tpch.query(query_name)
        result, _device = self._run_vanilla(tiny_tpch_catalog, query)
        assert canonical_rows(result.rows) == _expected(tiny_tpch_catalog, query)

    def test_requests_follow_plan_access_order(self, tiny_tpch_catalog):
        query = tpch.q12()
        result, device = self._run_vanilla(tiny_tpch_catalog, query)
        served = [
            interval.object_key.split("/", 1)[1]
            for interval in device.busy_intervals
            if interval.kind == "transfer"
        ]
        from repro.engine import Planner

        expected_order = Planner(tiny_tpch_catalog).plan(query).segment_access_order(
            tiny_tpch_catalog
        )
        assert served == expected_order
        assert result.num_requests == len(expected_order)

    def test_single_tenant_needs_one_switch(self, tiny_tpch_catalog):
        query = tpch.q12()
        _result, device = self._run_vanilla(tiny_tpch_catalog, query)
        assert device.stats.group_switches == 1

    def test_skipper_beats_vanilla_under_contention(self, tiny_tpch_catalog):
        """Two tenants on two groups: Skipper's batched access wins."""
        from repro.cluster import ClientSpec, ClusterConfig
        from repro.service import StorageService

        query = tpch.q12()
        device_config = DeviceConfig(group_switch_seconds=10.0, transfer_seconds_per_object=1.0)

        def run(mode, scheduler):
            specs = [
                ClientSpec(client_id=f"c{i}", queries=[query], mode=mode, cache_capacity=10)
                for i in range(2)
            ]
            config = ClusterConfig(
                client_specs=specs,
                layout_policy=ClientsPerGroupLayout(1),
                device_config=device_config,
            )
            return StorageService(
                config, catalog=tiny_tpch_catalog, scheduler_factory=scheduler
            ).run()

        vanilla = run("vanilla", ObjectFCFSScheduler)
        skipper = run("skipper", RankBasedScheduler)
        assert skipper.average_execution_time() < vanilla.average_execution_time()
        assert skipper.device_switches < vanilla.device_switches


class TestLocalJoinPerService:
    """The pull-based join is computed once per query per service and copied
    to every execution: shared inputs, private outputs."""

    @staticmethod
    def _count_joins(monkeypatch):
        calls = []
        real = SharedPullJoin.end

        def counted(run, fetched):
            calls.append(run.query)
            return real(run, fetched)

        monkeypatch.setattr(SharedPullJoin, "end", counted)
        return calls

    @staticmethod
    def _service(catalog, query):
        from repro.cluster import ClientSpec, ClusterConfig
        from repro.service import StorageService

        specs = [ClientSpec(client_id=f"c{i}", queries=[query], mode="vanilla") for i in range(2)]
        return StorageService(
            ClusterConfig(client_specs=specs, layout_policy=ClientsPerGroupLayout(1)),
            catalog=catalog,
        )

    def test_handles_get_equal_but_private_rows_and_stats(self, tiny_tpch_catalog, monkeypatch):
        calls = self._count_joins(monkeypatch)
        service = self._service(tiny_tpch_catalog, tpch.q12())
        handles = service.submit_workload()
        service.run()
        first, second = (handles[tenant][0].result() for tenant in ("c0", "c1"))
        assert len(calls) == 1
        assert first.rows == second.rows and first.stats == second.stats
        assert first.rows is not second.rows and first.stats is not second.stats
        expected_rows = [dict(row) for row in second.rows]
        expected_stats = dataclasses.replace(second.stats)
        first.rows[0][next(iter(first.rows[0]))] = "mutated"
        first.rows.append({"extra": 1})
        first.stats.tuples_built += 1
        assert second.rows == expected_rows and second.stats == expected_stats

    def test_each_service_joins_for_itself(self, tiny_tpch_catalog, monkeypatch):
        calls = self._count_joins(monkeypatch)
        query = tpch.q12()
        services = [self._service(tiny_tpch_catalog, query) for _ in range(2)]
        for service in services:
            service.run()
        assert calls == [query, query]
        assert services[0].shared_runs is not services[1].shared_runs

    def test_other_segment_objects_fork(self, tiny_tpch_catalog, monkeypatch):
        """A fetch of other segment objects forks and joins privately, a
        failed private join leaves the run alone, and the catalog's segments
        still follow the one logged join."""
        calls = self._count_joins(monkeypatch)
        query = tpch.q12()
        run = SharedPullJoin(query, tiny_tpch_catalog, CostModel())
        segments = [tiny_tpch_catalog.resolve_segment_id(s) for s in run.access_order]

        def fetch(payloads):
            cursor = RunCursor(run)
            for segment_id, segment in zip(run.access_order, payloads):
                cursor.arrive(segment_id, segment)
            return cursor, cursor.end()

        fetch(segments)
        follower, _ = fetch(segments)
        assert len(calls) == 1 and follower.private is None
        copies = [Segment(s.table_name, s.index, s.rows) for s in segments]
        forked, _ = fetch(copies)
        assert len(calls) == 2 and forked.private is not None and forked.position == 0
        foreign = list(segments)
        foreign[run.access_order.index("lineitem.1")] = tiny_tpch_catalog.segment("orders", 1)
        with pytest.raises(SchemaError, match=r"orders\.1 does not belong to table 'lineitem'"):
            fetch(foreign)
        assert len(calls) == 3
        # The failed join was not kept: the catalog's segments still follow.
        follower, _ = fetch(segments)
        assert len(calls) == 3 and follower.private is None


class TestLimitIsOneAnswer:
    """``LIMIT`` truncates a total order, so every executor keeps the same
    groups whatever order it met them in — for MJoin, the device's schedule."""

    def _mjoin_rows(self, catalog, query, arrival_order):
        manager = MJoinStateManager(query, catalog, ObjectCache(len(query.tables) + 2))
        requests = list(arrival_order)
        while requests:
            for segment_id in requests:
                manager.on_arrival(segment_id, catalog.resolve_segment_id(segment_id))
            requests = manager.next_cycle_requests()
        assert not tracker_has_pending(manager.tracker) and manager.cache.num_evictions > 0
        return manager.results()

    @pytest.mark.parametrize("order_by", [["n_name"], ["revenue", "n_name"]])
    def test_limit_query_agrees_across_executors_and_arrival_orders(self, make_rig, order_by):
        catalog = tpch.build_catalog("small", seed=42)
        unlimited = dataclasses.replace(tpch.q5(), order_by=order_by)
        query = dataclasses.replace(unlimited, limit=2)
        expected = InMemoryExecutor(catalog).execute(query).rows
        everything = InMemoryExecutor(catalog).execute(unlimited).rows
        assert len(everything) > len(expected) == 2
        assert expected == everything[:2]

        def same_answer(rows):
            # Float sums differ in the last digits with the order of summation.
            assert [row["n_name"] for row in rows] == [row["n_name"] for row in expected]
            assert [row["revenue"] for row in rows] == pytest.approx(
                [row["revenue"] for row in expected]
            )

        vanilla_rig = make_rig(catalog, query.tables, scheduler=ObjectFCFSScheduler())
        vanilla = vanilla_rig.vanilla()
        process = vanilla_rig.env.process(vanilla.execute(query))
        vanilla_rig.env.run(until=process)
        same_answer(process.value.rows)
        same_answer(make_rig(catalog, query.tables).run_skipper(query, cache_capacity=8).rows)

        scan_order = [
            segment_id for table in query.tables for segment_id in catalog.segment_ids(table)
        ]
        shuffled = list(scan_order)
        random.Random(5).shuffle(shuffled)
        for arrival_order in (scan_order, scan_order[::-1], shuffled):
            same_answer(self._mjoin_rows(catalog, query, arrival_order))

    def test_limit_without_a_total_order_is_rejected_by_both_executors(self, make_rig):
        """What the schedule used to decide: Q5's first group in arrival order."""
        catalog = tpch.build_catalog("small", seed=42)
        query = dataclasses.replace(tpch.q5(), order_by=[], limit=1)
        with pytest.raises(QueryError, match="LIMIT needs a total order"):
            InMemoryExecutor(catalog).execute(query)
        with pytest.raises(QueryError, match="LIMIT needs a total order"):
            MJoinStateManager(query, catalog, ObjectCache(8))
