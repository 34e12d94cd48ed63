"""The one per-query measurement loop: ``QueryRun`` and ``QueryResult``.

Unit tests drive a :class:`~repro.core.execution.QueryRun` directly on a
single-tenant rig; the conservation tests then check, over every query of
every registered scenario, the law the driver exists to keep:
``execution_time == processing_time + waiting_time``.
"""

from __future__ import annotations

import pytest

from repro.core import ClientProxy, QueryRun, SkipperExecutor
from repro.core.execution import MODE_SKIPPER, MODE_VANILLA
from repro.csd import DeviceConfig
from repro.engine.operators.base import OperatorStats
from repro.exceptions import ExecutionError
from repro.obs import Tracer
from repro.scenarios import all_scenarios
from repro.service import StorageService
from repro.vanilla import VanillaExecutor
from repro.workloads import tpch

QUERY = tpch.q12()
MJOIN_COUNTERS = (
    "num_cycles",
    "num_evictions",
    "subplans_total",
    "subplans_executed",
    "subplans_pruned",
    "cache_hits",
    "cache_insertions",
    "cache_peak_occupancy",
    "cache_capacity",
)


@pytest.fixture()
def rig(tiny_tpch_catalog, make_rig):
    return make_rig(tiny_tpch_catalog, QUERY.tables)


def _traced_run(rig, mode=MODE_SKIPPER):
    tracer = Tracer(rig.env)
    proxy = ClientProxy(rig.env, rig.device, "tenant")
    return QueryRun(proxy, QUERY, mode, tracer), tracer


def _drive(rig, generator):
    process = rig.env.process(generator)
    rig.env.run(until=process)
    return process.value


def _hand_to(handed, seconds_per_row):
    """An ``on_arrival`` that logs ``(requested id, delivered id)`` and costs per row."""

    def on_arrival(segment_id, payload):
        handed.append((segment_id, payload.segment_id))
        return seconds_per_row * payload.num_rows

    return on_arrival


def _one_verb_at_a_time(run, segment_ids, overhead_seconds, on_arrival):
    """The pull loop as the executor wrote it before ``pull_each``: charge,
    request, wait on the proxy, charge — three generators per object."""
    for segment_id in segment_ids:
        yield from run.charge(overhead_seconds, "request-overhead", requests=1)
        run.request([segment_id])
        wait_start = run.env.now
        arrived_id, payload = yield run.proxy.arrivals.get()
        if run.env.now > wait_start:
            run.blocked.append((wait_start, run.env.now))
            run.tracer.record_span(
                "wait",
                kind="wait",
                track=run.proxy.client_id,
                start=wait_start,
                end=run.env.now,
                parent=run.span,
                object_key=arrived_id,
            )
        if arrived_id != segment_id:
            raise ExecutionError(f"expected {segment_id!r} but received {arrived_id!r}")
        yield from run.charge(on_arrival(segment_id, payload), object_key=segment_id)


def _span_shapes(tracer):
    """``(name, kind, attr names)`` of every non-operator span."""
    return {
        (span.name, span.kind, tuple(sorted(span.attrs)))
        for span in tracer.spans
        if span.kind != "operator"
    }


class TestQueryRun:
    def test_zero_second_charge_is_nothing_at_all(self, rig):
        run, tracer = _traced_run(rig)
        assert list(run.charge(0.0)) == []  # no event to wait on
        assert run.processing_time == 0.0
        assert [span.name for span in tracer.spans] == ["execute"]

    def test_charge_advances_time_and_processing_together(self, rig):
        run, tracer = _traced_run(rig)
        _drive(rig, run.charge(2.5, "request-overhead", requests=4))
        assert rig.env.now == run.processing_time == 2.5
        span = tracer.spans[-1]
        assert (span.name, span.kind) == ("request-overhead", "compute")
        assert (span.start, span.end) == (0.0, 2.5)
        assert span.attrs == {"requests": 4}

    def test_pull_without_waiting_records_nothing(self, tiny_tpch_catalog, make_rig):
        instant = DeviceConfig(group_switch_seconds=0.0, transfer_seconds_per_object=0.0)
        rig = make_rig(tiny_tpch_catalog, QUERY.tables, device_config=instant)
        run, tracer = _traced_run(rig)
        segment_id = tiny_tpch_catalog.segment_ids("orders")[0]
        handed = []
        _drive(rig, run.pull_each([segment_id], 0.0, _hand_to(handed, 0.0)))
        assert handed == [(segment_id, segment_id)]
        assert rig.env.now == 0.0 and run.num_requests == 1
        assert run.blocked == [] and run.processing_time == 0.0
        assert [span.name for span in tracer.spans] == ["execute"]

    def test_pull_records_the_blocked_interval_and_a_wait_span(self, rig, tiny_tpch_catalog):
        run, tracer = _traced_run(rig)
        segment_id = tiny_tpch_catalog.segment_ids("orders")[0]
        _drive(rig, run.pull_each([segment_id], 0.0, _hand_to([], 0.0)))
        assert run.blocked == [(0.0, rig.env.now)] and rig.env.now > 0
        span = tracer.spans[-1]
        assert (span.name, span.kind, span.attrs) == ("wait", "wait", {"object_key": segment_id})
        assert (span.start, span.end) == run.blocked[0]

    @pytest.mark.parametrize("overhead_seconds, seconds_per_row", [(0.25, 0.125), (0.0, 0.0)])
    def test_pull_each_equals_the_verbs_it_replaced(
        self, tiny_tpch_catalog, make_rig, overhead_seconds, seconds_per_row
    ):
        segment_ids = tiny_tpch_catalog.segment_ids("orders") + tiny_tpch_catalog.segment_ids(
            "lineitem"
        )

        def observe(drive):
            rig = make_rig(tiny_tpch_catalog, QUERY.tables)
            run, tracer = _traced_run(rig, MODE_VANILLA)
            handed = []
            _drive(rig, drive(run, segment_ids, overhead_seconds, _hand_to(handed, seconds_per_row)))
            return {
                "spans": [span.to_dict() for span in tracer.spans],
                "blocked": run.blocked,
                "processing_time": run.processing_time,
                "num_requests": run.num_requests,
                "dispatched": rig.env.dispatched,
                "now": rig.env.now,
                "handed": handed,
            }

        fused = observe(QueryRun.pull_each)
        assert fused == observe(_one_verb_at_a_time)
        assert fused["num_requests"] == len(segment_ids) == len(fused["blocked"])
        names = [span["name"] for span in fused["spans"]]
        if overhead_seconds:
            assert names[1:5] == ["request-overhead", "wait", "compute", "request-overhead"]
        else:  # zero charges: no event, no span
            assert set(names) == {"execute", "wait"}

    def test_a_foreign_delivery_is_an_execution_error(self, rig, tiny_tpch_catalog):
        run, _tracer = _traced_run(rig, MODE_VANILLA)
        first, second = tiny_tpch_catalog.segment_ids("orders")[:2]
        run.proxy.arrivals.put((second, tiny_tpch_catalog.resolve_segment_id(second)))
        with pytest.raises(ExecutionError, match=f"expected '{first}' but received '{second}'"):
            _drive(rig, run.pull_each([first], 0.0, _hand_to([], 0.0)))

    def test_finish_closes_the_execute_span_and_fills_the_result(self, rig):
        run, tracer = _traced_run(rig, MODE_VANILLA)
        run.request(rig.catalog.segment_ids("orders")[:2])
        result = run.finish([], OperatorStats())
        assert (result.mode, result.num_requests, result.query_name) == ("vanilla", 2, QUERY.name)
        assert result.client_id == "tenant" and result.blocked_intervals is run.blocked
        assert all(getattr(result, counter) == 0 for counter in MJOIN_COUNTERS)
        execute = tracer.spans[0]
        assert execute.attrs == {"query_id": run.query_id, "mode": "vanilla", "num_requests": 2}
        assert execute.end == result.end_time

    def test_untraced_run_has_no_span(self, rig):
        run = QueryRun(ClientProxy(rig.env, rig.device, "tenant"), QUERY, MODE_SKIPPER)
        assert run.span is None
        _drive(rig, run.charge(1.0))
        assert run.processing_time == 1.0


class TestExecutorSpans:
    """Span names, kinds and attribute names are the ones traces always had."""

    def test_skipper(self, rig):
        executor = SkipperExecutor(rig.env, "tenant", rig.catalog, rig.device, cache_capacity=3)
        executor.tracer = tracer = Tracer(rig.env)
        result = _drive(rig, executor.execute(QUERY))
        assert result.mode == "skipper" and result.num_cycles > 1
        assert _span_shapes(tracer) == {
            ("execute", "executor", ("mode", "num_cycles", "num_requests", "query_id")),
            ("request-overhead", "compute", ("requests",)),
            ("wait", "wait", ("object_key",)),
            ("compute", "compute", ("object_key",)),
        }
        assert [span.name for span in tracer.spans if span.kind == "operator"] == ["operators"]

    def test_vanilla(self, rig):
        executor = VanillaExecutor(rig.env, "tenant", rig.catalog, rig.device)
        executor.tracer = tracer = Tracer(rig.env)
        result = _drive(rig, executor.execute(QUERY))
        assert result.mode == "vanilla"
        assert all(getattr(result, counter) == 0 for counter in MJOIN_COUNTERS)
        assert _span_shapes(tracer) == {
            ("execute", "executor", ("mode", "num_requests", "query_id")),
            ("request-overhead", "compute", ("requests",)),
            ("wait", "wait", ("object_key",)),
            ("compute", "compute", ("object_key",)),
            ("compute", "compute", ("phase",)),
        }
        operators = [span for span in tracer.spans if span.kind == "operator"]
        assert operators and all(span.name.startswith("operator:") for span in operators)


@pytest.mark.parametrize("spec", all_scenarios(), ids=lambda spec: spec.name)
def test_time_and_requests_are_conserved(spec):
    """Both modes, fleet and single device, admission on and off."""
    service = StorageService(spec)
    result = service.run()
    served = service.device_stats().objects_per_client
    for tenant, query_results in result.results_by_client.items():
        for query_result in query_results:
            assert query_result.execution_time == pytest.approx(
                query_result.processing_time + query_result.waiting_time, rel=1e-9, abs=0.0
            )
            edges = [query_result.start_time]
            for start, end in query_result.blocked_intervals:
                assert start < end
                edges += [start, end]
            edges.append(query_result.end_time)
            # Ordered, disjoint and inside the query's execution window.
            assert edges == sorted(edges)
        assert sum(q.num_requests for q in query_results) == served.get(tenant, 0)
