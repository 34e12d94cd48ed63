"""Tests for end-to-end query tracing: spans, exports, analysis, determinism.

The two hard guarantees pinned here:

* tracing **off** changes nothing — the report of a traced run differs from
  the untraced one only by the spec's ``trace`` flag, and an untraced
  service performs no tracing work at all;
* tracing **on** is byte-deterministic — the exported JSON of the same
  spec + seed is identical run to run, serial or parallel.
"""

import json
import runpy
import sys

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.analysis import (
    PHASES,
    query_breakdowns,
    render_breakdown,
    tenant_totals,
    top_slowest,
)
from repro.obs.export import TRACE_FORMAT, build_trace, to_chrome, trace_to_json
from repro.obs.tracer import NULL_TRACER
from repro.scenarios.parallel import run_scenarios
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.service import StorageService
from repro.workloads import tpch

FLEET_SCENARIO = "fleet-throttled-rebalance"
ADMISSION_SCENARIO = "admission-burst"


@pytest.fixture(scope="module")
def fleet_trace():
    report, trace_json = ScenarioRunner().run_traced(get_scenario(FLEET_SCENARIO))
    return report, json.loads(trace_json), trace_json


class TestSpanTree:
    def test_document_shape(self, fleet_trace):
        _report, document, _raw = fleet_trace
        assert document["format"] == TRACE_FORMAT
        assert document["scenario"] == FLEET_SCENARIO
        assert document["total_simulated_time"] > 0
        assert document["tracks"]["tenants"]
        assert document["tracks"]["devices"]

    def test_all_layers_present(self, fleet_trace):
        _report, document, _raw = fleet_trace
        kinds = {span["kind"] for span in document["spans"]}
        assert {"query", "executor", "compute", "wait", "device"} <= kinds

    def test_span_ids_sequential_and_parents_resolve(self, fleet_trace):
        _report, document, _raw = fleet_trace
        spans = document["spans"]
        assert [span["id"] for span in spans] == list(range(1, len(spans) + 1))
        ids = {span["id"] for span in spans}
        for span in spans:
            assert span["parent"] is None or span["parent"] in ids
            assert span["end"] >= span["start"]

    def test_executor_spans_parented_to_query_roots(self, fleet_trace):
        _report, document, _raw = fleet_trace
        by_id = {span["id"]: span for span in document["spans"]}
        executors = [s for s in document["spans"] if s["kind"] == "executor"]
        assert executors
        for span in executors:
            root = by_id[span["parent"]]
            assert root["kind"] == "query"
            assert root["attrs"]["tenant"] == span["track"]

    def test_route_events_recorded_on_fleet_runs(self, fleet_trace):
        _report, document, _raw = fleet_trace
        route_events = [
            event
            for span in document["spans"]
            for event in span["events"]
            if event["name"] == "route"
        ]
        assert route_events
        for event in route_events:
            assert event["attrs"]["device"] in document["tracks"]["devices"]
            assert "epoch" in event["attrs"]

    def test_device_transfers_parented_to_queries(self, fleet_trace):
        _report, document, _raw = fleet_trace
        by_id = {span["id"]: span for span in document["spans"]}
        transfers = [
            s for s in document["spans"]
            if s["kind"] == "device" and s["name"] == "transfer"
        ]
        assert transfers
        parented = [s for s in transfers if s["parent"] is not None]
        assert parented, "no transfer span joined back to its query"
        for span in parented:
            assert by_id[span["parent"]]["kind"] == "executor"

    def test_admission_events_on_queued_queries(self):
        _report, trace_json = ScenarioRunner().run_traced(
            get_scenario(ADMISSION_SCENARIO)
        )
        document = json.loads(trace_json)
        event_names = {
            event["name"]
            for span in document["spans"]
            if span["kind"] == "query"
            for event in span["events"]
        }
        assert "admission.queued" in event_names
        assert "admission.granted" in event_names


def _transfers_per_execution(document):
    """query id -> number of device ``transfer`` spans its ``execute`` span
    parents, after checking that every parented device span lies inside its
    parent's window."""
    by_id = {span["id"]: span for span in document["spans"]}
    counts = {
        span["attrs"]["query_id"]: 0
        for span in document["spans"]
        if span["name"] == "execute"
    }
    for span in document["spans"]:
        if span["name"] not in ("transfer", "inbox-wait") or span["parent"] is None:
            continue
        parent = by_id[span["parent"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"], (
            f"{span['name']} span {span['id']} lies outside execute span {parent['id']}"
        )
        if span["name"] == "transfer":
            counts[parent["attrs"]["query_id"]] += 1
    return counts


class TestOneQueryIdPerExecution:
    """A session's proxy mints a fresh id for every execution, so device time
    joins back to the execution that caused it — also when a query repeats."""

    SPEC = ScenarioSpec(
        name="q12-three-times",
        description="one tenant repeats tpch:q12",
        tenants=uniform_tenants(1, "tpch:q12", repetitions=3),
        trace=True,
    )

    def test_repetitions_get_distinct_ids_and_their_own_transfers(self):
        _report, trace_json = ScenarioRunner().run_traced(self.SPEC)
        counts = _transfers_per_execution(json.loads(trace_json))
        assert counts == {f"tenant0:tpch_q12:{index}": 6 for index in range(3)}

    def test_same_query_submitted_twice_through_a_session(self):
        service = StorageService(self.SPEC)
        session = service.open_session("tenant0")
        session.submit(tpch.q12())
        session.submit(tpch.q12())
        service.run()
        counts = _transfers_per_execution(build_trace(service))
        assert counts == {"tenant0:tpch_q12:0": 6, "tenant0:tpch_q12:1": 6}


class TestDeterminism:
    def test_same_spec_same_seed_byte_identical(self, fleet_trace):
        _report, _document, raw = fleet_trace
        _again, raw_again = ScenarioRunner().run_traced(get_scenario(FLEET_SCENARIO))
        assert raw == raw_again

    def test_parallel_traces_match_serial(self):
        names = ["uniform", ADMISSION_SCENARIO]
        serial = run_scenarios(names, jobs=1, trace=True)
        parallel = run_scenarios(names, jobs=4, trace=True)
        for left, right in zip(serial, parallel):
            assert left.trace_json is not None
            assert left.trace_json == right.trace_json
            assert left.report_json == right.report_json

    def test_traced_report_matches_untraced_modulo_trace_flag(self):
        spec = get_scenario(ADMISSION_SCENARIO)
        untraced = ScenarioRunner().run(spec).to_dict()
        traced_report, _ = ScenarioRunner().run_traced(spec)
        traced = traced_report.to_dict()
        assert traced["spec"].pop("trace") is True
        assert "trace" not in untraced["spec"]
        assert traced == untraced


class TestZeroOverheadOff:
    def test_untraced_service_uses_null_tracer(self):
        service = StorageService(get_scenario("uniform"))
        assert service.tracer is NULL_TRACER
        assert not service.tracer.enabled
        service.run()
        assert service.tracer.spans == []
        assert service.tracer.io_submissions == []

    def test_build_trace_rejects_untraced_service(self):
        service = StorageService(get_scenario("uniform"))
        service.run()
        with pytest.raises(ConfigurationError):
            build_trace(service)

    def test_trace_flag_only_in_spec_dict_when_enabled(self):
        from dataclasses import replace

        spec = get_scenario("uniform")
        assert "trace" not in spec.to_dict()
        assert replace(spec, trace=True).to_dict()["trace"] is True


class TestAnalysis:
    def test_breakdown_phases_sum_to_total(self, fleet_trace):
        _report, document, _raw = fleet_trace
        breakdowns = query_breakdowns(document)
        assert breakdowns
        for entry in breakdowns:
            assert entry["total"] == pytest.approx(
                sum(entry[phase] for phase in PHASES), abs=1e-9
            )

    def test_breakdown_total_matches_reported_latency(self, fleet_trace):
        """queue + execute == the handle-level latency the report sees."""
        _report, document, _raw = fleet_trace
        by_id = {span["id"]: span for span in document["spans"]}
        for entry in query_breakdowns(document):
            span = next(
                s
                for s in document["spans"]
                if s["kind"] == "executor"
                and s["attrs"].get("query_id") == entry["query_id"]
            )
            root = by_id[span["parent"]]
            expected = root["attrs"]["execution_time"] + root["attrs"]["queue_delay"]
            # Exported floats are independently rounded to 9 decimal places,
            # so the identity holds to the rounding grain, not exactly.
            assert entry["total"] == pytest.approx(expected, abs=1e-8)

    def test_admission_breakdown_has_queue_phase(self):
        _report, trace_json = ScenarioRunner().run_traced(
            get_scenario(ADMISSION_SCENARIO)
        )
        breakdowns = query_breakdowns(json.loads(trace_json))
        assert any(entry["queue"] > 0 for entry in breakdowns)

    def test_tenant_totals_cover_every_query(self, fleet_trace):
        _report, document, _raw = fleet_trace
        breakdowns = query_breakdowns(document)
        totals = tenant_totals(breakdowns)
        assert list(totals) == sorted(totals)
        assert sum(entry["queries"] for entry in totals.values()) == len(breakdowns)

    def test_top_slowest_sorted(self, fleet_trace):
        _report, document, _raw = fleet_trace
        slowest = top_slowest(document, count=3)
        assert len(slowest) == 3
        assert slowest[0]["total"] >= slowest[1]["total"] >= slowest[2]["total"]

    def test_render_breakdown_mentions_scenario(self, fleet_trace):
        _report, document, _raw = fleet_trace
        rendered = render_breakdown(document, top=5)
        assert FLEET_SCENARIO in rendered
        assert "per-tenant phase totals" in rendered


class TestExports:
    def test_trace_json_is_canonical(self, fleet_trace):
        _report, document, raw = fleet_trace
        assert raw == trace_to_json(document)
        assert raw.endswith("\n")

    def test_chrome_export_structure(self, fleet_trace):
        _report, document, _raw = fleet_trace
        chrome = to_chrome(document)
        events = chrome["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        metadata = [event for event in events if event["ph"] == "M"]
        assert len(complete) == len(document["spans"])
        thread_names = {
            event["args"]["name"]
            for event in metadata
            if event["name"] == "thread_name"
        }
        assert set(document["tracks"]["tenants"]) <= thread_names
        assert set(document["tracks"]["devices"]) <= thread_names
        json.dumps(chrome)  # Perfetto needs plain JSON

    def test_chrome_timestamps_in_microseconds(self, fleet_trace):
        _report, document, _raw = fleet_trace
        chrome = to_chrome(document)
        spans = document["spans"]
        complete = [event for event in chrome["traceEvents"] if event["ph"] == "X"]
        assert complete[0]["ts"] == pytest.approx(spans[0]["start"] * 1e6)


class TestTraceCLI:
    def test_load_trace_rejects_other_json(self, tmp_path):
        from repro.trace import load_trace

        path = tmp_path / "not-a-trace.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_load_trace_rejects_missing_file(self, tmp_path):
        from repro.trace import load_trace

        with pytest.raises(ConfigurationError):
            load_trace(tmp_path / "missing.json")

    #: What ``load_trace`` must say about a document damaged this way.
    DAMAGE = {
        "version 99": lambda document: document.update(version=99),
        "no spans": lambda document: document.pop("spans"),
        "no tracks": lambda document: document.pop("tracks"),
        "no total_simulated_time": lambda document: document.pop("total_simulated_time"),
        "not a list": lambda document: document.update(spans={"id": 1}),
        "not an object": lambda document: document["spans"].append(7),
        **{
            f"span #2 has no {key}": lambda document, key=key: document["spans"][2].pop(key)
            for key in ("id", "parent", "kind", "name", "track", "start", "end", "attrs", "events")
        },
    }

    @pytest.mark.parametrize("complaint", list(DAMAGE))
    def test_damaged_document_is_a_typed_error_not_a_key_error(
        self, tmp_path, fleet_trace, complaint
    ):
        from repro.trace import load_trace

        _report, _document, raw = fleet_trace
        document = json.loads(raw)
        self.DAMAGE[complaint](document)
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ConfigurationError, match=complaint):
            load_trace(path)

    def test_module_entry_point_prints_repro_errors_and_exits_2(
        self, tmp_path, monkeypatch, capsys
    ):
        """A wrong-version document is ``error: …`` and exit 2, never the
        ``KeyError: 'spans'`` traceback it used to be."""
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format": TRACE_FORMAT, "version": 99}))
        monkeypatch.setattr(sys, "argv", ["repro.trace", str(path)])
        monkeypatch.delitem(sys.modules, "repro.trace", raising=False)
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("repro.trace", run_name="__main__")
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_main_renders_and_converts(self, tmp_path, capsys, fleet_trace):
        from repro.trace import main

        _report, _document, raw = fleet_trace
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(raw)
        chrome_path = tmp_path / "chrome.json"
        assert main([str(trace_path), "--top", "3", "--chrome", str(chrome_path)]) == 0
        output = capsys.readouterr().out
        assert FLEET_SCENARIO in output
        assert json.loads(chrome_path.read_text())["traceEvents"]

    def test_main_rejects_bad_top(self, tmp_path, fleet_trace):
        from repro.trace import main

        _report, _document, raw = fleet_trace
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(raw)
        with pytest.raises(ConfigurationError):
            main([str(trace_path), "--top", "0"])


class TestBenchTracing:
    def test_bench_run_one_reports_span_count(self):
        from repro.bench import macro_specs, run_one

        entry = run_one(macro_specs(smoke=True)[0], trace=True)
        assert entry["trace_spans"] > 0
