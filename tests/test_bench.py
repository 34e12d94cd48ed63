"""The macro-benchmark harness: spec validity, measurement, document shape."""

from __future__ import annotations

import json

import pytest

import repro.bench
import repro.bench.__main__
from repro.bench import (
    DEFAULT_OUTPUT_NAME,
    attach_baseline,
    check_determinism,
    macro_specs,
    peak_rss_kb,
    repo_root,
    run_benchmarks,
    run_one,
    write_document,
)
from repro.bench.__main__ import build_parser, main

_MACRO_NAMES = {
    "macro-sf-heavy",
    "macro-fleet-churn",
    "macro-throttled-rebalance",
    "macro-million-keys",
    "macro-sf-1000",
    "macro-heterogeneous-fleet",
}


class TestMacroSpecs:
    def test_both_modes_build_valid_specs(self):
        # ScenarioSpec validates eagerly in __post_init__, so simply
        # building both suites proves every knob combination is legal.
        full = macro_specs(smoke=False)
        smoke = macro_specs(smoke=True)
        assert [spec.name for spec in full] == [spec.name for spec in smoke]
        assert {spec.name for spec in full} == _MACRO_NAMES

    def test_full_suite_is_scaled_up(self):
        by_name = {spec.name: spec for spec in macro_specs(smoke=False)}
        assert by_name["macro-sf-heavy"].scale == "sf100"
        assert by_name["macro-fleet-churn"].fleet.devices == 16
        assert by_name["macro-throttled-rebalance"].fleet.throttle is not None
        assert by_name["macro-sf-1000"].scale == "sf1000"

    def test_million_keys_macro_shape(self):
        spec = {s.name: s for s in macro_specs(smoke=False)}["macro-million-keys"]
        assert spec.scale == "mkeys"
        assert spec.fleet.devices == 32
        assert spec.fleet.replication == 2
        assert spec.fleet.events, "a device join must land mid-run"
        # Devices model shipping firmware: slack-FCFS with a tight slack.
        assert spec.scheduler == "slack-fcfs"
        assert spec.scheduler_param == 4.0

    def test_heterogeneous_fleet_macro_shape(self):
        by_name = {s.name: s for s in macro_specs(smoke=False)}
        spec = by_name["macro-heterogeneous-fleet"]
        assert spec.fleet.replica_policy == "ewma-latency"
        assert spec.fleet.weighting == "profile"
        assert spec.fleet.rebalance is not None
        assert spec.fleet.heterogeneous
        smoke = {s.name: s for s in macro_specs(smoke=True)}[
            "macro-heterogeneous-fleet"
        ]
        # The smoke twin keeps every load-aware knob on, just smaller.
        assert smoke.fleet.replica_policy == "ewma-latency"
        assert smoke.fleet.weighting == "profile"
        assert smoke.fleet.rebalance is not None


class TestMeasurement:
    def test_run_one_measures_phases_and_events(self):
        spec = macro_specs(smoke=True)[0]
        entry = run_one(spec)
        assert entry["events_dispatched"] > 0
        assert entry["events_per_second"] > 0
        assert entry["simulated_time"] > 0
        assert entry["queries_run"] == 2
        for phase in ("build_seconds", "run_seconds", "report_seconds"):
            assert entry[phase] >= 0.0
        assert entry["wall_seconds"] >= entry["run_seconds"]
        assert entry["peak_rss_kb_delta"] >= 0

    def test_peak_rss_is_positive(self):
        assert peak_rss_kb() > 0


class TestDocument:
    def test_smoke_document_roundtrips(self, tmp_path):
        document = run_benchmarks(smoke=True)
        assert document["mode"] == "smoke"
        assert set(document["scenarios"]) == _MACRO_NAMES
        assert document["totals"]["events_dispatched"] == sum(
            entry["events_dispatched"] for entry in document["scenarios"].values()
        )
        # Smoke documents are for CI drift checks, not for committing.
        assert "smoke_determinism" not in document
        path = write_document(document, tmp_path / "BENCH.json")
        assert json.loads(path.read_text()) == document

    def test_attach_baseline_computes_speedups(self):
        document = {
            "scenarios": {
                "a": {
                    "events_per_second": 300.0,
                    "build_seconds": 1.0,
                    "run_seconds": 1.0,
                },
                "b": {
                    "events_per_second": 100.0,
                    "build_seconds": 1.0,
                    "run_seconds": 1.0,
                },
                "only-new": {
                    "events_per_second": 50.0,
                    "build_seconds": 1.0,
                    "run_seconds": 1.0,
                },
            }
        }
        baseline = {
            "label": "old",
            "totals": {"events_per_second": 120.0},
            "scenarios": {
                "a": {
                    "events_per_second": 100.0,
                    "build_seconds": 3.0,
                    "run_seconds": 3.0,
                },
                "b": {"events_per_second": 100.0},
            },
        }
        attach_baseline(document, baseline)
        assert document["baseline"]["label"] == "old"
        assert document["baseline"]["speedup_events_per_second"] == {
            "a": 3.0,
            "b": 1.0,
        }
        assert document["baseline"]["speedup_build_run_seconds"] == {"a": 3.0}
        assert "only-new" not in document["baseline"]["speedup_events_per_second"]

    def test_check_determinism_full_and_smoke(self):
        committed = {
            "scenarios": {
                "a": {"events_dispatched": 10, "simulated_time": 5.0},
            },
            "smoke_determinism": {
                "a": {"events_dispatched": 3, "simulated_time": 1.0},
            },
        }
        full_run = {
            "mode": "full",
            "scenarios": {"a": {"events_dispatched": 10, "simulated_time": 5.0}},
        }
        assert check_determinism(full_run, committed) == []
        smoke_run = {
            "mode": "smoke",
            "scenarios": {"a": {"events_dispatched": 4, "simulated_time": 1.0}},
        }
        problems = check_determinism(smoke_run, committed)
        assert len(problems) == 1 and "events_dispatched" in problems[0]
        missing = {"mode": "smoke", "scenarios": {}}
        assert any(
            "pinned" in problem for problem in check_determinism(missing, committed)
        )

    def test_committed_bench_10_covers_the_current_suite(self):
        from repro.bench import DEFAULT_OUTPUT_NAME, repo_root

        committed = json.loads((repo_root() / DEFAULT_OUTPUT_NAME).read_text())
        assert committed["benchmark"] == "BENCH_10"
        assert committed["mode"] == "full"
        assert set(committed["scenarios"]) == _MACRO_NAMES
        # Full documents embed the smoke outcomes CI diffs against.
        assert set(committed["smoke_determinism"]) == _MACRO_NAMES


class TestCli:
    @pytest.mark.parametrize("explicit_path", [False, True])
    def test_smoke_check_leaves_the_committed_document_alone(
        self, explicit_path, tmp_path, monkeypatch, capsys
    ):
        committed_bytes = (repo_root() / DEFAULT_OUTPUT_NAME).read_bytes()
        copy = tmp_path / DEFAULT_OUTPUT_NAME
        copy.write_bytes(committed_bytes)
        # Both the default --check target and the default output resolve
        # against the repository root: point it at the copy's directory.
        monkeypatch.setattr(repro.bench, "repo_root", lambda: tmp_path)
        monkeypatch.setattr(repro.bench.__main__, "repo_root", lambda: tmp_path)
        arguments = ["--smoke", "--check"] + ([str(copy)] if explicit_path else [])
        assert main(arguments) == 0
        assert "determinism check ok" in capsys.readouterr().out
        assert copy.read_bytes() == committed_bytes
        assert sorted(tmp_path.iterdir()) == [copy]

    def test_parser_flags(self):
        arguments = build_parser().parse_args(["--smoke", "--check"])
        assert arguments.smoke is True
        assert arguments.output is None
        assert arguments.baseline is None
        assert arguments.check is not None
