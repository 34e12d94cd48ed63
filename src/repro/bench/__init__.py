"""Macro-benchmark harness for the simulator core.

The scenario registry's golden runs are deliberately small — they exist to
pin *behaviour*, byte for byte, not to stress the event loop.  This package
holds the complement: a pinned set of **macro** scenarios (scaled-up
variants of the golden workload shapes) that run long enough for wall time
to mean something, plus the measurement loop that times them and writes a
machine-readable summary to ``BENCH_10.json`` at the repository root.

Six macro shapes, mirroring where profiles show the simulator spends its
time:

* ``macro-sf-heavy`` — a scale-factor-heavy single-device run (four tenants
  of TPC-H Q5 at SF-100): dominated by the query engine (joins, predicate
  evaluation, subplan execution).
* ``macro-fleet-churn`` — a sixteen-device R=2 fleet under membership churn
  (two joins, a graceful leave and a fail-stop loss while twelve tenants
  hammer Q12 at SF-50): dominated by the event loop, placement diffs and
  the report-phase waiting attribution.
* ``macro-throttled-rebalance`` — a join under bursty load with migration
  I/O throttled by a per-device token bucket: exercises the rebalance path
  where foreground and background I/O interleave.
* ``macro-million-keys`` — eight single-table Q6 tenants over a 125k-segment
  lineitem put one million objects on a 32-device R=2 fleet with a join
  mid-run, each device running the shipping-firmware slack-FCFS scheduler:
  dominated by bulk placement, the per-device scheduler pools (and the
  per-decision lookups over them) and the request fan-out.
* ``macro-sf-1000`` — one TPC-H Q5 tenant at SF-1000 (~177k subplans, all
  ~952 objects cached): dominated by segment filtering, hash-table builds
  and the n-ary join.
* ``macro-heterogeneous-fleet`` — a mixed fast/slow eight-device R=2 fleet
  at SF-50 with profile-weighted placement, ewma-latency routing and the
  feedback rebalancer ticking: exercises weighted ring builds, per-request
  EWMA updates and reweight-epoch placement diffs.

Each measurement separates the build / run / report phases, counts events
actually *dispatched* by the simulation core, and derives events/second
from the run phase alone.  ``--smoke`` shrinks every scenario to seconds
for CI; the full suite is for before/after comparisons when touching the
hot paths.  Numbers in a committed ``BENCH_10.json`` are machine-dependent:
compare ratios measured on one machine, never absolute times across two.
``events_dispatched`` and ``simulated_time`` however are deterministic, so
the committed document doubles as a drift detector: ``--check`` re-runs the
suite and fails on any behavioural divergence from the committed numbers.
"""

from __future__ import annotations

import cProfile
import json
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.fleet.spec import (
    DeviceFailure,
    DeviceJoin,
    DeviceLeave,
    DeviceProfile,
    FleetSpec,
    MigrationThrottle,
    RebalancePolicy,
)
from repro.scenarios.arrivals import BurstyArrival
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec, uniform_tenants

BENCH_SCHEMA_VERSION = 2

#: Committed output file, numbered by the PR that last re-measured it.
DEFAULT_OUTPUT_NAME = "BENCH_10.json"


def repo_root() -> Path:
    """Repository root (three levels above ``src/repro/bench``)."""
    return Path(__file__).resolve().parents[3]


def macro_specs(smoke: bool = False) -> List[ScenarioSpec]:
    """The pinned macro scenarios, full-size or CI-sized (``smoke``)."""
    if smoke:
        return [
            ScenarioSpec(
                name="macro-sf-heavy",
                description="Smoke-sized engine-bound run: two TPC-H Q5 "
                "tenants at the small scale on one device.",
                tenants=uniform_tenants(2, "tpch:q5", cache_capacity=30),
                scale="small",
                seed=42,
            ),
            ScenarioSpec(
                name="macro-fleet-churn",
                description="Smoke-sized churn: four Q12 tenants on a "
                "four-device R=2 fleet with one join and one failure.",
                tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8),
                scale="tiny",
                fleet=FleetSpec(
                    devices=4,
                    replication=2,
                    replica_policy="least-loaded",
                    events=(DeviceJoin(device=4, at_seconds=60.0),),
                    failures=(DeviceFailure(device=0, at_seconds=120.0),),
                ),
                seed=42,
            ),
            ScenarioSpec(
                name="macro-throttled-rebalance",
                description="Smoke-sized throttled join under bursty load.",
                tenants=uniform_tenants(3, "tpch:q12", cache_capacity=8),
                scale="tiny",
                arrival=BurstyArrival(
                    burst_size=2, burst_gap_seconds=60.0, jitter_seconds=4.0
                ),
                fleet=FleetSpec(
                    devices=3,
                    events=(DeviceJoin(device=3, at_seconds=80.0),),
                    throttle=MigrationThrottle(objects_per_second=0.1),
                ),
                seed=42,
            ),
            ScenarioSpec(
                name="macro-million-keys",
                description="Smoke-sized key-population run: four Q6 tenants "
                "at SF-100 on an eight-device R=2 fleet of slack-FCFS "
                "devices with one join.",
                tenants=uniform_tenants(4, "tpch:q6", cache_capacity=16),
                scale="sf100",
                scheduler="slack-fcfs",
                scheduler_param=4.0,
                fleet=FleetSpec(
                    devices=8,
                    replication=2,
                    events=(DeviceJoin(device=8, at_seconds=120.0),),
                ),
                seed=42,
            ),
            ScenarioSpec(
                name="macro-sf-1000",
                description="Smoke-sized engine-depth run: one TPC-H Q5 "
                "tenant at the small scale with everything cached.",
                tenants=uniform_tenants(1, "tpch:q5", cache_capacity=256),
                scale="small",
                seed=42,
            ),
            ScenarioSpec(
                name="macro-heterogeneous-fleet",
                description="Smoke-sized load-aware run: four Q12 tenants "
                "on a mixed fast/slow three-device R=2 fleet with "
                "profile-weighted placement, ewma-latency routing and the "
                "feedback rebalancer ticking.",
                tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8),
                scale="tiny",
                fleet=FleetSpec(
                    devices=3,
                    replication=2,
                    replica_policy="ewma-latency",
                    weighting="profile",
                    profiles=(
                        DeviceProfile(
                            device=1, switch_seconds=40.0, transfer_seconds=19.2
                        ),
                        DeviceProfile(
                            device=2, switch_seconds=5.0, transfer_seconds=4.8
                        ),
                    ),
                    rebalance=RebalancePolicy(interval_seconds=150.0),
                ),
                seed=42,
            ),
        ]
    return [
        ScenarioSpec(
            name="macro-sf-heavy",
            description="Engine-bound macro: four TPC-H Q5 tenants at SF-100 "
            "on one device, two repetitions each — the query engine "
            "(joins, predicates, subplans) dominates.",
            tenants=uniform_tenants(
                4, "tpch:q5", cache_capacity=30, repetitions=2
            ),
            scale="sf100",
            seed=42,
        ),
        ScenarioSpec(
            name="macro-fleet-churn",
            description="Core-loop macro: twelve Q12 tenants at SF-50 on a "
            "sixteen-device R=2 fleet through two joins, a graceful leave "
            "and a fail-stop loss — the event loop, placement diffs and "
            "report-phase attribution dominate.",
            tenants=uniform_tenants(
                12, "tpch:q12", cache_capacity=8, repetitions=6
            ),
            scale="sf50",
            fleet=FleetSpec(
                devices=16,
                replication=2,
                replica_policy="least-loaded",
                events=(
                    DeviceJoin(device=16, at_seconds=120.0),
                    DeviceJoin(device=17, at_seconds=240.0),
                    DeviceLeave(device=0, at_seconds=360.0),
                ),
                failures=(DeviceFailure(device=1, at_seconds=480.0),),
            ),
            seed=42,
        ),
        ScenarioSpec(
            name="macro-throttled-rebalance",
            description="Rebalance macro: a join lands mid-run on a "
            "six-device R=2 fleet under bursty Q12 load at SF-50, with "
            "migration I/O paced by a per-device token bucket so "
            "foreground and background I/O interleave.",
            tenants=uniform_tenants(
                8, "tpch:q12", cache_capacity=8, repetitions=3
            ),
            scale="sf50",
            arrival=BurstyArrival(
                burst_size=2, burst_gap_seconds=90.0, jitter_seconds=4.0
            ),
            fleet=FleetSpec(
                devices=6,
                replication=2,
                replica_policy="least-loaded",
                events=(DeviceJoin(device=6, at_seconds=150.0),),
                throttle=MigrationThrottle(objects_per_second=0.5),
            ),
            seed=42,
        ),
        ScenarioSpec(
            name="macro-million-keys",
            description="Key-population macro: eight Q6 tenants over a "
            "125k-segment lineitem put one million objects on a "
            "32-device R=2 fleet, with a join landing mid-run.  Devices "
            "run the shipping-firmware slack-FCFS scheduler (slack 4), so "
            "bulk placement, the per-device pending pools and scheduling "
            "decisions over them, and the request fan-out dominate.",
            tenants=uniform_tenants(8, "tpch:q6", cache_capacity=64),
            scale="mkeys",
            scheduler="slack-fcfs",
            scheduler_param=4.0,
            fleet=FleetSpec(
                devices=32,
                replication=2,
                events=(DeviceJoin(device=32, at_seconds=600.0),),
            ),
            seed=42,
        ),
        ScenarioSpec(
            name="macro-sf-1000",
            description="Engine-depth macro: one TPC-H Q5 tenant at "
            "SF-1000 (~177k subplans over ~952 objects, all cached) — "
            "segment filtering, hash-table builds and the n-ary join "
            "dominate.",
            tenants=uniform_tenants(1, "tpch:q5", cache_capacity=1024),
            scale="sf1000",
            seed=42,
        ),
        ScenarioSpec(
            name="macro-heterogeneous-fleet",
            description="Load-aware macro: eight Q12 tenants at SF-50 on a "
            "mixed fast/slow eight-device R=2 fleet — two stragglers at 2x "
            "transfer cost, two next-gen devices at half — with "
            "profile-weighted placement, ewma-latency routing and the "
            "feedback rebalancer ticking every 300 simulated seconds.  "
            "Weighted ring builds, per-request EWMA updates and "
            "reweight-epoch placement diffs dominate.",
            tenants=uniform_tenants(
                8, "tpch:q12", cache_capacity=8, repetitions=4
            ),
            scale="sf50",
            fleet=FleetSpec(
                devices=8,
                replication=2,
                replica_policy="ewma-latency",
                weighting="profile",
                profiles=(
                    DeviceProfile(
                        device=2, switch_seconds=40.0, transfer_seconds=19.2
                    ),
                    DeviceProfile(
                        device=3, switch_seconds=40.0, transfer_seconds=19.2
                    ),
                    DeviceProfile(
                        device=6, switch_seconds=5.0, transfer_seconds=4.8
                    ),
                    DeviceProfile(
                        device=7, switch_seconds=5.0, transfer_seconds=4.8
                    ),
                ),
                rebalance=RebalancePolicy(interval_seconds=300.0),
            ),
            seed=42,
        ),
    ]


def peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in kilobytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to KB
    so committed documents agree on the unit.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def run_one(
    spec: ScenarioSpec, trace: bool = False, profile_dir: Optional[Path] = None
) -> Dict[str, Any]:
    """Run one macro scenario and measure its phases.

    Events/second is computed over the run phase only: building catalogs
    and condensing the report are real costs (and reported), but the
    events/sec figure is meant to track the simulation core.  With
    ``trace`` the run also records a full trace (the entry reports the span
    count), which doubles as a measurement of tracing overhead at scale.
    With ``profile_dir`` the whole scenario runs under :mod:`cProfile` and
    the stats are dumped to ``<profile_dir>/<name>.pstats`` — wall times
    then include the profiler's overhead and are not comparable to
    unprofiled runs.

    ``peak_rss_kb_delta`` is the growth of the *process-wide* peak RSS over
    this scenario.  ``ru_maxrss`` is monotonic, so a scenario that fits
    inside a high-water mark set by an earlier one reports 0 — the figure
    is a lower bound on the scenario's footprint, meaningful mainly for the
    scenario that sets the suite's peak.
    """
    if trace and not spec.trace:
        spec = replace(spec, trace=True)
    runner = ScenarioRunner(check=False)
    rss_before = peak_rss_kb()
    profiler: Optional[cProfile.Profile] = None
    if profile_dir is not None:
        profiler = cProfile.Profile()
        profiler.enable()
    build_start = time.perf_counter()
    service = runner.build_service(spec)
    run_start = time.perf_counter()
    result = service.run()
    report_start = time.perf_counter()
    # The report assembly is a measured phase of its own because waiting
    # attribution over the device busy log is a known hot path; the private
    # helper is the exact code path ScenarioRunner.run() takes.
    report = runner._build_report(spec, service, result, [])
    end = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    events = service.env.dispatched
    run_seconds = report_start - run_start
    entry = {
        "description": spec.description,
        "build_seconds": round(run_start - build_start, 4),
        "run_seconds": round(run_seconds, 4),
        "report_seconds": round(end - report_start, 4),
        "wall_seconds": round(end - build_start, 4),
        "events_dispatched": events,
        "events_per_second": round(events / run_seconds, 1) if run_seconds else 0.0,
        "simulated_time": report.total_simulated_time,
        "queries_run": sum(
            client.queries_run for client in report.clients.values()
        ),
        "peak_rss_kb_delta": peak_rss_kb() - rss_before,
    }
    if trace:
        from repro.obs.export import build_trace

        entry["trace_spans"] = len(build_trace(service, scenario=spec.name)["spans"])
    if profiler is not None and profile_dir is not None:
        profile_dir.mkdir(parents=True, exist_ok=True)
        stats_path = profile_dir / f"{spec.name}.pstats"
        profiler.dump_stats(stats_path)
        entry["profile"] = str(stats_path)
    return entry


def smoke_determinism() -> Dict[str, Dict[str, Any]]:
    """Per-scenario deterministic outcomes of the smoke-sized suite.

    Embedded in the committed full document so CI's smoke job has pinned
    ``events_dispatched`` / ``simulated_time`` values to diff against —
    both are machine-independent, unlike every wall-clock figure.
    """
    outcomes: Dict[str, Dict[str, Any]] = {}
    for spec in macro_specs(smoke=True):
        entry = run_one(spec)
        outcomes[spec.name] = {
            "events_dispatched": entry["events_dispatched"],
            "simulated_time": entry["simulated_time"],
        }
    return outcomes


def run_benchmarks(
    smoke: bool = False,
    trace: bool = False,
    profile_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run the macro suite and assemble the ``BENCH_10.json`` document.

    Full-mode documents additionally embed the smoke suite's deterministic
    outcomes (``smoke_determinism``), so a committed full document is the
    single drift reference for both CI's smoke runs and full re-runs.
    """
    scenarios: Dict[str, Dict[str, Any]] = {}
    for spec in macro_specs(smoke):
        scenarios[spec.name] = run_one(spec, trace=trace, profile_dir=profile_dir)
    total_run = sum(entry["run_seconds"] for entry in scenarios.values())
    total_events = sum(entry["events_dispatched"] for entry in scenarios.values())
    document = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "BENCH_10",
        "mode": "smoke" if smoke else "full",
        "traced": bool(trace),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": scenarios,
        "totals": {
            "wall_seconds": round(
                sum(entry["wall_seconds"] for entry in scenarios.values()), 4
            ),
            "run_seconds": round(total_run, 4),
            "events_dispatched": total_events,
            "events_per_second": round(total_events / total_run, 1)
            if total_run
            else 0.0,
        },
        "peak_rss_kb": peak_rss_kb(),
    }
    if not smoke:
        document["smoke_determinism"] = smoke_determinism()
    return document


def check_determinism(
    document: Mapping[str, Any], committed: Mapping[str, Any]
) -> List[str]:
    """Diff a fresh run's deterministic outcomes against a committed doc.

    Compares ``events_dispatched`` and ``simulated_time`` per scenario —
    the two machine-independent figures the harness records — and returns
    one message per divergence (empty list = no drift).  Smoke documents
    are checked against the committed ``smoke_determinism`` section, full
    documents against the committed scenario entries themselves.
    """
    if document.get("mode") == "smoke":
        expected = committed.get("smoke_determinism", {})
        source = "smoke_determinism"
    else:
        expected = committed.get("scenarios", {})
        source = "scenarios"
    problems: List[str] = []
    scenarios = document.get("scenarios", {})
    for name in sorted(set(scenarios) | set(expected)):
        entry = scenarios.get(name)
        pinned = expected.get(name)
        if entry is None:
            problems.append(f"{name}: pinned in {source} but not run")
            continue
        if pinned is None:
            problems.append(f"{name}: ran but has no pinned entry in {source}")
            continue
        for key in ("events_dispatched", "simulated_time"):
            if entry.get(key) != pinned.get(key):
                problems.append(
                    f"{name}: {key} drifted from {pinned.get(key)!r} "
                    f"to {entry.get(key)!r}"
                )
    return problems


def attach_baseline(
    document: Dict[str, Any], baseline: Mapping[str, Any], label: str = "baseline"
) -> Dict[str, Any]:
    """Embed a prior run's numbers plus per-scenario speedup ratios.

    ``baseline`` is a document produced by the same harness (typically run
    against a pre-change checkout).  Two ratio families are reported:
    events/sec over the run phase (the core-loop metric) and build+run wall
    time (which additionally credits faster catalog/placement/router
    construction — the figure that matters for the scale-up scenarios).
    """
    speedups: Dict[str, float] = {}
    build_run_speedups: Dict[str, float] = {}
    base_scenarios = baseline.get("scenarios", {})
    for name, entry in document["scenarios"].items():
        base = base_scenarios.get(name)
        if not base:
            continue
        if base.get("events_per_second"):
            speedups[name] = round(
                entry["events_per_second"] / base["events_per_second"], 2
            )
        base_build_run = base.get("build_seconds", 0.0) + base.get("run_seconds", 0.0)
        build_run = entry["build_seconds"] + entry["run_seconds"]
        if base_build_run and build_run:
            build_run_speedups[name] = round(base_build_run / build_run, 2)
    document[label] = {
        "label": str(baseline.get("label", "pre-change")),
        "totals": baseline.get("totals", {}),
        "scenarios": {
            name: {
                key: base[key]
                for key in (
                    "wall_seconds",
                    "build_seconds",
                    "run_seconds",
                    "events_dispatched",
                    "events_per_second",
                )
                if key in base
            }
            for name, base in base_scenarios.items()
        },
        "speedup_events_per_second": speedups,
        "speedup_build_run_seconds": build_run_speedups,
    }
    return document


def write_document(document: Mapping[str, Any], path: Optional[Path] = None) -> Path:
    """Write the benchmark document as stable, diffable JSON."""
    path = path or (repo_root() / DEFAULT_OUTPUT_NAME)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
