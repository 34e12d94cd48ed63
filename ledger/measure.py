"""One repetition of a workload: timing stamps, answer checks, counts.

Everything here looks at the program from outside: it calls public
functions of ``repro`` and reads public result/stat objects.  The one
private call is ``ScenarioRunner._build_report`` — report assembly has no
public entry point of its own (``repro.bench.run_one`` makes the same call).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.cluster import ClusterResult
from repro.engine.executor import InMemoryExecutor, canonical_rows
from repro.exceptions import InvariantViolation
from repro.scenarios.invariants import check_invariants
from repro.scenarios.report import ScenarioReport
from repro.scenarios.runner import ScenarioRunner, resolve_query
from repro.scenarios.spec import ScenarioSpec
from repro.service import STATUS_FINISHED, StorageService
from repro.workloads import tpch

import layers
import probes
from calibration import KERNEL_NOMINAL_S, calibration_kernel
from workloads import WORKLOADS, Builder

Rows = List[Dict[str, object]]

_RUNNER = ScenarioRunner(check=False)

#: Fewest timed repetitions of a run, however short ``--seconds`` is.
MIN_REPETITIONS = 5
#: Untraced repetitions of a ``--trace 1`` run (the overhead ratio's base).
TRACE_BASE_REPETITIONS = 2

@dataclass
class Repetition:
    """Everything one repetition produced, plus its five clock reads."""

    spec: ScenarioSpec
    service: StorageService
    result: ClusterResult
    report: ScenarioReport
    report_json: str
    #: perf_counter at: catalog start, build start, run start, report start, end.
    stamps: Tuple[float, float, float, float, float]
    #: Machine-speed factor over this repetition: mean of the calibration
    #: kernel just before and just after, over its nominal time (1.0 = nominal,
    #: 1.3 = the host ran 30 % slow).  Divide a duration by it to calibrate.
    speed: float

    @property
    def setup_s(self) -> float:
        """Catalog generation plus ``StorageService`` construction (raw seconds)."""
        return self.stamps[2] - self.stamps[0]

    @property
    def run_s(self) -> float:
        """The run phase alone, ``service.run()`` (raw seconds)."""
        return self.stamps[3] - self.stamps[2]

    @property
    def wall_s(self) -> float:
        """Run phase plus report assembly plus ``report.to_json()`` (raw seconds)."""
        return self.stamps[4] - self.stamps[2]

    @property
    def report_sha256(self) -> str:
        return hashlib.sha256(self.report_json.encode()).hexdigest()

    def spans(self) -> List[Dict[str, Any]]:
        """The benchmark's own spans for this repetition (name, start, end, parent)."""
        catalog, build, run, report, end = self.stamps
        root = "repetition"
        return [
            {"name": root, "start": catalog, "end": end, "parent": None},
            {"name": "workloads.catalog_s", "start": catalog, "end": build, "parent": root},
            {"name": "service.build_s", "start": build, "end": run, "parent": root},
            {"name": "service.run_s", "start": run, "end": report, "parent": root},
            {"name": "scenarios.report_s", "start": report, "end": end, "parent": root},
        ]


def run_repetition(
    build: Builder,
    seed: int,
    quick: bool,
    profiler: Optional[cProfile.Profile] = None,
) -> Repetition:
    """Generate the inputs from ``seed``, build the service, run it, report.

    The program receives only the generated catalog.  ``ScenarioSpec`` rejects
    a zero seed, so the scenario is seeded with ``seed + 1``; the data come
    from ``seed`` itself.  With ``profiler`` the whole repetition — set-up, run
    and report — executes under cProfile, so set-up work has a layer too.
    """
    profile, spec = build(seed + 1, quick)
    gc.collect()
    kernel_before = calibration_kernel()
    if profiler is not None:
        profiler.enable()
    catalog_start = time.perf_counter()
    catalog = tpch.build_catalog(profile, seed)
    build_start = time.perf_counter()
    service = StorageService(spec, catalog=catalog)
    run_start = time.perf_counter()
    result = service.run()
    report_start = time.perf_counter()
    report = _RUNNER._build_report(spec, service, result, [])
    report_json = report.to_json()
    end = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    kernel_after = calibration_kernel()
    return Repetition(
        spec=spec,
        service=service,
        result=result,
        report=report,
        report_json=report_json,
        stamps=(catalog_start, build_start, run_start, report_start, end),
        speed=(kernel_before + kernel_after) / 2 / KERNEL_NOMINAL_S,
    )


# --------------------------------------------------------------------------- #
# Answer checks
# --------------------------------------------------------------------------- #
def reference_answers(repetition: Repetition) -> Dict[str, Rows]:
    """Pull-based reference rows per query, computed on the same catalog.

    ``InMemoryExecutor`` is the repo's ground truth (the paper's "all data
    local" configuration): the vanilla operator tree with no storage layer.
    """
    executor = InMemoryExecutor(repetition.service.catalog)
    answers: Dict[str, Rows] = {}
    for tenant in repetition.spec.tenants:
        for reference in tenant.queries:
            query = resolve_query(reference)
            if query.name not in answers:
                answers[query.name] = canonical_rows(executor.execute(query).rows)
    return answers


def rows_match(actual: Rows, expected: Rows) -> bool:
    """Canonical row lists agree; floats to 1e-9 relative.

    Skipper adds up aggregates in arrival order, the reference in scan order,
    so float sums differ in their last digits and exact equality would
    report every correct answer as wrong.
    """
    if len(actual) != len(expected):
        return False
    for got, want in zip(actual, expected):
        if got.keys() != want.keys():
            return False
        for key, value in want.items():
            other = got[key]
            if isinstance(value, float) and isinstance(other, (int, float)):
                if not math.isclose(other, value, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif other != value:
                return False
    return True


@dataclass
class Check:
    """Outcome of checking one repetition's answers and invariants."""

    attempted: int
    problems: List[str]
    #: Host seconds ``check_invariants`` took (the ``scenarios.invariants_s`` span).
    invariants_s: float


def check_repetition(repetition: Repetition, reference: Mapping[str, Rows]) -> Check:
    """Count the queries attempted and describe every failure.

    A failure is a query that did not finish, a query whose rows differ from
    the reference, an invariant violation, or a lost object.
    """
    handles = [handle for session in repetition.service.sessions for handle in session.handles]
    problems: List[str] = []
    for handle in handles:
        if handle.status != STATUS_FINISHED:
            problems.append(f"{handle.tenant_id}: {handle.query.name} is {handle.status}")
        elif not rows_match(
            canonical_rows(handle.result().rows), reference[handle.query.name]
        ):
            problems.append(
                f"{handle.tenant_id}: {handle.query.name} rows differ from the reference"
            )
    invariants_start = time.perf_counter()
    try:
        check_invariants(repetition.service, repetition.result)
    except InvariantViolation as violation:
        problems.append(f"invariant violated: {violation}")
    invariants_s = time.perf_counter() - invariants_start
    fleet = repetition.report.fleet
    if fleet is not None and fleet["lost_objects"]:
        problems.append(f"{fleet['lost_objects']} objects lost")
    return Check(len(handles), problems, invariants_s)


# --------------------------------------------------------------------------- #
# Deterministic results of the modelled design and per-layer counts
# --------------------------------------------------------------------------- #
def simulated_metrics(repetition: Repetition) -> Dict[str, float]:
    """The modelled design's results (simulated time, not host time)."""
    result = repetition.result
    return {
        "sim_makespan_s": result.total_simulated_time,
        "sim_query_mean_s": result.average_execution_time(),
        "sim_group_switches": result.device_switches,
    }


def layer_counts(repetition: Repetition) -> Dict[str, float]:
    """Work counts per layer, read from public result and stat objects."""
    service, result, report = repetition.service, repetition.result, repetition.report
    stats = service.device_stats()
    query_results = [
        query_result
        for results in result.results_by_client.values()
        for query_result in results
    ]
    catalog = service.catalog
    objects_needed = sum(
        sum(catalog.num_segments(table) for table in handle.query.tables)
        for session in service.sessions
        for handle in session.handles
    )
    requests_issued = result.total_get_requests()
    fleet = service.fleet
    return {
        "sim.events_dispatched": service.env.dispatched,
        "csd.objects_served": stats.objects_served,
        "csd.requests_received": stats.requests_received,
        "csd.group_switches": stats.group_switches,
        "csd.migration_jobs": stats.migration_jobs,
        "csd.max_waiting_seen": report.max_waiting_seen,
        "fleet.requests_routed": fleet.stats.requests_routed if fleet else 0,
        "fleet.failed_over": fleet.stats.failed_over if fleet else 0,
        "fleet.handed_off": fleet.stats.handed_off if fleet else 0,
        "fleet.keys_moved": report.rebalance["keys_moved_total"] if report.rebalance else 0,
        "fleet.epochs": service.fleet_epoch(),
        "core.subplans_executed": _total(query_results, "subplans_executed"),
        "core.subplans_pruned": _total(query_results, "subplans_pruned"),
        "core.requests_issued": requests_issued,
        "core.reissue_ratio": requests_issued / objects_needed,
        "core.cache_evictions": _total(query_results, "num_evictions"),
        "core.cache_hit_rate": report.cache["hit_rate"],
        "service.queries_finished": sum(
            1
            for session in service.sessions
            for handle in session.handles
            if handle.status == STATUS_FINISHED
        ),
    }


def _total(query_results: Sequence[Any], attribute: str) -> int:
    """Sum of a Skipper-only counter (vanilla results do not carry it)."""
    return sum(getattr(query_result, attribute, 0) for query_result in query_results)


# --------------------------------------------------------------------------- #
# Checked repetitions of one workload, and the two measurements built on them
# --------------------------------------------------------------------------- #
@dataclass
class Sample:
    """What is kept of one repetition once its service has been dropped.

    Durations are calibrated: raw seconds divided by the repetition's
    machine-speed factor (see ``calibration.py``).
    """

    setup_s: float
    run_s: float
    wall_s: float
    invariants_s: float
    #: The speed factor itself and the uncalibrated ``wall_s``, for the record.
    speed: float
    raw_wall_s: float
    spans: List[Dict[str, Any]]
    report_sha256: str
    attempted: int
    problems: List[str]
    tenants: int
    objects_served: int
    simulated: Dict[str, float]
    counts: Dict[str, float]


class Bench:
    """Runs checked repetitions of one workload and accumulates the verdict."""

    def __init__(self, name: str, seed: int, quick: bool, corrupt_reference: bool) -> None:
        self.build = WORKLOADS[name]
        self.seed = seed
        self.quick = quick
        self.corrupt_reference = corrupt_reference
        self.reference: Optional[Mapping[str, List[Dict[str, object]]]] = None
        self.samples: List[Sample] = []

    def repetition(self, profiler: Optional[cProfile.Profile] = None) -> Sample:
        """One repetition, checked; only light values outlive the call, so at
        most one service is alive at a time and ``peak_rss_mb`` is one run's."""
        repetition = run_repetition(self.build, self.seed, self.quick, profiler)
        if self.reference is None:
            reference = reference_answers(repetition)
            if self.corrupt_reference:
                for rows in reference.values():
                    rows.append({"corrupted": True})
            self.reference = reference
        check = check_repetition(repetition, self.reference)
        speed = repetition.speed
        sample = Sample(
            setup_s=repetition.setup_s / speed,
            run_s=repetition.run_s / speed,
            wall_s=repetition.wall_s / speed,
            invariants_s=check.invariants_s / speed,
            speed=speed,
            raw_wall_s=repetition.wall_s,
            spans=[{**span, "speed": speed} for span in repetition.spans()],
            report_sha256=repetition.report_sha256,
            attempted=check.attempted,
            problems=check.problems,
            tenants=len(repetition.spec.tenants),
            objects_served=repetition.result.device_objects_served,
            simulated=simulated_metrics(repetition),
            counts=layer_counts(repetition),
        )
        self.samples.append(sample)
        return sample

    def verdict(self) -> Dict[str, Any]:
        """``attempted`` / ``failed`` / ``problems`` over every repetition so far,
        and ``pins``: the deterministic results ``expected.json`` holds."""
        first = self.samples[0]
        problems = [problem for sample in self.samples for problem in sample.problems]
        failed = len(problems)
        if any(sample.report_sha256 != first.report_sha256 for sample in self.samples):
            problems.append("the report differs between repetitions of one run")
        return {
            "attempted": sum(sample.attempted for sample in self.samples),
            "failed": failed,
            "problems": problems,
            "pins": {**first.simulated, **first.counts, "report_sha256": first.report_sha256},
        }


def _stat(values: Sequence[float]) -> Dict[str, float]:
    """Median of a run's samples with what ``compare.py`` needs to judge it."""
    first_quartile, _median, third_quartile = statistics.quantiles(values, n=4)
    return {
        "value": statistics.median(values),
        "q1": first_quartile,
        "q3": third_quartile,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def measure_end_to_end(bench: Bench, seconds: float) -> Dict[str, Dict[str, float]]:
    """Warm up once, then time repetitions with nothing installed."""
    bench.repetition()
    timed: List[Sample] = []
    deadline = time.perf_counter() + seconds
    while len(timed) < MIN_REPETITIONS or time.perf_counter() < deadline:
        timed.append(bench.repetition())
        if len(timed) == MIN_REPETITIONS:
            # Read at a fixed point, so the figure does not depend on how
            # many repetitions the machine fitted into ``seconds``.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run_s = statistics.median(sample.run_s for sample in timed)
    last = timed[-1]
    if sys.platform == "darwin":
        peak_kb /= 1024
    metrics = {
        "wall_s": {
            **_stat([sample.wall_s for sample in timed]),
            "raw": statistics.median(sample.raw_wall_s for sample in timed),
            "speed": statistics.median(sample.speed for sample in timed),
        },
        "objects_per_s": {"value": last.objects_served / run_s},
        "setup_s": _stat([sample.setup_s for sample in timed]),
        "peak_rss_mb": {"value": peak_kb / 1024},
    }
    metrics.update({name: {"value": value} for name, value in last.simulated.items()})
    return metrics


def measure_layers(bench: Bench) -> Dict[str, Dict[str, float]]:
    """Warm up, time the untraced base, then profile one repetition and probe."""
    bench.repetition()
    base = [bench.repetition() for _ in range(TRACE_BASE_REPETITIONS)]
    profiler = cProfile.Profile()
    traced = bench.repetition(profiler)
    values = layers.layer_metrics(profiler)
    values["trace.overhead_ratio"] = traced.wall_s / statistics.median(
        sample.wall_s for sample in base
    )
    last = base[-1]
    for span in last.spans:
        if span["parent"] is not None:
            values[span["name"]] = (span["end"] - span["start"]) / last.speed
    values["scenarios.invariants_s"] = last.invariants_s
    values.update(last.counts)
    values["sim.events_per_s"] = last.counts["sim.events_dispatched"] / statistics.median(
        sample.run_s for sample in base
    )
    values.update(probes.run_probes(bench.quick))
    return {name: {"value": value} for name, value in values.items()}
