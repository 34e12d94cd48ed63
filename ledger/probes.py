"""One microbenchmark per layer: public calls only, fixed work, median of 5.

A probe moves when, and only when, its layer changes: it touches one
package, does a fixed deterministic amount of work built from constant seeds
(never from ``--seed``, so a probe reads the same on every workload), and
reports work per second of host time.  They are the cheap first look; a
speed claim still has to show on a workload's end-to-end metrics.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Tuple

from repro.cluster.metrics import attribute_waiting_batch
from repro.core.cache import MaxProgressEviction, ObjectCache
from repro.core.mjoin import MJoinStateManager
from repro.csd.device import BusyInterval
from repro.csd.request import GetRequest
from repro.csd.scheduler import IOScheduler, RankBasedScheduler, SlackFCFSScheduler
from repro.fleet.placement import ConsistentHashPlacement
from repro.fleet.spec import device_name
from repro.service import StorageService
from repro.sim import Environment, Store
from repro.workloads import tpch
from repro.workloads.datagen import ScaleProfile, TableProfile

from workloads import WORKLOADS

SAMPLES = 5
_PROBE_SEED = 42


def _per_second(sample: Callable[[], Tuple[int, float]]) -> float:
    """Work per host second: ``sample`` returns (work done, seconds it took).

    The work is the same on every call; the seconds are the median of
    ``SAMPLES`` calls.
    """
    samples = [sample() for _ in range(SAMPLES)]
    work = samples[0][0]
    if any(other != work for other, _seconds in samples):
        raise RuntimeError("a probe's work count changed between samples")
    return work / statistics.median(seconds for _work, seconds in samples)


def _object_keys(count: int) -> List[str]:
    return [f"tenant{index % 8}/lineitem.{index}" for index in range(count)]


def sim_ns_per_event(items: int) -> float:
    """Kernel cost per dispatched event on a timeout + ``Store`` storm."""
    pairs = 4

    def producer(env: Environment, store: Store):
        for item in range(items // pairs):
            yield env.timeout(1.0)
            store.put(item)

    def consumer(env: Environment, store: Store):
        for _ in range(items // pairs):
            yield store.get()

    def sample() -> Tuple[int, float]:
        env = Environment()
        consumers = []
        for _ in range(pairs):
            store = Store(env)
            env.process(producer(env, store))
            consumers.append(env.process(consumer(env, store)))
        start = time.perf_counter()
        env.run(env.all_of(consumers))
        return env.dispatched, time.perf_counter() - start

    return 1e9 / _per_second(sample)


def fleet_place_keys_per_s(keys: int) -> float:
    """Bulk placement of a key population on 32 devices, fresh policy each time."""
    object_keys = _object_keys(keys)
    devices = [device_name(index) for index in range(32)]

    def sample() -> Tuple[int, float]:
        policy = ConsistentHashPlacement(2)
        start = time.perf_counter()
        policy.place(object_keys, devices)
        return keys, time.perf_counter() - start

    return _per_second(sample)


def fleet_diff_keys_per_s(keys: int) -> float:
    """Epoch diff of the key population for a 32 -> 33 device join."""
    object_keys = _object_keys(keys)
    old = [device_name(index) for index in range(32)]
    new = old + [device_name(32)]
    sorted_hashes = sorted(
        zip(ConsistentHashPlacement(2).bulk_key_hashes(object_keys), object_keys)
    )

    def sample() -> Tuple[int, float]:
        policy = ConsistentHashPlacement(2)
        start = time.perf_counter()
        policy.diff_keys(sorted_hashes, old, new, 2, 2)
        return keys, time.perf_counter() - start

    return _per_second(sample)


def csd_decisions_per_s(requests: int) -> float:
    """Scheduler pool: add every request, then drain it as the device loop does.

    Runs the shipping-firmware slack-FCFS(4) policy and the paper's
    rank-based policy over the same pool; a decision is one
    ``choose_next_group`` or one ``next_request``.
    """
    env = Environment()
    groups, queries = 16, 12
    pool = [
        (
            GetRequest(
                f"tenant{index % queries}/lineitem.{index}",
                f"tenant{index % queries}",
                f"q{index % queries}",
                env.event(),
            ),
            (index * 7) % groups,
        )
        for index in range(requests)
    ]

    def drain(scheduler: IOScheduler) -> int:
        made = 0
        current = None
        for request, group in pool:
            scheduler.add_request(request, group)
        while scheduler.has_pending():
            group = scheduler.choose_next_group(current)
            made += 1
            if group != current:
                scheduler.notify_switch(group)
                current = group
            for _ in range(scheduler.service_quota(group)):
                if scheduler.next_request(group) is None:
                    break
                made += 1
        return made

    def sample() -> Tuple[int, float]:
        start = time.perf_counter()
        decisions = drain(SlackFCFSScheduler(4)) + drain(RankBasedScheduler())
        return decisions, time.perf_counter() - start

    return _per_second(sample)


def engine_selection_rows_per_s(rows: int) -> float:
    """``Segment.filtered_rows`` with Q6's predicate over a columnar lineitem."""
    segments = 10
    tables = dict(tpch.SCALES["tiny"].tables)
    tables["lineitem"] = TableProfile(segments, rows // segments)
    catalog = tpch.build_catalog(ScaleProfile("probe", tables), _PROBE_SEED)
    lineitem = catalog.relation("lineitem").segments
    predicate = tpch.q6().filter_for("lineitem")
    passes = 20

    def sample() -> Tuple[int, float]:
        start = time.perf_counter()
        for _ in range(passes):
            for segment in lineitem:
                if segment.filtered_rows(predicate) is None:
                    raise RuntimeError("Q6's predicate left the columnar selection path")
        return passes * rows, time.perf_counter() - start

    return _per_second(sample)


def core_mjoin_subplans_per_s(scale: str) -> float:
    """MJoin state manager fed Q5's segments in request order, no simulator."""
    catalog = tpch.build_catalog(scale, _PROBE_SEED)
    query = tpch.q5()

    def sample() -> Tuple[int, float]:
        state = MJoinStateManager(
            query, catalog, ObjectCache(30, policy=MaxProgressEviction())
        )
        start = time.perf_counter()
        requests = state.initial_requests()
        cycles = 0
        while requests:
            for segment_id in requests:
                state.on_arrival(segment_id, catalog.resolve_segment_id(segment_id))
            requests = state.next_cycle_requests()
            cycles += 1
            if cycles > 10_000:
                raise RuntimeError("MJoin probe made no progress")
        elapsed = time.perf_counter() - start
        return state.tracker.num_executed + state.tracker.num_pruned, elapsed

    return _per_second(sample)


def cluster_attribution_queries_per_s(queries: int) -> float:
    """Waiting-time attribution of many queries against one busy-interval log."""
    waits_per_query = 200
    busy: List[BusyInterval] = []
    clock = 0.0
    for index in range(queries * 100):
        kind, length = ("switch", 10.0) if index % 8 == 0 else ("transfer", 9.6)
        busy.append(BusyInterval(clock, clock + length, kind, index % 16))
        clock += length + (0.4 if index % 5 == 0 else 0.0)
    stride = clock / waits_per_query
    blocked: List[List[Tuple[float, float]]] = [
        [
            (wait * stride + query * 0.01, wait * stride + query * 0.01 + stride * 0.6)
            for wait in range(waits_per_query)
        ]
        for query in range(queries)
    ]
    processing = [1.0] * queries

    def sample() -> Tuple[int, float]:
        start = time.perf_counter()
        attribute_waiting_batch(blocked, busy, processing)
        return queries, time.perf_counter() - start

    return _per_second(sample)


def obs_trace_overhead_ratio(pairs: int) -> float:
    """The program's own tracing: ``fleet-churn`` (test size) traced / untraced.

    Guards the telemetry roadmap item; it moves no end-to-end metric because
    the timed repetitions run with tracing off.
    """
    profile, spec = WORKLOADS["fleet-churn"](_PROBE_SEED, True)
    catalog = tpch.build_catalog(profile, _PROBE_SEED)

    def run_seconds(trace: bool) -> float:
        service = StorageService(spec, catalog=catalog, trace=trace)
        start = time.perf_counter()
        service.run()
        return time.perf_counter() - start

    # The ratio of each adjacent pair, so that machine drift between samples
    # cancels instead of landing in the ratio.
    return statistics.median(run_seconds(True) / run_seconds(False) for _ in range(pairs))


def run_probes(quick: bool) -> Dict[str, float]:
    """Every probe, sized for ~0.1-0.2 s per sample (``quick``: ~10x smaller)."""
    cut = 10 if quick else 1
    return {
        "sim.probe_ns_per_event": sim_ns_per_event(80_000 // cut),
        "fleet.probe_place_keys_per_s": fleet_place_keys_per_s(60_000 // cut),
        "fleet.probe_diff_keys_per_s": fleet_diff_keys_per_s(60_000 // cut),
        "csd.probe_decisions_per_s": csd_decisions_per_s(30_000 // cut),
        "engine.probe_selection_rows_per_s": engine_selection_rows_per_s(20_000 // cut),
        "core.probe_mjoin_subplans_per_s": core_mjoin_subplans_per_s(
            "sf50" if quick else "sf100"
        ),
        "cluster.probe_attribution_queries_per_s": cluster_attribution_queries_per_s(
            200 // cut
        ),
        "obs.probe_trace_overhead_ratio": obs_trace_overhead_ratio(3 if quick else 9),
    }
