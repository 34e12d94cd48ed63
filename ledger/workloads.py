"""The four ledger workloads.

Each one exists to put a different ``src/repro`` package on the critical
path, so that a change to one layer has a workload that exercises it and a
workload that bypasses it (measured shares are in ``README.md``):

* ``skipper-shared-csd`` — the paper's central setting; ``core`` (MJoin,
  subplan tracker, cache, n-ary join) does almost all the host work.
* ``vanilla-pull`` — the paper's pull-based baseline on the same device;
  ``engine`` dominates, ``core`` is bypassed, and the device sees one
  blocking GET at a time instead of Skipper's up-front batch.
* ``keys-fanout`` — a routine-size ``macro-million-keys``: tens of thousands
  of single-row objects on a 32-device fleet; ``sim``, ``csd``, ``core`` and
  ``fleet`` share the time, and it is the only workload with a non-trivial
  set-up (bulk placement) and footprint.
* ``fleet-churn`` — writes beside reads: membership churn, repair and a
  replication upgrade migrate more objects than the tenants read, under a
  migration throttle; ``csd``, ``fleet`` and ``sim`` lead and report assembly
  has its largest share.

All four are closed loops: a tenant submits its next query when the previous
one finishes.  Sizes are cut from the issue's 4-5 s per repetition to about
0.6 s: the sandbox's speed drifts within seconds, and many short repetitions,
each bracketed by the calibration loop, repeat far better than five long
ones.  ``quick`` shrinks them a further ~5-10x for the ledger's own tests.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.fleet.spec import (
    DeviceFailure,
    DeviceJoin,
    DeviceLeave,
    FleetSpec,
    MigrationThrottle,
    SetReplication,
)
from repro.scenarios.arrivals import BurstyArrival
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.workloads import tpch
from repro.workloads.datagen import ScaleProfile, TableProfile


#: ``build(seed, quick)`` -> (data profile for the generator, scenario).
Builder = Callable[[int, bool], Tuple[ScaleProfile, ScenarioSpec]]


def _keys_profile(lineitem_segments: int) -> ScaleProfile:
    """The ``mkeys`` profile with ``lineitem`` cut to single-row segments.

    ``orders`` is widened from 32 rows to 512: ship dates derive from order
    dates, and with 32 of them Q6's date filter passes anywhere from 7 % to
    20 % of the objects depending on the seed, which moved ``wall_s`` by a
    quarter from seed to seed.
    """
    tables = dict(tpch.SCALES["mkeys"].tables)
    tables["orders"] = TableProfile(1, 512)
    tables["lineitem"] = TableProfile(lineitem_segments, 1)
    return ScaleProfile("mkeys", tables)


def _skipper_shared_csd(seed: int, quick: bool) -> Tuple[ScaleProfile, ScenarioSpec]:
    profile = tpch.SCALES["sf50" if quick else "sf100"]
    return profile, ScenarioSpec(
        name="skipper-shared-csd",
        description="Skipper tenants running TPC-H Q5 with a cache smaller "
        "than the working set, on one shared rank-based CSD.",
        tenants=uniform_tenants(2 if quick else 4, "tpch:q5", cache_capacity=30),
        scale=profile.name,
        seed=seed,
    )


def _vanilla_pull(seed: int, quick: bool) -> Tuple[ScaleProfile, ScenarioSpec]:
    profile = tpch.SCALES["sf50" if quick else "sf100"]
    return profile, ScenarioSpec(
        name="vanilla-pull",
        description="Pull-based (vanilla) tenants running TPC-H Q5 on the "
        "same single CSD, no cache.",
        tenants=uniform_tenants(
            4 if quick else 8, "tpch:q5", mode="vanilla", repetitions=1 if quick else 3
        ),
        scale=profile.name,
        seed=seed,
    )


def _keys_fanout(seed: int, quick: bool) -> Tuple[ScaleProfile, ScenarioSpec]:
    profile = _keys_profile(300 if quick else 1500)
    return profile, ScenarioSpec(
        name="keys-fanout",
        description="Q6 tenants over a single-row-segment lineitem on a "
        "32-device R=2 fleet of slack-FCFS devices, one join mid-run.",
        tenants=uniform_tenants(8, "tpch:q6", cache_capacity=64),
        scale=profile.name,
        scheduler="slack-fcfs",
        scheduler_param=4.0,
        fleet=FleetSpec(
            devices=32,
            replication=2,
            events=(DeviceJoin(device=32, at_seconds=30.0 if quick else 90.0),),
        ),
        seed=seed,
    )


def _fleet_churn(seed: int, quick: bool) -> Tuple[ScaleProfile, ScenarioSpec]:
    profile = _keys_profile(100 if quick else 500)
    return profile, ScenarioSpec(
        name="fleet-churn",
        description="Bursty Q6 tenants on a 16-device R=2 least-loaded fleet "
        "through two joins, a graceful leave, a fail-stop loss with repair "
        "and a replication upgrade, migration I/O throttled.",
        tenants=uniform_tenants(12, "tpch:q6", cache_capacity=64),
        scale=profile.name,
        arrival=BurstyArrival(burst_size=3, burst_gap_seconds=90.0, jitter_seconds=4.0),
        fleet=FleetSpec(
            devices=16,
            replication=2,
            replica_policy="least-loaded",
            events=(
                DeviceJoin(device=16, at_seconds=120.0),
                DeviceJoin(device=17, at_seconds=240.0),
                DeviceLeave(device=0, at_seconds=360.0),
                SetReplication(replication=3, at_seconds=600.0),
            ),
            failures=(DeviceFailure(device=1, at_seconds=480.0),),
            throttle=MigrationThrottle(objects_per_second=2.0),
        ),
        seed=seed,
    )


#: Name -> builder; why each workload exists is recorded in ``BENCHMARK.json``.
WORKLOADS: Dict[str, Builder] = {
    "skipper-shared-csd": _skipper_shared_csd,
    "vanilla-pull": _vanilla_pull,
    "keys-fanout": _keys_fanout,
    "fleet-churn": _fleet_churn,
}
