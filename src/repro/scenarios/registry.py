"""The named-scenario registry.

Each entry is a zero-argument builder returning a fresh
:class:`~repro.scenarios.spec.ScenarioSpec`.  Scenarios cover workload
shapes well beyond the paper's figures — bursty arrivals, skewed tenants,
degraded devices, mixed fleets — and every one of them is pinned by a
golden-metrics file under ``tests/golden/``.

To add a scenario: decorate a builder with :func:`register`, run
``python -m repro.scenarios --regen-golden <name>`` and commit the new
golden file together with the builder.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.exceptions import ScenarioError
from repro.fleet.spec import (
    DeviceFailure,
    DeviceJoin,
    DeviceLeave,
    DeviceProfile,
    FleetSpec,
    MigrationThrottle,
    RebalancePolicy,
    SetReplication,
)
from repro.scenarios.arrivals import BurstyArrival, PoissonArrival, UniformArrival
from repro.scenarios.spec import ScenarioSpec, TenantSpec, uniform_tenants
from repro.service.admission import AdmissionConfig

ScenarioBuilder = Callable[[], ScenarioSpec]

_REGISTRY: Dict[str, ScenarioBuilder] = {}


def register(builder: ScenarioBuilder) -> ScenarioBuilder:
    """Register a scenario builder under the name of the spec it returns."""
    spec = builder()
    if spec.name in _REGISTRY:
        raise ScenarioError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = builder
    return builder


def scenario_names() -> List[str]:
    """Sorted names of all registered scenarios."""
    return sorted(_REGISTRY)


def get_scenario(name: str) -> ScenarioSpec:
    """Build a fresh spec for the scenario registered under ``name``."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None
    return builder()


def all_scenarios() -> List[ScenarioSpec]:
    """Fresh specs for every registered scenario, in name order."""
    return [get_scenario(name) for name in scenario_names()]


# --------------------------------------------------------------------------- #
# Built-in scenarios
# --------------------------------------------------------------------------- #
@register
def uniform_fleet() -> ScenarioSpec:
    return ScenarioSpec(
        name="uniform",
        description="Four identical Skipper tenants starting together — the "
        "shape of the paper's headline figures.",
        tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8),
        seed=42,
    )


@register
def bursty_arrivals() -> ScenarioSpec:
    return ScenarioSpec(
        name="bursty",
        description="Six Skipper tenants arriving in three bursts of two with "
        "seeded jitter; stresses admission-order effects in the scheduler.",
        tenants=uniform_tenants(6, "tpch:q12", cache_capacity=8),
        arrival=BurstyArrival(burst_size=2, burst_gap_seconds=120.0, jitter_seconds=5.0),
        seed=42,
    )


@register
def hot_tenant_skew() -> ScenarioSpec:
    hot = TenantSpec(
        tenant_id="hot", queries=("tpch:q12",), repetitions=5, cache_capacity=8
    )
    cold = tuple(
        TenantSpec(tenant_id=f"cold{index}", queries=("tpch:q12",), cache_capacity=8)
        for index in range(3)
    )
    return ScenarioSpec(
        name="hot-tenant-skew",
        description="One tenant issues 5x the load of the other three while "
        "sharing a disk group with one of them; fairness under skew.",
        tenants=(hot,) + cold,
        layout="skewed",
        layout_param=(2, 1, 1),
        seed=42,
    )


@register
def straggler_device() -> ScenarioSpec:
    return ScenarioSpec(
        name="straggler-device",
        description="A degraded CSD: 4x the group-switch latency and 2x the "
        "per-object transfer time of the paper's device.",
        tenants=uniform_tenants(3, "tpch:q12", cache_capacity=8),
        switch_seconds=40.0,
        transfer_seconds=19.2,
        seed=42,
    )


@register
def cache_starved() -> ScenarioSpec:
    return ScenarioSpec(
        name="cache-starved",
        description="Two Skipper tenants running the six-table Q5 with a "
        "cache of exactly one object per joined relation; exercises eviction "
        "and re-issue cycles.",
        tenants=uniform_tenants(2, "tpch:q5", cache_capacity=6),
        seed=42,
    )


@register
def mixed_fleet() -> ScenarioSpec:
    skippers = uniform_tenants(2, "tpch:q12", cache_capacity=8, prefix="skipper")
    vanillas = uniform_tenants(2, "tpch:q12", mode="vanilla", prefix="vanilla")
    return ScenarioSpec(
        name="mixed-fleet",
        description="Two Skipper and two vanilla tenants share the CSD; the "
        "query-aware scheduler must cope with untagged pull-based traffic.",
        tenants=skippers + vanillas,
        seed=42,
    )


@register
def large_fanout() -> ScenarioSpec:
    return ScenarioSpec(
        name="large-fanout",
        description="Eight Skipper tenants striped round-robin over four disk "
        "groups — every group holds every tenant's data.",
        tenants=uniform_tenants(8, "tpch:q12", cache_capacity=8),
        layout="round-robin",
        layout_param=(4,),
        seed=42,
    )


@register
def single_tenant_saturation() -> ScenarioSpec:
    return ScenarioSpec(
        name="single-tenant-saturation",
        description="One tenant saturates the device with three different "
        "TPC-H queries repeated three times each.",
        tenants=(
            TenantSpec(
                tenant_id="solo",
                queries=("tpch:q1", "tpch:q6", "tpch:q12"),
                repetitions=3,
                cache_capacity=8,
            ),
        ),
        seed=42,
    )


@register
def fairness_adversarial() -> ScenarioSpec:
    return ScenarioSpec(
        name="fairness-adversarial",
        description="The paper's fairness-adversarial setup: five staggered "
        "tenants on a 2/2/1 skewed layout where efficiency-first policies "
        "starve the lone tenant.",
        tenants=uniform_tenants(5, "tpch:q12", repetitions=3, cache_capacity=8),
        arrival=UniformArrival(gap_seconds=10.0),
        layout="skewed",
        layout_param=(2, 2, 1),
        scheduler="rank-based",
        scheduler_param=1.0,
        seed=42,
    )


@register
def dataset_scaleout() -> ScenarioSpec:
    return ScenarioSpec(
        name="dataset-scaleout",
        description="Three Skipper tenants on the larger 'small' dataset "
        "(3x the objects of 'tiny') with a proportionally larger cache.",
        tenants=uniform_tenants(3, "tpch:q12", cache_capacity=16),
        scale="small",
        seed=42,
    )


@register
def fleet_uniform() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-uniform",
        description="Four Skipper tenants sharded over a four-device fleet "
        "with consistent hashing and 2-way replication; the baseline "
        "scale-out shape.",
        tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8),
        fleet=FleetSpec(devices=4, replication=2),
        seed=42,
    )


@register
def fleet_hot_shard() -> ScenarioSpec:
    hot = TenantSpec(
        tenant_id="hot", queries=("tpch:q12",), repetitions=4, cache_capacity=8
    )
    cold = tuple(
        TenantSpec(tenant_id=f"cold{index}", queries=("tpch:q12",), cache_capacity=8)
        for index in range(3)
    )
    return ScenarioSpec(
        name="fleet-hot-shard",
        description="One tenant issues 4x the load of the other three on a "
        "three-device fleet; primary-first routing concentrates the hot "
        "tenant's traffic, surfacing a non-zero shard-imbalance coefficient.",
        tenants=(hot,) + cold,
        fleet=FleetSpec(
            devices=3,
            replication=2,
            replica_policy="primary-first",
        ),
        seed=42,
    )


@register
def fleet_device_loss() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-device-loss",
        description="A three-device fleet with 2-way replication loses one "
        "device mid-run; its queued requests fail over to surviving "
        "replicas with zero lost objects.",
        tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8),
        fleet=FleetSpec(
            devices=3,
            replication=2,
            replica_policy="least-loaded",
            failures=(DeviceFailure(device=0, at_seconds=40.0),),
            # Pins the pure failover path: no read-repair, the fleet stays
            # under-replicated (fleet-repair-after-loss pins the repair).
            repair=False,
        ),
        seed=42,
    )


@register
def fleet_scaleout() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-scaleout",
        description="Six tenants at the paper's SF-50 scale sharded over "
        "four devices with 2-way replication — the heavy end of the "
        "regression net (also what makes --jobs visibly faster).",
        tenants=uniform_tenants(6, "tpch:q12", repetitions=2, cache_capacity=16),
        scale="sf50",
        fleet=FleetSpec(devices=4, replication=2),
        seed=42,
    )


@register
def fleet_replicated_read() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-replicated-read",
        description="Six SF-50 tenants on a six-device fleet with 3-way "
        "replication and least-loaded routing: reads spread across all "
        "replicas of every shard.",
        tenants=uniform_tenants(6, "tpch:q12", repetitions=2, cache_capacity=16),
        scale="sf50",
        fleet=FleetSpec(devices=6, replication=3, replica_policy="least-loaded"),
        seed=42,
    )


@register
def fleet_loss_at_scale() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-loss-at-scale",
        description="Device loss under real load: six SF-50 tenants on four "
        "devices (R=2), one device dies at t=300s and dozens of queued "
        "requests fail over with zero lost objects.",
        tenants=uniform_tenants(6, "tpch:q12", repetitions=2, cache_capacity=16),
        scale="sf50",
        fleet=FleetSpec(
            devices=4,
            replication=2,
            replica_policy="least-loaded",
            failures=(DeviceFailure(device=1, at_seconds=300.0),),
            # Failover-only baseline at scale; repair is pinned separately.
            repair=False,
        ),
        seed=42,
    )


@register
def fleet_elastic_join() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-elastic-join",
        description="A fourth device joins a loaded three-device fleet "
        "mid-run: the placement epoch advances, only the keys whose replica "
        "set changed migrate onto the joiner, and least-loaded routing "
        "starts exploiting the extra capacity immediately (the tenants' "
        "second round of queries lands on the enlarged fleet).",
        tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8, repetitions=2),
        fleet=FleetSpec(
            devices=3,
            replication=2,
            replica_policy="least-loaded",
            events=(DeviceJoin(device=3, at_seconds=60.0),),
        ),
        seed=42,
    )


@register
def fleet_elastic_drain() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-elastic-drain",
        description="A device leaves a four-device fleet gracefully: its "
        "queued requests are handed off to the new owners of its keys, its "
        "replicas are re-homed with migration I/O charged to source and "
        "destination, and zero objects are lost.  Uses the placement-aware "
        "tenant-colocated layout: migrated keys join their tenant's "
        "existing disk group on the destination device.",
        tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8),
        layout="tenant-colocated",
        fleet=FleetSpec(
            devices=4,
            replication=2,
            replica_policy="least-loaded",
            events=(DeviceLeave(device=0, at_seconds=50.0),),
        ),
        seed=42,
    )


@register
def fleet_heterogeneous() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-heterogeneous",
        description="A mixed fast/slow fleet: one device has 4x the "
        "group-switch latency and 2x the transfer time, one is a fast "
        "next-generation device; least-loaded routing steers traffic "
        "around the straggler.",
        tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8),
        fleet=FleetSpec(
            devices=3,
            replication=2,
            replica_policy="least-loaded",
            profiles=(
                DeviceProfile(device=1, switch_seconds=40.0, transfer_seconds=19.2),
                DeviceProfile(device=2, switch_seconds=5.0, transfer_seconds=4.8),
            ),
        ),
        seed=42,
    )


@register
def fleet_rebalance_under_load() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-rebalance-under-load",
        description="Bursty arrivals during a join: eight tenants arrive in "
        "bursts of two while a fourth device joins mid-run.  The golden pins "
        "zero lost objects, a minimal migration (<= 2K/N keys) and a "
        "post-join imbalance coefficient strictly below the pre-join epoch's.",
        tenants=uniform_tenants(8, "tpch:q12", cache_capacity=8),
        arrival=BurstyArrival(burst_size=2, burst_gap_seconds=90.0, jitter_seconds=4.0),
        fleet=FleetSpec(
            devices=3,
            replication=1,
            events=(DeviceJoin(device=3, at_seconds=100.0),),
        ),
        seed=42,
    )


@register
def fleet_replication_upgrade() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-replication-upgrade",
        description="Write-path replication under load: a four-device fleet "
        "starts at R=1 and raises the factor to 2 mid-run.  The "
        "SetReplication epoch diffs the placement at the old vs new R and "
        "re-replicates every key onto its new owner as charged migration "
        "I/O; the replication-repair invariant pins that every key ends "
        "with exactly 2 live replicas.",
        tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8, repetitions=2),
        fleet=FleetSpec(
            devices=4,
            replication=1,
            replica_policy="least-loaded",
            events=(SetReplication(replication=2, at_seconds=80.0),),
        ),
        seed=42,
    )


@register
def fleet_repair_after_loss() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-repair-after-loss",
        description="Read-repair after fail-stop loss: one device of a "
        "three-device R=2 fleet dies mid-run and the repair pass re-creates "
        "its replicas on the survivors from live sources (charged migration "
        "I/O), instead of leaving the fleet silently under-replicated.",
        tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8),
        fleet=FleetSpec(
            devices=3,
            replication=2,
            replica_policy="least-loaded",
            failures=(DeviceFailure(device=0, at_seconds=40.0),),
        ),
        seed=42,
    )


@register
def fleet_throttled_rebalance() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-throttled-rebalance",
        description="The fleet-rebalance-under-load join, rate-limited: a "
        "per-device token bucket paces migration I/O so it interleaves "
        "with the bursty foreground traffic instead of running at strict "
        "priority.  Pins strictly lower foreground interference seconds "
        "than the unthrottled twin for the same join.",
        tenants=uniform_tenants(8, "tpch:q12", cache_capacity=8),
        arrival=BurstyArrival(burst_size=2, burst_gap_seconds=90.0, jitter_seconds=4.0),
        fleet=FleetSpec(
            devices=3,
            replication=1,
            events=(DeviceJoin(device=3, at_seconds=100.0),),
            throttle=MigrationThrottle(objects_per_second=0.1),
        ),
        seed=42,
    )


#: Mixed-speed device profiles shared by the load-aware scenario pair: one
#: straggler at 2x transfer / 4x switch cost, one next-gen device at half
#: the base transfer time (same shape as ``fleet-heterogeneous``).
_MIXED_SPEED_PROFILES = (
    DeviceProfile(device=1, switch_seconds=40.0, transfer_seconds=19.2),
    DeviceProfile(device=2, switch_seconds=5.0, transfer_seconds=4.8),
)


@register
def fleet_load_aware_baseline() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-load-aware-baseline",
        description="Control arm for the load-aware pair: the mixed "
        "fast/slow fleet on a hash-uniform ring with least-loaded routing. "
        "Its golden pins the p99 latency and imbalance coefficient that "
        "'fleet-load-aware' must strictly beat on the same traffic and seed.",
        tenants=uniform_tenants(6, "tpch:q12", cache_capacity=8),
        fleet=FleetSpec(
            devices=3,
            replication=2,
            replica_policy="least-loaded",
            profiles=_MIXED_SPEED_PROFILES,
        ),
        seed=42,
    )


@register
def fleet_load_aware() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-load-aware",
        description="Treatment arm: the same mixed fast/slow fleet and "
        "traffic as 'fleet-load-aware-baseline', but the ring is weighted "
        "by device speed factors (profile weighting) and replicas are "
        "chosen by latency EWMA x queue depth; the slow device gets a "
        "smaller arc share and less traffic, cutting p99 and imbalance.",
        tenants=uniform_tenants(6, "tpch:q12", cache_capacity=8),
        fleet=FleetSpec(
            devices=3,
            replication=2,
            replica_policy="ewma-latency",
            weighting="profile",
            profiles=_MIXED_SPEED_PROFILES,
        ),
        seed=42,
    )


@register
def fleet_adaptive_rebalance() -> ScenarioSpec:
    return ScenarioSpec(
        name="fleet-adaptive-rebalance",
        description="Feedback-driven rebalancing: the mixed fast/slow fleet "
        "starts on a hash-uniform ring; a periodic controller measures the "
        "busy-time imbalance, and past the threshold emits a reweight epoch "
        "whose migration plan shifts arc share toward the observed-faster "
        "devices through the throttled-migration machinery.",
        tenants=uniform_tenants(6, "tpch:q12", repetitions=2, cache_capacity=8),
        fleet=FleetSpec(
            devices=3,
            replication=2,
            replica_policy="ewma-latency",
            profiles=_MIXED_SPEED_PROFILES,
            rebalance=RebalancePolicy(
                interval_seconds=150.0,
                imbalance_threshold=0.2,
                min_weight_delta=0.05,
            ),
        ),
        seed=42,
    )


@register
def admission_burst() -> ScenarioSpec:
    return ScenarioSpec(
        name="admission-burst",
        description="Nine tenants arrive in three tight bursts against an "
        "admission controller with a global in-flight cap of 2 and a "
        "3-deep queue; the overflow beyond queue capacity is shed with "
        "typed rejections.",
        tenants=uniform_tenants(9, "tpch:q12", cache_capacity=8),
        arrival=BurstyArrival(burst_size=3, burst_gap_seconds=30.0, jitter_seconds=2.0),
        admission=AdmissionConfig(max_in_flight=2, max_queue_depth=3),
        seed=42,
    )


@register
def session_fanout() -> ScenarioSpec:
    return ScenarioSpec(
        name="session-fanout",
        description="Eight sessions each submit two queries through a global "
        "in-flight cap of 3 (per-tenant cap 1) with a queue deep enough "
        "that nothing is shed: every query eventually runs, pinning the "
        "admission queue-delay percentiles and fairness.",
        tenants=uniform_tenants(8, "tpch:q12", repetitions=2, cache_capacity=8),
        admission=AdmissionConfig(
            max_in_flight=3, max_in_flight_per_tenant=1, max_queue_depth=64
        ),
        seed=42,
    )


@register
def multi_workload_mix() -> ScenarioSpec:
    return ScenarioSpec(
        name="multi-workload-mix",
        description="Four heterogeneous tenants (TPC-H, SSB, MR-bench, NREF) "
        "arriving as a Poisson process — the paper's mixed workload plus "
        "randomised arrivals.",
        tenants=(
            TenantSpec(tenant_id="tpch", queries=("tpch:q12",), cache_capacity=8),
            TenantSpec(tenant_id="ssb", queries=("ssb:q1_1",), cache_capacity=8),
            TenantSpec(
                tenant_id="mrbench", queries=("mrbench:join_task",), cache_capacity=8
            ),
            TenantSpec(
                tenant_id="nref", queries=("nref:sequence_count",), cache_capacity=8
            ),
        ),
        arrival=PoissonArrival(mean_gap_seconds=30.0),
        seed=42,
    )
