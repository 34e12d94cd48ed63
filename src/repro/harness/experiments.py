"""Reproduction of every table and figure in the paper's evaluation.

Each ``figureNN_*`` / ``tableNN_*`` function builds the corresponding
experiment, runs it over simulated time and returns a dictionary of the
series the paper plots.  Absolute values depend on the cost-model calibration
(:mod:`repro.engine.cost`); what is expected to match the paper is the
*shape*: who wins, by roughly what factor, and where the crossovers are.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster import ClientSpec, ClusterConfig, ClusterResult
from repro.cluster.metrics import l2_norm, max_stretch, mean, stretches
from repro.core.cache import (
    EvictionPolicy,
    FIFOEviction,
    LRUEviction,
    MaxPendingSubplansEviction,
    MaxProgressEviction,
)
from repro.core.subplan import enumerate_subplans
from repro.csd.device import DeviceConfig
from repro.csd.layout import (
    AllInOneLayout,
    ClientsPerGroupLayout,
    IncrementalLayout,
    LayoutPolicy,
    SkewedLayout,
)
from repro.csd.ordering import SemanticRoundRobinOrdering, TableMajorOrdering
from repro.csd.scheduler import (
    IOScheduler,
    MaxQueriesScheduler,
    ObjectFCFSScheduler,
    QueryFCFSScheduler,
    RankBasedScheduler,
    SlackFCFSScheduler,
)
from repro.engine.catalog import Catalog
from repro.engine.cost import CostModel
from repro.engine.predicate import Comparison, Literal, col
from repro.engine.query import Query
from repro.exceptions import CacheError
from repro.service.service import StorageService
from repro.tiering import TieringCostModel
from repro.workloads import mrbench, nref, ssb, tpch

#: Default group-switch latency used throughout the paper (Pelican ≈ 8 s,
#: the paper's experiments use 10 s).
DEFAULT_SWITCH_SECONDS = 10.0
#: Default cache capacity (objects ≈ GB): the paper's 30 GB configuration.
DEFAULT_CACHE_OBJECTS = 30


# --------------------------------------------------------------------------- #
# Generic cluster runners
# --------------------------------------------------------------------------- #
def run_uniform_cluster(
    catalog: Catalog,
    query: Query,
    num_clients: int,
    mode: str,
    scheduler: Optional[IOScheduler] = None,
    layout: Optional[LayoutPolicy] = None,
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    transfer_seconds: float = 9.6,
    concurrent_transfers: bool = False,
    cache_capacity: int = DEFAULT_CACHE_OBJECTS,
    repetitions: int = 1,
    eviction_policy: Optional[EvictionPolicy] = None,
    cost_model: Optional[CostModel] = None,
    enable_pruning: bool = True,
) -> ClusterResult:
    """Run ``num_clients`` identical clients, all executing ``query``.

    This is the shape of most experiments in the paper: every tenant runs the
    same query over its own copy of the dataset while sharing the CSD.
    """
    specs = [
        ClientSpec(
            client_id=f"client{index}",
            queries=[query],
            mode=mode,
            repetitions=repetitions,
            cache_capacity=cache_capacity,
            eviction_policy=eviction_policy,
            enable_pruning=enable_pruning,
        )
        for index in range(num_clients)
    ]
    config = ClusterConfig(
        client_specs=specs,
        layout_policy=layout or ClientsPerGroupLayout(1),
        device_config=DeviceConfig(
            group_switch_seconds=switch_seconds,
            transfer_seconds_per_object=transfer_seconds,
            concurrent_transfers=concurrent_transfers,
        ),
        cost_model=cost_model or CostModel(),
    )
    scheduler = scheduler if scheduler is not None else _default_scheduler(mode)
    return _run_service(catalog, config, scheduler)


def _run_service(
    catalog: Catalog,
    config: ClusterConfig,
    scheduler: IOScheduler,
) -> ClusterResult:
    """Run one batch experiment through the service façade."""
    return StorageService(config, catalog=catalog, scheduler_factory=lambda: scheduler).run()


def _default_scheduler(mode: str) -> IOScheduler:
    """Vanilla clients face today's object-FCFS CSD; Skipper uses rank-based."""
    if mode == "vanilla":
        return ObjectFCFSScheduler()
    return RankBasedScheduler()


def run_ideal_cluster(
    catalog: Catalog,
    query: Query,
    num_clients: int,
    transfer_seconds: float = 9.6,
    cost_model: Optional[CostModel] = None,
) -> ClusterResult:
    """The paper's "Ideal" configuration: the HDD-based capacity tier.

    All data maps to a single always-spinning group (no group switches) and
    per-tenant network streams proceed in parallel, which is how the paper's
    plain-Swift/HDD baseline behaves.
    """
    return run_uniform_cluster(
        catalog,
        query,
        num_clients,
        mode="vanilla",
        scheduler=ObjectFCFSScheduler(),
        layout=AllInOneLayout(),
        switch_seconds=0.0,
        transfer_seconds=transfer_seconds,
        concurrent_transfers=True,
        cost_model=cost_model,
    )


# --------------------------------------------------------------------------- #
# Table 1 / Figure 2 / Figure 3 — tiering cost analysis
# --------------------------------------------------------------------------- #
def table1_figure2_tiering_cost(database_gb: float = 100 * 1024) -> Dict[str, float]:
    """Acquisition cost (thousands of dollars) of each storage strategy."""
    return TieringCostModel(database_gb=database_gb).figure2_rows()


def figure3_cst_savings(database_gb: float = 100 * 1024) -> Dict[str, Dict[float, Dict[str, float]]]:
    """Cost of CSD-based vs. traditional 3-/4-tier at each CSD price point."""
    return TieringCostModel.figure3_rows(database_gb=database_gb)


# --------------------------------------------------------------------------- #
# Figure 4 / Figure 5 — the problem: vanilla PostgreSQL on a CSD
# --------------------------------------------------------------------------- #
def figure4_postgres_on_csd(
    client_counts: Sequence[int] = (1, 2, 3, 4, 5),
    scale: str = "sf50",
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    seed: int = 42,
) -> Dict[str, List[float]]:
    """Average TPC-H Q12 time of vanilla clients on CSD vs. the HDD ideal."""
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q12()
    on_csd: List[float] = []
    on_hdd: List[float] = []
    for count in client_counts:
        csd_result = run_uniform_cluster(
            catalog, query, count, mode="vanilla", switch_seconds=switch_seconds
        )
        ideal_result = run_ideal_cluster(catalog, query, count)
        on_csd.append(csd_result.average_execution_time())
        on_hdd.append(ideal_result.average_execution_time())
    return {
        "clients": list(client_counts),
        "postgresql_on_csd": on_csd,
        "postgresql_on_hdd": on_hdd,
    }


def figure5_latency_sensitivity(
    switch_latencies: Sequence[float] = (0.0, 5.0, 10.0, 15.0, 20.0),
    num_clients: int = 5,
    scale: str = "sf50",
    seed: int = 42,
) -> Dict[str, List[float]]:
    """Vanilla clients' sensitivity to the group-switch latency."""
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q12()
    times = [
        run_uniform_cluster(
            catalog, query, num_clients, mode="vanilla", switch_seconds=latency
        ).average_execution_time()
        for latency in switch_latencies
    ]
    return {"switch_latency": list(switch_latencies), "postgresql_on_csd": times}


# --------------------------------------------------------------------------- #
# Figure 7 — Skipper vs. vanilla vs. ideal while scaling clients
# --------------------------------------------------------------------------- #
def figure7_skipper_scaling(
    client_counts: Sequence[int] = (1, 2, 3, 4, 5),
    scale: str = "sf50",
    cache_capacity: int = DEFAULT_CACHE_OBJECTS,
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    seed: int = 42,
) -> Dict[str, List[float]]:
    """Average Q12 execution time of Skipper, vanilla and the HDD ideal."""
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q12()
    vanilla_times: List[float] = []
    skipper_times: List[float] = []
    ideal_times: List[float] = []
    for count in client_counts:
        vanilla_times.append(
            run_uniform_cluster(
                catalog, query, count, mode="vanilla", switch_seconds=switch_seconds
            ).average_execution_time()
        )
        skipper_times.append(
            run_uniform_cluster(
                catalog,
                query,
                count,
                mode="skipper",
                switch_seconds=switch_seconds,
                cache_capacity=cache_capacity,
            ).average_execution_time()
        )
        ideal_times.append(run_ideal_cluster(catalog, query, count).average_execution_time())
    return {
        "clients": list(client_counts),
        "postgresql": vanilla_times,
        "skipper": skipper_times,
        "ideal": ideal_times,
    }


# --------------------------------------------------------------------------- #
# Figure 8 — mixed workload
# --------------------------------------------------------------------------- #
def figure8_mixed_workload(
    repetitions: int = 5,
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    cache_capacity: int = DEFAULT_CACHE_OBJECTS,
    tpch_scale: str = "sf50",
    ssb_scale: str = "sf50",
    mrbench_scale: str = "paper",
    nref_scale: str = "paper",
    seed: int = 42,
) -> Dict[str, Dict[str, float]]:
    """Cumulative execution time of four heterogeneous clients.

    One client per benchmark (TPC-H Q12, the analytics-benchmark join task,
    the NREF counting join, SSB Q1.1), each repeating its query
    ``repetitions`` times, under vanilla and under Skipper.
    """
    catalog = tpch.build_catalog(tpch_scale, seed=seed)
    ssb.build_catalog(ssb_scale, seed=seed + 1, catalog=catalog)
    mrbench.build_catalog(mrbench_scale, seed=seed + 2, catalog=catalog)
    nref.build_catalog(nref_scale, seed=seed + 3, catalog=catalog)

    workloads = {
        "TPC-H": tpch.q12(),
        "MR-Bench": mrbench.join_task(),
        "NREF": nref.sequence_count(),
        "SSB": ssb.q1_1(),
    }

    def run(mode: str) -> Dict[str, float]:
        specs = [
            ClientSpec(
                client_id=f"client_{name.lower().replace('-', '_')}",
                queries=[query],
                mode=mode,
                repetitions=repetitions,
                cache_capacity=cache_capacity,
            )
            for name, query in workloads.items()
        ]
        config = ClusterConfig(
            client_specs=specs,
            layout_policy=ClientsPerGroupLayout(1),
            device_config=DeviceConfig(
                group_switch_seconds=switch_seconds, transfer_seconds_per_object=9.6
            ),
        )
        result = _run_service(catalog, config, _default_scheduler(mode))
        totals = result.per_client_totals()
        return {
            name: totals[f"client_{name.lower().replace('-', '_')}"] for name in workloads
        }

    return {"postgresql": run("vanilla"), "skipper": run("skipper")}


# --------------------------------------------------------------------------- #
# Figure 9 / Table 3 — execution-time breakdown
# --------------------------------------------------------------------------- #
def figure9_breakdown(
    num_clients: int = 5,
    scale: str = "sf50",
    cache_capacity: int = DEFAULT_CACHE_OBJECTS,
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    seed: int = 42,
) -> Dict[str, Dict[str, float]]:
    """Average switch / transfer / processing split of Q12 per system."""
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q12()
    result: Dict[str, Dict[str, float]] = {}
    for mode in ("vanilla", "skipper"):
        cluster_result = run_uniform_cluster(
            catalog,
            query,
            num_clients,
            mode=mode,
            switch_seconds=switch_seconds,
            cache_capacity=cache_capacity,
        )
        breakdown = cluster_result.average_breakdown()
        fractions = breakdown.fractions()
        label = "postgresql" if mode == "vanilla" else "skipper"
        result[label] = {
            "processing_seconds": breakdown.processing,
            "switch_seconds": breakdown.switch_wait,
            "transfer_seconds": breakdown.transfer_wait + breakdown.other_wait,
            "processing_fraction": fractions["processing"],
            "switch_fraction": fractions["switch"],
            "transfer_fraction": fractions["transfer"] + fractions["other"],
        }
    return result


def table3_component_breakdown(
    scale: str = "sf50",
    cache_capacity: int = DEFAULT_CACHE_OBJECTS,
    seed: int = 42,
) -> Dict[str, Dict[str, float]]:
    """Single-client component breakdown: query execution vs. network access.

    Mirrors Table 3: data resides on the shared store inside a single group
    (no switches), so the difference between total and CPU time is the
    network-transfer component; the vanilla row corresponds to PostgreSQL,
    the Skipper row to the MJoin-enabled engine.
    """
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q12()
    result: Dict[str, Dict[str, float]] = {}
    for mode in ("vanilla", "skipper"):
        cluster_result = run_uniform_cluster(
            catalog,
            query,
            num_clients=1,
            mode=mode,
            layout=AllInOneLayout(),
            switch_seconds=0.0,
            cache_capacity=cache_capacity,
        )
        client_results = next(iter(cluster_result.results_by_client.values()))
        query_result = client_results[0]
        total = query_result.execution_time
        processing = query_result.processing_time
        label = "postgresql" if mode == "vanilla" else "skipper"
        result[label] = {
            "query_execution_seconds": processing,
            "network_access_seconds": total - processing,
            "total_seconds": total,
            "query_execution_fraction": processing / total if total else 0.0,
            "network_access_fraction": (total - processing) / total if total else 0.0,
        }
    return result


# --------------------------------------------------------------------------- #
# Figure 10 — sensitivity to the group switch latency (Skipper vs. vanilla)
# --------------------------------------------------------------------------- #
def figure10_switch_latency(
    switch_latencies: Sequence[float] = (10.0, 20.0, 30.0, 40.0),
    num_clients: int = 5,
    scale: str = "sf50",
    cache_capacity: int = DEFAULT_CACHE_OBJECTS,
    seed: int = 42,
) -> Dict[str, List[float]]:
    """Average Q12 time as the group-switch latency grows."""
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q12()
    vanilla_times = []
    skipper_times = []
    for latency in switch_latencies:
        vanilla_times.append(
            run_uniform_cluster(
                catalog, query, num_clients, mode="vanilla", switch_seconds=latency
            ).average_execution_time()
        )
        skipper_times.append(
            run_uniform_cluster(
                catalog,
                query,
                num_clients,
                mode="skipper",
                switch_seconds=latency,
                cache_capacity=cache_capacity,
            ).average_execution_time()
        )
    return {
        "switch_latency": list(switch_latencies),
        "postgresql": vanilla_times,
        "skipper": skipper_times,
    }


# --------------------------------------------------------------------------- #
# Figure 11a — sensitivity to the data layout
# --------------------------------------------------------------------------- #
def figure11a_layout_sensitivity(
    num_clients: int = 4,
    scale: str = "sf50",
    cache_capacity: int = DEFAULT_CACHE_OBJECTS,
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    seed: int = 42,
) -> Dict[str, Dict[str, float]]:
    """Average Q12 time under the four layouts of the paper."""
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q12()
    layouts: Dict[str, LayoutPolicy] = {
        "all-in-one": AllInOneLayout(),
        "2-per-group": ClientsPerGroupLayout(2),
        "1-per-group": ClientsPerGroupLayout(1),
        "incremental": IncrementalLayout(),
    }
    result: Dict[str, Dict[str, float]] = {"postgresql": {}, "skipper": {}}
    for layout_name, layout in layouts.items():
        result["postgresql"][layout_name] = run_uniform_cluster(
            catalog,
            query,
            num_clients,
            mode="vanilla",
            layout=layout,
            switch_seconds=switch_seconds,
        ).average_execution_time()
        result["skipper"][layout_name] = run_uniform_cluster(
            catalog,
            query,
            num_clients,
            mode="skipper",
            layout=layout,
            switch_seconds=switch_seconds,
            cache_capacity=cache_capacity,
        ).average_execution_time()
    return result


# --------------------------------------------------------------------------- #
# Figure 11b / 11c — sensitivity to the cache size and the data set size
# --------------------------------------------------------------------------- #
def figure11b_cache_size(
    cache_sizes: Sequence[int] = (10, 15, 20, 25, 30),
    num_clients: int = 5,
    scale: str = "sf50",
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    seed: int = 42,
) -> Dict[str, List[float]]:
    """Skipper's Q5 execution time and GET count as the cache shrinks."""
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q5()
    vanilla_time = run_uniform_cluster(
        catalog, query, num_clients, mode="vanilla", switch_seconds=switch_seconds
    ).average_execution_time()
    times: List[float] = []
    gets: List[float] = []
    for cache_size in cache_sizes:
        result = run_uniform_cluster(
            catalog,
            query,
            num_clients,
            mode="skipper",
            switch_seconds=switch_seconds,
            cache_capacity=cache_size,
        )
        times.append(result.average_execution_time())
        gets.append(result.total_get_requests() / max(1, num_clients))
    return {
        "cache_size": list(cache_sizes),
        "skipper_time": times,
        "get_requests_per_client": gets,
        "postgresql_time": vanilla_time,
    }


def figure11c_dataset_size(
    cache_sizes: Sequence[int] = (14, 21, 28, 35, 42),
    num_clients: int = 3,
    scale: str = "sf100",
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    seed: int = 42,
) -> Dict[str, List[float]]:
    """Same as Figure 11b but on the larger (SF-100 equivalent) dataset."""
    return figure11b_cache_size(
        cache_sizes=cache_sizes,
        num_clients=num_clients,
        scale=scale,
        switch_seconds=switch_seconds,
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# Figure 12 — balancing efficiency and fairness
# --------------------------------------------------------------------------- #
def figure12_fairness(
    num_clients: int = 5,
    repetitions: int = 10,
    scale: str = "sf50",
    cache_capacity: int = DEFAULT_CACHE_OBJECTS,
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    seed: int = 42,
) -> Dict[str, Dict[str, float]]:
    """L2-norm / max stretch and cumulative time per scheduling policy.

    Uses the paper's skewed layout: two groups hold two clients each and the
    last group holds a single client, so efficiency-first policies starve the
    lone client while FCFS wastes switches.
    """
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q12()

    # Ideal (single-client) execution time used to normalise stretch.
    ideal_result = run_uniform_cluster(
        catalog,
        query,
        num_clients=1,
        mode="skipper",
        scheduler=RankBasedScheduler(),
        switch_seconds=switch_seconds,
        cache_capacity=cache_capacity,
    )
    ideal_time = ideal_result.average_execution_time()

    schedulers = {
        "fairness": QueryFCFSScheduler,
        "maxquery": MaxQueriesScheduler,
        "ranking": RankBasedScheduler,
    }
    clients_per_group = _skew_pattern(num_clients)
    output: Dict[str, Dict[str, float]] = {}
    for label, scheduler_factory in schedulers.items():
        result = run_uniform_cluster(
            catalog,
            query,
            num_clients,
            mode="skipper",
            scheduler=scheduler_factory(),
            layout=SkewedLayout(clients_per_group),
            switch_seconds=switch_seconds,
            cache_capacity=cache_capacity,
            repetitions=repetitions,
        )
        all_stretches = stretches(result.execution_times(), ideal_time)
        output[label] = {
            "l2_norm_stretch": l2_norm(all_stretches),
            "max_stretch": max_stretch(all_stretches),
            "mean_stretch": mean(all_stretches),
            "cumulative_time": result.cumulative_execution_time(),
            "group_switches": float(result.device_switches),
        }
    return output


def _skew_pattern(num_clients: int) -> List[int]:
    """The paper's skewed layout generalised: pairs of clients plus a loner."""
    if num_clients < 3:
        return [1] * num_clients
    pattern: List[int] = []
    remaining = num_clients
    while remaining > 1:
        take = 2 if remaining > 2 else remaining
        pattern.append(take)
        remaining -= take
    if remaining == 1:
        pattern.append(1)
    return pattern


# --------------------------------------------------------------------------- #
# Table 2 — the subplan example
# --------------------------------------------------------------------------- #
def table2_subplan_example() -> Dict[str, List]:
    """The layout / subplan enumeration example of Table 2."""
    layout = {
        "g1": ["A.1", "B.1", "C.1"],
        "g2": ["A.2", "B.2"],
        "g3": ["C.3"],
    }
    subplans = enumerate_subplans({"A": ["A.1", "A.2"], "B": ["B.1", "B.2"], "C": ["C.1", "C.3"]})
    return {"layout": list(layout.items()), "subplans": subplans}


# --------------------------------------------------------------------------- #
# Ablations beyond the paper's headline figures
# --------------------------------------------------------------------------- #
def ablation_eviction_policies(
    cache_capacity: int = 10,
    num_clients: int = 2,
    scale: str = "small",
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    seed: int = 42,
) -> Dict[str, Dict[str, float]]:
    """Compare cache-eviction policies at a constrained cache size."""
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q5()
    policies = {
        "max-progress": MaxProgressEviction(),
        "max-pending-subplans": MaxPendingSubplansEviction(),
        "lru": LRUEviction(),
        "fifo": FIFOEviction(),
    }
    output: Dict[str, Dict[str, float]] = {}
    for label, policy in policies.items():
        try:
            result = run_uniform_cluster(
                catalog,
                query,
                num_clients,
                mode="skipper",
                switch_seconds=switch_seconds,
                cache_capacity=cache_capacity,
                eviction_policy=policy,
            )
        except CacheError:
            # Naive policies can evict the same objects cycle after cycle at
            # small cache sizes and never finish the query — itself a result
            # worth reporting (the paper's policy is designed to avoid this).
            output[label] = {
                "avg_time": float("inf"),
                "get_requests_per_client": float("inf"),
                "converged": 0.0,
            }
            continue
        output[label] = {
            "avg_time": result.average_execution_time(),
            "get_requests_per_client": result.total_get_requests() / num_clients,
            "converged": 1.0,
        }
    return output


def ablation_intra_group_ordering(
    cache_capacity: int = 6,
    scale: str = "small",
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    seed: int = 42,
) -> Dict[str, Dict[str, float]]:
    """Semantically-smart vs. table-major object ordering within a group.

    The cache is sized at exactly one object per joined relation, the regime
    in which Section 4.4 argues that returning one table at a time starves
    the MJoin of runnable subplans.
    """
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q5()
    orderings = {
        "semantic-round-robin": SemanticRoundRobinOrdering(),
        "table-major": TableMajorOrdering(),
    }
    output: Dict[str, Dict[str, float]] = {}
    for label, ordering in orderings.items():
        try:
            result = run_uniform_cluster(
                catalog,
                query,
                num_clients=2,
                mode="skipper",
                scheduler=RankBasedScheduler(ordering=ordering),
                switch_seconds=switch_seconds,
                cache_capacity=cache_capacity,
            )
        except CacheError:
            output[label] = {
                "avg_time": float("inf"),
                "get_requests_per_client": float("inf"),
                "converged": 0.0,
            }
            continue
        output[label] = {
            "avg_time": result.average_execution_time(),
            "get_requests_per_client": result.total_get_requests() / 2,
            "converged": 1.0,
        }
    return output


def ablation_csd_schedulers(
    num_clients: int = 4,
    repetitions: int = 2,
    scale: str = "small",
    cache_capacity: int = 12,
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    seed: int = 42,
) -> Dict[str, Dict[str, float]]:
    """Skipper clients under every CSD scheduling policy, including the
    slack-FCFS policy that models today's CSD firmware.

    Extends Figure 12: the incremental layout (every tenant's data spans two
    groups) plus repeated queries makes requests from different tenants
    interleave at the device, so query-oblivious policies (object-FCFS and,
    to a lesser degree, slack-FCFS) pay far more group switches than the
    query-aware ones even though the clients batch their requests.
    """
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q12()
    schedulers = {
        "object-fcfs": ObjectFCFSScheduler,
        "slack-fcfs": SlackFCFSScheduler,
        "query-fcfs": QueryFCFSScheduler,
        "max-queries": MaxQueriesScheduler,
        "rank-based": RankBasedScheduler,
    }
    output: Dict[str, Dict[str, float]] = {}
    for label, scheduler_factory in schedulers.items():
        result = run_uniform_cluster(
            catalog,
            query,
            num_clients,
            mode="skipper",
            scheduler=scheduler_factory(),
            layout=IncrementalLayout(),
            switch_seconds=switch_seconds,
            cache_capacity=cache_capacity,
            repetitions=repetitions,
        )
        output[label] = {
            "avg_time": result.average_execution_time(),
            "group_switches": float(result.device_switches),
        }
    return output


def ablation_fairness_constant(
    constants: Sequence[float] = (0.0, 0.25, 1.0, 4.0),
    num_clients: int = 5,
    repetitions: int = 4,
    scale: str = "small",
    cache_capacity: int = 12,
    switch_seconds: float = DEFAULT_SWITCH_SECONDS,
    seed: int = 42,
) -> Dict[float, Dict[str, float]]:
    """Sweep the rank-based scheduler's fairness constant K (Section 4.4).

    ``K = 0`` degenerates to Max-Queries (efficient, unfair); larger K values
    weigh accumulated waiting time more heavily.  The paper derives ``K = 1``
    as the fairness-maximising choice.
    """
    catalog = tpch.build_catalog(scale, seed=seed)
    query = tpch.q12()
    ideal = run_uniform_cluster(
        catalog,
        query,
        num_clients=1,
        mode="skipper",
        switch_seconds=switch_seconds,
        cache_capacity=cache_capacity,
    ).average_execution_time()
    output: Dict[float, Dict[str, float]] = {}
    for constant in constants:
        result = run_uniform_cluster(
            catalog,
            query,
            num_clients,
            mode="skipper",
            scheduler=RankBasedScheduler(fairness_constant=constant),
            layout=SkewedLayout(_skew_pattern(num_clients)),
            switch_seconds=switch_seconds,
            cache_capacity=cache_capacity,
            repetitions=repetitions,
        )
        all_stretches = stretches(result.execution_times(), ideal)
        output[constant] = {
            "max_stretch": max_stretch(all_stretches),
            "l2_norm_stretch": l2_norm(all_stretches),
            "cumulative_time": result.cumulative_execution_time(),
            "group_switches": float(result.device_switches),
        }
    return output


def ablation_subplan_pruning(
    scale: str = "small",
    cache_capacity: int = 4,
    seed: int = 42,
) -> Dict[str, Dict[str, float]]:
    """Effect of empty-object subplan pruning on a clustered selective query.

    TPC-H Q12 is restricted to a narrow range of order keys.  Because line
    items are generated in order-key order, the matching tuples are clustered
    in a minority of segments and most lineitem segments are empty after
    filtering — the situation in which the paper argues pruning eliminates
    both subplans and re-issued requests.
    """
    catalog = tpch.build_catalog(scale, seed=seed)
    base = tpch.q12()
    selective = Query(
        name="tpch_q12_selective",
        tables=base.tables,
        joins=base.joins,
        filters={"lineitem": Comparison("<", col("l_orderkey"), Literal(30))},
        group_by=base.group_by,
        aggregates=base.aggregates,
        order_by=base.order_by,
    )
    output: Dict[str, Dict[str, float]] = {}
    for label, pruning in (("pruning-on", True), ("pruning-off", False)):
        result = run_uniform_cluster(
            catalog,
            selective,
            num_clients=1,
            mode="skipper",
            cache_capacity=cache_capacity,
            enable_pruning=pruning,
        )
        client_results = next(iter(result.results_by_client.values()))
        query_result = client_results[0]
        output[label] = {
            "avg_time": result.average_execution_time(),
            "get_requests": float(query_result.num_requests),
            "subplans_executed": float(query_result.subplans_executed),
            "subplans_pruned": float(query_result.subplans_pruned),
        }
    return output
