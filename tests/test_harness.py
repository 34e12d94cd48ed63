"""Shape tests for the experiment harness (reduced-scale paper figures).

These are integration tests: each experiment is run at a reduced scale and
its *shape* is asserted — the direction of every comparison the paper makes —
rather than absolute numbers.
"""

import math

import pytest

from repro.harness import experiments, format_table


class TestTables:
    def test_format_table_renders_all_rows(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        assert "T" in text and "a" in text and "2.5" in text and "x" in text
        assert len(text.splitlines()) == 5


class TestTieringExperiments:
    def test_figure2(self):
        rows = experiments.table1_figure2_tiering_cost()
        assert rows["all-ssd"] > rows["all-scsi"] > rows["all-sata"] > rows["all-tape"]
        assert rows["3-tier"] < rows["2-tier"]

    def test_figure3(self):
        rows = experiments.figure3_cst_savings()
        for base in ("3-tier", "4-tier"):
            factors = [values["savings_factor"] for values in rows[base].values()]
            assert all(factor > 1.0 for factor in factors)
            # Cheaper CSD -> bigger savings.
            assert rows[base][0.1]["savings_factor"] > rows[base][1.0]["savings_factor"]


class TestMotivationExperiments:
    def test_figure4_vanilla_degrades_with_clients_ideal_does_not(self):
        result = experiments.figure4_postgres_on_csd(client_counts=(1, 3), scale="tiny")
        csd = result["postgresql_on_csd"]
        hdd = result["postgresql_on_hdd"]
        assert csd[1] > 2.0 * csd[0]
        assert hdd[1] == pytest.approx(hdd[0], rel=0.05)
        assert csd[1] > hdd[1]

    def test_figure5_latency_sensitivity_is_monotonic(self):
        result = experiments.figure5_latency_sensitivity(
            switch_latencies=(0.0, 10.0, 20.0), num_clients=3, scale="tiny"
        )
        times = result["postgresql_on_csd"]
        assert times[0] < times[1] < times[2]
        # The paper reports ~6x from 0 to 20 seconds at 5 clients; at reduced
        # scale we still expect a large multiple.
        assert times[2] / times[0] > 2.0


class TestSkipperExperiments:
    def test_figure7_ordering_of_systems(self):
        result = experiments.figure7_skipper_scaling(
            client_counts=(1, 3), scale="tiny", cache_capacity=8
        )
        at_three = {
            "vanilla": result["postgresql"][1],
            "skipper": result["skipper"][1],
            "ideal": result["ideal"][1],
        }
        assert at_three["skipper"] < at_three["vanilla"]
        assert at_three["vanilla"] / at_three["skipper"] > 1.5
        # Skipper scales sub-linearly compared to vanilla.
        assert result["skipper"][1] / result["skipper"][0] < result["postgresql"][1] / result[
            "postgresql"
        ][0]

    def test_figure8_skipper_reduces_cumulative_time_for_every_workload(self):
        result = experiments.figure8_mixed_workload(
            repetitions=1,
            tpch_scale="tiny",
            ssb_scale="tiny",
            mrbench_scale="tiny",
            nref_scale="tiny",
            cache_capacity=8,
        )
        for workload, vanilla_time in result["postgresql"].items():
            assert result["skipper"][workload] < vanilla_time

    def test_figure9_breakdown_shapes(self):
        result = experiments.figure9_breakdown(num_clients=3, scale="small", cache_capacity=12)
        vanilla = result["postgresql"]
        skipper = result["skipper"]
        # Vanilla spends almost everything waiting, a large part on switches.
        assert vanilla["processing_fraction"] < 0.2
        assert vanilla["switch_fraction"] > 0.3
        # Skipper masks the switch latency almost completely.
        assert skipper["switch_fraction"] < 0.1
        assert skipper["switch_fraction"] < vanilla["switch_fraction"] / 3

    def test_figure10_skipper_is_latency_insensitive(self):
        result = experiments.figure10_switch_latency(
            switch_latencies=(10.0, 30.0), num_clients=3, scale="small", cache_capacity=12
        )
        vanilla_growth = result["postgresql"][1] / result["postgresql"][0]
        skipper_growth = result["skipper"][1] / result["skipper"][0]
        assert vanilla_growth > 1.5
        assert skipper_growth < 1.2
        assert skipper_growth < vanilla_growth / 1.5

    def test_figure11a_layout_sensitivity(self):
        result = experiments.figure11a_layout_sensitivity(
            num_clients=3, scale="tiny", cache_capacity=8
        )
        vanilla = result["postgresql"]
        skipper = result["skipper"]
        # With everything in one group the two systems are comparable...
        assert skipper["all-in-one"] <= vanilla["all-in-one"] * 1.2
        # ...but once clients are spread across groups vanilla collapses.
        assert vanilla["1-per-group"] > 1.5 * vanilla["all-in-one"]
        assert skipper["1-per-group"] < vanilla["1-per-group"]
        # Skipper is insensitive to the layout choice.
        assert max(skipper.values()) / min(skipper.values()) < 3.0

    def test_figure11b_smaller_cache_means_more_requests(self):
        result = experiments.figure11b_cache_size(
            cache_sizes=(6, 10), num_clients=2, scale="tiny"
        )
        assert result["get_requests_per_client"][0] > result["get_requests_per_client"][1]
        assert result["skipper_time"][0] > result["skipper_time"][1]

    def test_figure12_fairness_tradeoff(self):
        result = experiments.figure12_fairness(
            num_clients=5, repetitions=2, scale="small", cache_capacity=12
        )
        fairness = result["fairness"]
        maxquery = result["maxquery"]
        ranking = result["ranking"]
        # Efficiency ordering: Max-Queries performs the fewest group
        # switches, query-FCFS the most, rank-based in between.
        assert maxquery["group_switches"] <= ranking["group_switches"] <= fairness[
            "group_switches"
        ]
        # Fairness: the rank-based policy never starves a tenant as badly as
        # Max-Queries does, and stays close to Max-Queries on efficiency.
        assert ranking["max_stretch"] <= maxquery["max_stretch"]
        assert ranking["cumulative_time"] <= maxquery["cumulative_time"] * 1.15
        # Every policy reports positive, finite metrics.
        for metrics in result.values():
            assert metrics["l2_norm_stretch"] > 0
            assert metrics["cumulative_time"] > 0

    def test_table2_subplan_example(self):
        result = experiments.table2_subplan_example()
        assert len(result["subplans"]) == 8
        assert len(result["layout"]) == 3

    def test_table3_component_breakdown(self):
        result = experiments.table3_component_breakdown(scale="tiny", cache_capacity=8)
        for system in ("postgresql", "skipper"):
            row = result[system]
            assert row["total_seconds"] > 0
            assert 0.0 < row["query_execution_fraction"] < 1.0
            assert row["query_execution_seconds"] + row["network_access_seconds"] == pytest.approx(
                row["total_seconds"]
            )


class TestAblations:
    def test_eviction_policy_ablation_reports_all_policies(self):
        result = experiments.ablation_eviction_policies(
            cache_capacity=7, num_clients=1, scale="tiny"
        )
        assert set(result) == {"max-progress", "max-pending-subplans", "lru", "fifo"}
        assert result["max-progress"]["converged"] == 1.0
        assert math.isfinite(result["max-progress"]["avg_time"])

    def test_ordering_ablation_reports_both_orderings(self):
        result = experiments.ablation_intra_group_ordering(cache_capacity=6, scale="tiny")
        assert set(result) == {"semantic-round-robin", "table-major"}
        assert result["semantic-round-robin"]["converged"] == 1.0

    def test_pruning_ablation_prunes_subplans_and_requests(self):
        result = experiments.ablation_subplan_pruning(scale="small", cache_capacity=4)
        assert result["pruning-on"]["subplans_pruned"] > 0
        assert result["pruning-off"]["subplans_pruned"] == 0
        assert (
            result["pruning-on"]["get_requests"] <= result["pruning-off"]["get_requests"]
        )
        assert result["pruning-on"]["avg_time"] <= result["pruning-off"]["avg_time"]
