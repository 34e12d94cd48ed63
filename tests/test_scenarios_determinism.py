"""Determinism guarantees of the scenario engine.

Running the same spec (same seed) twice must produce byte-identical report
JSON — that is what makes the golden-metrics harness trustworthy — while
different seeds must actually change the randomised inputs (arrival orders).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.scenarios import (
    BurstyArrival,
    PoissonArrival,
    ScenarioRunner,
    SimultaneousArrival,
    UniformArrival,
    get_scenario,
)

RUNNER = ScenarioRunner()

#: Scenarios whose arrival patterns consume randomness (seed-sensitive).
RANDOMISED = ["admission-burst", "multi-workload-mix"]


class TestSameSeedIsByteIdentical:
    @pytest.mark.parametrize("name", ["uniform", "admission-burst", "multi-workload-mix"])
    def test_two_runs_serialize_identically(self, name):
        first = RUNNER.run(get_scenario(name)).to_json()
        second = RUNNER.run(get_scenario(name)).to_json()
        assert first == second

    def test_fresh_runner_instances_agree(self):
        first = ScenarioRunner().run(get_scenario("fairness-adversarial")).to_json()
        second = ScenarioRunner().run(get_scenario("fairness-adversarial")).to_json()
        assert first == second


class TestDifferentSeedsDiverge:
    @pytest.mark.parametrize("name", RANDOMISED)
    def test_different_seed_changes_arrival_order(self, name):
        base_spec = get_scenario(name)
        reseeded = dataclasses.replace(base_spec, seed=base_spec.seed + 1)
        base = RUNNER.run(base_spec)
        other = RUNNER.run(reseeded)
        base_delays = [report.start_delay for report in base.clients.values()]
        other_delays = [report.start_delay for report in other.clients.values()]
        assert base_delays != other_delays
        assert base.to_json() != other.to_json()

    def test_workload_seed_is_independent_of_tenant_order(self):
        """Adding/reordering tenants must not perturb other workloads' data."""
        from repro.scenarios.runner import build_catalog
        from repro.scenarios.spec import ScenarioSpec, TenantSpec

        def lineorder_rows(tenants):
            spec = ScenarioSpec(name="s", description="x", tenants=tenants)
            return [
                segment.rows
                for segment in build_catalog(spec).relation("lineorder").segments
            ]

        ssb_only = (TenantSpec(tenant_id="s", queries=("ssb:q1_1",), cache_capacity=8),)
        with_mrbench_first = (
            TenantSpec(tenant_id="m", queries=("mrbench:join_task",), cache_capacity=8),
        ) + ssb_only
        assert lineorder_rows(ssb_only) == lineorder_rows(with_mrbench_first)

    def test_seed_is_recorded_in_the_report(self):
        spec = get_scenario("admission-burst")
        report = RUNNER.run(spec)
        assert report.seed == spec.seed
        assert report.spec["seed"] == spec.seed


class TestArrivalDeterminism:
    @pytest.mark.parametrize(
        "pattern",
        [
            SimultaneousArrival(),
            UniformArrival(gap_seconds=5.0),
            BurstyArrival(burst_size=2, burst_gap_seconds=60.0, jitter_seconds=2.0),
            PoissonArrival(mean_gap_seconds=10.0),
        ],
        ids=lambda pattern: pattern.kind,
    )
    def test_same_rng_seed_gives_same_delays(self, pattern):
        first = pattern.delays(6, random.Random(7))
        second = pattern.delays(6, random.Random(7))
        assert first == second
        assert len(first) == 6
        assert all(delay >= 0 for delay in first)

    def test_delays_are_sorted_for_deterministic_patterns(self):
        delays = UniformArrival(gap_seconds=3.0).delays(4, random.Random(1))
        assert delays == sorted(delays)
        poisson = PoissonArrival(mean_gap_seconds=10.0).delays(5, random.Random(1))
        assert poisson == sorted(poisson)
