"""Load-aware placement and adaptive routing: weighted rings, latency
EWMAs, replica-choice policies and the feedback rebalancer.

The headline acceptance pin lives here: on the same mixed-speed fleet and
traffic, profile-weighted placement plus ewma-latency routing must beat the
hash-uniform least-loaded baseline on *both* tail latency and busy-time
imbalance.  The hypothesis section pins the weighted ring's contract: share
tracks weight, all-equal weights collapse to the unweighted ring byte for
byte, and the bulk arc-sweep agrees with per-key lookup.
"""

from __future__ import annotations

from typing import Dict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from placement_oracle import brute_force_place

from repro.exceptions import ConfigurationError, ScenarioError
from repro.fleet.placement import ConsistentHashPlacement, normalize_weights
from repro.fleet.spec import FleetSpec, RebalancePolicy
from repro.obs import Ewma
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.report import ScenarioReport

_RUNNER = ScenarioRunner()
_REPORTS: Dict[str, ScenarioReport] = {}


def report_for(name: str) -> ScenarioReport:
    if name not in _REPORTS:
        _REPORTS[name] = _RUNNER.run(get_scenario(name))
    return _REPORTS[name]


def keys(count: int) -> list:
    return [f"tenant{index % 5}/lineitem.{index}" for index in range(count)]


class TestNormalizeWeights:
    def test_mean_normalises_to_one(self):
        weights = normalize_weights({"a": 1.0, "b": 2.0, "c": 3.0})
        assert sum(weights.values()) == pytest.approx(3.0)
        assert weights["b"] == pytest.approx(1.0)

    def test_all_equal_weights_become_exactly_one(self):
        weights = normalize_weights({"a": 0.7, "b": 0.7, "c": 0.7})
        assert all(value == 1.0 for value in weights.values())

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), True, "2"])
    def test_degenerate_weight_values_are_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            normalize_weights({"a": 1.0, "b": bad})

    def test_empty_mapping_is_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_weights({})


class TestEwma:
    def test_first_sample_initialises_then_smooths(self):
        ewma = Ewma(alpha=0.5)
        assert ewma.observe(10.0) == 10.0
        assert ewma.observe(20.0) == 15.0
        assert ewma.count == 2

    def test_value_with_zero_samples_is_an_error(self):
        ewma = Ewma(alpha=0.3)
        with pytest.raises(ConfigurationError):
            _ = ewma.value
        assert ewma.value_or(0.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, float("nan"), True])
    def test_degenerate_alpha_is_rejected(self, alpha):
        with pytest.raises(ConfigurationError):
            Ewma(alpha=alpha)

    def test_non_finite_samples_are_rejected(self):
        ewma = Ewma(alpha=0.3)
        with pytest.raises(ConfigurationError):
            ewma.observe(float("nan"))


class TestSpecValidation:
    def test_unknown_weighting_rejected(self):
        with pytest.raises(ScenarioError):
            FleetSpec(devices=3, weighting="guess")

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_ewma_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ScenarioError):
            FleetSpec(devices=3, ewma_alpha=alpha)

    @pytest.mark.parametrize("interval", [0.0, -5.0, float("inf")])
    def test_rebalance_interval_must_be_positive_and_finite(self, interval):
        with pytest.raises(ScenarioError):
            RebalancePolicy(interval_seconds=interval)


class TestWeightedRingProperties:
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        weights=st.lists(
            st.sampled_from([0.5, 1.0, 2.0]), min_size=2, max_size=4
        )
    )
    def test_primary_share_tracks_vnode_share(self, weights):
        """Each device's primary-key share stays close to its share of the
        ring's vnodes (which is the weight share, post-rounding)."""
        policy = ConsistentHashPlacement(replication=1, virtual_nodes=64)
        roster = [f"csd{index}" for index in range(len(weights))]
        policy.set_weights(dict(zip(roster, weights)))
        counts = policy.vnode_counts(roster)
        placement = policy.place(keys(1500), roster)
        owned = {device_id: 0 for device_id in roster}
        for replicas in placement.values():
            owned[replicas[0]] += 1
        total_vnodes = sum(counts)
        for device_id, vnodes in zip(roster, counts):
            expected = vnodes / total_vnodes
            observed = owned[device_id] / 1500
            # Hash placement is noisy; the bound only needs to separate
            # "share follows weight" from "weights ignored" (where every
            # share would sit at 1/len(roster)).
            assert abs(observed - expected) < 0.10

    @settings(max_examples=15, deadline=None)
    @given(
        weight=st.floats(
            min_value=0.1, max_value=9.0, allow_nan=False, allow_infinity=False
        ),
        devices=st.integers(min_value=1, max_value=5),
    )
    def test_all_equal_weights_ring_is_byte_identical_to_unweighted(
        self, weight, devices
    ):
        roster = [f"csd{index}" for index in range(devices)]
        population = keys(300)
        unweighted = ConsistentHashPlacement(replication=1, virtual_nodes=32)
        baseline = unweighted.place(population, roster)
        weighted = ConsistentHashPlacement(replication=1, virtual_nodes=32)
        weighted.set_weights({device_id: weight for device_id in roster})
        assert weighted.vnode_counts(roster) == (32,) * devices
        assert weighted.place(population, roster) == baseline

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        weights=st.lists(
            st.floats(
                min_value=0.25, max_value=4.0, allow_nan=False, allow_infinity=False
            ),
            min_size=2,
            max_size=4,
        ),
        replication=st.integers(min_value=1, max_value=2),
    )
    def test_bulk_weighted_place_matches_per_key_lookup(self, weights, replication):
        policy = ConsistentHashPlacement(
            replication=replication, virtual_nodes=48
        )
        roster = [f"csd{index}" for index in range(len(weights))]
        policy.set_weights(dict(zip(roster, weights)))
        population = keys(400)
        sorted_hashes = sorted(
            zip(policy.bulk_key_hashes(population), population)
        )
        bulk = policy.place(population, roster, sorted_key_hashes=sorted_hashes)
        for key, replicas in brute_force_place(policy, population[::7], roster).items():
            assert bulk[key] == replicas


class TestLoadAwareScenarios:
    def test_load_aware_beats_hash_uniform_baseline(self):
        """The acceptance pin: same fleet, same traffic, same seed — the
        weighted ring + ewma-latency routing must strictly cut both the p99
        request latency and the busy-time imbalance coefficient."""
        baseline = report_for("fleet-load-aware-baseline")
        treated = report_for("fleet-load-aware")
        baseline_p99 = baseline.routing["request_latency"]["p99"]
        treated_p99 = treated.routing["request_latency"]["p99"]
        assert treated_p99 < baseline_p99
        assert (
            treated.fleet["imbalance_coefficient"]
            < baseline.fleet["imbalance_coefficient"]
        )

    def test_profile_weighting_shrinks_the_straggler_arc(self):
        routing = report_for("fleet-load-aware").routing
        per_device = routing["per_device"]
        # csd1 is the 2x-slow straggler, csd2 the 2x-fast device.
        assert per_device["csd1"]["weight"] < 1.0 < per_device["csd2"]["weight"]
        assert per_device["csd1"]["vnode_count"] < per_device["csd2"]["vnode_count"]
        assert routing["weighting"] == "profile"
        assert routing["replica_policy"] == "ewma-latency"

    def test_routing_section_shape(self):
        routing = report_for("fleet-load-aware").routing
        choices = routing["replica_choices"]
        latency = routing["request_latency"]
        assert choices["primary"] + choices["diverted"] == latency["count"] > 0
        assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
        for entry in routing["per_device"].values():
            if entry["completed_requests"]:
                assert entry["ewma_latency_seconds"] > 0.0
                assert entry["mean_latency_seconds"] > 0.0
        assert report_for("uniform").routing is None

    def test_feedback_rebalancer_triggers_reweight_epochs(self):
        report = report_for("fleet-adaptive-rebalance")
        rebalancer = report.routing["rebalancer"]
        assert rebalancer["ticks"] >= 2
        assert rebalancer["reweight_epochs"] >= 1
        triggered = [entry for entry in rebalancer["log"] if entry["triggered"]]
        assert all(entry["outcome"] == "reweighted" for entry in triggered)
        reweight_epochs = [
            record
            for record in report.rebalance["events"]
            if record["kind"] == "reweight"
        ]
        assert len(reweight_epochs) == rebalancer["reweight_epochs"]
        reweight_plans = [
            plan for plan in report.rebalance["plans"] if plan["kind"] == "reweight"
        ]
        assert reweight_plans
        # Individual plans can move zero keys (every gained replica may be a
        # re-adoption of a still-resident copy), but a reweight that shifts
        # arc share must move something overall.
        assert sum(plan["keys_moved"] for plan in reweight_plans) > 0

    def test_rebalancer_log_entries_explain_skips(self):
        log = report_for("fleet-adaptive-rebalance").routing["rebalancer"]["log"]
        known = {
            "below-threshold",
            "insufficient-samples",
            "weights-stable",
            "reweighted",
        }
        assert log and all(entry["outcome"] in known for entry in log)
