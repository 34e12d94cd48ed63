"""Tests for the analytical models and their agreement with the simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.harness import experiments
from repro.model import (
    AnalyticalModel,
    mjoin_expected_cycles,
    mjoin_expected_requests,
    skipper_average_execution_time,
    skipper_waiting_time,
    vanilla_execution_time,
)
from repro.workloads import tpch


class TestFormulas:
    def test_vanilla_time_is_s_times_c_times_d(self):
        assert vanilla_execution_time(10.0, 5, 57) == pytest.approx(10.0 * 5 * 57)
        assert vanilla_execution_time(10.0, 5, 57, transfer_seconds_per_object=9.6) == pytest.approx(
            57 * 5 * 19.6
        )

    def test_vanilla_time_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            vanilla_execution_time(10.0, 0, 57)
        with pytest.raises(ConfigurationError):
            vanilla_execution_time(-1.0, 5, 57)

    def test_skipper_waiting_grows_with_position(self):
        waits = [skipper_waiting_time(10.0, k, 57, 9.6) for k in (1, 2, 3)]
        assert waits[0] == 0.0
        assert waits[1] == pytest.approx(57 * 9.6 + 10.0)
        assert waits[2] == pytest.approx(2 * (57 * 9.6 + 10.0))
        with pytest.raises(ConfigurationError):
            skipper_waiting_time(10.0, 0, 57, 9.6)

    def test_mjoin_cycles_formula(self):
        # Hash-join regime: the cache holds all but one relation.
        assert mjoin_expected_cycles(2, 10, 10) == 1.0
        # Constrained regime: (R*S/C)^(R-1).
        assert mjoin_expected_cycles(2, 10, 5) == pytest.approx((20 / 5) ** 1)
        assert mjoin_expected_cycles(3, 9, 9) == pytest.approx(((27) / 9) ** 2)
        with pytest.raises(ConfigurationError):
            mjoin_expected_cycles(4, 10, 3)

    def test_mjoin_requests_monotone_in_cache_size(self):
        small = mjoin_expected_requests(3, 9, 6)
        large = mjoin_expected_requests(3, 9, 18)
        assert small > large >= 3 * 9

    @given(
        switch=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
        clients=st.integers(min_value=1, max_value=10),
        segments=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_vanilla_time_scales_linearly(self, switch, clients, segments):
        single = vanilla_execution_time(switch, clients, segments)
        doubled_clients = vanilla_execution_time(switch, clients * 2, segments)
        doubled_segments = vanilla_execution_time(switch, clients, segments * 2)
        assert doubled_clients == pytest.approx(2 * single)
        assert doubled_segments == pytest.approx(2 * single)

    @given(
        clients=st.integers(min_value=1, max_value=8),
        segments=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_skipper_beats_vanilla_whenever_there_is_contention(self, clients, segments):
        vanilla = vanilla_execution_time(10.0, clients, segments, 9.6)
        skipper = skipper_average_execution_time(10.0, clients, segments, 9.6)
        if clients > 1:
            assert skipper < vanilla
        else:
            assert skipper <= vanilla + 10.0  # one extra group switch at most


class TestModelAgainstSimulator:
    """The simulator should land near the closed-form predictions."""

    def test_vanilla_prediction_matches_simulation(self, small_tpch_catalog):
        query = tpch.q12()
        segments = small_tpch_catalog.num_segments("orders") + small_tpch_catalog.num_segments(
            "lineitem"
        )
        result = experiments.run_uniform_cluster(
            small_tpch_catalog, query, num_clients=3, mode="vanilla", switch_seconds=10.0
        )
        model = AnalyticalModel(
            switch_seconds=10.0,
            transfer_seconds_per_object=9.6,
            num_clients=3,
            num_segments=segments,
        )
        predicted = model.vanilla_time()
        measured = result.average_execution_time()
        assert measured == pytest.approx(predicted, rel=0.30)

    def test_skipper_prediction_matches_simulation(self, small_tpch_catalog):
        query = tpch.q12()
        segments = small_tpch_catalog.num_segments("orders") + small_tpch_catalog.num_segments(
            "lineitem"
        )
        result = experiments.run_uniform_cluster(
            small_tpch_catalog,
            query,
            num_clients=3,
            mode="skipper",
            switch_seconds=10.0,
            cache_capacity=segments,
        )
        model = AnalyticalModel(
            switch_seconds=10.0,
            transfer_seconds_per_object=9.6,
            num_clients=3,
            num_segments=segments,
        )
        predicted = model.skipper_time()
        measured = result.average_execution_time()
        assert measured == pytest.approx(predicted, rel=0.35)

    def test_speedup_prediction_has_the_right_magnitude(self, small_tpch_catalog):
        query = tpch.q12()
        segments = small_tpch_catalog.num_segments("orders") + small_tpch_catalog.num_segments(
            "lineitem"
        )
        model = AnalyticalModel(num_clients=4, num_segments=segments)
        vanilla = experiments.run_uniform_cluster(
            small_tpch_catalog, query, num_clients=4, mode="vanilla"
        ).average_execution_time()
        skipper = experiments.run_uniform_cluster(
            small_tpch_catalog, query, num_clients=4, mode="skipper", cache_capacity=segments
        ).average_execution_time()
        measured_speedup = vanilla / skipper
        assert measured_speedup == pytest.approx(model.speedup(), rel=0.4)

    def test_latency_sensitivity_prediction(self):
        model = AnalyticalModel(num_clients=5, num_segments=57, transfer_seconds_per_object=0.0)
        # Doubling the switch latency doubles the vanilla execution time when
        # transfers are negligible.
        assert model.latency_sensitivity(20.0) == pytest.approx(2.0)

    def test_mjoin_request_prediction_tracks_measured_requests(self, small_tpch_catalog):
        """The cache-size sweep should follow the (R·S/C)^(R-1) trend."""
        query = tpch.q5()
        per_relation = [small_tpch_catalog.num_segments(table) for table in query.tables]
        total_objects = sum(per_relation)
        average_segments = total_objects / len(per_relation)
        measured = {}
        for cache in (6, 10, 18):
            result = experiments.run_uniform_cluster(
                small_tpch_catalog,
                query,
                num_clients=1,
                mode="skipper",
                cache_capacity=cache,
            )
            measured[cache] = result.total_get_requests()
        predicted = {
            cache: mjoin_expected_requests(len(per_relation), average_segments, cache)
            for cache in measured
        }
        # Both fall as the cache grows, and the smallest cache needs at least
        # twice as many requests as the largest in both model and simulation.
        assert measured[6] > measured[10] > measured[18]
        assert predicted[6] > predicted[10] > predicted[18]
        assert measured[6] / measured[18] > 2.0
