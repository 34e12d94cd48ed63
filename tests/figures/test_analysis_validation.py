"""Validation — the paper's closed-form models vs. the simulator.

The paper derives simple expressions for both systems (Sections 3.2 and
5.2.1): vanilla pull-based execution costs ≈ S·C·D while a Skipper client
waits ≈ (C−1)·(D/B + S).  This benchmark runs the simulator at SF-50 scale
and checks that it lands near those predictions — a sanity check that the
simulated CSD, schedulers and executors compose the way the paper's analysis
assumes.
"""

import pytest

from repro.harness import experiments, format_table
from repro.model import AnalyticalModel
from repro.workloads import tpch


def test_analytical_model_matches_simulation():
    catalog = tpch.build_catalog("sf50", seed=42)
    query = tpch.q12()
    segments = catalog.num_segments("orders") + catalog.num_segments("lineitem")

    def run():
        measured = {}
        for clients in (2, 4):
            vanilla = experiments.run_uniform_cluster(
                catalog, query, clients, mode="vanilla"
            ).average_execution_time()
            skipper = experiments.run_uniform_cluster(
                catalog, query, clients, mode="skipper", cache_capacity=segments
            ).average_execution_time()
            measured[clients] = {"vanilla": vanilla, "skipper": skipper}
        return measured

    measured = run()
    rows = []
    for clients, values in measured.items():
        model = AnalyticalModel(num_clients=clients, num_segments=segments)
        rows.append(
            [
                clients,
                round(model.vanilla_time(), 1),
                round(values["vanilla"], 1),
                round(model.skipper_time(), 1),
                round(values["skipper"], 1),
            ]
        )
    print()
    print(
        format_table(
            ["clients", "vanilla predicted (s)", "vanilla measured (s)",
             "skipper predicted (s)", "skipper measured (s)"],
            rows,
            title="Analytical model (S*C*D and (C-1)(D/B+S)) vs. simulation (Q12, SF-50)",
        )
    )
    for clients, values in measured.items():
        model = AnalyticalModel(num_clients=clients, num_segments=segments)
        assert values["vanilla"] == pytest.approx(model.vanilla_time(), rel=0.30)
        assert values["skipper"] == pytest.approx(model.skipper_time(), rel=0.35)
