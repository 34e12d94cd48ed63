"""Ablation — cache-eviction policies under cache pressure.

Beyond the paper's headline figures: compares the paper's maximal-progress
policy against the maximal-pending-subplans heuristic it improved upon and
against LRU / FIFO baselines, at a cache that holds roughly a third of the
objects TPC-H Q5 touches.  Naive policies may fail to make progress at all
(reported as non-converged).
"""

import math

from repro.harness import experiments, format_table


def test_ablation_eviction_policies():
    result = experiments.ablation_eviction_policies(cache_capacity=8, num_clients=2)
    rows = [
        [
            policy,
            "yes" if values["converged"] else "no",
            round(values["avg_time"], 1) if math.isfinite(values["avg_time"]) else "-",
            round(values["get_requests_per_client"], 1)
            if math.isfinite(values["get_requests_per_client"])
            else "-",
        ]
        for policy, values in result.items()
    ]
    print()
    print(
        format_table(
            ["eviction policy", "converged", "avg time (s)", "GET requests / client"],
            rows,
            title="Ablation: cache-eviction policies (TPC-H Q5, cache of 8 objects)",
        )
    )
    assert result["max-progress"]["converged"] == 1.0
    assert result["max-pending-subplans"]["converged"] == 1.0
    # The subplan-aware policies dominate the classical ones.
    classical_best = min(
        result["lru"]["get_requests_per_client"], result["fifo"]["get_requests_per_client"]
    )
    subplan_aware_best = min(
        result["max-progress"]["get_requests_per_client"],
        result["max-pending-subplans"]["get_requests_per_client"],
    )
    assert subplan_aware_best < classical_best
