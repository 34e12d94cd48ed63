#!/usr/bin/env python3
"""Cache pressure and re-issued requests (Figure 11b/11c at reduced scale).

Runs TPC-H Q5 — the six-table join whose inputs nearly cover the whole
dataset — with Skipper under decreasing cache capacities and reports the
average execution time and the number of GET requests per client (initial
requests plus re-issues of evicted objects).  It also compares the paper's
maximal-progress eviction policy against simpler alternatives.

Run with::

    python examples/cache_pressure.py
"""

from repro.harness import experiments, format_table


def main() -> None:
    sweep = experiments.figure11b_cache_size(
        cache_sizes=(6, 8, 10, 14, 18), num_clients=2, scale="small"
    )
    rows = [
        [size, round(time, 1), round(gets, 1)]
        for size, time, gets in zip(
            sweep["cache_size"], sweep["skipper_time"], sweep["get_requests_per_client"]
        )
    ]
    print(
        format_table(
            ["cache size (objects)", "avg execution time (s)", "GET requests / client"],
            rows,
            title="Skipper under cache pressure (TPC-H Q5, 2 clients, small scale)",
        )
    )
    print(f"\nVanilla pull-based baseline: {sweep['postgresql_time']:.1f} s")

    print()
    ablation = experiments.ablation_eviction_policies(
        cache_capacity=8, num_clients=2, scale="small"
    )
    rows = [
        [policy, round(values["avg_time"], 1), round(values["get_requests_per_client"], 1)]
        for policy, values in ablation.items()
    ]
    print(
        format_table(
            ["eviction policy", "avg execution time (s)", "GET requests / client"],
            rows,
            title="Cache-eviction-policy ablation (cache of 8 objects)",
        )
    )


if __name__ == "__main__":
    main()
