#!/usr/bin/env python3
"""Balancing efficiency and fairness in the CSD I/O scheduler.

Recreates the paper's Figure 12 at a reduced scale: five Skipper clients on a
*skewed* layout (two disk groups hold two tenants each, the third holds a
single tenant) repeatedly run TPC-H Q12 while the CSD uses one of three
scheduling policies:

* query-FCFS ("fairness") — fair but switch-happy,
* Max-Queries ("maxquery") — efficient but starves the lone tenant,
* the paper's rank-based policy ("ranking") — balances both.

The script reports the L2 norm of stretch, the maximum stretch and the
cumulative workload time per policy.

Run with::

    python examples/scheduler_fairness.py
"""

from repro.harness import experiments, format_table


def main() -> None:
    results = experiments.figure12_fairness(
        num_clients=5, repetitions=3, scale="small", cache_capacity=12
    )
    rows = [
        [
            policy,
            round(values["l2_norm_stretch"], 2),
            round(values["max_stretch"], 2),
            round(values["mean_stretch"], 2),
            round(values["cumulative_time"], 1),
            int(values["group_switches"]),
        ]
        for policy, values in results.items()
    ]
    print(
        format_table(
            ["policy", "L2-norm stretch", "max stretch", "mean stretch",
             "cumulative time (s)", "group switches"],
            rows,
            title="Fairness vs. efficiency of CSD I/O scheduling policies (skewed layout)",
        )
    )
    print()
    print("Expected shape (paper, Figure 12): maxquery minimises cumulative time but has")
    print("the largest max stretch; fairness (FCFS) minimises stretch at the cost of time;")
    print("ranking sits in between on both metrics.")


if __name__ == "__main__":
    main()
