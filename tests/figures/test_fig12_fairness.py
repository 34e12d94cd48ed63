"""Figure 12 — balancing efficiency and fairness in the CSD I/O scheduler.

Paper reference (5 clients, skewed layout, Q12 x10): Max-Queries minimises
cumulative workload time but starves the lone client (largest max stretch);
FCFS trades efficiency for fairness; the rank-based policy balances both.
"""

from repro.harness import experiments, format_table


def test_figure12_fairness():
    result = experiments.figure12_fairness(repetitions=10)
    rows = [
        [
            policy,
            round(values["l2_norm_stretch"], 2),
            round(values["max_stretch"], 2),
            round(values["cumulative_time"], 1),
            int(values["group_switches"]),
        ]
        for policy, values in result.items()
    ]
    print()
    print(
        format_table(
            ["policy", "L2-norm stretch", "max stretch", "cumulative time (s)", "switches"],
            rows,
            title="Figure 12: fairness vs. efficiency of CSD scheduling policies",
        )
    )
    fairness = result["fairness"]
    maxquery = result["maxquery"]
    ranking = result["ranking"]
    # Efficiency: Max-Queries needs the fewest switches, FCFS the most.
    assert maxquery["group_switches"] <= ranking["group_switches"] <= fairness["group_switches"]
    # Fairness: the rank-based policy bounds the worst-served client better
    # than Max-Queries while staying close to it in cumulative time.
    assert ranking["max_stretch"] <= maxquery["max_stretch"]
    assert ranking["cumulative_time"] <= maxquery["cumulative_time"] * 1.2
