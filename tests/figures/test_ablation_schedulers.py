"""Ablations — CSD scheduling policies and the fairness constant K.

Extends Figure 12 with two sweeps that are discussed but not plotted in the
paper:

* Skipper clients under every scheduler, including the slack-FCFS policy that
  models off-the-shelf CSD firmware (FCFS with a reordering slack): the
  query-oblivious policies pay many more group switches.
* The rank-based scheduler's fairness constant K (Section 4.4): K = 0
  degenerates to Max-Queries; K = 1 — the paper's choice — maximises fairness
  with only a marginal efficiency cost.
"""

from repro.harness import experiments, format_table


def test_ablation_csd_schedulers():
    result = experiments.ablation_csd_schedulers(num_clients=4)
    rows = [
        [policy, round(values["avg_time"], 1), int(values["group_switches"])]
        for policy, values in result.items()
    ]
    print()
    print(
        format_table(
            ["scheduler", "avg execution time (s)", "group switches"],
            rows,
            title="Ablation: CSD scheduling policies under Skipper clients "
            "(4 tenants, incremental layout, Q12 x2)",
        )
    )
    # Group-aware policies need far fewer switches than strict object FCFS;
    # the reordering slack recovers part of the gap, the query-aware policies
    # the rest.
    assert result["rank-based"]["group_switches"] <= result["object-fcfs"]["group_switches"] / 2
    assert result["slack-fcfs"]["group_switches"] < result["object-fcfs"]["group_switches"]
    assert result["max-queries"]["group_switches"] <= result["slack-fcfs"]["group_switches"]
    # Fewer switches never hurt end-to-end time.
    assert result["rank-based"]["avg_time"] <= result["object-fcfs"]["avg_time"] * 1.05


def test_ablation_fairness_constant():
    result = experiments.ablation_fairness_constant()
    rows = [
        [
            constant,
            round(values["max_stretch"], 2),
            round(values["l2_norm_stretch"], 2),
            round(values["cumulative_time"], 1),
            int(values["group_switches"]),
        ]
        for constant, values in result.items()
    ]
    print()
    print(
        format_table(
            ["K", "max stretch", "L2-norm stretch", "cumulative time (s)", "switches"],
            rows,
            title="Ablation: fairness constant K of the rank-based scheduler (skewed layout)",
        )
    )
    # K = 0 (Max-Queries behaviour) starves the lone tenant more than K = 1.
    assert result[1.0]["max_stretch"] <= result[0.0]["max_stretch"]
    # Fairness costs little efficiency at K = 1.
    assert result[1.0]["cumulative_time"] <= result[0.0]["cumulative_time"] * 1.25
