"""Figure 10 — sensitivity to the group-switch latency (Skipper vs. vanilla).

Paper reference: with five clients, vanilla degrades steeply as the switch
latency grows from 10 s to 40 s, while Skipper stays essentially flat (its
scheduler needs only one switch per group per query cycle).
"""

from repro.harness import experiments, format_table


def test_figure10_switch_latency():
    result = experiments.figure10_switch_latency(
        switch_latencies=(10.0, 20.0, 30.0, 40.0),
        num_clients=5,
    )
    rows = [
        [latency, round(vanilla, 1), round(skipper, 1)]
        for latency, vanilla, skipper in zip(
            result["switch_latency"], result["postgresql"], result["skipper"]
        )
    ]
    print()
    print(
        format_table(
            ["switch latency (s)", "PostgreSQL (s)", "Skipper (s)"],
            rows,
            title="Figure 10: sensitivity to the group-switch latency (5 clients, Q12)",
        )
    )
    vanilla_growth = result["postgresql"][-1] / result["postgresql"][0]
    skipper_growth = result["skipper"][-1] / result["skipper"][0]
    assert vanilla_growth > 2.0
    assert skipper_growth < 1.25
