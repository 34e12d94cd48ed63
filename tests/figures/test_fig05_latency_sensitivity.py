"""Figure 5 — vanilla engine's sensitivity to the group-switch latency.

Paper reference: with five clients running TPC-H Q12, increasing the group
switch latency from 0 to 20 seconds increases execution time ~6x.
"""

from repro.harness import experiments, format_table


def test_figure5_latency_sensitivity():
    result = experiments.figure5_latency_sensitivity(
        switch_latencies=(0.0, 5.0, 10.0, 15.0, 20.0),
        num_clients=5,
    )
    rows = [
        [latency, round(seconds, 1)]
        for latency, seconds in zip(result["switch_latency"], result["postgresql_on_csd"])
    ]
    print()
    print(
        format_table(
            ["group switch latency (s)", "avg execution time (s)"],
            rows,
            title="Figure 5: vanilla engine sensitivity to group-switch latency (5 clients)",
        )
    )
    times = result["postgresql_on_csd"]
    assert all(later >= earlier for earlier, later in zip(times, times[1:]))
    # The paper reports ~6x between 0 s and 20 s.
    assert times[-1] / times[0] > 3.0
