"""Figure 7 — Skipper vs. vanilla vs. ideal while scaling the client count.

Paper reference (TPC-H Q12, SF-50, 30 GB cache, 10 s switch): at five clients
Skipper outperforms vanilla PostgreSQL-on-CSD by ~3x and stays within ~35 %
of the ideal HDD-based configuration; vanilla degrades linearly.
"""

from repro.harness import experiments, format_table


def test_figure7_skipper_scaling():
    result = experiments.figure7_skipper_scaling(client_counts=(1, 2, 3, 4, 5))
    rows = []
    for index, clients in enumerate(result["clients"]):
        vanilla = result["postgresql"][index]
        skipper = result["skipper"][index]
        ideal = result["ideal"][index]
        rows.append(
            [
                clients,
                round(vanilla, 1),
                round(skipper, 1),
                round(ideal, 1),
                round(vanilla / skipper, 2),
                round(skipper / ideal, 2),
            ]
        )
    print()
    print(
        format_table(
            ["clients", "PostgreSQL (s)", "Skipper (s)", "Ideal (s)",
             "Skipper speedup", "Skipper vs ideal"],
            rows,
            title="Figure 7: average TPC-H Q12 execution time (SF-50 equivalent)",
        )
    )
    at_five = -1
    assert result["postgresql"][at_five] / result["skipper"][at_five] > 2.5
    assert result["skipper"][at_five] < result["postgresql"][at_five]
    assert result["ideal"][at_five] <= result["skipper"][at_five]
    # Skipper scales far better than vanilla with the client count.
    skipper_growth = result["skipper"][at_five] / result["skipper"][0]
    vanilla_growth = result["postgresql"][at_five] / result["postgresql"][0]
    assert skipper_growth < vanilla_growth / 2
