"""Figure 9 — execution-time breakdown with five concurrent clients.

Paper reference: vanilla PostgreSQL spends ~98 % of the execution time
waiting (65 % of the total on group switches); Skipper reduces the switch
share to ~2 % and spends a substantial fraction on useful work.
"""

from repro.harness import experiments, format_table


def test_figure9_breakdown():
    result = experiments.figure9_breakdown(num_clients=5)
    rows = [
        [
            system,
            f"{values['switch_fraction'] * 100:.1f}%",
            f"{values['transfer_fraction'] * 100:.1f}%",
            f"{values['processing_fraction'] * 100:.1f}%",
        ]
        for system, values in result.items()
    ]
    print()
    print(
        format_table(
            ["system", "switch wait", "transfer wait", "processing"],
            rows,
            title="Figure 9: execution-time breakdown, 5 clients, TPC-H Q12",
        )
    )
    vanilla = result["postgresql"]
    skipper = result["skipper"]
    # Vanilla: waiting dominates, switches are a large share of it.
    assert vanilla["processing_fraction"] < 0.1
    assert vanilla["switch_fraction"] > 0.35
    # Skipper: the group-switch overhead is masked almost completely.
    assert skipper["switch_fraction"] < 0.05
    assert skipper["processing_fraction"] > vanilla["processing_fraction"]
