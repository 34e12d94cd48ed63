"""Figure 3 — savings of the CSD-based cold storage tier.

Paper reference: replacing the capacity + archival tiers with a CSD tier
reduces cost by 1.70x / 1.44x (3-tier / 4-tier) at $0.1/GB, 1.63x / 1.40x at
$0.2/GB and 1.24x / 1.17x at $1/GB.
"""

import pytest

from repro.harness import experiments, format_table


def test_figure3_cst_savings():
    rows = experiments.figure3_cst_savings()
    table_rows = []
    for base, per_price in rows.items():
        for price, values in per_price.items():
            table_rows.append(
                [
                    base,
                    price,
                    round(values["traditional_cost"], 1),
                    round(values["csd_cost"], 1),
                    round(values["savings_factor"], 2),
                ]
            )
    print()
    print(
        format_table(
            ["base", "CSD $/GB", "traditional (x1000$)", "with CST (x1000$)", "savings"],
            table_rows,
            title="Figure 3: cost savings of the cold storage tier",
        )
    )
    assert rows["3-tier"][0.1]["savings_factor"] == pytest.approx(1.70, abs=0.01)
    assert rows["4-tier"][0.1]["savings_factor"] == pytest.approx(1.44, abs=0.01)
    assert rows["3-tier"][1.0]["savings_factor"] == pytest.approx(1.24, abs=0.01)
