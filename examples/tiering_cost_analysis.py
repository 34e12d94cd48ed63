#!/usr/bin/env python3
"""Storage-tiering acquisition-cost analysis (Table 1, Figures 2 and 3).

Computes the cost of housing a database under the storage strategies the
paper examines, and the savings of replacing the capacity + archival tiers
with a CSD-based cold storage tier at several CSD price points.

Run with::

    python examples/tiering_cost_analysis.py [database_terabytes]
"""

import sys

from repro.harness import experiments, format_table


def main(database_terabytes: float = 100.0) -> None:
    database_gb = database_terabytes * 1024

    figure2 = experiments.table1_figure2_tiering_cost(database_gb=database_gb)
    rows = [[name, round(cost, 2)] for name, cost in figure2.items()]
    print(
        format_table(
            ["configuration", "cost (x1000 $)"],
            rows,
            title=f"Figure 2: acquisition cost of a {database_terabytes:.0f} TB database",
        )
    )

    figure3 = experiments.figure3_cst_savings(database_gb=database_gb)
    rows = []
    for base, per_price in figure3.items():
        for price, values in per_price.items():
            rows.append(
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
            ["base strategy", "CSD $/GB", "traditional (x1000 $)", "with CST (x1000 $)",
             "savings factor"],
            rows,
            title="Figure 3: savings of the CSD-based cold storage tier",
        )
    )


if __name__ == "__main__":
    terabytes = float(sys.argv[1]) if len(sys.argv) > 1 else 100.0
    main(terabytes)
