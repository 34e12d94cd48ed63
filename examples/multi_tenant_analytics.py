#!/usr/bin/env python3
"""Multi-tenant analytics on a shared Cold Storage Device.

Recreates the paper's headline comparison (Figures 4 and 7) at a reduced
scale: several database clients, each with its own copy of a TPC-H-like
dataset on its own disk group, run TPC-H Q12 concurrently against one shared
CSD.  The script compares

* vanilla pull-based clients on the CSD (object-FCFS scheduling),
* Skipper clients on the CSD (cache-aware MJoin + rank-based scheduling), and
* the ideal HDD-based capacity tier (single group, no switches),

and prints average execution times for 1..N clients.

Run with::

    python examples/multi_tenant_analytics.py [max_clients]
"""

import sys

from repro.harness import experiments, format_table


def main(max_clients: int = 4) -> None:
    client_counts = tuple(range(1, max_clients + 1))
    results = experiments.figure7_skipper_scaling(
        client_counts=client_counts, scale="small", cache_capacity=12
    )

    rows = []
    for index, count in enumerate(results["clients"]):
        vanilla = results["postgresql"][index]
        skipper = results["skipper"][index]
        ideal = results["ideal"][index]
        rows.append(
            [
                count,
                round(vanilla, 1),
                round(skipper, 1),
                round(ideal, 1),
                round(vanilla / skipper, 2),
                round(skipper / ideal, 2),
            ]
        )
    print(
        format_table(
            ["clients", "postgresql-on-CSD (s)", "skipper-on-CSD (s)", "ideal HDD (s)",
             "speedup vs postgresql", "slowdown vs ideal"],
            rows,
            title="Average TPC-H Q12 execution time on a shared CSD (simulated seconds)",
        )
    )

    breakdown = experiments.figure9_breakdown(
        num_clients=max_clients, scale="small", cache_capacity=12
    )
    rows = [
        [
            system,
            f"{values['switch_fraction'] * 100:.1f}%",
            f"{values['transfer_fraction'] * 100:.1f}%",
            f"{values['processing_fraction'] * 100:.1f}%",
        ]
        for system, values in breakdown.items()
    ]
    print()
    print(
        format_table(
            ["system", "switch wait", "transfer wait", "processing"],
            rows,
            title=f"Execution-time breakdown with {max_clients} concurrent clients",
        )
    )


if __name__ == "__main__":
    max_clients = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    main(max_clients)
