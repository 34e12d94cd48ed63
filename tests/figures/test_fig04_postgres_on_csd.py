"""Figure 4 — vanilla PostgreSQL on a CSD vs. the HDD-based capacity tier.

Paper reference (TPC-H Q12, SF-50, 10 s group switch): the average execution
time of PostgreSQL-on-CSD grows roughly linearly with the number of clients
(~S x C x D), reaching several thousand seconds at five clients, while the
HDD-based configuration stays roughly flat.
"""

import pytest

from repro.harness import experiments, format_table


def test_figure4_postgres_on_csd():
    result = experiments.figure4_postgres_on_csd(client_counts=(1, 2, 3, 4, 5))
    rows = [
        [clients, round(on_csd, 1), round(on_hdd, 1), round(on_csd / on_hdd, 2)]
        for clients, on_csd, on_hdd in zip(
            result["clients"], result["postgresql_on_csd"], result["postgresql_on_hdd"]
        )
    ]
    print()
    print(
        format_table(
            ["clients", "PostgreSQL-on-CSD (s)", "PostgreSQL-on-HDD (s)", "slowdown"],
            rows,
            title="Figure 4: vanilla engine on CSD vs. HDD (TPC-H Q12, SF-50 equivalent)",
        )
    )
    csd = result["postgresql_on_csd"]
    hdd = result["postgresql_on_hdd"]
    # Linear degradation on the CSD, flat on the HDD tier.
    assert csd[-1] > 3.5 * csd[0]
    assert hdd[-1] == pytest.approx(hdd[0], rel=0.05)
    assert csd[-1] > 3.0 * hdd[-1]
