"""Table 1 / Figure 2 — acquisition cost of storage-tiering strategies.

Paper reference values for a 100 TB database (thousands of dollars):
All-SSD ≈ 7,680, All-SCSI = 1,382.40, All-SATA = 460.80, All-tape = 20.48,
2-tier = 783.36, 3-tier = 367.87, 4-tier = 493.82.  This reproduction
recomputes them from the published $/GB figures and must match exactly.
"""

import pytest

from repro.harness import experiments, format_table


def test_figure2_tiering_cost():
    rows = experiments.table1_figure2_tiering_cost()
    print()
    print(
        format_table(
            ["configuration", "cost (x1000 $)"],
            [[name, round(cost, 2)] for name, cost in rows.items()],
            title="Figure 2: acquisition cost of a 100 TB database",
        )
    )
    assert rows["all-scsi"] == pytest.approx(1382.40)
    assert rows["all-sata"] == pytest.approx(460.80)
    assert rows["all-tape"] == pytest.approx(20.48)
    assert rows["2-tier"] == pytest.approx(783.36)
    assert rows["3-tier"] == pytest.approx(367.872)
    assert rows["4-tier"] == pytest.approx(493.824)
