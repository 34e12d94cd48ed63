"""Table 3 — single-client component breakdown (query execution vs. network).

Paper reference: with all data on the shared store in a single group (no
group switches), a single client's TPC-H Q12 splits into ~42 % query
execution and ~57 % network access for PostgreSQL, and ~43 % / ~57 % for the
MJoin-enabled engine — i.e. out-of-order execution adds only marginal CPU
overhead, and remote storage roughly doubles execution time.
"""

from repro.harness import experiments, format_table


def test_table3_component_breakdown():
    result = experiments.table3_component_breakdown()
    rows = [
        [
            system,
            round(values["query_execution_seconds"], 1),
            round(values["network_access_seconds"], 1),
            f"{values['query_execution_fraction'] * 100:.1f}%",
            f"{values['network_access_fraction'] * 100:.1f}%",
        ]
        for system, values in result.items()
    ]
    print()
    print(
        format_table(
            ["system", "query execution (s)", "network access (s)", "execution %", "network %"],
            rows,
            title="Table 3: single-client component breakdown (single group, no switches)",
        )
    )
    vanilla = result["postgresql"]
    skipper = result["skipper"]
    # Network access dominates in both systems; CPU work is comparable
    # between the vanilla engine and the MJoin-enabled engine (the paper
    # reports a ~6 % difference in query-execution time).
    assert vanilla["network_access_seconds"] > vanilla["query_execution_seconds"]
    assert skipper["network_access_seconds"] > 0
    ratio = skipper["query_execution_seconds"] / vanilla["query_execution_seconds"]
    assert 0.8 < ratio < 1.3
