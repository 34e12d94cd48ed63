"""Table 2 — the data layout and execution subplan example.

Paper reference: three relations A, B, C with two segments each, spread over
three disk groups, yield eight execution subplans.
"""

from repro.harness import experiments, format_table


def test_table2_subplan_example():
    result = experiments.table2_subplan_example()
    print()
    print(
        format_table(
            ["group", "objects"],
            [[group, ", ".join(objects)] for group, objects in result["layout"]],
            title="Table 2 (left): data layout",
        )
    )
    print(
        format_table(
            ["id", "subplan"],
            [[index + 1, ", ".join(subplan)] for index, subplan in enumerate(result["subplans"])],
            title="Table 2 (right): execution subplans",
        )
    )
    assert len(result["subplans"]) == 8
    assert len({tuple(subplan) for subplan in result["subplans"]}) == 8
