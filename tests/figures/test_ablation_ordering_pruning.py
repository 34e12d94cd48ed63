"""Ablations — intra-group object ordering and empty-object subplan pruning.

* Ordering: semantically-smart round-robin across relations vs. table-major
  delivery within a loaded group, with the cache sized at one object per
  joined relation (Section 4.4's discussion).
* Pruning: a clustered, highly selective variant of TPC-H Q12 where most
  lineitem segments contain no qualifying rows; pruning should remove their
  subplans and avoid re-requesting them (Section 5.2.4's discussion).
"""

import math

from repro.harness import experiments, format_table


def test_ablation_intra_group_ordering():
    result = experiments.ablation_intra_group_ordering()
    rows = [
        [
            ordering,
            "yes" if values["converged"] else "no",
            round(values["avg_time"], 1) if math.isfinite(values["avg_time"]) else "-",
            round(values["get_requests_per_client"], 1)
            if math.isfinite(values["get_requests_per_client"])
            else "-",
        ]
        for ordering, values in result.items()
    ]
    print()
    print(
        format_table(
            ["intra-group ordering", "converged", "avg time (s)", "GET requests / client"],
            rows,
            title="Ablation: intra-group object ordering (TPC-H Q5, cache = one object per relation)",
        )
    )
    assert result["semantic-round-robin"]["converged"] == 1.0
    assert math.isfinite(result["semantic-round-robin"]["avg_time"])


def test_ablation_subplan_pruning():
    result = experiments.ablation_subplan_pruning()
    rows = [
        [
            label,
            round(values["avg_time"], 1),
            int(values["get_requests"]),
            int(values["subplans_executed"]),
            int(values["subplans_pruned"]),
        ]
        for label, values in result.items()
    ]
    print()
    print(
        format_table(
            ["configuration", "avg time (s)", "GET requests", "subplans executed", "subplans pruned"],
            rows,
            title="Ablation: empty-object subplan pruning (clustered selective Q12)",
        )
    )
    assert result["pruning-on"]["subplans_pruned"] > 0
    assert result["pruning-on"]["get_requests"] <= result["pruning-off"]["get_requests"]
    assert result["pruning-on"]["avg_time"] <= result["pruning-off"]["avg_time"]
