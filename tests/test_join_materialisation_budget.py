"""A deterministic budget for the join chain: row dicts built == rows emitted.

A joined row is the tuple of base rows that produced it and the row dict is
built once, by ``materialise_rows``, from what the *top* join emits.  The
count of rows that function is handed repeats exactly, so it can gate in
tier-1 where a wall-clock number cannot (compare
``tests/test_request_path_budget.py``): with dicts merged at every join it
is the sum of ``tuples_output`` over all joins of the chain (TPC-H Q5 at
``sf100``: 6 187 instead of 235), and a quarter of ``vanilla-pull``'s wall
time in the ledger.

When it trips: a join materialises below the top of its chain.  Diff
``HashJoin.rows`` / ``HashJoin._joined_rows`` and ``Planner.build_operator_tree``
against the parent commit — something calls ``rows()`` on a probe-side join
or wraps one in an operator that is not a ``HashJoin`` (the planner puts the
aggregate *above* the chain).  MJoin's side of the same count (one dict per
result row, none for an intermediate of the batch join) is asserted by
``tests/test_core_njoin_mjoin.py::TestWitnesses``.
"""

from __future__ import annotations

import pytest

from repro.engine import Planner
from repro.engine.operators import HashJoin
from repro.workloads import ssb, tpch

JOIN_QUERIES = [
    pytest.param(workload, name, id=f"{workload.__name__.rsplit('.', 1)[-1]}-{name}")
    for workload in (tpch, ssb)
    for name in sorted(workload.QUERIES)
    if len(workload.query(name).tables) > 1
]


def test_every_multi_table_query_is_gated():
    assert len(JOIN_QUERIES) == 6  # TPC-H Q3, Q5, Q12 and the three SSB queries


@pytest.mark.parametrize("workload, name", JOIN_QUERIES)
def test_pull_based_chain_builds_one_dict_per_row_of_the_top_join(workload, name, materialised):
    catalog = workload.build_catalog("small", seed=42)
    planner = Planner(catalog)
    root = planner.build_operator_tree(planner.plan(workload.query(name)))
    root.rows()
    top = root
    while not isinstance(top, HashJoin):
        (top,) = top.children()
    chain = [top]
    while isinstance(chain[-1].probe, HashJoin):
        chain.append(chain[-1].probe)
    assert len(chain) == len(workload.query(name).tables) - 1
    assert top.stats.tuples_output > 0
    assert len(materialised) == top.stats.tuples_output, (
        f"{len(materialised)} row dicts built for {top.stats.tuples_output} joined rows "
        f"(all joins of the chain emit {sum(join.stats.tuples_output for join in chain)})"
    )
