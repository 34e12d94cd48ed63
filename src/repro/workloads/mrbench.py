"""The "analytics benchmark" workload (Pavlo et al., SIGMOD 2009).

The paper's mixed-workload experiment (Figure 8) includes the join task from
"A comparison of approaches to large-scale data analysis" over a 20 GB
database: a join between a ``rankings`` table (pageURL, pageRank) and a
``uservisits`` table (sourceIP, destURL, visitDate, adRevenue) restricted to
a visit-date range, reporting revenue and page-rank statistics per source IP.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.engine.catalog import Catalog
from repro.engine.predicate import between, col
from repro.engine.query import AggregateSpec, JoinCondition, Query
from repro.engine.relation import Relation
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType, date_to_ordinal
from repro.workloads.datagen import DataGenerator, ScaleProfile, TableProfile, lookup

#: Number of distinct source IPs (keeps the join-task output a small report).
_SOURCE_IP_CARDINALITY = 40


def _schemas() -> Dict[str, TableSchema]:
    return {
        "rankings": TableSchema(
            "rankings",
            [
                Column("pr_pageid", DataType.INTEGER),
                Column("pr_pageurl", DataType.STRING),
                Column("pr_pagerank", DataType.INTEGER),
                Column("pr_avgduration", DataType.INTEGER),
            ],
        ),
        "uservisits": TableSchema(
            "uservisits",
            [
                Column("uv_sourceip", DataType.STRING),
                Column("uv_pageid", DataType.INTEGER),
                Column("uv_visitdate", DataType.DATE),
                Column("uv_adrevenue", DataType.FLOAT),
                Column("uv_useragent", DataType.STRING),
            ],
        ),
    }


SCALES: Dict[str, ScaleProfile] = {
    "tiny": ScaleProfile(
        "tiny",
        {"rankings": TableProfile(1, 20), "uservisits": TableProfile(3, 40)},
    ),
    "small": ScaleProfile(
        "small",
        {"rankings": TableProfile(2, 40), "uservisits": TableProfile(8, 60)},
    ),
    # The paper's analytics benchmark uses a 20 GB database: ~20 objects.
    "paper": ScaleProfile(
        "paper",
        {"rankings": TableProfile(4, 50), "uservisits": TableProfile(16, 80)},
    ),
}


def build_catalog(
    scale: Union[str, ScaleProfile],
    seed: int,
    *,
    catalog: Catalog,
) -> Catalog:
    """Generate the rankings/uservisits dataset into ``catalog`` (which is returned)."""
    profile = (
        scale if isinstance(scale, ScaleProfile) else lookup(SCALES, scale, "MR-bench scale")
    )
    generator = DataGenerator(seed)
    schemas = _schemas()

    rankings_profile = profile.profile("rankings")
    page_rank = generator.integers(0, 100)
    page_duration = generator.integers(1, 300)
    rankings_rows = [
        {
            "pr_pageid": index,
            "pr_pageurl": f"url#{index}",
            "pr_pagerank": page_rank(),
            "pr_avgduration": page_duration(),
        }
        for index in range(rankings_profile.total_rows)
    ]

    uservisits_profile = profile.profile("uservisits")
    visit_source = generator.integers(0, _SOURCE_IP_CARDINALITY - 1)
    visit_page = generator.integers(0, len(rankings_rows) - 1)
    visit_date = generator.dates("1999-01-01", "2001-12-31")
    visit_revenue = generator.decimals(0.0, 100.0)
    visit_agent = generator.choices(["firefox", "chrome", "safari", "opera"])
    uservisits_rows = [
        {
            "uv_sourceip": f"ip#{visit_source()}",
            "uv_pageid": visit_page(),
            "uv_visitdate": visit_date(),
            "uv_adrevenue": visit_revenue(),
            "uv_useragent": visit_agent(),
        }
        for index in range(uservisits_profile.total_rows)
    ]

    catalog.register(
        Relation.from_rows(schemas["rankings"], rankings_rows, rankings_profile.rows_per_segment)
    )
    catalog.register(
        Relation.from_rows(
            schemas["uservisits"], uservisits_rows, uservisits_profile.rows_per_segment
        )
    )
    return catalog


def join_task() -> Query:
    """The analytics-benchmark join task used in the mixed workload."""
    return Query(
        name="mrbench_join_task",
        tables=["rankings", "uservisits"],
        joins=[JoinCondition("uservisits", "uv_pageid", "rankings", "pr_pageid")],
        filters={
            "uservisits": between(
                "uv_visitdate",
                date_to_ordinal("2000-01-15"),
                date_to_ordinal("2000-01-22") + 330,
            )
        },
        group_by=["uv_sourceip"],
        aggregates=[
            AggregateSpec("sum", col("uv_adrevenue"), "total_revenue"),
            AggregateSpec("avg", col("pr_pagerank"), "avg_pagerank"),
        ],
        order_by=["uv_sourceip"],
    )


def aggregation_task() -> Query:
    """The analytics-benchmark aggregation task (single-table group by)."""
    return Query(
        name="mrbench_aggregation_task",
        tables=["uservisits"],
        group_by=["uv_sourceip"],
        aggregates=[AggregateSpec("sum", col("uv_adrevenue"), "total_revenue")],
        order_by=["uv_sourceip"],
    )


QUERIES = {"join_task": join_task, "aggregation_task": aggregation_task}


def query(name: str) -> Query:
    """Build the analytics-benchmark query registered under ``name``."""
    return lookup(QUERIES, name, "MR-bench query")()
