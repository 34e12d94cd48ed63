"""A Star Schema Benchmark (SSB)-like workload.

The paper uses SSB at SF-50 as one of the mixed-workload clients (Figure 8).
SSB denormalises TPC-H into one large ``lineorder`` fact table and four
dimension tables; analytical queries join the fact table with a subset of
dimensions under selective filters.  Table and column names are prefixed so
the workload can coexist with the TPC-H tables inside a single catalog.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.engine.catalog import Catalog
from repro.engine.predicate import (
    And,
    Arithmetic,
    Between,
    Comparison,
    Literal,
    between,
    col,
    eq,
)
from repro.engine.query import AggregateSpec, JoinCondition, Query
from repro.engine.relation import Relation
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType
from repro.workloads.datagen import DataGenerator, ScaleProfile, TableProfile, lookup

SSB_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
SSB_YEARS = list(range(1992, 1999))


def _schemas() -> Dict[str, TableSchema]:
    return {
        "dates": TableSchema(
            "dates",
            [
                Column("d_datekey", DataType.INTEGER),
                Column("d_year", DataType.INTEGER),
                Column("d_month", DataType.INTEGER),
                Column("d_weeknum", DataType.INTEGER),
            ],
        ),
        "ssb_customer": TableSchema(
            "ssb_customer",
            [
                Column("sc_custkey", DataType.INTEGER),
                Column("sc_region", DataType.STRING),
                Column("sc_nation", DataType.STRING),
                Column("sc_city", DataType.STRING),
            ],
        ),
        "ssb_supplier": TableSchema(
            "ssb_supplier",
            [
                Column("ss_suppkey", DataType.INTEGER),
                Column("ss_region", DataType.STRING),
                Column("ss_nation", DataType.STRING),
                Column("ss_city", DataType.STRING),
            ],
        ),
        "ssb_part": TableSchema(
            "ssb_part",
            [
                Column("sp_partkey", DataType.INTEGER),
                Column("sp_mfgr", DataType.STRING),
                Column("sp_category", DataType.STRING),
                Column("sp_brand", DataType.STRING),
            ],
        ),
        "lineorder": TableSchema(
            "lineorder",
            [
                Column("lo_orderkey", DataType.INTEGER),
                Column("lo_custkey", DataType.INTEGER),
                Column("lo_partkey", DataType.INTEGER),
                Column("lo_suppkey", DataType.INTEGER),
                Column("lo_orderdatekey", DataType.INTEGER),
                Column("lo_quantity", DataType.INTEGER),
                Column("lo_extendedprice", DataType.FLOAT),
                Column("lo_discount", DataType.FLOAT),
                Column("lo_revenue", DataType.FLOAT),
                Column("lo_supplycost", DataType.FLOAT),
            ],
        ),
    }


SCALES: Dict[str, ScaleProfile] = {
    "tiny": ScaleProfile(
        "tiny",
        {
            "dates": TableProfile(1, 24),
            "ssb_customer": TableProfile(1, 16),
            "ssb_supplier": TableProfile(1, 8),
            "ssb_part": TableProfile(1, 12),
            "lineorder": TableProfile(4, 40),
        },
    ),
    "small": ScaleProfile(
        "small",
        {
            "dates": TableProfile(1, 48),
            "ssb_customer": TableProfile(1, 30),
            "ssb_supplier": TableProfile(1, 15),
            "ssb_part": TableProfile(1, 24),
            "lineorder": TableProfile(10, 60),
        },
    ),
    # SF-50 equivalent: the lineorder fact table dominates (~50 objects).
    "sf50": ScaleProfile(
        "sf50",
        {
            "dates": TableProfile(1, 60),
            "ssb_customer": TableProfile(2, 40),
            "ssb_supplier": TableProfile(1, 24),
            "ssb_part": TableProfile(2, 32),
            "lineorder": TableProfile(48, 80),
        },
    ),
}


def build_catalog(
    scale: Union[str, ScaleProfile],
    seed: int,
    *,
    catalog: Catalog,
) -> Catalog:
    """Generate the SSB-like dataset into ``catalog`` (which is returned)."""
    profile = (
        scale if isinstance(scale, ScaleProfile) else lookup(SCALES, scale, "SSB scale")
    )
    generator = DataGenerator(seed)
    schemas = _schemas()

    dates_rows = [
        {
            "d_datekey": index,
            "d_year": SSB_YEARS[index % len(SSB_YEARS)],
            "d_month": (index % 12) + 1,
            "d_weeknum": (index % 52) + 1,
        }
        for index in range(profile.profile("dates").total_rows)
    ]
    region = generator.choices(SSB_REGIONS)
    nation = generator.integers(0, 24)
    city = generator.integers(0, 9)
    customer_rows = [
        {
            "sc_custkey": index,
            "sc_region": region(),
            "sc_nation": f"NATION#{nation()}",
            "sc_city": f"CITY#{city()}",
        }
        for index in range(profile.profile("ssb_customer").total_rows)
    ]
    supplier_rows = [
        {
            "ss_suppkey": index,
            "ss_region": region(),
            "ss_nation": f"NATION#{nation()}",
            "ss_city": f"CITY#{city()}",
        }
        for index in range(profile.profile("ssb_supplier").total_rows)
    ]
    part_rows = [
        {
            "sp_partkey": index,
            "sp_mfgr": f"MFGR#{index % 5}",
            "sp_category": f"MFGR#{index % 5}{index % 5}",
            "sp_brand": f"MFGR#{index % 5}{index % 5}{index % 40}",
        }
        for index in range(profile.profile("ssb_part").total_rows)
    ]
    line_quantity = generator.integers(1, 50)
    line_price = generator.decimals(900.0, 50000.0)
    line_discount = generator.decimals(0.0, 0.10)
    line_customer = generator.integers(0, len(customer_rows) - 1)
    line_part = generator.integers(0, len(part_rows) - 1)
    line_supplier = generator.integers(0, len(supplier_rows) - 1)
    line_date = generator.integers(0, len(dates_rows) - 1)
    line_cost = generator.decimals(100.0, 1000.0)
    lineorder_rows = []
    for index in range(profile.profile("lineorder").total_rows):
        quantity = line_quantity()
        price = line_price()
        discount = line_discount()
        lineorder_rows.append(
            {
                "lo_orderkey": index // 4,
                "lo_custkey": line_customer(),
                "lo_partkey": line_part(),
                "lo_suppkey": line_supplier(),
                "lo_orderdatekey": line_date(),
                "lo_quantity": quantity,
                "lo_extendedprice": price,
                "lo_discount": discount,
                "lo_revenue": round(price * (1 - discount), 2),
                "lo_supplycost": line_cost(),
            }
        )

    rows_by_table = {
        "dates": dates_rows,
        "ssb_customer": customer_rows,
        "ssb_supplier": supplier_rows,
        "ssb_part": part_rows,
        "lineorder": lineorder_rows,
    }
    for table, rows in rows_by_table.items():
        catalog.register(
            Relation.from_rows(schemas[table], rows, profile.profile(table).rows_per_segment)
        )
    return catalog


def q1_1() -> Query:
    """SSB Q1.1: revenue gained from discount/quantity bands in one year."""
    revenue = Arithmetic("*", col("lo_extendedprice"), col("lo_discount"))
    return Query(
        name="ssb_q1_1",
        tables=["lineorder", "dates"],
        joins=[JoinCondition("lineorder", "lo_orderdatekey", "dates", "d_datekey")],
        filters={
            "dates": eq("d_year", 1993),
            "lineorder": And(
                Between(col("lo_discount"), 0.01, 0.06, inclusive=True),
                Comparison("<", col("lo_quantity"), Literal(25)),
            ),
        },
        group_by=[],
        aggregates=[
            AggregateSpec("sum", revenue, "revenue"),
            AggregateSpec("count", None, "matching_lineorders"),
        ],
    )


def q2_1() -> Query:
    """SSB Q2.1: revenue by year and brand for one part category and region."""
    return Query(
        name="ssb_q2_1",
        tables=["lineorder", "dates", "ssb_part", "ssb_supplier"],
        joins=[
            JoinCondition("lineorder", "lo_orderdatekey", "dates", "d_datekey"),
            JoinCondition("lineorder", "lo_partkey", "ssb_part", "sp_partkey"),
            JoinCondition("lineorder", "lo_suppkey", "ssb_supplier", "ss_suppkey"),
        ],
        filters={
            "ssb_part": eq("sp_category", "MFGR#11"),
            "ssb_supplier": eq("ss_region", "AMERICA"),
        },
        group_by=["d_year", "sp_brand"],
        aggregates=[AggregateSpec("sum", col("lo_revenue"), "revenue")],
        order_by=["d_year", "sp_brand"],
    )


def q3_1() -> Query:
    """SSB Q3.1: revenue flows between customer and supplier nations in Asia."""
    return Query(
        name="ssb_q3_1",
        tables=["lineorder", "dates", "ssb_customer", "ssb_supplier"],
        joins=[
            JoinCondition("lineorder", "lo_orderdatekey", "dates", "d_datekey"),
            JoinCondition("lineorder", "lo_custkey", "ssb_customer", "sc_custkey"),
            JoinCondition("lineorder", "lo_suppkey", "ssb_supplier", "ss_suppkey"),
        ],
        filters={
            "ssb_customer": eq("sc_region", "ASIA"),
            "ssb_supplier": eq("ss_region", "ASIA"),
            "dates": between("d_year", 1992, 1998),
        },
        group_by=["sc_nation", "ss_nation", "d_year"],
        aggregates=[AggregateSpec("sum", col("lo_revenue"), "revenue")],
        order_by=["d_year"],
    )


QUERIES = {"q1_1": q1_1, "q2_1": q2_1, "q3_1": q3_1}


def query(name: str) -> Query:
    """Build the SSB query registered under ``name`` (e.g. ``"q1_1"``)."""
    return lookup(QUERIES, name, "SSB query")()
