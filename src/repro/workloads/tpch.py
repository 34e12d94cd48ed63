"""A TPC-H-like workload.

The paper's main experiments run TPC-H at scale factors 50 and 100, where
each relation is stored as a set of 1 GB segments (objects).  This module
recreates the *shape* of that setup: the same eight relations, foreign-key
relationships, and per-relation object counts proportional to the paper's
(e.g. Q12 at "SF-50" touches ~57 objects, the whole SF-100 dataset has ~140),
while keeping the synthetic row counts small enough that the joins run in
milliseconds.  The queries are faithful simplifications of the TPC-H queries
the paper uses (Q1, Q3, Q5, Q6 and Q12) expressed against the
:class:`~repro.engine.query.Query` API.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.engine.catalog import Catalog
from repro.engine.predicate import (
    Arithmetic,
    Between,
    Comparison,
    Literal,
    between,
    col,
    conjunction,
    eq,
    in_list,
    lit,
)
from repro.engine.query import AggregateSpec, JoinCondition, Query
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType, date_to_ordinal
from repro.exceptions import ConfigurationError
from repro.workloads.datagen import DataGenerator, ScaleProfile, TableProfile

# --------------------------------------------------------------------------- #
# Schema
# --------------------------------------------------------------------------- #
REGION_NAMES = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATION_COUNT = 25
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
MARKET_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
ORDER_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
RETURN_FLAGS = ["A", "N", "R"]
LINE_STATUSES = ["F", "O"]


def _schemas() -> Dict[str, TableSchema]:
    return {
        "region": TableSchema(
            "region",
            [Column("r_regionkey", DataType.INTEGER), Column("r_name", DataType.STRING)],
        ),
        "nation": TableSchema(
            "nation",
            [
                Column("n_nationkey", DataType.INTEGER),
                Column("n_name", DataType.STRING),
                Column("n_regionkey", DataType.INTEGER),
            ],
        ),
        "supplier": TableSchema(
            "supplier",
            [
                Column("s_suppkey", DataType.INTEGER),
                Column("s_name", DataType.STRING),
                Column("s_nationkey", DataType.INTEGER),
                Column("s_acctbal", DataType.FLOAT),
            ],
        ),
        "customer": TableSchema(
            "customer",
            [
                Column("c_custkey", DataType.INTEGER),
                Column("c_name", DataType.STRING),
                Column("c_nationkey", DataType.INTEGER),
                Column("c_mktsegment", DataType.STRING),
                Column("c_acctbal", DataType.FLOAT),
            ],
        ),
        "part": TableSchema(
            "part",
            [
                Column("p_partkey", DataType.INTEGER),
                Column("p_name", DataType.STRING),
                Column("p_brand", DataType.STRING),
                Column("p_type", DataType.STRING),
                Column("p_retailprice", DataType.FLOAT),
            ],
        ),
        "partsupp": TableSchema(
            "partsupp",
            [
                Column("ps_partkey", DataType.INTEGER),
                Column("ps_suppkey", DataType.INTEGER),
                Column("ps_availqty", DataType.INTEGER),
                Column("ps_supplycost", DataType.FLOAT),
            ],
        ),
        "orders": TableSchema(
            "orders",
            [
                Column("o_orderkey", DataType.INTEGER),
                Column("o_custkey", DataType.INTEGER),
                Column("o_orderdate", DataType.DATE),
                Column("o_orderpriority", DataType.STRING),
                Column("o_shippriority", DataType.INTEGER),
                Column("o_totalprice", DataType.FLOAT),
            ],
        ),
        "lineitem": TableSchema(
            "lineitem",
            [
                Column("l_orderkey", DataType.INTEGER),
                Column("l_partkey", DataType.INTEGER),
                Column("l_suppkey", DataType.INTEGER),
                Column("l_quantity", DataType.INTEGER),
                Column("l_extendedprice", DataType.FLOAT),
                Column("l_discount", DataType.FLOAT),
                Column("l_tax", DataType.FLOAT),
                Column("l_returnflag", DataType.STRING),
                Column("l_linestatus", DataType.STRING),
                Column("l_shipdate", DataType.DATE),
                Column("l_commitdate", DataType.DATE),
                Column("l_receiptdate", DataType.DATE),
                Column("l_shipmode", DataType.STRING),
            ],
        ),
    }


# --------------------------------------------------------------------------- #
# Scale profiles (segment counts mirror the paper's object counts)
# --------------------------------------------------------------------------- #
SCALES: Dict[str, ScaleProfile] = {
    # Small profile for unit tests: every code path, trivial runtimes.
    "tiny": ScaleProfile(
        "tiny",
        {
            "region": TableProfile(1, 5),
            "nation": TableProfile(1, 25),
            "supplier": TableProfile(1, 8),
            "customer": TableProfile(1, 16),
            "part": TableProfile(1, 12),
            "partsupp": TableProfile(1, 24),
            "orders": TableProfile(2, 24),
            "lineitem": TableProfile(4, 40),
        },
    ),
    # Mid-size profile used by integration tests and the examples.
    "small": ScaleProfile(
        "small",
        {
            "region": TableProfile(1, 5),
            "nation": TableProfile(1, 25),
            "supplier": TableProfile(1, 12),
            "customer": TableProfile(2, 24),
            "part": TableProfile(1, 20),
            "partsupp": TableProfile(2, 30),
            "orders": TableProfile(4, 40),
            "lineitem": TableProfile(12, 60),
        },
    ),
    # "SF-50": ~71 objects in total, TPC-H Q12 touches 57 of them, matching
    # the paper's 57 group switches / segments for Q12 at SF-50.
    "sf50": ScaleProfile(
        "sf50",
        {
            "region": TableProfile(1, 5),
            "nation": TableProfile(1, 25),
            "supplier": TableProfile(1, 20),
            "customer": TableProfile(2, 40),
            "part": TableProfile(2, 30),
            "partsupp": TableProfile(7, 40),
            "orders": TableProfile(11, 60),
            "lineitem": TableProfile(46, 80),
        },
    ),
    # "SF-100": ~140 objects in total; Q5 reads ~122 of them and generates
    # ~16k subplans, matching the orders of magnitude reported in Figure 11c.
    "sf100": ScaleProfile(
        "sf100",
        {
            "region": TableProfile(1, 5),
            "nation": TableProfile(1, 25),
            "supplier": TableProfile(2, 12),
            "customer": TableProfile(4, 20),
            "part": TableProfile(4, 16),
            "partsupp": TableProfile(14, 20),
            "orders": TableProfile(22, 30),
            "lineitem": TableProfile(92, 40),
        },
    ),
    # "SF-1000": an order of magnitude past sf100 where it matters for Q5 —
    # 920 lineitem + 24 orders segments make 4*24*920*2 = 176,640 subplans
    # (vs ~16k at sf100), while the dimension tables stay sf100-sized so the
    # whole Q5 working set (~952 objects) still fits one large cache.
    "sf1000": ScaleProfile(
        "sf1000",
        {
            "region": TableProfile(1, 5),
            "nation": TableProfile(1, 25),
            "supplier": TableProfile(2, 12),
            "customer": TableProfile(4, 20),
            "part": TableProfile(4, 16),
            "partsupp": TableProfile(14, 20),
            "orders": TableProfile(24, 30),
            "lineitem": TableProfile(920, 40),
        },
    ),
    # "mkeys": a key-population stress profile for the placement/fleet layer,
    # not a faithful TPC-H size: lineitem is shredded into 125k single-row
    # segments so a handful of single-table tenants put a million objects on
    # a fleet, while every other table stays tiny to keep generation cheap.
    "mkeys": ScaleProfile(
        "mkeys",
        {
            "region": TableProfile(1, 5),
            "nation": TableProfile(1, 25),
            "supplier": TableProfile(1, 8),
            "customer": TableProfile(1, 8),
            "part": TableProfile(1, 8),
            "partsupp": TableProfile(1, 8),
            "orders": TableProfile(1, 32),
            "lineitem": TableProfile(125000, 1),
        },
    ),
}

#: Proportion of line items whose supplier is in the customer's nation; keeps
#: TPC-H Q5 (which requires ``c_nationkey = s_nationkey``) selective but
#: non-empty at small scales.
_LOCAL_SUPPLIER_PROBABILITY = 0.35


def resolve_scale(scale: Union[str, ScaleProfile]) -> ScaleProfile:
    """Look up a named scale profile or pass an explicit one through."""
    if isinstance(scale, ScaleProfile):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ConfigurationError(
            f"unknown TPC-H scale {scale!r}; expected one of {sorted(SCALES)}"
        ) from None


# --------------------------------------------------------------------------- #
# Data generation
# --------------------------------------------------------------------------- #
def build_catalog(
    scale: Union[str, ScaleProfile] = "small",
    seed: int = 42,
    catalog: Optional[Catalog] = None,
) -> Catalog:
    """Generate a TPC-H-like database, optionally into an existing catalog."""
    profile = resolve_scale(scale)
    generator = DataGenerator(seed)
    schemas = _schemas()
    catalog = catalog if catalog is not None else Catalog()

    region_rows = [
        {"r_regionkey": index, "r_name": REGION_NAMES[index % len(REGION_NAMES)]}
        for index in range(profile.profile("region").total_rows)
    ]
    nation_rows = [
        {
            "n_nationkey": index,
            "n_name": f"NATION#{index}",
            "n_regionkey": index % len(REGION_NAMES),
        }
        for index in range(profile.profile("nation").total_rows)
    ]
    num_nations = len(nation_rows)

    supplier_profile = profile.profile("supplier")
    supplier_rows = [
        {
            "s_suppkey": index,
            "s_name": f"Supplier#{index}",
            "s_nationkey": generator.integer(0, num_nations - 1),
            "s_acctbal": generator.decimal(-999.0, 9999.0),
        }
        for index in range(supplier_profile.total_rows)
    ]
    suppliers_by_nation: Dict[int, List[int]] = {}
    for row in supplier_rows:
        suppliers_by_nation.setdefault(row["s_nationkey"], []).append(row["s_suppkey"])

    customer_profile = profile.profile("customer")
    customer_rows = [
        {
            "c_custkey": index,
            "c_name": f"Customer#{index}",
            "c_nationkey": generator.integer(0, num_nations - 1),
            "c_mktsegment": generator.choice(MARKET_SEGMENTS),
            "c_acctbal": generator.decimal(-999.0, 9999.0),
        }
        for index in range(customer_profile.total_rows)
    ]

    part_profile = profile.profile("part")
    part_rows = [
        {
            "p_partkey": index,
            "p_name": f"Part#{index}",
            "p_brand": f"Brand#{index % 5}",
            "p_type": generator.choice(["ECONOMY", "STANDARD", "PROMO", "LARGE", "SMALL"]),
            "p_retailprice": generator.decimal(900.0, 2000.0),
        }
        for index in range(part_profile.total_rows)
    ]

    partsupp_profile = profile.profile("partsupp")
    partsupp_rows = [
        {
            "ps_partkey": index % len(part_rows),
            "ps_suppkey": (index * 7 + 3) % len(supplier_rows),
            "ps_availqty": generator.integer(1, 9999),
            "ps_supplycost": generator.decimal(1.0, 1000.0),
        }
        for index in range(partsupp_profile.total_rows)
    ]

    orders_profile = profile.profile("orders")
    orders_rows = []
    for index in range(orders_profile.total_rows):
        orders_rows.append(
            {
                "o_orderkey": index,
                "o_custkey": generator.integer(0, len(customer_rows) - 1),
                "o_orderdate": generator.date_ordinal("1992-01-01", "1998-08-02"),
                "o_orderpriority": generator.choice(ORDER_PRIORITIES),
                "o_shippriority": 0,
                "o_totalprice": generator.decimal(1000.0, 400000.0),
            }
        )

    lineitem_profile = profile.profile("lineitem")
    lineitem_rows = []
    for index in range(lineitem_profile.total_rows):
        order = orders_rows[index % len(orders_rows)]
        customer = customer_rows[order["o_custkey"]]
        local_suppliers = suppliers_by_nation.get(customer["c_nationkey"], [])
        if local_suppliers and generator.boolean(_LOCAL_SUPPLIER_PROBABILITY):
            suppkey = generator.choice(local_suppliers)
        else:
            suppkey = generator.integer(0, len(supplier_rows) - 1)
        ship_date = order["o_orderdate"] + generator.integer(1, 120)
        commit_date = order["o_orderdate"] + generator.integer(30, 120)
        receipt_date = ship_date + generator.integer(1, 30)
        extended_price = generator.decimal(900.0, 100000.0)
        lineitem_rows.append(
            {
                "l_orderkey": order["o_orderkey"],
                "l_partkey": generator.integer(0, len(part_rows) - 1),
                "l_suppkey": suppkey,
                "l_quantity": generator.integer(1, 50),
                "l_extendedprice": extended_price,
                "l_discount": generator.decimal(0.0, 0.10),
                "l_tax": generator.decimal(0.0, 0.08),
                "l_returnflag": generator.choice(RETURN_FLAGS),
                "l_linestatus": generator.choice(LINE_STATUSES),
                "l_shipdate": ship_date,
                "l_commitdate": commit_date,
                "l_receiptdate": receipt_date,
                "l_shipmode": generator.choice(SHIP_MODES),
            }
        )

    rows_by_table = {
        "region": region_rows,
        "nation": nation_rows,
        "supplier": supplier_rows,
        "customer": customer_rows,
        "part": part_rows,
        "partsupp": partsupp_rows,
        "orders": orders_rows,
        "lineitem": lineitem_rows,
    }
    from repro.engine.relation import Relation

    for table, rows in rows_by_table.items():
        table_profile = profile.profile(table)
        catalog.register(
            Relation.from_rows(schemas[table], rows, table_profile.rows_per_segment)
        )
    return catalog


# --------------------------------------------------------------------------- #
# Queries
# --------------------------------------------------------------------------- #
def q1() -> Query:
    """TPC-H Q1 (pricing summary report): single-table scan + aggregation."""
    disc_price = Arithmetic(
        "*", col("l_extendedprice"), Arithmetic("-", lit(1.0), col("l_discount"))
    )
    return Query(
        name="tpch_q1",
        tables=["lineitem"],
        filters={
            "lineitem": Comparison(
                "<=", col("l_shipdate"), Literal(date_to_ordinal("1998-09-02"))
            )
        },
        group_by=["l_returnflag", "l_linestatus"],
        aggregates=[
            AggregateSpec("sum", col("l_quantity"), "sum_qty"),
            AggregateSpec("sum", col("l_extendedprice"), "sum_base_price"),
            AggregateSpec("sum", disc_price, "sum_disc_price"),
            AggregateSpec("avg", col("l_quantity"), "avg_qty"),
            AggregateSpec("count", None, "count_order"),
        ],
        order_by=["l_returnflag", "l_linestatus"],
    )


def q3() -> Query:
    """TPC-H Q3 (shipping priority): 3-way join, revenue per open order."""
    revenue = Arithmetic(
        "*", col("l_extendedprice"), Arithmetic("-", lit(1.0), col("l_discount"))
    )
    cutoff = date_to_ordinal("1996-06-30")
    return Query(
        name="tpch_q3",
        tables=["customer", "orders", "lineitem"],
        joins=[
            JoinCondition("customer", "c_custkey", "orders", "o_custkey"),
            JoinCondition("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ],
        filters={
            "customer": eq("c_mktsegment", "BUILDING"),
            "orders": Comparison("<", col("o_orderdate"), Literal(cutoff)),
            "lineitem": Comparison(">", col("l_shipdate"), Literal(cutoff - 180)),
        },
        group_by=["o_orderkey", "o_orderdate", "o_shippriority"],
        aggregates=[AggregateSpec("sum", revenue, "revenue")],
        order_by=["o_orderkey"],
    )


def q5() -> Query:
    """TPC-H Q5 (local supplier volume): the six-table join of Figure 11."""
    revenue = Arithmetic(
        "*", col("l_extendedprice"), Arithmetic("-", lit(1.0), col("l_discount"))
    )
    return Query(
        name="tpch_q5",
        tables=["customer", "orders", "lineitem", "supplier", "nation", "region"],
        joins=[
            JoinCondition("customer", "c_custkey", "orders", "o_custkey"),
            JoinCondition("lineitem", "l_orderkey", "orders", "o_orderkey"),
            JoinCondition("lineitem", "l_suppkey", "supplier", "s_suppkey"),
            JoinCondition("customer", "c_nationkey", "supplier", "s_nationkey"),
            JoinCondition("supplier", "s_nationkey", "nation", "n_nationkey"),
            JoinCondition("nation", "n_regionkey", "region", "r_regionkey"),
        ],
        filters={
            "region": eq("r_name", "ASIA"),
            "orders": between(
                "o_orderdate", date_to_ordinal("1993-01-01"), date_to_ordinal("1997-01-01")
            ),
        },
        group_by=["n_name"],
        aggregates=[AggregateSpec("sum", revenue, "revenue")],
        order_by=["n_name"],
    )


def q6() -> Query:
    """TPC-H Q6 (forecasting revenue change): single-table selective scan."""
    revenue = Arithmetic("*", col("l_extendedprice"), col("l_discount"))
    return Query(
        name="tpch_q6",
        tables=["lineitem"],
        filters={
            "lineitem": conjunction(
                [
                    between(
                        "l_shipdate",
                        date_to_ordinal("1994-01-01"),
                        date_to_ordinal("1996-01-01"),
                    ),
                    Between(col("l_discount"), 0.02, 0.09, inclusive=True),
                    Comparison("<", col("l_quantity"), Literal(24)),
                ]
            )
        },
        group_by=[],
        aggregates=[
            AggregateSpec("sum", revenue, "revenue"),
            AggregateSpec("count", None, "matching_lineitems"),
        ],
    )


def q12() -> Query:
    """TPC-H Q12 (shipping modes and order priority): the paper's workhorse.

    A two-table join between the two largest relations (lineitem, orders),
    exactly the query driving Figures 4, 5, 7, 9, 10, 11a and 12.
    """
    return Query(
        name="tpch_q12",
        tables=["orders", "lineitem"],
        joins=[JoinCondition("lineitem", "l_orderkey", "orders", "o_orderkey")],
        filters={
            "lineitem": conjunction(
                [
                    in_list("l_shipmode", ["MAIL", "SHIP"]),
                    Comparison("<", col("l_commitdate"), col("l_receiptdate")),
                    Comparison("<", col("l_shipdate"), col("l_commitdate")),
                    between(
                        "l_receiptdate",
                        date_to_ordinal("1993-01-01"),
                        date_to_ordinal("1997-01-01"),
                    ),
                ]
            )
        },
        group_by=["l_shipmode"],
        aggregates=[
            AggregateSpec("count", None, "line_count"),
            AggregateSpec("sum", col("l_quantity"), "total_quantity"),
        ],
        order_by=["l_shipmode"],
    )


#: Query factories by short name, used by the experiment harness.
QUERIES = {
    "q1": q1,
    "q3": q3,
    "q5": q5,
    "q6": q6,
    "q12": q12,
}


def query(name: str) -> Query:
    """Build the TPC-H query registered under ``name`` (e.g. ``"q12"``)."""
    try:
        return QUERIES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown TPC-H query {name!r}; expected one of {sorted(QUERIES)}"
        ) from None
