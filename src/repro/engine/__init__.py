"""A small relational engine used as the database substrate.

The paper runs its experiments on PostgreSQL.  This package provides the
pieces of a relational engine that the experiments actually exercise:

* typed schemas and segmented relations (:mod:`repro.engine.schema`,
  :mod:`repro.engine.relation`),
* a catalog mapping relations to their segments and CSD object keys
  (:mod:`repro.engine.catalog`),
* an expression / predicate tree (:mod:`repro.engine.predicate`),
* a declarative join-query specification (:mod:`repro.engine.query`),
* physical operators — scans, filters, hash joins, aggregation, sort
  (:mod:`repro.engine.operators`),
* a left-deep planner and a pull-based in-memory executor
  (:mod:`repro.engine.planner`, :mod:`repro.engine.executor`),
* a cost model translating tuple counts and object transfers into simulated
  seconds (:mod:`repro.engine.cost`).

Rows are plain dictionaries keyed by column name.  Workload schemas use
prefixed column names (``l_orderkey``, ``o_orderkey`` …) so joining relations
never collide, mirroring TPC-H conventions.
"""

from repro.engine.types import DataType, date_to_ordinal
from repro.engine.schema import Column, TableSchema
from repro.engine.relation import Relation, Segment
from repro.engine.catalog import Catalog
from repro.engine.query import AggregateSpec, JoinCondition, Query
from repro.engine.cost import CostModel
from repro.engine.executor import InMemoryExecutor
from repro.engine.planner import Planner

__all__ = [
    "AggregateSpec",
    "Catalog",
    "Column",
    "CostModel",
    "DataType",
    "InMemoryExecutor",
    "JoinCondition",
    "Planner",
    "Query",
    "Relation",
    "Segment",
    "TableSchema",
    "date_to_ordinal",
]
