"""Physical operators of the mini relational engine.

All operators are batch-at-a-time: ``rows()`` pulls the children's batches
and returns the whole output as a list of row dictionaries.  They are
deliberately simple — the experiments care about access order and relative
cost, not about squeezing tuples per second — but they compute real answers so
that Skipper's out-of-order results can be verified against the vanilla plans.
"""

from repro.engine.operators.base import Operator, OperatorStats
from repro.engine.operators.scan import SegmentScan, SequentialScan
from repro.engine.operators.filter import Filter
from repro.engine.operators.project import Project
from repro.engine.operators.hash_join import HashJoin
from repro.engine.operators.aggregate import AggregateState, HashAggregate
from repro.engine.operators.sort import Sort
from repro.engine.operators.limit import Limit

__all__ = [
    "AggregateState",
    "Filter",
    "HashAggregate",
    "HashJoin",
    "Limit",
    "Operator",
    "OperatorStats",
    "Project",
    "SegmentScan",
    "SequentialScan",
    "Sort",
]
