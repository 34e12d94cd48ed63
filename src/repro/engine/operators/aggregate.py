"""Hash aggregation and an incremental aggregate accumulator.

:class:`AggregateState` is shared by the vanilla executor and Skipper's
MJoin: the latter feeds it result tuples subplan by subplan, in whatever
order the CSD delivers data, and the final answer is identical to a blocking
aggregation — an invariant the test-suite checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.operators.base import Operator, Row
from repro.engine.query import AggregateSpec
from repro.exceptions import ExecutionError


class _Accumulator:
    """Running value of one aggregate within one group."""

    __slots__ = ("function", "count", "total", "minimum", "maximum")

    def __init__(self, function: str) -> None:
        self.function = function
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[object] = None
        self.maximum: Optional[object] = None

    def update(self, value: object) -> None:
        self.count += 1
        if self.function == "count":
            return
        if value is None:
            # In every arrival order: MJoin delivers rows as the CSD schedules them.
            raise ExecutionError(f"cannot {self.function} NULL values")
        if self.function in ("sum", "avg"):
            self.total += value  # type: ignore[operator]
        elif self.function == "min":
            if self.minimum is None or value < self.minimum:  # type: ignore[operator]
                self.minimum = value
        elif self.function == "max":
            if self.maximum is None or value > self.maximum:  # type: ignore[operator]
                self.maximum = value

    def result(self) -> object:
        if self.function == "count":
            return self.count
        if self.function == "sum":
            return self.total
        if self.function == "avg":
            if self.count == 0:
                return None
            return self.total / self.count
        if self.function == "min":
            return self.minimum
        return self.maximum


class AggregateState:
    """Incremental GROUP BY accumulator.

    Rows can be added in any order and in any number of batches; calling
    :meth:`results` at any point gives the aggregate values over everything
    added so far.
    """

    def __init__(self, group_by: Sequence[str], aggregates: Sequence[AggregateSpec]) -> None:
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self._groups: Dict[Tuple[object, ...], List[_Accumulator]] = {}

    def add(self, row: Row) -> None:
        """Fold one input row into the aggregation state."""
        try:
            key = tuple(row[column] for column in self.group_by)
        except KeyError as exc:
            raise ExecutionError(f"row has no column {exc}") from None
        accumulators = self._groups.get(key)
        if accumulators is None:
            accumulators = [_Accumulator(spec.function) for spec in self.aggregates]
            self._groups[key] = accumulators
        for accumulator, spec in zip(accumulators, self.aggregates):
            if spec.function == "count" and spec.expression is None:
                accumulator.update(1)
            else:
                accumulator.update(spec.expression.evaluate(row))  # type: ignore[union-attr]

    def add_all(self, rows: Sequence[Row]) -> None:
        """Fold a batch of rows into the aggregation state."""
        for row in rows:
            self.add(row)

    def results(self) -> List[Row]:
        """Materialise one output row per group."""
        output: List[Row] = []
        for key, accumulators in self._groups.items():
            row: Dict[str, object] = dict(zip(self.group_by, key))
            for accumulator, spec in zip(accumulators, self.aggregates):
                row[spec.alias] = accumulator.result()
            output.append(row)
        return output


class HashAggregate(Operator):
    """Blocking GROUP BY over a child operator."""

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        super().__init__()
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)

    def children(self) -> List[Operator]:
        return [self.child]

    def rows(self) -> List[Row]:
        rows = self.child.rows()
        state = AggregateState(self.group_by, self.aggregates)
        state.add_all(rows)
        output = state.results()
        self.stats.tuples_scanned += len(rows)
        self.stats.tuples_output += len(output)
        return output
