"""The segment's kept selection against a fresh per-row ``evaluate``.

``select_rows`` answers a repeated predicate object from the segment's last
selection (``Segment.selected_by`` / ``selected_rows``).  The oracle here is
the definition of a selection — ``[row for row in segment.rows if
evaluate(predicate, row)]``, ``tests/predicate_oracle.py``'s per-row
reference — recomputed on every call, over predicates drawn
from the ``engine/predicate.py`` algebra (arithmetic operands included) on
segments with NULLs: whatever was asked before, every answer equals it, and
a selection that raises is raised again and never kept.

The second half checks the other side of sharing: the selected rows are one
list per segment that every executor reads, so after Skipper, the pull-based
executor and ``InMemoryExecutor`` have all run over one catalog, every kept
selection must still equal a fresh one on an untouched twin catalog.
"""

from copy import deepcopy

import pytest
from hypothesis import example, given, strategies as st
from predicate_oracle import evaluate

from repro.core import mjoin
from repro.engine import InMemoryExecutor
from repro.engine.operators import scan
from repro.engine.operators.scan import select_rows
from repro.engine.predicate import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Not,
    Or,
)
from repro.engine.relation import Segment
from repro.exceptions import ExecutionError
from repro.scenarios.spec import ScenarioSpec, TenantSpec
from repro.service import StorageService
from repro.workloads import tpch

_VALUES = st.one_of(st.none(), st.integers(-2, 2))
_COLUMNS = st.sampled_from(("a", "b"))
_OPERATORS = st.sampled_from(("=", "!=", "<", "<=", ">", ">="))


def _segment(pairs):
    return Segment("t", 0, [{"a": a, "b": b} for a, b in pairs])


_SEGMENTS = st.lists(st.tuples(_VALUES, _VALUES), max_size=8).map(_segment)


def _always():
    """A leaf that accepts every row and reads no column."""
    return Comparison("=", Literal(0), Literal(0))


def _missing_column():
    """A leaf over a column no segment has: it raises wherever it is reached."""
    return Comparison("=", ColumnRef("z"), Literal(0))


def _arithmetic(op, column, value):
    """``column op (value + 0)``: an operand read per row through ``evaluate``."""
    return Comparison(op, ColumnRef(column), Arithmetic("+", Literal(value), Literal(0)))


_LEAVES = st.one_of(
    st.builds(
        lambda op, column, value: Comparison(op, ColumnRef(column), Literal(value)),
        _OPERATORS,
        _COLUMNS,
        _VALUES,
    ),
    st.builds(
        lambda op, left, right: Comparison(op, ColumnRef(left), ColumnRef(right)),
        _OPERATORS,
        _COLUMNS,
        _COLUMNS,
    ),
    st.builds(
        lambda column, low, width, inclusive: Between(
            ColumnRef(column), low, low + width, inclusive
        ),
        _COLUMNS,
        st.integers(-2, 2),
        st.integers(0, 2),
        st.booleans(),
    ),
    st.builds(
        lambda column, values: InList(ColumnRef(column), values),
        _COLUMNS,
        st.lists(_VALUES, min_size=1, max_size=3),
    ),
    st.builds(_arithmetic, _OPERATORS, _COLUMNS, st.integers(-2, 2)),
    st.builds(_always),
    st.builds(_missing_column),
)

_PREDICATES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    ),
    max_leaves=4,
)


def _fresh(segment, predicate):
    """The definition of a selection, or the exception it raises."""
    try:
        return [row for row in segment.rows if evaluate(predicate, row)]
    except ExecutionError as error:
        return error


def _check_call(segment, predicate):
    """One ``select_rows`` call held to :func:`_fresh`; a failing call must
    leave the kept selection as it was."""
    expected = _fresh(segment, predicate)
    kept_by, kept_rows = segment.selected_by, getattr(segment, "selected_rows", None)
    if isinstance(expected, ExecutionError):
        with pytest.raises(ExecutionError):
            select_rows(segment, predicate)
        assert segment.selected_by is kept_by is not predicate
        assert getattr(segment, "selected_rows", None) is kept_rows
        return
    rows = select_rows(segment, predicate)
    assert rows == expected
    assert segment.selected_by is predicate and segment.selected_rows is rows


class TestKeptSelectionOracle:
    @given(segment=_SEGMENTS, predicate=_PREDICATES, calls=st.integers(2, 4))
    def test_a_repeated_predicate_is_answered_by_the_same_list(
        self, segment, predicate, calls
    ):
        first = _fresh(segment, predicate)
        for _ in range(calls):
            _check_call(segment, predicate)
        if not isinstance(first, ExecutionError):
            assert select_rows(segment, predicate) is select_rows(segment, predicate)

    @given(
        segment=_SEGMENTS,
        pool=st.lists(_PREDICATES, min_size=2, max_size=3),
        order=st.lists(st.integers(0, 2), min_size=2, max_size=10),
    )
    def test_alternating_predicates_each_get_their_own_rows(self, segment, pool, order):
        for index in order:
            _check_call(segment, pool[index % len(pool)])

    @given(
        pairs=st.lists(st.tuples(_VALUES, _VALUES), max_size=8),
        op=_OPERATORS,
        column=_COLUMNS,
        value=st.integers(-2, 2),
    )
    def test_distinct_but_equal_predicates_are_told_apart_by_identity(
        self, pairs, op, column, value
    ):
        """Two equal trees are two selections: the second is made, not
        looked up, and both equal the definition."""
        segment = _segment(pairs)
        first = Comparison(op, ColumnRef(column), Literal(value))
        second = Comparison(op, ColumnRef(column), Literal(value))
        _check_call(segment, first)
        kept = segment.selected_rows
        _check_call(segment, second)
        assert segment.selected_by is second
        assert segment.selected_rows == kept and segment.selected_rows is not kept

    @given(predicate=_PREDICATES, calls=st.integers(1, 3))
    def test_an_empty_segment_selects_nothing_every_time(self, predicate, calls):
        segment = _segment([])
        for _ in range(calls):
            assert select_rows(segment, predicate) == []
            assert segment.selected_by is predicate

    @given(pairs=st.lists(st.tuples(_VALUES, _VALUES), min_size=1, max_size=8))
    def test_an_arithmetic_operand_is_kept_too(self, pairs):
        segment = _segment(pairs)
        predicate = Or(_arithmetic(">", "a", 0), Comparison("=", ColumnRef("b"), Literal(1)))
        _check_call(segment, predicate)
        rows = segment.selected_rows
        assert select_rows(segment, predicate) is rows

    @given(
        pairs=st.lists(st.tuples(_VALUES, _VALUES), max_size=8),
        before=_PREDICATES,
        wrap=st.sampled_from(("bare", "and", "not", "arithmetic")),
    )
    @example(pairs=[], before=_always(), wrap="bare")
    def test_a_missing_column_raises_every_time_and_is_never_kept(self, pairs, before, wrap):
        # The first row reaches every leaf of every wrapping below.
        segment = _segment([(0, None)] + pairs)
        _check_call(segment, before)
        kept_by = segment.selected_by
        missing = {
            "bare": _missing_column(),
            "and": And(_always(), _missing_column()),
            "not": Not(_missing_column()),
            "arithmetic": And(_arithmetic("=", "a", 0), _missing_column(), _always()),
        }[wrap]
        for _ in range(3):
            with pytest.raises(ExecutionError, match="no column 'z'"):
                select_rows(segment, missing)
            assert segment.selected_by is kept_by


# --------------------------------------------------------------------------- #
# Shared rows: no executor mutates a kept selection
# --------------------------------------------------------------------------- #
def test_no_executor_mutates_the_rows_it_shares(monkeypatch):
    """Skipper and pull-based tenants on one CSD plus ``InMemoryExecutor``
    run every TPC-H query over one catalog, sharing each segment's kept
    selection (and, for an unfiltered table, its row list).  Every list a
    selection hands out must still equal its copy at hand-out time whenever
    the next selection is made, and at the end each kept selection must
    equal one made fresh on an untouched twin of the catalog."""
    handed_out = {}  # id -> (the shared list, a deep copy made at hand-out)

    def checked_select_rows(segment, predicate):
        for shared, copy in handed_out.values():
            assert shared == copy, "an executor mutated rows it shares"
        rows = select_rows(segment, predicate)
        handed_out.setdefault(id(rows), (rows, deepcopy(rows)))
        return rows

    monkeypatch.setattr(scan, "select_rows", checked_select_rows)
    monkeypatch.setattr(mjoin, "select_rows", checked_select_rows)

    catalog, twin = (tpch.build_catalog("tiny", seed=42) for _ in range(2))
    references = tuple(f"tpch:{name}" for name in sorted(tpch.QUERIES))
    spec = ScenarioSpec(
        name="shared-rows",
        description="Both executors over every TPC-H query, one catalog.",
        tenants=(
            TenantSpec("skipper", references, repetitions=2, cache_capacity=8),
            TenantSpec("puller", references, mode="vanilla"),
        ),
        seed=42,
    )
    service = StorageService(spec, catalog=catalog)
    skipper, puller = service.config.client_specs
    assert all(a is b for a, b in zip(skipper.queries, puller.queries))
    in_memory = InMemoryExecutor(catalog)
    before = [in_memory.execute(query).rows for query in skipper.queries]
    service.run()
    assert [in_memory.execute(query).rows for query in skipper.queries] == before
    checked_select_rows(catalog.segment("lineitem", 0), None)  # checks after the last one

    predicates = {id(p) for query in skipper.queries for p in query.filters.values()}
    kept = 0
    for table in tpch.SCALES["tiny"].tables:
        for segment, pristine in zip(
            catalog.relation(table).segments, twin.relation(table).segments
        ):
            assert segment.rows == pristine.rows, segment.segment_id
            if segment.selected_by is None:
                continue
            assert id(segment.selected_by) in predicates, segment.segment_id
            assert segment.selected_rows == _fresh(pristine, segment.selected_by), (
                segment.segment_id
            )
            kept += 1
    assert kept > 0 and len(handed_out) > kept
