"""Property tests for the scale-up fast paths.

Two equivalences the million-key/SF-1000 acceleration rests on (the
subplan tracker's oracle test is in ``test_core_arrival_properties.py``):

* bulk arc-sweep ``place()`` returns byte-identical placements to the
  brute-force per-key ring walk in ``placement_oracle.py`` for any roster,
  replication factor, vnode count and key population;
* bulk ``selection`` over a segment's column arrays keeps exactly the rows
  the generic per-row ``evaluate`` keeps, for every filter of every
  registered TPC-H / SSB / MR-bench / NREF query.

Segments have one (columnar) layout; ragged rows are rejected up front.
"""

import pytest
from hypothesis import given, settings, strategies as st
from placement_oracle import brute_force_place

from repro.engine import Column, DataType, Relation, TableSchema
from repro.engine.relation import Segment
from repro.exceptions import SchemaError
from repro.fleet.placement import ConsistentHashPlacement
from repro.workloads import mrbench, nref, ssb, tpch


# --------------------------------------------------------------------- #
# Bulk placement == per-key placement
# --------------------------------------------------------------------- #
_KEYS = st.lists(
    st.text(
        alphabet="abcdefghij0123456789/._-",
        min_size=1,
        max_size=24,
    ),
    min_size=1,
    max_size=200,
    unique=True,
)


class TestBulkPlacementEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        num_devices=st.integers(min_value=1, max_value=12),
        replication=st.integers(min_value=1, max_value=4),
        vnodes=st.integers(min_value=1, max_value=64),
        keys=_KEYS,
    )
    def test_place_matches_replicas_for(self, num_devices, replication, vnodes, keys):
        devices = [f"dev-{i}" for i in range(num_devices)]
        placement = ConsistentHashPlacement(
            replication=min(replication, num_devices), virtual_nodes=vnodes
        )
        placed = placement.place(keys, devices)
        assert placed == brute_force_place(placement, keys, devices)
        # Downstream consumers rely on insertion order following key order.
        assert list(placed) == list(keys)

    @settings(max_examples=50, deadline=None)
    @given(
        num_devices=st.integers(min_value=1, max_value=8),
        vnodes=st.integers(min_value=1, max_value=32),
        keys=_KEYS,
    )
    def test_presorted_hashes_path_matches(self, num_devices, vnodes, keys):
        devices = [f"dev-{i}" for i in range(num_devices)]
        placement = ConsistentHashPlacement(replication=1, virtual_nodes=vnodes)
        presorted = sorted(zip(placement.bulk_key_hashes(keys), keys))
        assert placement.place(
            keys, devices, sorted_key_hashes=presorted
        ) == placement.place(keys, devices)


# --------------------------------------------------------------------- #
# Bulk selection == per-row evaluate, for every registered filter
# --------------------------------------------------------------------- #
class TestColumnarRowEquality:
    """``Segment.filtered_rows`` (bulk ``selection`` over the column arrays)
    against the generic per-row ``evaluate`` reference: same rows, same
    order, for every filter of every registered query on every segment."""

    def _assert_filters_match(self, workload):
        catalog = workload.build_catalog("tiny", seed=7)
        checked = 0
        for name in sorted(workload.QUERIES):
            query = workload.query(name)
            for table in query.tables:
                predicate = query.filter_for(table)
                if predicate is None:
                    continue
                for segment in catalog.relation(table).segments:
                    expected = [row for row in segment.rows if predicate.evaluate(row)]
                    assert segment.filtered_rows(predicate) == expected, (
                        name,
                        segment.segment_id,
                    )
                    checked += 1
        assert checked > 0

    def test_every_tpch_query(self):
        self._assert_filters_match(tpch)

    def test_every_ssb_query(self):
        self._assert_filters_match(ssb)

    def test_every_mrbench_query(self):
        self._assert_filters_match(mrbench)

    def test_every_nref_query(self):
        self._assert_filters_match(nref)


class TestRaggedRowsRejected:
    """A segment has one layout: rows that do not share the first row's keys
    (or their order) are a schema error, not a second storage format."""

    def test_missing_key_names_segment_and_first_offending_row(self):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}, {"a": 5}, {"b": 6}]
        with pytest.raises(SchemaError) as excinfo:
            Segment("t", 4, rows)
        message = str(excinfo.value)
        assert "t.4" in message
        assert "row 2" in message

    def test_reordered_keys_rejected(self):
        with pytest.raises(SchemaError, match=r"t\.0.*row 1"):
            Segment("t", 0, [{"a": 1, "b": 2}, {"b": 2, "a": 1}])

    def test_relation_from_rows_propagates(self):
        schema = TableSchema("t", [Column("a", DataType.INTEGER), Column("b", DataType.INTEGER)])
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}, {"a": 5, "b": 6}, {"a": 7, "b": 8, "c": 9}]
        with pytest.raises(SchemaError, match=r"t\.1.*row 1"):
            Relation.from_rows(schema, rows, rows_per_segment=2)

    def test_uniform_and_empty_segments_still_build(self):
        assert Segment("t", 0, []).rows == []
        assert Segment("t", 0, [{}, {}]).rows == [{}, {}]
        segment = Segment("t", 0, [{"a": 1}, {"a": None}])
        assert segment.columns == {"a": [1, None]}
        assert segment.rows == [{"a": 1}, {"a": None}]
