"""Unit tests for schemas and segmented relations."""

import pytest

from repro.engine import Column, DataType, Relation, Segment, TableSchema
from repro.exceptions import SchemaError


@pytest.fixture()
def schema() -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("a", DataType.INTEGER),
            Column("b", DataType.STRING),
            Column("c", DataType.FLOAT),
        ],
    )


class TestTableSchema:
    def test_column_lookup(self, schema):
        assert schema.column_names == ["a", "b", "c"]
        assert schema.has_column("b")
        assert not schema.has_column("missing")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", DataType.INTEGER), Column("a", DataType.STRING)])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_invalid_names_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("bad name", [Column("a", DataType.INTEGER)])
        with pytest.raises(SchemaError):
            Column("bad name", DataType.INTEGER)


class TestRelation:
    def test_from_rows_splits_into_segments(self, schema):
        rows = [{"a": i, "b": str(i), "c": float(i)} for i in range(10)]
        relation = Relation.from_rows(schema, rows, rows_per_segment=4)
        assert relation.num_segments == 3
        assert [segment.num_rows for segment in relation.segments] == [4, 4, 2]
        assert relation.num_rows == 10
        assert [row for segment in relation.segments for row in segment.rows] == rows

    def test_from_rows_empty_produces_single_empty_segment(self, schema):
        relation = Relation.from_rows(schema, [], rows_per_segment=4)
        assert relation.num_segments == 1
        assert relation.num_rows == 0

    def test_segment_ids(self, schema):
        rows = [{"a": i, "b": "x", "c": 0.0} for i in range(6)]
        relation = Relation.from_rows(schema, rows, rows_per_segment=3)
        assert [segment.segment_id for segment in relation.segments] == ["t.0", "t.1"]

    def test_segment_index_out_of_range(self, schema):
        relation = Relation.from_rows(schema, [{"a": 1, "b": "x", "c": 0.0}], rows_per_segment=1)
        with pytest.raises(SchemaError):
            relation.segment(5)

    def test_mismatched_segments_rejected(self, schema):
        with pytest.raises(SchemaError):
            Relation(schema, [Segment("other", 0, [])])
        with pytest.raises(SchemaError):
            Relation(schema, [Segment("t", 1, [])])

    def test_invalid_rows_per_segment(self, schema):
        with pytest.raises(SchemaError):
            Relation.from_rows(schema, [], rows_per_segment=0)
