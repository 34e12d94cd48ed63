"""Unit tests for the catalog."""

import pytest

from repro.engine import Catalog, Column, DataType, Relation, TableSchema
from repro.exceptions import CatalogError


def _relation(name: str, num_rows: int = 6, rows_per_segment: int = 3) -> Relation:
    schema = TableSchema(name, [Column(f"{name}_id", DataType.INTEGER)])
    rows = [{f"{name}_id": index} for index in range(num_rows)]
    return Relation.from_rows(schema, rows, rows_per_segment)


@pytest.fixture()
def catalog() -> Catalog:
    catalog = Catalog()
    for relation in (_relation("alpha"), _relation("beta", num_rows=9)):
        catalog.register(relation)
    return catalog


def test_register_and_lookup(catalog):
    assert catalog.has_relation("alpha")
    assert not catalog.has_relation("gamma")
    assert catalog.relation("beta").num_rows == 9


def test_duplicate_registration_rejected(catalog):
    with pytest.raises(CatalogError):
        catalog.register(_relation("alpha"))


def test_unknown_relation_raises(catalog):
    with pytest.raises(CatalogError):
        catalog.relation("gamma")


def test_segment_metadata(catalog):
    assert catalog.num_segments("alpha") == 2
    assert catalog.segment_ids("beta") == ["beta.0", "beta.1", "beta.2"]
    assert catalog.segment_ids("alpha") == ["alpha.0", "alpha.1"]


def test_resolve_segment_id(catalog):
    segment = catalog.resolve_segment_id("beta.1")
    assert segment.table_name == "beta"
    assert segment.index == 1
    assert catalog.table_of_segment("alpha.0") == "alpha"


def test_resolve_malformed_segment_id(catalog):
    with pytest.raises(CatalogError):
        catalog.resolve_segment_id("no-dot-here")
    with pytest.raises(CatalogError):
        catalog.table_of_segment("gamma.0")
