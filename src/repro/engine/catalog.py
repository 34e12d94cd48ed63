"""Database catalog: relation metadata and segment-to-object mapping.

Mirrors the role of PostgreSQL's catalog in the paper: the only data kept on
the client's local disk.  The catalog knows, for every relation, how many
segments it has and which CSD object stores each segment, so an executor can
issue object requests without touching the data itself.
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine.relation import Relation, Segment
from repro.engine.schema import TableSchema
from repro.exceptions import CatalogError


class Catalog:
    """Registry of relations known to a database instance."""

    def __init__(self) -> None:
        self._relations: Dict[str, Relation] = {}

    # ------------------------------------------------------------------ #
    # Registration / lookup
    # ------------------------------------------------------------------ #
    def register(self, relation: Relation) -> None:
        """Add ``relation`` to the catalog (names must be unique)."""
        if relation.name in self._relations:
            raise CatalogError(f"relation {relation.name!r} is already registered")
        self._relations[relation.name] = relation

    def has_relation(self, name: str) -> bool:
        """Whether a relation called ``name`` is registered."""
        return name in self._relations

    def relation(self, name: str) -> Relation:
        """Return the relation called ``name`` or raise :class:`CatalogError`."""
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError(f"unknown relation: {name!r}") from None

    def schema(self, name: str) -> TableSchema:
        """Return the schema of relation ``name``."""
        return self.relation(name).schema

    # ------------------------------------------------------------------ #
    # Segment / object metadata
    # ------------------------------------------------------------------ #
    def num_segments(self, name: str) -> int:
        """Number of segments of relation ``name``."""
        return self.relation(name).num_segments

    def segment(self, name: str, index: int) -> Segment:
        """Return segment ``index`` of relation ``name``."""
        return self.relation(name).segment(index)

    def segment_ids(self, name: str) -> List[str]:
        """Object identifiers (``table.index``) for all segments of a table."""
        return [segment.segment_id for segment in self.relation(name).segments]

    def resolve_segment_id(self, segment_id: str) -> Segment:
        """Map an object identifier back to the segment it names."""
        table, _, index_text = segment_id.rpartition(".")
        if not table or not index_text.isdigit():
            raise CatalogError(f"malformed segment id: {segment_id!r}")
        return self.segment(table, int(index_text))

    def table_of_segment(self, segment_id: str) -> str:
        """Table name encoded in an object identifier."""
        table, _, index_text = segment_id.rpartition(".")
        if not table or not index_text.isdigit():
            raise CatalogError(f"malformed segment id: {segment_id!r}")
        if table not in self._relations:
            raise CatalogError(f"unknown relation in segment id: {segment_id!r}")
        return table
