"""A protein-database workload in the spirit of the NREF benchmark.

The paper's mixed workload includes "a 4-table join that counts protein
sequences matching a specific criteria from NREF" over a 13 GB database.
This module provides a synthetic protein reference database — proteins,
source organisms, sequences and annotations — and the corresponding counting
join.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.engine.catalog import Catalog
from repro.engine.predicate import Comparison, Literal, col, conjunction, in_list
from repro.engine.query import AggregateSpec, JoinCondition, Query
from repro.engine.relation import Relation
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType
from repro.exceptions import ConfigurationError
from repro.workloads.datagen import DataGenerator, ScaleProfile, TableProfile

TAXONOMY_DOMAINS = ["Bacteria", "Archaea", "Eukaryota", "Viruses"]
ANNOTATION_KEYWORDS = ["kinase", "transferase", "hydrolase", "ligase", "receptor", "membrane"]


def _schemas() -> Dict[str, TableSchema]:
    return {
        "organism": TableSchema(
            "organism",
            [
                Column("org_id", DataType.INTEGER),
                Column("org_name", DataType.STRING),
                Column("org_domain", DataType.STRING),
            ],
        ),
        "protein": TableSchema(
            "protein",
            [
                Column("prot_id", DataType.INTEGER),
                Column("prot_name", DataType.STRING),
                Column("prot_org_id", DataType.INTEGER),
                Column("prot_length", DataType.INTEGER),
            ],
        ),
        "sequence": TableSchema(
            "sequence",
            [
                Column("seq_id", DataType.INTEGER),
                Column("seq_prot_id", DataType.INTEGER),
                Column("seq_length", DataType.INTEGER),
                Column("seq_gc_content", DataType.FLOAT),
            ],
        ),
        "annotation": TableSchema(
            "annotation",
            [
                Column("ann_id", DataType.INTEGER),
                Column("ann_prot_id", DataType.INTEGER),
                Column("ann_keyword", DataType.STRING),
                Column("ann_confidence", DataType.FLOAT),
            ],
        ),
    }


SCALES: Dict[str, ScaleProfile] = {
    "tiny": ScaleProfile(
        "tiny",
        {
            "organism": TableProfile(1, 12),
            "protein": TableProfile(2, 30),
            "sequence": TableProfile(2, 30),
            "annotation": TableProfile(2, 40),
        },
    ),
    "small": ScaleProfile(
        "small",
        {
            "organism": TableProfile(1, 20),
            "protein": TableProfile(3, 40),
            "sequence": TableProfile(3, 40),
            "annotation": TableProfile(3, 60),
        },
    ),
    # The paper's NREF database is ~13 GB: ~13 objects in total.
    "paper": ScaleProfile(
        "paper",
        {
            "organism": TableProfile(1, 30),
            "protein": TableProfile(4, 60),
            "sequence": TableProfile(4, 60),
            "annotation": TableProfile(4, 80),
        },
    ),
}


def resolve_scale(scale: Union[str, ScaleProfile]) -> ScaleProfile:
    """Look up a named scale profile or pass an explicit one through."""
    if isinstance(scale, ScaleProfile):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ConfigurationError(
            f"unknown NREF scale {scale!r}; expected one of {sorted(SCALES)}"
        ) from None


def build_catalog(
    scale: Union[str, ScaleProfile] = "small",
    seed: int = 23,
    catalog: Catalog | None = None,
) -> Catalog:
    """Generate the protein reference database, optionally into an existing catalog."""
    profile = resolve_scale(scale)
    generator = DataGenerator(seed)
    schemas = _schemas()
    catalog = catalog if catalog is not None else Catalog()

    organism_rows = [
        {
            "org_id": index,
            "org_name": f"Organism#{index}",
            "org_domain": generator.weighted_choice(TAXONOMY_DOMAINS, [0.5, 0.1, 0.3, 0.1]),
        }
        for index in range(profile.profile("organism").total_rows)
    ]
    protein_rows = [
        {
            "prot_id": index,
            "prot_name": f"Protein#{index}",
            "prot_org_id": generator.integer(0, len(organism_rows) - 1),
            "prot_length": generator.integer(50, 3000),
        }
        for index in range(profile.profile("protein").total_rows)
    ]
    sequence_rows = [
        {
            "seq_id": index,
            "seq_prot_id": index % len(protein_rows),
            "seq_length": generator.integer(50, 3000),
            "seq_gc_content": generator.decimal(0.2, 0.8),
        }
        for index in range(profile.profile("sequence").total_rows)
    ]
    annotation_rows = [
        {
            "ann_id": index,
            "ann_prot_id": generator.integer(0, len(protein_rows) - 1),
            "ann_keyword": generator.choice(ANNOTATION_KEYWORDS),
            "ann_confidence": generator.decimal(0.0, 1.0),
        }
        for index in range(profile.profile("annotation").total_rows)
    ]

    rows_by_table = {
        "organism": organism_rows,
        "protein": protein_rows,
        "sequence": sequence_rows,
        "annotation": annotation_rows,
    }
    for table, rows in rows_by_table.items():
        catalog.register(
            Relation.from_rows(schemas[table], rows, profile.profile(table).rows_per_segment)
        )
    return catalog


def sequence_count() -> Query:
    """The 4-table counting join of the paper's NREF client.

    Counts protein sequences from bacterial or archaeal organisms annotated
    with enzymatic keywords, grouped by taxonomic domain.
    """
    return Query(
        name="nref_sequence_count",
        tables=["protein", "organism", "sequence", "annotation"],
        joins=[
            JoinCondition("protein", "prot_org_id", "organism", "org_id"),
            JoinCondition("sequence", "seq_prot_id", "protein", "prot_id"),
            JoinCondition("annotation", "ann_prot_id", "protein", "prot_id"),
        ],
        filters={
            "organism": in_list("org_domain", ["Bacteria", "Archaea"]),
            "annotation": conjunction(
                [
                    in_list("ann_keyword", ["kinase", "transferase", "hydrolase"]),
                    Comparison(">=", col("ann_confidence"), Literal(0.2)),
                ]
            ),
            "sequence": Comparison(">=", col("seq_length"), Literal(100)),
        },
        group_by=["org_domain"],
        aggregates=[
            AggregateSpec("count", None, "matching_sequences"),
            AggregateSpec("avg", col("seq_length"), "avg_sequence_length"),
        ],
        order_by=["org_domain"],
    )


def long_protein_report() -> Query:
    """Secondary NREF-style query: long proteins per organism domain."""
    return Query(
        name="nref_long_protein_report",
        tables=["protein", "organism"],
        joins=[JoinCondition("protein", "prot_org_id", "organism", "org_id")],
        filters={"protein": Comparison(">=", col("prot_length"), Literal(1000))},
        group_by=["org_domain"],
        aggregates=[
            AggregateSpec("count", None, "long_proteins"),
            AggregateSpec("max", col("prot_length"), "longest"),
        ],
        order_by=["org_domain"],
    )


QUERIES = {"sequence_count": sequence_count, "long_protein_report": long_protein_report}


def query(name: str) -> Query:
    """Build the NREF query registered under ``name``."""
    try:
        return QUERIES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown NREF query {name!r}; expected one of {sorted(QUERIES)}"
        ) from None
