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
from repro.engine.predicate import And, Comparison, Literal, col, in_list
from repro.engine.query import AggregateSpec, JoinCondition, Query
from repro.engine.relation import Relation
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType
from repro.workloads.datagen import DataGenerator, ScaleProfile, TableProfile, lookup

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


def build_catalog(
    scale: Union[str, ScaleProfile],
    seed: int,
    *,
    catalog: Catalog,
) -> Catalog:
    """Generate the protein reference database into ``catalog`` (which is returned)."""
    profile = (
        scale if isinstance(scale, ScaleProfile) else lookup(SCALES, scale, "NREF scale")
    )
    generator = DataGenerator(seed)
    schemas = _schemas()

    organism_domain = generator.weighted_choices(TAXONOMY_DOMAINS, [0.5, 0.1, 0.3, 0.1])
    organism_rows = [
        {
            "org_id": index,
            "org_name": f"Organism#{index}",
            "org_domain": organism_domain(),
        }
        for index in range(profile.profile("organism").total_rows)
    ]
    protein_organism = generator.integers(0, len(organism_rows) - 1)
    protein_length = generator.integers(50, 3000)
    protein_rows = [
        {
            "prot_id": index,
            "prot_name": f"Protein#{index}",
            "prot_org_id": protein_organism(),
            "prot_length": protein_length(),
        }
        for index in range(profile.profile("protein").total_rows)
    ]
    sequence_length = generator.integers(50, 3000)
    sequence_gc = generator.decimals(0.2, 0.8)
    sequence_rows = [
        {
            "seq_id": index,
            "seq_prot_id": index % len(protein_rows),
            "seq_length": sequence_length(),
            "seq_gc_content": sequence_gc(),
        }
        for index in range(profile.profile("sequence").total_rows)
    ]
    annotation_protein = generator.integers(0, len(protein_rows) - 1)
    annotation_keyword = generator.choices(ANNOTATION_KEYWORDS)
    annotation_confidence = generator.decimals(0.0, 1.0)
    annotation_rows = [
        {
            "ann_id": index,
            "ann_prot_id": annotation_protein(),
            "ann_keyword": annotation_keyword(),
            "ann_confidence": annotation_confidence(),
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
            "annotation": And(
                in_list("ann_keyword", ["kinase", "transferase", "hydrolase"]),
                Comparison(">=", col("ann_confidence"), Literal(0.2)),
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
    return lookup(QUERIES, name, "NREF query")()
