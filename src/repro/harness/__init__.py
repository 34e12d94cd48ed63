"""Experiment harness: one entry point per table / figure in the paper.

Every experiment function in :mod:`repro.harness.experiments` builds the
relevant workload, wires up a batch run through the service façade
(:class:`~repro.service.service.StorageService`: tenants + layout +
scheduler + CSD), runs it over simulated time and returns a plain-data
summary that the benchmarks print.
:mod:`repro.harness.tables` renders those summaries as fixed-width text
tables.
"""

from repro.harness.tables import format_admission_table, format_table, render_mapping
from repro.harness import experiments

__all__ = ["experiments", "format_admission_table", "format_table", "render_mapping"]
