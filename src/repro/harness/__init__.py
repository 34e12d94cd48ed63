"""Experiment harness: one entry point per table / figure in the paper.

Every experiment function in :mod:`repro.harness.experiments` builds the
relevant workload, wires up a batch run through the service façade
(:class:`~repro.service.service.StorageService`: tenants + layout +
scheduler + CSD), runs it over simulated time and returns a plain-data
summary that the figure tests (``tests/figures/``) print.
:mod:`repro.harness.tables` renders those summaries as fixed-width text
tables; it is a leaf that ``repro.obs`` and ``repro.scenarios`` import too,
so this package does not import :mod:`~repro.harness.experiments` (the top
layer, over the service façade) on their behalf — ``from repro.harness
import experiments`` loads it on demand.
"""

from repro.harness.tables import format_table

__all__ = ["format_table"]
