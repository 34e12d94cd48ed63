"""Observability: simulated-time tracing and the metrics catalogue.

Three independent pieces live here:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, a catalogue of names
  over the plain attributes the components bump in place.  A component
  (admission controller, fleet router, device, scheduler, the kernel)
  publishes its counters once at construction; reports read the attributes
  directly and ``service.metrics.to_dict()`` reads the same attributes by
  name, so the catalogue is always on and costs nothing per event.
* :mod:`repro.obs.ewma` — a deterministic :class:`Ewma` over simulated-time
  samples; the fleet router keeps one per device for its ``ewma-latency``
  replica policy and the feedback rebalancer.
* :mod:`repro.obs.tracer` — a :class:`Tracer` producing :class:`Span` trees
  stamped with **simulated** time, so traces are byte-deterministic for a
  given spec + seed.  Tracing is opt-in (``ScenarioSpec.trace=True`` or
  ``--trace`` on the CLIs); when off, a shared :data:`NULL_TRACER` with the
  same interface is installed and every instrumentation site is guarded by
  ``tracer.enabled``, so the off path adds only dead branches.

Exporters (:mod:`repro.obs.export`) emit a canonical JSON trace document and
a Chrome trace-event conversion (one track per tenant, one per device —
loadable in Perfetto).  :mod:`repro.obs.analysis` turns a trace document
into per-query critical-path breakdowns; ``python -m repro.trace`` is its
CLI.
"""

from repro.obs.ewma import Ewma
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Ewma",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
]
