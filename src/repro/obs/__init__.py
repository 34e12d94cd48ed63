"""Observability: simulated-time tracing and a typed metrics registry.

Two independent pieces live here:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of named counters,
  gauges and fixed-bucket histograms.  Every service component (admission
  controller, fleet router, devices, migration throttle) registers its
  counters here instead of keeping ad-hoc integer attributes; the scenario
  report sections read the same registry values, so the registry is always
  on and costs exactly what the old attribute counters cost.
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
from repro.obs.metrics import Counter, CounterView, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "CounterView",
    "Ewma",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
]
