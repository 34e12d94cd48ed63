"""Cost model translating work into simulated seconds.

The paper reports wall-clock times measured on a physical testbed (Table 3
breaks a TPC-H Q12 run into ~407 s of query execution and ~550 s of network
transfer for 57 one-gigabyte segments, plus a 10 s group-switch latency).
This reproduction replays the same *structure* of costs over simulated time.
The defaults below are calibrated so that a single-client Q12 run lands in
the paper's ballpark:

* The transfer side (≈ 9.6 s per object: the paper's serialized Swift
  middleware pushes roughly one 1 GB object every ten seconds, 550 s / 57)
  is the device's to charge — :class:`~repro.csd.device.DeviceConfig` holds
  it, not this model.
* CPU costs are expressed per tuple and scaled by
  ``rows_per_gigabyte_equivalent`` so that experiments can use small
  synthetic segments (hundreds of rows) while still charging the simulated
  CPU as if each segment were a full 1 GB PostgreSQL segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine.operators.base import OperatorStats
from repro.exceptions import ConfigurationError


@dataclass
class CostModel:
    """Simulated-time costs of query processing on the client.

    The CPU-side constants are deliberately simple: the experiments depend on
    the *ratio* between waiting time (group switches + transfers) and useful
    work, not on faithfully modelling PostgreSQL's CPU profile.
    """

    #: Seconds of CPU per tuple scanned (predicate evaluation, deserialisation).
    scan_seconds_per_tuple: float = 0.9e-3
    #: Seconds of CPU per tuple inserted into a hash table.
    build_seconds_per_tuple: float = 1.2e-3
    #: Seconds of CPU per probe into a hash table.
    probe_seconds_per_tuple: float = 0.8e-3
    #: Seconds of CPU per result tuple emitted (aggregation update included).
    output_seconds_per_tuple: float = 1.0e-3
    #: Fixed per-object request overhead on the client (catalog lookup, HTTP).
    request_overhead_seconds: float = 0.05
    #: Scale factor: simulated tuples per segment are treated as this many
    #: "paper tuples" so CPU charges match 1 GB segments even though the
    #: synthetic segments hold only a few hundred rows.  With the default
    #: workload profiles (~80 rows per segment) a value of 50 puts the CPU
    #: share of a query in the same ballpark as the paper's Table 3.
    tuple_scale: float = 50.0

    def __post_init__(self) -> None:
        for name in (
            "scan_seconds_per_tuple",
            "build_seconds_per_tuple",
            "probe_seconds_per_tuple",
            "output_seconds_per_tuple",
            "request_overhead_seconds",
            "tuple_scale",
        ):
            # Finite too: a scan-only charge leaves ``cpu_time``'s zero terms
            # out, and ``inf * 0`` would have made them NaN.
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and non-negative")

    # ------------------------------------------------------------------ #
    # Individual cost components
    # ------------------------------------------------------------------ #
    def scan_time(self, num_tuples: int) -> float:
        """CPU time to scan and filter ``num_tuples`` tuples."""
        return self.scan_seconds_per_tuple * num_tuples * self.tuple_scale

    def build_time(self, num_tuples: int) -> float:
        """CPU time to insert ``num_tuples`` tuples into hash tables."""
        return self.build_seconds_per_tuple * num_tuples * self.tuple_scale

    def probe_time(self, num_probes: int) -> float:
        """CPU time for ``num_probes`` hash-table probes."""
        return self.probe_seconds_per_tuple * num_probes * self.tuple_scale

    def output_time(self, num_tuples: int) -> float:
        """CPU time to emit ``num_tuples`` result tuples."""
        return self.output_seconds_per_tuple * num_tuples * self.tuple_scale

    def cpu_time(self, stats: OperatorStats) -> float:
        """CPU time for all the work counted in ``stats``.

        The sum of the four component times, spelled out: it runs once per
        arrival.  Each term keeps its method's float order (``rate * n *
        tuple_scale``), so the result is bit-identical to adding them up.
        """
        scale = self.tuple_scale
        return (
            self.scan_seconds_per_tuple * stats.tuples_scanned * scale
            + self.build_seconds_per_tuple * stats.tuples_built * scale
            + self.probe_seconds_per_tuple * stats.tuples_probed * scale
            + self.output_seconds_per_tuple * stats.tuples_output * scale
        )

    def request_overhead(self, num_requests: int = 1) -> float:
        """Client-side overhead for issuing ``num_requests`` object requests."""
        return self.request_overhead_seconds * num_requests
