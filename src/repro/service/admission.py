"""Admission control between sessions and the storage backend.

The :class:`AdmissionController` decides, for every query a session wants to
start, whether it runs now (**admitted**), waits in a bounded FIFO queue
(**queued**) or is refused outright (**rejected**, surfaced to callers as a
typed :class:`~repro.exceptions.AdmissionError`).  Capacity is expressed as
in-flight query caps — one global, one per tenant — mirroring how a serving
system protects a storage fleet from overload: past the caps requests queue,
and past the queue they are shed.

The controller is deterministic: grants happen in strict FIFO order over the
waiting queue (skipping entries whose tenant cap is still exhausted), and all
bookkeeping uses the simulated clock.  A service with no controller attached
behaves exactly like the pre-façade batch harness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.cluster.metrics import jain_fairness, mean, percentile
from repro.exceptions import AdmissionError, ConfigurationError, is_count
from repro.obs import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Environment
    from repro.sim.events import Event


@dataclass(frozen=True)
class AdmissionConfig:
    """Capacity knobs of the admission controller.

    ``None`` caps are unlimited; a cap of 0 means no query can ever run and
    everything is rejected (useful to drain or fence a service).
    """

    #: Maximum queries executing concurrently across the whole service.
    max_in_flight: Optional[int] = None
    #: Maximum queries executing concurrently per tenant.
    max_in_flight_per_tenant: Optional[int] = None
    #: Maximum queries waiting for a slot before new arrivals are rejected.
    max_queue_depth: int = 64

    def __post_init__(self) -> None:
        for label, value in (
            ("max_in_flight", self.max_in_flight),
            ("max_in_flight_per_tenant", self.max_in_flight_per_tenant),
        ):
            if value is not None and not is_count(value, minimum=0):
                raise ConfigurationError(
                    f"{label} must be a non-negative integer or None, got {value!r}"
                )
        depth = self.max_queue_depth
        if not is_count(depth, minimum=0):
            raise ConfigurationError(
                f"max_queue_depth must be a non-negative integer, got {depth!r}"
            )

    @property
    def zero_capacity(self) -> bool:
        """True when no query can ever be granted a slot."""
        return self.max_in_flight == 0 or self.max_in_flight_per_tenant == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "max_in_flight": self.max_in_flight,
            "max_in_flight_per_tenant": self.max_in_flight_per_tenant,
            "max_queue_depth": self.max_queue_depth,
        }


class AdmissionTicket:
    """Outcome of one admission request."""

    __slots__ = ("event", "error", "queued")

    def __init__(
        self,
        event: Optional[Event] = None,
        error: Optional[AdmissionError] = None,
        queued: bool = False,
    ):
        #: Event that fires when the slot is granted (``None`` when rejected).
        self.event = event
        #: The rejection, when admission refused the query.
        self.error = error
        #: Whether the query had to wait in the admission queue.
        self.queued = queued

    @property
    def rejected(self) -> bool:
        return self.error is not None


class _TenantCounters:
    """Per-tenant admission counters, published as ``admission.tenant.<id>.*``."""

    __slots__ = ("submitted", "admitted", "queued", "rejected", "queue_delay")

    def __init__(self) -> None:
        self.submitted = self.admitted = self.queued = self.rejected = 0
        #: Simulated seconds each queued query waited for its grant.
        self.queue_delay: List[float] = []


class AdmissionController:
    """Per-tenant and global in-flight caps with a bounded FIFO queue."""

    def __init__(
        self,
        env: Environment,
        config: AdmissionConfig,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.env = env
        self.config = config
        #: Catalogue the counters are published into (``None`` = none).
        self.metrics = metrics
        #: Queries currently executing under this controller, and the most
        #: that ever were; the deepest the admission queue ever got.
        self.in_flight = 0
        self.peak_in_flight = 0
        self.peak_queue_depth = 0
        self._in_flight_by_tenant: Dict[str, int] = {}
        #: FIFO of (tenant, grant event, enqueue time).
        self._waiting: Deque[Tuple[str, Event, float]] = deque()
        self._counters: Dict[str, _TenantCounters] = {}
        #: The tenants' ``queue_delay`` lists in first-grant order — the
        #: flattening order the report's aggregate percentiles depend on.
        self._delayed: List[List[float]] = []
        if metrics is not None:
            metrics.publish(
                "admission", self, ("in_flight", "peak_in_flight", "waiting", "peak_queue_depth")
            )

    # ------------------------------------------------------------------ #
    # Slot accounting
    # ------------------------------------------------------------------ #
    def _tenant(self, tenant_id: str) -> _TenantCounters:
        counters = self._counters.get(tenant_id)
        if counters is None:
            counters = self._counters[tenant_id] = _TenantCounters()
            if self.metrics is not None:
                self.metrics.publish(
                    f"admission.tenant.{tenant_id}", counters, _TenantCounters.__slots__
                )
        return counters

    def _has_capacity(self, tenant_id: str) -> bool:
        if (
            self.config.max_in_flight is not None
            and self.in_flight >= self.config.max_in_flight
        ):
            return False
        if self.config.max_in_flight_per_tenant is not None:
            used = self._in_flight_by_tenant.get(tenant_id, 0)
            if used >= self.config.max_in_flight_per_tenant:
                return False
        return True

    def _occupy(self, tenant_id: str) -> None:
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        self._in_flight_by_tenant[tenant_id] = self._in_flight_by_tenant.get(tenant_id, 0) + 1
        self._tenant(tenant_id).admitted += 1

    # ------------------------------------------------------------------ #
    # Session-facing API
    # ------------------------------------------------------------------ #
    def request(self, tenant_id: str) -> AdmissionTicket:
        """Ask for an execution slot; never blocks, the ticket says how."""
        counters = self._tenant(tenant_id)
        counters.submitted += 1
        if self.config.zero_capacity:
            counters.rejected += 1
            return AdmissionTicket(error=self._rejection(tenant_id, "capacity is zero"))
        if self._has_capacity(tenant_id):
            self._occupy(tenant_id)
            grant = self.env.event(name=f"admission-grant:{tenant_id}")
            grant.succeed(None)
            return AdmissionTicket(event=grant)
        if len(self._waiting) >= self.config.max_queue_depth:
            counters.rejected += 1
            return AdmissionTicket(
                error=self._rejection(
                    tenant_id,
                    f"admission queue is full ({self.config.max_queue_depth} waiting)",
                )
            )
        counters.queued += 1
        grant = self.env.event(name=f"admission-wait:{tenant_id}")
        self._waiting.append((tenant_id, grant, self.env.now))
        self.peak_queue_depth = max(self.peak_queue_depth, len(self._waiting))
        return AdmissionTicket(event=grant, queued=True)

    def release(self, tenant_id: str) -> None:
        """Return a slot after a query finished; grants eligible waiters FIFO."""
        if self.in_flight <= 0:
            raise ConfigurationError("admission release without a matching grant")
        # The global counter alone cannot catch a mismatched release: other
        # tenants' in-flight queries keep it positive while this tenant's
        # counter would silently go negative (inflating its capacity under
        # a per-tenant cap).
        in_flight = self._in_flight_by_tenant.get(tenant_id, 0)
        if in_flight <= 0:
            raise ConfigurationError(
                f"admission release without a matching grant for tenant {tenant_id!r}"
            )
        self.in_flight -= 1
        self._in_flight_by_tenant[tenant_id] = in_flight - 1
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        """Grant queued requests in FIFO order, skipping capped tenants."""
        still_waiting: Deque[Tuple[str, Event, float]] = deque()
        while self._waiting:
            tenant_id, grant, enqueued_at = self._waiting.popleft()
            if self._has_capacity(tenant_id):
                self._occupy(tenant_id)
                delays = self._tenant(tenant_id).queue_delay
                if not delays:
                    self._delayed.append(delays)
                delays.append(self.env.now - enqueued_at)
                grant.succeed(None)
            else:
                still_waiting.append((tenant_id, grant, enqueued_at))
        self._waiting = still_waiting

    def _rejection(self, tenant_id: str, reason: str) -> AdmissionError:
        return AdmissionError(
            f"tenant {tenant_id!r}: query rejected by admission control ({reason})"
        )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def waiting(self) -> int:
        """Queries currently held in the admission queue."""
        return len(self._waiting)

    def summary(self) -> Dict[str, object]:
        """Canonical metrics dict for the scenario report's admission section.

        The aggregate delay statistics flatten the per-tenant samples in the
        tenants' first-grant order (``_delayed``), which
        reproduces the historical float-summation order byte for byte.
        """
        delays = [delay for samples in self._delayed for delay in samples]
        per_tenant = {
            tenant_id: {
                "submitted": counters.submitted,
                "admitted": counters.admitted,
                "queued": counters.queued,
                "rejected": counters.rejected,
                "mean_queue_delay": mean(counters.queue_delay),
            }
            for tenant_id, counters in sorted(self._counters.items())
        }
        # Fairness is a statement about *queueing* tenants: one that was
        # always admitted straight through (or only ever rejected) recorded
        # no delay, and counting its 0.0 mean would drag the index down as
        # if it had been favoured with instant grants.
        delay_means = [
            entry["mean_queue_delay"]
            for tenant_id, entry in per_tenant.items()
            if self._counters[tenant_id].queue_delay
        ]
        return {
            "config": self.config.to_dict(),
            "submitted": sum(c.submitted for c in self._counters.values()),
            "admitted": sum(c.admitted for c in self._counters.values()),
            "queued": sum(c.queued for c in self._counters.values()),
            "rejected": sum(c.rejected for c in self._counters.values()),
            "peak_in_flight": self.peak_in_flight,
            "peak_queue_depth": self.peak_queue_depth,
            "queue_delay": {
                "mean": mean(delays),
                "p50": percentile(delays, 0.50) if delays else 0.0,
                "p95": percentile(delays, 0.95) if delays else 0.0,
                "max": max(delays) if delays else 0.0,
            },
            "fairness_jain": jain_fairness(delay_means) if delay_means else 1.0,
            "per_tenant": per_tenant,
        }
