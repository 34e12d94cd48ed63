"""A typed metrics registry: counters, gauges and fixed-bucket histograms.

The registry replaces the ad-hoc integer attributes the service components
used to keep (``stats.objects_served += 1`` and friends) with named metric
objects.  Components hold direct references to their metric objects, so the
hot-path cost of an increment is one bound-method call — the registry dict is
only consulted at construction and snapshot time.

Naming convention (documented in the README): dotted lowercase paths,
``<component>.<metric>`` with optional entity segments, e.g.
``admission.tenant.tenant0.rejected``, ``device.csd2.objects_served``,
``router.requests_routed``.  Identity segments (tenant ids, device ids) are
used verbatim.

Determinism: every metric value is driven by the simulated run, snapshots
sort by name, and histograms record samples in observation order — so a
registry snapshot is byte-identical across reruns of the same spec + seed.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, TypeVar, Union, cast

from repro.exceptions import ConfigurationError

Number = Union[int, float]

#: The concrete metric kinds `MetricsRegistry._get` can vend.
_MetricT = TypeVar("_MetricT", "Counter", "Gauge", "Histogram")

#: Default histogram bucket upper bounds, in simulated seconds.  Chosen to
#: resolve both sub-second admission waits and multi-minute cold-storage
#: stalls; an implicit +inf bucket catches everything above the last bound.
DEFAULT_SECONDS_BOUNDS: Tuple[float, ...] = (
    0.5,
    1.0,
    2.0,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
    600.0,
    1800.0,
    3600.0,
)


class Counter:
    """A monotonically increasing value (int or float, set by ``initial``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, initial: Number = 0) -> None:
        self.name = name
        self.value = initial

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount!r})"
            )
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class CounterView:
    """Class attribute exposing an instance's registry counter as a plain number.

    ``x = CounterView()`` on a stats class reads and writes the value of the
    :class:`Counter` the instance holds as ``_x``: report code and tests see
    ordinary numeric attributes while the value lives in the registry.
    Writes bypass ``Counter.inc``'s monotonicity guard on purpose —
    aggregation and tests that perturb a counter set it outright.
    """

    __slots__ = ("_attribute",)

    def __set_name__(self, owner: Type[Any], name: str) -> None:
        self._attribute = "_" + name

    def __get__(self, instance: Any, owner: Optional[Type[Any]] = None) -> Any:
        if instance is None:
            return self
        return getattr(instance, self._attribute).value

    def __set__(self, instance: Any, value: Number) -> None:
        getattr(instance, self._attribute).value = value


class Gauge:
    """A point-in-time value that also remembers its peak."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str, initial: Number = 0) -> None:
        self.name = name
        self.value = initial
        self.peak = initial

    def set(self, value: Number) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value, "peak": self.peak}


class Histogram:
    """Fixed-bound bucket counts plus the raw samples, in observation order.

    The fixed bounds make snapshots comparable across runs and exportable;
    the raw samples let report code compute the exact means/percentiles the
    golden metrics pin (a bucketed histogram alone could only approximate
    them).  Sample count is bounded by the number of observations in one
    scenario run, which is small by construction.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "samples", "sum")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        chosen = tuple(bounds) if bounds is not None else DEFAULT_SECONDS_BOUNDS
        if not chosen or list(chosen) != sorted(chosen):
            raise ConfigurationError(
                f"histogram {self.__class__.__name__} {name!r}: bounds must be "
                f"a non-empty ascending sequence, got {chosen!r}"
            )
        self.name = name
        self.bounds = chosen
        #: One count per bound plus the implicit +inf overflow bucket.
        self.bucket_counts = [0] * (len(chosen) + 1)
        self.samples: List[float] = []
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.samples.append(value)
        self.sum += value

    @property
    def count(self) -> int:
        return len(self.samples)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": min(self.samples) if self.samples else 0.0,
            "max": max(self.samples) if self.samples else 0.0,
        }


class MetricsRegistry:
    """Named metric objects, one namespace per service instance."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, name: str, kind: Type[_MetricT], factory: Callable[[], _MetricT]) -> _MetricT:
        if not name or not isinstance(name, str):
            raise ConfigurationError(f"metric names must be non-empty strings, got {name!r}")
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
            return metric
        if not isinstance(metric, kind):
            raise ConfigurationError(
                f"metric {name!r} is already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return cast(_MetricT, metric)

    def counter(self, name: str, initial: Number = 0) -> Counter:
        """Get or create the counter ``name`` (``initial`` fixes int/float)."""
        return self._get(name, Counter, lambda: Counter(name, initial))

    def gauge(self, name: str, initial: Number = 0) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name, initial))

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, bounds))

    def get(self, name: str) -> Optional[Union[Counter, Gauge, Histogram]]:
        """The registered metric, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic snapshot of every metric, keyed and sorted by name."""
        return {name: self._metrics[name].to_dict() for name in sorted(self._metrics)}
