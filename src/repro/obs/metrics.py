"""The metrics catalogue: names over counters that live where they are bumped.

A counter in this code base is a plain attribute — an ``int``, a ``float``
or a list or ``array`` of samples — on the component that maintains it
(``device.stats.objects_served += 1``).  Nothing on a hot path knows about
this module.  A component that wants its numbers exported *publishes* them
once, at construction: ``metrics.publish("device.csd0", stats, ("objects_served",
...))`` files one name per field, and the registry reads
``getattr(source, field)`` when — and only when — somebody asks for a
snapshot.  Registering a layer costs one line and nothing per event.

Naming convention (documented in the README): dotted lowercase paths,
``<prefix>.<attribute>``, the prefix naming the component and, where there
are several, the entity: ``device.csd2.objects_served``,
``admission.tenant.tenant0.rejected``, ``router.requests_routed``.  Identity
segments (tenant ids, device ids) are used verbatim.

Determinism: every catalogued value is driven by the simulated run and
snapshots sort by name, so a snapshot is byte-identical across reruns of
the same spec + seed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union

from repro.exceptions import ConfigurationError


def _render(value: Any) -> Any:
    """A number as itself; a sample list or array as its count / sum / min / max."""
    if not isinstance(value, (int, float)):
        return {
            "count": len(value),
            "sum": sum(value),
            "min": min(value, default=0.0),
            "max": max(value, default=0.0),
        }
    return value


class MetricsRegistry:
    """Metric name -> the attribute it reads, one namespace per service."""

    __slots__ = ("_sources",)

    def __init__(self) -> None:
        self._sources: Dict[str, Tuple[object, str]] = {}

    def publish(
        self, prefix: str, source: object, fields: Union[Iterable[str], Mapping[str, str]]
    ) -> None:
        """Catalogue ``source.<field>`` as ``<prefix>.<field>`` for every field.

        ``fields`` may be a mapping ``metric name -> attribute`` where the
        two differ.  A name that is empty or already taken, or an attribute
        ``source`` does not have, is a :class:`ConfigurationError`: two
        components never share a metric silently.
        """
        pairs = fields.items() if isinstance(fields, Mapping) else ((f, f) for f in fields)
        for label, attribute in pairs:
            name = f"{prefix}.{label}"
            if not prefix or not label:
                raise ConfigurationError(f"metric names must be non-empty, got {name!r}")
            if name in self._sources:
                raise ConfigurationError(f"metric {name!r} is already published")
            if not hasattr(source, attribute):
                raise ConfigurationError(
                    f"metric {name!r}: {type(source).__name__} has no attribute {attribute!r}"
                )
            self._sources[name] = (source, attribute)

    def get(self, name: str) -> Any:
        """The current value of metric ``name``, or ``None`` if unpublished."""
        entry = self._sources.get(name)
        return None if entry is None else _render(getattr(*entry))

    def names(self) -> List[str]:
        """All published metric names, sorted."""
        return sorted(self._sources)

    def __len__(self) -> int:
        return len(self._sources)

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic snapshot of every metric, keyed and sorted by name."""
        return {name: self.get(name) for name in self.names()}
