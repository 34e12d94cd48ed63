"""Simulated-time spans and the tracer that collects them.

A :class:`Span` is one named stretch of simulated time on a *track* (a
tenant or a device), optionally parented to another span, carrying flat
``attrs`` and a list of timestamped events.  The :class:`Tracer` hands out
spans with sequential ids in creation order, which — together with every
timestamp coming from the simulated clock — makes an exported trace
byte-deterministic for a given spec + seed.

The query path threads context by **query id** rather than by passing span
objects through every layer: the executor minting a query id binds it to the
query's ``execute`` span (:meth:`Tracer.bind_query`), and lower layers (the
fleet router choosing a replica, a device accepting a GET into its inbox)
attach their observations by query id.  Device *service* spans are not
recorded live at all — the exporter derives them from each device's
``busy_intervals`` list of :class:`~repro.csd.device.BusyInterval` records,
which exists anyway.

When tracing is off the service's ``tracer`` is ``None``; every
instrumentation site is guarded by ``tracer is not None``, so the off path
performs no tracing work beyond the guard itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Environment


class Span:
    """One named interval of simulated time within a trace."""

    __slots__ = ("span_id", "parent_id", "name", "kind", "track", "start", "end",
                 "attrs", "events")

    def __init__(
        self,
        span_id: int,
        name: str,
        kind: str,
        track: str,
        start: float,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.track = track
        self.start = start
        #: ``None`` until the span is ended (exported as ``start`` if never).
        self.end: Optional[float] = None
        self.attrs = attrs
        #: ``(at, name, attrs)`` in recording order.
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "track": self.track,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "attrs": dict(self.attrs),
            "events": [
                {"at": at, "name": name, "attrs": dict(attrs)}
                for at, name, attrs in self.events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span #{self.span_id} {self.name!r} [{self.start}, {self.end}]>"


class Tracer:
    """Collects spans stamped with the simulated clock."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: Every span ever started, in creation order (ids are 1-based).
        self.spans: List[Span] = []
        #: query id -> the query's ``execute`` span, for cross-layer joins.
        self._span_by_query: Dict[str, Span] = {}
        #: ``(at, query_id, object_key, device_id)`` — a GET entering a
        #: device inbox; the exporter pairs these with transfer intervals to
        #: derive per-request inbox-wait spans.
        self.io_submissions: List[Tuple[float, str, str, str]] = []

    # ------------------------------------------------------------------ #
    # Span lifecycle
    # ------------------------------------------------------------------ #
    def start_span(
        self,
        name: str,
        kind: str,
        track: str,
        parent: Optional[Span] = None,
        start: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; ``start`` defaults to the current simulated time."""
        span = Span(
            span_id=len(self.spans) + 1,
            name=name,
            kind=kind,
            track=track,
            start=self.env.now if start is None else start,
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def end_span(self, span: Span, end: Optional[float] = None) -> None:
        span.end = self.env.now if end is None else end

    def record_span(
        self,
        name: str,
        kind: str,
        track: str,
        start: float,
        end: float,
        parent: Optional[Span],
        **attrs: Any,
    ) -> Span:
        """Create an already-completed span (both timestamps known)."""
        span = self.start_span(name, kind, track, parent=parent, start=start, **attrs)
        span.end = end
        return span

    def add_event(self, span: Span, name: str, **attrs: Any) -> None:
        span.events.append((self.env.now, name, attrs))

    # ------------------------------------------------------------------ #
    # Cross-layer context (keyed by query id)
    # ------------------------------------------------------------------ #
    def bind_query(self, query_id: str, span: Span) -> None:
        """Associate ``query_id`` with its ``execute`` span."""
        self._span_by_query[query_id] = span

    def query_span(self, query_id: Optional[str]) -> Optional[Span]:
        """The ``execute`` span bound to ``query_id``, if any."""
        if query_id is None:
            return None
        return self._span_by_query.get(query_id)

    def route(
        self,
        query_id: str,
        object_key: str,
        device_id: str,
        epoch: int,
        policy: str,
        outstanding: int,
    ) -> None:
        """Record one routing decision as an event on the query's span."""
        span = self._span_by_query.get(query_id)
        if span is None:
            return
        span.events.append(
            (
                self.env.now,
                "route",
                {
                    "object_key": object_key,
                    "device": device_id,
                    "epoch": epoch,
                    "policy": policy,
                    "outstanding": outstanding,
                },
            )
        )

    def io_submit(self, query_id: str, object_key: str, device_id: str) -> None:
        """Record a GET entering ``device_id``'s inbox."""
        self.io_submissions.append((self.env.now, query_id, object_key, device_id))
