"""Trace exporters: canonical JSON documents and Chrome trace-event files.

:func:`build_trace` turns a traced, completed
:class:`~repro.service.service.StorageService` into a plain-dict trace
document.  Besides the spans the tracer recorded live, it *derives* the
device-side spans from the ``busy_intervals`` list of every device in
``service.devices`` (one entry for the single CSD) — transfers, group
switches and migration I/O — and inbox-wait spans pairing each GET's inbox
entry (``Tracer.io_submit``) with the transfer that served it.  Device spans
are parented onto the owning query's ``execute`` span via the query id, which
is how the admission → routing → device → operator tree closes end to end.

Everything in the document is driven by the simulated clock and emitted in
deterministic order (live spans in creation order, derived spans in roster ×
log order), so :func:`trace_to_json` is byte-identical across reruns of the
same spec + seed.  :func:`to_chrome` converts a document into the Chrome
trace-event format (one track per tenant, one per device) loadable in
Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.service import StorageService

#: Format tag + version embedded in every exported document.
TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1

#: Span kinds that live on tenant tracks (everything else is a device track).
TENANT_KINDS = ("query", "executor", "compute", "wait", "operator")


def _derive_device_spans(
    service: StorageService, next_id: int
) -> List[Dict[str, Any]]:
    """Device service + inbox-wait spans, derived from the devices' interval lists."""
    tracer = service.tracer
    spans: List[Dict[str, Any]] = []

    # GET inbox entries grouped by (device, query, key), in submission order.
    submissions: Dict[Tuple[str, str, str], Deque[float]] = {}
    for at, query_id, object_key, device_id in tracer.io_submissions:
        submissions.setdefault((device_id, query_id, object_key), deque()).append(at)

    for device in service.devices:
        device_id = device.name
        for interval in device.busy_intervals:
            parent = tracer.query_span(interval.query_id)
            attrs: Dict[str, Any] = {"group": interval.group_id}
            if interval.client_id is not None:
                attrs["tenant"] = interval.client_id
            if interval.object_key is not None:
                attrs["object_key"] = interval.object_key
            if interval.kind == "migration":
                # Migration intervals reuse the query-id slot for a
                # "reason:direction:epochN" tag (they belong to no query).
                attrs["job"] = interval.query_id
            elif interval.query_id is not None:
                attrs["query_id"] = interval.query_id
            if interval.kind == "transfer":
                waited = submissions.get(
                    (device_id, interval.query_id, interval.object_key)
                )
                if waited:
                    submitted_at = waited.popleft()
                    if interval.start > submitted_at:
                        spans.append(
                            {
                                "id": next_id,
                                "parent": parent.span_id if parent else None,
                                "name": "inbox-wait",
                                "kind": "device",
                                "track": device_id,
                                "start": submitted_at,
                                "end": interval.start,
                                "attrs": {
                                    "object_key": interval.object_key,
                                    "query_id": interval.query_id,
                                },
                                "events": [],
                            }
                        )
                        next_id += 1
            spans.append(
                {
                    "id": next_id,
                    "parent": (
                        parent.span_id
                        if parent is not None and interval.kind == "transfer"
                        else None
                    ),
                    "name": interval.kind,
                    "kind": "device",
                    "track": device_id,
                    "start": interval.start,
                    "end": interval.end,
                    "attrs": attrs,
                    "events": [],
                }
            )
            next_id += 1
    return spans


def build_trace(
    service: StorageService, scenario: Optional[str] = None
) -> Dict[str, Any]:
    """Assemble the canonical trace document for a completed traced run."""
    tracer = service.tracer
    if not tracer.enabled:
        raise ConfigurationError(
            "tracing was not enabled on this service; construct it from a "
            "spec with trace=True (or pass --trace on the CLI)"
        )
    spans = [span.to_dict() for span in tracer.spans]
    spans.extend(_derive_device_spans(service, next_id=len(spans) + 1))

    tenant_tracks: List[str] = []
    device_tracks: List[str] = []
    for span in spans:
        bucket = tenant_tracks if span["kind"] in TENANT_KINDS else device_tracks
        if span["track"] not in bucket:
            bucket.append(span["track"])

    return {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "scenario": scenario,
        "total_simulated_time": service.env.now,
        "tracks": {
            "tenants": sorted(tenant_tracks),
            "devices": sorted(device_tracks),
        },
        "spans": spans,
    }


def trace_to_json(document: Dict[str, Any]) -> str:
    """Serialize a trace document canonically (byte-identical per run)."""
    from repro.scenarios.report import canonical

    return json.dumps(canonical(document), sort_keys=True, indent=2) + "\n"


def to_chrome(document: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a trace document to Chrome trace-event JSON.

    Tenants become threads of process 1, devices threads of process 2 — one
    named track each in Perfetto.  Simulated seconds map to microseconds
    (the trace-event timebase), and span events become instant events.
    """
    tenants = document["tracks"]["tenants"]
    devices = document["tracks"]["devices"]
    location: Dict[str, Tuple[int, int]] = {}
    events: List[Dict[str, Any]] = []
    for pid, process, tracks in ((1, "tenants", tenants), (2, "devices", devices)):
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": process}}
        )
        for tid, track in enumerate(tracks, start=1):
            location[track] = (pid, tid)
            events.append(
                {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                 "args": {"name": track}}
            )

    for span in document["spans"]:
        pid, tid = location[span["track"]]
        start_us = span["start"] * 1e6
        events.append(
            {
                "ph": "X",
                "name": span["name"],
                "cat": span["kind"],
                "ts": start_us,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": dict(span["attrs"]),
            }
        )
        for event in span["events"]:
            events.append(
                {
                    "ph": "i",
                    "name": event["name"],
                    "s": "t",
                    "ts": event["at"] * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(event["attrs"]),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
