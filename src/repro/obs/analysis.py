"""Critical-path analysis over exported trace documents.

Answers the question the aggregate report cannot: *where did one query's
latency actually go?*  For every ``execute`` span the trace holds, the time
from admission grant to completion is attributed to four phases:

* **compute** — CPU the executor charged (scans, joins, request overhead);
* **migration-interference** — waiting that overlapped rebalance/repair I/O
  on some device (the seconds background copies stole from the query);
* **device-busy** — waiting that overlapped foreground device activity
  (group switches and other queries' transfers);
* **other** — the remainder (idle gaps, waiting on devices that were
  themselves idle at that instant, rounding).

Together with the admission **queue** delay carried on the query's root
span, the five phases sum to the query's reported latency *by construction*
(``other`` absorbs the residual), which the tests pin.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.cluster.metrics import MergedSpans, sweep_blocked
from repro.harness.tables import format_table

#: Phase keys of one query breakdown, in presentation order.
PHASES = ("queue", "compute", "migration_interference", "device_busy", "other")


def query_breakdowns(document: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One critical-path breakdown dict per ``execute`` span, in span order."""
    spans = document["spans"]
    by_id: Dict[int, Dict[str, Any]] = {span["id"]: span for span in spans}
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            children.setdefault(parent, []).append(span)

    device_spans = [span for span in spans if span["kind"] == "device"]
    migration_spans = MergedSpans(
        [(span["start"], span["end"]) for span in device_spans
         if span["name"] == "migration"]
    )
    busy_spans = MergedSpans(
        [(span["start"], span["end"]) for span in device_spans
         if span["name"] in ("switch", "transfer", "migration")]
    )
    executes = [span for span in spans if span["kind"] == "executor"]
    # One sweep for every query: waiting inside migration I/O, and waiting
    # inside other device activity (busy_spans contains the migration
    # intervals, so the rest of it is foreground switches/transfers).
    _waited, in_migration, in_foreground = sweep_blocked(
        [
            [
                (child["start"], child["end"])
                for child in children.get(span["id"], ())
                if child["kind"] == "wait"
            ]
            for span in executes
        ],
        migration_spans,
        busy_spans,
    )

    breakdowns: List[Dict[str, Any]] = []
    for span, migration, busy in zip(executes, in_migration, in_foreground):
        root = by_id.get(span["parent"]) if span["parent"] is not None else None
        queue = float(root["attrs"].get("queue_delay", 0.0)) if root else 0.0
        compute = 0.0
        for child in children.get(span["id"], ()):
            if child["kind"] == "compute":
                compute += child["end"] - child["start"]
        execute_seconds = span["end"] - span["start"]
        total = queue + execute_seconds
        breakdowns.append(
            {
                "query_id": span["attrs"].get("query_id"),
                "query": root["attrs"].get("query") if root else None,
                "tenant": span["track"],
                "total": total,
                "queue": queue,
                "compute": compute,
                "migration_interference": migration,
                "device_busy": busy,
                "other": execute_seconds - compute - migration - busy,
            }
        )
    return breakdowns


def tenant_totals(
    breakdowns: Sequence[Dict[str, Any]]
) -> Dict[str, Dict[str, float]]:
    """Per-phase totals per tenant, tenants sorted by name."""
    totals: Dict[str, Dict[str, float]] = {}
    for breakdown in breakdowns:
        entry = totals.setdefault(
            breakdown["tenant"],
            {"queries": 0, "total": 0.0, **{phase: 0.0 for phase in PHASES}},
        )
        entry["queries"] += 1
        entry["total"] += breakdown["total"]
        for phase in PHASES:
            entry[phase] += breakdown[phase]
    return {tenant: totals[tenant] for tenant in sorted(totals)}


def render_breakdown(document: Dict[str, Any], top: int = 10) -> str:
    """Human-readable critical-path report for one trace document."""
    breakdowns = query_breakdowns(document)
    lines: List[str] = []
    scenario = document.get("scenario") or "-"
    lines.append(
        f"trace: scenario={scenario} spans={len(document['spans'])} "
        f"queries={len(breakdowns)} "
        f"simulated={document['total_simulated_time']:.3f}s"
    )
    if not breakdowns:
        lines.append("no execute spans found (was the workload empty?)")
        return "\n".join(lines)

    slowest = sorted(breakdowns, key=lambda entry: -entry["total"])[:top]
    lines.append("")
    lines.append(
        format_table(
            ["query", "tenant", "total (s)", "queue", "compute",
             "migration", "device busy", "other"],
            [
                [
                    entry["query_id"] or entry["query"] or "-",
                    entry["tenant"],
                    entry["total"],
                    entry["queue"],
                    entry["compute"],
                    entry["migration_interference"],
                    entry["device_busy"],
                    entry["other"],
                ]
                for entry in slowest
            ],
            title=f"top {len(slowest)} slowest queries (critical-path phases)",
        )
    )
    lines.append("")
    lines.append(
        format_table(
            ["tenant", "queries", "total (s)", "queue", "compute",
             "migration", "device busy", "other"],
            [
                [
                    tenant,
                    entry["queries"],
                    entry["total"],
                    entry["queue"],
                    entry["compute"],
                    entry["migration_interference"],
                    entry["device_busy"],
                    entry["other"],
                ]
                for tenant, entry in tenant_totals(breakdowns).items()
            ],
            title="per-tenant phase totals",
        )
    )
    return "\n".join(lines)


def top_slowest(
    document: Dict[str, Any], count: int = 10
) -> List[Dict[str, Any]]:
    """The ``count`` slowest queries by total latency (stable on ties)."""
    return sorted(query_breakdowns(document), key=lambda entry: -entry["total"])[
        :count
    ]


__all__ = [
    "PHASES",
    "query_breakdowns",
    "render_breakdown",
    "tenant_totals",
    "top_slowest",
]
