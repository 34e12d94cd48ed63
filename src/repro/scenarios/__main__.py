"""``python -m repro.scenarios`` — run scenarios and manage golden metrics.

Examples::

    python -m repro.scenarios --list
    python -m repro.scenarios --run bursty
    python -m repro.scenarios --run-all --jobs 4
    python -m repro.scenarios --check --jobs 4
    python -m repro.scenarios --regen-golden
    python -m repro.scenarios --regen-golden uniform mixed-fleet
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.exceptions import ReproError
from repro.fleet.spec import DeviceJoin, SetReplication
from repro.harness.tables import format_table
from repro.scenarios.golden import assert_dict_matches_golden, write_golden
from repro.scenarios.parallel import ScenarioOutcome, run_scenarios
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.runner import ScenarioRunner


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run declarative multi-tenant scenarios and manage their "
        "golden-metrics files.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true", help="list registered scenarios")
    group.add_argument(
        "--run", metavar="NAME", help="run one scenario and print its canonical report"
    )
    group.add_argument(
        "--run-all",
        action="store_true",
        help="run every scenario and print a per-scenario digest of its "
        "report (byte-identical for any --jobs value)",
    )
    group.add_argument(
        "--check",
        action="store_true",
        help="run every scenario and diff it against its committed golden",
    )
    group.add_argument(
        "--regen-golden",
        nargs="*",
        metavar="NAME",
        default=None,
        help="regenerate golden files (all scenarios when no names are given)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for --run-all / --check (default: 1, serial)",
    )
    parser.add_argument(
        "--golden-dir",
        type=Path,
        default=None,
        help="override the golden directory (default: tests/golden)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="with --run: record an end-to-end trace of the run and write it "
        "to FILE (analyse with python -m repro.trace FILE)",
    )
    return parser


def _render_scenario_table() -> str:
    """The ``--list`` view: one row per scenario with its headline shape."""
    rows = []
    for name in scenario_names():
        spec = get_scenario(name)
        queries = sum(len(tenant.queries) * tenant.repetitions for tenant in spec.tenants)
        if spec.fleet is not None:
            devices = f"{spec.fleet.devices} x R{spec.fleet.replication}"
            events = _render_membership(spec.fleet)
            hetero = "mixed" if spec.fleet.heterogeneous else "-"
            routing = _render_routing(spec.fleet)
        else:
            devices = "1"
            events = "-"
            hetero = "-"
            routing = "-"
        if spec.admission is not None:
            caps = (
                spec.admission.max_in_flight,
                spec.admission.max_in_flight_per_tenant,
            )
            admission = "/".join("-" if cap is None else str(cap) for cap in caps)
            admission += f" q{spec.admission.max_queue_depth}"
        else:
            admission = "off"
        rows.append(
            [
                name,
                len(spec.tenants),
                queries,
                spec.scale,
                devices,
                events,
                hetero,
                routing,
                admission,
            ]
        )
    return format_table(
        [
            "scenario",
            "tenants",
            "queries",
            "scale",
            "devices",
            "membership",
            "hetero",
            "routing",
            "admission",
        ],
        rows,
        title=f"{len(rows)} registered scenarios",
    )


def _render_membership(fleet) -> str:
    """Compact membership-event summary for the ``--list`` table.

    Joins render as ``+csdN@Ts``, graceful leaves as ``-csdN@Ts``,
    fail-stop losses as ``xcsdN@Ts`` and replication changes as ``R=r@Ts``;
    a static fleet shows ``-``.
    """
    parts = []
    for event in fleet.events:
        if isinstance(event, SetReplication):
            parts.append(f"R={event.replication}@{event.at_seconds:g}s")
            continue
        sign = "+" if isinstance(event, DeviceJoin) else "-"
        parts.append(f"{sign}csd{event.device}@{event.at_seconds:g}s")
    for failure in fleet.failures:
        parts.append(f"xcsd{failure.device}@{failure.at_seconds:g}s")
    return " ".join(parts) if parts else "-"


def _render_routing(fleet) -> str:
    """Placement/routing-policy summary for the ``--list`` table.

    Shows ``hash/<replica policy>`` (placement is always the consistent-hash
    ring), with ``+w`` appended when the ring is capacity-weighted (profile
    weighting) and ``+rb`` when the feedback rebalancer is configured.
    """
    summary = f"hash/{fleet.replica_policy}"
    if fleet.weighting != "uniform":
        summary += "+w"
    if fleet.rebalance is not None:
        summary += "+rb"
    return summary


def _digest(report_json: str) -> str:
    return hashlib.sha256(report_json.encode()).hexdigest()


def _print_failure(outcome: ScenarioOutcome) -> None:
    print(f"FAIL {outcome.name}\n{outcome.error}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    runner = ScenarioRunner()

    if arguments.trace is not None and arguments.run is None:
        print("error: --trace requires --run", file=sys.stderr)
        return 2

    if arguments.list:
        print(_render_scenario_table())
        return 0

    if arguments.run is not None:
        if arguments.trace is not None:
            report, trace_json = runner.run_traced(get_scenario(arguments.run))
            arguments.trace.write_text(trace_json)
            print(f"wrote {arguments.trace}", file=sys.stderr)
        else:
            report = runner.run(get_scenario(arguments.run))
        print(report.to_json(), end="")
        return 0

    if arguments.run_all:
        failures = 0
        for outcome in run_scenarios(scenario_names(), jobs=arguments.jobs):
            if not outcome.ok:
                failures += 1
                _print_failure(outcome)
                continue
            print(
                f"ok   {outcome.name:28s} sim={outcome.simulated_time:12.3f}  "
                f"sha256={_digest(outcome.report_json)}"
            )
        return 1 if failures else 0

    if arguments.check:
        failures = 0
        total_wall = 0.0
        for outcome in run_scenarios(scenario_names(), jobs=arguments.jobs):
            # Keep checking the remaining scenarios whatever one of them
            # raises (invariant violation, golden drift, ...),
            # so CI shows the full per-scenario picture, not the first error.
            total_wall += outcome.wall_seconds or 0.0
            if not outcome.ok:
                failures += 1
                _print_failure(outcome)
                continue
            try:
                assert_dict_matches_golden(
                    outcome.name,
                    json.loads(outcome.report_json),
                    golden_dir=arguments.golden_dir,
                )
            except ReproError as error:
                failures += 1
                print(f"FAIL {outcome.name}\n{error}", file=sys.stderr)
            else:
                # Wall time is reported, not gated: the performance ledger
                # (ledger/, BENCHMARK.json) is the one gate on host time.
                print(
                    f"ok   {outcome.name:28s} sim={outcome.simulated_time:10.3f}s  "
                    f"wall={outcome.wall_seconds:6.2f}s"
                )
        print(f"checked {len(scenario_names())} scenarios in {total_wall:.2f}s wall time")
        return 1 if failures else 0

    names = arguments.regen_golden or scenario_names()
    for name in names:
        report = runner.run(get_scenario(name))
        path = write_golden(report, golden_dir=arguments.golden_dir)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
