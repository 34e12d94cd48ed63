"""Command-line entry point: run any paper experiment by name.

``python -m repro list`` prints the available experiments;
``python -m repro run figure7 --option client_counts=1,3,5 --option scale=small``
runs one of them with keyword overrides and prints the result.
"""

from __future__ import annotations

import argparse
import inspect
import json
from typing import Any, Dict, List, Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.harness import experiments
from repro.harness.tables import format_table

#: Experiment registry: short name -> (callable, one-line description).
EXPERIMENTS: Dict[str, tuple] = {
    "table1": (experiments.table1_figure2_tiering_cost, "Table 1 / Figure 2: tiering cost"),
    "figure2": (experiments.table1_figure2_tiering_cost, "Figure 2: tiering cost"),
    "figure3": (experiments.figure3_cst_savings, "Figure 3: cold-storage-tier savings"),
    "figure4": (experiments.figure4_postgres_on_csd, "Figure 4: vanilla engine on CSD vs HDD"),
    "figure5": (experiments.figure5_latency_sensitivity, "Figure 5: vanilla latency sensitivity"),
    "figure7": (experiments.figure7_skipper_scaling, "Figure 7: Skipper vs vanilla vs ideal"),
    "figure8": (experiments.figure8_mixed_workload, "Figure 8: mixed workload"),
    "figure9": (experiments.figure9_breakdown, "Figure 9: execution-time breakdown"),
    "figure10": (experiments.figure10_switch_latency, "Figure 10: switch-latency sensitivity"),
    "figure11a": (experiments.figure11a_layout_sensitivity, "Figure 11a: layout sensitivity"),
    "figure11b": (experiments.figure11b_cache_size, "Figure 11b: cache-size sensitivity"),
    "figure11c": (experiments.figure11c_dataset_size, "Figure 11c: data-set-size sensitivity"),
    "figure12": (experiments.figure12_fairness, "Figure 12: fairness vs efficiency"),
    "table2": (experiments.table2_subplan_example, "Table 2: subplan example"),
    "table3": (experiments.table3_component_breakdown, "Table 3: component breakdown"),
    "ablation-eviction": (
        experiments.ablation_eviction_policies,
        "Ablation: cache-eviction policies",
    ),
    "ablation-ordering": (
        experiments.ablation_intra_group_ordering,
        "Ablation: intra-group ordering",
    ),
    "ablation-pruning": (
        experiments.ablation_subplan_pruning,
        "Ablation: empty-object subplan pruning",
    ),
    "ablation-schedulers": (
        experiments.ablation_csd_schedulers,
        "Ablation: CSD scheduling policies (incl. slack-FCFS)",
    ),
    "ablation-fairness-k": (
        experiments.ablation_fairness_constant,
        "Ablation: rank-based fairness constant K",
    ),
}


def list_experiments() -> List[str]:
    """Names of all runnable experiments."""
    return sorted(EXPERIMENTS)


def run_experiment(name: str, **overrides: Any):
    """Run the experiment registered under ``name`` with keyword overrides."""
    try:
        function, _description = EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {', '.join(list_experiments())}"
        ) from None
    parameters = inspect.signature(function).parameters
    for key, value in overrides.items():
        if key not in parameters:
            raise ConfigurationError(
                f"experiment {name!r} has no option {key!r}; it accepts: "
                f"{', '.join(parameters) or '(none)'}"
            )
        # `-o client_counts=3` parses to a scalar; a sequence option takes it
        # as a sequence of one.
        if isinstance(parameters[key].default, tuple) and not isinstance(value, (tuple, list)):
            overrides[key] = (value,)
    return function(**overrides)


def render_result(name: str, result: Any) -> str:
    """Render an experiment result as text tables."""
    lines: List[str] = [f"experiment: {name}"]
    lines.append(_render_value(result))
    return "\n".join(lines)


def _render_value(value: Any, indent: str = "") -> str:
    if isinstance(value, Mapping):
        # Mapping of parallel lists -> one table with a column per key.
        if value and all(isinstance(item, (list, tuple)) for item in value.values()):
            lengths = {len(item) for item in value.values()}
            if len(lengths) == 1:
                headers = list(value)
                rows = list(zip(*[value[key] for key in headers]))
                return format_table(headers, rows)
        # Mapping of mappings -> one row per outer key.
        if value and all(isinstance(item, Mapping) for item in value.values()):
            inner_keys: List[str] = []
            for item in value.values():
                for key in item:
                    if key not in inner_keys:
                        inner_keys.append(str(key))
            headers = ["name"] + inner_keys
            rows = [
                [outer] + [item.get(key, "") for key in inner_keys]
                for outer, item in value.items()
            ]
            return format_table(headers, rows)
        return format_table(["key", "value"], [[key, _compact(item)] for key, item in value.items()])
    return indent + _compact(value)


def _compact(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, (list, tuple, Mapping)):
        return json.dumps(value, default=str)
    return str(value)


def _parse_option(text: str) -> tuple:
    """Parse a ``key=value`` option; values may be ints, floats, tuples or strings."""
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise ConfigurationError(f"options must look like key=value, got {text!r}")
    if "," in raw:
        return key, tuple(_coerce(part) for part in raw.split(",") if part != "")
    return key, _coerce(raw)


def _coerce(raw: str):
    for converter in (int, float):
        try:
            return converter(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the tables and figures of 'Cheap Data Analytics using Cold "
        "Storage Devices' (VLDB 2016).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list the available experiments")
    run_parser = subparsers.add_parser("run", help="run one experiment and print its result")
    run_parser.add_argument("experiment", choices=list_experiments())
    run_parser.add_argument(
        "--option",
        "-o",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override an experiment keyword argument (repeatable); "
        "comma-separated values become tuples, e.g. -o client_counts=1,3,5",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command == "list":
        for name in list_experiments():
            print(f"{name:20s} {EXPERIMENTS[name][1]}")
        return 0
    overrides = dict(_parse_option(option) for option in arguments.option)
    result = run_experiment(arguments.experiment, **overrides)
    print(render_result(arguments.experiment, result))
    return 0
