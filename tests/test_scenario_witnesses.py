"""Every registered scenario is the one witness of something.

A scenario costs a builder in ``scenarios/registry.py``, a golden under
``tests/golden/`` and its share of ``--check``.  It earns them only if no
other registered scenario shows what it shows, that is if it alone

(a) reaches a line, or one direction of a branch, of ``src/repro`` outside
    ``registry.py``: each scenario runs in a fresh interpreter under
    ``sys.monitoring`` LINE and BRANCH events (CPython 3.12+), with its spec
    built before the window opens, so neither the registry's module-level
    constants nor spec validation count;
(b) checks an invariant of ``scenarios/invariants.py`` (the run's
    ``invariants_checked``);
(c) gives a setting ``tests/test_settings_in_use.py`` gates its second value:
    without it, some field no ``INPUTS`` entry names takes one value over
    every spec the program builds;
(d) is named by a claim in :data:`CLAIMS`, a test that asserts something
    about that scenario by name.

A scenario that fails here witnesses nothing: delete it with its builder and
golden, and move any test that names it to a survivor that shows the same
property.  ``python tests/test_scenario_witnesses.py`` prints what each
scenario alone witnesses.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Set

import pytest
from test_settings_in_use import program_specs, single_valued

from repro.scenarios.registry import scenario_names

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

#: Scenario -> ``{"file.py::Name": claim}``: each test (a function, class or
#: module-level constant of that file) asserting something about the
#: scenario by name.  Every registered scenario a test names is a key.
CLAIMS: Dict[str, Dict[str, str]] = {
    "uniform": {
        "test_fleet_scenarios.py::test_fleet_section_present_only_for_fleet_scenarios": (
            "a single-device report has no fleet or rebalance section"
        ),
        "test_fleet_load_aware.py::test_routing_section_shape": (
            "a single-device report has no routing section"
        ),
        "test_scenarios.py::test_run_prints_the_committed_golden": (
            "--run prints the committed golden byte for byte"
        ),
        "test_obs_tracing.py::test_untraced_service_has_no_tracer": (
            "an untraced service has no tracer"
        ),
    },
    "fairness-adversarial": {
        "test_scenarios_determinism.py::test_fresh_runner_instances_agree": (
            "two runners report the staggered, skewed, rank-based run byte for byte"
        ),
    },
    "admission-burst": {
        "test_obs_metrics.py::test_admission_peaks_respect_the_caps": (
            "admission peaks stay within the caps and drain to zero"
        ),
        "test_obs_tracing.py::ADMISSION_SCENARIO": "queued queries trace a queue phase",
        "test_scenarios_determinism.py::RANDOMISED": "a seed change moves its bursty arrivals",
        "test_service.py::test_spec_admission_knob_reaches_the_result": (
            "the run's result carries the shed traffic"
        ),
    },
    "multi-workload-mix": {
        "test_scenarios_determinism.py::RANDOMISED": "a seed change moves its Poisson arrivals",
    },
    "fleet-hot-shard": {
        "test_fleet_scenarios.py::test_hot_shard_shows_imbalance": (
            "the hot tenant drags tenant_fairness below 0.95, the only golden that low"
        ),
        "test_fleet_scenarios.py::test_fleet_section_present_only_for_fleet_scenarios": (
            "a static fleet reports its devices at epoch 0"
        ),
    },
    "fleet-device-loss": {
        "test_replication_lifecycle.py::test_repair_disabled_pins_the_degraded_baseline": (
            "with repair off a loss leaves keys under-replicated and plans nothing"
        ),
        "test_fleet_scenarios.py::LOSS_PARAMS": (
            "a loss fails requests over with zero lost objects and moves no key"
        ),
    },
    "fleet-loss-at-scale": {
        "test_fleet_scenarios.py::LOSS_PARAMS": "the same failover claims at SF-50",
    },
    "fleet-replicated-read": {
        "test_fleet_scenarios.py::test_replicated_read_spreads_tenants_across_devices": (
            "least-loaded routing over three replicas serves every tenant from "
            "more than one device"
        ),
    },
    "fleet-elastic-drain": {
        "test_fleet_membership.py::TestElasticDrain": (
            "a leaver hands its queue off, goes quiet and its keys are re-homed"
        ),
    },
    "fleet-heterogeneous": {
        "test_fleet_membership.py::test_least_loaded_routing_steers_around_the_straggler": (
            "the straggler serves fewer objects than the fast device (7 < 8; the "
            "load-aware baseline's straggler serves more, 12 > 11)"
        ),
        "test_fleet_membership.py::test_profiles_reach_the_devices": (
            "per-device profiles reach the devices' configs"
        ),
    },
    "fleet-rebalance-under-load": {
        "test_fleet_membership.py::TestRebalanceUnderLoad": (
            "a join loses nothing, moves at most 2K/N keys and lowers the imbalance"
        ),
        "test_fleet_membership.py::TestElasticJoin": (
            "the joiner absorbs keys and serves traffic; migration interferes"
        ),
        "test_fleet_membership.py::test_back_to_back_queries_straddle_a_join": (
            "a session's queries straddle the join without reconnecting"
        ),
        "test_replication_lifecycle.py::test_throttled_rebalance_interferes_strictly_less": (
            "the unthrottled side of the throttle comparison"
        ),
    },
    "fleet-throttled-rebalance": {
        "test_replication_lifecycle.py::test_throttled_rebalance_interferes_strictly_less": (
            "the throttled side: strictly less interference for the same keys moved"
        ),
        "test_obs_tracing.py::FLEET_SCENARIO": "the fleet trace every tracing test reads",
    },
    "fleet-replication-upgrade": {
        "test_replication_lifecycle.py::test_every_key_gains_a_live_replica": (
            "raising R re-replicates every key onto its new owner"
        ),
    },
    "fleet-repair-after-loss": {
        "test_replication_lifecycle.py::test_repair_restores_full_replication": (
            "read-repair leaves no key under-replicated"
        ),
    },
    "fleet-load-aware-baseline": {
        "test_fleet_load_aware.py::test_load_aware_beats_hash_uniform_baseline": (
            "the control arm the load-aware fleet must beat on p99 and imbalance"
        ),
    },
    "fleet-load-aware": {
        "test_fleet_load_aware.py::test_load_aware_beats_hash_uniform_baseline": (
            "the treatment arm: lower p99 and imbalance than the baseline"
        ),
    },
    "fleet-adaptive-rebalance": {
        "test_fleet_load_aware.py::test_feedback_rebalancer_triggers_reweight_epochs": (
            "the feedback rebalancer emits reweight epochs"
        ),
    },
}

#: Run in a fresh interpreter with the scenario name as its one argument;
#: prints the sorted features the run reaches as a JSON list.
_PROBE = r"""
import json, os, sys
import repro
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner

root = os.path.dirname(repro.__file__) + os.sep
registry = os.path.join(root, "scenarios", "registry.py")
spec = get_scenario(sys.argv[1])
runner = ScenarioRunner()
monitoring = sys.monitoring
tool = monitoring.COVERAGE_ID
lines = set()
branches = {}


def counted(code):
    return code.co_filename.startswith(root) and code.co_filename != registry


def on_line(code, line):
    if counted(code):
        lines.add((code.co_filename[len(root):], line))
    return monitoring.DISABLE


def on_branch(code, source, destination):
    if not counted(code):
        return monitoring.DISABLE
    taken = branches.setdefault((code, source), set())
    taken.add(destination)
    if len(taken) == 2:
        return monitoring.DISABLE


def line_of(code, offset):
    for start, end, line in code.co_lines():
        if start <= offset < end:
            return line


monitoring.use_tool_id(tool, "scenario-witnesses")
monitoring.register_callback(tool, monitoring.events.LINE, on_line)
monitoring.register_callback(tool, monitoring.events.BRANCH, on_branch)
monitoring.set_events(tool, monitoring.events.LINE | monitoring.events.BRANCH)
report = runner.run(spec)
monitoring.set_events(tool, 0)

features = [f"line {path}:{line}" for path, line in lines]
for (code, source), taken in branches.items():
    where = f"{code.co_filename[len(root):]}:{line_of(code, source)}"
    features += [f"branch {where} +{source}->{destination}" for destination in taken]
features += [f"invariant {name}" for name in report.invariants_checked]
print(json.dumps(sorted(features)))
"""


def reached(name: str) -> List[str]:
    """The lines, branch directions and invariants scenario ``name``'s run
    reaches, from a fresh interpreter (a fixed hash seed keeps set-order
    dependent branches the same in every run)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, name],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(probe.stdout)


def sole_settings() -> Dict[str, List[str]]:
    """Scenario -> the gated fields that take one value without it."""
    specs = program_specs()
    baseline = set(single_valued(specs))
    return {
        name: sorted(
            set(single_valued([spec for spec in specs if spec.name != name])) - baseline
        )
        for name in scenario_names()
    }


def witness_table() -> Dict[str, List[str]]:
    """Scenario -> everything it alone witnesses, (a) to (d)."""
    features = {name: reached(name) for name in scenario_names()}
    counts = Counter(feature for found in features.values() for feature in found)
    settings = sole_settings()
    return {
        name: [feature for feature in features[name] if counts[feature] == 1]
        + [f"setting {field}" for field in settings[name]]
        + [f"claim {test}" for test in sorted(CLAIMS.get(name, {}))]
        for name in scenario_names()
    }


def _named_in_tests() -> Dict[str, Set[str]]:
    """Registered scenario -> the test files quoting its name."""
    registered = set(scenario_names())
    named: Dict[str, Set[str]] = {}
    for path in sorted(TESTS.glob("**/test_*.py")):
        if path.name == Path(__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in registered:
                named.setdefault(node.value, set()).add(path.name)
    return named


def _resolves(test_id: str, scenario: str) -> bool:
    """Whether ``file.py::Name`` is a function, class or assignment of that
    test file whose source quotes ``scenario``."""
    file_name, name = test_id.split("::")
    for node in ast.walk(ast.parse((TESTS / file_name).read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named = node.name == name
        elif isinstance(node, ast.Assign):
            named = any(getattr(target, "id", None) == name for target in node.targets)
        else:
            continue
        if named and any(
            isinstance(inner, ast.Constant) and inner.value == scenario for inner in ast.walk(node)
        ):
            return True
    return False


def test_claims_are_the_names_the_tests_use():
    named = _named_in_tests()
    unlisted = {name: sorted(files) for name, files in named.items() if name not in CLAIMS}
    assert unlisted == {}, "these tests name a scenario CLAIMS does not list"
    assert sorted(set(CLAIMS) - set(named)) == [], "no test names these scenarios"
    unresolved = [
        f"{scenario}: {test_id}"
        for scenario, claims in sorted(CLAIMS.items())
        for test_id in claims
        if not _resolves(test_id, scenario)
    ]
    assert unresolved == []


@pytest.fixture(scope="module")
def table() -> Dict[str, List[str]]:
    return witness_table()


@pytest.mark.slow
@pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring is 3.12+")
@pytest.mark.parametrize("name", scenario_names())
def test_scenario_is_the_one_witness_of_something(table, name):
    assert table[name], (
        f"{name} witnesses nothing another scenario does not: delete it with its "
        "golden, or name what it alone shows"
    )


if __name__ == "__main__":
    for name, alone in witness_table().items():
        kinds = Counter(feature.split()[0] for feature in alone)
        shown = [item for item in alone if not item.startswith(("line", "branch"))]
        print(f"{name:28s} {dict(sorted(kinds.items()))} {shown}")
