"""The fleet layer's split: ``router.py`` is the GET path, ``controller.py``
the per-epoch control plane, and every fact has one writer.

* The router module imports no migration or rebalancing machinery and the
  router class carries no control-plane method.
* Life-cycle state (``alive`` / ``joined_at`` / ``left_at`` / ``failed_at``)
  is assigned in ``fleet/membership.py`` and nowhere else in the package.
* After every registered fleet scenario the one roster agrees with itself:
  the members flagged ``alive`` are the membership's serving ids, and each
  live member's ``weight`` is exactly the number the ring holds for it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro.fleet
from repro.fleet.router import FleetRouter
from repro.scenarios.registry import all_scenarios
from repro.service import StorageService

FLEET_DIR = Path(repro.fleet.__file__).parent
FLEET_SCENARIOS = [spec for spec in all_scenarios() if spec.fleet is not None]


def test_router_module_imports_no_control_plane():
    tree = ast.parse((FLEET_DIR / "router.py").read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names.update(alias.name for alias in node.names)
    assert not {"repro.fleet.migration", "repro.fleet.controller"} & modules
    assert not {"RebalancePolicy", "plan_migration", "normalize_weights"} & names


def test_router_class_has_no_control_plane_methods():
    control = [
        name
        for name in dir(FleetRouter)
        if name.startswith(("_rebalance", "_apply_", "_execute_plan"))
    ]
    assert control == []


def test_lifecycle_state_is_assigned_in_membership_only():
    assignment = re.compile(r"\.(alive|failed_at|left_at|joined_at) = ")
    writers = sorted(
        path.name
        for path in FLEET_DIR.glob("*.py")
        if assignment.search(path.read_text())
    )
    assert writers == ["membership.py"]


@pytest.mark.parametrize("spec", FLEET_SCENARIOS, ids=lambda spec: spec.name)
def test_one_roster_one_weight_after_every_fleet_scenario(spec):
    service = StorageService(spec)
    service.run()
    fleet = service.fleet
    alive = [member for member in fleet.members if member.alive]
    assert {member.device_id for member in alive} == set(fleet.membership.serving_ids())
    ring_weights = fleet.policy.weights
    for member in alive:
        assert member.weight == ring_weights.get(member.device_id, 1.0)
