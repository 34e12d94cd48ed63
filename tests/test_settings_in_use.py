"""Every setting a scenario declares is one the program sets more than one way.

A spec field that takes the same value in every spec the program builds is a
constant wearing a setting's clothes: it costs a field, its validation and
its fuzz cases, and it answers no question the program asks.  This gate
collects the values each field of the scenario tree takes over every
:class:`~repro.scenarios.spec.ScenarioSpec` the program builds — the
registry, the ``repro.bench`` macros and the ledger's workloads — and fails
when a field takes fewer than two, unless it is an input listed in
:data:`INPUTS`.  The fix is a constant (and a ``REPORTED`` key if reports
carry it), or a second program spec that needs the other value.  Each
``REPORTED`` key is checked to be no field and to be what ``to_dict`` emits.
"""

from __future__ import annotations

import runpy
from collections import defaultdict
from dataclasses import fields, replace
from pathlib import Path
from typing import Dict, Iterable, List, Set, get_args, get_type_hints

import pytest
from test_spec_fuzz import BASES

from repro.bench import macro_specs
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.spec import ScenarioSpec
from repro.spec_fields import Spec

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fields that take one value in the program's specs but say *what* the
#: system serves, not *how* it behaves.
INPUTS = {
    "ScenarioSpec.seed": "the data and arrival seed; the ledger and the bench take it per run",
    "ScenarioSpec.trace": "set by the scenario CLI's --trace through dataclasses.replace",
    "UniformArrival.gap_seconds": "how far apart the tenants arrive: the offered load",
    "PoissonArrival.mean_gap_seconds": "the offered load of a Poisson arrival",
    "DeviceLeave.device": "which device leaves: the subject of the event, not a knob",
}


def program_specs() -> List[ScenarioSpec]:
    """Every scenario the program builds: the registry, the bench macros at
    both sizes and the ledger's workloads at seed 42, full and quick.  The
    ledger module is run from its source, so nothing is written beside it."""
    ledger = runpy.run_path(str(REPO_ROOT / "ledger" / "workloads.py"))
    return (
        [get_scenario(name) for name in scenario_names()]
        + macro_specs()
        + macro_specs(smoke=True)
        + [build(42, quick)[1] for build in ledger["WORKLOADS"].values() for quick in (False, True)]
    )


def _spec_classes(hint: object, found: Dict[type, None]) -> Dict[type, None]:
    """The spec classes reachable from ``hint`` through field annotations."""
    if isinstance(hint, type) and issubclass(hint, Spec) and hint not in found:
        found[hint] = None
        for field_hint in get_type_hints(hint, include_extras=True).values():
            _spec_classes(field_hint, found)
    for arg in get_args(hint):
        _spec_classes(arg, found)
    return found


def values_by_field(specs: Iterable[ScenarioSpec]) -> Dict[str, Set[str]]:
    """``Class.field`` -> the reprs of the values it takes, for every field of
    the scenario tree (an empty set for a field no spec reaches)."""
    values: Dict[str, Set[str]] = defaultdict(set)
    for cls in _spec_classes(ScenarioSpec, {}):
        for item in fields(cls):
            values[f"{cls.__name__}.{item.name}"] = set()

    def walk(value: object) -> None:
        if isinstance(value, Spec):
            for item in fields(value):
                child = getattr(value, item.name)
                values[f"{type(value).__name__}.{item.name}"].add(repr(child))
                walk(child)
        elif isinstance(value, tuple):
            for child in value:
                walk(child)

    for spec in specs:
        walk(spec)
    return values


def single_valued(specs: Iterable[ScenarioSpec]) -> List[str]:
    """The fields that take fewer than two values and are no input."""
    return sorted(
        name
        for name, taken in values_by_field(specs).items()
        if len(taken) < 2 and name not in INPUTS
    )


@pytest.fixture(scope="module")
def taken() -> Dict[str, Set[str]]:
    specs = program_specs()
    assert len(specs) == len(scenario_names()) + 6 + 6 + 8
    return values_by_field(specs)


#: Every field of the scenario tree, one gate case each, so a failure names it.
FIELDS = sorted(values_by_field([]))


@pytest.mark.parametrize("name", FIELDS)
def test_every_setting_takes_two_values(taken, name):
    if name in INPUTS:
        assert taken[name], f"{name} is an input no program spec sets"
    else:
        assert len(taken[name]) >= 2, (
            f"{name} only ever takes {sorted(taken[name])}: make it a constant"
        )


def test_inputs_name_fields_of_the_scenario_tree():
    assert set(INPUTS) <= set(FIELDS)


def test_a_setting_pinned_to_one_value_fails_the_gate():
    """Seed the defect: every spec's scheduler, and every tenant's cache,
    set one way."""
    pinned = [
        replace(
            spec,
            scheduler="rank-based",
            tenants=tuple(replace(tenant, cache_capacity=30) for tenant in spec.tenants),
        )
        for spec in program_specs()
    ]
    assert single_valued(program_specs()) == []
    assert single_valued(pinned) == ["ScenarioSpec.scheduler", "TenantSpec.cache_capacity"]


#: Every ``REPORTED`` key of the scenario tree: a constant that was a
#: setting once and that reports still carry.
REPORTED = [
    (cls, key) for cls in _spec_classes(ScenarioSpec, {}) for key in cls.REPORTED
]


@pytest.mark.parametrize(
    "cls, key", REPORTED, ids=[f"{cls.__name__}.{key}" for cls, key in REPORTED]
)
def test_a_reported_key_is_a_constant_the_report_carries(cls, key):
    base = BASES[cls]
    assert key not in {item.name for item in fields(cls)}, "a field would be overwritten"
    with pytest.raises(TypeError, match=key):
        replace(base, **{key: cls.REPORTED[key]})
    document = base.to_dict()
    assert document[key] == cls.REPORTED[key]
    assert list(document)[-len(cls.REPORTED) :] == list(cls.REPORTED)
