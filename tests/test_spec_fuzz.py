"""Hostile input for every declared spec field, derived from its annotation.

Every spec class reachable from :class:`ScenarioSpec` through its resolved
type hints, plus the service's :class:`DeviceConfig` and
:class:`ClientSpec`, is rebuilt from one valid base instance with one field
replaced by a value its declared kind forbids.  Each case must raise the
class's own typed error, naming ``Class.field``.  The values come from the
annotation alone, so a new field is fuzzed without touching this file; a
new spec class fails :func:`test_every_walked_class_has_a_base` until it
gets a base instance.
"""

from __future__ import annotations

import collections.abc
import dataclasses
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

import pytest

from repro.cluster.client import ClientSpec
from repro.csd.device import DeviceConfig
from repro.exceptions import ReproError
from repro.fleet.spec import (
    DeviceFailure,
    DeviceJoin,
    DeviceLeave,
    DeviceProfile,
    FleetSpec,
    MigrationThrottle,
    RebalancePolicy,
    SetReplication,
)
from repro.scenarios.arrivals import (
    BurstyArrival,
    PoissonArrival,
    SimultaneousArrival,
    UniformArrival,
)
from repro.scenarios.spec import ScenarioSpec, TenantSpec
from repro.service.admission import AdmissionConfig
from repro.spec_fields import Count, Spec, Time
from repro.workloads import tpch

TENANT = TenantSpec("t", ("tpch:q12",))

#: One valid instance per spec class: the only per-class code here.
BASES = {
    base.__class__: base
    for base in (
        ScenarioSpec("s", "x", (TENANT,)),
        TENANT,
        SimultaneousArrival(),
        UniformArrival(5.0),
        BurstyArrival(2, 60.0, 2.0),
        PoissonArrival(10.0),
        FleetSpec(devices=3, replication=2),
        DeviceFailure(0, 5.0),
        DeviceJoin(3, 5.0, switch_seconds=1.0),
        DeviceLeave(0, 5.0),
        SetReplication(2, 5.0),
        DeviceProfile(0, switch_seconds=1.0),
        MigrationThrottle(2.0),
        RebalancePolicy(60.0),
        AdmissionConfig(max_in_flight=2),
        DeviceConfig(),
        ClientSpec("c", [tpch.q12()]),
    )
}


def _spec_classes_in(hint, found):
    if isinstance(hint, type) and issubclass(hint, Spec) and hint not in found:
        found.add(hint)
        for field_hint in get_type_hints(hint, include_extras=True).values():
            _spec_classes_in(field_hint, found)
    for arg in get_args(hint):
        _spec_classes_in(arg, found)
    return found


#: The classes fuzzed: all reachable from ScenarioSpec, plus two the service
#: builds from its config.
SPEC_CLASSES = sorted(
    _spec_classes_in(Union[ScenarioSpec, DeviceConfig, ClientSpec], set()),
    key=lambda cls: cls.__name__,
)


def hostile(hint, current):
    """Values the kind ``hint`` declares must be rejected (``current`` is the
    base instance's value, which a list-for-a-tuple case reuses)."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated and isinstance(args[1], Time):
        values = ["1", None, True, float("nan"), float("inf"), float("-inf"), -1, 10**400, 1j]
        return values + ([0] if args[1].positive else [])
    if origin is Annotated and isinstance(args[1], Count):
        return ["2", None, True, 1.5, float("nan"), args[1].minimum - 1]
    if origin is Literal:
        return ["nonsense", None, 1]
    if origin is Union and type(None) in args:
        others = Union[tuple(arg for arg in args if arg is not type(None))]
        return [value for value in hostile(others, current) if value is not None]
    if origin is tuple:
        items = [(value,) for value in hostile(args[0], None)]
        return [None, 3, list(current or ()), *items]
    if origin is collections.abc.Sequence:
        return [None, 3, *([value] for value in hostile(args[0], None))]
    if hint is bool:
        return ["yes", 0, None]
    if hint is str:
        return [5, None]
    if hint is int:
        return ["1", None, True, 1.5]
    if origin is Union or isinstance(hint, type):
        return ["x", 1, None]
    raise AssertionError(f"the fuzzer has no hostile values for {hint!r}")


CASES = [
    (cls, item.name, value)
    for cls in SPEC_CLASSES
    if cls in BASES
    for item in dataclasses.fields(cls)
    for value in hostile(
        get_type_hints(cls, include_extras=True)[item.name], getattr(BASES[cls], item.name)
    )
]


def test_every_walked_class_has_a_base():
    assert set(SPEC_CLASSES) == set(BASES)
    assert len(CASES) > 300


@pytest.mark.parametrize(
    "cls, name, value",
    CASES,
    ids=[f"{cls.__name__}.{name}={value!r:.20}" for cls, name, value in CASES],
)
def test_a_hostile_field_is_the_class_typed_error_naming_it(cls, name, value):
    with pytest.raises(ReproError) as raised:
        dataclasses.replace(BASES[cls], **{name: value})
    assert type(raised.value) is cls.error
    assert f"{cls.__name__}.{name} must be" in str(raised.value)
