"""Scenario engine: declarative multi-tenant experiments with golden metrics.

This package turns the paper reproduction into a regression-tested scenario
suite:

* :mod:`repro.scenarios.spec` — declarative :class:`ScenarioSpec` /
  :class:`TenantSpec` (tenants, workload mix, device/layout/scheduler/cache
  knobs, RNG seed).
* :mod:`repro.scenarios.arrivals` — deterministic tenant arrival patterns.
* :mod:`repro.scenarios.registry` — named, ready-made scenarios.
* :mod:`repro.scenarios.runner` — :class:`ScenarioRunner` executing specs
  through the :class:`~repro.service.service.StorageService` façade, and
  :func:`run_one` running a registered scenario for the command line.
* :mod:`repro.scenarios.invariants` — cross-cutting checks every run must
  pass (conservation, bounded starvation, monotone clock, cache bounds).
* :mod:`repro.scenarios.golden` — golden-metrics serialization and diffing.

Fleet scenarios declare a :class:`~repro.fleet.spec.FleetSpec` on their spec
and run against a sharded multi-device fleet (see :mod:`repro.fleet`).

Command line::

    python -m repro.scenarios --list
    python -m repro.scenarios --run admission-burst
    python -m repro.scenarios --run-all
    python -m repro.scenarios --check
    python -m repro.scenarios --regen-golden
"""

from repro.scenarios.arrivals import (
    ArrivalPattern,
    BurstyArrival,
    PoissonArrival,
    SimultaneousArrival,
    UniformArrival,
)
from repro.scenarios.golden import (
    assert_dict_matches_golden,
    diff_values,
    golden_path,
    load_golden,
    write_golden,
)
from repro.scenarios.invariants import check_invariants, starvation_bound
from repro.scenarios.registry import (
    get_scenario,
    register,
    scenario_names,
)
from repro.scenarios.report import ClientReport, ScenarioReport
from repro.scenarios.runner import ScenarioOutcome, ScenarioRunner, run_one
from repro.scenarios.spec import ScenarioSpec, TenantSpec, uniform_tenants

__all__ = [
    "ArrivalPattern",
    "BurstyArrival",
    "ClientReport",
    "PoissonArrival",
    "ScenarioOutcome",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "SimultaneousArrival",
    "TenantSpec",
    "UniformArrival",
    "assert_dict_matches_golden",
    "check_invariants",
    "diff_values",
    "get_scenario",
    "golden_path",
    "load_golden",
    "register",
    "run_one",
    "scenario_names",
    "starvation_bound",
    "uniform_tenants",
    "write_golden",
]
