"""Scenario engine: declarative multi-tenant experiments with golden metrics.

This package turns the paper reproduction into a regression-tested scenario
suite:

* :mod:`repro.scenarios.spec` — declarative :class:`ScenarioSpec` /
  :class:`TenantSpec` (tenants, workload mix, device/layout/scheduler/cache
  knobs, RNG seed).
* :mod:`repro.scenarios.arrivals` — deterministic tenant arrival patterns.
* :mod:`repro.scenarios.registry` — named, ready-made scenarios.
* :mod:`repro.scenarios.runner` — :class:`ScenarioRunner` executing specs
  through the :class:`~repro.service.service.StorageService` façade.
* :mod:`repro.scenarios.invariants` — cross-cutting checks every run must
  pass (conservation, bounded starvation, monotone clock, cache bounds).
* :mod:`repro.scenarios.golden` — golden-metrics serialization and diffing.
* :mod:`repro.scenarios.parallel` — deterministic multi-process execution.

Fleet scenarios declare a :class:`~repro.fleet.spec.FleetSpec` on their spec
and run against a sharded multi-device fleet (see :mod:`repro.fleet`).

Command line::

    python -m repro.scenarios --list
    python -m repro.scenarios --run bursty
    python -m repro.scenarios --run-all --jobs 4
    python -m repro.scenarios --check --jobs 4
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
    assert_matches_golden,
    diff_values,
    golden_path,
    load_golden,
    unified_diff_summary,
    write_golden,
)
from repro.scenarios.parallel import ScenarioOutcome, run_scenarios
from repro.scenarios.invariants import check_invariants, starvation_bound
from repro.scenarios.registry import (
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)
from repro.scenarios.report import ClientReport, ScenarioReport
from repro.scenarios.runner import ScenarioRunner
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
    "all_scenarios",
    "assert_dict_matches_golden",
    "assert_matches_golden",
    "check_invariants",
    "diff_values",
    "get_scenario",
    "golden_path",
    "load_golden",
    "register",
    "run_scenarios",
    "scenario_names",
    "starvation_bound",
    "unified_diff_summary",
    "uniform_tenants",
    "write_golden",
]
