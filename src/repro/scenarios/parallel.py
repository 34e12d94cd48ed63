"""Parallel scenario execution.

Scenarios are embarrassingly parallel: every run builds its own catalog,
environment and cluster from a pure spec, so executing them in worker
processes is safe and — because the simulation is exactly deterministic —
produces reports byte-identical to a serial run.  This is what lets CI run
the whole registry with ``--jobs N`` and still diff against the same
committed goldens.

The only cross-scenario state in the interpreter is the global request-id
counter, and no serialized metric depends on absolute request ids (only on
their relative order inside one run), so process boundaries cannot change
any report.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exceptions import ReproError, ScenarioError


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of running one scenario: its report JSON or an error.

    ``wall_seconds`` is real elapsed time, not simulated time; it is
    reported by ``--check`` for timing visibility but never diffed (wall
    time is machine-dependent, unlike every serialized metric).
    """

    name: str
    report_json: Optional[str]
    error: Optional[str]
    simulated_time: Optional[float]
    wall_seconds: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_one(name: str) -> ScenarioOutcome:
    """Run a single named scenario (top level, so worker processes can pickle it)."""
    # Imported lazily so spawned workers pay the import cost once, not the
    # parent at module-import time.
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import ScenarioRunner

    started = time.perf_counter()
    try:
        report = ScenarioRunner().run(get_scenario(name))
    except ReproError as error:
        return ScenarioOutcome(
            name=name,
            report_json=None,
            error=str(error),
            simulated_time=None,
            wall_seconds=time.perf_counter() - started,
        )
    return ScenarioOutcome(
        name=name,
        report_json=report.to_json(),
        error=None,
        simulated_time=report.total_simulated_time,
        wall_seconds=time.perf_counter() - started,
    )


def run_scenarios(names: Sequence[str], jobs: int = 1) -> List[ScenarioOutcome]:
    """Run ``names`` serially (``jobs<=1``) or in worker processes.

    Outcomes are returned in the order of ``names`` regardless of which
    worker finished first, so downstream output is deterministic.
    """
    if jobs < 1:
        raise ScenarioError(f"--jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(names) <= 1:
        return [run_one(name) for name in names]
    with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
        return list(pool.map(run_one, names))
