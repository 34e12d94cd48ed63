"""Per-scenario performance budgets.

Every registered scenario has a committed simulated-time budget in
``tests/golden/budgets.json``.  A budget regression — a scenario suddenly
taking longer in *simulated* time — means the system got slower in a way the
golden metrics would also catch, but the budget file states the allowance
explicitly and fails with a dedicated, readable error.  ``--check`` enforces
budgets; ``--regen-budgets`` re-bases them after an intentional change.

The file format::

    {
      "schema_version": 1,
      "default_tolerance": 0.1,
      "budgets": {
        "uniform": {"simulated_time": 460.8},
        "bursty":  {"simulated_time": 702.3, "tolerance": 0.05}
      }
    }

A run fails its budget when ``simulated_time > budget * (1 + tolerance)``.
Budgets are an upper bound only: getting faster never fails (regenerate to
ratchet the budget down when an optimisation lands).

Host wall time is not budgeted here: ``--check`` prints it per scenario, and
the performance ledger (``ledger/``, ``BENCHMARK.json``) is the one gate on
it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.exceptions import BudgetExceededError
from repro.scenarios.golden import default_golden_dir

BUDGETS_SCHEMA_VERSION = 1

#: Headroom allowed above the committed simulated time.  The simulator is
#: deterministic, so any growth is a real behaviour change; the tolerance
#: only leaves room for small intentional drifts between re-baselines.
DEFAULT_TOLERANCE = 0.1


def budgets_path(golden_dir: Optional[Path] = None) -> Path:
    """Location of the committed budgets file."""
    return (golden_dir or default_golden_dir()) / "budgets.json"


def load_budgets(golden_dir: Optional[Path] = None) -> Dict[str, Any]:
    """Load the committed budgets document."""
    path = budgets_path(golden_dir)
    if not path.exists():
        raise BudgetExceededError(
            f"no budgets file at {path}; run "
            "'python -m repro.scenarios --regen-budgets' and commit it"
        )
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise BudgetExceededError(
            f"budgets file {path} is not valid JSON ({error}); re-base with "
            "'python -m repro.scenarios --regen-budgets'"
        ) from None
    if not isinstance(document, dict) or not isinstance(document.get("budgets"), dict):
        raise BudgetExceededError(
            f"budgets file {path} is malformed (expected a 'budgets' object); "
            "re-base with 'python -m repro.scenarios --regen-budgets'"
        )
    return document


def write_budgets(
    simulated_times: Mapping[str, float],
    golden_dir: Optional[Path] = None,
    default_tolerance: float = DEFAULT_TOLERANCE,
) -> Path:
    """Serialize budgets for ``simulated_times`` (scenario -> seconds)."""
    budgets: Dict[str, Dict[str, float]] = {
        name: {"simulated_time": round(seconds, 9)}
        for name, seconds in sorted(simulated_times.items())
    }
    document = {
        "schema_version": BUDGETS_SCHEMA_VERSION,
        "default_tolerance": default_tolerance,
        "budgets": budgets,
    }
    path = budgets_path(golden_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def check_budget(
    name: str, simulated_time: float, document: Mapping[str, Any]
) -> None:
    """Raise :class:`BudgetExceededError` if ``name`` blew its budget."""
    entry = document.get("budgets", {}).get(name)
    if entry is None:
        raise BudgetExceededError(
            f"scenario {name!r} has no committed perf budget; run "
            f"'python -m repro.scenarios --regen-budgets' and commit the diff"
        )
    if not isinstance(entry, Mapping) or "simulated_time" not in entry:
        raise BudgetExceededError(
            f"budget entry for scenario {name!r} is missing its "
            "'simulated_time' key; re-base with "
            "'python -m repro.scenarios --regen-budgets'"
        )
    try:
        budget = float(entry["simulated_time"])
        tolerance = float(
            entry.get("tolerance", document.get("default_tolerance", DEFAULT_TOLERANCE))
        )
    except (TypeError, ValueError) as error:
        raise BudgetExceededError(
            f"budget entry for scenario {name!r} is malformed ({error!r}); "
            "re-base with 'python -m repro.scenarios --regen-budgets'"
        ) from None
    allowed = budget * (1.0 + tolerance)
    if simulated_time > allowed:
        raise BudgetExceededError(
            f"scenario {name!r} ran for {simulated_time:.3f}s simulated, above "
            f"its budget of {budget:.3f}s (+{tolerance:.0%} tolerance = "
            f"{allowed:.3f}s). If the slowdown is intentional, re-base with "
            f"'python -m repro.scenarios --regen-budgets'"
        )

