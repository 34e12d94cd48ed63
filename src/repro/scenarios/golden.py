"""Golden-metrics harness.

Every registered scenario has a committed golden file under
``tests/golden/<name>.json`` holding the canonical report of a blessed run,
and every golden file there names a registered scenario (``--check`` fails
on an orphan).
The pytest layer re-runs each scenario and diffs the live report against the
golden exactly — the simulator is deterministic and its reports regenerate
byte for byte on every supported Python — turning the whole paper
reproduction into a regression-tested scenario suite.

Regenerate goldens after an intentional behaviour change with::

    python -m repro.scenarios --regen-golden

and commit the diff together with the change that caused it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence

from repro.exceptions import GoldenMismatchError
from repro.scenarios.report import ScenarioReport


def default_golden_dir() -> Path:
    """``tests/golden`` at the repository root (next to ``src/``)."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_path(name: str, golden_dir: Path) -> Path:
    """Path of the golden file for scenario ``name``."""
    return golden_dir / f"{name}.json"


def write_golden(report: ScenarioReport, golden_dir: Path) -> Path:
    """Serialize ``report`` as the golden file for its scenario."""
    path = golden_path(report.scenario, golden_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report.to_json())
    return path


def load_golden(name: str, golden_dir: Path) -> Dict[str, Any]:
    """Load the committed golden metrics for scenario ``name``."""
    path = golden_path(name, golden_dir)
    if not path.exists():
        raise GoldenMismatchError(
            f"no golden file for scenario {name!r} at {path}; run "
            f"'python -m repro.scenarios --regen-golden {name}' and commit it"
        )
    try:
        return json.loads(path.read_text())
    except ValueError as error:
        raise GoldenMismatchError(
            f"golden file {path} for scenario {name!r} is not valid JSON ({error}); "
            f"run 'python -m repro.scenarios --regen-golden {name}' and commit it"
        ) from None


def orphan_goldens(names: Sequence[str], golden_dir: Path) -> List[Path]:
    """The golden files under ``golden_dir`` that name none of ``names``:
    left behind by a scenario that is no longer registered."""
    registered = set(names)
    return [path for path in sorted(golden_dir.glob("*.json")) if path.stem not in registered]


def diff_values(live: Any, golden: Any, path: str = "$") -> List[str]:
    """Recursively diff two report trees; return human-readable mismatches.

    Every value is compared with ``==``, numbers included: a float one ulp
    off is drift.  The returned strings name the JSON path of each divergence
    so a regression points straight at the metric that moved.
    """
    mismatches: List[str] = []
    if isinstance(live, dict) and isinstance(golden, dict):
        for key in sorted(set(live) | set(golden)):
            if key not in live:
                mismatches.append(f"{path}.{key}: missing from live report")
            elif key not in golden:
                mismatches.append(f"{path}.{key}: not present in golden")
            else:
                mismatches.extend(diff_values(live[key], golden[key], f"{path}.{key}"))
    elif isinstance(live, list) and isinstance(golden, list):
        if len(live) != len(golden):
            mismatches.append(f"{path}: length {len(live)} != golden {len(golden)}")
        for index, (live_item, golden_item) in enumerate(zip(live, golden)):
            mismatches.extend(diff_values(live_item, golden_item, f"{path}[{index}]"))
    elif live != golden:
        mismatches.append(f"{path}: live={live!r} golden={golden!r}")
    return mismatches


def assert_dict_matches_golden(
    name: str, live: Dict[str, Any], golden_dir: Path
) -> None:
    """Raise :class:`GoldenMismatchError` if the report dict ``live`` of
    scenario ``name`` diverges from its golden.

    Takes the dict, not a live :class:`ScenarioReport`: ``--check`` holds
    each run's report as the JSON it prints a digest of.
    """
    golden = load_golden(name, golden_dir)
    mismatches = diff_values(live, golden)
    if mismatches:
        details = "\n  ".join(mismatches[:20])
        raise GoldenMismatchError(
            f"scenario {name!r} diverged from its golden metrics "
            f"({len(mismatches)} mismatch(es)):\n  {details}\n"
            "If the change is intentional, regenerate with "
            f"'python -m repro.scenarios --regen-golden {name}'"
        )
