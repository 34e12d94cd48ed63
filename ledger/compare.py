#!/usr/bin/env python3
"""Say whether two ledger results documents agree within the benchmark's bounds.

``python3 ledger/compare.py a.json b.json`` treats ``a`` as the base and ``b``
as the candidate and prints one row per (workload, end-to-end metric): both
medians, both spreads, the bound and a verdict.  A spread is the run-to-run
interquartile range the median is expected to show, as a share of it,
estimated from the run's own n repetitions as 1.25 x IQR / sqrt(n) (what a
median of n independent samples of that IQR would do; ``-`` for
single-valued metrics).

``ok``          b's median is no worse than a's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  it is within the bound, but either run's spread is wider
                than the bound, so "no change" cannot be told from noise.

One pair of documents can show a regression; a gain needs the ten alternating
pairs the choosing-metrics guide asks for.

Simulated results and ``failed_share`` have no noise: with equal seeds any
difference at all is a regression, and so is any difference in the
deterministic counts or the report digest (the ``deterministic`` row).
``setup_s`` differences under 0.05 s are never regressions (a 25 % bound on
30 ms is below the clock's steadiness).  Exits non-zero on any ``regressed``
row.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Absolute floor under ``setup_s``'s relative bound, in seconds.
SETUP_FLOOR_S = 0.05
#: Deterministic metrics compare exactly (to float round-off) at equal seeds.
EXACT_RELATIVE = 1e-9


def spread(stat: Mapping[str, float]) -> Optional[float]:
    """Expected run-to-run IQR of the median, as a share of it (``None`` for a
    single value): 1.25 x the repetitions' IQR / sqrt(n)."""
    if "q1" not in stat:
        return None
    return 1.25 * (stat["q3"] - stat["q1"]) / math.sqrt(stat["n"]) / stat["value"]


def worsening(base: float, candidate: float, better: str) -> float:
    """How much worse the candidate is, as a share of the base (negative = better)."""
    change = (candidate - base) / abs(base) if base else float(candidate != base)
    return change if better == "lower" else -change


def compare(
    base: Mapping[str, Any], candidate: Mapping[str, Any], declared: Sequence[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both documents."""
    same_seed = base["seed"] == candidate["seed"]
    metrics = [
        *declared,
        {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0},
    ]
    rows: List[Dict[str, Any]] = []
    for workload, base_entry in base["workloads"].items():
        candidate_entry = candidate["workloads"].get(workload)
        if candidate_entry is None:
            continue
        for metric in metrics:
            name = metric["name"]
            a, b = base_entry["end_to_end"][name], candidate_entry["end_to_end"][name]
            bound = metric["bound"]
            if same_seed and name.startswith("sim_"):
                bound = EXACT_RELATIVE
            worse = worsening(a["value"], b["value"], metric["better"])
            spreads = [spread(a), spread(b)]
            if worse > bound and not (
                name == "setup_s" and abs(b["value"] - a["value"]) < SETUP_FLOOR_S
            ):
                verdict = "regressed"
            elif any(value is not None and value > bound for value in spreads):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": a["value"],
                    "candidate": b["value"],
                    "base_spread": spreads[0],
                    "candidate_spread": spreads[1],
                    "bound": bound,
                    "worse_by": worse,
                    "verdict": verdict,
                }
            )
        if same_seed and base["quick"] == candidate["quick"]:
            a_pins, b_pins = base_entry["pins"], candidate_entry["pins"]
            differing = sorted(
                name for name in set(a_pins) | set(b_pins) if a_pins.get(name) != b_pins.get(name)
            )
            rows.append(
                {
                    "workload": workload,
                    "metric": "deterministic",
                    "unit": "count",
                    "base": len(a_pins),
                    "candidate": len(b_pins) - len(differing),
                    "base_spread": None,
                    "candidate_spread": None,
                    "bound": 0.0,
                    "worse_by": len(differing) / len(a_pins),
                    "verdict": "regressed" if differing else "ok",
                    "differing": differing,
                }
            )
    return rows


def _share(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1%}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    declared = json.loads(BENCHMARK_PATH.read_text())["end_to_end"]
    rows = compare(
        json.loads(args.base.read_text()), json.loads(args.candidate.read_text()), declared
    )
    print(
        f"{'workload':<20}{'metric':<20}{'base':>14}{'candidate':>14}"
        f"{'spread a':>10}{'spread b':>10}{'bound':>8}{'worse by':>10}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<20}{row['metric']:<20}{row['base']:>14.6g}"
            f"{row['candidate']:>14.6g}{_share(row['base_spread']):>10}"
            f"{_share(row['candidate_spread']):>10}{row['bound']:>8.2g}"
            f"{row['worse_by']:>+10.1%}  {row['verdict']}"
            + (f" ({', '.join(row['differing'])})" if row.get("differing") else "")
        )
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, {len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
