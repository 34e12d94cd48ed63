#!/usr/bin/env python3
"""The layered performance ledger: one command, four workloads, every metric.

Two ways to call it, both from the repository root with no set-up:

``python3 ledger/run.py [--seed 42] [--workload NAME ...] [--output PATH]``
    The whole ledger.  Each workload runs in two fresh child processes, one
    at a time (so ``peak_rss_mb`` is per workload and at most one process is
    busy): first the end-to-end metrics with nothing installed, then the
    per-layer metrics.  Prints every metric as ``workload metric value unit``
    and writes one results document for ``compare.py``.

``python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One measurement, as the benchmark driver calls it.  ``--trace 0`` measures
    the end-to-end metrics: one warm-up, then timed repetitions for ``S``
    seconds (never fewer than five), nothing but five clock reads inside each
    and a calibration loop just before and after (times are reported at
    nominal machine speed, see ``calibration.py``).
    ``--trace 1`` measures the per-layer metrics: one repetition under
    cProfile, the benchmark's own spans, the counts and the probes.  The last
    line of standard output is one JSON object with the keys ``correct``,
    ``attempted``, ``failed`` and ``metrics``.

Either way the answers are checked: every query must finish with the rows of
a pull-based reference computed on the same catalog, the invariant checker
must pass, no object may be lost, the report must be byte-identical on every
repetition, and for the pinned seed the simulated results, counts and report
digest must equal ``expected.json``.  Any failure exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent
EXPECTED_PATH = LEDGER_DIR / "expected.json"
DEFAULT_OUTPUT = LEDGER_DIR / "out" / "results.json"

RESULTS_SCHEMA = 1


def load_benchmark() -> Dict[str, Any]:
    """The committed metric and workload declarations (names, units, bounds)."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _import_program() -> None:
    """Make ``repro`` importable from a bare checkout (no PYTHONPATH needed)."""
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"error: the program under test is missing: {source / 'repro'}")
    sys.path.insert(0, str(source))


# --------------------------------------------------------------------------- #
# expected.json: pinned simulated results, counts and report digest
# --------------------------------------------------------------------------- #
def _load_expected() -> Dict[str, Any]:
    if EXPECTED_PATH.exists():
        return json.loads(EXPECTED_PATH.read_text())
    return {"seed": None, "sizes": {}}


def _expected_drift(seed: int, size: str, workload: str, pins: Mapping[str, Any]) -> List[str]:
    """Differences from the pinned values; other seeds have no pins."""
    expected = _load_expected()
    if expected["seed"] != seed:
        return []
    pinned = expected["sizes"].get(size, {}).get(workload)
    if pinned is None:
        return [f"expected.json has no {size} pins for {workload}; run --write-expected"]
    return [
        f"{name} drifted from the pinned {pinned.get(name)!r} to {pins.get(name)!r}"
        for name in sorted(set(pinned) | set(pins))
        if pinned.get(name) != pins.get(name)
    ]


def _write_expected(seed: int, size: str, workload: str, pins: Mapping[str, Any]) -> None:
    expected = _load_expected()
    if expected["seed"] != seed:
        expected = {"seed": seed, "sizes": {}}
    expected["sizes"].setdefault(size, {})[workload] = dict(pins)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------- #
# One measurement (what the driver calls)
# --------------------------------------------------------------------------- #
def run_single(args: argparse.Namespace) -> int:
    """One workload, one trace mode: print, optionally write, return exit code."""
    _import_program()
    import measure  # needs ``repro`` on the path

    benchmark = load_benchmark()
    name = args.workload[0]
    bench = measure.Bench(name, args.seed, args.quick, args.corrupt_reference)
    if args.trace:
        declared = benchmark["per_layer"]
        metrics = measure.measure_layers(bench)
    else:
        declared = benchmark["end_to_end"]
        metrics = measure.measure_end_to_end(bench, args.seconds)
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(units):
        raise SystemExit(
            "error: measured and declared metrics differ: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    for metric, stat in metrics.items():
        stat["unit"] = units[metric]
        print(f"{name} {metric} {stat['value']!r} {stat['unit']}")
    verdict = bench.verdict()
    size = "quick" if args.quick else "full"
    if args.write_expected:
        _write_expected(args.seed, size, name, verdict["pins"])
    else:
        verdict["problems"] += _expected_drift(args.seed, size, name, verdict["pins"])
    verdict["correct"] = not verdict["problems"]
    failed_share = verdict["failed"] / verdict["attempted"]
    print(f"{name} failed_share {failed_share!r} ratio")
    for problem in verdict["problems"]:
        print(f"{name} FAILED: {problem}")
    repetitions = len(bench.samples) - 1
    tenants = bench.samples[0].tenants
    queries = bench.samples[0].attempted
    print(
        f"{name}: closed loop, {tenants} tenants x {queries // tenants} queries per "
        f"repetition; 1 warm-up + {repetitions} repetitions; "
        + (
            f"n = {repetitions} timed samples support the median only, "
            "no higher percentile"
            if not args.trace
            else f"{measure.TRACE_BASE_REPETITIONS} untraced + 1 under cProfile, single samples"
        )
    )
    document = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": args.trace,
        "repetitions": repetitions,
        **verdict,
        "metrics": metrics,
        "spans": [
            {**span, "workload": name, "repetition": index}
            for index, sample in enumerate(bench.samples)
            for span in sample.spans
        ],
    }
    if args.output is not None:
        _write_json(args.output, document)
    print(
        json.dumps(
            {
                "correct": verdict["correct"],
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": {
                    metric: {"value": stat["value"], "unit": stat["unit"]}
                    for metric, stat in metrics.items()
                },
            }
        )
    )
    return 0 if verdict["correct"] else 1


# --------------------------------------------------------------------------- #
# The whole ledger (what a person calls)
# --------------------------------------------------------------------------- #
def _write_json(path: Path, document: Mapping[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def run_ledger(args: argparse.Namespace) -> int:
    """Every selected workload, each in its own child processes, one at a time."""
    benchmark = load_benchmark()
    declared = [entry["name"] for entry in benchmark["workloads"]]
    names = args.workload or declared
    output = args.output or DEFAULT_OUTPUT
    output.parent.mkdir(parents=True, exist_ok=True)
    workloads: Dict[str, Any] = {}
    exit_code = 0
    with tempfile.TemporaryDirectory(dir=output.parent) as scratch:
        for name in names:
            parts = []
            for trace in (0, 1):
                part_path = Path(scratch) / f"{name}.{trace}.json"
                command = [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--output", str(part_path),
                ]
                for flag in ("quick", "corrupt_reference", "write_expected"):
                    if getattr(args, flag):
                        command.append("--" + flag.replace("_", "-"))
                sys.stdout.flush()
                completed = subprocess.run(command, check=False)
                if completed.returncode != 0:
                    exit_code = 1
                if not part_path.exists():
                    raise SystemExit(f"error: {name} --trace {trace} produced no result")
                parts.append(json.loads(part_path.read_text()))
            end_to_end, per_layer = parts
            problems = end_to_end["problems"] + per_layer["problems"]
            if end_to_end["pins"] != per_layer["pins"]:
                problems.append("the two runs of one seed disagree on deterministic results")
                exit_code = 1
            attempted = end_to_end["attempted"] + per_layer["attempted"]
            failed = end_to_end["failed"] + per_layer["failed"]
            workloads[name] = {
                "end_to_end": {
                    **end_to_end["metrics"],
                    "failed_share": {"value": failed / attempted, "unit": "ratio"},
                },
                "per_layer": per_layer["metrics"],
                "attempted": attempted,
                "failed": failed,
                "correct": not problems,
                "problems": problems,
                "repetitions": end_to_end["repetitions"],
                "pins": end_to_end["pins"],
                "spans": per_layer["spans"],
            }
    document = {
        "schema": RESULTS_SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": workloads,
    }
    _write_json(output, document)
    for name, entry in workloads.items():
        print(
            f"{name}: 1 warm-up + {entry['repetitions']} timed repetitions; "
            f"n = {entry['repetitions']} samples support the median only, no higher "
            f"percentile; failed_share = {entry['end_to_end']['failed_share']['value']!r}"
        )
    print(f"wrote {output}")
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42, help="input seed (>= 0)")
    parser.add_argument(
        "--workload",
        action="append",
        choices=[entry["name"] for entry in benchmark["workloads"]],
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(benchmark["run_seconds"]),
        help="how long the timed repetitions of one run last",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="measure one workload: 0 = end-to-end metrics, 1 = per-layer metrics",
    )
    parser.add_argument("--output", type=Path, help="where to write the results document")
    parser.add_argument(
        "--quick", action="store_true", help="~10x smaller workloads (the ledger's tests)"
    )
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="pin this seed's simulated results, counts and digests in expected.json",
    )
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="self-test: damage the reference answers; the run must then fail",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.trace is None:
        return run_ledger(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace measures exactly one --workload")
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
