"""CLI for the macro-benchmark harness.

Run the pinned macro scenarios and write ``BENCH_10.json``::

    python -m repro.bench                 # full suite (minutes)
    python -m repro.bench --smoke         # CI-sized (seconds); prints, writes
                                          # only where --output says
    python -m repro.bench --baseline old.json   # embed speedup ratios
    python -m repro.bench --profile prof/       # per-scenario .pstats dumps
    python -m repro.bench --smoke --check       # diff vs committed document

``--baseline`` takes a document previously written by this harness
(typically produced from a pre-change checkout) and embeds its numbers and
per-scenario speedup ratios in the output.  ``--profile DIR`` runs every
scenario under cProfile and dumps ``DIR/<scenario>.pstats`` files (wall
times are then inflated by the profiler).  ``--check [PATH]`` diffs the
run's deterministic outcomes (``events_dispatched``, ``simulated_time``)
against a committed document (default: the repo-root ``BENCH_10.json``) and
exits non-zero on any drift — wall times are never compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import (
    DEFAULT_OUTPUT_NAME,
    attach_baseline,
    check_determinism,
    repo_root,
    run_benchmarks,
    write_document,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the pinned macro benchmarks and write BENCH_10.json.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run CI-sized variants of every macro scenario (seconds, not minutes)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"output path (default: {DEFAULT_OUTPUT_NAME} at the repository root "
        "for a full run; a --smoke run writes nothing without it)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="a prior BENCH document to embed as the comparison baseline",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="run every macro scenario with tracing on (entries report "
        "their span counts; measures tracing overhead at scale)",
    )
    parser.add_argument(
        "--profile",
        type=Path,
        default=None,
        metavar="DIR",
        help="run each scenario under cProfile and dump DIR/<scenario>.pstats "
        "(wall times are then inflated by the profiler)",
    )
    parser.add_argument(
        "--check",
        nargs="?",
        type=Path,
        const=True,
        default=None,
        metavar="PATH",
        help="diff events_dispatched/simulated_time per scenario against a "
        "committed BENCH document (default: the repo-root "
        f"{DEFAULT_OUTPUT_NAME}) and exit non-zero on drift",
    )
    return parser


def main(argv=None) -> int:
    arguments = build_parser().parse_args(argv)
    committed = committed_path = None
    if arguments.check is not None:
        committed_path = (
            repo_root() / DEFAULT_OUTPUT_NAME
            if arguments.check is True
            else arguments.check
        )
        # Read before anything is written: a full run's default output is
        # this very file.
        committed = json.loads(Path(committed_path).read_text())
    document = run_benchmarks(
        smoke=arguments.smoke,
        trace=arguments.trace,
        profile_dir=arguments.profile,
    )
    if arguments.baseline is not None:
        baseline = json.loads(arguments.baseline.read_text())
        attach_baseline(document, baseline)
    # A smoke document is for drift checks, not for committing: it is only
    # written where --output says, never over the committed full document.
    if arguments.output is not None or not arguments.smoke:
        print(f"wrote {write_document(document, arguments.output)}")
    totals = document["totals"]
    print(
        f"mode={document['mode']} run={totals['run_seconds']:.2f}s "
        f"events={totals['events_dispatched']} "
        f"events/sec={totals['events_per_second']:.0f} "
        f"peak_rss={document['peak_rss_kb']}KB"
    )
    for name, entry in document["scenarios"].items():
        print(
            f"  {name}: run={entry['run_seconds']:.2f}s "
            f"events/sec={entry['events_per_second']:.0f} "
            f"simulated={entry['simulated_time']:.1f}s"
        )
    speedups = document.get("baseline", {}).get("speedup_events_per_second", {})
    for name, ratio in speedups.items():
        print(f"  speedup {name}: {ratio:.2f}x events/sec vs baseline")
    build_run = document.get("baseline", {}).get("speedup_build_run_seconds", {})
    for name, ratio in build_run.items():
        print(f"  speedup {name}: {ratio:.2f}x build+run wall time vs baseline")
    if committed is not None:
        problems = check_determinism(document, committed)
        if problems:
            for problem in problems:
                print(f"DRIFT {problem}", file=sys.stderr)
            print(
                f"determinism check failed against {committed_path}: "
                f"{len(problems)} divergence(s)",
                file=sys.stderr,
            )
            return 1
        print(f"determinism check ok against {committed_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
