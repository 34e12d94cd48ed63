"""``python -m repro.trace`` — analyse an exported trace file.

Examples::

    python -m repro.scenarios --run fleet-throttled-rebalance --trace trace.json
    python -m repro.trace trace.json                  # critical-path breakdown
    python -m repro.trace trace.json --top 20
    python -m repro.trace trace.json --chrome chrome.json   # Perfetto-loadable
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.exceptions import ConfigurationError, ReproError
from repro.obs.analysis import render_breakdown
from repro.obs.export import TRACE_FORMAT, TRACE_VERSION, to_chrome

#: What the analysis and the Chrome conversion index without asking.
DOCUMENT_KEYS = ("spans", "tracks", "total_simulated_time")
SPAN_KEYS = ("id", "parent", "kind", "name", "track", "start", "end", "attrs", "events")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Print a per-query critical-path breakdown of an exported "
        "trace, and optionally convert it to Chrome trace-event format.",
    )
    parser.add_argument("file", type=Path, help="trace file written by --trace")
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="number of slowest queries to show (default: 10)",
    )
    parser.add_argument(
        "--chrome",
        type=Path,
        default=None,
        metavar="OUT",
        help="also write a Chrome trace-event conversion to OUT "
        "(load in Perfetto or chrome://tracing)",
    )
    return parser


def load_trace(path: Path) -> dict:
    """Load and sanity-check a trace document."""
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ConfigurationError(f"cannot read trace file {path}: {error}") from error
    if not isinstance(document, dict) or document.get("format") != TRACE_FORMAT:
        raise ConfigurationError(
            f"{path} is not a {TRACE_FORMAT} document; export one with "
            "python -m repro.scenarios --run <name> --trace <file>"
        )
    if document.get("version") != TRACE_VERSION:
        raise ConfigurationError(
            f"{path} is a version {document.get('version')!r} trace; this "
            f"build reads version {TRACE_VERSION}"
        )
    missing = [key for key in DOCUMENT_KEYS if key not in document]
    if missing:
        raise ConfigurationError(f"{path} has no {', '.join(missing)}")
    if not isinstance(document["spans"], list):
        raise ConfigurationError(f"{path}: spans is not a list")
    for position, span in enumerate(document["spans"]):
        if not isinstance(span, dict):
            raise ConfigurationError(f"{path}: span #{position} is not an object")
        missing = [key for key in SPAN_KEYS if key not in span]
        if missing:
            raise ConfigurationError(
                f"{path}: span #{position} has no {', '.join(missing)}"
            )
    return document


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    if arguments.top < 1:
        raise ConfigurationError(f"--top must be >= 1, got {arguments.top}")
    document = load_trace(arguments.file)
    if arguments.chrome is not None:
        arguments.chrome.write_text(
            json.dumps(to_chrome(document), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {arguments.chrome}")
    print(render_breakdown(document, top=arguments.top))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
    except BrokenPipeError:
        # Output was piped to a consumer that closed early (e.g. head).
        sys.exit(0)
