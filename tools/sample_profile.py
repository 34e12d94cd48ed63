"""Sampling profile of one ledger workload's run + report.

cProfile (the ledger's ``--trace 1``) pays a hook per call, so it inflates
call-heavy code several times over and its per-layer readings spread
widely between runs.  This sampler costs nothing between samples: an
``ITIMER_PROF`` timer interrupts the process every :data:`INTERVAL`
seconds of CPU time and the handler records the interrupted Python stack.
The interval asked for is a floor, not a promise: the kernel delivers the
signal at its own tick, so a 0.5 ms request can come out at ≈ 4 ms (≈ 255
samples per CPU second on a 250 Hz kernel).  The header prints the samples
per CPU second achieved (``time.process_time()`` around the sampled
phases) next to the interval asked for; fewer samples mean shares that
carry more noise.
Only ``service.run()``, the report and its JSON are sampled, as the
ledger's ``wall_s`` times them; the catalog and the service are built with
the timer off.  The workload comes from ``ledger/workloads.py``, read (not
imported, so nothing is written beside it) and seeded as the ledger seeds
it: the data from 42, the scenario from 43.

A sample's *self* entry is the innermost frame (time in C code it called
counts to it); its *inclusive* entries are every frame on the stack, each
once.  Layers are the ``src/repro/<layer>/`` packages; ``repro`` is a
module at the package's top, ``other`` anything outside it — the frame
gates' own ``layer_of``, imported from ``tests/frame_count.py``.

``--frames`` counts instead of sampling: the Python frames each
``service.run()`` enters, per delivered object, by layer and for the top
functions — counted by ``tests/frame_count.py``'s ``count_frames``, so it is
the count ``tests/test_layer_frame_budget.py`` gates, bucketed as that file
buckets it — and beside it the kernel's events per
delivered object (``env.dispatched``), so a change that claims to save work
per event shows that it left the event count alone.  Both repeat exactly on
one interpreter.

Usage (stdlib only, POSIX, from the repository root)::

    python tools/sample_profile.py fleet-churn [--quick] [--repetitions N] [--frames]
"""

from __future__ import annotations

import argparse
import runpy
import signal
import sys
import time
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]

# The frame gates' own counter and layer buckets: what this prints is what
# they count.
from frame_count import count_frames, layer_of  # noqa: E402
from repro.scenarios.runner import ScenarioRunner  # noqa: E402
from repro.service import StorageService  # noqa: E402
from repro.workloads import tpch  # noqa: E402

#: CPU seconds between two samples.
INTERVAL = 0.0005
SEED = 42
#: Functions printed by self share, then (``src/repro`` only) by inclusive share.
TOP = 25


def function_of(code) -> str:
    """``layer:qualified name`` of a code object (3.9-3.10 lack ``co_qualname``)."""
    return f"{layer_of(code.co_filename)}:{getattr(code, 'co_qualname', code.co_name)}"


def print_frames(workload: str, profile, spec, repetitions: int) -> None:
    """Print the frames ``service.run()`` enters per delivered object, by
    layer and for the top :data:`TOP` functions, and the events it
    dispatches per delivered object, over ``repetitions`` runs."""
    by_code: Counter = Counter()

    def tally(frame) -> None:
        by_code[frame.f_code] += 1

    objects = events = 0
    for _ in range(repetitions):
        service = StorageService(spec, catalog=tpch.build_catalog(profile, SEED))
        result, _frames = count_frames(service.run, on_call=tally)
        objects += result.device_objects_served
        events += service.env.dispatched
    layers: Counter = Counter()
    functions: Counter = Counter()
    for code, frames in by_code.items():
        layers[layer_of(code.co_filename)] += frames
        functions[function_of(code)] += frames
    print(f"{workload}: {sum(layers.values()) / objects:.2f} frames and "
          f"{events / objects:.2f} events per delivered object "
          f"over {repetitions} service.run() ({objects} objects, {events} events)")
    print(f"\n{'layer':<12} {'frames':>7}")
    for layer, frames in sorted(layers.items()):
        print(f"{layer:<12} {frames / objects:7.2f}")
    print(f"\n{'frames':>7}  function (top {TOP})")
    for function, frames in functions.most_common(TOP):
        print(f"{frames / objects:7.2f}  {function}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help="a ledger workload, e.g. fleet-churn")
    parser.add_argument("--quick", action="store_true", help="the ledger's test size")
    parser.add_argument("--repetitions", type=int, default=25, help="sampled runs (25)")
    parser.add_argument(
        "--frames", action="store_true", help="count frames per delivered object instead"
    )
    return parser


def main() -> None:
    args = build_parser().parse_args()
    workloads = runpy.run_path(str(REPO_ROOT / "ledger" / "workloads.py"))["WORKLOADS"]
    profile, spec = workloads[args.workload](SEED + 1, args.quick)
    if args.frames:
        name = f"{args.workload}{' --quick' if args.quick else ''}"
        print_frames(name, profile, spec, args.repetitions)
        return
    runner = ScenarioRunner(check=False)
    self_functions: Counter = Counter()
    inclusive_functions: Counter = Counter()
    self_layers: Counter = Counter()
    inclusive_layers: Counter = Counter()

    def sample(_signum, frame) -> None:
        self_functions[function_of(frame.f_code)] += 1
        self_layers[layer_of(frame.f_code.co_filename)] += 1
        functions, layers = set(), set()
        while frame is not None:
            functions.add(function_of(frame.f_code))
            layers.add(layer_of(frame.f_code.co_filename))
            frame = frame.f_back
        inclusive_functions.update(functions)
        inclusive_layers.update(layers)

    signal.signal(signal.SIGPROF, sample)
    cpu_seconds = 0.0
    for _ in range(args.repetitions):
        service = StorageService(spec, catalog=tpch.build_catalog(profile, SEED))
        started = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        result = service.run()
        runner._build_report(spec, service, result, []).to_json()
        signal.setitimer(signal.ITIMER_PROF, 0)
        cpu_seconds += time.process_time() - started
    signal.signal(signal.SIGPROF, signal.SIG_DFL)
    total = sum(self_functions.values())
    if not total:
        sys.exit("no samples: the runs were shorter than one interval")
    print(f"{args.workload}{' --quick' if args.quick else ''}: {total} samples "
          f"over {args.repetitions} run + report ({cpu_seconds:.2f} CPU s): "
          f"{total / cpu_seconds:.0f} samples per CPU second, "
          f"{1 / INTERVAL:.0f} asked for ({INTERVAL * 1e3:g} ms)")
    print(f"\n{'layer':<12} {'self %':>7} {'incl %':>7}")
    for layer, count in self_layers.most_common():
        print(f"{layer:<12} {100 * count / total:7.1f} {100 * inclusive_layers[layer] / total:7.1f}")
    for layer in sorted(set(inclusive_layers) - set(self_layers)):
        print(f"{layer:<12} {0.0:7.1f} {100 * inclusive_layers[layer] / total:7.1f}")
    by_inclusive = [
        (function, count) for function, count in inclusive_functions.most_common()
        if not function.startswith("other:")
    ]
    for title, ranked in (("self", self_functions.most_common(TOP)), ("inclusive", by_inclusive[:TOP])):
        print(f"\n{'self %':>7} {'incl %':>7}  function (top {TOP} by {title})")
        for function, _count in ranked:
            print(f"{100 * self_functions[function] / total:7.1f} "
                  f"{100 * inclusive_functions[function] / total:7.1f}  {function}")


if __name__ == "__main__":
    main()
