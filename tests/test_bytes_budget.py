"""Deterministic size: bytes per stored object that a finished run keeps
live, and its peak, for the four ledger workloads at ``--quick`` size and
seed 42.

A service holds per-object state — the store's keys, each device's layout,
the fleet's placement, the busy log — and what it keeps once ``run()`` and
the report are done is what sets the ledger's ``peak_rss_mb`` (the
calibration kernel after the report allocates on top of it).  An RSS
reading moves by pages and with the allocator; ``tracemalloc``'s byte
counts repeat on one interpreter, so the gate is on them: the bytes live
after building the service, running it and assembling the report, per
object the service stores, and the peak above the start while that ran.
The workloads are built by the ledger's own ``workloads.py``, loaded from
its source (nothing is written beside it), and fed the catalog the
ledger's seed-42 run generates.  Each is run once untraced first, so
warm-up allocations (lazy imports, type caches) are not counted.

Object sizes differ between CPython minor versions, so each has its own
ceilings: the reading on that version plus 2 %, rounded up.  A ceiling may
only be tightened.  When one trips, the assertion prints the bytes per
object of each ``src/repro/<layer>/``; read the same on the parent commit
and diff, then find the site with the one-line recipe in
``byte_count.py``'s docstring.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest
from byte_count import count_bytes_by_layer

from repro.scenarios.runner import ScenarioRunner
from repro.service import StorageService
from repro.workloads import tpch

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED = 42

#: CPython ``(major, minor)`` -> workload -> (live bytes per stored object
#: after the run and the report, peak bytes per stored object during them).
CEILINGS = {
    (3, 9): {
        "skipper-shared-csd": (691, 2811),
        "vanilla-pull": (732, 3699),
        "keys-fanout": (951, 1254),
        "fleet-churn": (1970, 2236),
    },
    (3, 10): {
        "skipper-shared-csd": (692, 2908),
        "vanilla-pull": (739, 3757),
        "keys-fanout": (950, 1252),
        "fleet-churn": (1970, 2231),
    },
    (3, 11): {
        "skipper-shared-csd": (723, 2902),
        "vanilla-pull": (737, 3447),
        "keys-fanout": (888, 1202),
        "fleet-churn": (1887, 2160),
    },
    (3, 12): {
        "skipper-shared-csd": (709, 2878),
        "vanilla-pull": (725, 3434),
        "keys-fanout": (876, 1190),
        "fleet-churn": (1871, 2143),
    },
    (3, 13): {
        "skipper-shared-csd": (717, 2888),
        "vanilla-pull": (730, 3441),
        "keys-fanout": (877, 1191),
        "fleet-churn": (1873, 2146),
    },
}
WORKLOADS = ("skipper-shared-csd", "vanilla-pull", "keys-fanout", "fleet-churn")


def bytes_per_object(workload: str):
    """(live bytes per stored object, peak bytes per stored object, live
    bytes per stored object by layer) for one ledger workload at
    ``--quick`` size."""
    builders = runpy.run_path(str(REPO_ROOT / "ledger" / "workloads.py"))["WORKLOADS"]
    # As the ledger does: the scenario is seeded one past the data.
    profile, spec = builders[workload](SEED + 1, True)
    catalog = tpch.build_catalog(profile, SEED)

    def run():
        service = StorageService(spec, catalog=catalog)
        result = service.run()
        report = ScenarioRunner(check=False)._build_report(spec, service, result, [])
        return service, result, report

    run()
    (service, _result, _report), layers, peak = count_bytes_by_layer(run)
    objects = len(service.object_store._objects)
    per_layer = {layer: size / objects for layer, size in sorted(layers.items())}
    return sum(layers.values()) / objects, peak / objects, per_layer


@pytest.mark.skipif(
    sys.version_info[:2] not in CEILINGS, reason="no byte ceilings for this CPython"
)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_bytes_per_stored_object_stay_under_the_ceilings(workload):
    live, peak, per_layer = bytes_per_object(workload)
    live_ceiling, peak_ceiling = CEILINGS[sys.version_info[:2]][workload]
    layers = {layer: round(size) for layer, size in per_layer.items()}
    assert live <= live_ceiling, (
        f"{workload}: {live:.0f} B live per stored object > {live_ceiling}; by layer: {layers}"
    )
    assert peak <= peak_ceiling, (
        f"{workload}: {peak:.0f} B peak per stored object > {peak_ceiling}; live by layer: "
        f"{layers}"
    )


if __name__ == "__main__":
    for name in WORKLOADS:
        live, peak, per_layer = bytes_per_object(name)
        print(f"{name}: live {live:.1f} B, peak {peak:.1f} B per stored object")
        print("   ", {layer: round(size, 1) for layer, size in per_layer.items()})
