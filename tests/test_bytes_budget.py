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
from typing import Callable, List

import pytest
from byte_count import count_bytes_by_layer

from repro.core.njoin import PreparedSegment
from repro.core.subplan import Batch, SubplanLayout
from repro.scenarios.runner import ScenarioRunner
from repro.service import StorageService
from repro.workloads import tpch

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED = 42

#: CPython ``(major, minor)`` -> workload -> (live bytes per stored object
#: after the run and the report, peak bytes per stored object during them).
#: The fleet workloads' peaks were re-read when a served GET became its own
#: completion (no event and callback list per request in flight):
#: ``keys-fanout`` 1192.3 → 1025.5, ``fleet-churn`` 2099.4 → 2009.7 on 3.11.
CEILINGS = {
    (3, 9): {
        "skipper-shared-csd": (691, 2811),
        "vanilla-pull": (732, 3699),
        "keys-fanout": (951, 1102),
        "fleet-churn": (1970, 2140),
    },
    (3, 10): {
        "skipper-shared-csd": (692, 2908),
        "vanilla-pull": (739, 3757),
        "keys-fanout": (950, 1100),
        "fleet-churn": (1970, 2139),
    },
    (3, 11): {
        "skipper-shared-csd": (723, 2902),
        "vanilla-pull": (737, 3447),
        "keys-fanout": (888, 1047),
        "fleet-churn": (1887, 2050),
    },
    (3, 12): {
        "skipper-shared-csd": (709, 2878),
        "vanilla-pull": (725, 3434),
        "keys-fanout": (876, 1034),
        "fleet-churn": (1871, 2035),
    },
    (3, 13): {
        "skipper-shared-csd": (717, 2888),
        "vanilla-pull": (730, 3441),
        "keys-fanout": (877, 1035),
        "fleet-churn": (1873, 2037),
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


#: Per-object records of the kernels, built 1 000 times each: bytes per
#: instance, the instance and what its ``__init__`` allocates.  They keep
#: their attributes in ``__slots__``; without them an instance carries a
#: ``__dict__`` (CPython 3.11+: inline values) and trips the ceiling.
#: Readings with / without slots: ``PreparedSegment`` 136 / 216 (3.9–3.10),
#: 136 / 178 (3.11–3.13); ``Batch`` 72 / 152, 72 / 114; ``SubplanLayout`` of
#: TPC-H Q6 at ``tiny`` 968 / 1 064, 824 / 874.
#: Name -> (ceiling on CPython 3.9–3.10, on 3.11 and later).
SLOTTED_CEILINGS = {"PreparedSegment": (160, 160), "Batch": (96, 96), "SubplanLayout": (1000, 850)}


def _slotted(name: str) -> Callable[[int], object]:
    ids = [f"t.{index}" for index in range(1000)]
    if name == "PreparedSegment":
        return lambda index: PreparedSegment(ids[index], "t", ids)
    if name == "Batch":
        lists, subplan_ids = [["t.0"]], [0]
        return lambda index: Batch(lists, subplan_ids, b"\x01")
    catalog, query = tpch.build_catalog("tiny", SEED), tpch.q6()
    return lambda index: SubplanLayout(query, catalog, query.tables)


@pytest.mark.parametrize("name", sorted(SLOTTED_CEILINGS))
def test_a_slotted_record_costs_its_slots(name):
    make = _slotted(name)
    kept: List[object] = [make(0)] * 1000

    def build() -> None:
        for index in range(len(kept)):
            kept[index] = make(index)

    _, live, _peak = count_bytes_by_layer(build)
    per_instance = sum(live.values()) / len(kept)
    ceiling = SLOTTED_CEILINGS[name][sys.version_info[:2] >= (3, 11)]
    assert per_instance <= ceiling, (
        f"{name}: {per_instance:.0f} B per instance > {ceiling}: did it lose its __slots__?"
    )


if __name__ == "__main__":
    for name in WORKLOADS:
        live, peak, per_layer = bytes_per_object(name)
        print(f"{name}: live {live:.1f} B, peak {peak:.1f} B per stored object")
        print("   ", {layer: round(size, 1) for layer, size in per_layer.items()})
