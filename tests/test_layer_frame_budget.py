"""Deterministic cost per layer: Python frames per delivered object, by the
``src/repro/<layer>/`` package that entered them, for the four ledger
workloads at ``--quick`` size and seed 42.

The ledger's per-layer shares are wall-clock readings of one traced
repetition; a frame count repeats exactly on one interpreter, so a layer
that grows a call per object shows here as a count, in the layer that grew
it.  The workloads are built by the ledger's own ``workloads.py``, loaded
from its source (nothing is written beside it), and fed the catalog the
ledger's seed-42 run generates.

Each ceiling is the count read on CPython 3.11 plus half a frame, rounded
up to a tenth: one more frame per delivered object in any layer trips it.
The ``csd`` and ``fleet`` ceilings were re-read when the group-queue sort,
the migration booking and the epoch change stopped calling per request,
per job and per key (``fleet-churn`` ``csd`` 22.82 → 10.13, ``fleet``
10.14 → 6.51), and the ``sim`` ceilings when a process stopped building
an event per delay and per store wait (``vanilla-pull`` 17.27 → 9.21,
``keys-fanout`` 11.75 → 5.45, ``fleet-churn`` 17.12 → 8.30,
``skipper-shared-csd`` 11.39 → 5.30), ``skipper-shared-csd``'s
``core`` ceiling when an MJoin arrival stopped deriving its counts, ticks
and checks twice (23.16 → 21.81), and ``vanilla-pull``'s ``vanilla``,
``csd`` and ``cluster`` ceilings when ``QueryRun.pull_each`` became the
pull-based tenant's only generator, the device's per-object decision lost
three calls and the blocked-interval sort its key lambda (3.32 → 0.33,
15.02 → 13.02, 1.07 → 0.07).  The ``sim`` ceilings were re-read again when
a served GET became its own completion, with no ``Event.__init__`` per
request: one frame fewer per object on every workload (``vanilla-pull``
9.23 → 8.23, ``keys-fanout`` 5.46 → 4.46, ``fleet-churn`` 8.32 → 7.32,
``skipper-shared-csd`` 5.31 → 4.31).
CPython 3.9–3.10 read the same counts and 3.12–3.13 read fewer (inlined
comprehensions).  ``other`` is code outside the package (the standard
library, generated dataclass methods), read in a fresh process: warm
``abc`` caches make it lower.  ``repro`` would be a module at the top of
the package.  When one trips, tally the layer's frames per function
(``frame_count.count_frames``'s ``on_call``) on both commits and diff them.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest
from frame_count import count_frames_by_layer

from repro.service import StorageService
from repro.workloads import tpch

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED = 42

#: Workload -> layer -> frames per delivered object it may enter.
CEILINGS = {
    "skipper-shared-csd": {
        "cluster": 0.8,
        "core": 22.4,
        "csd": 5.8,
        "engine": 30.2,
        "other": 2.1,
        "service": 2.9,
        "sim": 4.9,
    },
    "vanilla-pull": {
        "cluster": 0.6,
        "core": 8.0,
        "csd": 13.6,
        "engine": 13.8,
        "other": 0.9,
        "service": 3.8,
        "sim": 8.8,
        "vanilla": 0.9,
    },
    "keys-fanout": {
        "cluster": 0.7,
        "core": 8.4,
        "csd": 7.3,
        "engine": 3.8,
        "fleet": 1.7,
        "obs": 0.6,
        "other": 0.8,
        "scenarios": 0.5,
        "service": 2.6,
        "sim": 5.0,
    },
    "fleet-churn": {
        "cluster": 1.0,
        "core": 8.6,
        "csd": 10.7,
        "engine": 3.4,
        "fleet": 7.1,
        "obs": 0.6,
        "other": 1.1,
        "scenarios": 0.6,
        "service": 2.7,
        "sim": 7.9,
    },
}


def frames_per_object_by_layer(workload: str):
    """(layer -> frames entered during ``service.run()`` per delivered
    object, objects delivered) for one ledger workload at ``--quick`` size."""
    builders = runpy.run_path(str(REPO_ROOT / "ledger" / "workloads.py"))["WORKLOADS"]
    # As the ledger does: the scenario is seeded one past the data.
    profile, spec = builders[workload](SEED + 1, True)
    service = StorageService(spec, catalog=tpch.build_catalog(profile, SEED))
    result, layers = count_frames_by_layer(service.run)
    objects = result.device_objects_served
    return {layer: frames / objects for layer, frames in layers.items()}, objects


@pytest.mark.parametrize("workload", sorted(CEILINGS))
def test_frames_per_delivered_object_stay_under_each_layers_ceiling(workload):
    per_object, objects = frames_per_object_by_layer(workload)
    assert objects > 100
    ceilings = CEILINGS[workload]
    over = {
        layer: f"{frames:.3f} > {ceilings.get(layer, 0.0)}"
        for layer, frames in sorted(per_object.items())
        if frames > ceilings.get(layer, 0.0)
    }
    assert not over, (
        f"{workload}: frames per delivered object over the layer's ceiling: {over}"
    )
    # The package's layers repeat exactly; ``other`` enters fewer frames once
    # ``abc``'s subclass caches are warm, so it depends on what ran before.
    again, _objects = frames_per_object_by_layer(workload)
    del again["other"], per_object["other"]
    assert again == per_object
