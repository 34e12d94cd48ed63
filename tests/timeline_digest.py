"""The timeline of a run, entry by entry, and its sha256.

A timeline is what a run did and when: every device's ``busy_intervals``
in device order (each interval's times as ``float.hex``, so two runs agree
only when every instant is bit-identical), then every query handle's
submitted, started and finished instants, session by session.  The
scenario goldens and the ledger pins hold the totals a run reports; the
timeline holds the instants the totals are summed from, so a change that
moves one event and moves it back elsewhere still shows, at the entry it
moved.

Run as a script (``src`` on ``PYTHONPATH``, any supported CPython), it
prints one ``name sha256 entries`` line per registered scenario and per
ledger workload at ``--quick`` size, then ``N timelines hold``, or exits 1
naming the runs whose digest is not the pin; with ``--write-reference`` it
rewrites :data:`REFERENCE` instead, which only a change that means to move
the timeline should do (and then together with :data:`PINS`)::

    PYTHONPATH=src python tests/timeline_digest.py
"""

from __future__ import annotations

import gzip
import hashlib
import json
import runpy
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.scenarios import get_scenario, scenario_names
from repro.service import StorageService
from repro.workloads import tpch

REPO_ROOT = Path(__file__).resolve().parent.parent
#: The pinned runs' timelines, entry by entry, that a mismatch is diffed
#: against: ``{name: [entry, ...]}`` as JSON, gzipped.
REFERENCE = Path(__file__).resolve().parent / "timelines.json.gz"
#: The ledger's seed: its workloads seed the scenario one past the data.
LEDGER_SEED = 42
LEDGER_WORKLOADS = ("skipper-shared-csd", "vanilla-pull", "keys-fanout", "fleet-churn")

Entry = Tuple[Optional[str], ...]

#: Run -> the sha256 of its timeline: computed before a served GET became
#: its own completion, and unchanged by it.
PINS = {
    "admission-burst": "efb1f24b18e39a7273e0fc0e3f7af53cf42d1fdecd80f32826f3a082cb543285",
    "cache-starved": "cf871a6e89ec40d8455942fdf3bd30b81ece19ca19a9ed31be706cbf7ca940b3",
    "fairness-adversarial": "0e6c337e3ede1c04670ae94faf76c4b399b86bffc966d4e54bdb6e4027286796",
    "fleet-adaptive-rebalance": "f571403c071bda012f28f949658957a569e8ef360e53ada3538c94c779d008bb",
    "fleet-device-loss": "8597caa515560073a472e11f82096efb7a37c2f02b93d470dae67d8d65228333",
    "fleet-elastic-drain": "c87fa809bf80c5404af60c90b6d15775be83ffd2f2ffc2ba33a3bb68c4b56d4e",
    "fleet-heterogeneous": "9ab42d6c72fa21fc5bf67fa9c94ea492ad3948c59904bc62ea8ac5990fd1ddb4",
    "fleet-hot-shard": "0efa7aae950e9261a4525972057952bbc85af9e9952260207921f7432d63c3c5",
    "fleet-load-aware": "fb9ea53b9b9d46cf877cdb6450d6f9ac8abf38f73eb46395c39581925c071404",
    "fleet-load-aware-baseline": "3049a5c8f9b15622316a103950574d78301cdf1ee81cdbf703b94629a37d0ff9",
    "fleet-loss-at-scale": "f6cde29d37bce92798d71399f95bd6107d626aa18fb675fec814479c51a4f13a",
    "fleet-rebalance-under-load": "0ceead3d5114aa87029411193079d4e29f5e25e5f20fe75a60c5a2f69e0b3225",
    "fleet-repair-after-loss": "27a33051d57194eb5d0d904a7c934228e53124d8feda73b0f27dc0061ca14bf9",
    "fleet-replicated-read": "b629bde1767e07284ba7bb73f9c659fd63ea2e74c60cbab76f9cdc53d561d38e",
    "fleet-replication-upgrade": "0bbc65e3eb14522efda7425dc9bf9117939829c2d63984ae3a9a7e28d6414704",
    "fleet-throttled-rebalance": "b14b940ace25e9b7b89ef073aa5d98f8adb605709e156b48471b80116137d790",
    "large-fanout": "ee6a0d199a264a12301b73dee742a711a303a80982d75a31acc5ac3f77addb4d",
    "mixed-fleet": "2a33acc9d279cad534d7a3e8468732b1ede96fdf218c476b8ec4a4197aa87e46",
    "multi-workload-mix": "a9e1f8c4186de1b95b9d58312d688fa71a76e419c4c5ec6f347b69b931e26325",
    "session-fanout": "6a02379b0c04d480343e07b9638510a1bd726b0a4478f6202e2b31e86426f673",
    "single-tenant-saturation": "34354a5ab33c8183a5716ba8954626bf56ab9f45b42b2b624e18bcc268d29abc",
    "straggler-device": "41a87907856d4566ef388fd646eb70188e8a144e3c698156ff3731a61f0cc7c2",
    "uniform": "bf19ab589ae3f97b729faeb95fdb2a0315f80564020b9407269ad80d6a41ab59",
    "ledger:skipper-shared-csd": "28fe165d48057862b2d4cc4d4beace52203622ceaaab507ac8a3eebbe7cc90af",
    "ledger:vanilla-pull": "d83a0adb65c6f00f93f15d4cf418e2d65bbcf1e4410ebe4b2884bad6a76dcd24",
    "ledger:keys-fanout": "a688d2c62f2ab070752d012af76851aae2a3e379086a45ce8500ef055faebe88",
    "ledger:fleet-churn": "396646ccd97f72ee884c368f4360cedbfc89f11e7f3fd550d166c1882cccf7b1",
}


def _hex(instant: Optional[float]) -> Optional[str]:
    return None if instant is None else float(instant).hex()


def timeline(service: StorageService) -> List[Entry]:
    """The run's entries, busy intervals first (device by device, in the
    order each device wrote them), then query handles (session by session)."""
    entries: List[Entry] = []
    for device in service.devices:
        for interval in device.busy_intervals:
            entries.append(
                (
                    device.name,
                    _hex(interval.start),
                    _hex(interval.end),
                    interval.kind,
                    str(interval.group_id),
                    interval.client_id,
                    interval.query_id,
                    interval.object_key,
                )
            )
    for session in service.sessions:
        for handle in session.handles:
            entries.append(
                (
                    session.tenant_id,
                    _hex(handle.submitted_at),
                    _hex(handle.started_at),
                    _hex(handle.finished_at),
                    handle.status,
                )
            )
    return entries


def sha256(entries: List[Entry]) -> str:
    """The digest of a timeline: one ``repr`` line per entry."""
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(repr(entry).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def scenario_timeline(name: str) -> List[Entry]:
    """The timeline of one registered scenario, run as the scenario CLI runs it."""
    service = StorageService(get_scenario(name))
    service.run()
    return timeline(service)


def workload_timeline(name: str) -> List[Entry]:
    """The timeline of one ledger workload at ``--quick`` size and seed 42,
    built by the ledger's own ``workloads.py`` as ``ledger/run.py`` builds it."""
    builders = runpy.run_path(str(REPO_ROOT / "ledger" / "workloads.py"))["WORKLOADS"]
    profile, spec = builders[name](LEDGER_SEED + 1, True)
    service = StorageService(spec, catalog=tpch.build_catalog(profile, LEDGER_SEED))
    service.run()
    return timeline(service)


def all_timelines() -> List[Tuple[str, List[Entry]]]:
    """``(name, timeline)`` for every scenario, then every ledger workload
    (named ``ledger:<workload>``)."""
    runs = [(name, scenario_timeline(name)) for name in scenario_names()]
    runs += [(f"ledger:{name}", workload_timeline(name)) for name in LEDGER_WORKLOADS]
    return runs


@lru_cache(maxsize=1)
def _references() -> Dict[str, List[List[Optional[str]]]]:
    with gzip.open(REFERENCE, "rt") as stream:
        return json.load(stream)


def reference(name: str) -> List[Entry]:
    """The pinned timeline of ``name``, read from :data:`REFERENCE`."""
    return [tuple(entry) for entry in _references()[name]]


def first_difference(actual: List[Entry], expected: List[Entry]) -> Tuple[int, object, object]:
    """``(index, actual entry, expected entry)`` at the first index where the
    two timelines differ (``None`` past the end of the shorter one)."""
    for index, (got, wanted) in enumerate(zip(actual, expected)):
        if got != wanted:
            return index, got, wanted
    index = min(len(actual), len(expected))
    return (
        index,
        actual[index] if index < len(actual) else None,
        expected[index] if index < len(expected) else None,
    )


if __name__ == "__main__":
    runs = all_timelines()
    moved = []
    for name, entries in runs:
        digest = sha256(entries)
        print(name, digest, len(entries))
        if PINS.get(name) != digest:
            moved.append(name)
    if sys.argv[1:] == ["--write-reference"]:
        with gzip.GzipFile(REFERENCE, "wb", mtime=0) as stream:
            stream.write(json.dumps({name: entries for name, entries in runs}).encode())
    elif moved:
        sys.exit(f"not the pinned timeline: {', '.join(moved)}")
    else:
        print(f"{len(runs)} timelines hold")
