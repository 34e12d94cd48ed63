"""Tripwire: after the run, each device's busy log is read a fixed number
of times, however many membership epochs the fleet went through.

The log is a device's one record of when it was busy, and after-the-run
readers take it in one pass each: the Figure 9 attribution at the end of
``service.run()`` (each device's own log, chained) and the report's fleet
sections (whole-run busy seconds, and every epoch window filled in one
pass).  A reader that scans the log once per epoch window makes the count
grow with the epochs, which is what the two fleets below differ in.
"""

from __future__ import annotations

from typing import Dict

from repro.csd import device as device_module
from repro.fleet.spec import DeviceFailure, DeviceJoin, DeviceLeave, FleetSpec
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.service import StorageService

#: Passes per device log: attribution, whole-run busy seconds, epoch windows.
PASSES_PER_LOG = 3

_DEVICE_INIT = device_module.ColdStorageDevice.__init__

ONE_EPOCH = FleetSpec(devices=4, replication=2)
FIVE_EPOCHS = FleetSpec(
    devices=4,
    replication=2,
    events=(
        DeviceJoin(device=4, at_seconds=40.0),
        DeviceJoin(device=5, at_seconds=80.0),
        DeviceLeave(device=0, at_seconds=120.0),
    ),
    failures=(DeviceFailure(device=1, at_seconds=160.0),),
)


class CountingLog(list):
    """A busy log that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _spec(fleet: FleetSpec) -> ScenarioSpec:
    return ScenarioSpec(
        name="after-run-budget",
        description="Four q12 tenants on a four-device R=2 fleet.",
        tenants=uniform_tenants(4, "tpch:q12", cache_capacity=8, repetitions=2),
        fleet=fleet,
        seed=42,
    )


def _passes_per_log(fleet: FleetSpec, monkeypatch) -> Dict[str, int]:
    """Run and report with every device's log counting its passes; the
    passes by device name."""
    devices = []

    def init(self, *args, **kwargs):
        _DEVICE_INIT(self, *args, **kwargs)
        self.busy_intervals = CountingLog()
        devices.append(self)

    monkeypatch.setattr(device_module.ColdStorageDevice, "__init__", init)
    spec = _spec(fleet)
    service = StorageService(spec)
    result = service.run()
    report = ScenarioRunner(check=False)._build_report(spec, service, result, [])
    # Every epoch opened inside the run, and every device served something.
    windows = report.rebalance["per_epoch_imbalance"]
    assert len(windows) == 1 + len(fleet.events) + len(fleet.failures)
    assert windows[-1]["start"] < result.total_simulated_time
    assert all(device.busy_intervals for device in devices)
    return {device.name: device.busy_intervals.passes for device in devices}


def test_busy_log_passes_do_not_grow_with_epochs(monkeypatch):
    one = _passes_per_log(ONE_EPOCH, monkeypatch)
    five = _passes_per_log(FIVE_EPOCHS, monkeypatch)
    assert len(one) == 4 and len(five) == 6
    assert set(five.values()) == set(one.values()), (one, five)
    assert set(one.values()) == {PASSES_PER_LOG}, one
