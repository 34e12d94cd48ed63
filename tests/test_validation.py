"""Validation hardening: bad configuration fails fast with ConfigurationError.

Non-positive capacities, rates and seeds used to surface only deep inside a
run (NaN propagation, zero divisions, cache livelocks); these tests pin the
contract that they are rejected at construction time instead.
"""

from __future__ import annotations

import pytest

from repro.cluster.client import ClientSpec
from repro.cluster.cluster import ClusterConfig
from repro.csd.device import ColdStorageDevice, DeviceConfig
from repro.csd.disk_group import DiskGroupLayout
from repro.csd.object_store import ObjectStore
from repro.csd.request import MigrationJob
from repro.csd.scheduler import RankBasedScheduler
from repro.exceptions import ConfigurationError, ScenarioError
from repro.scenarios import ScenarioSpec, TenantSpec, uniform_tenants
from repro.service import StorageService
from repro.sim import Environment
from repro.workloads import tpch

Q12 = tpch.q12()


class TestDeviceConfigValidation:
    def test_zero_latencies_allowed_for_ideal_device(self):
        config = DeviceConfig(group_switch_seconds=0.0, transfer_seconds_per_object=0.0)
        assert config.group_switch_seconds == 0.0


class TestMigrationJobValidation:
    @pytest.mark.parametrize(
        "seconds, epoch, pattern",
        [
            ("1", 1, "seconds must be finite and non-negative, got '1'"),
            (-1.0, 1, "seconds must be finite and non-negative, got -1.0"),
            (float("nan"), 1, "seconds must be finite and non-negative, got nan"),
            (float("inf"), 1, "seconds must be finite and non-negative, got inf"),
            (10**400, 0, "seconds must be finite and non-negative, got 1000"),
            (1.0, True, "epoch must be an int of at least 0, got True"),
        ],
        ids=[
            "str-seconds",
            "negative-seconds",
            "nan-seconds",
            "inf-seconds",
            "no-float-seconds",
            "bool-epoch",
        ],
    )
    def test_bad_seconds_or_epoch_rejected(self, seconds, epoch, pattern):
        """A string used to kill the device loop silently when the job ran
        (no busy interval, nothing booked, ``env.run()`` returning normally);
        -1 and NaN were booked as zero-second migrations, and inf and an int
        no float can hold were accepted."""
        with pytest.raises(ConfigurationError, match=f"migration {pattern}"):
            MigrationJob("a/t.0", "read", seconds, epoch=epoch)

    def test_a_valid_job_is_booked_on_a_bare_device(self):
        env = Environment()
        store = ObjectStore()
        key = store.put_segment("a", "t.0", object())
        device = ColdStorageDevice(env, store, DiskGroupLayout({key: 0}), RankBasedScheduler())
        device.submit_migrations([MigrationJob(key, "write", 2, epoch=0)])
        env.run()
        assert device.stats.migration_seconds == 2.0
        assert [(i.kind, i.start, i.end) for i in device.busy_intervals] == [
            ("migration", 0.0, 2.0)
        ]


class TestClientSpecValidation:
    @pytest.mark.parametrize("capacity", [0, -5])
    def test_nonpositive_cache_capacity_rejected_for_skipper(self, capacity):
        with pytest.raises(ConfigurationError, match="cache_capacity"):
            ClientSpec(client_id="c", queries=[Q12], cache_capacity=capacity)

    def test_vanilla_clients_ignore_cache_capacity(self):
        spec = ClientSpec(client_id="c", queries=[Q12], mode="vanilla", cache_capacity=0)
        assert spec.mode == "vanilla"

    @pytest.mark.parametrize("delay", [-1.0, float("nan"), float("inf")])
    def test_bad_start_delay_rejected(self, delay):
        with pytest.raises(ConfigurationError):
            ClientSpec(client_id="c", queries=[Q12], start_delay=delay)

    def test_nonpositive_repetitions_rejected(self):
        with pytest.raises(ConfigurationError):
            ClientSpec(client_id="c", queries=[Q12], repetitions=0)


class TestClusterConfigValidation:
    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(client_specs=[])

    def test_duplicate_client_ids_rejected(self):
        specs = [
            ClientSpec(client_id="same", queries=[Q12]),
            ClientSpec(client_id="same", queries=[Q12]),
        ]
        with pytest.raises(ConfigurationError):
            ClusterConfig(client_specs=specs)


class TestTenantSpecValidation:
    def test_bad_query_reference_rejected(self):
        with pytest.raises(ScenarioError):
            TenantSpec(tenant_id="t", queries=("q12",))
        with pytest.raises(ScenarioError):
            TenantSpec(tenant_id="t", queries=("mystery:q1",))

    def test_empty_queries_rejected(self):
        with pytest.raises(ScenarioError):
            TenantSpec(tenant_id="t", queries=())

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_nonpositive_cache_capacity_rejected(self, capacity):
        with pytest.raises(ScenarioError):
            TenantSpec(tenant_id="t", queries=("tpch:q12",), cache_capacity=capacity)

    def test_nonpositive_repetitions_rejected(self):
        with pytest.raises(ScenarioError):
            TenantSpec(tenant_id="t", queries=("tpch:q12",), repetitions=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError):
            TenantSpec(tenant_id="t", queries=("tpch:q12",), mode="hybrid")

    def test_empty_tenant_id_rejected(self):
        with pytest.raises(ScenarioError, match="tenant_id must be non-empty"):
            TenantSpec(tenant_id="", queries=("tpch:q12",))


class TestScenarioSpecValidation:
    def _tenants(self):
        return uniform_tenants(2, "tpch:q12", cache_capacity=8)

    @pytest.mark.parametrize("seed", [0, -3, True, 1.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ScenarioError, match="seed"):
            ScenarioSpec(name="s", description="x", tenants=self._tenants(), seed=seed)

    def test_unknown_layout_and_scheduler_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                name="s", description="x", tenants=self._tenants(), layout="zigzag"
            )
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                name="s", description="x", tenants=self._tenants(), scheduler="oracle"
            )

    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_bad_device_rates_rejected(self, value):
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                name="s", description="x", tenants=self._tenants(), switch_seconds=value
            )
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                name="s", description="x", tenants=self._tenants(), transfer_seconds=value
            )

    @pytest.mark.parametrize("param", [0.5, 2.9, 0.0])
    def test_fractional_or_zero_slack_rejected(self, param):
        with pytest.raises(ScenarioError, match="slack"):
            ScenarioSpec(
                name="s",
                description="x",
                tenants=self._tenants(),
                scheduler="slack-fcfs",
                scheduler_param=param,
            )

    def test_bad_layout_param_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(
                name="s",
                description="x",
                tenants=self._tenants(),
                layout="skewed",
                layout_param=(2, 0),
            )

    def test_duplicate_tenant_ids_rejected(self):
        tenants = (
            TenantSpec(tenant_id="same", queries=("tpch:q12",), cache_capacity=8),
            TenantSpec(tenant_id="same", queries=("tpch:q12",), cache_capacity=8),
        )
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="s", description="x", tenants=tenants)

    def test_empty_tenants_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="s", description="x", tenants=())

    def test_empty_name_or_layout_param_rejected(self):
        with pytest.raises(ScenarioError, match="name must be non-empty"):
            ScenarioSpec(name="", description="x", tenants=self._tenants())
        with pytest.raises(ScenarioError, match="layout_param must not be empty"):
            ScenarioSpec(name="s", description="x", tenants=self._tenants(), layout_param=())

    def test_scenario_error_is_a_configuration_error(self):
        assert issubclass(ScenarioError, ConfigurationError)


def _scenario(**knobs):
    return ScenarioSpec(name="s", description="x", tenants=uniform_tenants(1, "tpch:q12"), **knobs)


def _submit_at(at):
    service = StorageService(_scenario())
    service.open_session("tenant0").submit(Q12, at=at)


#: Hostile input that is not a spec field (those are ``test_spec_fuzz.py``'s):
#: each used to escape as a bare ``TypeError`` (a string compared with ``<``),
#: or, for a time no float can hold, to be accepted — a session submit at
#: ``10**400`` ended the run with a misleading "ran out of events".
HOSTILE_INPUTS = {
    "uniform-tenants-count-str": (
        lambda: uniform_tenants("2", "tpch:q12"),
        ScenarioError,
        "tenant count must be an integer >= 1",
    ),
    "session-submit-at-str": (lambda: _submit_at("5"), ConfigurationError, "not in the past"),
    "session-submit-at-no-float": (
        lambda: _submit_at(10**400),
        ConfigurationError,
        "not in the past",
    ),
    "device-switch-no-float": (
        lambda: DeviceConfig(group_switch_seconds=10**400),
        ConfigurationError,
        "DeviceConfig.group_switch_seconds must be finite",
    ),
    "scenario-switch-no-float": (
        lambda: _scenario(switch_seconds=10**400),
        ScenarioError,
        "ScenarioSpec.switch_seconds must be finite",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
def test_hostile_input_is_a_typed_error(case):
    build, error, pattern = HOSTILE_INPUTS[case]
    with pytest.raises(error, match=pattern):
        build()
