"""Tests for the service façade: sessions, query handles, admission control.

Covers the satellite edge paths of the API redesign — submit after close,
zero-capacity admission, draining an idle device, duplicate session opens —
plus the unified error taxonomy.  The façade is the *only* batch entry
point: the legacy ``Cluster.run()`` / ``build_cluster()`` shims are gone.
"""

import inspect

import pytest

import repro.exceptions as exceptions_module
from repro.cluster import ClientSpec, ClusterConfig
from repro.csd import ObjectStore, RankBasedScheduler
from repro.csd.device import DeviceConfig
from repro.csd.layout import ClientsPerGroupLayout
from repro.exceptions import (
    AdmissionError,
    ConfigurationError,
    ReproError,
    ScenarioError,
    ServiceError,
    SessionClosedError,
    StorageError,
)
from repro.obs import MetricsRegistry
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, uniform_tenants
from repro.service import (
    STATUS_FINISHED,
    STATUS_PENDING,
    STATUS_REJECTED,
    AdmissionConfig,
    AdmissionController,
    StorageService,
)
from repro.sim import Environment
from repro.workloads import tpch


def make_config(num_clients=2, mode="skipper", repetitions=1):
    return ClusterConfig(
        client_specs=[
            ClientSpec(
                client_id=f"tenant{index}",
                queries=[tpch.q12()],
                mode=mode,
                repetitions=repetitions,
                cache_capacity=10,
            )
            for index in range(num_clients)
        ],
        layout_policy=ClientsPerGroupLayout(1),
        device_config=DeviceConfig(group_switch_seconds=10.0, transfer_seconds_per_object=1.0),
    )


class TestFacadeEquivalence:
    def test_batch_runs_are_deterministic(self, tiny_tpch_catalog):
        first = StorageService(make_config(3), catalog=tiny_tpch_catalog).run()
        second = StorageService(make_config(3), catalog=tiny_tpch_catalog).run()
        assert first.execution_times() == second.execution_times()
        assert first.device_switches == second.device_switches
        assert first.total_simulated_time == second.total_simulated_time

    def test_legacy_cluster_shim_is_retired(self):
        import repro.cluster as cluster_module

        assert not hasattr(cluster_module, "Cluster")
        from repro.scenarios.runner import ScenarioRunner

        assert not hasattr(ScenarioRunner(), "build_cluster")

    def test_reopened_tenant_sessions_merge_results(self, tiny_tpch_catalog):
        service = StorageService(make_config(1), catalog=tiny_tpch_catalog)
        first = service.open_session("tenant0")
        first.submit(tpch.q12())
        first.close()
        second = service.open_session("tenant0")
        second.submit(tpch.q12())
        second.close()
        result = service.run()
        # Both sessions' measurements survive, and every issued GET is
        # accounted for (nothing silently dropped).
        assert len(result.results_by_client["tenant0"]) == 2
        assert len(result.breakdowns_by_client["tenant0"]) == 2
        assert result.total_get_requests() == result.device_objects_served

    def test_spec_admission_knob_reaches_the_result(self):
        spec = get_scenario("admission-burst")
        service = StorageService(spec)
        assert service.admission is not None
        result = service.run()
        # The batch result now carries the admission summary, so harness
        # consumers see shed traffic without reaching into the service.
        assert result.admission is not None
        assert result.admission["rejected"] > 0
        assert (
            result.admission["admitted"] + result.admission["rejected"]
            == result.admission["submitted"]
        )

    def test_service_accepts_scenario_spec(self):
        spec = get_scenario("uniform")
        service = StorageService(spec)
        result = service.run()
        assert set(result.results_by_client) == {f"tenant{i}" for i in range(4)}

    def test_service_rejects_config_without_catalog(self):
        with pytest.raises(ConfigurationError, match="catalog"):
            StorageService(make_config(1))

    def test_service_rejects_unknown_spec_type(self):
        with pytest.raises(ConfigurationError, match="ScenarioSpec or a ClusterConfig"):
            StorageService(object(), catalog=None)


class TestSessionLifecycle:
    def test_handle_timeline_and_result(self, tiny_tpch_catalog):
        service = StorageService(make_config(1), catalog=tiny_tpch_catalog)
        session = service.open_session("tenant0")
        handle = session.submit(tpch.q12())
        assert handle.status == STATUS_PENDING
        with pytest.raises(ServiceError, match="not finished"):
            handle.result()
        service.run()
        assert handle.status == STATUS_FINISHED
        assert handle.done
        assert handle.submitted_at == 0.0
        assert handle.started_at >= handle.submitted_at
        assert handle.finished_at > handle.started_at
        assert handle.result().execution_time == pytest.approx(
            handle.finished_at - handle.started_at
        )

    @pytest.mark.parametrize("mode", ["skipper", "vanilla"])
    def test_a_finished_run_keeps_no_step_log(self, tiny_tpch_catalog, mode):
        """Once the kernel is done nothing steps or forks a shared run, so
        each run drops its log and shared state; the runs themselves stay."""
        service = StorageService(make_config(2, mode=mode), catalog=tiny_tpch_catalog)
        result = service.run()
        assert all(results for results in result.results_by_client.values())
        assert service.shared_runs
        for shared in service.shared_runs.values():
            assert shared.steps == [] and shared.state is None
        assert not service.device.inbox.queued

    def test_submit_after_close_rejected(self, tiny_tpch_catalog):
        service = StorageService(make_config(1), catalog=tiny_tpch_catalog)
        session = service.open_session("tenant0")
        session.close()
        with pytest.raises(SessionClosedError):
            session.submit(tpch.q12())

    def test_duplicate_tenant_session_rejected(self, tiny_tpch_catalog):
        service = StorageService(make_config(1), catalog=tiny_tpch_catalog)
        session = service.open_session("tenant0")
        with pytest.raises(ServiceError, match="already has an open session"):
            service.open_session("tenant0")
        # Closing the first session frees the tenant for a new one.
        session.close()
        service.open_session("tenant0")

    def test_unknown_tenant_rejected(self, tiny_tpch_catalog):
        service = StorageService(make_config(1), catalog=tiny_tpch_catalog)
        with pytest.raises(ServiceError, match="unknown tenant"):
            service.open_session("intruder")

    def test_service_runs_only_once(self, tiny_tpch_catalog):
        service = StorageService(make_config(1), catalog=tiny_tpch_catalog)
        service.run()
        with pytest.raises(ServiceError, match="already run"):
            service.run()
        with pytest.raises(ServiceError, match="already run"):
            service.open_session("tenant0")

    def test_session_defaults_come_from_client_spec(self, tiny_tpch_catalog):
        config = ClusterConfig(
            client_specs=[
                ClientSpec(
                    client_id="vanilla-tenant",
                    queries=[tpch.q12()],
                    mode="vanilla",
                    start_delay=7.0,
                )
            ],
            layout_policy=ClientsPerGroupLayout(1),
        )
        service = StorageService(config, catalog=tiny_tpch_catalog)
        session = service.open_session("vanilla-tenant")
        assert session.spec is config.client_specs[0]
        assert session.spec.mode == "vanilla"
        assert session.spec.start_delay == 7.0

    def test_sessions_are_configured_by_the_client_spec_only(self, tiny_tpch_catalog):
        service = StorageService(make_config(1), catalog=tiny_tpch_catalog)
        with pytest.raises(TypeError):
            service.open_session("tenant0", mode="vanilla")

    @pytest.mark.parametrize(
        "knobs",
        [
            {"mode": "push"},
            {"cache_capacity": 0},
            {"cache_capacity": -3},
            {"start_delay": -1.0},
            {"start_delay": float("inf")},
            {"start_delay": float("nan")},
        ],
    )
    def test_client_spec_rejects_bad_knobs_at_construction(self, knobs):
        with pytest.raises(ConfigurationError):
            ClientSpec(client_id="tenant0", queries=[tpch.q12()], **knobs)


def admitted_spec(num_clients, admission):
    """``make_config``'s tenants and device as a scenario, behind ``admission``."""
    return ScenarioSpec(
        name="admission",
        description="q12 tenants, one per group, behind an admission controller.",
        tenants=uniform_tenants(num_clients, "tpch:q12", cache_capacity=10),
        layout_param=(1,),
        switch_seconds=10.0,
        transfer_seconds=1.0,
        admission=admission,
    )


class TestAdmissionControl:
    def test_zero_capacity_rejects_everything(self, tiny_tpch_catalog):
        service = StorageService(
            admitted_spec(2, AdmissionConfig(max_in_flight=0)), catalog=tiny_tpch_catalog
        )
        handles = service.submit_workload()
        result = service.run()
        for per_tenant in handles.values():
            for handle in per_tenant:
                assert handle.status == STATUS_REJECTED
                with pytest.raises(AdmissionError):
                    handle.result()
        assert result.execution_times() == []
        summary = service.admission.summary()
        assert summary["rejected"] == summary["submitted"] == 2
        assert summary["admitted"] == 0

    def test_bounded_queue_admits_queues_and_rejects(self, tiny_tpch_catalog):
        service = StorageService(
            admitted_spec(3, AdmissionConfig(max_in_flight=1, max_queue_depth=1)),
            catalog=tiny_tpch_catalog,
        )
        handles = service.submit_workload()
        service.run()
        statuses = [handles[f"tenant{i}"][0].status for i in range(3)]
        # Sessions start in creation order: the first slot is granted, the
        # second waits, the third finds the queue full and is shed.
        assert statuses == [STATUS_FINISHED, STATUS_FINISHED, STATUS_REJECTED]
        queued_handle = handles["tenant1"][0]
        assert queued_handle.queued_at is not None
        assert queued_handle.queue_delay > 0
        summary = service.admission.summary()
        assert summary["admitted"] == 2
        assert summary["queued"] == 1
        assert summary["rejected"] == 1
        assert summary["peak_in_flight"] == 1
        assert summary["queue_delay"]["max"] == pytest.approx(queued_handle.queue_delay)

    def test_per_tenant_cap_on_controller(self):
        env = Environment()
        controller = AdmissionController(
            env, AdmissionConfig(max_in_flight_per_tenant=1), MetricsRegistry()
        )
        first = controller.request("a")
        second = controller.request("a")
        other = controller.request("b")
        assert first.event.triggered and not first.queued
        assert second.queued and not second.event.triggered
        assert other.event.triggered  # a different tenant is not capped
        controller.release("a")
        assert second.event.triggered
        assert controller.in_flight == 2
        assert controller.waiting == 0

    def test_release_without_grant_rejected_globally(self):
        controller = AdmissionController(
            Environment(), AdmissionConfig(max_in_flight=2), MetricsRegistry()
        )
        with pytest.raises(ConfigurationError, match="without a matching grant"):
            controller.release("a")

    def test_release_without_grant_rejected_per_tenant(self):
        """Regression: a mismatched release used to drive the per-tenant
        counter negative whenever *other* tenants' in-flight queries kept the
        global counter positive — silently inflating the culprit tenant's
        capacity under a per-tenant cap."""
        controller = AdmissionController(
            Environment(), AdmissionConfig(max_in_flight_per_tenant=1), MetricsRegistry()
        )
        controller.request("a")
        controller.request("c")  # keeps the global counter positive throughout
        with pytest.raises(ConfigurationError, match="tenant 'b'"):
            controller.release("b")  # never granted
        # A double release of a granted tenant is caught the same way.
        controller.release("a")
        with pytest.raises(ConfigurationError, match="tenant 'a'"):
            controller.release("a")
        # The failed releases corrupted nothing: tenant a can run again.
        assert controller.request("a").event.triggered

    def test_fairness_only_counts_tenants_that_queued(self):
        """Regression: tenants admitted straight through (or only rejected)
        recorded no queue delay, and their 0.0 means used to drag
        fairness_jain down as if they had been favoured."""
        env = Environment()
        controller = AdmissionController(env, AdmissionConfig(max_in_flight=1), MetricsRegistry())
        controller.request("instant")  # admitted, never queues
        waiting = controller.request("patient")  # queues behind it
        assert waiting.queued
        env.run(env.timeout(5.0))
        controller.release("instant")  # grants the waiter after 5s of delay
        summary = controller.summary()
        assert summary["per_tenant"]["instant"]["queued"] == 0
        assert summary["per_tenant"]["patient"]["mean_queue_delay"] == 5.0
        # Only the queueing tenant counts: one sample, perfectly fair.
        assert summary["fairness_jain"] == 1.0

    def test_fairness_is_one_when_nobody_queued(self):
        env = Environment()
        controller = AdmissionController(env, AdmissionConfig(max_in_flight=8), MetricsRegistry())
        controller.request("a")
        controller.request("b")
        assert controller.summary()["fairness_jain"] == 1.0

    def test_admission_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_in_flight=-1)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_in_flight_per_tenant=1.5)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_queue_depth=-2)
        assert AdmissionConfig(max_in_flight=0).zero_capacity
        assert not AdmissionConfig().zero_capacity

    def test_admission_spec_validation(self):
        with pytest.raises(ScenarioError, match="admission"):
            ScenarioSpec(
                name="bad-admission",
                description="",
                tenants=get_scenario("uniform").tenants,
                admission="not-a-config",
            )


def drain_fleet(fleet):
    """Every queued GET of every member of ``fleet``, drained member by member."""
    return [request for member in fleet.members for request in fleet.drain_pending(member)]


class TestDrainPending:
    def test_drain_pending_on_idle_device(self, tiny_tpch_catalog):
        service = StorageService(make_config(1), catalog=tiny_tpch_catalog)
        # Nothing submitted yet: the device is idle and draining is a no-op.
        assert service.device.drain_pending() == []
        assert not service.device.scheduler.has_pending()
        result = service.run()
        # After a completed run everything was served; still nothing to drain.
        assert service.device.drain_pending() == []
        assert result.total_get_requests() > 0

    def test_drain_pending_on_idle_fleet(self):
        service = StorageService(get_scenario("fleet-hot-shard"))
        assert drain_fleet(service.fleet) == []

    def test_fleet_drain_takes_the_requests_off_outstanding(self):
        """Regression: the admin drain emptied every device queue but left
        the router's ``outstanding`` counters untouched, so the load-aware
        policies read phantom queues for the rest of the run."""
        service = StorageService(get_scenario("fleet-load-aware-baseline"))
        fleet = service.fleet
        service.submit_workload()
        service.env.run(service.env.timeout(50.0))
        before = sum(member.outstanding for member in fleet.members)
        drained = drain_fleet(fleet)
        assert drained and fleet.pending_total() == 0
        assert sum(member.outstanding for member in fleet.members) == before - len(drained)
        completed = []
        for request in drained:
            # Note each delivery, then hand it on to the client as before.
            request.deliver = lambda request, deliver=request.deliver: (
                completed.append(request),
                deliver(request),
            )
        fleet.submit_many(drained)
        result = service.run()
        # Every drained request completed exactly once, and nothing leaked.
        assert sorted(map(id, completed)) == sorted(map(id, drained))
        assert [member.outstanding for member in fleet.members] == [0] * len(fleet.members)
        assert fleet.device_stats.objects_served == result.total_get_requests()
        assert fleet.pending_total() == 0


class TestErrorTaxonomy:
    def test_every_exception_derives_from_repro_error(self):
        classes = [
            member
            for _name, member in inspect.getmembers(exceptions_module, inspect.isclass)
            if issubclass(member, Exception)
        ]
        assert len(classes) > 15
        for cls in classes:
            assert issubclass(cls, ReproError), cls

    def test_service_error_hierarchy(self):
        assert issubclass(AdmissionError, ServiceError)
        assert issubclass(SessionClosedError, ServiceError)
        assert issubclass(ServiceError, ReproError)
        assert issubclass(ScenarioError, ConfigurationError)


@pytest.mark.parametrize("scenario", ["uniform", "fleet-device-loss", "fleet-adaptive-rebalance"])
def test_a_crashed_device_loop_raises_its_own_error(monkeypatch, scenario):
    """A device process that dies leaves the sessions waiting forever; the
    run raises what the device died of the instant it dies — not the
    kernel's "ran out of events" that follows, and not never, as under a
    rebalancer whose ticks keep the queue from running dry."""

    def broken(self, current_group):
        raise KeyError("injected into choose_next_group")

    monkeypatch.setattr(RankBasedScheduler, "choose_next_group", broken)
    service = StorageService(get_scenario(scenario))
    with pytest.raises(KeyError, match="injected into choose_next_group"):
        service.run()
    assert service.env.now == 0.0


def test_a_malformed_segment_index_is_a_typed_storage_error():
    """Keys whose segment index is not an integer are refused when stored,
    before any device has to order them, with a ``StorageError`` naming the
    first bad key; the call stores nothing."""
    store = ObjectStore()
    with pytest.raises(StorageError) as raised:
        store.put_segments("a", ["t.0", "x", "t.y"], [object(), object(), object()])
    assert str(raised.value) == "malformed object key: 'a/x'"
    assert not store.exists("a/t.0") and not store.key_columns
