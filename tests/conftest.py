"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core import ClientProxy, SkipperExecutor, njoin
from repro.csd import (
    AllInOneLayout,
    ColdStorageDevice,
    DeviceConfig,
    ObjectStore,
    RankBasedScheduler,
)
from repro.engine import (
    Catalog,
    Column,
    CostModel,
    DataType,
    InMemoryExecutor,
    Relation,
    TableSchema,
)
from repro.engine.operators import hash_join
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.vanilla import VanillaExecutor
from repro.workloads import tpch

# Two hypothesis profiles.  ``gate`` (the default) makes the tier-1 run a
# deterministic gate: the same examples on every machine, and no example
# database written into the checkout.  ``search`` keeps hypothesis's random
# exploration for the non-gating CI job: ``--hypothesis-profile=search``.
settings.register_profile("gate", derandomize=True, database=None, deadline=None)
settings.register_profile("search", deadline=None)
settings.load_profile("gate")


@pytest.fixture(scope="session")
def tiny_tpch_catalog() -> Catalog:
    """A tiny TPC-H-like catalog shared (read-only) across tests."""
    return tpch.build_catalog("tiny", seed=42)


@pytest.fixture(scope="session")
def small_tpch_catalog() -> Catalog:
    """A small TPC-H-like catalog shared (read-only) across tests."""
    return tpch.build_catalog("small", seed=42)


@pytest.fixture()
def two_table_catalog() -> Catalog:
    """A minimal hand-built two-table catalog (orders ⋈ items)."""
    orders_schema = TableSchema(
        "orders",
        [Column("o_id", DataType.INTEGER), Column("o_status", DataType.STRING)],
    )
    items_schema = TableSchema(
        "items",
        [
            Column("i_order_id", DataType.INTEGER),
            Column("i_qty", DataType.INTEGER),
            Column("i_mode", DataType.STRING),
        ],
    )
    orders = Relation.from_rows(
        orders_schema,
        [{"o_id": index, "o_status": "F" if index % 2 else "O"} for index in range(12)],
        rows_per_segment=4,
    )
    items = Relation.from_rows(
        items_schema,
        [
            {"i_order_id": index % 12, "i_qty": index, "i_mode": "MAIL" if index % 3 else "SHIP"}
            for index in range(48)
        ],
        rows_per_segment=8,
    )
    catalog = Catalog()
    catalog.register(orders)
    catalog.register(items)
    return catalog


class SingleTenantRig:
    """Convenience bundle: one tenant, one CSD, helpers to run executors."""

    def __init__(self, catalog: Catalog, tables, layout=None, device_config=None, scheduler=None):
        self.catalog = catalog
        self.env = Environment()
        self.store = ObjectStore()
        segments = [segment for table in tables for segment in catalog.relation(table).segments]
        keys = self.store.put_segments(
            "tenant", [segment.segment_id for segment in segments], segments
        )
        layout_policy = layout or AllInOneLayout()
        self.layout = layout_policy.build({"tenant": keys})
        self.device = ColdStorageDevice(
            self.env,
            self.store,
            self.layout,
            scheduler or RankBasedScheduler(),
            device_config or DeviceConfig(group_switch_seconds=5.0, transfer_seconds_per_object=1.0),
            MetricsRegistry(),
        )

    def skipper(self, cache_capacity=8, client_id="tenant", shared_runs=None, **kwargs):
        """A Skipper executor on the rig's device, with its own proxy and runs."""
        proxy = ClientProxy(self.env, self.device, client_id)
        runs = {} if shared_runs is None else shared_runs
        return SkipperExecutor(
            self.env, client_id, self.catalog, proxy, CostModel(), runs, cache_capacity, **kwargs
        )

    def vanilla(self, client_id="tenant"):
        """A pull-based executor on the rig's device, with its own proxy and runs."""
        proxy = ClientProxy(self.env, self.device, client_id)
        return VanillaExecutor(self.env, client_id, self.catalog, proxy, CostModel(), {})

    def run_skipper(self, query, cache_capacity=8, **kwargs):
        executor = self.skipper(cache_capacity, **kwargs)
        process = self.env.process(executor.execute(query))
        self.env.run(until=process)
        return process.value


@pytest.fixture()
def make_rig():
    """Factory fixture building a :class:`SingleTenantRig`."""

    def factory(catalog, tables, **kwargs):
        return SingleTenantRig(catalog, tables, **kwargs)

    return factory


@pytest.fixture()
def in_memory_executor(tiny_tpch_catalog) -> InMemoryExecutor:
    """Ground-truth executor over the tiny TPC-H catalog."""
    return InMemoryExecutor(tiny_tpch_catalog)


@pytest.fixture()
def materialised(monkeypatch):
    """Every joined row handed to the one materialiser, in call order.

    ``materialise_rows`` is the only place a join builds row dicts; both
    modules that call it (the operator and the n-ary join) are wrapped.
    """
    seen = []
    real = hash_join.materialise_rows

    def spy(joined_rows):
        seen.extend(joined_rows)
        return real(joined_rows)

    monkeypatch.setattr(hash_join, "materialise_rows", spy)
    monkeypatch.setattr(njoin, "materialise_rows", spy)
    return seen
