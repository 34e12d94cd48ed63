"""Tests for the synthetic workloads (TPC-H, SSB, MR-bench, NREF)."""

import pytest

from repro.engine import Catalog, InMemoryExecutor
from repro.exceptions import ConfigurationError
from repro.workloads import mrbench, nref, ssb, tpch
from repro.workloads.datagen import DataGenerator, ScaleProfile, TableProfile


def _rows(catalog, table):
    return [row for segment in catalog.relation(table).segments for row in segment.rows]


class TestDataGenerator:
    def test_determinism(self):
        first = DataGenerator(seed=7)
        second = DataGenerator(seed=7)
        assert [first.integer(0, 100) for _ in range(20)] == [
            second.integer(0, 100) for _ in range(20)
        ]

    def test_date_ordinal_range(self):
        generator = DataGenerator()
        from repro.engine.types import date_to_ordinal

        value = generator.date_ordinal("1994-01-01", "1994-12-31")
        assert date_to_ordinal("1994-01-01") <= value <= date_to_ordinal("1994-12-31")
        with pytest.raises(ConfigurationError):
            generator.date_ordinal("1995-01-01", "1994-01-01")

    def test_table_profile_validation(self):
        with pytest.raises(ConfigurationError):
            TableProfile(0, 10)
        with pytest.raises(ConfigurationError):
            TableProfile(10, 0)
        assert TableProfile(3, 7).total_rows == 21

    def test_scale_profile_lookup(self):
        profile = ScaleProfile("x", {"t": TableProfile(2, 5)})
        assert profile.profile("t").total_rows == 10
        assert profile.profile("t").num_segments == 2
        with pytest.raises(ConfigurationError):
            profile.profile("unknown")


class TestTpch:
    def test_segment_counts_match_profile(self):
        catalog = tpch.build_catalog("tiny", seed=1)
        profile = tpch.SCALES["tiny"]
        for table, table_profile in profile.tables.items():
            assert catalog.num_segments(table) == table_profile.num_segments

    def test_sf50_q12_touches_57_objects(self):
        """The paper reports 57 segments (group switches) for Q12 at SF-50."""
        profile = tpch.SCALES["sf50"]
        q12_objects = profile.profile("lineitem").num_segments + profile.profile(
            "orders"
        ).num_segments
        assert q12_objects == 57

    def test_sf100_q5_subplan_count_is_tens_of_thousands(self):
        """Figure 11c reports 14,630 subplans for Q5 at SF-100."""
        profile = tpch.SCALES["sf100"]
        subplans = 1
        for table in tpch.q5().tables:
            subplans *= profile.profile(table).num_segments
        assert 10_000 <= subplans <= 20_000

    def test_build_catalog_is_deterministic(self):
        first = tpch.build_catalog("tiny", seed=5)
        second = tpch.build_catalog("tiny", seed=5)
        assert _rows(first, "lineitem") == _rows(second, "lineitem")

    def test_different_seeds_differ(self):
        first = tpch.build_catalog("tiny", seed=5)
        second = tpch.build_catalog("tiny", seed=6)
        assert _rows(first, "lineitem") != _rows(second, "lineitem")

    def test_foreign_keys_resolve(self):
        catalog = tpch.build_catalog("tiny", seed=1)
        order_keys = {row["o_orderkey"] for row in _rows(catalog, "orders")}
        customer_keys = {row["c_custkey"] for row in _rows(catalog, "customer")}
        nation_keys = {row["n_nationkey"] for row in _rows(catalog, "nation")}
        for row in _rows(catalog, "lineitem"):
            assert row["l_orderkey"] in order_keys
        for row in _rows(catalog, "orders"):
            assert row["o_custkey"] in customer_keys
        for row in _rows(catalog, "customer"):
            assert row["c_nationkey"] in nation_keys

    @pytest.mark.parametrize("query_name", sorted(tpch.QUERIES))
    def test_queries_validate_and_produce_rows(self, small_tpch_catalog, query_name):
        query = tpch.query(query_name)
        query.validate(small_tpch_catalog)
        result = InMemoryExecutor(small_tpch_catalog).execute(query)
        assert result.rows

    def test_unknown_scale_and_query_rejected(self):
        with pytest.raises(ConfigurationError):
            tpch.build_catalog("sf9000", 42)
        with pytest.raises(ConfigurationError):
            tpch.query("q99")


class TestOtherWorkloads:
    def test_ssb_queries_run(self):
        catalog = ssb.build_catalog("tiny", seed=2, catalog=Catalog())
        executor = InMemoryExecutor(catalog)
        for name in ssb.QUERIES:
            result = executor.execute(ssb.query(name))
            assert result.rows

    def test_mrbench_join_task_aggregates_by_source_ip(self):
        catalog = mrbench.build_catalog("tiny", seed=2, catalog=Catalog())
        result = InMemoryExecutor(catalog).execute(mrbench.join_task())
        assert result.rows
        assert all("total_revenue" in row and "avg_pagerank" in row for row in result.rows)

    def test_mrbench_aggregation_task(self):
        catalog = mrbench.build_catalog("tiny", seed=2, catalog=Catalog())
        result = InMemoryExecutor(catalog).execute(mrbench.aggregation_task())
        assert result.rows

    def test_nref_counting_join(self):
        catalog = nref.build_catalog("tiny", seed=2, catalog=Catalog())
        result = InMemoryExecutor(catalog).execute(nref.sequence_count())
        assert result.rows
        assert all(row["matching_sequences"] > 0 for row in result.rows)

    def test_nref_secondary_query(self):
        catalog = nref.build_catalog("tiny", seed=2, catalog=Catalog())
        result = InMemoryExecutor(catalog).execute(nref.long_protein_report())
        assert result.rows

    def test_workloads_share_one_catalog_without_collisions(self):
        catalog = tpch.build_catalog("tiny", seed=1)
        ssb.build_catalog("tiny", seed=2, catalog=catalog)
        mrbench.build_catalog("tiny", seed=3, catalog=catalog)
        nref.build_catalog("tiny", seed=4, catalog=catalog)
        assert isinstance(catalog, Catalog)
        executor = InMemoryExecutor(catalog)
        assert executor.execute(tpch.q12()).rows
        assert executor.execute(ssb.q1_1()).rows
        assert executor.execute(mrbench.join_task()).rows
        assert executor.execute(nref.sequence_count()).rows

    def test_unknown_scales_rejected(self):
        for module in (ssb, mrbench, nref):
            with pytest.raises(ConfigurationError):
                module.build_catalog("sf9000", 42, catalog=Catalog())
            with pytest.raises(ConfigurationError):
                module.query("does_not_exist")


@pytest.mark.parametrize(
    "module, label",
    [(tpch, "TPC-H"), (ssb, "SSB"), (mrbench, "MR-bench"), (nref, "NREF")],
    ids=["tpch", "ssb", "mrbench", "nref"],
)
class TestLookupMessages:
    """Every workload names what was unknown and what there is, in one wording."""

    def test_unknown_scale_names_the_scales(self, module, label):
        with pytest.raises(ConfigurationError) as raised:
            module.build_catalog("sf9000", 42, catalog=Catalog())
        assert str(raised.value) == (
            f"unknown {label} scale 'sf9000'; expected one of {sorted(module.SCALES)}"
        )

    def test_unknown_query_names_the_queries(self, module, label):
        with pytest.raises(ConfigurationError) as raised:
            module.query("q99")
        assert str(raised.value) == (
            f"unknown {label} query 'q99'; expected one of {sorted(module.QUERIES)}"
        )
