"""Tests for the synthetic workloads (TPC-H, SSB, MR-bench, NREF)."""

import random
import runpy
from datetime import date
from pathlib import Path

import pytest
from frame_count import count_frames
from hypothesis import given, strategies as st

from repro.engine import Catalog, InMemoryExecutor
from repro.engine.types import date_to_ordinal
from repro.exceptions import ConfigurationError
from repro.workloads import mrbench, nref, ssb, tpch
from repro.workloads.datagen import DataGenerator, ScaleProfile, TableProfile


def _rows(catalog, table):
    return [row for segment in catalog.relation(table).segments for row in segment.rows]


#: Range widths: one value, 2**k and 2**k ± 1 (past 32 bits too, where one
#: ``getrandbits`` call covers several 32-bit words), and empty or inverted.
WIDTHS = st.one_of(
    st.just(1),
    st.integers(1, 70).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])),
    st.integers(2**32 + 1, 2**70),
    st.integers(-3, 0),
)
ISO_DATES = st.dates(date(1900, 1, 1), date(2100, 12, 31)).map(date.isoformat)
FINITE = st.floats(-1e9, 1e9, allow_nan=False)


@st.composite
def columns(draw):
    """``(drawer name, its arguments)`` for one column."""
    kind = draw(
        st.sampled_from(
            ["integers", "dates", "decimals", "choices", "weighted_choices", "booleans"]
        )
    )
    if kind == "integers":
        low = draw(st.integers(-(2**40), 2**40))
        return kind, (low, low + draw(WIDTHS) - 1)
    if kind == "dates":
        return kind, (draw(ISO_DATES), draw(ISO_DATES))
    if kind == "decimals":
        return kind, (draw(FINITE), draw(FINITE))
    if kind == "choices":
        return kind, (draw(st.lists(st.integers(), min_size=1, max_size=9)),)
    if kind == "weighted_choices":
        values = draw(st.lists(st.integers(), min_size=1, max_size=9))
        weights = st.floats(0.01, 100.0)
        return kind, (values, draw(st.lists(weights, min_size=len(values), max_size=len(values))))
    return kind, (draw(st.floats(0.0, 1.0)),)


def standard_draw(source: random.Random, kind: str, arguments: tuple):
    """What one draw of a ``kind`` column is on the standard library's
    ``random.Random``: the per-call methods the drawers replaced."""
    if kind == "integers":
        return source.randint(*arguments)
    if kind == "dates":
        start, end = arguments
        low, high = date_to_ordinal(start), date_to_ordinal(end)
        if high < low:
            raise ConfigurationError(f"date range is inverted: {start} .. {end}")
        return source.randint(low, high)
    if kind == "decimals":
        return round(source.uniform(*arguments), 2)
    if kind == "choices":
        return source.choice(*arguments)
    if kind == "weighted_choices":
        values, weights = arguments
        return source.choices(values, weights=weights, k=1)[0]
    (probability_true,) = arguments
    return source.random() < probability_true


class TestDataGenerator:
    def test_determinism(self):
        first = DataGenerator(seed=7).integers(0, 100)
        second = DataGenerator(seed=7).integers(0, 100)
        assert [first() for _ in range(20)] == [second() for _ in range(20)]

    def test_date_ordinal_range(self):
        generator = DataGenerator(seed=7)
        value = generator.dates("1994-01-01", "1994-12-31")()
        assert date_to_ordinal("1994-01-01") <= value <= date_to_ordinal("1994-12-31")
        with pytest.raises(ConfigurationError):
            generator.dates("1995-01-01", "1994-01-01")

    def test_a_column_over_nothing_is_a_configuration_error(self):
        generator = DataGenerator(seed=7)
        for build in (
            lambda: generator.integers(3, 2),
            lambda: generator.choices([]),
            lambda: generator.weighted_choices(["a", "b"], [1.0]),
            lambda: generator.weighted_choices(["a"], [0.0]),
        ):
            with pytest.raises(ConfigurationError):
                build()

    @given(
        seed=st.integers(0, 2**64),
        specs=st.lists(columns(), min_size=1, max_size=6),
        order=st.lists(st.integers(0, 5), max_size=60),
    )
    def test_drawers_are_the_standard_librarys_draws(self, seed, specs, order):
        """Drawers called in any interleaving return what the per-call
        ``random.Random`` methods return in that order.  A range those
        methods reject is rejected when its drawer is built, with an error
        of the type they raised (``ValueError``, or ``ConfigurationError``
        for dates) that is also the library's ``ConfigurationError``."""
        generator = DataGenerator(seed)
        source = random.Random(seed)
        drawers = {}
        for position, (kind, arguments) in enumerate(specs):
            try:
                drawers[position] = getattr(generator, kind)(*arguments)
            except ConfigurationError as error:
                with pytest.raises((ValueError, ConfigurationError)) as rejected:
                    standard_draw(source, kind, arguments)
                assert isinstance(error, rejected.type)
        for position in order:
            if position in drawers:
                kind, arguments = specs[position]
                assert drawers[position]() == standard_draw(source, kind, arguments)
        assert generator.integers(0, 2**40)() == source.randint(0, 2**40)

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


#: Python frames per generated row ``tpch.build_catalog`` may enter, by
#: profile: the CPython 3.11 count plus half a frame, rounded up to a tenth
#: (3.12+ read fewer).  A draw is one drawer frame; the per-call methods
#: entered three or four (33.9 and 34.6 frames per row).  A ceiling may only
#: be tightened; when one trips, tally ``count_frames``'s ``on_call`` by
#: ``co_name``.
CATALOG_FRAME_CEILINGS = {"sf100": 11.2, "keys-fanout": 11.2}


def _catalog_profile(name: str) -> ScaleProfile:
    """``sf100``, or the profile the ledger's full-size workload generates."""
    if name in tpch.SCALES:
        return tpch.SCALES[name]
    ledger = Path(__file__).resolve().parent.parent / "ledger" / "workloads.py"
    profile, _spec = runpy.run_path(str(ledger))["WORKLOADS"][name](43, False)
    return profile


@pytest.mark.parametrize("name", sorted(CATALOG_FRAME_CEILINGS))
def test_catalog_frames_per_row_stay_under_the_ceiling(name):
    profile = _catalog_profile(name)
    _catalog, frames = count_frames(lambda: tpch.build_catalog(profile, 42))
    per_row = frames / sum(table.total_rows for table in profile.tables.values())
    assert per_row <= CATALOG_FRAME_CEILINGS[name], f"{name}: {per_row:.2f} frames per row"


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
