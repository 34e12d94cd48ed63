"""Property tests for the scale-up fast paths.

Two equivalences the million-key/SF-1000 acceleration rests on (the
subplan tracker's oracle test is in ``test_core_arrival_properties.py``):

* bulk arc-sweep ``place()`` returns byte-identical placements to per-key
  ``replicas_for()`` for any roster, replication factor, vnode count and
  key population;
* the columnar segment layout answers every registered TPC-H/SSB query
  with exactly the rows the row-dict layout produces.
"""

from hypothesis import given, settings, strategies as st

from repro.engine import InMemoryExecutor
from repro.engine.catalog import Catalog
from repro.engine.executor import canonical_rows
from repro.fleet.placement import ConsistentHashPlacement
from repro.workloads import ssb, tpch


# --------------------------------------------------------------------- #
# Bulk placement == per-key placement
# --------------------------------------------------------------------- #
_KEYS = st.lists(
    st.text(
        alphabet="abcdefghij0123456789/._-",
        min_size=1,
        max_size=24,
    ),
    min_size=1,
    max_size=200,
    unique=True,
)


class TestBulkPlacementEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        num_devices=st.integers(min_value=1, max_value=12),
        replication=st.integers(min_value=1, max_value=4),
        vnodes=st.integers(min_value=1, max_value=64),
        keys=_KEYS,
    )
    def test_place_matches_replicas_for(self, num_devices, replication, vnodes, keys):
        devices = [f"dev-{i}" for i in range(num_devices)]
        placement = ConsistentHashPlacement(
            replication=min(replication, num_devices), virtual_nodes=vnodes
        )
        placed = placement.place(keys, devices)
        assert placed == {
            key: placement.replicas_for(key, devices) for key in keys
        }
        # Downstream consumers rely on insertion order following key order.
        assert list(placed) == list(keys)

    @settings(max_examples=50, deadline=None)
    @given(
        num_devices=st.integers(min_value=1, max_value=8),
        vnodes=st.integers(min_value=1, max_value=32),
        keys=_KEYS,
    )
    def test_presorted_hashes_path_matches(self, num_devices, vnodes, keys):
        devices = [f"dev-{i}" for i in range(num_devices)]
        placement = ConsistentHashPlacement(replication=1, virtual_nodes=vnodes)
        presorted = sorted(zip(placement.bulk_key_hashes(keys), keys))
        assert placement.place(
            keys, devices, sorted_key_hashes=presorted
        ) == placement.place(keys, devices)


# --------------------------------------------------------------------- #
# Columnar == row-dict query results
# --------------------------------------------------------------------- #
def _row_major_catalog(catalog: Catalog) -> Catalog:
    """A copy of ``catalog`` with every segment forced onto the row-dict
    fallback path (columns discarded after materialising the row view), so
    the engine exercises per-row predicate evaluation end to end."""
    for table in catalog.table_names():
        for segment in catalog.relation(table).segments:
            rows = segment.rows  # materialise from columns first
            segment._rows = rows
            segment._columns = None
            segment._column_names = ()
    return catalog


class TestColumnarRowEquality:
    def _assert_equal_results(self, build_catalog, query):
        columnar = build_catalog()
        row_major = _row_major_catalog(build_catalog())
        expected = canonical_rows(InMemoryExecutor(row_major).execute(query).rows)
        actual = canonical_rows(InMemoryExecutor(columnar).execute(query).rows)
        assert actual == expected

    def test_every_tpch_query(self):
        for name in sorted(tpch.QUERIES):
            self._assert_equal_results(
                lambda: tpch.build_catalog("tiny", seed=7), tpch.query(name)
            )

    def test_every_ssb_query(self):
        for name in sorted(ssb.QUERIES):
            self._assert_equal_results(
                lambda: ssb.build_catalog("tiny", seed=7), ssb.query(name)
            )
