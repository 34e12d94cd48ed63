"""Property-based tests for the fleet's consistent-hash placement.

The three properties the fleet layer leans on:

* every object maps to exactly R distinct live devices,
* lookup is a pure function of the key and the device list (deterministic),
* adding a device to a consistent-hash ring relocates only ~K/N of K keys.
"""

from __future__ import annotations

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PlacementError
from repro.fleet.placement import VIRTUAL_NODES, ConsistentHashPlacement, stable_hash

#: Unique printable object keys.
keys_strategy = st.lists(
    st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=24
    ),
    min_size=1,
    max_size=64,
    unique=True,
)

devices_strategy = st.integers(min_value=1, max_value=8)
replication_strategy = st.integers(min_value=1, max_value=3)


def device_ids(count: int):
    return [f"csd{index}" for index in range(count)]


def uniform_diff(policy, pairs, old_devices, new_devices, old_replication, new_replication):
    """``diff_keys`` between two unweighted rings."""
    return policy.diff_keys(
        pairs,
        old_devices,
        new_devices,
        old_replication,
        new_replication,
        (VIRTUAL_NODES,) * len(old_devices),
        (VIRTUAL_NODES,) * len(new_devices),
        [key_hash for key_hash, _key in pairs],
    )


class TestReplicationProperty:
    @settings(max_examples=60, derandomize=True)
    @given(keys=keys_strategy, devices=devices_strategy, replication=replication_strategy)
    def test_every_object_on_exactly_r_distinct_devices(self, keys, devices, replication):
        replication = min(replication, devices)
        placement = ConsistentHashPlacement(replication).place(keys, device_ids(devices))
        assert set(placement) == set(keys)
        for replicas in placement.values():
            assert len(replicas) == replication
            assert len(set(replicas)) == replication
            assert set(replicas) <= set(device_ids(devices))

    def test_replication_above_fleet_size_rejected(self):
        with pytest.raises(PlacementError):
            ConsistentHashPlacement(3).place(["a"], device_ids(2))


class TestDeterminismProperty:
    @settings(max_examples=60, derandomize=True)
    @given(keys=keys_strategy, devices=devices_strategy, replication=replication_strategy)
    def test_placement_is_pure(self, keys, devices, replication):
        replication = min(replication, devices)
        first = ConsistentHashPlacement(replication).place(keys, device_ids(devices))
        second = ConsistentHashPlacement(replication).place(keys, device_ids(devices))
        assert first == second

    def test_stable_hash_is_platform_pinned(self):
        # Pinned values: a change here would silently re-place every fleet
        # golden, so the hash function must never drift.
        assert stable_hash("csd0#0") == 0x38BAFC5688AC1997
        assert stable_hash("tenant0/lineitem.0") == 0xDF93E6A9D4A24E1C


class TestRingEpochStability:
    """The properties live rebalancing leans on: a membership change moves
    only ~R·K/N of K keys and never shuffles the replicas of the others."""

    @settings(max_examples=60, derandomize=True)
    @given(
        keys=keys_strategy,
        devices=st.integers(min_value=2, max_value=8),
        replication=replication_strategy,
    )
    def test_join_is_minimal_and_order_preserving(self, keys, devices, replication):
        replication = min(replication, devices)
        policy = ConsistentHashPlacement(replication)
        before = policy.place(keys, device_ids(devices))
        after = policy.place(keys, device_ids(devices + 1))
        joined = f"csd{devices}"
        moved = 0
        for key in keys:
            old, new = before[key], after[key]
            if joined not in new:
                # Unrelated keys keep their exact replica tuple, order included.
                assert new == old
                continue
            moved += 1
            # The joiner only *inserts* into the walk: surviving replicas
            # keep their relative order and form a prefix of the old tuple.
            survivors = tuple(device for device in new if device != joined)
            assert survivors == old[: len(survivors)]
        # Expected moves ≈ R·K/(N+1); allow generous (deterministic) headroom.
        bound = min(len(keys), 3 * replication * len(keys) // (devices + 1) + 3)
        assert moved <= bound

    @settings(max_examples=60, derandomize=True)
    @given(
        keys=keys_strategy,
        devices=st.integers(min_value=3, max_value=8),
        replication=st.integers(min_value=1, max_value=2),
    )
    def test_leave_only_rehomes_the_leavers_keys(self, keys, devices, replication):
        policy = ConsistentHashPlacement(replication)
        before = policy.place(keys, device_ids(devices))
        leaver = "csd0"
        remaining = [d for d in device_ids(devices) if d != leaver]
        after = policy.place(keys, remaining)
        for key in keys:
            old, new = before[key], after[key]
            if leaver not in old:
                assert new == old
            else:
                survivors = tuple(device for device in old if device != leaver)
                # Survivors keep their walk order; only the replacement
                # replica(s) are appended at the end.
                assert new[: len(survivors)] == survivors
                assert len(new) == replication

    def test_ring_is_independent_of_device_listing_order(self):
        keys = [f"k{index}" for index in range(50)]
        policy = ConsistentHashPlacement(2)
        forward = policy.place(keys, ["csd0", "csd1", "csd2"])
        reversed_order = policy.place(keys, ["csd2", "csd1", "csd0"])
        assert forward == reversed_order


class TestRelocationProperty:
    @settings(max_examples=25, derandomize=True)
    @given(
        keys=st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=24,
            ),
            min_size=30,
            max_size=120,
            unique=True,
        ),
        devices=st.integers(min_value=2, max_value=6),
    )
    def test_consistent_hash_relocates_about_k_over_n(self, keys, devices):
        """Adding one device moves ~K/(N+1) primaries, not everything.

        The exact fraction fluctuates with the ring layout, so the assertion
        uses a generous multiple of the ideal share; the point is the
        asymptotic behaviour.
        """
        policy = ConsistentHashPlacement(1)
        before = policy.place(keys, device_ids(devices))
        after = policy.place(keys, device_ids(devices + 1))
        moved = sum(1 for key in keys if before[key] != after[key])
        ideal = len(keys) / (devices + 1)
        assert moved <= 3.0 * ideal + 3
        # Keys that moved must have moved *to* the new device: consistent
        # hashing never shuffles keys between pre-existing devices.
        new_device = device_ids(devices + 1)[-1]
        for key in keys:
            if before[key] != after[key]:
                assert after[key] == (new_device,)


class TestDiffKeysEquivalence:
    """The O(changed-ranges) epoch diff must agree exactly with a full
    old-vs-new re-placement — the router trusts it to find every key whose
    replica tuple changed, and only those."""

    @settings(max_examples=60, derandomize=True)
    @given(
        keys=keys_strategy,
        old_devices=devices_strategy,
        new_devices=devices_strategy,
        old_replication=replication_strategy,
        new_replication=replication_strategy,
    )
    def test_diff_matches_full_replacement(
        self, keys, old_devices, new_devices, old_replication, new_replication
    ):
        old_replication = min(old_replication, old_devices)
        new_replication = min(new_replication, new_devices)
        policy = ConsistentHashPlacement(old_replication)
        before = policy.place(keys, device_ids(old_devices))
        policy.replication = new_replication
        after = policy.place(keys, device_ids(new_devices))
        expected = {key: after[key] for key in keys if after[key] != before[key]}
        sorted_key_hashes = sorted((stable_hash(key), key) for key in keys)
        changed = uniform_diff(
            policy,
            sorted_key_hashes,
            device_ids(old_devices),
            device_ids(new_devices),
            old_replication,
            new_replication,
        )
        assert changed == expected

    def test_leave_diff_matches_full_replacement(self):
        keys = [f"tenant0/obj.{index}" for index in range(200)]
        policy = ConsistentHashPlacement(2)
        roster = device_ids(5)
        remaining = [d for d in roster if d != "csd2"]
        before = policy.place(keys, roster)
        after = policy.place(keys, remaining)
        sorted_key_hashes = sorted((stable_hash(key), key) for key in keys)
        changed = uniform_diff(policy, sorted_key_hashes, roster, remaining, 2, 2)
        assert changed == {key: after[key] for key in keys if after[key] != before[key]}
        assert 0 < len(changed) < len(keys)

    @pytest.mark.parametrize(
        "old_counts, new_counts, replication",
        [
            ((64, 64, 64), (64, 64, 900), 2),
            ((64, 64, 900), (64, 64, 64), 2),
            ((64, 64, 64), (900, 900, 64), 1),
        ],
    )
    def test_diff_covers_keys_past_the_last_ring_point(self, old_counts, new_counts, replication):
        """Heavy devices' many ring points past the other ring's last one:
        keys there wrap to the first arc of one ring and not of the other,
        and a few hash past both rings' last points."""
        policy = ConsistentHashPlacement(replication)
        roster = device_ids(3)
        keys = [f"k{index}" for index in range(20000)]
        pairs = sorted((stable_hash(key), key) for key in keys)
        hashes = [key_hash for key_hash, _key in pairs]

        def owners(counts):
            ring, arcs = policy._segments(roster, replication, counts)
            arc_of = [bisect.bisect_right(ring, key_hash) % len(ring) for key_hash in hashes]
            return {key: arcs[arc] for (_hash, key), arc in zip(pairs, arc_of)}

        lasts = sorted(max(policy._ring(roster, counts)[0]) for counts in (old_counts, new_counts))
        assert sum(lasts[0] < key_hash < lasts[1] for key_hash in hashes) > 20
        assert any(key_hash > lasts[1] for key_hash in hashes)
        before, after = owners(old_counts), owners(new_counts)
        changed = policy.diff_keys(
            pairs, roster, roster, replication, replication, old_counts, new_counts, hashes
        )
        assert changed == {key: after[key] for key in keys if after[key] != before[key]}

    def test_diff_without_counts_walks_the_unweighted_rings(self):
        """``None`` vnode counts mean the uniform rings, whatever weights the
        policy has installed; the key-hash column is derived when left out."""
        policy = ConsistentHashPlacement(2)
        roster = device_ids(4)
        pairs = sorted((stable_hash(key), key) for key in (f"k{index}" for index in range(500)))
        policy.set_weights({"csd0": 3.0, "csd1": 1.0})
        expected = uniform_diff(policy, pairs, roster[:3], roster, 2, 2)
        assert expected and policy.diff_keys(pairs, roster[:3], roster, 2, 2) == expected

    def test_diff_validates_new_roster(self):
        policy = ConsistentHashPlacement(1)
        pairs = sorted((stable_hash(key), key) for key in ["a", "b"])
        with pytest.raises(PlacementError, match="at least one device"):
            uniform_diff(policy, pairs, device_ids(2), [], 1, 1)
        with pytest.raises(PlacementError, match="unique"):
            uniform_diff(policy, pairs, device_ids(2), ["csd0", "csd0"], 1, 1)
        with pytest.raises(PlacementError, match="exceeds fleet size"):
            uniform_diff(policy, pairs, device_ids(2), device_ids(2), 1, 3)

    @pytest.mark.parametrize(
        "counts, message",
        [((VIRTUAL_NODES,), "1 entries for 2 devices"), ((1, 0), "at least one vnode")],
    )
    def test_diff_validates_the_vnode_counts(self, counts, message):
        policy = ConsistentHashPlacement(1)
        pairs = [(stable_hash("a"), "a")]
        with pytest.raises(PlacementError, match=message):
            policy.diff_keys(
                pairs, device_ids(2), device_ids(2), 1, 1, counts, counts, [pairs[0][0]]
            )

    def test_rings_and_arcs_are_built_once_per_roster(self):
        """Every epoch asks for the rings before and after it: each (roster,
        vnode counts) ring and each (roster, counts, R) arc walk is built
        once and kept for the policy's lifetime."""
        policy = ConsistentHashPlacement(2)
        roster, counts = device_ids(4), (VIRTUAL_NODES,) * 4
        assert policy._ring(roster, counts)[0] is policy._ring(roster, counts)[0]
        assert policy._segments(roster, 2, counts) is policy._segments(roster, 2, counts)


class TestValidation:
    def test_empty_inputs_rejected(self):
        with pytest.raises(PlacementError, match="at least one object key"):
            ConsistentHashPlacement(1).place([], device_ids(2))
        with pytest.raises(PlacementError, match="at least one device"):
            ConsistentHashPlacement(1).place(["a"], [])

    def test_duplicate_devices_rejected(self):
        with pytest.raises(PlacementError):
            ConsistentHashPlacement(1).place(["a"], ["csd0", "csd0"])

    def test_bad_parameters_rejected(self):
        with pytest.raises(PlacementError):
            ConsistentHashPlacement(0)
