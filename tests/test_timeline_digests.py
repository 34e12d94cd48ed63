"""Every run's timeline is pinned: one sha256 per registered scenario and
per ledger workload at ``--quick`` size (seed 42), over each device's busy
intervals and each query handle's instants (``tests/timeline_digest.py``,
which holds the pins).

A change that means to leave behaviour alone — a kernel, request-path or
bookkeeping rewrite — must leave every digest as it is: the goldens and the
ledger pins check the totals, this checks every instant they are summed
from.  On a mismatch the test names the run, the index of the first entry
that differs from the pinned timeline (``tests/timelines.json.gz``) and both
entries.  A change that means to move the timeline re-pins with
``PYTHONPATH=src python tests/timeline_digest.py --write-reference`` and
says so.
"""

from __future__ import annotations

import pytest
import timeline_digest

from repro.scenarios import scenario_names


def test_every_run_has_a_pin():
    names = scenario_names() + [f"ledger:{name}" for name in timeline_digest.LEDGER_WORKLOADS]
    assert sorted(timeline_digest.PINS) == sorted(names)


@pytest.mark.parametrize("name", sorted(timeline_digest.PINS))
def test_the_timeline_is_the_pinned_one(name):
    if name.startswith("ledger:"):
        entries = timeline_digest.workload_timeline(name[len("ledger:") :])
    else:
        entries = timeline_digest.scenario_timeline(name)
    if timeline_digest.sha256(entries) != timeline_digest.PINS[name]:
        index, got, wanted = timeline_digest.first_difference(
            entries, timeline_digest.reference(name)
        )
        pytest.fail(
            f"{name}: the timeline differs first at entry {index}: {got} != pinned {wanted}"
        )


def test_the_reference_holds_the_pinned_timelines():
    """The file a mismatch is diffed against is the pinned runs' own."""
    for name, digest in timeline_digest.PINS.items():
        assert timeline_digest.sha256(timeline_digest.reference(name)) == digest, name


def test_a_moved_instant_is_named_with_its_index():
    entries = timeline_digest.reference("uniform")
    moved = list(entries)
    moved[5] = moved[5][:1] + ((float.fromhex(moved[5][1]) + 1.0).hex(),) + moved[5][2:]
    assert timeline_digest.sha256(moved) != timeline_digest.PINS["uniform"]
    assert timeline_digest.first_difference(moved, entries) == (5, moved[5], entries[5])
    assert timeline_digest.first_difference(entries[:-1], entries) == (
        len(entries) - 1,
        None,
        entries[-1],
    )
