"""The mutation probe (``tests/mutation_probe.py``) and its ``slow`` gates.

The self-test runs the probe on a fixed snippet against a planted weak
check: it must list the expected mutants, select for each the one test that
executes its line, let survive exactly the one the check cannot see and the
two no test executes, and report the mutant that loops forever as a timeout
— at the first test that hangs, not at its whole selection's limit.
Each ``slow`` gate probes one kernel against its own tests and fails on a
survivor :data:`SURVIVORS` does not classify, or on an entry there that no
longer survives; an entry that timed out is reported as a timing flip, not as
a kill.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import mutation_probe
import pytest
from mutation_probe import (
    KERNELS, REPO_ROOT, Mutant, cover, mutants, probe, probe_kernel, run,
)

SNIPPET = """\
def halve(n):
    steps = 0
    while n > 1:
        n //= 2
        steps += 1
    return steps

def clamp(value, low, high):
    if value < low:
        return low
    return min(value, high)

def either(a, b):
    return a or b

def unused(n):
    return n + 1
"""

#: Weak on purpose: ``either(1, 1)`` cannot tell ``or`` from ``and``, and no
#: test calls ``unused``.
CHECK = """\
from snippet import clamp, either, halve

def test_halve():
    assert halve(8) == 3

def test_clamp():
    assert (clamp(5, 0, 10), clamp(-1, 0, 10), clamp(11, 0, 10)) == (5, 0, 10)

def test_either():
    assert either(1, 1) == 1
"""

EXPECTED = [
    (2, "halve: pass `steps = 0`"),
    (3, "halve: pass `while n > 1:`"),
    (3, "halve: not Gt `n > 1`"),
    (4, "halve: pass `n //= 2`"),
    (5, "halve: pass `steps += 1`"),
    (5, "halve: + -> - `steps += 1`"),
    (6, "halve: pass `return steps`"),
    (9, "clamp: pass `if value < low:`"),
    (9, "clamp: if True `if value < low:`"),
    (9, "clamp: if False `if value < low:`"),
    (9, "clamp: not Lt `value < low`"),
    (10, "clamp: pass `return low`"),
    (11, "clamp: pass `return min(value, high)`"),
    (14, "either: pass `return a or b`"),
    (14, "either: or -> and `a or b`"),
    (17, "unused: pass `return n + 1`"),
    (17, "unused: + -> - `n + 1`"),
]

#: A loop the first of three tests runs; the two after it sleep, so the
#: selection's limit is seconds longer than the first test's.
HANG_SNIPPET = """\
def halve(n):
    while n > 1:
        n //= 2
    return n
"""

HANG_CHECK = """\
import time
from snippet import halve

def test_first():
    assert halve(8) == 1

def test_second():
    time.sleep(0.5)
    assert halve(4) == 1

def test_third():
    time.sleep(0.5)
    assert halve(2) == 1
"""

#: Kernel -> its survivors of its own tests and gates -> class and reason.
#: The classes: (a) no effect anywhere, (b) only a golden or a pin sees it,
#: (c) only frames or bytes, (d) safety code, (e) equivalent mutant.
SURVIVORS: Dict[str, Dict[str, str]] = {
    "engine/operators/hash_join.py": {
        "materialise_rows: if True `if len(merged) != sum(map(len, joined)):`": (
            "(e) the per-column check finds nothing when no column overlaps: the "
            "guard only skips it"
        ),
    },
    "sim/store.py": {
        ": if False `if TYPE_CHECKING:`": (
            "(e) the imports under it name types for annotations alone, and "
            "annotations are not evaluated"
        ),
    },
    "core/cache.py": {
        "_settle: - -> + `len(flags) - period`": (
            "(e) the walk starts two periods past the end of the flags, where "
            "`rfind` finds nothing, and reaches the same runs from there"
        ),
        "EvictionPolicy: pass `name: str`": (
            "(e) an annotation binds nothing at run time; every policy sets its name"
        ),
    },
    "core/mjoin.py": {},
    "csd/device.py": {},
    "core/njoin.py": {},
    "core/subplan.py": {
        "Batch.tallies: if True `if stride <= total // period:`": (
            "(e) the two tally loops count the same flags: one by stride, "
            "one by period; the test picks the cheaper"
        ),
        "Batch.tallies: if False `if stride <= total // period:`": (
            "(e) the two tally loops count the same flags: one by stride, "
            "one by period; the test picks the cheaper"
        ),
        "Batch.tallies: not LtE `stride <= total // period`": (
            "(e) the two tally loops count the same flags: one by stride, "
            "one by period; the test picks the cheaper"
        ),
        "SubplanTracker._subplans_of: pass `if len(ids) > 1:`": (
            "(e) the one-id path builds the same flags byte by byte; the "
            "guard only picks `itemgetter` where it returns a tuple"
        ),
        "SubplanTracker._subplans_of: if False `if len(ids) > 1:`": (
            "(e) the one-id path builds the same flags byte by byte; the "
            "guard only picks `itemgetter` where it returns a tuple"
        ),
        "SubplanTracker._subplans_of: pass `return Batch(lists, ids, bytes(itemgetter(*ids)(self._pendin`": (
            "(e) falling through to the one-id path builds the same flags "
            "byte by byte"
        ),
    },
    "csd/scheduler.py": {},
    "fleet/placement.py": {
        "ConsistentHashPlacement.place: if True `if sorted_key_hashes is None:`": (
            "(e) the router passes the same keys sorted the same way; sorting "
            "them again yields the same list"
        ),
        "ConsistentHashPlacement.diff_keys: if True `if key_hashes is None:`": (
            "(e) the controller passes the hash column of the same list; "
            "deriving it again yields the same column"
        ),
    },
    "fleet/migration.py": {},
    "scenarios/invariants.py": {},
    "sim/environment.py": {},
    "sim/process.py": {
        ": if False `if TYPE_CHECKING:`": (
            "(e) the imports under it name types for annotations alone, and "
            "annotations are not evaluated"
        ),
        "Wake: pass `triggered: bool`": (
            "(e) an annotation binds nothing at run time; `triggered` is a slot"
        ),
        "Wake: pass `exception: Optional[BaseException] = None`": (
            "(e) read by the type checker alone: `Process._resume` hands a "
            "wake-up its value in its first branch and never reads its "
            "`exception`"
        ),
    },
    "fleet/controller.py": {
        "FleetController._membership_event: if True `if isinstance(event, SetReplication):`": (
            "(e) spec validation admits a join, a leave or a SetReplication "
            "alone, so the last test is true whenever it runs"
        ),
        "FleetController._execute_plan: if True `if tenant != tenant_of_run:`": (
            "(e) looking the tenant's list up again for every key appends to "
            "the same list"
        ),
        "FleetController._execute_plan: pass `tenant_of_run = tenant`": (
            "(e) looking the tenant's list up again for every key appends to "
            "the same list"
        ),
    },
}


def test_every_kernel_has_a_gate_and_a_ci_job():
    assert sorted(SURVIVORS) == sorted(KERNELS)
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert [kernel for kernel in sorted(KERNELS) if f"- kernel: {kernel}\n" not in workflow] == []


def test_a_mutant_runs_the_tests_that_execute_its_line(tmp_path):
    (tmp_path / "snippet.py").write_text(SNIPPET)
    (tmp_path / "test_check.py").write_text(CHECK)
    found = mutants(SNIPPET)
    coverage = cover("snippet", SNIPPET, [str(tmp_path / "test_check.py")])
    names = {mutant.key: [test_id.rpartition("::")[2] for test_id in coverage.select(mutant)]
             for mutant in found}
    assert names == {
        key: {"halve": ["test_halve"], "clamp": ["test_clamp"], "either": ["test_either"],
              "unused": []}[key.partition(":")[0]]
        for _line, key in EXPECTED
    }
    # A class-body or module-level line runs the whole list.
    assert coverage.select(Mutant(1, "", "pass", 1, False)) is None


def test_the_probe_lists_kills_and_times_out_as_expected(tmp_path):
    (tmp_path / "snippet.py").write_text(SNIPPET)
    (tmp_path / "test_check.py").write_text(CHECK)
    assert [(mutant.line, mutant.key) for mutant in mutants(SNIPPET)] == EXPECTED
    # The looping mutant, fourth in line, holds one of the two workers until
    # ``test_halve``'s limit; the other worker starts an interpreter for each
    # of the rest.
    results = probe("snippet", SNIPPET, [str(tmp_path / "test_check.py")], 2)
    outcomes = {mutant.key: outcome for mutant, outcome in results}
    assert [key for key, outcome in outcomes.items() if outcome == "survived"] == [
        "either: or -> and `a or b`", "unused: pass `return n + 1`", "unused: + -> - `n + 1`"
    ]
    assert [key for key, outcome in outcomes.items() if outcome == "timeout"] == [
        "halve: pass `n //= 2`"
    ]


def test_a_hang_ends_at_the_first_test_that_hangs(tmp_path, monkeypatch):
    (tmp_path / "snippet.py").write_text(HANG_SNIPPET)
    (tmp_path / "test_check.py").write_text(HANG_CHECK)
    timed_out = []

    def timed(script, module, source, args, timeout, *rest):
        started = time.perf_counter()
        outcome = run(script, module, source, args, timeout, *rest)
        if outcome == "timeout":
            timed_out.append((time.perf_counter() - started, timeout))
        return outcome

    monkeypatch.setattr(mutation_probe, "run", timed)
    results = probe("snippet", HANG_SNIPPET, [str(tmp_path / "test_check.py")], 2)
    assert [mutant.key for mutant, outcome in results if outcome != "killed"] == [
        "halve: pass `n //= 2`"
    ]
    # It hangs in ``test_first``; its selection also holds the two sleepers.
    [(seconds, selection_limit)] = timed_out
    assert seconds < selection_limit - 2.0


@pytest.mark.slow
@pytest.mark.parametrize("kernel", sorted(SURVIVORS))
def test_every_survivor_is_classified(kernel):
    outcomes = {mutant.key: outcome for mutant, outcome in probe_kernel(kernel, os.cpu_count() or 1)}
    classified = SURVIVORS[kernel]
    survivors = {key for key, outcome in outcomes.items() if outcome == "survived"}
    assert sorted(survivors - set(classified)) == [], "unclassified survivors"
    timed_out = {key for key in classified if outcomes.get(key) == "timeout"}
    assert sorted(timed_out) == [], "classified survivors that timed out: a timing flip"
    assert sorted(set(classified) - survivors) == [], "entries that no longer survive"
