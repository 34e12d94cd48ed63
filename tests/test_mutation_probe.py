"""The mutation probe (``tests/mutation_probe.py``) and its ``slow`` gates.

The self-test runs the probe on a fixed snippet against a planted weak
check: it must list the expected mutants, select for each the one test that
executes its line, let survive exactly the one the check cannot see and the
two no test executes, and report the mutant that loops forever as a timeout.
Each ``slow`` gate probes one kernel against its own tests and fails on a
survivor :data:`SURVIVORS` does not classify, or on an entry there that no
longer survives; an entry that timed out is reported as a timing flip, not as
a kill.
"""

from __future__ import annotations

import os
from typing import Dict

import pytest
from mutation_probe import Mutant, cover, mutants, probe, probe_kernel

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
}


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
    # its timeout (from ``test_halve``'s clean seconds); the other worker
    # starts an interpreter for each of the rest.
    results = probe("snippet", SNIPPET, [str(tmp_path / "test_check.py")], 2)
    outcomes = {mutant.key: outcome for mutant, outcome in results}
    assert [key for key, outcome in outcomes.items() if outcome == "survived"] == [
        "either: or -> and `a or b`", "unused: pass `return n + 1`", "unused: + -> - `n + 1`"
    ]
    assert [key for key, outcome in outcomes.items() if outcome == "timeout"] == [
        "halve: pass `n //= 2`"
    ]


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
