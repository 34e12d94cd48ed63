"""The mutation probe (``tests/mutation_probe.py``) and its ``slow`` gate.

The self-test runs the probe on a fixed snippet against a planted weak
check: it must list the expected mutants, let exactly the one the check
cannot see survive, and report the mutant that loops forever as killed by
the timeout.  The ``slow`` gate probes ``engine/operators/hash_join.py``
against its own tests and fails on a survivor :data:`HASH_JOIN_SURVIVORS`
does not classify, or on an entry there that no longer survives; an entry
that timed out is reported as a timing flip, not as a kill.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

import pytest
from mutation_probe import KERNELS, mutants, probe, run_tests_command

REPO_ROOT = Path(__file__).resolve().parent.parent

SNIPPET = '''\
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
'''

#: Weak on purpose: ``either(1, 1)`` cannot tell ``or`` from ``and``.
CHECK = '''\
import os, sys
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from snippet import clamp, either, halve
assert halve(8) == 3
assert (clamp(5, 0, 10), clamp(-1, 0, 10), clamp(11, 0, 10)) == (5, 0, 10)
assert either(1, 1) == 1
'''

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
]

#: hash_join survivors of its own tests and gates -> class and reason (the
#: classes: (a) no effect anywhere, (b) only a golden or a pin sees it,
#: (c) only frames or bytes, (d) safety code, (e) equivalent mutant).
HASH_JOIN_SURVIVORS: Dict[str, str] = {
    "materialise_rows: if True `if len(merged) != sum(map(len, joined)):`": (
        "(e) the per-column check finds nothing when no column overlaps: the "
        "guard only skips it"
    ),
}


def test_the_probe_lists_kills_and_times_out_as_expected(tmp_path):
    (tmp_path / "snippet.py").write_text(SNIPPET)
    (tmp_path / "check.py").write_text(CHECK)
    assert [(mutant.line, mutant.key) for mutant in mutants(SNIPPET)] == EXPECTED
    # The looping mutant, fourth in line, holds one of the two workers for its
    # 1.5 s; the other worker starts an interpreter for each of the rest.
    results = probe("snippet", SNIPPET, [str(tmp_path / "check.py")], 1.5, 2)
    outcomes = {mutant.key: outcome for mutant, outcome in results}
    assert [key for key, outcome in outcomes.items() if outcome == "survived"] == [
        "either: or -> and `a or b`"
    ]
    assert [key for key, outcome in outcomes.items() if outcome == "timeout"] == [
        "halve: pass `n //= 2`"
    ]


@pytest.mark.slow
def test_every_hash_join_survivor_is_classified():
    kernel = "engine/operators/hash_join.py"
    source = (REPO_ROOT / "src" / "repro" / kernel).read_text()
    tests = [str(REPO_ROOT / "tests" / f"{name}.py") for name in KERNELS[kernel]]
    command = run_tests_command(tests)
    results = probe("repro.engine.operators.hash_join", source, command, None, os.cpu_count() or 1)
    outcomes = {mutant.key: outcome for mutant, outcome in results}
    survivors = {key for key, outcome in outcomes.items() if outcome == "survived"}
    assert sorted(survivors - set(HASH_JOIN_SURVIVORS)) == [], "unclassified survivors"
    timed_out = {key for key in HASH_JOIN_SURVIVORS if outcomes.get(key) == "timeout"}
    assert sorted(timed_out) == [], "classified survivors that timed out: a timing flip"
    assert sorted(set(HASH_JOIN_SURVIVORS) - survivors) == [], "entries that no longer survive"
