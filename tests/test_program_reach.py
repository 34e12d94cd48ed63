"""The program enters every function of ``src/repro`` and sets every default
more than one way.

``tools/census.py``'s program half — the entry points CI and the paper's
figures run — is traced once, in a fresh interpreter under
``sys.monitoring`` (CPython 3.12+, so ``slow``).  It fails on

(a) a function the program never enters: it moves to ``tests/`` as a
    reference, gets a program caller, or goes;
(b) a defaulted parameter the program takes at most one way (``census.way``:
    a plain value by its ``repr``, anything else by its type): it becomes a
    constant, or a required argument and its fallback goes.  Values only
    tests pass are not a second way.

Exempt are the census's own exemptions (``__repr__``, ``TYPE_CHECKING``,
``raise NotImplementedError``, error-path bodies) and the command-line
surface (:func:`cli_surface`).  Anything else must be one of
``test_static_analysis.TEST_REFERENCES`` or of :data:`KEPT`, with its
reason.  ``python tests/test_program_reach.py`` (``src``, ``tests`` and
pytest on ``PYTHONPATH``) prints what the gate would fail on.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, List

import pytest
from test_static_analysis import TEST_REFERENCES

TOOLS = Path(__file__).resolve().parent.parent / "tools"

#: Census name (``module.qualname``, or ``module.function(parameter)``) ->
#: why it stays although the program never enters (or sets) it.
KEPT: Dict[str, str] = {
    "repro.csd.backend.StorageBackend.submit_many": (
        "the protocol's declaration; the device's and the router's run"
    ),
    "repro.engine.predicate.Expression.values": (
        "the bulk operand reader of an Arithmetic compared in a predicate, "
        "which no registered query has yet; the query-fuzzing item draws them"
    ),
    "repro.engine.operators.limit.Limit.__init__": "the query-fuzzing item plans LIMIT queries",
    "repro.engine.operators.limit.Limit.children": "the query-fuzzing item plans LIMIT queries",
    "repro.engine.operators.limit.Limit.rows": "the query-fuzzing item plans LIMIT queries",
    "repro.engine.predicate.Or.__init__": "the query-fuzzing item draws disjunctions",
    "repro.engine.predicate.Or.select": "the query-fuzzing item draws disjunctions",
    "repro.engine.predicate.Or.columns": "the query-fuzzing item draws disjunctions",
    "repro.engine.predicate.Not.__init__": "the query-fuzzing item draws negations",
    "repro.engine.predicate.Not.select": "the query-fuzzing item draws negations",
    "repro.engine.predicate.Not.columns": "the query-fuzzing item draws negations",
    "repro.workloads.tpch.q3": "registered query no figure runs; the termination item",
    "repro.workloads.ssb.q2_1": "registered query no figure runs; the termination item",
    "repro.workloads.ssb.q3_1": "registered query no figure runs; the termination item",
    "repro.workloads.mrbench.aggregation_task": (
        "registered query no figure runs; the termination item"
    ),
    "repro.workloads.nref.long_protein_report": (
        "registered query no figure runs; the termination item"
    ),
    "repro.model.vanilla_execution_time": "the paper's closed forms; the closed-forms item",
    "repro.model.skipper_waiting_time": "the paper's closed forms; the closed-forms item",
    "repro.model.skipper_average_execution_time": (
        "the paper's closed forms; the closed-forms item"
    ),
    "repro.model.mjoin_expected_cycles": "the paper's closed forms; the closed-forms item",
    "repro.model.AnalyticalModel.vanilla_time": "the paper's closed forms; the closed-forms item",
    "repro.model.AnalyticalModel.skipper_time": "the paper's closed forms; the closed-forms item",
    "repro.model._validate_positive": "the closed forms' argument check",
    "repro.model._validate_non_negative": "the closed forms' argument check",
    "repro.obs.metrics._render": "the registry's read side; the telemetry item",
    "repro.obs.metrics.MetricsRegistry.get": "the registry's read side; the telemetry item",
    "repro.obs.metrics.MetricsRegistry.names": "the registry's read side; the telemetry item",
    "repro.obs.metrics.MetricsRegistry.__len__": "the registry's read side; the telemetry item",
    "repro.obs.metrics.MetricsRegistry.to_dict": "the registry's read side; the telemetry item",
    "repro.scenarios.__main__._print_failure": "the golden-mismatch path of --check",
    "repro.service.session.Session.closed": (
        "open_session's re-open check reads it when a tenant opens a second session"
    ),
}

#: The modules whose every function and parameter is command-line surface.
_CLI_MODULES = ("repro.bench.", "repro.harness.experiments.")
#: The other entry-point modules, where a parameter named for an option the
#: command line sets (``argv``, ``--golden-dir``, a seed, a scale) is that
#: option.  The same name in library code is judged like any other.
_ENTRY_MODULES = ("repro.__main__.", "repro.scenarios.__main__.", "repro.trace.")
_CLI_PARAMETERS = ("(argv)", "(golden_dir)", "(seed)", "scale)")


def cli_surface(name: str) -> bool:
    """Whether the census name ``name`` is command-line surface: a ``main``,
    ``repro/bench/``, an experiment of ``harness/experiments.py`` or one of
    its options, or an entry-point module's ``argv``, golden directory, seed
    or scale."""
    function = name.split("(")[0]
    return (
        name.startswith(_CLI_MODULES)
        or function.endswith(".main")
        or (name.startswith(_ENTRY_MODULES) and name.endswith(_CLI_PARAMETERS))
    )


def _referenced(name: str) -> bool:
    function = name.split("(")[0]
    return any(function.endswith(f".{reference}") for reference in TEST_REFERENCES)


def unearned(names: List[str]) -> List[str]:
    """The census names neither exempt nor listed."""
    return [
        name
        for name in names
        if not cli_surface(name) and name not in KEPT and not _referenced(name)
    ]


def _census():
    if str(TOOLS) not in sys.path:
        sys.path.insert(0, str(TOOLS))
    import census

    return census


def test_kept_and_the_test_references_are_disjoint_and_reasoned():
    census = _census()
    defined = set()
    for path in sorted((census.SRC / "repro").rglob("*.py")):
        module = census.module_name(path)
        for qualname, _body in census._function_bodies(ast.parse(path.read_text())):
            defined.add(f"{module}.{qualname}")
    assert set(KEPT) <= defined, sorted(set(KEPT) - defined)
    assert not [name for name in KEPT if _referenced(name)]
    assert not [name for name in KEPT if cli_surface(name)]
    assert all(reason for reason in KEPT.values())


@pytest.fixture(scope="module")
def program():
    """The census's program half, traced once in a fresh interpreter:
    ``(census, lines run per file, ways per parameter)``."""
    census = _census()
    hits, notes, ways = census.trace_half("program")
    assert not [note for note in notes if "exited" in note], notes
    return census, hits, ways


@pytest.mark.slow
@pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring is 3.12+")
def test_the_program_enters_every_function(program):
    census, hits, _ways = program
    missing = unearned(census.unentered_functions(hits))
    assert not missing, "functions the program never enters:\n" + "\n".join(missing)
    entered = [name for name in KEPT if name not in census.unentered_functions(hits)]
    assert not entered, f"KEPT entries the program now enters: {entered}"


@pytest.mark.slow
@pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring is 3.12+")
def test_the_program_sets_every_default_more_than_one_way(program):
    census, _hits, ways = program
    one_way = dict(census.one_way_parameters(ways))
    missing = unearned(list(one_way))
    assert not missing, "defaults the program takes one way:\n" + "\n".join(
        f"{name}: {one_way[name]}" for name in missing
    )


if __name__ == "__main__":
    census = _census()
    hits, _notes, ways = census.trace_half("program")
    for name in unearned(census.unentered_functions(hits)):
        print(f"never entered: {name}")
    for name, taken in census.one_way_parameters(ways):
        if unearned([name]):
            print(f"one way: {name}: {taken}")
