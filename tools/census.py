"""Dead-line census: the lines of ``src/repro`` that the tests run and the
program does not.

Two sections, each traced in its own fresh interpreter with
``sys.monitoring`` (Python 3.12+; every line is disabled after its first
hit, so tracing costs little):

* **tests** — tier-1 (``pytest -q``) runs in-process; printed per module is
  every executable line of ``src/repro`` it never runs, then the total.
* **program** — the entry points in :data:`PROGRAM` run in-process: what CI
  and the paper's figures run.  Printed per module is every line tier-1
  runs and the program never does, the functions only tier-1 enters, then
  the total: code that exists for its tests alone.

Both sections exempt ``__repr__`` bodies, imports under ``if
TYPE_CHECKING:`` and ``raise NotImplementedError``.  The program section
also exempts error paths: a ``raise``, and a straight-line statement whose
only job is to reach one (the statements before it in the same block,
the ``except`` line of a handler that only re-raises).

Only the two traced processes are seen.  A module neither process imports
has every executable line counted.

Usage (stdlib plus tier-1's own ``pytest``, from the repository root)::

    python tools/census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import json
import multiprocessing
import os
import runpy
import sys
import tempfile
import trace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

Line = Tuple[int, str]
#: Per module name: (counted lines, exempt lines).
Table = Dict[str, Tuple[List[Line], List[Line]]]

#: ``{tmp}`` is replaced by a scratch directory.
_SCENARIOS = (
    ["--list"],
    ["--run-all"],
    ["--check"],
    ["--run", "fleet-throttled-rebalance", "--trace", "{tmp}/fleet.json"],
    ["--run", "uniform", "--trace", "{tmp}/uniform.json"],
)
_EXAMPLES = (
    ["quickstart.py"],
    ["multi_tenant_analytics.py", "3"],
    ["cache_pressure.py"],
    ["scheduler_fairness.py"],
    ["tiering_cost_analysis.py", "50"],
)
_LEDGER_WORKLOADS = ("skipper-shared-csd", "vanilla-pull", "keys-fanout", "fleet-churn")

#: The program: ``(module or script, argv)``.  A name ending in ``.py`` is a
#: script under the repository root, anything else a ``python -m`` module.
#: The ``repro run`` experiments are added from the registry (_experiments).
PROGRAM: List[Tuple[str, List[str]]] = (
    [("repro.scenarios", argv) for argv in _SCENARIOS]
    + [
        ("repro.trace", [f"{{tmp}}/{name}.json", *option])
        for name in ("fleet", "uniform")
        for option in (["--top", "5"], ["--chrome", f"{{tmp}}/{name}-chrome.json"])
    ]
    + [(f"examples/{argv[0]}", argv[1:]) for argv in _EXAMPLES]
    + [
        ("ledger/run.py", ["--workload", name, "--quick", "--seconds", "0", "--trace", mode])
        for name in _LEDGER_WORKLOADS
        for mode in ("0", "1")
    ]
    + [
        ("repro", ["list"]),
        ("repro.bench", ["--smoke", "--check"]),
        ("repro.bench", ["--smoke", "--trace", "--output", "{tmp}/bench.json", "--check"]),
    ]
)


def _experiments() -> List[Tuple[str, List[str]]]:
    """Every ``python -m repro run`` experiment, each ``*scale`` option ``tiny``."""
    import inspect

    from repro.harness.runner import EXPERIMENTS

    runs = []
    for name, (function, _description) in sorted(EXPERIMENTS.items()):
        argv = ["run", name]
        for parameter in inspect.signature(function).parameters:
            if parameter.endswith("scale"):
                argv += ["-o", f"{parameter}=tiny"]
        runs.append(("repro", argv))
    return runs


# --------------------------------------------------------------------------- #
# Tracing (runs in a child interpreter)
# --------------------------------------------------------------------------- #
def _traced(run: Callable[[], List[str]], prefix: str) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """``(file, line)`` of every line under ``prefix`` that ``run`` reaches,
    and the notes ``run`` returns."""
    monitoring = sys.monitoring  # type: ignore[attr-defined]
    tool = monitoring.COVERAGE_ID
    hits: Set[Tuple[str, int]] = set()

    def on_line(code, line):
        if code.co_filename.startswith(prefix):
            hits.add((code.co_filename, line))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "census")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        notes = run()
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    return hits, notes


def _run_tests() -> List[str]:
    import pytest

    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        status = pytest.main(["-q", "-p", "no:cacheprovider"])
    lines = output.getvalue().strip().splitlines()
    return [f"tier-1: {lines[-1] if lines else '(no output)'} (exit {int(status)})"]


def _run_program() -> List[str]:
    notes: List[str] = []
    with tempfile.TemporaryDirectory(prefix="census-program-") as tmp:
        entry_points = PROGRAM + _experiments()
        for target, argv in entry_points:
            argv = [arg.replace("{tmp}", tmp) for arg in argv]
            status = _run_entry_point(target, argv)
            if status:
                notes.append(f"program: {target} {' '.join(argv)} exited {status}")
    return notes + [f"program: {len(entry_points)} entry points run"]


def _run_entry_point(target: str, argv: Sequence[str]) -> int:
    """Run one entry point as ``python -m target argv`` (or ``python target
    argv``) would, output discarded; its exit status."""
    saved_argv, saved_path = sys.argv[:], sys.path[:]
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if target.endswith(".py"):
                script = REPO_ROOT / target
                sys.argv = [str(script), *argv]
                sys.path.insert(0, str(script.parent))
                runpy.run_path(str(script), run_name="__main__")
            else:
                sys.argv = [target, *argv]
                runpy.run_module(target, run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        code = exit_.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    finally:
        sys.argv, sys.path = saved_argv, saved_path
    return 0


def _child(half: str, output: str) -> None:
    os.chdir(REPO_ROOT)
    sys.path.insert(0, str(SRC))
    run = _run_tests if half == "tests" else _run_program
    hits, notes = _traced(run, str(SRC / "repro"))
    Path(output).write_text(json.dumps({"hits": sorted(hits), "notes": notes}))


def trace_half(half: str) -> Tuple[Dict[str, Set[int]], List[str]]:
    """Lines of each ``src/repro`` file that ``half`` (``"tests"`` or
    ``"program"``) runs, traced in a fresh interpreter, and its notes."""
    with tempfile.TemporaryDirectory(prefix="census-") as directory:
        output = str(Path(directory) / f"{half}.json")
        child = multiprocessing.get_context("spawn").Process(target=_child, args=(half, output))
        child.start()
        child.join()
        if child.exitcode != 0:
            raise SystemExit(f"error: the {half} half exited {child.exitcode}")
        document = json.loads(Path(output).read_text())
    hits: Dict[str, Set[int]] = {}
    for filename, line in document["hits"]:
        hits.setdefault(filename, set()).add(line)
    return hits, document["notes"]


# --------------------------------------------------------------------------- #
# Exemptions and line tables (version-independent)
# --------------------------------------------------------------------------- #
def _span(node: ast.AST) -> Iterable[int]:
    return range(node.lineno, (node.end_lineno or node.lineno) + 1)


def exempt_lines(source: str) -> Set[int]:
    """Line numbers of ``__repr__`` bodies, ``TYPE_CHECKING`` blocks and
    ``raise NotImplementedError`` statements in ``source``."""
    exempt: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__repr__":
            exempt.update(range(node.body[0].lineno, (node.end_lineno or 0) + 1))
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            exempt.update(range(node.body[0].lineno, (node.body[-1].end_lineno or 0) + 1))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(raised, ast.Name) and raised.id == "NotImplementedError":
                exempt.update(_span(node))
    return exempt


#: Statements with a block of their own: an error path is straight-line code.
_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try)
_COMPOUND += (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _straight_line(statement: ast.stmt) -> bool:
    return not isinstance(statement, _COMPOUND)


def error_path_lines(source: str) -> Set[int]:
    """Line numbers of error paths in ``source``: every ``raise`` (each ends
    its block), the straight-line statements before it, and the ``except``
    line of a handler whose whole body is such a path."""
    lines: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list) or not block or not isinstance(block[-1], ast.Raise):
                continue
            tail = list(itertools.takewhile(_straight_line, reversed(block)))
            for statement in tail:
                lines.update(_span(statement))
            if isinstance(node, ast.ExceptHandler) and len(tail) == len(block):
                lines.add(node.lineno)
    return lines


def executable_lines(path: Path) -> Set[int]:
    """The executable lines of one file: its line table less docstrings."""
    return {n for n in trace._find_executable_linenos(str(path)) if n}


def split_lines(
    lines: Iterable[int], source: str, exempt: Set[int]
) -> Tuple[List[Line], List[Line]]:
    """``lines`` as ``(lineno, text)``, sorted and split into (counted, exempt)."""
    text = source.splitlines()
    counted: List[Line] = []
    exempted: List[Line] = []
    for lineno in sorted(lines):
        (exempted if lineno in exempt else counted).append((lineno, text[lineno - 1].strip()))
    return counted, exempted


def module_name(path: Path, src: Path = SRC) -> str:
    return ".".join(path.relative_to(src).with_suffix("").parts)


def tests_table(tests: Dict[str, Set[int]], src: Path = SRC) -> Table:
    """Per module: the executable lines tier-1 never runs."""
    table: Table = {}
    for path in sorted((src / "repro").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        missed = executable_lines(path) - tests.get(str(path), set())
        table[module_name(path, src)] = split_lines(missed, source, exempt_lines(source))
    return table


def program_table(
    tests: Dict[str, Set[int]], program: Dict[str, Set[int]], src: Path = SRC
) -> Tuple[Table, Dict[str, List[str]]]:
    """Per module: the lines tier-1 runs and the program never does, and the
    functions with a body line tier-1 runs and none the program runs."""
    table: Table = {}
    functions: Dict[str, List[str]] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        ran_tests, ran_program = tests.get(str(path), set()), program.get(str(path), set())
        exempt = exempt_lines(source) | error_path_lines(source)
        name = module_name(path, src)
        table[name] = split_lines(ran_tests - ran_program, source, exempt)
        functions[name] = [
            qualname
            for qualname, body in _function_bodies(ast.parse(source))
            if body & ran_tests and not body & ran_program and not body <= exempt
        ]
    return table, functions


def _function_bodies(tree: ast.AST, prefix: str = "") -> Iterable[Tuple[str, Set[int]]]:
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{prefix}{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield qualname, set(range(node.body[0].lineno, (node.end_lineno or 0) + 1))
            yield from _function_bodies(node, f"{qualname}.")


def _lines(table: Table) -> Tuple[List[str], int, int]:
    out: List[str] = []
    total = exempt_total = 0
    for module, (counted, exempted) in table.items():
        total += len(counted)
        exempt_total += len(exempted)
        if counted:
            out.append(f"{module}: {len(counted)}")
            out.extend(f"  {lineno:5d}  {text}" for lineno, text in counted)
    return out, total, exempt_total


def report(tests: Table, program: Table, functions: Dict[str, List[str]]) -> str:
    """Both sections as text: per module the lines, then the totals."""
    out = ["== tests: lines of src/repro tier-1 never runs =="]
    lines, total, exempt = _lines(tests)
    out += lines
    out.append(
        f"never-run lines: {total} (exempt: {exempt} in __repr__ bodies, "
        "TYPE_CHECKING imports and raise NotImplementedError)"
    )
    out.append("")
    out.append("== program: lines tier-1 runs that the program never runs ==")
    lines, total, exempt = _lines(program)
    out += lines
    only = [f"{module}.{name}" for module, names in functions.items() for name in names]
    out.append(f"functions only tier-1 enters: {len(only)}")
    out.extend(f"  {name}" for name in only)
    out.append(
        f"tests-only lines: {total} (exempt: {exempt} in __repr__ bodies, TYPE_CHECKING "
        "imports, raise NotImplementedError and error paths)"
    )
    return "\n".join(out)


def main() -> int:
    if sys.version_info < (3, 12):
        print("error: the census needs sys.monitoring (Python 3.12+)", file=sys.stderr)
        return 2
    tests, tests_notes = trace_half("tests")
    program, program_notes = trace_half("program")
    for note in tests_notes + program_notes:
        print(note)
    table, functions = program_table(tests, program)
    print(report(tests_table(tests), table, functions))
    return 0


if __name__ == "__main__":
    sys.exit(main())
