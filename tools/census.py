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
* **parameters** — from the same program run, every defaulted parameter of
  a ``src/repro`` function the program enters that it takes at most one way
  (:func:`way`: a plain value by its ``repr``, anything else by its type):
  a knob only tests turn, or a fallback only tests take.

Both sections exempt ``__repr__`` bodies, imports under ``if
TYPE_CHECKING:`` and ``raise NotImplementedError``.  The program section
also exempts error paths: a ``raise``, and a straight-line statement whose
only job is to reach one (the statements before it in the same block,
the ``except`` line of a handler that only re-raises).

The parameters are read at ``PY_START`` from the entered frame's locals;
a function stops being watched once each of its defaulted parameters has
been seen two ways.  Only the two traced processes are seen.  A module neither process imports
has every executable line counted.

Usage (stdlib plus tier-1's own ``pytest``, from the repository root)::

    python tools/census.py
"""

from __future__ import annotations

import argparse
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
#: ``(file, first line of the code object, parameter)`` -> the ways it was taken.
Ways = Dict[Tuple[str, int, str], Set[str]]
#: Per module name: (counted lines, exempt lines).
Table = Dict[str, Tuple[List[Line], List[Line]]]

#: ``{tmp}`` is replaced by a scratch directory.
_SCENARIOS = (
    ["--list"],
    ["--run-all"],
    ["--check"],
    ["--run", "fleet-throttled-rebalance", "--trace", "{tmp}/fleet.json"],
    ["--run", "uniform", "--trace", "{tmp}/uniform.json"],
    ["--run", "admission-burst", "--trace", "{tmp}/admission.json"],
    ["--run", "mixed-fleet", "--trace", "{tmp}/mixed.json"],
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
    + [("repro.trace", [f"{{tmp}}/{name}.json", "--top", "5"]) for name in ("admission", "mixed")]
    + [(f"examples/{argv[0]}", argv[1:]) for argv in _EXAMPLES]
    + [
        ("ledger/run.py", ["--workload", name, "--quick", "--seconds", "0", "--trace", mode])
        for name in _LEDGER_WORKLOADS
        for mode in ("0", "1")
    ]
    + [
        ("repro.scenarios", ["--regen-golden", "uniform", "--golden-dir", "{tmp}/golden"]),
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
def _traced(
    run: Callable[[], List[str]], prefix: str, watched: Dict[Tuple[str, int], Tuple[str, ...]]
) -> Tuple[Set[Tuple[str, int]], List[str], Ways]:
    """``(file, line)`` of every line under ``prefix`` that ``run`` reaches,
    the notes ``run`` returns, and the ways each ``watched`` parameter was
    taken (``watched`` maps a code object's ``(file, first line)`` to its
    defaulted parameters)."""
    monitoring = sys.monitoring  # type: ignore[attr-defined]
    tool = monitoring.COVERAGE_ID
    hits: Set[Tuple[str, int]] = set()
    ways: Ways = {}

    def on_line(code, line):
        if code.co_filename.startswith(prefix):
            hits.add((code.co_filename, line))
        return monitoring.DISABLE

    def on_start(code, _offset):
        where = (code.co_filename, code.co_firstlineno)
        parameters = watched.get(where)
        if parameters is None:
            return monitoring.DISABLE
        arguments = sys._getframe(1).f_locals
        settled = True
        for name in parameters:
            seen = ways.setdefault((*where, name), set())
            if len(seen) < 2:
                seen.add(way(arguments[name]))
                settled = settled and len(seen) >= 2
        return monitoring.DISABLE if settled else None

    monitoring.use_tool_id(tool, "census")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.register_callback(tool, monitoring.events.PY_START, on_start)
    monitoring.set_events(tool, monitoring.events.LINE | monitoring.events.PY_START)
    try:
        notes = run()
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    return hits, notes, ways


def way(value: object) -> str:
    """How a parameter was taken: a plain value (``None``, a number, a
    string, a tuple of them) by its ``repr``, anything else by its type."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, tuple) and all(
        item is None or isinstance(item, (bool, int, float, str)) for item in value
    ):
        return repr(value)
    return type(value).__qualname__


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
    watched: Dict[Tuple[str, int], Tuple[str, ...]] = {}
    if half == "program":
        for path in sorted((SRC / "repro").rglob("*.py")):
            for line, (_name, parameters) in defaulted_parameters(path.read_text()).items():
                watched[str(path), line] = parameters
    run = _run_tests if half == "tests" else _run_program
    hits, notes, ways = _traced(run, str(SRC / "repro"), watched)
    document = {
        "hits": sorted(hits),
        "notes": notes,
        "ways": [[*key, sorted(seen)] for key, seen in sorted(ways.items())],
    }
    Path(output).write_text(json.dumps(document))


def trace_half(half: str) -> Tuple[Dict[str, Set[int]], List[str], Ways]:
    """Lines of each ``src/repro`` file that ``half`` (``"tests"`` or
    ``"program"``) runs, traced in a fresh interpreter, its notes, and (for
    the program) the ways it took each defaulted parameter."""
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
    ways = {(filename, line, name): set(seen) for filename, line, name, seen in document["ways"]}
    return hits, document["notes"], ways


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


def unentered_functions(program: Dict[str, Set[int]], src: Path = SRC) -> List[str]:
    """``module.function`` of every function of ``src/repro`` the program
    never enters (no body line run), less those whose whole body is exempt
    as in :func:`program_table`."""
    found = []
    for path in sorted((src / "repro").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        exempt = exempt_lines(source) | error_path_lines(source)
        ran = program.get(str(path), set())
        found += [
            f"{module_name(path, src)}.{qualname}"
            for qualname, body in _function_bodies(ast.parse(source))
            if not body & ran and not body <= exempt
        ]
    return found


def _function_bodies(tree: ast.AST, prefix: str = "") -> Iterable[Tuple[str, Set[int]]]:
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{prefix}{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield qualname, set(range(node.body[0].lineno, (node.end_lineno or 0) + 1))
            yield from _function_bodies(node, f"{qualname}.")


def defaulted_parameters(source: str) -> Dict[int, Tuple[str, Tuple[str, ...]]]:
    """Per function of ``source`` with a defaulted parameter, keyed by its
    code object's first line (its first decorator's, if any): its qualified
    name and the parameters that have a default."""
    found: Dict[int, Tuple[str, Tuple[str, ...]]] = {}

    def visit(tree: ast.AST, prefix: str) -> None:
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}{getattr(node, 'name', '<lambda>')}"
                arguments = node.args
                positional = [*arguments.posonlyargs, *arguments.args]
                defaulted = [arg.arg for arg in positional[len(positional) - len(arguments.defaults):]]
                defaulted += [
                    arg.arg
                    for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
                    if default is not None
                ]
                if defaulted:
                    decorators = getattr(node, "decorator_list", [])
                    first = decorators[0].lineno if decorators else node.lineno
                    found[first] = (name, tuple(defaulted))
                visit(node, f"{name}.")
            elif isinstance(node, ast.ClassDef):
                visit(node, f"{prefix}{node.name}.")
            else:
                visit(node, prefix)

    visit(ast.parse(source), "")
    return found


def one_way_parameters(ways: Ways, src: Path = SRC) -> List[Tuple[str, str]]:
    """``(module.function(parameter), the one way)`` of every defaulted
    parameter the program took at most one way, in file and line order."""
    names: Dict[str, Dict[int, Tuple[str, Tuple[str, ...]]]] = {}
    found = []
    for (filename, line, parameter), seen in sorted(ways.items()):
        if len(seen) > 1:
            continue
        if filename not in names:
            names[filename] = defaulted_parameters(Path(filename).read_text(encoding="utf-8"))
        function = names[filename][line][0]
        module = module_name(Path(filename), src)
        found.append((f"{module}.{function}({parameter})", "".join(seen)))
    return found


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


def report(
    tests: Table,
    program: Table,
    functions: Dict[str, List[str]],
    parameters: Sequence[Tuple[str, str]],
) -> str:
    """The three sections as text: per module the lines, then the totals;
    then the one-way parameters."""
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
    out.append("")
    out.append("== parameters the program sets one way ==")
    out.extend(f"  {name}: {taken}" for name, taken in parameters)
    out.append(f"one-way parameters: {len(parameters)}")
    return "\n".join(out)


def build_parser() -> argparse.ArgumentParser:
    return argparse.ArgumentParser(description=__doc__.split("\n\n")[0])


def main() -> int:
    build_parser().parse_args()
    if sys.version_info < (3, 12):
        print("error: the census needs sys.monitoring (Python 3.12+)", file=sys.stderr)
        return 2
    tests, tests_notes, _ = trace_half("tests")
    program, program_notes, ways = trace_half("program")
    for note in tests_notes + program_notes:
        print(note)
    table, functions = program_table(tests, program)
    print(report(tests_table(tests), table, functions, one_way_parameters(ways)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
