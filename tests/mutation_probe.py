"""Mutation probe: one small change at a time to a kernel, and the tests that tell.

Each *mutant* of a module changes one thing in a function or class body:

* ``not <op>`` — a comparison flipped to its negation (``<`` ↔ ``>=``,
  ``==`` ↔ ``!=``, ``is`` ↔ ``is not``, ``in`` ↔ ``not in``);
* ``+`` ↔ ``-`` — in a binary operation or an augmented assignment;
* ``and`` ↔ ``or``;
* ``if True`` / ``if False`` — an ``if`` test forced one way;
* ``pass`` — a statement replaced by ``pass`` (docstrings, definitions and
  ``pass`` itself excepted).

Each mutant runs pytest in a child interpreter that imports the mutated
source in place of the module (under the module's own file name, so frame
counts still see its layer), on the tests that execute its line.  One child
first runs the whole test list against the original source under
``sys.settrace``: which of the module's lines each test id executes (the lines
a module- or session-scoped fixture executes count for every test that uses
it), and how long each test and fixture takes.  A mutant inside a function
then runs the test ids that execute one of its lines, in list order; a mutant
in a class body or at module level, or on a line that runs outside every
test (at import, say), runs the whole list; a mutant on a line no test
executes survives with no child.

A child has a wall limit per test — 4 × the test's clean seconds (its own and
its module- or session-scoped fixtures') + 5 s, the coverage run's seconds
scaled to the untraced run — armed inside the child as the test starts, so a
mutant that loops ends at the first test that hangs.  The whole child has
4 × its selection's clean seconds + 5 s as a backstop (a hang at import or
in collection), and an address-space ``rlimit`` (:data:`MEMORY_LIMIT`).  A
mutant is ``killed`` when pytest fails (a runaway included), ``timeout`` when
it hangs, and *survives* when pytest exits 0.  The unmutated module must pass
first, run the way the mutants are: unparsed from its syntax tree, every
test id named.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python tests/mutation_probe.py src/repro/engine/operators/hash_join.py

The kernel, one of :data:`KERNELS`, runs its own test files and budget gates,
one child per CPU at a time.  It prints every mutant's outcome and then the
counts.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Kernel (relative to ``src/repro``) -> its own test files and budget gates,
#: fastest killers first (pytest stops at the first failure).
KERNELS: Dict[str, Tuple[str, ...]] = {
    "core/subplan.py": (
        "test_core_subplan", "test_core_cache", "test_arrival_path_budget", "test_shared_mjoin",
        "test_properties", "test_core_njoin_mjoin", "test_core_arrival_properties",
        "test_bytes_budget",
    ),
    "core/njoin.py": (
        "test_join_materialisation_budget", "test_arrival_path_budget", "test_properties",
        "test_core_njoin_mjoin", "test_core_arrival_properties", "test_bytes_budget",
    ),
    "core/cache.py": (
        "test_core_cache", "test_arrival_path_budget", "test_core_arrival_properties",
        "test_core_subplan", "test_shared_mjoin", "test_properties", "test_core_njoin_mjoin",
        "test_bytes_budget",
    ),
    "core/mjoin.py": (
        "test_core_subplan", "test_arrival_path_budget", "test_shared_mjoin",
        "test_core_njoin_mjoin", "test_core_arrival_properties", "test_properties",
        "test_bytes_budget",
    ),
    "engine/operators/hash_join.py": (
        "test_engine_operators", "test_join_materialisation_budget", "test_core_njoin_mjoin",
    ),
    "csd/scheduler.py": (
        "test_csd_ordering_scheduler", "test_csd_device", "test_request_path_budget",
        "test_epoch_budget", "test_layer_frame_budget", "test_properties",
        "test_scheduler_properties", "test_bytes_budget",
    ),
    "csd/device.py": (
        "test_csd_device", "test_submit_many", "test_fleet_router", "test_replication_lifecycle",
        "test_fleet_membership", "test_fleet_scenarios", "test_timeline_digests",
        "test_request_path_budget", "test_layer_frame_budget", "test_epoch_budget",
        "test_bytes_budget", "test_obs_tracing",
    ),
    "fleet/placement.py": (
        "test_fleet_placement", "test_fleet_router", "test_fleet_load_aware",
        "test_fleet_membership", "test_epoch_budget", "test_bytes_budget",
    ),
    "fleet/migration.py": (
        "test_fleet_membership", "test_replication_lifecycle", "test_epoch_budget",
        "test_bytes_budget", "test_epoch_properties",
    ),
    "fleet/controller.py": (
        "test_fleet_controller", "test_fleet_membership", "test_epoch_budget",
        "test_epoch_properties", "test_fleet_layering", "test_replication_lifecycle",
        "test_submit_many", "test_fleet_router", "test_fleet_load_aware",
        "test_fleet_scenarios", "test_bytes_budget",
    ),
    "scenarios/invariants.py": (
        "test_scenarios", "test_fleet_membership", "test_fleet_scenarios",
        "test_replication_lifecycle", "test_scheduler_properties",
    ),
    "sim/environment.py": (
        "test_sim_events", "test_sim_environment", "test_request_path_budget",
        "test_layer_frame_budget", "test_epoch_budget", "test_sim_determinism",
    ),
    "sim/process.py": (
        "test_sim_events", "test_sim_environment", "test_request_path_budget",
        "test_layer_frame_budget", "test_epoch_budget", "test_sim_determinism",
    ),
    "sim/store.py": (
        "test_sim_events", "test_sim_environment", "test_request_path_budget",
        "test_layer_frame_budget", "test_epoch_budget", "test_sim_determinism",
        "test_submit_many", "test_csd_device",
    ),
}

_NEGATED = {
    ast.Eq: ast.NotEq, ast.Lt: ast.GtE, ast.Gt: ast.LtE, ast.Is: ast.IsNot, ast.In: ast.NotIn
}
_NEGATED.update({value: key for key, value in list(_NEGATED.items())})
_SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And}
_SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or"}
#: A child's address space, in bytes.
MEMORY_LIMIT = 1 << 30
#: Every child's pytest options: stop at the first failure, write no cache.
PYTEST_OPTIONS = ("-x", "-q", "-p", "no:cacheprovider")

# A child: cap the address space, read the source and the per-test limits
# from stdin and import the source under the module's name and file, then run
# pytest on the rest of argv.
_CHILD = """
import time
started = time.perf_counter()
import importlib.abc, importlib.machinery, importlib.util, json, resource, sys
import pytest
limit = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
name, (source, limits), args = sys.argv[1], json.load(sys.stdin), sys.argv[3:]
filename = None
def test_id(item):
    return str(item.path) + item.nodeid[item.nodeid.find("::"):]
class Mutated(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    def find_spec(self, fullname, path, target=None):
        if fullname == name:
            spec = importlib.machinery.PathFinder.find_spec(fullname, path)
            return importlib.util.spec_from_file_location(fullname, spec.origin, loader=self)
    def exec_module(self, module):
        global filename
        filename = module.__file__
        exec(compile(source, filename, "exec"), module.__dict__)
sys.meta_path.insert(0, Mutated())
"""

# A test's limit runs from its set-up to its teardown; SIGALRM's default
# action ends the child, also inside a C call.
_RUN = _CHILD + """
import signal
class Limit:
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        signal.setitimer(signal.ITIMER_REAL, limits.get(test_id(item), 0.0))
        yield
        signal.setitimer(signal.ITIMER_REAL, 0.0)
sys.exit(pytest.main(args, [Limit()]))
"""

# The coverage child: ``args[0]`` is the JSON file it writes.  ``sinks[-1]``
# collects the module's lines: outside every test at the bottom, then the
# running test's, then a module- or session-scoped fixture's while it is set
# up (it counts for every test that uses it).
_COVER = _CHILD + """
import json
output, args = args[0], args[1:]
sinks, tests, fixtures, setting_up = [set()], [], {}, [0.0]
def local(frame, event, arg):
    if event == "line":
        sinks[-1].add(frame.f_lineno)
    return local
def trace(frame, event, arg):
    return local if frame.f_code.co_filename == filename else None
class Recorder:
    @pytest.hookimpl(hookwrapper=True)
    def pytest_fixture_setup(self, fixturedef, request):
        if fixturedef.scope == "function":
            yield
            return
        outermost, started = len(sinks) == 2, time.perf_counter()
        sinks.append(set())
        yield
        seconds = time.perf_counter() - started
        setting_up[0] += seconds if outermost else 0.0
        key = fixturedef.baseid + "::" + fixturedef.argname
        before, lines = fixtures.get(key, (0.0, []))
        fixtures[key] = (before + seconds, sorted(set(lines) | sinks.pop()))
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        started, fixture_seconds = time.perf_counter(), setting_up[0]
        sinks.append(set())
        yield
        seconds = time.perf_counter() - started - (setting_up[0] - fixture_seconds)
        uses = [defs[-1].baseid + "::" + name
                for name, defs in item._fixtureinfo.name2fixturedefs.items()]
        tests.append((test_id(item), seconds, sorted(sinks.pop()), uses))
sys.settrace(trace)
code = pytest.main(args, [Recorder()])
sys.settrace(None)
with open(output, "w") as stream:
    json.dump({"seconds": time.perf_counter() - started, "outside": sorted(sinks[0]),
               "tests": tests, "fixtures": fixtures}, stream)
sys.exit(code)
"""


class Mutant(NamedTuple):
    line: int
    scope: str  # qualified name of the enclosing function or class
    change: str
    end: int  # the mutated node's last line
    in_function: bool  # False in a class body or at module level

    @property
    def key(self) -> str:
        """The mutant's name without its line number."""
        return f"{self.scope}: {self.change}"


class _Sites(ast.NodeTransformer):
    """Numbers every mutation site; applies the one numbered ``target``."""

    def __init__(self, target: Optional[int] = None) -> None:
        self.target = target
        self.mutants: List[Mutant] = []
        self.scope: List[str] = []
        self.functions = 0  # enclosing function definitions
        self.seen: Dict[Tuple[str, str], int] = {}

    def _hit(self, node: ast.AST, change: str) -> bool:
        scope = ".".join(self.scope)
        # The same change twice in one scope is told apart by its ordinal.
        seen = self.seen[scope, change] = self.seen.get((scope, change), 0) + 1
        change += f" #{seen}" if seen > 1 else ""
        self.mutants.append(Mutant(node.lineno, scope, change, node.end_lineno, self.functions > 0))
        return len(self.mutants) - 1 == self.target

    def visit(self, node: ast.AST) -> ast.AST:
        text = ast.unparse(node).splitlines()[0][:60] if isinstance(node, ast.stmt) else ""
        defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        if self.scope and isinstance(node, ast.stmt) and not (defines or docstring):
            if not isinstance(node, ast.Pass) and self._hit(node, f"pass `{text}`"):
                return ast.copy_location(ast.Pass(), node)
        if isinstance(node, ast.If):
            for forced in (True, False):
                if self._hit(node, f"if {forced} `{text}`"):
                    node.test = ast.copy_location(ast.Constant(forced), node.test)
        elif isinstance(node, ast.Compare):
            for index, op in enumerate(node.ops):
                flipped = _NEGATED[type(op)]()
                if self._hit(node, f"not {type(op).__name__} `{ast.unparse(node)[:60]}`"):
                    node.ops[index] = flipped
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPPED:
            swapped = _SWAPPED[type(node.op)]
            change = f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[swapped]}"
            if self._hit(node, f"{change} `{ast.unparse(node)[:60]}`"):
                node.op = swapped()
        if defines:
            function = not isinstance(node, ast.ClassDef)
            self.scope.append(node.name)
            self.functions += function
            node = self.generic_visit(node)
            self.functions -= function
            self.scope.pop()
            return node
        return self.generic_visit(node)


def mutants(source: str) -> List[Mutant]:
    """Every mutant of ``source``, in source order."""
    sites = _Sites()
    sites.visit(ast.parse(source))
    return sites.mutants


def mutate(source: str, index: int) -> str:
    """``source`` with mutant ``index`` of :func:`mutants` applied."""
    return ast.unparse(ast.fix_missing_locations(_Sites(index).visit(ast.parse(source))))


def run(script: str, module: str, source: str, args: Sequence[str], timeout: float,
        limits: Dict[str, float]) -> str:
    """``"survived"``, ``"killed"`` or ``"timeout"``: the child ``script`` run
    on ``args`` with ``module`` imported from ``source``, each test id of
    ``limits`` (in :data:`_RUN`) within its seconds and the child within
    ``timeout``."""
    child = subprocess.Popen(
        [sys.executable, "-c", script, module, str(MEMORY_LIMIT), *args],
        stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        child.communicate(json.dumps([source, limits]).encode(), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout"
    if child.returncode == -signal.SIGALRM:
        return "timeout"
    return "survived" if child.returncode == 0 else "killed"


class Coverage:
    """Which test ids execute which lines of a module, and what they cost."""

    def __init__(self, record: dict) -> None:
        fixtures = {key: (seconds, lines) for key, (seconds, lines) in record["fixtures"].items()}
        #: Test ids in run order -> (own seconds, module/session fixtures used).
        self.tests: Dict[str, Tuple[float, Tuple[str, ...]]] = {}
        self.by_line: Dict[int, List[str]] = {}
        for test_id, seconds, lines, uses in record["tests"]:
            used = tuple(key for key in uses if key in fixtures)
            self.tests[test_id] = (seconds, used)
            for line in sorted(set(lines).union(*(fixtures[key][1] for key in used))):
                self.by_line.setdefault(line, []).append(test_id)
        self.fixture_seconds = {key: seconds for key, (seconds, _lines) in fixtures.items()}
        self.outside: FrozenSet[int] = frozenset(record["outside"])
        self.seconds: float = record["seconds"]
        #: Start-up, collection and teardown: what no test's or fixture's time holds.
        self.overhead = self.seconds - sum(seconds for seconds, _used in self.tests.values()) - sum(
            self.fixture_seconds.values())

    def select(self, mutant: Mutant) -> Optional[List[str]]:
        """The test ids ``mutant`` runs, in run order (``[]``: none executes
        its lines), or ``None`` for the whole list."""
        lines = range(mutant.line, mutant.end + 1)
        if not mutant.in_function or not self.outside.isdisjoint(lines):
            return None
        chosen = set().union(*(self.by_line.get(line, ()) for line in lines))
        return [test_id for test_id in self.tests if test_id in chosen]

    def clean_seconds(self, selection: Optional[Sequence[str]]) -> float:
        """The traced seconds of a child running ``selection`` (``None``: all)."""
        if selection is None:
            return self.seconds
        fixtures = sorted({key for test_id in selection for key in self.tests[test_id][1]})
        return (self.overhead + sum(self.tests[test_id][0] for test_id in selection)
                + sum(self.fixture_seconds[key] for key in fixtures))


def cover(module: str, source: str, tests: Sequence[str]) -> Coverage:
    """Run ``tests`` once with ``module`` imported from ``source`` and traced."""
    with tempfile.TemporaryDirectory() as directory:
        output = os.path.join(directory, "coverage.json")
        if run(_COVER, module, source, [output, *PYTEST_OPTIONS, *tests], 1800.0, {}) != "survived":
            raise RuntimeError(f"the unmutated {module} fails {' '.join(tests)}")
        with open(output) as stream:
            return Coverage(json.load(stream))


def probe(module: str, source: str, tests: Sequence[str], jobs: int) -> List[Tuple[Mutant, str]]:
    """Each mutant of ``source`` with its outcome on the pytest files ``tests``.

    A mutant's tests each get 4 × their clean seconds + 5 s, and its child
    4 × its selection's; the clean run — ``source`` unparsed from its tree,
    as every mutant is, on every test id — gets ten minutes."""
    coverage = cover(module, source, tests)
    started = time.perf_counter()
    everything = [*PYTEST_OPTIONS, *coverage.tests]
    if run(_RUN, module, ast.unparse(ast.parse(source)), everything, 600.0, {}) != "survived":
        raise RuntimeError(f"the unmutated {module}, unparsed, fails {' '.join(tests)}")
    # The coverage run's seconds, scaled to an untraced run.
    scale = (time.perf_counter() - started) / coverage.seconds
    limits = {
        test_id: 4 * scale * (seconds + sum(coverage.fixture_seconds[key] for key in used)) + 5.0
        for test_id, (seconds, used) in coverage.tests.items()
    }
    found = mutants(source)

    def outcome(index: int) -> str:
        selection = coverage.select(found[index])
        if selection == []:
            return "survived"
        limit = 4 * scale * coverage.clean_seconds(selection) + 5.0
        args = [*PYTEST_OPTIONS, *(tests if selection is None else selection)]
        return run(_RUN, module, mutate(source, index), args, limit, limits)

    with ThreadPoolExecutor(max(1, min(jobs, os.cpu_count() or 1))) as pool:
        return list(zip(found, pool.map(outcome, range(len(found)))))


def probe_kernel(kernel: str, jobs: int) -> List[Tuple[Mutant, str]]:
    """:func:`probe` on ``kernel`` (a :data:`KERNELS` key) and its own tests."""
    module = "repro." + kernel[: -len(".py")].replace("/", ".")
    source = (REPO_ROOT / "src" / "repro" / kernel).read_text()
    tests = [str(REPO_ROOT / "tests" / f"{name}.py") for name in KERNELS[kernel]]
    return probe(module, source, tests, jobs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kernel", help="a module file under src/repro")
    args = parser.parse_args(argv)
    kernel = Path(args.kernel).resolve().relative_to(REPO_ROOT / "src" / "repro").as_posix()
    results = probe_kernel(kernel, os.cpu_count() or 1)
    for mutant, outcome in results:
        print(f"{outcome:8} {mutant.line:4} {mutant.key}")
    counts = {name: sum(outcome == name for _mutant, outcome in results)
              for name in ("killed", "timeout", "survived")}
    print(f"{kernel}: {len(results)} mutants, " + ", ".join(
        f"{count} {name}" for name, count in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
