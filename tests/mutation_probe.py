"""Mutation probe: one small change at a time to a kernel, and the tests that tell.

Each *mutant* of a module changes one thing in a function or class body:

* ``not <op>`` — a comparison flipped to its negation (``<`` ↔ ``>=``,
  ``==`` ↔ ``!=``, ``is`` ↔ ``is not``, ``in`` ↔ ``not in``);
* ``+`` ↔ ``-`` — in a binary operation or an augmented assignment;
* ``and`` ↔ ``or``;
* ``if True`` / ``if False`` — an ``if`` test forced one way;
* ``pass`` — a statement replaced by ``pass`` (docstrings, definitions and
  ``pass`` itself excepted).

Each mutant runs in a child interpreter that imports the mutated source in
place of the module (under the module's own file name, so frame counts still
see its layer) and then runs a command line: ``-m pytest <files>`` for a
kernel, or a script.  The child has a wall timeout and an address-space
``rlimit`` (:data:`MEMORY_LIMIT`): a hang or a runaway counts as killed.  A
mutant *survives* when its command exits 0.  The unmutated module must pass
first, run the way the mutants are: unparsed from its syntax tree.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python tests/mutation_probe.py src/repro/engine/operators/hash_join.py

The kernel, one of :data:`KERNELS`, runs its own test files and budget gates,
one child per CPU at a time.  It prints every mutant's outcome and then the
survivors.
"""

from __future__ import annotations

import argparse
import ast
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    "engine/operators/hash_join.py": (
        "test_engine_operators", "test_join_materialisation_budget", "test_core_njoin_mjoin",
    ),
    "csd/scheduler.py": (
        "test_csd_ordering_scheduler", "test_csd_device", "test_request_path_budget",
        "test_epoch_budget", "test_layer_frame_budget", "test_properties",
        "test_scheduler_properties", "test_bytes_budget",
    ),
    "fleet/placement.py": (
        "test_fleet_placement", "test_fleet_router", "test_fleet_load_aware",
        "test_fleet_membership", "test_epoch_budget", "test_bytes_budget",
    ),
    "fleet/migration.py": (
        "test_fleet_membership", "test_replication_lifecycle", "test_epoch_budget",
        "test_bytes_budget", "test_epoch_properties",
    ),
    "sim/environment.py": (
        "test_sim_events", "test_sim_environment", "test_request_path_budget",
        "test_layer_frame_budget", "test_epoch_budget", "test_sim_determinism",
    ),
    "sim/process.py": (
        "test_sim_events", "test_sim_environment", "test_request_path_budget",
        "test_layer_frame_budget", "test_epoch_budget", "test_sim_determinism",
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

# The child: cap the address space, read the mutated source from stdin, import
# it under the module's name, then run the command line like ``python`` would.
_CHILD = """
import importlib.abc, importlib.util, resource, runpy, sys
limit = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
name, source, command = sys.argv[1], sys.stdin.read(), sys.argv[3:]
class Mutated(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    def find_spec(self, fullname, path, target=None):
        if fullname == name:
            spec = importlib.machinery.PathFinder.find_spec(fullname, path)
            return importlib.util.spec_from_file_location(fullname, spec.origin, loader=self)
    def exec_module(self, module):
        exec(compile(source, module.__file__, "exec"), module.__dict__)
sys.meta_path.insert(0, Mutated())
sys.argv = command[1:] if command[0] == "-m" else command
if command[0] == "-m":
    runpy.run_module(command[1], run_name="__main__", alter_sys=True)
else:
    runpy.run_path(command[0], run_name="__main__")
"""


class Mutant(NamedTuple):
    line: int
    scope: str  # qualified name of the enclosing function or class
    change: str

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
        self.seen: Dict[Tuple[str, str], int] = {}

    def _hit(self, node: ast.AST, change: str) -> bool:
        scope = ".".join(self.scope)
        # The same change twice in one scope is told apart by its ordinal.
        seen = self.seen[scope, change] = self.seen.get((scope, change), 0) + 1
        self.mutants.append(Mutant(node.lineno, scope, change + (f" #{seen}" if seen > 1 else "")))
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
            self.scope.append(node.name)
            node = self.generic_visit(node)
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


def run(module: str, source: str, command: Sequence[str], timeout: float) -> str:
    """``"survived"``, ``"killed"`` or ``"timeout"``: ``command`` run with ``module``
    imported from ``source``."""
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, module, str(MEMORY_LIMIT), *command],
        stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        child.communicate(source.encode(), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout"
    return "survived" if child.returncode == 0 else "killed"


def probe(module: str, source: str, command: Sequence[str], timeout: Optional[float],
          jobs: int) -> List[Tuple[Mutant, str]]:
    """Each mutant of ``source`` with its outcome.  A mutant's ``timeout`` is
    4 × the clean run + 5 s when ``None``; the clean run — ``source`` unparsed
    from its tree, as every mutant is — gets ten minutes."""
    started = time.perf_counter()
    if run(module, ast.unparse(ast.parse(source)), command, 600.0) != "survived":
        raise RuntimeError(f"the unmutated {module} fails {' '.join(command)}")
    if timeout is None:
        timeout = 4 * (time.perf_counter() - started) + 5.0
    found = mutants(source)
    with ThreadPoolExecutor(max(1, min(jobs, os.cpu_count() or 1))) as pool:
        outcomes = pool.map(lambda index: run(module, mutate(source, index), command, timeout),
                            range(len(found)))
        return list(zip(found, outcomes))


def run_tests_command(tests: Sequence[str]) -> List[str]:
    """The child's command line for ``tests``: stop at the first failure."""
    return ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kernel", help="a module file under src/repro")
    args = parser.parse_args(argv)
    path = Path(args.kernel).resolve()
    relative = path.relative_to(Path(__file__).resolve().parent.parent / "src" / "repro")
    module = "repro." + ".".join(relative.with_suffix("").parts)
    tests = [f"tests/{name}.py" for name in KERNELS[relative.as_posix()]]
    results = probe(module, path.read_text(), run_tests_command(tests), None,
                    os.cpu_count() or 1)
    for mutant, outcome in results:
        print(f"{outcome:8} {mutant.line:4} {mutant.key}")
    survivors = [mutant for mutant, outcome in results if outcome == "survived"]
    print(f"{module}: {len(results)} mutants, {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
