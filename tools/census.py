"""Dead-line census: the lines of ``src/repro`` that the tier-1 tests never run.

Runs the tier-1 suite once under the standard library's line tracer
(``python -m trace --count --missing``, a few minutes), reads the ``.cover``
files it writes into a temporary directory and prints, per module, every
executable line that never ran, then the total.  Three kinds of line are
counted separately as exempt: ``__repr__`` bodies, imports under ``if
TYPE_CHECKING:`` and ``raise NotImplementedError``.

Only the test process is traced: code that runs solely in a subprocess the
tests start (a ``python -m`` entry point run as a script, the
second-interpreter check, the ledger's workers) is counted as never run.  A module no test
imports in-process has no ``.cover`` file; every executable line of it is
counted, and the report names it.

Usage (stdlib only, from the repository root)::

    python tools/census.py
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
import trace
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: What ``trace`` puts before a line it counted: ``"%5d: "`` (wider past 99 999).
#: At most four blanks, so a never-run line's seven-blank prefix followed by
#: source that starts with ``2: `` is not taken for a count.
_HIT = re.compile(r" {0,4}\d+: ")
_MISSED = ">>>>>> "
_PREFIX = 7  # width of ``_MISSED`` and of the blank prefix of a non-executable line

Line = Tuple[int, str]


def _exempt_lines(source: str) -> Set[int]:
    """Line numbers of ``__repr__`` bodies, ``TYPE_CHECKING`` blocks and
    ``raise NotImplementedError`` statements in ``source``."""
    exempt: Set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__repr__":
            first, last = node.body[0].lineno, node.end_lineno
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            first, last = node.body[0].lineno, node.body[-1].end_lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(raised, ast.Name) and raised.id == "NotImplementedError"):
                continue
            first, last = node.lineno, node.end_lineno
        else:
            continue
        exempt.update(range(first, (last or first) + 1))
    return exempt


def never_run(cover_text: str) -> Tuple[List[Line], List[Line]]:
    """Parse one ``.cover`` file: its never-run lines as ``(lineno, source)``,
    split into (counted, exempt)."""
    source: List[str] = []
    missed: List[int] = []
    for lineno, line in enumerate(cover_text.splitlines(), 1):
        if line.startswith(_MISSED):
            missed.append(lineno)
            source.append(line[_PREFIX:])
            continue
        hit = _HIT.match(line)
        source.append(line[hit.end() :] if hit else line[_PREFIX:])
    return _split(missed, source)


def never_imported(path: Path) -> Tuple[List[Line], List[Line]]:
    """Every executable line of a module the tracer never saw, split like
    :func:`never_run`.  "Executable" is the tracer's own definition (the
    line table less docstrings), so the count is what a ``.cover`` file
    would have marked."""
    lines = [n for n in trace._find_executable_linenos(str(path)) if n > 0]
    return _split(sorted(lines), path.read_text(encoding="utf-8").splitlines())


def _split(missed: Iterable[int], source: List[str]) -> Tuple[List[Line], List[Line]]:
    exempt = _exempt_lines("\n".join(source) + "\n")
    counted: List[Line] = []
    exempted: List[Line] = []
    for lineno in missed:
        (exempted if lineno in exempt else counted).append((lineno, source[lineno - 1].strip()))
    return counted, exempted


def census(
    cover_dir: Path, src: Path = SRC
) -> Tuple[Dict[str, Tuple[List[Line], List[Line]]], List[str]]:
    """Never-run lines of every ``repro`` module under ``src``, by module
    name, and the names of the modules that have no ``.cover`` file."""
    results: Dict[str, Tuple[List[Line], List[Line]]] = {}
    untraced: List[str] = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        cover = cover_dir / f"{module}.cover"
        if cover.exists():
            results[module] = never_run(cover.read_text(encoding="utf-8"))
        else:
            results[module] = never_imported(path)
            untraced.append(module)
    return results, untraced


def run_tier1(cover_dir: Path) -> str:
    """Run tier-1 under the tracer, ``.cover`` files into ``cover_dir``; the
    pytest summary line (the tracer swallows pytest's exit status).

    Nothing is passed to ``--ignore-dir``: the tracer caches that verdict by
    a module's base name, so ignoring the stdlib would also drop
    ``repro/csd/request.py`` (after ``urllib/request.py``) and every package
    ``__init__``.
    """
    command = [
        sys.executable,
        "-m",
        "trace",
        "--count",
        "--missing",
        "--coverdir",
        str(cover_dir),
        "--module",
        "pytest",
        "-q",
        "-p",
        "no:cacheprovider",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        command, cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=False
    )
    lines = completed.stdout.strip().splitlines()
    return lines[-1] if lines else completed.stderr.strip()


def report(results: Dict[str, Tuple[List[Line], List[Line]]], untraced: List[str]) -> str:
    """The census as text: per module its never-run lines, then the totals."""
    out: List[str] = []
    total = exempt_total = 0
    for module, (counted, exempted) in results.items():
        total += len(counted)
        exempt_total += len(exempted)
        if counted:
            out.append(f"{module}: {len(counted)}")
            out.extend(f"  {lineno:5d}  {text}" for lineno, text in counted)
    if untraced:
        out.append(
            f"not imported in the test process (every line counted): {', '.join(untraced)}"
        )
    out.append(
        f"never-run lines: {total} (exempt: {exempt_total} in __repr__ bodies, "
        "TYPE_CHECKING imports and raise NotImplementedError)"
    )
    out.append("code run only in subprocesses (python -m scripts, workers) is not seen")
    return "\n".join(out)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census-") as directory:
        summary = run_tier1(Path(directory))
        print(f"tier-1 under trace: {summary}")
        print(report(*census(Path(directory))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
