"""The map stays true: what README.md and the verify skill name exists.

Two checks over both documents:

* every ``src/``, ``tests/``, ``tools/``, ``ledger/`` and ``examples/`` path
  they name is in the tree (a glob or a ``<placeholder>`` is not a path);
* every ``python -m repro…`` and ``python tools/….py`` command they name
  parses with that CLI's own parser — a renamed or removed flag fails here,
  not in a reader's shell.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
import shlex
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.bench.__main__ import build_parser as bench_parser
from repro.harness.runner import build_parser as experiments_parser
from repro.scenarios.__main__ import build_parser as scenarios_parser
from repro.trace import build_parser as trace_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ("README.md", ".claude/skills/verify/SKILL.md")


def _tool_parser(name: str):
    """``tools/<name>.py``'s ``build_parser`` (the tools are scripts, not a package)."""
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_parser


#: ``python -m <module>`` or ``python tools/<name>.py`` -> the parser its
#: ``main`` runs.
PARSERS = {
    "repro": experiments_parser,
    "repro.scenarios": scenarios_parser,
    "repro.bench": bench_parser,
    "repro.trace": trace_parser,
    "tools/census.py": _tool_parser("census"),
    "tools/sample_profile.py": _tool_parser("sample_profile"),
}
_PATH = re.compile(r"(?<![\w./-])((?:src|tests|tools|ledger|examples)/[\w./*<>-]*[\w*>])")
_COMMAND = re.compile(r"python[\d.]* (?:-m (repro[\w.]*)|(tools/\w+\.py))([^\n`#|;&]*)")


def _text(document: str) -> str:
    return (REPO_ROOT / document).read_text()


def named_paths(document: str) -> List[str]:
    """The tree paths ``document`` names, each once, in first-seen order."""
    paths = [path for path in _PATH.findall(_text(document)) if not set("*<") & set(path)]
    return list(dict.fromkeys(paths))


def named_commands(document: str) -> List[Tuple[str, List[str]]]:
    """``(module or tool, arguments)`` of each ``python -m repro…`` or
    ``python tools/….py`` command in ``document``, up to the end of its line or code span, a comment, a pipe
    or a redirection.  Prose wraps inline commands, so a code span's line
    breaks are joined first."""
    text = re.sub(r"`[^`]*`", lambda span: span.group(0).replace("\n", " "), _text(document))
    commands = []
    for module, tool, rest in _COMMAND.findall(text):
        arguments = shlex.split(rest)
        if ">" in arguments:
            arguments = arguments[: arguments.index(">")]
        commands.append((module or tool, arguments))
    return commands


def _parse_error(module: str, arguments: List[str]) -> str:
    """What the module's parser prints on rejecting ``arguments`` ('' if it takes them)."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            PARSERS[module]().parse_args(arguments)
    except SystemExit:
        return stderr.getvalue().strip() or "rejected"
    return ""


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_named_path_exists(document):
    paths = named_paths(document)
    assert len(paths) > 40, paths
    missing = [path for path in paths if not (REPO_ROOT / path).exists()]
    assert missing == [], f"{document} names paths that are not in the tree"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_named_cli_command_parses(document):
    commands = named_commands(document)
    assert {module for module, _arguments in commands} <= set(PARSERS)
    assert {"tools/census.py", "tools/sample_profile.py"} <= {module for module, _ in commands}
    rejected: Dict[str, str] = {}
    for module, arguments in commands:
        # A bare ``python -m repro.trace`` names the CLI; there are no flags to
        # check.  ``tools/census.py`` takes none, so it is parsed bare too.
        error = _parse_error(module, arguments) if arguments or module.startswith("tools/") else ""
        if error:
            rejected[f"{module} {shlex.join(arguments)}"] = error
    assert len(commands) > 5 and rejected == {}, f"{document}: {rejected}"


def test_the_checks_see_a_wrong_path_and_a_wrong_flag():
    assert _PATH.findall("see `tests/no_such_gate.py` and tools/x.py.") == [
        "tests/no_such_gate.py",
        "tools/x.py",
    ]
    assert _parse_error("repro.scenarios", ["--check"]) == ""
    assert "unrecognized arguments: --checks" in _parse_error(
        "repro.scenarios", ["--check", "--checks"]
    )
    assert _COMMAND.findall("`python -m repro.bench --smoke --check` (under a second)") == [
        ("repro.bench", "", " --smoke --check")
    ]
    assert _COMMAND.findall("`python3.12 tools/sample_profile.py fleet-churn --quick`") == [
        ("", "tools/sample_profile.py", " fleet-churn --quick")
    ]
    assert "required: workload" in _parse_error("tools/sample_profile.py", [])
