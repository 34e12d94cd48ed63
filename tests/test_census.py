"""The dead-line census's exemptions and line tables (``tools/census.py``),
on a synthetic module: no tracing, so any Python runs them."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census", TOOL)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

MODULE = '''\
"""A synthetic module."""
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from os import PathLike


class Thing:
    def __repr__(self):
        return "<Thing>"

    def run(self, flag):
        if flag:
            raise NotImplementedError("later")
        if flag is None:
            message = "no flag"
            raise ValueError(message)
        try:
            return int(flag)
        except TypeError:
            raise ValueError("not a number")

    def check(self, values):
        for value in values:
            if value < 0:
                return value
        raise KeyError(values)


def dead():
    return 0
'''


def test_exempt_lines_are_repr_type_checking_and_not_implemented():
    assert census.exempt_lines(MODULE) == {5, 10, 14}


def test_error_paths_are_raises_and_the_lines_that_only_reach_them():
    """The assignment before a raise and an ``except`` that only re-raises
    are error paths; a loop before a raise is not."""
    assert census.error_path_lines(MODULE) == {14, 16, 17, 20, 21, 27}


def _package(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "synthetic.py").write_text(MODULE, encoding="utf-8")
    return tmp_path / "src", str(package / "synthetic.py")


def test_tests_table_lists_the_executable_lines_tests_never_run(tmp_path):
    src, path = _package(tmp_path)
    ran = {2, 4, 8, 9, 12, 13, 15, 16, 17, 23, 30}
    table = census.tests_table({path: ran}, src)
    counted, exempt = table["repro.synthetic"]
    assert counted == [
        (18, "try:"),
        (19, "return int(flag)"),
        (20, "except TypeError:"),
        (21, 'raise ValueError("not a number")'),
        (24, "for value in values:"),
        (25, "if value < 0:"),
        (26, "return value"),
        (27, "raise KeyError(values)"),
        (31, "return 0"),
    ]
    assert exempt == [
        (5, "from os import PathLike"),
        (10, 'return "<Thing>"'),
        (14, 'raise NotImplementedError("later")'),
    ]


def test_program_table_lists_what_only_the_tests_run(tmp_path):
    src, path = _package(tmp_path)
    tests = {2, 4, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 23, 24, 25, 26, 27, 30, 31}
    program = {2, 4, 8, 9, 12, 13, 15, 18, 19, 23, 30}
    table, functions = census.program_table({path: tests}, {path: program}, src)
    counted, exempt = table["repro.synthetic"]
    assert counted == [
        (24, "for value in values:"),
        (25, "if value < 0:"),
        (26, "return value"),
        (31, "return 0"),
    ]
    assert [lineno for lineno, _text in exempt] == [14, 16, 17, 20, 21, 27]
    assert functions == {"repro.synthetic": ["Thing.check", "dead"]}
    text = census.report(census.tests_table({path: tests}, src), table, functions)
    assert "repro.synthetic: 4\n" in text
    assert "functions only tier-1 enters: 2\n  repro.synthetic.Thing.check\n" in text
    assert "tests-only lines: 4 (exempt: 6 " in text
    assert "never-run lines: 0 (exempt: 2 " in text
