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
    parameters = [("repro.synthetic.Thing.run(flag)", "None")]
    text = census.report(census.tests_table({path: tests}, src), table, functions, parameters)
    assert "repro.synthetic: 4\n" in text
    assert "functions only tier-1 enters: 2\n  repro.synthetic.Thing.check\n" in text
    assert "tests-only lines: 4 (exempt: 6 " in text
    assert "never-run lines: 0 (exempt: 2 " in text
    assert text.endswith("  repro.synthetic.Thing.run(flag): None\none-way parameters: 1")



def test_unentered_functions_are_those_the_program_never_enters(tmp_path):
    """Whatever the tests do: ``Thing.run``'s body is entered, ``dead`` is
    not, and ``__repr__`` is exempt."""
    src, path = _package(tmp_path)
    program = {2, 4, 8, 9, 12, 13, 15, 18, 19, 23, 30}
    assert census.unentered_functions({path: program}, src) == [
        "repro.synthetic.Thing.check",
        "repro.synthetic.dead",
    ]
    assert census.unentered_functions({path: program | {24, 31}}, src) == []


DEFAULTS = '''\
def plain(a, b):
    return a


@staticmethod
def decorated(a, b=1, *, c, d=None):
    def inner(e=2):
        return e
    return inner


class Knobs:
    def __init__(self, rate, burst=1):
        self.pick = lambda x, y=0: x
'''


def test_defaulted_parameters_are_keyed_by_the_code_objects_first_line():
    """A decorated function's code starts at its decorator; keyword-only
    defaults count, a keyword-only parameter without one does not."""
    assert census.defaulted_parameters(DEFAULTS) == {
        5: ("decorated", ("b", "d")),
        7: ("decorated.inner", ("e",)),
        13: ("Knobs.__init__", ("burst",)),
        14: ("Knobs.__init__.<lambda>", ("y",)),
    }


def test_a_way_is_a_plain_value_or_a_type():
    assert [census.way(value) for value in (None, 1, 1.0, True, "x", (1, "a"))] == [
        "None", "1", "1.0", "True", "'x'", "(1, 'a')"
    ]
    assert [census.way(value) for value in ([1], {}, (object(),), census.way)] == [
        "list", "dict", "tuple", "function"
    ]


def test_one_way_parameters_are_those_taken_at_most_one_way(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    path = package / "knobs.py"
    path.write_text(DEFAULTS, encoding="utf-8")
    ways = {
        (str(path), 5, "b"): {"1", "2"},
        (str(path), 5, "d"): {"None"},
        (str(path), 13, "burst"): {"1"},
    }
    assert census.one_way_parameters(ways, tmp_path / "src") == [
        ("repro.knobs.decorated(d)", "None"),
        ("repro.knobs.Knobs.__init__(burst)", "1"),
    ]
