"""The dead-line census's ``.cover`` parser (``tools/census.py``), on a synthetic file."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census", TOOL)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

#: What ``python -m trace --count --missing`` writes for a small module: a
#: count (wider than five digits past 99 999), ``>>>>>>`` for a never-run
#: executable line, blanks for everything else — including a continuation
#: line whose source starts like a count (``2: "b"}``).
COVER = '''\
       """A synthetic module."""
    1: from typing import TYPE_CHECKING

    1: if TYPE_CHECKING:
>>>>>>     from os import PathLike


    1: class Thing:
    1:     def __repr__(self):
>>>>>>         return (
>>>>>>             "<Thing>"
               )

    1:     def run(self, flag):
123456:         if flag:
>>>>>>             raise NotImplementedError("later")
123456:         if flag is None:
>>>>>>             raise ValueError("no flag")
123456:         return 1


>>>>>> def dead():
>>>>>>     return 0
    1: NAMES = {1: "a",
               2: "b"}
'''

#: A module no test imports: it has no ``.cover`` file.
UNUSED = '''\
"""Never imported."""

import os


def f():
    if os.sep:
        raise NotImplementedError
    return os.sep
'''


def test_never_run_lines_split_into_counted_and_exempt():
    counted, exempt = census.never_run(COVER)
    assert counted == [(18, 'raise ValueError("no flag")'), (22, "def dead():"), (23, "return 0")]
    assert exempt == [
        (5, "from os import PathLike"),
        (10, "return ("),
        (11, '"<Thing>"'),
        (16, 'raise NotImplementedError("later")'),
    ]


def test_report_counts_every_line_of_an_untraced_module(tmp_path):
    covers, package = tmp_path / "covers", tmp_path / "src" / "repro"
    covers.mkdir()
    package.mkdir(parents=True)
    (covers / "repro.synthetic.cover").write_text(COVER, encoding="utf-8")
    (covers / "os.cover").write_text(COVER, encoding="utf-8")
    (package / "synthetic.py").write_text("", encoding="utf-8")
    (package / "unused.py").write_text(UNUSED, encoding="utf-8")
    results, untraced = census.census(covers, tmp_path / "src")
    assert list(results) == ["repro.synthetic", "repro.unused"]
    assert untraced == ["repro.unused"]
    assert results["repro.unused"] == (
        [(3, "import os"), (6, "def f():"), (7, "if os.sep:"), (9, "return os.sep")],
        [(8, "raise NotImplementedError")],
    )
    text = census.report(results, untraced)
    assert "repro.synthetic: 3\n" in text
    assert "repro.unused: 4\n" in text
    assert "not imported in the test process (every line counted): repro.unused\n" in text
    assert "never-run lines: 7 (exempt: 5 " in text
    assert "subprocesses" in text.splitlines()[-1]
