"""Static gates over the source tree, run as plain tests.

The first part is one AST checker for the hazards that would bend the
byte-equality regression net (goldens, ``--run-all`` in two processes, the
ledger pins) or let an error escape the ``ReproError`` taxonomy, with a snippet
table per rule and one gate over ``src`` and ``tests`` whose only
exemptions are the :data:`ALLOWED` sites.  The rest are structural gates:
unused imports, layering, one mechanism per job, the reach of the public
surface, annotations and deleted code.
"""

import ast
import dataclasses
import importlib
import inspect
import io
import pkgutil
import re
import sys
import textwrap
import tokenize
import typing
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: "What time is it now" reads; constructing or parsing a date is fine.
_WALL_CLOCK = frozenset(
    [f"time.{name}{ns}" for name in ("time", "monotonic", "perf_counter", "process_time") for ns in ("", "_ns")]
    + ["datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today", "datetime.date.today"]
)
_LISTINGS = frozenset(["os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"])
_BLOCKING = frozenset(
    ["time.sleep", "socket.create_connection", "socket.socket", "os.system", "os.popen"]
    + [f"subprocess.{name}" for name in ("run", "Popen", "call", "check_call", "check_output")]
    + ["urllib.request.urlopen", "requests.get", "requests.post", "requests.request"]
)
#: Builtin exceptions library code may not raise, since callers catch
#: ``ReproError``; ``NotImplementedError`` and control-flow exceptions stay legal.
_BUILTIN_RAISES = frozenset(
    """ArithmeticError AssertionError AttributeError BaseException BufferError EOFError
    Exception IOError ImportError IndexError KeyError LookupError MemoryError NameError
    OSError OverflowError RuntimeError TypeError ValueError ZeroDivisionError""".split()
)
_TIME_NAME = re.compile(r"^now$|^deadline$|_deadline$|_seconds$|_time$|^elapsed$|^simulated_time$")
_SET_TYPES = ("set", "frozenset", "Set", "FrozenSet", "MutableSet")
_SET_METHODS = ("difference", "intersection", "symmetric_difference", "union")
#: Names CPython 3.9, CI's oldest interpreter, does not have.
_NOT_IN_39 = frozenset(
    ["itertools.pairwise"]
    + [f"typing.{name}" for name in ("TypeAlias", "ParamSpec", "Concatenate", "TypeGuard", "Self")]
)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _import_aliases(tree):
    """Local name -> the dotted name it was imported as (relative imports stay
    unresolved): ``import time as t`` gives ``{"t": "time"}``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                aliases[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name != "*":
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _is_generator(function):
    """Whether ``function``'s own body, not a nested ``def``'s, yields."""
    pending = list(ast.iter_child_nodes(function))
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, _DEFS):
            pending.extend(ast.iter_child_nodes(node))
    return False


def check(source):
    """``(line, rule)`` for every site of the determinism and safety rules in
    ``source``, found in one walk of its tree.  Names are resolved through
    the module's imports, and a name holds a set if its scope last assigned
    it one (or annotated it as one)."""
    tree = ast.parse(source)
    aliases = _import_aliases(tree)
    found = []
    scopes = [{}]  # one per enclosing ``def``: name -> whether it holds a set

    def dotted(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        return ".".join([aliases.get(node.id, node.id)] + parts[::-1])

    def builtin(node, *names):
        return isinstance(node, ast.Name) and node.id in names and node.id not in aliases

    def set_typed(annotation):
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        return isinstance(annotation, ast.Name) and annotation.id in _SET_TYPES

    def is_set(node):
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return builtin(node.func, "set", "frozenset") or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and is_set(node.func.value)
            )
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return is_set(node.left) or is_set(node.right)
        if isinstance(node, ast.Name):
            for scope in reversed(scopes):
                if node.id in scope:
                    return scope[node.id]
        return False

    def call(node, parent, function):
        target = dotted(node.func)
        for name in ("list", "tuple", "enumerate", "iter"):
            if builtin(node.func, name) and node.args and is_set(node.args[0]):
                yield node.args[0].lineno, "unordered-set-iteration"
        if target in _WALL_CLOCK:
            yield node.lineno, "wall-clock-call"
        if target and target.startswith("random.") and target != "random.Random":
            yield node.lineno, "unseeded-random-call"
        if builtin(node.func, "hash") and getattr(function, "name", "") != "__hash__":
            yield node.lineno, "builtin-hash-in-placement"
        listing = target in _LISTINGS or (
            isinstance(node.func, ast.Attribute) and node.func.attr in ("iterdir", "rglob")
        )
        sorted_ = isinstance(parent, ast.Call) and builtin(parent.func, "sorted") and node in parent.args
        if listing and not sorted_:
            yield node.lineno, "unsorted-directory-listing"
        if target in _BLOCKING or (
            builtin(node.func, "open", "input") and function is not None and _is_generator(function)
        ):
            yield node.lineno, "blocking-call-in-simulation"
        keywords = {keyword.arg for keyword in node.keywords}
        if (builtin(node.func, "zip") and "strict" in keywords) or (
            target == "dataclasses.dataclass" and keywords & {"slots", "kw_only"}
        ):
            yield node.lineno, "py39-floor"

    def visit(node, parent, function):
        if isinstance(node, _DEFS + (ast.Lambda,)):
            arguments = node.args
            for default in arguments.defaults + [d for d in arguments.kw_defaults if d is not None]:
                if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)) or (
                    isinstance(default, ast.Call) and builtin(default.func, "list", "dict", "set", "bytearray")
                ):
                    found.append((default.lineno, "mutable-default-argument"))
        if isinstance(node, _DEFS):
            function = node
            arguments = node.args.args + node.args.kwonlyargs
            scopes.append({arg.arg: True for arg in arguments if set_typed(arg.annotation)})
        elif isinstance(node, ast.Assign):
            value = is_set(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    scopes[-1][target.id] = value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            scopes[-1][node.target.id] = set_typed(node.annotation) or (
                node.value is not None and is_set(node.value)
            )
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) and is_set(node.iter):
            found.append((node.iter.lineno, "unordered-set-iteration"))
        elif isinstance(node, ast.Call):
            found.extend(call(node, parent, function))
        elif isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            if (
                any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                and not any(isinstance(o, ast.Constant) and isinstance(o.value, str) for o in operands)
                and any(
                    _TIME_NAME.search(o.id if isinstance(o, ast.Name) else o.attr)
                    for o in operands
                    if isinstance(o, (ast.Name, ast.Attribute))
                )
            ):
                found.append((node.lineno, "float-time-equality"))
        elif isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
            waited = node.value
            name = dotted(waited.func) or ""
            if name.split(".")[-1] == "Timeout" or (
                isinstance(waited.func, ast.Attribute)
                and (
                    waited.func.attr == "timeout"
                    or (waited.func.attr == "get" and not waited.args and not waited.keywords)
                )
            ):
                found.append((node.lineno, "event-per-plain-wait"))
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None or (isinstance(node.type, ast.Name) and node.type.id == "BaseException"):
                found.append((node.lineno, "bare-or-broad-except"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            name = dotted(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            if name and name.split(".")[-1] in _BUILTIN_RAISES:
                found.append((node.lineno, "non-taxonomy-raise"))
        elif (
            isinstance(node, getattr(ast, "Match", ()))  # 3.9's ``ast`` has no ``Match``
            or (isinstance(node, ast.Attribute) and dotted(node) in _NOT_IN_39)
            or (
                isinstance(node, ast.ImportFrom)
                and any(f"{node.module}.{alias.name}" in _NOT_IN_39 for alias in node.names)
            )
        ):
            found.append((node.lineno, "py39-floor"))
        for child in ast.iter_child_nodes(node):
            visit(child, node, function)
        if isinstance(node, _DEFS):
            scopes.pop()

    visit(tree, None, None)
    return found


#: Rules that bind library code only: the tests assert exact golden floats,
#: raise builtin exceptions in fixtures and wait through ``env.timeout`` /
#: ``store.get()`` (the public event API) on purpose.
LIBRARY_ONLY = ("float-time-equality", "non-taxonomy-raise", "event-per-plain-wait")

#: The sites the gate lets stand, ``(file, rule) -> (sites, why)``.  A new
#: site, or an entry whose count no longer matches, fails the gate.
ALLOWED = {
    ("src/repro/bench/__init__.py", "wall-clock-call"): (
        4,
        "the macro-benchmark harness exists to measure wall seconds",
    ),
    ("src/repro/scenarios/runner.py", "wall-clock-call"): (
        3,
        "the per-scenario wall seconds --check prints; no report reads them",
    ),
    ("src/repro/sim/process.py", "bare-or-broad-except"): (
        1,
        "a crashing process must fail its event so waiters see the error "
        "instead of hanging the run",
    ),
    ("tests/mutation_probe.py", "blocking-call-in-simulation"): (
        1,
        "runs each mutant in a child interpreter, outside any simulation",
    ),
    ("tests/mutation_probe.py", "wall-clock-call"): (
        2,
        "times the unmutated run, which sets the mutants' wall timeout",
    ),
    ("tests/test_mutation_probe.py", "wall-clock-call"): (
        2,
        "times a hanging mutant's child against its whole selection's limit",
    ),
    ("tests/test_parallel_and_golden_diff.py", "blocking-call-in-simulation"): (
        2,
        "asks another interpreter for its version and runs the golden check, "
        "the catalog digests and a quick ledger run in it, outside any simulation",
    ),
    ("tests/test_scenario_witnesses.py", "blocking-call-in-simulation"): (
        1,
        "runs each scenario in a fresh interpreter under sys.monitoring, "
        "outside any simulation",
    ),
}


def _gated(rel_path, source):
    """The checker's sites in one file of ``src`` or ``tests``."""
    library = rel_path.startswith("src/")
    return [(line, rule) for line, rule in check(source) if library or rule not in LIBRARY_ONLY]


def _mismatches(found, allowed):
    """One line per ``(file, rule)`` whose sites ``found`` (``key -> lines``)
    differ in number from the ``allowed`` count (``key -> (sites, why)``)."""
    keys = sorted(set(found) | set(allowed))
    return [
        f"{path} {rule}: lines {found.get((path, rule), [])}, allowed {allowed.get((path, rule), (0,))[0]}"
        for path, rule in keys
        if len(found.get((path, rule), [])) != allowed.get((path, rule), (0,))[0]
    ]


def test_determinism_and_safety_gate():
    found = {}
    for root in ("src", "tests"):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            rel_path = path.relative_to(REPO_ROOT).as_posix()
            for line, rule in _gated(rel_path, path.read_text()):
                found.setdefault((rel_path, rule), []).append(line)
    wrong = _mismatches(found, ALLOWED)
    assert not wrong, "\n".join(wrong)
    assert all(why for _, why in ALLOWED.values())


_KEY = ("src/repro/clock.py", "wall-clock-call")


@pytest.mark.parametrize(
    "found, expected",
    [
        pytest.param({_KEY: [3, 9]}, [], id="exact-count-passes"),
        pytest.param(
            {_KEY: [3, 9, 14]},
            ["src/repro/clock.py wall-clock-call: lines [3, 9, 14], allowed 2"],
            id="new-site-fails",
        ),
        pytest.param(
            {_KEY: [3]},
            ["src/repro/clock.py wall-clock-call: lines [3], allowed 2"],
            id="stale-count-fails",
        ),
        pytest.param(
            {},
            ["src/repro/clock.py wall-clock-call: lines [], allowed 2"],
            id="entry-without-sites-fails",
        ),
        pytest.param(
            {_KEY: [3, 9], ("src/repro/other.py", "wall-clock-call"): [5]},
            ["src/repro/other.py wall-clock-call: lines [5], allowed 0"],
            id="unlisted-file-fails",
        ),
    ],
)
def test_allow_list_is_exact(found, expected):
    """An allowance covers a count of sites in one file for one rule: not a
    line more, not a line less, and not another file."""
    assert _mismatches(found, {_KEY: (2, "why")}) == expected


def test_unparsable_file_fails_the_checker():
    with pytest.raises(SyntaxError):
        check("def broken(:\n    pass\n")


def _fires(rule, source, name):
    return pytest.param(source, [rule], id=f"{rule}-{name}")


def _clean(source, name):
    return pytest.param(source, [], id=f"clean-{name}")


_MATCH = pytest.mark.skipif(sys.version_info < (3, 10), reason="3.9 cannot parse a match statement")

SNIPPETS = [
    _fires("unordered-set-iteration", "for item in {1, 2, 3}:\n    print(item)\n", "for-over-set-literal"),
    _fires(
        "unordered-set-iteration",
        """
        pending = set(["a", "b"])
        for item in pending:
            print(item)
        """,
        "for-over-inferred-set-name",
    ),
    _fires(
        "unordered-set-iteration",
        """
        from typing import Set

        def assemble(keys: Set[str]):
            return [key for key in keys]
        """,
        "set-typed-parameter",
    ),
    _fires(
        "unordered-set-iteration",
        """
        alive = set(["a"])
        lost = set(["b"])
        for device in alive - lost:
            print(device)
        """,
        "set-algebra-result",
    ),
    _fires("unordered-set-iteration", "order = list({1, 2})\n", "list-materialisation"),
    _fires(
        "unordered-set-iteration",
        "seen = set(['a'])\nfor key in seen.union(['b']):\n    print(key)\n",
        "set-method-result",
    ),
    _fires(
        "unordered-set-iteration",
        """
        from typing import FrozenSet

        members: FrozenSet[str] = load()
        names = [member for member in members]
        """,
        "annotated-assignment",
    ),
    _clean(
        """
        def collect():
            keys = set(["a"])
            return sorted(keys)

        def emit(keys):
            for key in keys:
                print(key)
        """,
        "set-name-in-another-function",
    ),
    _clean(
        """
        pending = set(["a", "b"])
        for item in sorted(pending):
            print(item)
        """,
        "sorted-set",
    ),
    _clean(
        """
        items = set(["a"])
        items = ["a"]
        for item in items:
            print(item)
        """,
        "reassigned-name",
    ),
    _fires("wall-clock-call", "import time\n\ndef stamp():\n    return time.time()\n", "time-time"),
    _fires("wall-clock-call", "import time as clock\n\nstarted = clock.perf_counter()\n", "aliased-import"),
    _fires("wall-clock-call", "from datetime import datetime\n\nstamp = datetime.now()\n", "datetime-now"),
    _fires("wall-clock-call", "import datetime as dt\n\nstamp = dt.datetime.now()\n", "aliased-module"),
    _clean("def observe(env):\n    return env.now\n", "simulated-clock"),
    _clean(
        '"""Never call time.time() or os.listdir() here."""\n# hash(key) would vary per process\n',
        "docstring-and-comment",
    ),
    pytest.param(
        "import os, time\n\nstamp, names = time.time(), os.listdir('.')\n",
        ["wall-clock-call", "unsorted-directory-listing"],
        id="two-rules-one-line",
    ),
    _clean("import datetime\n\nday = datetime.date.fromisoformat('1994-06-15')\n", "date-parsing"),
    _fires("unseeded-random-call", "import random\n\ndelay = random.random()\n", "module-level-random"),
    _fires("unseeded-random-call", "from random import randint\n\nvalue = randint(1, 6)\n", "from-import"),
    _clean("import random\n\nrng = random.Random(7)\nvalue = rng.random()\n", "seeded-instance"),
    _fires(
        "builtin-hash-in-placement",
        "def owner(key, devices):\n    return devices[hash(key) % len(devices)]\n",
        "placement",
    ),
    _fires("builtin-hash-in-placement", "bucket = hash('key')\n", "module-level"),
    _clean("from repro.placement import hash\n\nbucket = hash('key')\n", "imported-hash"),
    _clean(
        """
        class Key:
            def __hash__(self):
                return hash((self.a, self.b))
        """,
        "dunder-hash",
    ),
    _fires("unsorted-directory-listing", "import os\n\nnames = os.listdir('.')\n", "listdir"),
    _fires(
        "unsorted-directory-listing",
        "def scan(path):\n    return [entry for entry in path.iterdir()]\n",
        "iterdir-method",
    ),
    _fires("unsorted-directory-listing", "from os import listdir as ls\n\nnames = ls('.')\n", "aliased-from-import"),
    _clean("import os\n\nnames = sorted(os.listdir('.'))\n", "sorted-listing"),
    _fires("float-time-equality", "ready = env.now == finish_time\n", "now-equality"),
    _fires("float-time-equality", "same = job.deadline != other.deadline\n", "attribute-inequality"),
    _clean("late = env.now > deadline\n", "time-ordering"),
    _clean("matched = kind == 'transfer'\n", "string-comparison"),
    _fires("mutable-default-argument", "def f(items=[]):\n    return items\n", "list-default"),
    pytest.param(
        "def f(mapping={}, *, members=set()):\n    return mapping, members\n",
        ["mutable-default-argument"] * 2,
        id="mutable-default-argument-dict-and-set-call",
    ),
    _fires("mutable-default-argument", "handler = lambda seen=[]: seen\n", "lambda-default"),
    _clean("def f(items=None, pair=()):\n    return items, pair\n", "none-and-tuple-defaults"),
    _fires("bare-or-broad-except", "try:\n    work()\nexcept:\n    pass\n", "bare-except"),
    _fires("bare-or-broad-except", "try:\n    work()\nexcept BaseException:\n    pass\n", "base-exception"),
    _clean("try:\n    work()\nexcept ValueError:\n    pass\n", "narrow-except"),
    _fires("non-taxonomy-raise", "raise ValueError('bad knob')\n", "builtin-raise"),
    _fires("non-taxonomy-raise", "raise TypeError\n", "bare-name-raise"),
    _fires(
        "non-taxonomy-raise",
        "try:\n    work()\nexcept KeyError as error:\n    raise RuntimeError('lost') from error\n",
        "raise-from",
    ),
    _clean(
        "from repro.exceptions import ConfigurationError\n\nraise ConfigurationError('bad knob')\n",
        "taxonomy-raise",
    ),
    _clean(
        """
        def abstract():
            raise NotImplementedError

        def forward():
            try:
                abstract()
            except Exception:
                raise
        """,
        "reraise-and-not-implemented",
    ),
    _fires("blocking-call-in-simulation", "import time\n\ndef wait():\n    time.sleep(1.0)\n", "time-sleep"),
    _fires(
        "blocking-call-in-simulation",
        "def process(env):\n    payload = open('data.bin').read()\n    yield 1.0\n",
        "open-inside-generator",
    ),
    _fires(
        "blocking-call-in-simulation",
        "import subprocess\n\nsubprocess.run(['true'])\n",
        "subprocess-run",
    ),
    _clean("def load(path):\n    return open(path).read()\n", "open-outside-generator"),
    _clean(
        """
        def process(env):
            def load(path):
                return open(path).read()

            yield 1.0
        """,
        "open-in-nested-def-of-generator",
    ),
    _fires("event-per-plain-wait", "def process(env):\n    yield env.timeout(1.0)\n", "env-timeout"),
    _fires(
        "event-per-plain-wait",
        "from repro.sim import Timeout\n\ndef process(env):\n    yield Timeout(env, 1.0)\n",
        "timeout-class",
    ),
    _fires(
        "event-per-plain-wait",
        "def process(store):\n    item = yield store.get()\n    return item\n",
        "store-get",
    ),
    _clean(
        "def process(env, store):\n    yield 1.0\n    item = yield store\n    return item\n",
        "plain-delay-and-store-wait",
    ),
    _clean(
        "def process(env, store):\n    arrival = store.get()\n"
        "    yield env.any_of([env.timeout(1.0), arrival])\n    yield cache.get(arrival.value)\n",
        "race-and-keyed-get",
    ),
    pytest.param(
        "match command:\n    case 'go':\n        pass\n",
        ["py39-floor"],
        id="py39-floor-match",
        marks=_MATCH,
    ),
    _fires("py39-floor", "pairs = zip(keys, values, strict=True)\n", "zip-strict"),
    _fires("py39-floor", "import itertools\n\nsteps = itertools.pairwise(times)\n", "pairwise"),
    _fires("py39-floor", "from itertools import pairwise\n", "pairwise-import"),
    _fires(
        "py39-floor",
        "from dataclasses import dataclass\n\n@dataclass(slots=True)\nclass Row:\n    key: int\n",
        "dataclass-slots",
    ),
    _fires(
        "py39-floor",
        "import dataclasses\n\n@dataclasses.dataclass(kw_only=True)\nclass Row:\n    key: int\n",
        "dataclass-kw-only",
    ),
    _fires("py39-floor", "from typing import TypeAlias\n", "typing-import"),
    _fires("py39-floor", "import typing\n\ndef clone(self) -> typing.Self:\n    pass\n", "typing-self"),
    _clean(
        "from dataclasses import dataclass\nfrom typing import Optional\n\n"
        "@dataclass(frozen=True)\nclass Row:\n    key: Optional[int]\n\npairs = zip(keys, values)\n",
        "py39-idioms",
    ),
]


@pytest.mark.parametrize("source, rules", SNIPPETS)
def test_checker_snippets(source, rules):
    assert [rule for _, rule in check(textwrap.dedent(source))] == rules


@pytest.mark.parametrize(
    "source",
    [
        "assert report_time == 12.5\n",
        "raise ValueError('x')\n",
        "def process(env):\n    yield env.timeout(1.0)\n",
    ],
    ids=LIBRARY_ONLY,
)
def test_library_only_rules_skip_the_tests(source):
    assert _gated("src/repro/snippet.py", source)
    assert not _gated("tests/snippet.py", source)


def test_type_ignores_only_shrink():
    """Fix the type instead: ``src/repro`` carries 9 ``# type: ignore``s."""
    ignores = [
        f"{path.relative_to(REPO_ROOT)}:{token.start[0]}"
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if token.type == tokenize.COMMENT and "type: ignore" in token.string
    ]
    assert len(ignores) <= 9, "\n".join(ignores)


def _type_checking_names(module):
    """The names ``module`` imports only for type checkers, bound by running
    its ``if TYPE_CHECKING:`` blocks."""
    namespace = {}
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            exec(compile(ast.Module(node.body, []), module.__file__, "exec"), namespace)
    return namespace


def _public_callables(module):
    """``(name, function)`` for each public function ``module`` defines and each
    ``__init__`` and public method (properties too) of its classes."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) and not name.startswith("_"):
            yield name, value
        elif inspect.isclass(value):
            for attribute, member in vars(value).items():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member) and (attribute == "__init__" or not attribute.startswith("_")):
                    yield f"{name}.{attribute}", member


def test_type_hints_resolve_for_every_public_callable():
    """What mypy is trusted for, checked at run time on each interpreter
    tier-1 runs on: ``typing.get_type_hints`` resolves the annotations of
    every public callable in ``repro.*``, a name imported only under
    ``TYPE_CHECKING`` taken from that block."""
    import repro

    modules = ["repro"] + sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))
    checked, unresolved = 0, []
    for name in modules:
        module = importlib.import_module(name)
        names = _type_checking_names(module)
        for qualified, function in _public_callables(module):
            checked += 1
            try:
                typing.get_type_hints(function, localns=names)
            except Exception as error:
                unresolved.append(f"{name}:{qualified}: {error!r}")
    assert not unresolved, "\n".join(unresolved)
    assert checked > 600


def _unused_imports(path):
    """Names a module imports and never mentions again (pyflakes F401, for
    the container that has no ruff).  A use is the bound name as an
    identifier anywhere else, or inside a string that is not a docstring —
    an ``__all__`` entry or a quoted annotation."""
    tree = ast.parse(path.read_text())
    imported = {}
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            docstrings.add(id(node.value))
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return [f"{path}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    """CI's ``ruff check src tests`` (rule F401) as a tier-1 test."""
    unused = [
        finding
        for root in ("src", "tests")
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
        if path.name != "__init__.py"
        for finding in _unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _imports_package(node, package):
    """Whether ``node`` is an import of ``package`` or of something inside it
    (``from repro import harness`` counts as ``repro.harness``)."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return False
    return any(name == package or name.startswith(package + ".") for name in names)


def test_service_never_imports_the_harness_and_nothing_defers_around_it():
    """The harness is the top layer and its table renderer a leaf: no module
    of the façade imports ``repro.harness``, so the modules that once dodged
    the ``service -> harness -> service`` cycle with function-level imports
    import at module level."""
    package = REPO_ROOT / "src" / "repro"
    upward = [
        f"{path}:{node.lineno}"
        for path in sorted((package / "service").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _imports_package(node, "repro.harness")
    ]
    assert not upward, "repro.service imports repro.harness:\n" + "\n".join(upward)
    deferred = [
        f"{path}:{node.lineno}"
        for path in (
            package / "harness" / "experiments.py",
            package / "obs" / "analysis.py",
            package / "scenarios" / "__main__.py",
        )
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if _imports_package(node, "repro")
    ]
    assert not deferred, "function-level repro imports:\n" + "\n".join(deferred)


def test_one_interval_record_one_interval_algebra_one_roster():
    """A finished run is read one way: no module under ``src/repro`` brings
    back the tuple-row ``IntervalLog``, a second ``merge_intervals`` /
    ``overlap_seconds`` pair or a per-reader ``_device_roster``."""
    defined = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(str(path.relative_to(REPO_ROOT)))
    assert defined.get("merge_intervals") == ["src/repro/cluster/metrics.py"]
    for name in ("IntervalLog", "overlap_seconds", "_device_roster"):
        assert name not in defined, f"{name} is back, in {defined[name]}"


def test_one_sharing_mechanism_for_both_executors():
    """Both executors share their work one way: ``step`` and ``fork`` are
    defined once, on ``SharedRun`` in ``core/execution.py``, a service keeps
    one ``shared_runs`` dict, and neither the pull-based join memo nor the
    MJoin-only cursor and dict it replaced is back."""
    defined = {}
    assigned = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        where = str(path.relative_to(REPO_ROOT))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(where)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defined.setdefault(target.id, []).append(where)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                assigned.add(node.attr)
    for name in ("SharedRun", "RunCursor", "SharedRuns"):
        assert defined.get(name) == ["src/repro/core/execution.py"], (name, defined.get(name))
    executors = ("src/repro/core/", "src/repro/vanilla/", "src/repro/service/")
    for name in ("step", "fork"):
        found = [where for where in defined[name] if where.startswith(executors)]
        assert found == ["src/repro/core/execution.py"], (name, found)
    for name in (
        "LocalJoin",
        "LocalJoins",
        "MJoinCursor",
        "SharedMJoins",
        "_local_join",
        "_process_locally",
        "_shared_run",
    ):
        assert name not in defined, f"{name} is back, in {defined[name]}"
    assert not assigned & {"local_joins", "mjoin_runs"}, assigned & {"local_joins", "mjoin_runs"}


def test_one_segment_layout_and_one_filter():
    """A segment is its row list and a predicate filters it one way: no
    column copy (``_columns``, ``Columns``, ``_column_values``), no
    index-based ``selection`` with its ``indices`` parameter, and neither the
    scenario process pool nor the golden diff's float tolerances is back."""
    names = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    deleted = {
        "_columns",
        "_column_names",
        "Columns",
        "_column_values",
        "selection",
        "indices",
        "ProcessPoolExecutor",
        "run_scenarios",
        "DEFAULT_RTOL",
        "DEFAULT_ATOL",
    }
    assert not names & deleted, sorted(names & deleted)


def test_one_batch_representation_on_the_arrival_path():
    """A runnable batch stays the product it is (``core/subplan.py``'s
    ``Batch``) from the tracker to the retire: the cache, the batch join and
    the state manager never flatten it into segment tuples to chain or count
    them, ``Batch.tallies`` counts segment occurrences over the pending
    flags without enumerating a combination (no ``Counter`` anywhere in
    ``core/subplan.py``), and the ``(ids, combinations)`` pair it replaced
    has no alias left."""
    core = REPO_ROOT / "src" / "repro" / "core"
    for name in ("cache.py", "njoin.py", "mjoin.py"):
        for node in ast.walk(ast.parse((core / name).read_text())):
            if isinstance(node, ast.Name):
                assert node.id not in ("chain", "Counter"), f"{name}:{node.lineno} {node.id}"
            elif isinstance(node, ast.Attribute):
                assert node.attr not in ("chain", "Counter"), f"{name}:{node.lineno} {node.attr}"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imported = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
                assert not imported & {"chain", "Counter"}, f"{name}:{node.lineno} {imported}"

    subplan = ast.parse((core / "subplan.py").read_text())
    counter_calls = [
        (owner.name, node.lineno)
        for owner in subplan.body
        for node in ast.walk(owner)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Counter"
    ]
    assert [owner for owner, _ in counter_calls] == [], counter_calls
    pair = ast.dump(ast.parse("Tuple[List[int], List[Tuple[str, ...]]]", mode="eval").body)
    for path in sorted(core.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript):
                assert ast.dump(node) != pair, f"{path.name}:{node.lineno} the tuple-list batch"


def _method(tree, class_name, method_name):
    (owner,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == class_name]
    (method,) = [n for n in owner.body if isinstance(n, ast.FunctionDef) and n.name == method_name]
    return method


def test_device_loop_has_no_per_item_generator():
    """The pull path stays flat: the device's only generator is its main
    loop (a switch, a transfer or a migration job is a timeout inside
    ``_run``, not a sub-generator per item); the per-object
    scheduler decisions build no lambda, generator expression or set copy;
    and the pull-based executor drives a query from two ``QueryRun``
    generators (``pull_each``, then ``charge`` for the join), not three per
    segment: ``execute`` is no generator of its own but returns
    ``pull_each``, so ``pull_each`` is the tenant's only generator under its
    session while objects are pulled."""
    src = REPO_ROOT / "src" / "repro"
    device = ast.parse((src / "csd" / "device.py").read_text())
    (owner,) = [
        n for n in device.body if isinstance(n, ast.ClassDef) and n.name == "ColdStorageDevice"
    ]
    generators = {
        method.name
        for method in owner.body
        if isinstance(method, ast.FunctionDef)
        and any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(method))
    }
    assert generators == {"_run"}

    scheduler = ast.parse((src / "csd" / "scheduler.py").read_text())
    for class_name, method_name in (
        ("RankBasedScheduler", "choose_next_group"),
        ("MaxQueriesScheduler", "choose_next_group"),
        ("IOScheduler", "notify_switch"),
    ):
        for node in ast.walk(_method(scheduler, class_name, method_name)):
            where = f"{class_name}.{method_name}:{getattr(node, 'lineno', 0)}"
            assert not isinstance(node, (ast.Lambda, ast.GeneratorExp)), where
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "set", f"{where} copies a set per decision"

    executor = ast.parse((src / "vanilla" / "executor.py").read_text())
    run_generators = [
        node.value.func.attr
        for node in ast.walk(executor)
        if isinstance(node, ast.YieldFrom)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and isinstance(node.value.func.value, ast.Name)
        and node.value.func.value.id == "run"
    ]
    assert run_generators == ["charge"]
    returned = _method(executor, "VanillaExecutor", "execute").body[-1]
    assert isinstance(returned, ast.Return) and isinstance(returned.value, ast.Call)
    assert ast.unparse(returned.value.func) == "run.pull_each"


#: Every ``x._private`` access under ``src/repro`` whose ``x`` is not
#: ``self`` / ``cls``, as ``file -> expressions``.  It was 54 (26 of them
#: cross-package: ``env._now``, ``completion._callbacks``, ``stats._x.value``)
#: while the kernel and the stats classes had accessor twins.  What is left
#: is module- or package-internal, apart from ``runner._build_report``; none
#: reaches into ``sim/`` or a stats object from another package.  The list
#: may only shrink: make the attribute public or move the code to its owner.
PRIVATE_ACCESS_ALLOW_LIST = {
    "bench/__init__.py": ["runner._build_report"],
    "core/subplan.py": ["batch._tallies"] * 2,
    "engine/operators/hash_join.py": ["probe._joined_rows"],
    "service/session.py": [
        "handle._mark_finished",
        "handle._mark_queued",
        "handle._mark_rejected",
        "handle._mark_running",
    ],
}


def test_private_attribute_accesses_only_shrink():
    package = REPO_ROOT / "src" / "repro"
    found = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                found.setdefault(str(path.relative_to(package)), []).append(ast.unparse(node))
    for name, accesses in found.items():
        allowed = list(PRIVATE_ACCESS_ALLOW_LIST.get(name, ()))
        for access in accesses:
            assert access in allowed, f"{name}: new private reach-in {access}"
            allowed.remove(access)
    total = sum(len(accesses) for accesses in PRIVATE_ACCESS_ALLOW_LIST.values())
    assert total == 8
    # Nothing outside ``sim/`` touches kernel internals or a stats slot.
    for name, accesses in PRIVATE_ACCESS_ALLOW_LIST.items():
        if not name.startswith("sim/"):
            assert not [a for a in accesses if "env." in a or "stats." in a or "event" in a], name


#: Public functions and methods under ``src/repro`` that nothing in
#: ``src/repro``, ``ledger/``, ``examples/`` or ``tools/`` names, with why
#: they stay: the references the tests hold the arrival path to, the
#: paper's closed forms, the scheduler views its oracle compares through
#: and documented properties of the result types.  The list may only
#: shrink: anything else only tests reach is a twin of an API the program
#: uses, and goes.
TEST_REFERENCES = {
    "Batch.combinations": "the segment tuples a batch stands for",
    "NAryJoin.execute_ordered": "the single-subplan join execute_batch is checked against",
    "ObjectCache.peek": "reads an entry without a tick, to check get_batch's accounting",
    "QueryResult.waiting_time": "documented result field (README, Simulated service)",
    "mjoin_expected_requests": "the paper's closed form for MJoin's request count",
    "AnalyticalModel.speedup": "the paper's analytical speedup, checked against runs",
    "AnalyticalModel.latency_sensitivity": "the paper's latency sensitivity, checked against runs",
    "IOScheduler.queries_on_group": "the view tests/scheduler_oracle.py is compared through",
    "IOScheduler.waiting_time": "the view tests/scheduler_oracle.py is compared through",
    "QueryHandle.done": "documented handle property (README, Sessions)",
    "QueryHandle.service_seconds": "documented handle property (README, Sessions)",
    "QueryHandle.total_seconds": "documented handle property (README, Sessions)",
    "stable_hash": "the hash the placement oracle shares with the placement",
}


def _public_functions():
    """``(file, qualified name, name)`` of every public module-level function
    and method defined under ``src/repro``, less decorated module-level
    functions (the ``@register`` scenario builders), which are reached by
    something other than their name."""
    package = REPO_ROOT / "src" / "repro"
    found = []
    for path in sorted(package.rglob("*.py")):
        filename = str(path.relative_to(package))
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if not node.decorator_list:
                    found.append((filename, node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                found += [
                    (filename, f"{node.name}.{method.name}", method.name)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not method.name.startswith("_")
                ]
    return found


def _referenced_names(paths):
    """Every name read as an identifier or attribute in ``paths``, a function
    calling itself left out."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in paths:
        visit(ast.parse(path.read_text()), frozenset())
    return found


def test_surface_is_reached_from_the_program():
    """``src/repro`` has one API, the one the program uses: a public
    function or method is referenced by name from ``src/repro``,
    ``ledger/``, ``examples/`` or ``tools/`` outside its own body, or is one
    of the :data:`TEST_REFERENCES`."""
    referenced = _referenced_names(
        path
        for directory in ("src/repro", "ledger", "examples", "tools")
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
    )
    unreached = [
        f"{filename}: {qualified}"
        for filename, qualified, name in _public_functions()
        if name not in referenced and qualified not in TEST_REFERENCES
    ]
    assert not unreached, "public functions only tests reach:\n" + "\n".join(unreached)
    # Every allow-listed function still exists: a deleted one leaves the list.
    defined = {qualified for _, qualified, _ in _public_functions()}
    assert set(TEST_REFERENCES) <= defined
    assert len(TEST_REFERENCES) <= 13
    assert all(reason for reason in TEST_REFERENCES.values())


def test_every_spec_field_has_a_declared_rule():
    """The spec-module share of what mypy is trusted for, run here: every
    class the hostile-input fuzzer walks resolves its annotations, and the
    validator has a rule for each field's hint — a hint it cannot read
    (a bare ``float``, a ``List``) raises instead of going unchecked."""
    from test_spec_fuzz import SPEC_CLASSES

    from repro.exceptions import ConfigurationError
    from repro.spec_fields import rule_for

    for cls in SPEC_CLASSES:
        hints = typing.get_type_hints(cls, include_extras=True)
        for item in dataclasses.fields(cls):
            accepts, expected = rule_for(hints[item.name])
            assert callable(accepts) and expected, f"{cls.__name__}.{item.name}"
    for unreadable in (float, typing.List[int], typing.Tuple[int, int], typing.Any):
        with pytest.raises(ConfigurationError, match="no validation rule"):
            rule_for(unreadable)


#: The ``typing`` generics ``disallow_any_generics`` refuses bare, and the
#: builtins that stand for them.
_GENERICS = {
    "Callable", "Counter", "DefaultDict", "Deque", "Dict", "FrozenSet", "Generator",
    "Iterable", "Iterator", "List", "Mapping", "MutableMapping", "Sequence", "Set",
    "Tuple", "Type", "dict", "frozenset", "list", "set", "tuple",
}


def _strict_modules():
    """The files of the strict section of ``mypy.ini`` (the one that sets
    ``disallow_untyped_defs``): a ``pkg.*`` pattern is the package and all
    below it."""
    import configparser

    config = configparser.ConfigParser()
    config.read(REPO_ROOT / "mypy.ini")
    (section,) = [
        name for name in config.sections() if config[name].getboolean("disallow_untyped_defs")
    ]
    files = []
    for pattern in section[len("mypy-"):].split(","):
        base = REPO_ROOT / "src" / Path(*pattern.rstrip(".*").split("."))
        if pattern.endswith(".*"):
            files += sorted(base.rglob("*.py"))
        else:
            files.append(base.with_suffix(".py"))
    assert files and all(path.exists() for path in files), files
    return files


def _bare_generics(annotation, generics):
    """Generic names in ``annotation`` (a string one parsed) with no subscript."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    subscripted = {id(node.value) for node in ast.walk(annotation) if isinstance(node, ast.Subscript)}
    return [
        ast.unparse(node)
        for node in ast.walk(annotation)
        if isinstance(node, (ast.Name, ast.Attribute))
        and (node.id if isinstance(node, ast.Name) else node.attr) in generics
        and id(node) not in subscripted
    ]


def test_strict_profile_modules_are_fully_annotated():
    """What mypy's strict section asks of its modules, checked without mypy:
    every ``def`` (nested ones too) annotates each parameter but ``self`` /
    ``cls`` and its return, and no annotation names a generic bare — a
    ``typing`` one or a ``Generic`` class of the repo's."""
    modules = _strict_modules()
    trees = {path: ast.parse(path.read_text()) for path in modules}
    generics = set(_GENERICS)
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(trees.get(path) or ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Subscript) and ast.unparse(base.value) == "Generic"
                for base in node.bases
            ):
                generics.add(node.name)
    incomplete, bare = [], []
    for path, tree in trees.items():
        where = path.relative_to(REPO_ROOT)
        for node in ast.walk(tree):
            annotations = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                parameters = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                parameters += [arg for arg in (arguments.vararg, arguments.kwarg) if arg]
                for arg in parameters:
                    if arg.annotation is None and arg.arg not in ("self", "cls"):
                        incomplete.append(f"{where}:{node.lineno} {node.name}({arg.arg})")
                    annotations.append(arg.annotation)
                if node.returns is None:
                    incomplete.append(f"{where}:{node.lineno} {node.name} -> ?")
                annotations.append(node.returns)
            elif isinstance(node, ast.AnnAssign):
                annotations.append(node.annotation)
            for annotation in annotations:
                if annotation is not None:
                    bare += [f"{where}:{node.lineno} {name}" for name in _bare_generics(annotation, generics)]
    package = REPO_ROOT / "src" / "repro"
    assert {package / "core/execution.py", package / "vanilla/executor.py"} <= set(modules)
    assert not incomplete, "unannotated:\n" + "\n".join(incomplete)
    assert not bare, "bare generics:\n" + "\n".join(bare)


def _annotations(tree):
    """Every annotation node in ``tree``: parameters, returns, ``x: T``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            parameters = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            parameters += [arg for arg in (arguments.vararg, arguments.kwarg) if arg]
            yield from (arg.annotation for arg in parameters if arg.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def test_no_pep_604_unions_in_annotations():
    """CI's oldest Python is 3.9: ``typing.get_type_hints`` raises on an
    ``X | Y`` annotation there, so ``src/repro`` spells them ``Optional`` /
    ``Union``."""
    unions = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for annotation in _annotations(ast.parse(path.read_text())):
            where = f"{path.relative_to(REPO_ROOT)}:{annotation.lineno}"
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                annotation = ast.parse(annotation.value, mode="eval").body
            if any(
                isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
                for node in ast.walk(annotation)
            ):
                unions.append(where)
    assert not unions, unions


def _definitions():
    """``module:Qualified.name`` -> its ``def`` / ``class`` node, for ``src/repro``."""
    package = REPO_ROOT / "src"
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                found[f"{module}:{name}"] = child
                visit(child, module, f"{name}.")

    for path in sorted((package / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        visit(ast.parse(path.read_text()), module, "")
    return found


def test_test_only_code_stays_deleted():
    """What only the tests ran is gone (``tools/census.py``'s program
    section finds it): the kernel's ``step``/``peek`` twin, the operators no
    plan builds, introspection only tests read, 16 parameters no program
    caller sets, the deferred submit's machinery, the per-workload lookups,
    and the row validators, per-row predicate evaluators, drain-all hatches
    and knobs the program takes one way (the census's parameter section).
    ``Environment.run`` waits for an event."""
    definitions = _definitions()
    by_name = {}
    for qualified in definitions:
        by_name.setdefault(qualified.split(":")[1], []).append(qualified)
    deleted = [
        "Environment.step",
        "Environment.peek",
        "Filter",
        "Project",
        "SegmentScan",
        "ObjectStore.keys",
        "ObjectStore.tenants",
        "ObjectStore.__len__",
        "ObjectStore.__contains__",
        "TableSchema.column",
        "TableSchema.__contains__",
        "TableSchema.__len__",
        "TableSchema.__eq__",
        "TableSchema.__hash__",
        "Catalog.__contains__",
        "Catalog.__len__",
        "Segment.columns",
        "Segment.column_names",
        "Segment.__iter__",
        "Relation.__iter__",
        "Operator.__iter__",
        "OperatorStats.total",
        "SubplanTracker.num_pending",
        "AggregateState.num_groups",
        "ExecutionResult.num_rows",
        "ExecutionResult.processing_time",
        "DiskGroupLayout.__len__",
        "Store.__len__",
        "ObjectCache.__len__",
        "FleetMembership.device_config",
        "FleetMembership.heterogeneous",
        "StorageService.membership",
        "TieringCostModel.cost_per_gb",
        "QueryHandle._mark_submitted",
        "Session._deliver_at",
        "Session._notify",
        "FleetMembership._join_config",
        "resolve_scale",
        # Replaced by what sped them up, not kept beside it: the kernel
        # dispatches inline, a layout grows in one all-or-nothing call and
        # the token bucket refills inside its two readers.
        "Event._dispatch",
        "DiskGroupLayout.add_object",
        "MigrationTokenBucket._refill",
        "MigrationTokenBucket.seconds_until_token",
        # Events enqueue themselves, a scan-only arrival asks the tracker's
        # bound ``pending_count_of`` and a session runs its queries inline.
        "Environment._schedule_event",
        "SubplanTracker.object_in_pending",
        "ObjectCache.__contains__",
        "Session._execute",
        # Only tier-1 entered them: the row validators, the per-row
        # predicate evaluators (tests/predicate_oracle.py has the
        # reference), a neutral predicate nothing builds, the readable rank
        # (tests/scheduler_oracle.py), a single ``get`` (the cache tests'
        # reference) and the service's drain-all hatch.
        "TableSchema.validate_row",
        "DataType.validate",
        "DataType.python_types",
        "Predicate.evaluate",
        "Comparison.evaluate",
        "Between.evaluate",
        "InList.evaluate",
        "And.evaluate",
        "Or.evaluate",
        "Not.evaluate",
        "TruePredicate",
        "conjunction",
        "RankBasedScheduler.rank",
        "ObjectCache.get",
        "StorageService.drain_pending",
        # A golden mismatch is read through ``diff_values``' paths alone, and
        # whether a tracker has a subplan left is a test-side reading
        # (``tests/mjoin_oracle.py``'s ``tracker_has_pending``).
        "unified_diff_summary",
        "SubplanTracker.has_pending",
        # Per-call draws, replaced by the per-column drawers built once
        # (``integers``, ``decimals``, ``choices``, ``weighted_choices``,
        # ``booleans``, ``dates``): no twin stays beside them.
        "DataGenerator.integer",
        "DataGenerator.decimal",
        "DataGenerator.choice",
        "DataGenerator.weighted_choice",
        "DataGenerator.boolean",
        "DataGenerator.date_ordinal",
    ]
    back = {name: by_name[name] for name in deleted if name in by_name}
    assert not back, back
    parameters = {
        "repro.engine.operators.sort:Sort.__init__": "descending",
        "repro.engine.operators.scan:SequentialScan.__init__": "segments",
        "repro.engine.predicate:between": "inclusive",
        "repro.sim.environment:Environment.__init__": "initial_time",
        "repro.sim.environment:Environment.timeout": "value",
        "repro.sim.events:Timeout.__init__": "value",
        "repro.cluster.cluster:ClusterResult.execution_times": "client_id",
        "repro.obs.tracer:Tracer.add_event": "at",
        "repro.tiering.cost_model:TieringCostModel.figure3_rows": "price_points",
        "repro.scenarios.golden:assert_dict_matches_golden": "rtol atol",
        "repro.scenarios.golden:diff_values": "rtol atol",
        "repro.scenarios.runner:run_one": "trace",
        "repro.harness.runner:_render_value": "indent",
        "repro.service.session:Session.submit": "at",
        "repro.service.service:StorageService.__init__": "admission",
        "repro.engine.relation:Relation.from_rows": "validate",
        "repro.csd.device:MigrationTokenBucket.__init__": "burst",
        "repro.csd.scheduler:_ArrivalIndexedScheduler.__init__": "ordering",
        "repro.fleet.placement:ConsistentHashPlacement.__init__": "virtual_nodes",
        "repro.core.executor:SkipperExecutor.__init__": "device",
        "repro.vanilla.executor:VanillaExecutor.__init__": "device",
    }
    for qualified, names in parameters.items():
        arguments = definitions[qualified].args
        present = {arg.arg for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs}
        assert not present & set(names.split()), (qualified, present & set(names.split()))
    outcome_fields = {
        node.target.id
        for node in definitions["repro.scenarios.runner:ScenarioOutcome"].body
        if isinstance(node, ast.AnnAssign)
    }
    assert "trace_json" not in outcome_fields
    run = definitions["repro.sim.environment:Environment.run"].args
    assert [arg.arg for arg in run.args] == ["self", "until"]
    assert ast.unparse(run.args[1].annotation) == "Event"
    assert not run.defaults
