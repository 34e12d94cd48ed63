"""Tests for the determinism & safety static-analysis suite.

Every shipped rule gets fixture snippets that fire it, snippets that must
not, and a suppressed variant; the CLI's JSON document is schema-checked;
and a self-clean test asserts the analyzer passes over the repo at HEAD.
"""

import ast
import dataclasses
import json
import re
import textwrap
import typing
from pathlib import Path

import pytest

from repro.analysis.cli import analyze_paths, main
from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig, RuleScope
from repro.analysis.engine import analyze_source, parse_suppressions
from repro.analysis.reporting import DOCUMENT_SCHEMA_VERSION, build_document
from repro.analysis.rules import ALL_RULES, build_rules, rules_by_code

REPO_ROOT = Path(__file__).resolve().parents[1]

SIM_PATH = "src/repro/sim/snippet.py"
FLEET_PATH = "src/repro/fleet/snippet.py"
TEST_PATH = "tests/snippet.py"


def analyze(source, rel_path=SIM_PATH, config=DEFAULT_CONFIG):
    rules = [
        rule for rule in build_rules() if config.rule_active(rule.code, rel_path)
    ]
    known = sorted(rules_by_code()) + ["RPR000", "RPR999"]
    return analyze_source(
        textwrap.dedent(source), rel_path, rules, known_codes=known
    )


def active_codes(findings):
    return [finding.code for finding in findings if not finding.suppressed]


def suppressed_codes(findings):
    return [finding.code for finding in findings if finding.suppressed]


class TestUnorderedSetIteration:
    def test_for_over_set_literal_fires(self):
        findings = analyze("for item in {1, 2, 3}:\n    print(item)\n")
        assert active_codes(findings) == ["RPR001"]

    def test_for_over_inferred_set_name_fires(self):
        source = """
        pending = set(["a", "b"])
        for item in pending:
            print(item)
        """
        assert active_codes(analyze(source)) == ["RPR001"]

    def test_set_typed_parameter_fires(self):
        source = """
        from typing import Set

        def assemble(keys: Set[str]):
            return [key for key in keys]
        """
        assert active_codes(analyze(source)) == ["RPR001"]

    def test_set_algebra_result_fires(self):
        source = """
        alive = set(["a"])
        lost = set(["b"])
        for device in alive - lost:
            print(device)
        """
        assert active_codes(analyze(source)) == ["RPR001"]

    def test_list_materialisation_fires(self):
        assert active_codes(analyze("order = list({1, 2})\n")) == ["RPR001"]

    def test_sorted_set_is_clean(self):
        source = """
        pending = set(["a", "b"])
        for item in sorted(pending):
            print(item)
        """
        assert active_codes(analyze(source)) == []

    def test_reassigned_name_is_clean(self):
        source = """
        items = set(["a"])
        items = ["a"]
        for item in items:
            print(item)
        """
        assert active_codes(analyze(source)) == []

    def test_suppression_with_reason(self):
        source = (
            "counts = {k: 0 for k in set(['a'])}"
            "  # repro: noqa[RPR001] reason=order never observed\n"
        )
        findings = analyze(source)
        assert active_codes(findings) == []
        assert suppressed_codes(findings) == ["RPR001"]
        assert findings[0].suppression_reason == "order never observed"


class TestWallClockCall:
    def test_time_time_fires(self):
        source = """
        import time

        def stamp():
            return time.time()
        """
        assert active_codes(analyze(source)) == ["RPR002"]

    def test_aliased_import_fires(self):
        source = """
        import time as clock

        started = clock.perf_counter()
        """
        assert active_codes(analyze(source)) == ["RPR002"]

    def test_datetime_now_fires(self):
        source = """
        from datetime import datetime

        stamp = datetime.now()
        """
        assert active_codes(analyze(source)) == ["RPR002"]

    def test_simulated_clock_is_clean(self):
        source = """
        def observe(env):
            return env.now
        """
        assert active_codes(analyze(source)) == []

    def test_date_parsing_is_clean(self):
        source = """
        import datetime

        day = datetime.date.fromisoformat("1994-06-15")
        """
        assert active_codes(analyze(source)) == []

    def test_bench_harness_is_scoped_out(self):
        source = """
        import time

        started = time.perf_counter()
        """
        assert active_codes(analyze(source, rel_path="src/repro/bench/__init__.py")) == []

    def test_suppressed(self):
        source = (
            "import time\n"
            "started = time.time()  # repro: noqa[RPR002] reason=wall-clock budget\n"
        )
        findings = analyze(source)
        assert active_codes(findings) == []
        assert suppressed_codes(findings) == ["RPR002"]


class TestUnseededRandomCall:
    def test_module_level_random_fires(self):
        source = """
        import random

        delay = random.random()
        """
        assert active_codes(analyze(source)) == ["RPR003"]

    def test_from_import_fires(self):
        source = """
        from random import randint

        value = randint(1, 6)
        """
        assert active_codes(analyze(source)) == ["RPR003"]

    def test_seeded_instance_is_clean(self):
        source = """
        import random

        rng = random.Random(7)
        value = rng.random()
        """
        assert active_codes(analyze(source)) == []

    def test_suppressed(self):
        source = (
            "import random\n"
            "x = random.random()  # repro: noqa[RPR003] reason=jitter outside goldens\n"
        )
        assert active_codes(analyze(source)) == []


class TestBuiltinHashInPlacement:
    def test_hash_in_fleet_code_fires(self):
        source = """
        def owner(key, devices):
            return devices[hash(key) % len(devices)]
        """
        assert active_codes(analyze(source, rel_path=FLEET_PATH)) == ["RPR004"]

    def test_dunder_hash_is_exempt(self):
        source = """
        class Key:
            def __hash__(self):
                return hash((self.a, self.b))
        """
        assert active_codes(analyze(source, rel_path=FLEET_PATH)) == []

    def test_engine_code_is_out_of_scope(self):
        source = "bucket = hash('key')\n"
        assert active_codes(analyze(source, rel_path="src/repro/engine/schema.py")) == []

    def test_suppressed(self):
        source = (
            "bucket = hash('key')"
            "  # repro: noqa[RPR004] reason=process-local bucketing only\n"
        )
        findings = analyze(source, rel_path=FLEET_PATH)
        assert active_codes(findings) == []
        assert suppressed_codes(findings) == ["RPR004"]


class TestUnsortedDirectoryListing:
    def test_listdir_fires(self):
        source = """
        import os

        names = os.listdir(".")
        """
        assert active_codes(analyze(source)) == ["RPR005"]

    def test_iterdir_method_fires(self):
        source = """
        def scan(path):
            return [entry for entry in path.iterdir()]
        """
        assert active_codes(analyze(source)) == ["RPR005"]

    def test_sorted_listing_is_clean(self):
        source = """
        import os

        names = sorted(os.listdir("."))
        """
        assert active_codes(analyze(source)) == []

    def test_suppressed(self):
        source = (
            "import os\n"
            "names = os.listdir('.')  # repro: noqa[RPR005] reason=order folded by caller\n"
        )
        assert active_codes(analyze(source)) == []


class TestFloatTimeEquality:
    def test_now_equality_fires_as_warning(self):
        findings = analyze("ready = env.now == finish_time\n")
        assert active_codes(findings) == ["RPR101"]
        assert findings[0].severity == "warning"

    def test_ordering_is_clean(self):
        assert active_codes(analyze("late = env.now > deadline\n")) == []

    def test_string_comparison_is_clean(self):
        assert active_codes(analyze("matched = kind == 'transfer'\n")) == []

    def test_tests_are_scoped_out(self):
        source = "assert report_time == 12.5\n"
        assert active_codes(analyze(source, rel_path=TEST_PATH)) == []

    def test_suppressed(self):
        source = (
            "exact = start_seconds == 0.0"
            "  # repro: noqa[RPR101] reason=zero is exactly representable\n"
        )
        assert active_codes(analyze(source)) == []


class TestMutableDefaultArgument:
    def test_list_default_fires(self):
        assert active_codes(analyze("def f(items=[]):\n    return items\n")) == [
            "RPR102"
        ]

    def test_dict_and_set_call_defaults_fire(self):
        source = """
        def f(mapping={}, *, members=set()):
            return mapping, members
        """
        assert active_codes(analyze(source)) == ["RPR102", "RPR102"]

    def test_none_and_tuple_defaults_are_clean(self):
        source = """
        def f(items=None, pair=()):
            return items, pair
        """
        assert active_codes(analyze(source)) == []

    def test_suppressed(self):
        source = (
            "def f(items=[]):"
            "  # repro: noqa[RPR102] reason=sentinel never mutated\n"
            "    return items\n"
        )
        assert active_codes(analyze(source)) == []


class TestBareOrBroadExcept:
    def test_bare_except_fires(self):
        source = """
        try:
            work()
        except:
            pass
        """
        assert active_codes(analyze(source)) == ["RPR103"]

    def test_base_exception_fires(self):
        source = """
        try:
            work()
        except BaseException:
            pass
        """
        assert active_codes(analyze(source)) == ["RPR103"]

    def test_narrow_except_is_clean(self):
        source = """
        try:
            work()
        except ValueError:
            pass
        """
        assert active_codes(analyze(source)) == []

    def test_suppressed(self):
        source = (
            "try:\n"
            "    work()\n"
            "except BaseException:  # repro: noqa[RPR103] reason=must fail the event\n"
            "    pass\n"
        )
        findings = analyze(source)
        assert active_codes(findings) == []
        assert suppressed_codes(findings) == ["RPR103"]


class TestNonTaxonomyRaise:
    def test_builtin_raise_fires(self):
        source = "raise ValueError('bad knob')\n"
        assert active_codes(analyze(source)) == ["RPR104"]

    def test_bare_name_raise_fires(self):
        source = "raise TypeError\n"
        assert active_codes(analyze(source)) == ["RPR104"]

    def test_taxonomy_raise_is_clean(self):
        source = """
        from repro.exceptions import ConfigurationError

        raise ConfigurationError("bad knob")
        """
        assert active_codes(analyze(source)) == []

    def test_reraise_and_not_implemented_are_clean(self):
        source = """
        def abstract():
            raise NotImplementedError

        def forward():
            try:
                abstract()
            except Exception:
                raise
        """
        assert active_codes(analyze(source)) == []

    def test_tests_are_scoped_out(self):
        assert active_codes(analyze("raise ValueError('x')\n", rel_path=TEST_PATH)) == []

    def test_suppressed(self):
        source = (
            "raise RuntimeError('boom')"
            "  # repro: noqa[RPR104] reason=interpreter-level guard\n"
        )
        assert active_codes(analyze(source)) == []


class TestBlockingCallInSimulation:
    def test_time_sleep_fires(self):
        source = """
        import time

        def wait():
            time.sleep(1.0)
        """
        assert active_codes(analyze(source)) == ["RPR105"]

    def test_open_inside_generator_fires(self):
        source = """
        def process(env):
            payload = open("data.bin").read()
            yield env.timeout(1.0)
        """
        assert active_codes(analyze(source)) == ["RPR105"]

    def test_open_outside_generator_is_clean(self):
        source = """
        def load(path):
            return open(path).read()
        """
        assert active_codes(analyze(source)) == []

    def test_env_timeout_is_clean(self):
        source = """
        def process(env):
            yield env.timeout(1.0)
        """
        assert active_codes(analyze(source)) == []

    def test_suppressed(self):
        source = (
            "import time\n"
            "time.sleep(0.1)  # repro: noqa[RPR105] reason=rate-limit a live probe\n"
        )
        assert active_codes(analyze(source)) == []


class TestSuppressionMachinery:
    def test_noqa_without_codes_is_malformed(self):
        findings = analyze("x = 1  # repro: noqa\n")
        assert active_codes(findings) == ["RPR000"]

    def test_noqa_without_reason_is_malformed(self):
        findings = analyze("x = {1} | {2}  # repro: noqa[RPR001]\n")
        assert "RPR000" in active_codes(findings)

    def test_unknown_code_is_malformed(self):
        findings = analyze("x = 1  # repro: noqa[RPR777] reason=nope\n")
        assert active_codes(findings) == ["RPR000"]

    def test_noqa_on_other_line_does_not_suppress(self):
        source = (
            "# repro: noqa[RPR002] reason=wrong line\n"
            "import time\n"
            "started = time.time()\n"
        )
        assert active_codes(analyze(source)) == ["RPR002"]

    def test_multiple_codes_one_comment(self):
        source = (
            "import time\n"
            "x = [t for t in {time.time()}]"
            "  # repro: noqa[RPR001,RPR002] reason=fixture exercising both\n"
        )
        findings = analyze(source)
        assert active_codes(findings) == []
        assert sorted(suppressed_codes(findings)) == ["RPR001", "RPR002"]

    def test_docstring_mentioning_noqa_is_ignored(self):
        source = '"""Docs show `# repro: noqa[RPRnnn] reason=...` usage."""\n'
        assert parse_suppressions(textwrap.dedent(source)) == []
        assert analyze(source) == []

    def test_syntax_error_reports_parse_error(self):
        findings = analyze("def broken(:\n")
        assert [finding.code for finding in findings] == ["RPR999"]


class TestConfigScoping:
    def test_include_patterns_limit_activation(self):
        config = AnalysisConfig({"RPR104": RuleScope(include=("src/repro/*",))})
        assert config.rule_active("RPR104", "src/repro/sim/events.py")
        assert not config.rule_active("RPR104", "tests/test_sim.py")

    def test_exclude_patterns_carve_out(self):
        config = AnalysisConfig({"RPR002": RuleScope(exclude=("src/repro/bench/*",))})
        assert not config.rule_active("RPR002", "src/repro/bench/__init__.py")
        assert config.rule_active("RPR002", "src/repro/sim/environment.py")

    def test_unknown_rule_is_active_everywhere(self):
        config = AnalysisConfig({})
        assert config.rule_active("RPR001", "anything/at/all.py")


class TestCliAndDocument:
    def _write_tree(self, tmp_path, body):
        module = tmp_path / "src" / "repro" / "demo" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text(body)
        return module

    def test_json_document_schema(self, tmp_path, capsys):
        self._write_tree(tmp_path, "import time\nstarted = time.time()\n")
        output = tmp_path / "findings.json"
        exit_code = main(
            [
                str(tmp_path / "src"),
                "--rootdir",
                str(tmp_path),
                "--format",
                "json",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 1
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(output.read_text())
        assert printed == written
        assert printed["schema_version"] == DOCUMENT_SCHEMA_VERSION
        assert printed["tool"] == "repro.analysis"
        assert printed["files_scanned"] == 1
        assert printed["counts"]["active"] == 1
        assert printed["counts"]["errors"] == 1
        assert {rule["code"] for rule in printed["rules"]} == {
            rule.code for rule in ALL_RULES
        }
        (finding,) = printed["findings"]
        assert finding["code"] == "RPR002"
        assert finding["path"] == "src/repro/demo/mod.py"
        assert finding["line"] == 2
        assert finding["suppressed"] is False
        assert set(finding) == {
            "code",
            "name",
            "severity",
            "path",
            "line",
            "col",
            "message",
            "suppressed",
            "suppression_reason",
        }

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self._write_tree(tmp_path, "value = 1\n")
        assert main([str(tmp_path / "src"), "--rootdir", str(tmp_path)]) == 0

    def test_warning_fails_only_under_strict(self, tmp_path, capsys):
        self._write_tree(tmp_path, "exact = env.now == finish_time\n")
        args = [str(tmp_path / "src"), "--rootdir", str(tmp_path)]
        assert main(args) == 0
        assert main(args + ["--strict"]) == 1

    def test_list_rules_names_every_code(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out
            assert rule.name in out

    def test_document_is_deterministic(self, tmp_path):
        self._write_tree(
            tmp_path, "import time\nstarted = time.time()\nimport random\nr = random.random()\n"
        )
        findings_a, files_a = analyze_paths([tmp_path / "src"], tmp_path)
        findings_b, files_b = analyze_paths([tmp_path / "src"], tmp_path)
        doc_a = build_document(findings_a, ["src"], files_a, strict=True)
        doc_b = build_document(findings_b, ["src"], files_b, strict=True)
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)
        assert [f["line"] for f in doc_a["findings"]] == sorted(
            f["line"] for f in doc_a["findings"]
        )


class TestSelfClean:
    def test_repo_is_clean_at_head(self, capsys):
        exit_code = main(
            [
                str(REPO_ROOT / "src"),
                str(REPO_ROOT / "tests"),
                "--strict",
                "--rootdir",
                str(REPO_ROOT),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0, f"analyzer found violations at HEAD:\n{out}"

    def test_deliberate_suppressions_carry_reasons(self):
        findings, _files = analyze_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"], REPO_ROOT
        )
        suppressed = [finding for finding in findings if finding.suppressed]
        assert suppressed, "expected the documented deliberate suppressions"
        for finding in suppressed:
            assert finding.suppression_reason


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


def test_one_batch_representation_on_the_arrival_path():
    """A runnable batch stays the product it is (``core/subplan.py``'s
    ``Batch``) from the tracker to the retire: the cache, the batch join and
    the state manager never flatten it into segment tuples to chain or count
    them, the one count of segment occurrences is ``Batch.tallies``, and the
    ``(ids, combinations)`` pair it replaced has no alias left."""
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
    assert [owner for owner, _ in counter_calls] == ["Batch"], counter_calls
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
    segment."""
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
    assert sorted(run_generators) == ["charge", "pull_each"]


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
        "handle._mark_submitted",
        "handle._mark_submitted",
    ],
    "sim/environment.py": ["batch[0]._dispatch"] * 2 + ["event._dispatch"] * 2,
    "sim/events.py": ["env._schedule_event"] + ["self.env._schedule_event"] * 3,
    "sim/process.py": ["self.env._schedule_event"],
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
    assert total == 19
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
    "rank_fairness_bound": "the paper's closed form for the rank-based scheduler's bound",
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
    and method defined under ``src/repro``, less the two kinds reached by
    something other than their name: decorated module-level functions (the
    ``@register`` scenario builders) and ``visit_*`` methods (AST dispatch)."""
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
                    and not method.name.startswith(("_", "visit_"))
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
    assert len(TEST_REFERENCES) <= 14
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
