"""Tests of the ledger itself (not tier-1): ``python -m pytest ledger/tests -q``.

One ``run.py --quick`` pass over all four workloads (~10x smaller inputs,
about 20 s) feeds most of the checks; the rest work on synthetic documents.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parent
sys.path.insert(0, str(LEDGER))

import compare  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), *arguments],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
        check=False,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """(stdout, results document) of one quick pass over every workload."""
    output = tmp_path_factory.mktemp("ledger") / "results.json"
    completed = _run("--quick", "--seconds", "0", "--output", str(output))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return completed.stdout, json.loads(output.read_text())


def test_benchmark_declaration_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["ledger"]
    assert 2 <= len(WORKLOADS) <= 8
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in BENCHMARK["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    setup = next(entry for entry in BENCHMARK["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in BENCHMARK["end_to_end"])


def test_printed_metrics_are_exactly_the_declared_ones(quick):
    stdout, _document = quick
    declared = {
        entry["name"]: entry["unit"]
        for key in ("end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    }
    # failed_share is printed but cannot be declared: the contract wants
    # end-to-end metrics that are never 0 and carries failures in
    # "failed"/"attempted" instead.
    declared["failed_share"] = "ratio"
    for workload in WORKLOADS:
        printed = {}
        for line in stdout.splitlines():
            parts = line.split(" ")
            if len(parts) == 4 and parts[0] == workload:
                printed.setdefault(parts[1], parts[3])
        assert printed == declared, workload
        assert all(NAME.match(name) for name in printed)


def test_layer_shares_sum_to_one_and_little_is_unowned(quick):
    _stdout, document = quick
    for workload in WORKLOADS:
        layer = document["workloads"][workload]["per_layer"]
        shares = [stat["value"] for name, stat in layer.items() if name.endswith(".share")]
        assert len(shares) == 12
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)
        assert layer["other.share"]["value"] < 0.05


def test_quick_run_is_correct_and_records_the_host(quick):
    _stdout, document = quick
    assert set(document["host"]) == {"nproc", "python", "platform"}
    for workload in WORKLOADS:
        entry = document["workloads"][workload]
        assert entry["correct"] and entry["end_to_end"]["failed_share"]["value"] == 0
        assert entry["repetitions"] >= 5
        assert {span["name"] for span in entry["spans"]} >= {
            "workloads.catalog_s", "service.build_s", "service.run_s", "scenarios.report_s",
        }


def test_wrong_reference_fails_the_run():
    completed = _run(
        "--workload", "skipper-shared-csd", "--trace", "0", "--quick", "--seconds", "0",
        "--corrupt-reference",
    )
    assert completed.returncode != 0
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "failed_share 1.0" in completed.stdout


def test_drift_from_the_pinned_results_is_reported():
    expected = json.loads(run.EXPECTED_PATH.read_text())
    pins = expected["sizes"]["quick"]["keys-fanout"]
    seed = expected["seed"]
    assert run._expected_drift(seed, "quick", "keys-fanout", pins) == []
    assert run._expected_drift(seed + 1, "quick", "keys-fanout", {}) == []
    drifted = dict(pins, sim_makespan_s=pins["sim_makespan_s"] + 1.0)
    (message,) = run._expected_drift(seed, "quick", "keys-fanout", drifted)
    assert "sim_makespan_s drifted" in message


def test_compare_passes_an_identical_pair_and_flags_a_regression(quick, tmp_path, capsys):
    _stdout, document = quick
    base = tmp_path / "base.json"
    base.write_text(json.dumps(document))
    assert compare.main([str(base), str(base)]) == 0
    assert "0 regressed" in capsys.readouterr().out

    slower = copy.deepcopy(document)
    wall = slower["workloads"]["vanilla-pull"]["end_to_end"]["wall_s"]
    for key in ("value", "q1", "q3", "min", "max"):
        wall[key] *= 1.2
    candidate = tmp_path / "slower.json"
    candidate.write_text(json.dumps(slower))
    assert compare.main([str(base), str(candidate)]) == 1
    regressed = [
        row
        for row in compare.compare(document, slower, BENCHMARK["end_to_end"])
        if row["verdict"] == "regressed"
    ]
    assert [(row["workload"], row["metric"]) for row in regressed] == [("vanilla-pull", "wall_s")]


def test_compare_flags_any_change_in_deterministic_results(quick):
    _stdout, document = quick
    changed = copy.deepcopy(document)
    changed["workloads"]["fleet-churn"]["pins"]["fleet.keys_moved"] += 1
    rows = compare.compare(document, changed, BENCHMARK["end_to_end"])
    (row,) = [row for row in rows if row["verdict"] == "regressed"]
    assert (row["workload"], row["differing"]) == ("fleet-churn", ["fleet.keys_moved"])
