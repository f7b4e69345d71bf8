"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

It checks that every metric BENCHMARK.json names is printed with its unit,
that the output check fails a run whose outputs were corrupted (a copy of
the outputs is corrupted, never the program), and that run.py refuses to
report anything from a directory that holds no program.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run_tiny(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, plan=TINY) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _assert_metrics(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(capsys, workload):
    result = _run_tiny(capsys, workload, trace=0)
    _assert_metrics(result, _spec()["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_process_times_are_scaled_by_the_bare_start(capsys):
    argv = ["--workload", "cli-small", "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert run.main(argv, plan=TINY) == 0
    record_line, result_line = capsys.readouterr().out.strip().splitlines()[-2:]
    record = json.loads(record_line)["run_record"]
    metrics = json.loads(result_line)["metrics"]
    bare = record["bare_start"]
    assert bare["scale"] == pytest.approx(run.REFERENCE_START_S / bare["median_s"])
    assert set(record["wall_metrics"]) == {"latency_p50_ms", "latency_tail_ms", "cold_s"}
    for name, wall in record["wall_metrics"].items():
        assert metrics[name]["value"] == pytest.approx(wall * bare["scale"]), name


def test_every_per_layer_metric_is_printed_with_its_unit(capsys):
    result = _run_tiny(capsys, "analyze-large", trace=1)
    _assert_metrics(result, _spec()["per_layer"])
    counts = {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}
    assert all(value > 0 for value in counts.values()), counts


def _corrupt(path: str) -> None:
    # Change one digit, so the file still parses but its content is wrong.
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    index = next(i for i, ch in enumerate(text) if ch.isdigit() and ch != "0")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text[:index] + "0" + text[index + 1 :])


CORRUPTED = {
    "cli-small": "estimates/analyze-json",
    "analyze-large": "n10/bounds-json",
    "simulate-grid": "two-same-sign",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_check_fails_a_corrupted_copy(tmp_path, workload):
    shutil.rmtree(workloads.workdir(workload), ignore_errors=True)
    reqs = workloads.run_one_pass(workload, 3, TINY, ROOT)
    copies = [dataclasses.replace(req, output=str(tmp_path / os.path.basename(req.output))) for req in reqs]
    for req, copy in zip(reqs, copies):
        shutil.copyfile(req.output, copy.output)

    checker = checks.OutputChecker(workload, 3, TINY, copies)
    checker.record_pass({copy.label: None for copy in copies})
    assert (checker.attempted, checker.failed) == (len(copies), 0), checker.problems

    target = next(copy for copy in copies if copy.label == CORRUPTED[workload])
    _corrupt(target.output)
    checker.record_pass({copy.label: None for copy in copies})
    assert (checker.attempted, checker.failed) == (2 * len(copies), 1)
    assert CORRUPTED[workload] in checker.problems[0]


def test_golden_digests_fail_a_mismatch_on_any_fingerprint(tmp_path, monkeypatch):
    shutil.rmtree(workloads.workdir("analyze-large"), ignore_errors=True)
    reqs = workloads.run_one_pass("analyze-large", 3, TINY, ROOT)
    digests = {req.label: checks.sha256_file(req.output) for req in reqs}
    goldens_path = tmp_path / "goldens.json"
    monkeypatch.setattr(checks, "GOLDENS_PATH", str(goldens_path))

    def one_pass(fingerprint: dict, recorded: dict) -> checks.OutputChecker:
        goldens = {"plan": TINY.name, "fingerprint": fingerprint, "digests": {"analyze-large": {"3": recorded}}}
        goldens_path.write_text(json.dumps(goldens), encoding="utf-8")
        checker = checks.OutputChecker("analyze-large", 3, TINY, reqs)
        checker.record_pass({req.label: None for req in reqs})
        assert checker.reference_source == "golden"
        return checker

    wrong = dict(digests, **{"n16/bounds-json": "0" * 64})
    for fingerprint in (checks.fingerprint(), dict(checks.fingerprint(), simd="another")):
        checker = one_pass(fingerprint, digests)
        assert (checker.attempted, checker.failed) == (len(reqs), 0), checker.problems
        # A first pass never fails byte identity; only the golden digest catches this.
        checker = one_pass(fingerprint, wrong)
        assert (checker.attempted, checker.failed) == (len(reqs), 1)
        assert "n16/bounds-json" in checker.problems[0]
    assert "another" in checker.problems[0]


def test_cross_check_fails_inconsistent_bounds(tmp_path):
    shutil.rmtree(workloads.workdir("analyze-large"), ignore_errors=True)
    reqs = workloads.run_one_pass("analyze-large", 3, TINY, ROOT)
    copies = [dataclasses.replace(req, output=str(tmp_path / os.path.basename(req.output))) for req in reqs]
    for req, copy in zip(reqs, copies):
        shutil.copyfile(req.output, copy.output)
    assert checks.cross_check("analyze-large", copies) == {}

    bounds = next(copy for copy in copies if copy.label == "n16/bounds-json")
    with open(bounds.output, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["u_max_right"] += 1
    with open(bounds.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    assert list(checks.cross_check("analyze-large", copies)) == ["n16/bounds-json"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    command = _spec()["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "cli-small", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
