"""The CI gate, ``.github/scripts/tier1_gate.py``, on synthetic JUnit reports.

Each report is written as pytest's ``--junitxml`` writes it: a failure, an
error or a skip is a child element of its ``testcase``, and an xfail is a
skip of type ``pytest.xfail``.
"""

import importlib.util
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "tier1_gate.py"
_spec = importlib.util.spec_from_file_location("tier1_gate", GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

STANDING_ID = "::".join(gate.STANDING)
FAILED = '<failure message="AssertionError: window not met">trace</failure>'
XFAIL = '<skipped type="pytest.xfail" message="ROADMAP item 2" />'


def case(classname, name, child=""):
    return f'<testcase classname="{classname}" name="{name}" time="0.01">{child}</testcase>'


def standing(child=FAILED):
    return case(*gate.STANDING, child)


def report(tmp_path, *cases, name="tier1.xml"):
    path = tmp_path / name
    path.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">'
        + "".join(cases)
        + "</testsuite></testsuites>",
        encoding="utf-8",
    )
    return str(path)


def test_the_standing_failure_alone_passes(tmp_path, capsys):
    path = report(tmp_path, standing(), case("tests.test_meta", "test_pool"))
    assert gate.problems([path]) == ([], {"failed": 1, "passed": 1})
    assert gate.main([path]) == 0
    assert capsys.readouterr().out == "1 failed, 1 passed\n"


@pytest.mark.parametrize("child, status", [
    (FAILED, "failed"),
    ('<error message="failed on setup">fixture</error>', "error"),
])
def test_any_other_failure_or_error_fails_naming_the_test(tmp_path, capsys, child, status):
    path = report(tmp_path, standing(), case("tests.test_cli", "test_version[json]", child))
    found, counts = gate.problems([path])
    assert found == [f"{status}: tests.test_cli::test_version[json]"]
    assert counts[status] == (2 if status == "failed" else 1)
    assert gate.main([path]) == 1
    assert f"{status}: tests.test_cli::test_version[json]" in capsys.readouterr().out


def test_a_plain_skip_fails_naming_the_test(tmp_path):
    skip = '<skipped type="pytest.skip" message="no mpmath" />'
    path = report(tmp_path, standing(), case("tests.test_oracles", "test_tail", skip))
    assert gate.problems([path]) == (
        ["skipped: tests.test_oracles::test_tail"], {"failed": 1, "skipped": 1}
    )


def test_an_xfail_is_counted_apart_and_passes(tmp_path, capsys):
    path = report(tmp_path, standing(), case("tests.test_meta", "test_z_crit", XFAIL))
    assert gate.problems([path]) == ([], {"failed": 1, "xfailed": 1})
    assert gate.main([path]) == 0
    assert capsys.readouterr().out == "1 failed, 1 xfailed\n"


def test_the_reports_are_read_together(tmp_path):
    first = report(tmp_path, standing(), name="a.xml")
    second = report(tmp_path, case("tests.test_meta", "test_z_crit", XFAIL), name="b.xml")
    assert gate.problems([first, second]) == ([], {"failed": 1, "xfailed": 1})


@pytest.mark.parametrize("cases, got", [
    ((standing(""),), "['passed']"),
    ((standing(XFAIL),), "['xfailed']"),
    ((standing(), standing()), "['failed', 'failed']"),
    ((), "no run"),
])
def test_the_standing_test_passing_or_missing_fails(tmp_path, cases, got):
    path = report(tmp_path, case("tests.test_meta", "test_pool"), *cases)
    found, _ = gate.problems([path])
    assert len(found) == 1 and found[0].startswith(f"{STANDING_ID}: expected one standing failure, got {got};")
    assert gate.main([path]) == 1
