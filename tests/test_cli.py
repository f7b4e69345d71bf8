"""End-to-end tests of the command-line interface, run in process."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replimeta import report
from replimeta.cli import main
from replimeta.replicability import delta_bound
from replimeta.simulation import preset_names

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _src_env():
    """The current environment with ``src`` first on PYTHONPATH, for a fresh process."""
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))

RAW_CSV = (
    "label,estimate,se\n"
    "Alpha,0.52,0.18\n"
    "Bravo,0.61,0.22\n"
    "Charlie,0.44,0.15\n"
    "Delta,0.70,0.30\n"
    "Echo,0.55,0.21\n"
)

BINARY_CSV = (
    "label,events_t,total_t,events_c,total_c\n"
    "T1,30,120,18,115\n"
    "T2,41,200,22,190\n"
    "T3,12,60,5,58\n"
    "T4,0,45,4,44\n"
)


@pytest.fixture
def raw_file(tmp_path):
    path = tmp_path / "studies.csv"
    path.write_text(RAW_CSV)
    return str(path)


@pytest.fixture
def binary_file(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_text(BINARY_CSV)
    return str(path)


class TestAnalyzeCommand:
    def test_text_happy_path(self, raw_file, capsys):
        assert main(["analyze", "--input", raw_file, "--model", "fixed"]) == 0
        out = capsys.readouterr().out
        assert "r-value" in out
        assert "pooled (fixed)" in out
        assert "details (full precision)" in out

    def test_json_structure(self, raw_file, capsys):
        assert main(["analyze", "--input", raw_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"meta", "replicability", "forest", "provenance"}
        assert payload["provenance"]["model_used"] == "fixed"
        assert payload["replicability"]["u_max_right"] >= 2

    def test_text_json_numbers_agree_to_12_digits(self, raw_file, capsys):
        main(["analyze", "--input", raw_file, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        main(["analyze", "--input", raw_file])
        text = capsys.readouterr().out
        details = dict(
            re.findall(r"^(\w+)\s+= (.+)$", text.split("details (full precision)")[1], re.M)
        )
        for key in ("pooled", "se", "p_two_sided", "q", "tau_squared"):
            assert float(details[key]) == pytest.approx(
                payload["meta"][key], rel=1e-11, abs=1e-300
            )
        assert float(details["r_value"]) == pytest.approx(
            payload["replicability"]["r_value"], rel=1e-11
        )

    @pytest.mark.parametrize("extra", [[], ["--u", "3", "--model", "auto", "--format", "json"]])
    def test_directional_p_values_computed_once_per_study(
        self, raw_file, monkeypatch, capsys, extra
    ):
        transformed = []
        rows = report._one_sided_rows

        def counting(theta, *args):
            transformed.extend(theta.tolist())
            return rows(theta, *args)

        monkeypatch.setattr(report, "_one_sided_rows", counting)
        assert main(["analyze", "--input", raw_file] + extra) == 0
        assert len(transformed) == RAW_CSV.count("\n") - 1

    def test_svg_output_file(self, raw_file, tmp_path, capsys):
        out = tmp_path / "plot.svg"
        code = main(["analyze", "--input", raw_file, "--format", "svg", "--output", str(out)])
        assert code == 0
        assert out.read_text().startswith("<svg")

    def test_binary_measure(self, binary_file, capsys):
        code = main(["analyze", "--input", binary_file, "--measure", "odds_ratio",
                     "--model", "auto", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["forest"]["measure"] == "odds_ratio"
        assert payload["provenance"]["model_requested"] == "auto"

    def test_requested_u_reported(self, raw_file, capsys):
        main(["analyze", "--input", raw_file, "--u", "3", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["replicability"]["partial_conjunction"]["u"] == 3

    def test_u_out_of_range_exits_1(self, raw_file, capsys):
        assert main(["analyze", "--input", raw_file, "--u", "9"]) == 1

    def test_delta_bounds(self, raw_file, capsys):
        main(["analyze", "--input", raw_file, "--delta-bounds", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        deltas = payload["replicability"]["delta_bounds"]
        assert deltas["upper_positive"] is not None and deltas["upper_positive"] > 0
        assert deltas["lower_negative"] is None

    def test_delta_bounds_follow_u(self, raw_file, capsys):
        deltas = {}
        for u in (2, 3):
            argv = ["analyze", "--input", raw_file, "--u", str(u), "--delta-bounds"]
            assert main(argv + ["--format", "json"]) == 0
            deltas[u] = json.loads(capsys.readouterr().out)["replicability"]["delta_bounds"]
            assert main(argv) == 0
            assert f"delta_upper_positive(u={u})" in capsys.readouterr().out
        studies = report.parse_studies(raw_file, "raw")
        assert deltas[2] == {
            "u": 2,
            "upper_positive": delta_bound(studies, 2, 0.05, "upper_positive", 0.05),
            "lower_negative": None,
        }
        assert deltas[3]["u"] == 3 and deltas[3]["lower_negative"] is None
        assert 0.0 < deltas[3]["upper_positive"] < deltas[2]["upper_positive"]

    def test_the_svg_form_computes_no_delta_bounds(self, raw_file, monkeypatch, capsys):
        from replimeta import replicability

        assert main(["analyze", "--input", raw_file, "--format", "svg", "--u", "3"]) == 0
        plain = capsys.readouterr().out
        calls = []
        monkeypatch.setattr(replicability, "delta_bound", lambda *args: calls.append(args))
        argv = ["analyze", "--input", raw_file, "--delta-bounds", "--u", "3"]
        assert main(argv + ["--format", "svg"]) == 0
        assert calls == [] and capsys.readouterr().out == plain
        assert main(argv) == 0  # the spy does see the text form's two sides
        assert len(calls) == 2

    def test_the_svg_form_still_checks_u(self, tmp_path, capsys):
        path = tmp_path / "eight.csv"
        path.write_text("label,estimate,se\n" + "".join(f"s{i},0.{i + 1},0.2\n" for i in range(8)))
        argv = ["analyze", "--input", str(path), "--format", "svg", "--delta-bounds", "--u", "99"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "replimeta: error: u must be in [1, 8], got 99\n"

    def test_conditional_threshold(self, raw_file, capsys):
        code = main(["analyze", "--input", raw_file, "--conditional-threshold", "0.05",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"]["conditional_threshold"] == 0.05

    def test_bad_row_exits_1_with_row_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("label,estimate,se\nA,0.5,0.2\nB,0.6,0.25\nC,0.4,0\n")
        assert main(["analyze", "--input", str(path)]) == 1
        assert "row 4" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["analyze", "--input", str(tmp_path / "nope.csv")]) == 2

    def test_unknown_flag_exits_1(self, raw_file, capsys):
        assert main(["analyze", "--input", raw_file, "--frobnicate"]) == 1

    def test_bad_alpha_exits_1(self, raw_file, capsys):
        assert main(["analyze", "--input", raw_file, "--alpha", "2.0"]) == 1

    def test_delta_bounds_with_conditional_threshold_exits_1(self, raw_file, capsys):
        argv = ["analyze", "--input", raw_file, "--delta-bounds", "--conditional-threshold", "0.5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--conditional-threshold" in captured.err and "zero shift" in captured.err

    # The square of 1e-170 underflows to 0 and the square of 1e160 overflows.
    @pytest.mark.parametrize("se", ["1e-170", "1e160"])
    def test_se_outside_the_weight_range_exits_1_with_row_number(self, tmp_path, capsys, se):
        path = tmp_path / "extreme.csv"
        path.write_text(f"label,estimate,se\nA,0.5,{se}\nB,0.6,0.25\nC,0.4,0.2\n")
        assert main(["analyze", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert "row 2" in err and "se" in err
        assert "Traceback" not in err


# Inputs that pass every per-row check but overflow the pooling sums: w * theta
# of the first row (row 2) is 1e310, and two weights of 1e308 add to inf at row 3.
# Cochran's Q of the third set is inf, although its Σw·θ is 1. In the fourth,
# the full set's Σw·θ is 1e308 but the set without b, which ``loo`` pools, sums
# to inf; Σ|w·θ| reaches inf at b.
@pytest.mark.parametrize("rows, bad_row", [
    ("a,1e300,1e-5\nb,-1e300,1e-5\nc,1,1\n", 2),
    ("a,1,1e-154\nb,2,1e-154\nc,3,1e-154\n", 3),
    ("a,1e200,1\nb,-1e200,1\nc,1,1\n", 3),
    ("a,1e308,1\nb,-1e308,1\nc,1e308,1\n", 3),
])
@pytest.mark.parametrize("command", ["analyze", "bounds", "loo"])
def test_pooling_overflow_exits_1_with_row_number(tmp_path, capsys, rows, bad_row, command):
    path = tmp_path / "overflow.csv"
    path.write_text("label,estimate,se\n" + rows)
    assert main([command, "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"row {bad_row}: " in err and "overflow" in err
    assert "Traceback" not in err and "Warning" not in err


# Two equal estimates have a spread of 0, but their pooled mean rounds to
# -1.0000000000000001e208, 1.1e192 away from each, and Q squares that.
@pytest.mark.parametrize("command", ["analyze", "bounds", "loo"])
def test_equal_estimates_whose_mean_rounds_past_them_exit_1_naming_the_row(tmp_path, capsys, command):
    path = tmp_path / "equal.csv"
    path.write_text("label,estimate,se\na,-1e208,1\nb,-1e208,2\n")
    assert main([command, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("replimeta: error: row 3: ") and "overflow" in captured.err


def _reject_constant(name):
    raise ValueError(f"non-finite number in JSON output: {name}")


@pytest.mark.parametrize("argv", [["analyze", "--model", "random"], ["bounds"], ["loo", "--model", "random"]])
def test_a_set_whose_squared_weights_overflow_gives_finite_output(tmp_path, capsys, argv):
    # Σw² leaves the doubles at a, but no pooling sum forms it: the
    # DerSimonian-Laird scale c is summed without squaring a weight.
    path = tmp_path / "squares.csv"
    path.write_text("label,estimate,se\na,1,1e-100\nb,2,1e-100\nc,3,1\n")
    assert main([*argv, "--input", str(path), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out, parse_constant=_reject_constant)
    if argv[0] == "analyze":
        assert payload["meta"]["tau_squared"] == 0.5
        assert payload["meta"]["pooled"] == pytest.approx(12 / 7, rel=1e-15)


@pytest.mark.parametrize("command", ["analyze", "loo"])
def test_json_output_with_a_non_finite_number_exits_1_and_writes_nothing(tmp_path, capsys, command):
    # At alpha = 1e-17 the critical value is infinite, so every interval is
    # [-inf, inf]; JSON has no such numbers (RFC 8259).
    path = tmp_path / "three.csv"
    path.write_text("label,estimate,se\na,0.5,0.2\nb,0.3,0.25\nc,0.6,0.3\n")
    assert main([command, "--input", str(path), "--alpha", "1e-17", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("replimeta: error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "{input}", "--output"],
    ["bounds", "--input", "{input}", "--output"],
    ["loo", "--input", "{input}", "--output"],
    ["simulate", "--scenario", "two-same-sign", "--replications", "100", "--out"],
], ids=["analyze", "bounds", "loo", "simulate"])
def test_an_output_path_that_cannot_be_opened_exits_2(raw_file, tmp_path, capsys, argv):
    out = tmp_path / "no_such_dir" / "out.txt"
    assert main([arg.format(input=raw_file) for arg in argv] + [str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("replimeta: i/o error: ")
    assert not out.parent.exists()


def test_importing_the_cli_loads_no_xml_or_urllib():
    # xml.sax.saxutils pulls in urllib.request, http.client and email: about
    # 40 ms of every process, for an escape that html.escape also does.
    # concurrent.futures serves only simulate's draw-ahead, which imports it.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys, replimeta.cli; print(sorted(m for m in "
        "('xml.sax', 'urllib.request', 'concurrent.futures') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _studies_csv(n):
    """A raw study file of n studies, mostly positive, with one in three negative."""
    rows = [f"S{i},{0.05 * (i % 7) - (0.4 if i % 3 == 0 else 0.0):.2f},{0.1 + 0.01 * (i % 5):.2f}" for i in range(n)]
    return "label,estimate,se\n" + "\n".join(rows) + "\n"


def _imported_modules(*argv):
    """The exit status of a fresh ``python -X importtime ARGV`` and the modules it imported."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], env=_src_env(), capture_output=True, text=True, timeout=60
    )
    lines = done.stderr.splitlines()
    return done.returncode, {line.rpartition("|")[2].strip() for line in lines if line.startswith("import time:")}


@pytest.mark.parametrize("argv, code, absent, present", [
    (["-c", "import replimeta"], 0, ("numpy", "scipy"), ()),
    (["-c", "import replimeta.cli"], 0, ("numpy", "scipy"), ()),
    (["-m", "replimeta", "--version"], 0, ("numpy", "scipy"), ()),
    (["-m", "replimeta", "--help"], 0, ("numpy", "scipy"), ()),
    (["-m", "replimeta", "analyze", "--format", "csv"], 1, ("numpy", "scipy"), ()),
    (["-m", "replimeta", "analyze", "--input", "{input}"], 0, ("replimeta.simulation", "scipy"), ("numpy",)),
    (["-m", "replimeta", "bounds", "--input", "{input}"], 0, ("replimeta.simulation", "scipy"), ("numpy",)),
    (["-m", "replimeta", "analyze", "--input", "{many}"], 0, ("replimeta.simulation",), ("numpy", "scipy")),
    (["-m", "replimeta", "loo", "--input", "{input}"], 0, ("replimeta.simulation", "scipy"), ("numpy",)),
    (["-m", "replimeta", "loo", "--input", "{counts}", "--format", "json", "--model", "random", "--measure",
      "odds_ratio"], 0, ("replimeta.simulation", "scipy"), ("numpy",)),
    (["-m", "replimeta", "simulate", "--scenario", "two-same-sign"], 0, ("scipy",),
     ("numpy", "replimeta.simulation")),
    (["-m", "replimeta", "simulate", "--config", "{config}"], 0, ("scipy",), ("numpy", "replimeta.simulation")),
], ids=["import", "import-cli", "version", "help", "usage-error", "analyze", "bounds", "analyze-21-studies", "loo",
        "loo-counts-json", "simulate-scenario", "simulate-config"])
def test_numpy_loads_only_with_a_command_that_computes(raw_file, binary_file, tmp_path, argv, code, absent, present):
    # numpy and compiling the package's modules are most of what a process
    # pays before main() runs; the analyst's commands never need the Monte
    # Carlo harness, and neither the harness, loo, nor analyze and bounds on
    # up to 20 studies need scipy. On 21, r(1)'s 21 gamma tails load it.
    config = tmp_path / "all-tests.cfg"
    config.write_text("theta = 0.8 0.5 0 -0.4\nnc = 30 30 30 30\nnt = 30 30 30 30\nreplications = 2000\n"
                      "tests = meta_fe meta_re H1n H2n H3n H2n_fe inconsistency_detected\n")
    many = tmp_path / "21-studies.csv"
    many.write_text(_studies_csv(21))
    exit_code, modules = _imported_modules(
        *(arg.format(input=raw_file, counts=binary_file, config=config, many=many) for arg in argv)
    )
    assert exit_code == code
    assert not modules & set(absent), sorted(modules & set(absent))
    assert set(present) <= modules


# The simulate-grid requests of bench/workloads.py, run at 1e5 replications there.
BENCHMARK_PRESETS = (
    ("two-same-sign",), ("common-effect-2",), ("single-among-n",), ("re-high-het",), ("mixed-signs", "--t", "1.0")
)


def test_simulate_runs_every_preset_with_scipy_unimportable():
    """Every shipped preset at 1e4 replications, and the benchmark's five at
    1e5 with seeds 0-2, in one process where importing scipy fails."""
    runs = [[name, "--replications", "10000"] for name in preset_names()]
    runs += [[name, "--replications", "100000", "--seed", str(seed), *extra]
             for seed in range(3) for name, *extra in BENCHMARK_PRESETS]
    code = (
        "import os, sys\n"
        "sys.modules['scipy'] = None\n"
        "from replimeta.cli import main\n"
        f"for run in {runs!r}:\n"
        "    assert main(['simulate', '--scenario', *run, '--out', os.devnull]) == 0, run\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr[-2000:]


def test_loo_prints_the_same_bytes_with_scipy_unimportable(raw_file, binary_file):
    """Every format, model and measure of loo, in a process where importing
    scipy fails, against the same commands where scipy has loaded."""
    runs = [["--input", path, "--format", fmt, "--model", model, *measure]
            for path, measure in ((raw_file, []), (binary_file, ["--measure", "odds_ratio"]),
                                  (binary_file, ["--measure", "risk_ratio"]))
            for fmt in ("text", "json") for model in ("fixed", "random")]
    code = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "if sys.argv[1] == 'without':\n"
        "    sys.modules['scipy'] = None\n"
        "else:\n"
        "    import scipy.special\n"
        "from replimeta.cli import main\n"
        "outs = []\n"
        f"for run in {runs!r}:\n"
        "    with redirect_stdout(io.StringIO()) as out:\n"
        "        assert main(['loo', *run]) == 0, run\n"
        "    outs.append(out.getvalue())\n"
        "print(json.dumps([outs, 'scipy.special' in sys.modules]))\n"
    )
    printed = {}
    for side in ("without", "with"):
        done = subprocess.run([sys.executable, "-c", code, side], env=_src_env(), capture_output=True, text=True,
                              timeout=120)
        assert (done.returncode, done.stderr) == (0, ""), done.stderr[-2000:]
        printed[side] = json.loads(done.stdout)
    assert printed["without"][1] is False and printed["with"][1] is True
    assert all(printed["without"][0]) and printed["without"][0] == printed["with"][0]


def test_analyze_and_bounds_print_the_same_bytes_with_scipy_unimportable(raw_file, binary_file, tmp_path):
    """analyze in every format, model and measure, and bounds in every format
    and measure, on up to 20 studies, in a process where importing scipy
    fails, against the same commands where scipy has loaded. The two-study
    file's Q-test reaches the shape 1/2 (``statkernels._lgam1p``'s series)."""
    two = tmp_path / "two.csv"
    two.write_text("label,estimate,se\nA,0.1,0.1\nB,0.3,0.1\n")
    twenty = tmp_path / "twenty.csv"
    twenty.write_text(_studies_csv(20))
    inputs = [(raw_file, "raw"), (str(two), "raw"), (str(twenty), "raw"), (binary_file, "odds_ratio"),
              (binary_file, "risk_ratio")]
    runs = [["analyze", "--input", path, "--measure", measure, "--format", fmt, "--model", model]
            for path, measure in inputs for fmt in ("text", "json", "svg") for model in ("fixed", "random", "auto")]
    runs += [["bounds", "--input", path, "--measure", measure, "--format", fmt]
             for path, measure in inputs for fmt in ("text", "json")]
    runs += [["analyze", "--input", str(twenty), "--u", "3", "--delta-bounds", "--truncation", "1"],
             ["bounds", "--input", str(twenty), "--truncation", "0.5", "--alpha", "0.01"]]
    code = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "if sys.argv[1] == 'without':\n"
        "    sys.modules['scipy'] = None\n"
        "else:\n"
        "    import scipy.special\n"
        "from replimeta.cli import main\n"
        "outs = []\n"
        f"for run in {runs!r}:\n"
        "    with redirect_stdout(io.StringIO()) as out:\n"
        "        assert main(run) == 0, run\n"
        "    outs.append(out.getvalue())\n"
        "print(json.dumps([outs, 'scipy.special' in sys.modules]))\n"
    )
    printed = {}
    for side in ("without", "with"):
        done = subprocess.run([sys.executable, "-c", code, side], env=_src_env(), capture_output=True, text=True,
                              timeout=300)
        assert (done.returncode, done.stderr) == (0, ""), done.stderr[-2000:]
        printed[side] = json.loads(done.stdout)
    assert printed["without"][1] is False and printed["with"][1] is True
    assert all(printed["without"][0]) and printed["without"][0] == printed["with"][0]


def test_package_names_resolve_on_first_access_to_their_modules_objects():
    import replimeta

    for name in replimeta.__all__:
        value = getattr(replimeta, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("replimeta.") and getattr(module, name) is value, name
    assert "__all__" in dir(replimeta) and set(replimeta.__all__) <= set(dir(replimeta))
    namespace = {}
    exec("from replimeta import *", namespace)
    assert all(namespace[name] is getattr(replimeta, name) for name in replimeta.__all__)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        replimeta.no_such_name
    # A submodule is an attribute of the package after a bare import, as before.
    exit_code, _ = _imported_modules(
        "-c", "import sys, replimeta; assert replimeta.simulation is sys.modules['replimeta.simulation']"
    )
    assert exit_code == 0


@pytest.fixture
def blas_unset(monkeypatch):
    """OPENBLAS_NUM_THREADS unset during the test, and as it was before it afterwards.

    Setting it first makes monkeypatch undo whatever ``run()`` sets, too.
    """
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
def test_entry_point_asks_for_one_blas_thread_before_numpy_loads(monkeypatch, blas_unset, preset, seen):
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    code = (
        "import os, sys\n"
        "from replimeta import cli\n"
        "cli.main = lambda: print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules) or 0\n"
        "cli.run()\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{seen} False\n", "")


def test_main_leaves_the_environment_alone(blas_unset, raw_file, capsys):
    before = dict(os.environ)
    assert main(["analyze", "--input", raw_file]) == 0
    assert main(["--version"]) == 0
    assert dict(os.environ) == before


def test_scipy_loads_only_when_a_kernel_runs(tmp_path, raw_file):
    # scipy.special and what it pulls in take longer to import than the rest
    # of the package, so --version, an input error, loo (whose critical value
    # is statkernels._ndtri) and analyze on 5 studies (whose gamma tails are
    # statkernels._igamc) must not pay for them.
    bad = tmp_path / "bad.csv"
    bad.write_text("label,estimate,se\na,0.1,0\nb,0.2,0.1\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "loaded = {}\n"
        "import replimeta\n"
        "loaded['import replimeta'] = 'scipy' in sys.modules\n"
        "import replimeta.cli\n"
        "loaded['import replimeta.cli'] = 'scipy' in sys.modules\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert replimeta.cli.main(['--version']) == 0\n"
        "loaded['--version'] = 'scipy' in sys.modules\n"
        "assert replimeta.cli.main(['analyze', '--input', sys.argv[1]]) == 1\n"
        "loaded['invalid analyze'] = 'scipy' in sys.modules\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert replimeta.cli.main(['loo', '--input', sys.argv[2]]) == 0\n"
        "loaded['valid loo'] = 'scipy' in sys.modules\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    assert replimeta.cli.main(['analyze', '--input', sys.argv[2]]) == 0\n"
        "loaded['valid analyze'] = 'scipy.special' in sys.modules\n"
        "print(json.dumps(loaded))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(bad), raw_file],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "import replimeta": False,
        "import replimeta.cli": False,
        "--version": False,
        "invalid analyze": False,
        "valid loo": False,
        "valid analyze": False,
    }


class TestSimulateCommand:
    def test_preset_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--scenario", "single-among-n", "--replications", "300",
                "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_shape(self, capsys):
        assert main(["simulate", "--scenario", "mixed-signs", "--replications", "100",
                     "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "param,test,rate,mc_se,replications,seed"
        # 6 grid points x 6 default tests
        assert len(lines) == 1 + 6 * 6

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "my.cfg"
        cfg.write_text("theta = 1 1 0\nnc = 25 25 25\nnt = 25 25 25\n"
                       "replications = 100\nseed = 2\ntests = H1n H2n\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("line, message", [
        ("tests = H1n bogus", "unknown test id 'bogus'"),
        ("tests =", "expected at least one test id"),
        ("tests = H1n H1n H01n meta_fe", "test id 'H1n' is repeated"),
        ("tests = H01n meta_fe", "unknown test id 'H01n'"),
    ])
    def test_bad_test_ids_exit_1_naming_the_config_line(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "tests.cfg"
        cfg.write_text(f"theta = 1 1 0\n{line}\nnc = 25 25 25\nnt = 25 25 25\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config line 2: tests: {message}" in captured.err

    def test_config_dir_env(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "fromenv.cfg"
        cfg.write_text("theta = 0.5 0.5\nnc = 25 25\nnt = 25 25\n"
                       "replications = 50\ntests = H1n\n")
        monkeypatch.setenv("REPLIMETA_CONFIG_DIR", str(tmp_path))
        assert main(["simulate", "--config", "fromenv.cfg"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text("theta = 0.5 0.5\nnc = 25 25\nnt = 25 25\n"
                       "replications = 50\nseed = 1\ntests = H1n\n")
        main(["simulate", "--config", str(cfg)])
        base = capsys.readouterr().out
        main(["simulate", "--config", str(cfg), "--seed", "99"])
        overridden = capsys.readouterr().out
        assert base != overridden
        assert overridden.splitlines()[1].endswith(",99")

    @pytest.mark.parametrize("key, line", [
        ("theta", "theta = nan 0 0"),
        ("mu", "mu = nan\ntau = 0.3"),
        ("tau", "mu = 0.2\ntau = nan"),
        ("param", "theta = 1 0 0\nparam = inf"),
    ])
    def test_non_finite_config_value_exits_1(self, tmp_path, capsys, key, line):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(f"{line}\nnc = 25 25 25\nnt = 25 25 25\nreplications = 50\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{key} must be finite" in captured.err

    @pytest.mark.parametrize("line", [
        "replications = 1e5", "seed = 0.5", "theta = 1 x", "nc = 25.7 30", "nc = 0.4 25",
    ])
    def test_unparsable_config_value_exits_1(self, tmp_path, capsys, line):
        key = line.split()[0]
        rows = [row for row in ("theta = 1 0", "nc = 25 25", "nt = 30 30")
                if not row.startswith(key + " ")]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(["# the bad value is on line 2", line] + rows) + "\n")
        assert main(["simulate", "--config", str(cfg), "--replications", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config line 2: {key}: " in captured.err

    @pytest.mark.parametrize("theta, tests", [
        ("1 0", ["meta_fe", "meta_re", "H1n", "H2n", "inconsistency_detected"]),
        ("1", ["meta_fe", "H1n", "inconsistency_detected"]),
    ])
    def test_config_without_tests_runs_what_its_studies_allow(self, tmp_path, capsys, theta, tests):
        sizes = " ".join(["25"] * len(theta.split()))
        cfg = tmp_path / "few.cfg"
        cfg.write_text(f"theta = {theta}\nnc = {sizes}\nnt = {sizes}\nreplications = 50\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "param,test,rate,mc_se,replications,seed"
        assert [line.split(",")[1] for line in lines[1:]] == tests
        assert all(line.endswith(",50,0") for line in lines[1:])

    @pytest.mark.parametrize("argv", [
        ["--scenario", "single-nonnull", "--seed", "-1"],
        ["--scenario", "re-high-het", "--seed", "-1"],
        ["--config", "CFG", "--seed", "-1"],
    ])
    def test_negative_seed_flag_exits_1_naming_the_seed(self, tmp_path, capsys, argv):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("theta = 1 0\nnc = 25 25\nnt = 25 25\n")
        argv = [str(cfg) if arg == "CFG" else arg for arg in argv]
        assert main(["simulate", *argv, "--replications", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be in [0, 2**128), got -1" in captured.err

    def test_a_preset_seed_whose_points_overflow_exits_1_naming_the_largest(self, capsys):
        seed = 2**128 - 2  # its third point would take seed + 2 = 2**128
        assert main(["simulate", "--scenario", "two-same-sign", "--seed", str(seed)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "replimeta: error: preset 'two-same-sign' derives seeds up to seed + 6, so its seed "
            f"must be at most {2**128 - 7}, got {seed}\n"
        )

    def test_negative_config_seed_exits_1_naming_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("theta = 1 0\nnc = 25 25\nnt = 25 25\nseed = -5\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "config line 4: seed: seed must be in [0, 2**128), got -5" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, key", [
        ("mu = 0\ntau = 1e160\nnc = 25 25\nnt = 25 25", "tau"),
        ("theta = 1e154 0.2\nnc = 20 20\nnt = 20 20", "theta"),
    ])
    def test_draws_that_could_overflow_exit_1_naming_the_key(self, tmp_path, capsys, lines, key):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"{lines}\nreplications = 100\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"replimeta: error: {key}: estimates drawn within 16 sd")
        assert "Traceback" not in captured.err

    def test_requires_exactly_one_source(self, capsys):
        assert main(["simulate"]) == 1
        assert main(["simulate", "--scenario", "mixed-signs", "--config", "x.cfg"]) == 1

    def test_unknown_preset_exits_1(self, capsys):
        assert main(["simulate", "--scenario", "not-real"]) == 1

    def test_missing_config_exits_2(self, capsys):
        assert main(["simulate", "--config", "missing.cfg"]) == 2


class TestBoundsCommand:
    def test_table(self, raw_file, capsys):
        assert main(["bounds", "--input", raw_file]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["u", "r_left", "r_right", "reject_left", "reject_right"]
        assert len(lines) == 1 + 5 + 1
        assert "u_max(left)=0" in lines[-1]
        match = re.search(r"u_max\(right\)=(\d)", lines[-1])
        assert match and int(match.group(1)) >= 2

    def test_json(self, raw_file, capsys):
        assert main(["bounds", "--input", raw_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["u_max_left"] == 0
        assert payload["u_max_right"] >= 2
        assert len(payload["table"]) == 5
        assert payload["table"][0]["reject_right"] is True


class TestLooCommand:
    def test_table(self, raw_file, capsys):
        assert main(["loo", "--input", raw_file, "--model", "fixed"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("omitted")
        assert all("true" in line or "false" in line for line in lines[1:])

    def test_json(self, raw_file, capsys):
        assert main(["loo", "--input", raw_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["refits"]) == 5
        assert payload["refits"][0]["omitted"] == "Alpha"
        assert all(isinstance(r["significant"], bool) for r in payload["refits"])

    def test_too_few_studies_exits_1(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("label,estimate,se\nA,0.5,0.2\nB,0.6,0.25\n")
        assert main(["loo", "--input", str(path)]) == 1

    @pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
    def test_bad_alpha_exits_1(self, raw_file, capsys, alpha):
        assert main(["loo", "--input", raw_file, "--alpha", alpha]) == 1
        captured = capsys.readouterr()
        assert "alpha" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command", ["analyze", "bounds", "loo"])
def test_study_commands_share_input_alpha_measure_and_output(command, raw_file, tmp_path, capsys):
    out = tmp_path / "out.txt"
    argv = [command, "--input", raw_file, "--alpha", "0.1", "--measure", "raw", "--output", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "" and out.read_text()


@pytest.mark.parametrize("command", ["analyze", "loo"])
@pytest.mark.parametrize("alpha_args, header", [((), "95% CI"), (("--alpha", "0.01"), "99% CI")])
def test_interval_header_states_the_level_of_the_intervals(command, alpha_args, header, raw_file,
                                                           capsys):
    assert main([command, "--input", raw_file, *alpha_args]) == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    assert re.findall(r"\S+% CI", first_line) == [header]


# Far from 0 on one side, so that the summary sentence claims replicability
# and states its confidence at every alpha.
STRONG_CSV = "label,estimate,se\na,10,0.5\nb,12,0.6\nc,11,0.4\n"
# A stated level: an interval header, the footer's confidence= and the summary sentence's.
STATED_LEVEL = re.compile(r"(\S+)% CI|confidence=(\S+)%|with (\S+)% confidence")


def stated_levels(text):
    return ["".join(groups) for groups in STATED_LEVEL.findall(text)]


SVG_AT_1E_17 = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: at alpha = 1e-17 every interval is [-inf, inf], and the SVG axis "
    "cannot place ticks on an infinite span, so the command exits 1",
)


@pytest.mark.parametrize("command, stated", [
    (["analyze"], 3), (["analyze", "--format", "svg"], 1), (["loo"], 1),
], ids=["analyze-text", "analyze-svg", "loo"])
@pytest.mark.parametrize("alpha, level", [
    ("1e-5", "99.999"), ("1e-8", "99.999999"), ("1e-17", "99.999999999999999"),
])
def test_a_tiny_alpha_states_its_level_with_the_digits_it_needs(
    command, stated, alpha, level, tmp_path, capsys, request
):
    if alpha == "1e-17" and "svg" in command:
        request.applymarker(SVG_AT_1E_17)
    path = tmp_path / "strong.csv"
    path.write_text(STRONG_CSV)
    assert main([*command, "--input", str(path), "--alpha", alpha]) == 0
    assert stated_levels(capsys.readouterr().out) == [level] * stated


def check_cli_contract(argv):
    """``main(argv)`` exits 0 with finite, strict output and no level of 100%,
    or exits 1 with ``replimeta: error:``, no traceback and no output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 1:
        assert err.startswith("replimeta: error: ") and "Traceback" not in err and out == ""
        return
    assert code == 0, err
    assert not re.search(r"\b(?:inf|nan)\b", out, re.IGNORECASE), out
    assert "100" not in stated_levels(out), out
    if "json" in argv:

        def reject(constant):
            raise ValueError(f"non-finite JSON number {constant}")

        json.loads(out, parse_constant=reject)


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from([
        ["analyze"], ["analyze", "--format", "json"], ["analyze", "--model", "random"],
        ["bounds"], ["bounds", "--format", "json"],
        ["loo"], ["loo", "--format", "json"], ["loo", "--model", "random"],
    ]),
    alpha=st.floats(math.log(1e-15), math.log(0.5)).map(math.exp),
    rows=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 5.0)), min_size=2, max_size=8),
)
def test_every_alpha_gives_finite_strict_output_or_a_named_error(command, alpha, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "studies.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("label,estimate,se\n")
            handle.writelines(f"s{i},{est!r},{se!r}\n" for i, (est, se) in enumerate(rows))
        check_cli_contract([*command, "--input", path, "--alpha", repr(alpha)])


def _log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


# Moderate values, and values at the edges that ``meta._overflow_index``
# checks: weights up to 1e310, |weight x estimate| and squared spreads past
# the largest double, and estimates whose pooled mean rounds past them.
EDGE_ESTIMATES = st.one_of(
    st.floats(-10.0, 10.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(100.0, 308.25)).map(lambda s: s[0] * 10.0 ** s[1]),
)
EDGE_SES = st.one_of(st.floats(0.01, 5.0), st.floats(-155.0, 155.0).map(lambda e: 10.0 ** e))
# A 2x2 table, often with a zero cell.
TABLES = st.tuples(st.integers(1, 60), st.integers(1, 60)).flatmap(lambda totals: st.tuples(
    st.one_of(st.sampled_from([0, totals[0]]), st.integers(0, totals[0])), st.just(totals[0]),
    st.one_of(st.sampled_from([0, totals[1]]), st.integers(0, totals[1])), st.just(totals[1]),
))


@st.composite
def study_commands(draw):
    """A study file's text and an ``analyze``, ``bounds`` or ``loo`` argv for it."""
    if draw(st.booleans()):
        tables = draw(st.lists(TABLES, min_size=1, max_size=8))
        n = len(tables)
        text = "label,events_t,total_t,events_c,total_c\n" + "".join(
            f"s{i},{a},{b},{c},{d}\n" for i, (a, b, c, d) in enumerate(tables))
        argv = ["--measure", draw(st.sampled_from(["odds_ratio", "risk_ratio"]))]
    else:
        rows = draw(st.lists(st.tuples(EDGE_ESTIMATES, EDGE_SES), min_size=1, max_size=8))
        n = len(rows)
        text = "label,estimate,se\n" + "".join(f"s{i},{est!r},{se!r}\n" for i, (est, se) in enumerate(rows))
        argv = []
    command = draw(st.sampled_from(["analyze", "bounds", "loo"]))
    formats = ["text", "json", "svg"] if command == "analyze" else ["text", "json"]
    argv = [command, *argv, "--format", draw(st.sampled_from(formats))]
    if command != "loo":
        argv += ["--truncation", repr(draw(_log_uniform(1e-300, 1.0)))]
    if command != "bounds":
        models = ["fixed", "random", "auto"] if command == "analyze" else ["fixed", "random"]
        argv += ["--model", draw(st.sampled_from(models))]
    if command == "analyze":
        argv += ["--u", str(draw(st.integers(0, n + 1)))]
        threshold = draw(st.none() | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        if threshold is not None:
            argv += ["--conditional-threshold", repr(threshold)]
        if draw(st.booleans()):
            argv.append("--delta-bounds")
    return text, argv


@settings(max_examples=150, deadline=None)
@given(case=study_commands())
def test_every_study_command_gives_finite_strict_output_or_a_named_error(case):
    """Every flag of ``analyze``, ``bounds`` and ``loo`` but ``--alpha``, on raw
    rows at the overflow edges and on binary tables with zero cells."""
    text, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "studies.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        check_cli_contract([*argv, "--input", path])


@st.composite
def scenario_configs(draw):
    """A fixed or random scenario config of at most 200 replications, its lines in any order."""
    n = draw(st.integers(1, 5))
    sizes = st.lists(st.integers(2, 200), min_size=n, max_size=n)
    lines = [
        f"nc = {' '.join(map(str, draw(sizes)))}",
        f"nt = {' '.join(map(str, draw(sizes)))}",
        f"replications = {draw(st.integers(1, 200))}",
        f"seed = {draw(st.integers(0, 2**64))}",
    ]
    if draw(st.booleans()):
        theta = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        lines.append("theta = " + " ".join(map(repr, theta)))
    else:
        lines += [f"mu = {draw(st.floats(-3.0, 3.0))!r}", f"tau = {draw(st.floats(0.0, 2.0))!r}"]
    if draw(st.booleans()):
        lines.append(f"t = {draw(_log_uniform(1e-300, 1.0))!r}")
    if draw(st.booleans()):
        ids = [f"H{u}n" for u in range(1, n + 1)] + ["meta_fe", "meta_re", "H2n_fe", "inconsistency_detected"]
        lines.append("tests = " + " ".join(draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=100, deadline=None)
@given(config=scenario_configs())
def test_every_scenario_config_gives_finite_csv_or_a_named_error(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(config)
        check_cli_contract(["simulate", "--config", path])


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: below alpha = 2^-53, ndtri(1 - alpha/2) is inf, so every interval "
    "prints [-inf, inf]",
)
@pytest.mark.parametrize("command", ["analyze", "loo"])
def test_text_output_at_an_alpha_below_two_to_the_minus_53_is_finite(command, raw_file):
    check_cli_contract([command, "--input", raw_file, "--alpha", "1e-17"])


def test_svg_of_non_finite_intervals_is_a_named_error(tmp_path, capsys):
    path = tmp_path / "strong.csv"
    path.write_text(STRONG_CSV)
    argv = ["analyze", "--format", "svg", "--input", str(path), "--alpha", "1e-17"]
    check_cli_contract(argv)
    assert main(argv) == 1
    assert "non-finite interval [-inf, inf] of 'a'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "bounds"])
def test_truncation_is_checked(command, raw_file, capsys):
    assert main([command, "--input", raw_file, "--truncation", "0.5"]) == 0
    capsys.readouterr()
    assert main([command, "--input", raw_file, "--truncation", "2"]) == 1
    assert "truncation threshold t must be in (0, 1], got 2.0" in capsys.readouterr().err


def test_loo_takes_no_truncation(raw_file, capsys):
    assert main(["loo", "--input", raw_file, "--truncation", "0.5"]) == 1
    assert "unrecognized arguments: --truncation" in capsys.readouterr().err


def test_config_truncation_out_of_range_exits_1_before_any_draw(tmp_path, monkeypatch, capsys):
    from replimeta import simulation

    drawn = []
    monkeypatch.setattr(simulation, "_draws", lambda scenario: drawn.append(scenario) or iter(()))
    cfg = tmp_path / "t.cfg"
    cfg.write_text("theta = 1 0\nt = 2\nnc = 25 25\nnt = 25 25\n")
    assert main(["simulate", "--config", str(cfg), "--t", "0.5"]) == 1
    assert "config line 2: t: truncation threshold t must be in (0, 1], got 2.0" in capsys.readouterr().err
    assert drawn == []


def test_repeated_config_key_exits_1_naming_both_lines(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("theta = 1 0\nt = 0.05\nnc = 25 25\nnt = 25 25\nt = 0.5\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config line 5: 't' is already set on line 2" in captured.err


def test_a_misspelled_config_key_is_a_named_error(tmp_path, capsys):
    # It used to run at the default replications and tests, and exit 0.
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("theta = 1 1 0\nnc = 25 25 25\nnt = 25 25 25\nreplicatons = 5000\ntset = H2n\n")
    argv = ["simulate", "--config", str(cfg)]
    check_cli_contract(argv)
    assert main(argv) == 1
    assert "config line 4: unknown key 'replicatons'; recognized keys: theta, " in capsys.readouterr().err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "replimeta" in capsys.readouterr().out


def test_simulate_help_lists_the_preset_names(capsys):
    from replimeta.simulation import preset_names

    assert main(["simulate", "--help"]) == 0
    # argparse wraps the help text, also at a name's hyphens, so whitespace is dropped.
    help_text = "".join(capsys.readouterr().out.split())
    assert f"presetname({','.join(preset_names())})" in help_text


def _run_module(*argv):
    """``python -m replimeta`` with ``argv``, in a fresh process."""
    return subprocess.run(
        [sys.executable, "-m", "replimeta", *argv],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )


def test_module_entry_point_writes_main_output_and_exit_status(tmp_path, raw_file, capsys):
    argv = ["analyze", "--format", "json", "--input", raw_file]
    done = _run_module(*argv)
    assert main(argv) == 0
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == capsys.readouterr().out

    bad = tmp_path / "bad.csv"
    bad.write_text("label,estimate,se\nA,0.5,0.2\nB,0.6,0\n")
    done = _run_module("analyze", "--input", str(bad))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("replimeta: error: ") and "row 3" in done.stderr

    done = _run_module("analyze", "--input", str(tmp_path / "missing.csv"))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("replimeta: i/o error: ") and "missing.csv" in done.stderr


def test_console_script_and_module_call_the_same_entry_point(monkeypatch):
    import importlib
    import runpy

    from replimeta import cli

    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as handle:
        module_name, _, name = tomllib.load(handle)["project"]["scripts"]["replimeta"].partition(":")
    assert getattr(importlib.import_module(module_name), name) is cli.run
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
    monkeypatch.delitem(sys.modules, "replimeta.__main__", raising=False)
    runpy.run_module("replimeta", run_name="__main__")
    assert calls == ["run"]


def test_entry_point_freezes_once_after_main_returns(monkeypatch, blas_unset):
    from replimeta import cli

    events = []
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or 3)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == 3
    assert events == ["main", "freeze"]
