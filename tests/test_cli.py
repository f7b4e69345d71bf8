"""End-to-end tests of the command-line interface, run in process."""

import json
import math
import re

import pytest

from replimeta import report
from replimeta.cli import main
from replimeta.statkernels import one_sided_p

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
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return one_sided_p(*args, **kwargs)

        monkeypatch.setattr(report, "one_sided_p", counting)
        assert main(["analyze", "--input", raw_file] + extra) == 0
        assert len(calls) == RAW_CSV.count("\n") - 1

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

    # The square of 1e-170 underflows to 0 and the square of 1e160 overflows.
    @pytest.mark.parametrize("se", ["1e-170", "1e160"])
    def test_se_outside_the_weight_range_exits_1_with_row_number(self, tmp_path, capsys, se):
        path = tmp_path / "extreme.csv"
        path.write_text(f"label,estimate,se\nA,0.5,{se}\nB,0.6,0.25\nC,0.4,0.2\n")
        assert main(["analyze", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert "row 2" in err and "se" in err
        assert "Traceback" not in err


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


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "replimeta" in capsys.readouterr().out
