"""Tests for the Monte Carlo power harness.

The vectorized per-replication evaluators are checked row-by-row against the
scalar public operations they accelerate, so the harness cannot drift from the
library it is meant to measure.
"""

import io
import math

import numpy as np
import pytest

from replimeta.meta import StudySummary, _pool_rows
from replimeta.replicability import (
    TruncationConfig,
    fe_r_value,
    partial_conjunction_p,
    _PCCurve,
)
from replimeta.simulation import (
    BENCHMARK_GROUP_SIZES,
    FixedEffectsScenario,
    RandomEffectsScenario,
    _fe_pc_u2_rows,
    calibrate_tau,
    inconsistency_probability,
    parse_scenario_config,
    preset,
    preset_names,
    run_points,
    simulate_fixed,
    simulate_random,
    truncation_comparison,
    write_power_csv,
)
from test_properties import bits, pooling_reference


class TestVectorizedAgainstScalar:
    """Every vectorized evaluator must reproduce its scalar counterpart exactly."""

    def setup_method(self):
        rng = np.random.default_rng(424242)
        self.theta_hat = rng.normal(0, 1.5, size=(40, 6))
        self.se = rng.uniform(0.2, 1.0, size=6)

    def _studies(self, row):
        return [
            StudySummary(f"s{j}", float(row[j]), float(self.se[j])) for j in range(len(row))
        ]

    def test_partial_conjunction_rows(self):
        rng = np.random.default_rng(9)
        matrix = rng.uniform(size=(60, 7))
        matrix[:20] = np.minimum(matrix[:20], rng.beta(0.2, 1.0, size=(20, 7)))
        for t in (0.05, 0.5, 1.0):
            curve = _PCCurve(matrix, t)
            for u in (1, 2, 3, 7):
                rows = curve(u)
                cfg = TruncationConfig(t=t)
                for i in range(matrix.shape[0]):
                    assert rows[i] == partial_conjunction_p(matrix[i], u, cfg)

    def _reference_rows(self):
        se = self.se.tolist()
        return [pooling_reference(list(zip(row, se))) for row in self.theta_hat.tolist()]

    def test_fe_meta_rows(self):
        pooled = _pool_rows(self.theta_hat, self.se)
        for i, ref in enumerate(self._reference_rows()):
            assert bits(pooled.fe[i], pooled.fe_se) == bits(ref["fe"], ref["fe_se"])

    def test_re_meta_rows(self):
        pooled = _pool_rows(self.theta_hat, self.se)
        keys = ("q", "i_squared", "tau_squared", "re", "re_se")
        for i, ref in enumerate(self._reference_rows()):
            got = [getattr(pooled, key)[i] for key in keys]
            assert bits(*got) == bits(*(ref[key] for key in keys))

    def test_fe_pc_u2_rows(self):
        r_rows = _fe_pc_u2_rows(self.theta_hat, self.se)
        for i in range(self.theta_hat.shape[0]):
            expected = fe_r_value(self._studies(self.theta_hat[i]), 2).r
            assert abs(r_rows[i] - expected) < 1e-12


class TestScenarios:
    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            FixedEffectsScenario(theta=(0.0,), group_sizes=((10, 10), (10, 10)))
        with pytest.raises(ValueError):
            FixedEffectsScenario(theta=(0.0,), group_sizes=((0, 10),))
        with pytest.raises(ValueError):
            FixedEffectsScenario(theta=(0.0,), group_sizes=((10, 10),), replications=0)

    def test_random_validation(self):
        with pytest.raises(ValueError):
            RandomEffectsScenario(mu=0, tau=-1, n=2, group_sizes=((10, 10), (10, 10)))
        with pytest.raises(ValueError):
            RandomEffectsScenario(mu=0, tau=1, n=3, group_sizes=((10, 10), (10, 10)))

    def test_standard_errors(self):
        scenario = FixedEffectsScenario(theta=(0.0,), group_sizes=((25, 25),))
        assert abs(scenario.standard_errors[0] - math.sqrt(2.0 / 25.0)) < 1e-12


class TestSimulateFixed:
    def test_deterministic_given_seed(self):
        scenario = FixedEffectsScenario(
            theta=(0.5,) * 8, group_sizes=BENCHMARK_GROUP_SIZES, replications=500, seed=33
        )
        first = simulate_fixed(scenario)
        second = simulate_fixed(scenario)
        assert first == second

    def test_seed_changes_draws(self):
        base = FixedEffectsScenario(
            theta=(0.5,) * 8, group_sizes=BENCHMARK_GROUP_SIZES, replications=500, seed=33
        )
        other = FixedEffectsScenario(
            theta=(0.5,) * 8, group_sizes=BENCHMARK_GROUP_SIZES, replications=500, seed=34
        )
        assert simulate_fixed(base) != simulate_fixed(other)

    def test_size_under_global_null_quick(self):
        scenario = FixedEffectsScenario(
            theta=(0.0,) * 8, group_sizes=BENCHMARK_GROUP_SIZES, replications=3000, seed=1
        )
        point = simulate_fixed(scenario)
        bound = 0.05 + 3 * math.sqrt(0.05 * 0.95 / scenario.replications)
        for test_id in ("H1n", "H2n", "H3n", "meta_fe", "meta_re"):
            assert point.rejection_rate[test_id] <= bound, test_id

    def test_single_nonnull_keeps_h2n_at_size(self):
        scenario = FixedEffectsScenario(
            theta=(2.0,) + (0.0,) * 7,
            group_sizes=BENCHMARK_GROUP_SIZES,
            replications=3000,
            seed=2,
        )
        point = simulate_fixed(scenario, tests=("H1n", "H2n"))
        assert point.rejection_rate["H1n"] > 0.9
        assert point.rejection_rate["H2n"] <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 3000)

    def test_single_nonnull_keeps_re_meta_at_size(self):
        """The RE meta-analysis barely reacts when only one study carries an effect."""
        scenario = FixedEffectsScenario(
            theta=(2.0,) + (0.0,) * 7,
            group_sizes=BENCHMARK_GROUP_SIZES,
            replications=3000,
            seed=6,
        )
        point = simulate_fixed(scenario, tests=("meta_re",))
        assert point.rejection_rate["meta_re"] <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 3000)

    def test_mc_se_formula(self):
        scenario = FixedEffectsScenario(
            theta=(1.0,) * 8, group_sizes=BENCHMARK_GROUP_SIZES, replications=400, seed=3
        )
        point = simulate_fixed(scenario, tests=("H2n",))
        rate = point.rejection_rate["H2n"]
        assert point.mc_se["H2n"] == math.sqrt(rate * (1 - rate) / 400)

    def test_param_defaults_to_strength(self):
        scenario = FixedEffectsScenario(
            theta=(-1.5, 0.5), group_sizes=((25, 25), (25, 25)), replications=10, seed=4
        )
        assert simulate_fixed(scenario, tests=("H1n",)).param == 1.5

    def test_unknown_test_rejected(self):
        scenario = FixedEffectsScenario(
            theta=(0.0,) * 2, group_sizes=((25, 25),) * 2, replications=10, seed=5
        )
        with pytest.raises(ValueError):
            simulate_fixed(scenario, tests=("H9n",))
        with pytest.raises(ValueError):
            simulate_fixed(scenario, tests=("bogus",))


class TestSimulateRandom:
    def test_tau_zero_reduces_to_fixed(self):
        """A degenerate effects distribution must reproduce the fixed generator bitwise."""
        random_scenario = RandomEffectsScenario(
            mu=0.7,
            tau=0.0,
            n=8,
            group_sizes=BENCHMARK_GROUP_SIZES,
            replications=2000,
            seed=77,
        )
        fixed_scenario = FixedEffectsScenario(
            theta=(0.7,) * 8, group_sizes=BENCHMARK_GROUP_SIZES, replications=2000, seed=77
        )
        tests = ("H1n", "H2n", "meta_re")
        assert (
            simulate_random(random_scenario, tests).rejection_rate
            == simulate_fixed(fixed_scenario, tests).rejection_rate
        )

    def test_power_decreases_in_u(self):
        tau = calibrate_tau(0.70, seed=8)
        scenario = RandomEffectsScenario(
            mu=0.4, tau=tau, n=8, group_sizes=BENCHMARK_GROUP_SIZES, replications=4000, seed=21
        )
        point = simulate_random(scenario, tests=("H1n", "H2n", "H3n", "H4n"))
        rates = [point.rejection_rate[f"H{u}n"] for u in (1, 2, 3, 4)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_detection_positive_at_zero_mean_and_decreasing(self):
        tau = calibrate_tau(0.70, seed=8)
        rates = []
        for i, mu in enumerate((0.0, 0.6)):
            scenario = RandomEffectsScenario(
                mu=mu, tau=tau, n=8, group_sizes=BENCHMARK_GROUP_SIZES,
                replications=4000, seed=300 + i,
            )
            rates.append(
                simulate_random(scenario, ("inconsistency_detected",)).rejection_rate[
                    "inconsistency_detected"
                ]
            )
        assert rates[0] > 0.10
        assert rates[0] > rates[1]


class TestInconsistencyProbability:
    def test_zero_mean_closed_form(self):
        assert inconsistency_probability(0.0, 1.0, 8) == 1.0 - 2.0**-7

    def test_unit_ratio_value(self):
        # erf oracle: 1 - Phi(1)^2 - (1 - Phi(1))^2 = 0.26696752866280387...
        assert abs(inconsistency_probability(1.0, 1.0, 2) - 0.2669675286628039) < 1e-12

    def test_vanishes_for_large_mean(self):
        assert inconsistency_probability(50.0, 1.0, 4) < 1e-12

    def test_matches_empirical_sign_frequency(self):
        rng = np.random.default_rng(12)
        mu, tau, n = 0.3, 0.8, 6
        draws = rng.normal(mu, tau, size=(100_000, n))
        empirical = float(((draws > 0).any(axis=1) & (draws < 0).any(axis=1)).mean())
        exact = inconsistency_probability(mu, tau, n)
        mc_se = math.sqrt(empirical * (1 - empirical) / draws.shape[0])
        assert abs(exact - empirical) <= 3 * mc_se

    def test_validation(self):
        with pytest.raises(ValueError):
            inconsistency_probability(0.0, 0.0, 8)
        with pytest.raises(ValueError):
            inconsistency_probability(0.0, 1.0, 1)


class TestTruncationComparison:
    def test_common_random_numbers_and_determinism(self):
        scenarios, _ = preset("mixed-signs", replications=400, seed=10)
        first = truncation_comparison(scenarios[:3], t_values=(0.05, 1.0), tests=("H2n",))
        second = truncation_comparison(scenarios[:3], t_values=(0.05, 1.0), tests=("H2n",))
        assert first == second

    def test_null_scenario_all_thresholds_valid(self):
        scenario = FixedEffectsScenario(
            theta=(0.0,) * 8, group_sizes=BENCHMARK_GROUP_SIZES, replications=3000, seed=61
        )
        table = truncation_comparison([scenario], t_values=(0.05, 0.5, 1.0), tests=("H1n", "H2n"))
        bound = 0.05 + 3 * math.sqrt(0.05 * 0.95 / 3000)
        for t, points in table.items():
            for test_id, rate in points[0].rejection_rate.items():
                assert rate <= bound, (t, test_id)

    def test_mixed_signs_truncation_advantage_quick(self):
        scenarios, _ = preset("mixed-signs", replications=3000, seed=14)
        table = truncation_comparison(scenarios, t_values=(0.05, 1.0), tests=("H2n",))
        for low, high in zip(table[0.05], table[1.0]):
            a = low.rejection_rate["H2n"]
            b = high.rejection_rate["H2n"]
            if max(a, b) > 0.2:
                assert a > b


class TestCalibrateTau:
    def test_hits_target_median(self):
        from scipy import special

        tau = calibrate_tau(0.70, replications=2000, seed=5)
        # verify with an independent draw
        se = np.sqrt(
            1.0 / np.array([c for c, _ in BENCHMARK_GROUP_SIZES], float)
            + 1.0 / np.array([t for _, t in BENCHMARK_GROUP_SIZES], float)
        )
        rng = np.random.default_rng(999)
        theta_hat = rng.normal(0.0, np.sqrt(tau**2 + se**2), size=(4000, 8))
        w = 1.0 / se**2
        pooled = theta_hat @ w / w.sum()
        q = ((theta_hat - pooled[:, None]) ** 2) @ w
        i2 = np.maximum(0.0, (q - 7.0) / q)
        assert abs(float(np.median(i2)) - 0.70) < 0.05

    def test_monotone_in_target(self):
        low = calibrate_tau(0.50, seed=5)
        high = calibrate_tau(0.70, seed=5)
        assert high > low

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_tau(0.0)


class TestPresets:
    def test_registry(self):
        names = preset_names()
        assert "single-nonnull" in names
        assert "re-high-het" in names
        with pytest.raises(ValueError):
            preset("not-a-preset")

    def test_single_among_n_structure(self):
        scenarios, tests = preset("single-among-n", replications=100, seed=0)
        assert [len(s.theta) for s in scenarios] == [4, 8, 16]
        assert all(s.theta[0] == 2.0 and not any(s.theta[1:]) for s in scenarios)
        assert "H2n_fe" in tests and "meta_fe" in tests

    def test_grid_seeds_distinct(self):
        scenarios, _ = preset("two-same-sign", replications=100, seed=50)
        seeds = [s.seed for s in scenarios]
        assert len(set(seeds)) == len(seeds)


class TestConfigAndCsv:
    def test_fixed_config_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# two nonnull studies\n"
            "theta = 1.0 1.0 0 0\n"
            "nc = 25 25 25 25\n"
            "nt = 30, 30, 30, 30\n"
            "replications = 123\n"
            "seed = 9\n"
            "t = 0.5\n"
            "tests = H1n H2n\n"
            "param = 1.0\n"
        )
        scenario, tests, t = parse_scenario_config(str(path))
        assert isinstance(scenario, FixedEffectsScenario)
        assert scenario.theta == (1.0, 1.0, 0.0, 0.0)
        assert scenario.group_sizes[0] == (25, 30)
        assert scenario.replications == 123
        assert scenario.seed == 9
        assert tests == ("H1n", "H2n")
        assert t == 0.5

    def test_random_config(self, tmp_path):
        path = tmp_path / "re.cfg"
        path.write_text("mu = 0.2\ntau = 0.4\nnc = 25 25\nnt = 25 25\n")
        scenario, tests, t = parse_scenario_config(str(path))
        assert isinstance(scenario, RandomEffectsScenario)
        assert scenario.mu == 0.2 and scenario.tau == 0.4 and scenario.n == 2

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("\ufeffnc = 25 25\nnt = 25 25\nmu = 0.2\ntau = 0.4\n", encoding="utf-8")
        scenario, _, _ = parse_scenario_config(str(path))
        assert scenario.group_sizes == ((25, 25), (25, 25))

    def test_config_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("theta = 1 1\nnc = 25 25\n")
        with pytest.raises(ValueError):
            parse_scenario_config(str(bad))
        bad.write_text("nonsense line\nnc = 25\nnt = 25\n")
        with pytest.raises(ValueError):
            parse_scenario_config(str(bad))
        bad.write_text("theta = 1\nmu = 0\ntau = 1\nnc = 25\nnt = 25\n")
        with pytest.raises(ValueError):
            parse_scenario_config(str(bad))

    @pytest.mark.parametrize("line, key", [
        ("replications = 1e5", "replications"),
        ("seed = 1.5", "seed"),
        ("theta = 1 x", "theta"),
        ("t = x", "t"),
        ("param = high", "param"),
        ("nc = 25.7 30", "nc"),
        ("nc = 0.4 25", "nc"),
        ("nt = inf 25", "nt"),
    ])
    def test_bad_value_names_key_and_line(self, line, key):
        rows = [row for row in ("theta = 1 0", "nc = 25 25", "nt = 30 30")
                if not row.startswith(key + " ")]
        text = "\n".join(["# the bad value is on line 2", line] + rows) + "\n"
        with pytest.raises(ValueError, match=rf"^config line 2: {key}: "):
            parse_scenario_config(io.StringIO(text))

    def test_random_config_value_names_key_and_line(self):
        with pytest.raises(ValueError, match=r"^config line 2: tau: expected a number, got '0.3x'"):
            parse_scenario_config(io.StringIO("mu = 0\ntau = 0.3x\nnc = 25\nnt = 25\n"))

    def test_whole_group_sizes_written_as_decimals_still_parse(self):
        scenario, _, _ = parse_scenario_config(io.StringIO("theta = 1\nnc = 25.0\nnt = 3e1\n"))
        assert scenario.group_sizes == ((25, 30),)

    def test_csv_output(self):
        scenario = FixedEffectsScenario(
            theta=(0.5, 0.5), group_sizes=((25, 25), (25, 25)), replications=200, seed=12
        )
        points = run_points([scenario], ("H1n", "H2n"))
        buffer = io.StringIO()
        write_power_csv(points, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "param,test,rate,mc_se,replications,seed"
        assert len(lines) == 3
        assert lines[1].startswith("0.5,H1n,")
        # byte-identical on a rerun
        buffer2 = io.StringIO()
        write_power_csv(run_points([scenario], ("H1n", "H2n")), buffer2)
        assert buffer.getvalue() == buffer2.getvalue()
