"""Tests for the Monte Carlo power harness.

The vectorized per-replication evaluators are checked row-by-row against the
scalar public operations they accelerate, so the harness cannot drift from the
library it is meant to measure.
"""

import functools
import hashlib
import io
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from scipy import special

from replimeta import cli, meta, simulation
from replimeta.meta import StudySummary, _pool_rows
from replimeta.replicability import (
    _directional_rejections,
    _fe_z_extremes,
    _PCCurve,
    confidence_bounds,
    partial_conjunction_p,
)
from replimeta.simulation import (
    BENCHMARK_GROUP_SIZES,
    FixedEffectsScenario,
    RandomEffectsScenario,
    _evaluate_tests,
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
from replimeta.report import AnalysisRequest
from replimeta.statkernels import one_sided_p
from test_properties import bits, common_effect_reference, normal_tail, pooling_reference

# The ids of DEFAULT_TESTS that two studies allow: not H3n.
TWO_STUDY_TESTS = ("meta_fe", "meta_re", "H1n", "H2n", "inconsistency_detected")


class TestVectorizedAgainstScalar:
    """Every vectorized evaluator must reproduce its scalar counterpart exactly."""

    def setup_method(self):
        rng = np.random.default_rng(424242)
        self.theta_hat = rng.normal(0, 1.5, size=(40, 6))
        self.se = rng.uniform(0.2, 1.0, size=6)

    def test_partial_conjunction_rows(self):
        rng = np.random.default_rng(9)
        matrix = rng.uniform(size=(60, 7))
        matrix[:20] = np.minimum(matrix[:20], rng.beta(0.2, 1.0, size=(20, 7)))
        for t in (0.05, 0.5, 1.0):
            curve = _PCCurve.from_p_values(matrix, t)
            for u in (1, 2, 3, 7):
                rows = curve(u)
                for i in range(matrix.shape[0]):
                    assert rows[i] == partial_conjunction_p(matrix[i], u, t=t)

    def _reference_rows(self):
        se = self.se.tolist()
        return [pooling_reference(list(zip(row, se))) for row in self.theta_hat.tolist()]

    def test_fe_meta_rows(self):
        pooled = _pool_rows(self.theta_hat.T, self.se)
        for i, ref in enumerate(self._reference_rows()):
            assert bits(pooled.fe[i], pooled.fe_se) == bits(ref["fe"], ref["fe_se"])

    def test_re_meta_rows(self):
        pooled = _pool_rows(self.theta_hat.T, self.se)
        keys = ("q", "i_squared", "tau_squared", "re", "re_se")
        for i, ref in enumerate(self._reference_rows()):
            got = [getattr(pooled, key)[i] for key in keys]
            assert bits(*got) == bits(*(ref[key] for key in keys))

    def test_fe_pc_u2_rows(self):
        # H2n_fe is the common-effect test at u = 2: the (n-1)-subsets of each row.
        size = self.theta_hat.shape[1] - 1
        z_min, z_max = _fe_z_extremes(self.theta_hat.T, self.se, size)
        rejected = _evaluate_tests(self.theta_hat, self.se, ("H2n_fe",), 0.05, 0.05)
        se = self.se.tolist()
        for i, row in enumerate(self.theta_hat.tolist()):
            ref_min, ref_max = common_effect_reference(list(zip(row, se)), size)
            assert bits(z_min[i], z_max[i]) == bits(ref_min, ref_max)
            r = min(1.0, 2.0 * min(normal_tail(ref_max), normal_tail(-ref_min)))
            assert rejected["H2n_fe"][i] == (r <= 0.05)


class TestScenarios:
    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            FixedEffectsScenario(theta=(0.0,), group_sizes=((10, 10), (10, 10)))
        with pytest.raises(ValueError):
            FixedEffectsScenario(theta=(0.0,), group_sizes=((0, 10),))
        with pytest.raises(ValueError, match="^group sizes must be positive finite"):
            FixedEffectsScenario(theta=(0.0,), group_sizes=((math.inf, 10),))
        with pytest.raises(ValueError):
            FixedEffectsScenario(theta=(0.0,), group_sizes=((10, 10),), replications=0)

    def test_random_validation(self):
        with pytest.raises(ValueError):
            RandomEffectsScenario(mu=0, tau=-1, n=2, group_sizes=((10, 10), (10, 10)))
        with pytest.raises(ValueError):
            RandomEffectsScenario(mu=0, tau=1, n=3, group_sizes=((10, 10), (10, 10)))

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_keys_rejected_naming_seed(self, seed):
        message = rf"^seed must be in \[0, 2\*\*128\), got {seed}$"
        with pytest.raises(ValueError, match=message):
            FixedEffectsScenario(theta=(0.0,), group_sizes=((10, 10),), seed=seed)
        with pytest.raises(ValueError, match=message):
            RandomEffectsScenario(mu=0, tau=1, n=1, group_sizes=((10, 10),), seed=seed)
        with pytest.raises(ValueError, match=message):
            calibrate_tau(0.5, seed=seed)

    def test_largest_seed_accepted(self):
        scenario = FixedEffectsScenario(
            theta=(0.0,), group_sizes=((10, 10),), replications=5, seed=2**128 - 1
        )
        assert simulate_fixed(scenario, ("H1n",)).seed == 2**128 - 1

    def test_preset_seed_checked_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(simulation, "_rng", lambda seed: drawn.append(seed))
        with pytest.raises(ValueError, match=r"got -1000$"):
            preset("re-high-het", replications=10, seed=-1000)
        assert drawn == []

    def test_standard_errors(self):
        scenario = FixedEffectsScenario(theta=(0.0,), group_sizes=((25, 25),))
        assert abs(scenario.standard_errors[0] - math.sqrt(2.0 / 25.0)) < 1e-12

    @pytest.mark.parametrize("build, key", [
        # se 0.316: |estimate| x se^-2 is finite, Cochran's Q bound is not.
        (lambda: FixedEffectsScenario(theta=(1e154, 0.2), group_sizes=((20, 20),) * 2), "theta"),
        # tau**2 overflows a Python float.
        (lambda: RandomEffectsScenario(mu=0.0, tau=1e160, n=2, group_sizes=((25, 25),) * 2), "tau"),
        # 12.5 x 1e307, a weight times an estimate, overflows.
        (lambda: RandomEffectsScenario(mu=1e307, tau=0.3, n=2, group_sizes=((25, 25),) * 2), "mu"),
        (lambda: RandomEffectsScenario(mu=-1e307, tau=0.0, n=1, group_sizes=((25, 25),)), "mu"),
    ])
    def test_draws_that_could_overflow_the_pooling_are_rejected_naming_the_key(self, build, key):
        with pytest.raises(ValueError, match=rf"^{key}: estimates drawn within 16 sd .* overflow"):
            build()

    @pytest.mark.parametrize("scenario", [
        FixedEffectsScenario(theta=(1e100, 0.2), group_sizes=((20, 20),) * 2, replications=200),
        RandomEffectsScenario(mu=1e150, tau=1e140, n=3, group_sizes=((20, 20),) * 3,
                              replications=200),
    ])
    def test_large_effects_inside_the_range_simulate_without_warnings(self, scenario):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = run_points([scenario], ("meta_fe", "meta_re", "H1n", "H2n_fe"))[0]
        assert all(math.isfinite(rate) for rate in point.rejection_rate.values())


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

    @pytest.mark.parametrize("tests", [("H1n", "bogus"), ("H1n", "H3n"), ("meta_fe", "H0n")])
    def test_test_ids_are_checked_before_any_draw(self, monkeypatch, tests):
        drawn = []
        monkeypatch.setattr(simulation, "_draws", lambda scenario: drawn.append(scenario) or iter(()))
        scenario = FixedEffectsScenario(
            theta=(0.0,) * 2, group_sizes=((25, 25),) * 2, replications=10, seed=5
        )
        with pytest.raises(ValueError, match=r"unknown test id 'bogus'|needs u in \[1, 2\]"):
            simulate_fixed(scenario, tests=tests)
        assert drawn == []

    def test_no_tests_draws_and_counts_nothing(self):
        scenario = FixedEffectsScenario(
            theta=(0.0,) * 2, group_sizes=((25, 25),) * 2, replications=10, seed=5
        )
        point = simulate_fixed(scenario, tests=())
        assert point.rejection_rate == {} and point.replications == 10

    def test_default_tests_are_those_two_studies_allow(self):
        scenario = FixedEffectsScenario(theta=(1.0, 0.0), group_sizes=((25, 25),) * 2, replications=10)
        point = simulate_fixed(scenario)
        assert tuple(point.rejection_rate) == TWO_STUDY_TESTS

    @pytest.mark.parametrize("kwargs, message", [
        ({"t": 0.0}, r"truncation threshold t must be in \(0, 1\], got 0.0"),
        ({"t": 1.5}, r"truncation threshold t must be in \(0, 1\], got 1.5"),
        ({"alpha": 1.0}, r"alpha must be in \(0, 1\), got 1.0"),
    ])
    def test_t_and_alpha_are_checked_before_any_draw(self, monkeypatch, kwargs, message):
        drawn = []
        monkeypatch.setattr(simulation, "_draws", lambda scenario: drawn.append(scenario) or iter(()))
        scenario = FixedEffectsScenario(theta=(1.0, 0.0), group_sizes=((25, 25),) * 2, replications=10)
        with pytest.raises(ValueError, match=message):
            simulate_fixed(scenario, ("H1n",), **kwargs)
        assert drawn == []


class TestSimulateRandom:
    def test_default_tests_are_those_two_studies_allow(self):
        scenario = RandomEffectsScenario(
            mu=0.5, tau=0.2, n=2, group_sizes=((25, 25),) * 2, replications=10
        )
        assert tuple(simulate_random(scenario).rejection_rate) == TWO_STUDY_TESTS

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

    def test_nan_mean_rejected(self):
        with pytest.raises(ValueError, match="z must not be NaN"):
            inconsistency_probability(math.nan, 1.0, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            inconsistency_probability(0.0, 0.0, 8)
        with pytest.raises(ValueError):
            inconsistency_probability(0.0, 1.0, 1)


class TestTruncationComparison:
    def test_default_tests_are_the_t_dependent_ones_two_studies_allow(self):
        scenario = FixedEffectsScenario(theta=(1.0, 0.0), group_sizes=((25, 25),) * 2, replications=10)
        table = truncation_comparison([scenario], t_values=(0.05, 1.0))
        for points in table.values():
            assert tuple(points[0].rejection_rate) == ("H1n", "H2n", "inconsistency_detected")

    @pytest.mark.parametrize("t_values, repeated", [((0.05, 0.05, 0.5), "0.05"), ((1, 0.5, 1.0), "1.0")])
    def test_repeated_threshold_rejected(self, t_values, repeated):
        scenario = FixedEffectsScenario(theta=(1.0, 0.0), group_sizes=((25, 25),) * 2, replications=10)
        with pytest.raises(ValueError, match=rf"truncation threshold {repeated} is repeated"):
            truncation_comparison([scenario], t_values=t_values, tests=("H1n",))

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

    def test_each_threshold_equals_its_own_simulate_fixed(self):
        scenario = FixedEffectsScenario(
            theta=(0.6, 0.6, -0.4, 0.0, 0.2, 0.0), group_sizes=BENCHMARK_GROUP_SIZES[:6],
            replications=3000, seed=23,
        )
        tests = ("meta_fe", "meta_re", "H1n", "H2n", "H3n", "H2n_fe", "inconsistency_detected")
        t_values = (0.05, 0.5, 1.0)
        table = truncation_comparison([scenario], t_values=t_values, tests=tests)
        for t in t_values:
            assert table[t] == [simulate_fixed(scenario, tests, t=t)]
        # The default tests are the t-dependent ones that n allows.
        random = RandomEffectsScenario(
            mu=0.3, tau=0.4, n=2, group_sizes=BENCHMARK_GROUP_SIZES[:2], replications=500, seed=8
        )
        default = simulation._runnable(simulation._T_DEPENDENT_TESTS, 2)
        table = truncation_comparison([random], t_values=t_values)
        for t in t_values:
            assert table[t] == [simulate_random(random, default, t=t)]
        # An empty test set runs nothing, rather than the defaults.
        for points in truncation_comparison([scenario, random], t_values, tests=()).values():
            assert [point.rejection_rate for point in points] == [{}, {}]

    @pytest.mark.parametrize("t_values, message", [
        ((0.05, 1.5), r"^truncation threshold t must be in \(0, 1\], got 1\.5$"),
        ((0.05, 0.5, 0.05), r"^truncation threshold 0\.05 is repeated in t_values$"),
    ])
    def test_bad_threshold_fails_before_any_draw(self, monkeypatch, t_values, message):
        calls = []
        draws = simulation._draws
        monkeypatch.setattr(simulation, "_draws", lambda s: calls.append(1) or draws(s))
        grid, _ = preset("mixed-signs", replications=100)
        with pytest.raises(ValueError, match=message):
            truncation_comparison(grid, t_values=t_values)
        assert calls == []

    def test_mixed_signs_truncation_advantage_quick(self):
        scenarios, _ = preset("mixed-signs", replications=3000, seed=14)
        table = truncation_comparison(scenarios, t_values=(0.05, 1.0), tests=("H2n",))
        for low, high in zip(table[0.05], table[1.0]):
            a = low.rejection_rate["H2n"]
            b = high.rejection_rate["H2n"]
            if max(a, b) > 0.2:
                assert a > b


class TestChunks:
    """Row chunks of the draws change no point: counts add up, draws continue the stream."""

    TESTS = ("meta_fe", "meta_re", "H1n", "H2n", "H3n", "H2n_fe", "inconsistency_detected")
    FIXED = FixedEffectsScenario(
        theta=(0.6, 0.6, -0.4, 0.0, 0.2), group_sizes=BENCHMARK_GROUP_SIZES[:5],
        replications=50, seed=17,
    )
    RANDOM = RandomEffectsScenario(
        mu=0.3, tau=0.4, n=5, group_sizes=BENCHMARK_GROUP_SIZES[:5], replications=50, seed=18
    )

    def _run(self):
        return (
            simulate_fixed(self.FIXED, self.TESTS),
            simulate_random(self.RANDOM, self.TESTS),
            truncation_comparison([self.FIXED, self.RANDOM], (0.05, 1.0), self.TESTS),
        )

    def test_chunk_size_changes_no_point(self, monkeypatch):
        # Five studies per row: chunks of 1 row, 7 rows (the last one shorter)
        # and all 50 rows at once.
        # The subset blocks of H2n_fe shrink along with them.
        results = []
        for rows in (1, 7, 50):
            monkeypatch.setattr(simulation, "_CHUNK_ELEMENTS", 5 * rows)
            monkeypatch.setattr(meta, "_BLOCK_ELEMENTS", 5 * rows)
            results.append(self._run())
        assert results[0] == results[1] == results[2]

    def test_default_chunks_equal_one_chunk(self, monkeypatch):
        # 40,000 rows of eight studies are several chunks at the default size,
        # the last one shorter, and one chunk at 2^20 elements.
        scenario = FixedEffectsScenario(
            theta=(0.5, 0.5, -0.3, 0.0, 0.0, 0.2, 0.0, 0.0), group_sizes=BENCHMARK_GROUP_SIZES,
            replications=40_000, seed=23,
        )
        rows = simulation._CHUNK_ELEMENTS // 8
        assert scenario.replications > 2 * rows and scenario.replications % rows
        chunked = truncation_comparison([scenario], (0.05, 1.0), self.TESTS)
        monkeypatch.setattr(simulation, "_CHUNK_ELEMENTS", 1 << 20)
        assert truncation_comparison([scenario], (0.05, 1.0), self.TESTS) == chunked

    # The next chunk is drawn on a worker thread while the current one is
    # tested: the worker must be gone however the point ends, and must not
    # run more than one chunk ahead.

    def test_draw_ahead_leaves_no_thread_behind(self, monkeypatch):
        monkeypatch.setattr(simulation, "_CHUNK_ELEMENTS", 5 * 7)  # eight chunks
        before = threading.active_count()
        simulate_fixed(self.FIXED, self.TESTS)
        assert threading.active_count() == before

    def test_error_in_the_tests_reaches_the_caller_and_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(simulation, "_CHUNK_ELEMENTS", 5 * 7)
        evaluate, calls = simulation._evaluate_tests, []

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("the second chunk's tests failed")
            return evaluate(*args)

        monkeypatch.setattr(simulation, "_evaluate_tests", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=r"^the second chunk's tests failed$"):
            simulate_fixed(self.FIXED, self.TESTS)
        assert threading.active_count() == before

    def test_error_in_the_draw_reaches_the_caller_and_leaves_no_thread(self, monkeypatch):
        def draws(scenario):
            yield np.zeros((7, 5))
            raise FloatingPointError("the second draw failed")

        monkeypatch.setattr(simulation, "_draws", draws)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=r"^the second draw failed$"):
            simulate_fixed(self.FIXED, self.TESTS)
        assert threading.active_count() == before

    def test_at_most_one_chunk_is_drawn_ahead(self, monkeypatch):
        monkeypatch.setattr(simulation, "_CHUNK_ELEMENTS", 5 * 7)
        expected = simulate_fixed(self.FIXED, self.TESTS)
        draws, evaluate = simulation._draws, simulation._evaluate_tests
        yielded, tested = [0], [0]

        def counted_draws(scenario):
            for chunk in draws(scenario):
                yielded[0] += 1
                yield chunk

        def counted_evaluate(*args):
            # Time for a worker that runs further ahead to do so.
            time.sleep(0.005)
            # The chunk under test, and at most the one after it.
            assert yielded[0] - tested[0] <= 2, (yielded[0], tested[0])
            tested[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(simulation, "_draws", counted_draws)
        monkeypatch.setattr(simulation, "_evaluate_tests", counted_evaluate)
        assert simulate_fixed(self.FIXED, self.TESTS) == expected
        assert yielded[0] == tested[0] == 8


class TestLeastFavourableNull:
    """The guarantee holds whatever the true effects are.

    With u - 1 studies at 40 standard errors and the rest at 0, H^u (fewer
    than u non-null effects in one direction) is true on both sides, and
    this is the least favourable configuration for it (Benjamini & Heller,
    2008): the u - 1 far studies always look non-null. H{u}n must stay at
    level alpha at every n <= 8, u <= n and t.
    """

    @pytest.mark.parametrize("n", range(1, 9))
    def test_h_u_keeps_its_level(self, n):
        alpha, replications = 0.05, 100_000
        # 4 Monte Carlo standard errors: Bonferroni over the 108 (n, u, t)
        # cases; at 3, even an exact test would fail about one seed choice in seven.
        limit = alpha + 4.0 * math.sqrt(alpha * (1.0 - alpha) / replications)
        group_sizes = BENCHMARK_GROUP_SIZES[:n]
        se = simulation._standard_errors(group_sizes)
        above = []
        for u in range(1, n + 1):
            scenario = FixedEffectsScenario(
                theta=tuple(40.0 * float(s) for s in se[: u - 1]) + (0.0,) * (n - u + 1),
                group_sizes=group_sizes, replications=replications, seed=1000 * n + 10 * u,
            )
            for t in (0.05, 0.5, 1.0):
                rate = simulate_fixed(scenario, [f"H{u}n"], t=t).rejection_rate[f"H{u}n"]
                if rate > limit:
                    above.append((u, t, rate))
        assert above == [], limit


# True effects in standard errors, one character a study: F far (40), N near
# (0.5 to 3 across the studies), 0 null, lower case negative. Up to symmetry:
# a sign flip swaps the sides, and the order of the studies does not matter.
COVERAGE_PATTERNS = ["00", "F0", "0000", "F000", "FfN0", "00000000", "FN000000", "FFnn0000"]


def _true_effects(pattern):
    near = np.linspace(0.5, 3.0, len(pattern))
    sizes = [{"F": 40.0, "N": near[i], "0": 0.0}[c.upper()] for i, c in enumerate(pattern)]
    return np.array([-size if c.islower() else size for size, c in zip(sizes, pattern)])


def _vectorised_bounds(z, t, alpha):
    """(u_max_left, u_max_right) per row of a (rows, n) z matrix.

    Each side's bound is the leading run of ``_directional_rejections`` at
    every u, at level alpha / 2, as ``confidence_bounds`` walks one row.
    """
    sides = _directional_rejections(np.ascontiguousarray(z.T), t, range(1, z.shape[1] + 1), alpha / 2)
    bounds = []
    for side in sides:
        leading = np.ones(len(z), dtype=bool)
        count = np.zeros(len(z), dtype=int)
        for u in sorted(side):
            leading &= side[u]
            count += leading
        bounds.append(count)
    return bounds


class TestJointCoverage:
    """u_max(left) and u_max(right) hold jointly at 1 - alpha, whatever the true effects.

    Each side walks at alpha / 2 (Benjamini & Heller, 2008). Non-coverage is a
    bound above the number of true effects on its side, a null counting on
    neither. The limit is alpha plus 4 Monte Carlo standard errors, as in
    ``TestLeastFavourableNull``.
    """

    ALPHA, ROWS = 0.05, 20_000

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _draw(pattern, t):
        """The effects, z's first 1,000 rows and every row's bounds, drawn once for both tests."""
        effects = _true_effects(pattern)
        seed = COVERAGE_PATTERNS.index(pattern) * 10 + int(10 * t)
        rows = TestJointCoverage.ROWS
        z = np.random.default_rng(seed).standard_normal((rows, len(pattern))) + effects
        return effects, z[:1000].copy(), _vectorised_bounds(z, t, TestJointCoverage.ALPHA)

    def _limit(self, level):
        return level + 4.0 * math.sqrt(level * (1.0 - level) / self.ROWS)

    @pytest.mark.parametrize("t", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("pattern", COVERAGE_PATTERNS)
    def test_bounds_cover_jointly_and_agree_with_the_scalar_walk(self, pattern, t):
        effects, z, (left, right) = self._draw(pattern, t)
        missed = (right > np.sum(effects > 0)) | (left > np.sum(effects < 0))
        assert missed.mean() <= self._limit(self.ALPHA)
        for row, u_left, u_right in zip(z, left, right):
            want = confidence_bounds(normal_tail(row), normal_tail(-row), t=t, alpha=self.ALPHA)
            assert (u_left, u_right) == want

    @pytest.mark.parametrize("t", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("pattern", [p for p in COVERAGE_PATTERNS if p == p.upper()])
    def test_inconsistency_is_rarely_claimed_when_every_effect_is_nonnegative(self, pattern, t):
        _, _, (left, right) = self._draw(pattern, t)
        inconsistent = (left >= 1) & (right >= 1)
        assert inconsistent.mean() <= self._limit(self.ALPHA / 2)

    @pytest.mark.parametrize("pattern, threshold, t", [
        ("00000000", 0.5, 0.05), ("FfN0", 0.5, 1.0), ("FN000000", 0.05, 0.05),
    ])
    def test_bounds_on_each_sides_survivors_cover_jointly(self, pattern, threshold, t):
        """``--conditional-threshold c``: each side keeps its p-values at or below c, divided by c.

        A null survivor's rescaled p-value is uniform again, so the bounds
        must cover the true effects among each side's survivors, jointly.
        ``confidence_bounds`` takes paired lists of one length, which the
        survivors are not, so the rows go through the profile that analyze
        reads, whose walk is the one ``confidence_bounds`` runs.
        """
        rows = 2_500
        effects = _true_effects(pattern)
        seed = COVERAGE_PATTERNS.index(pattern) * 10 + int(10 * t) + 500
        missed = 0
        for row in np.random.default_rng(seed).standard_normal((rows, len(pattern))) + effects:
            studies = tuple(StudySummary(str(i), float(z), 1.0) for i, z in enumerate(row))
            request = AnalysisRequest(studies, alpha=self.ALPHA, t=t, conditional_threshold=threshold)
            u_left, u_right = request.profile.bounds()
            pairs = [one_sided_p(study.theta_hat, study.se) for study in studies]
            true_left = sum(pair.left <= threshold and effect < 0 for pair, effect in zip(pairs, effects))
            true_right = sum(pair.right <= threshold and effect > 0 for pair, effect in zip(pairs, effects))
            missed += u_left > true_left or u_right > true_right
        assert missed / rows <= self.ALPHA + 4.0 * math.sqrt(self.ALPHA * (1.0 - self.ALPHA) / rows)

    def test_the_walk_stops_at_the_first_non_rejection(self):
        # At t = 1 and alpha = 0.99, right p-values (0.45, 0.45) give r(1) =
        # 0.5259 > 0.495 >= r(2) = 0.45: the right side rejects at u = 2 only,
        # and a walk that takes the largest rejected u would report 2.
        z = np.full((1, 2), special.ndtri(0.55))
        _, right = _directional_rejections(np.ascontiguousarray(z.T), 1.0, (1, 2), 0.495)
        assert (bool(right[1][0]), bool(right[2][0])) == (False, True)
        assert confidence_bounds([0.55, 0.55], [0.45, 0.45], t=1.0, alpha=0.99) == (0, 0)
        assert [int(side[0]) for side in _vectorised_bounds(z, 1.0, 0.99)] == [0, 0]


class TestCalibrateTau:
    def test_hits_target_median(self):
        from scipy import special

        tau = calibrate_tau(0.70, seed=5)
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

    @pytest.mark.parametrize("name", preset_names())
    def test_the_largest_seed_a_preset_accepts_derives_the_last_philox_key(self, name, monkeypatch):
        largest = 2**128 - 1 - simulation._PRESETS[name].seed_offset
        drawn = []
        rng = simulation._rng
        monkeypatch.setattr(simulation, "_rng", lambda seed: drawn.append(seed) or rng(seed))
        message = rf"^preset '{name}' derives seeds up to seed \+ \d+, so its seed must be at most {largest}, got {largest + 1}$"
        with pytest.raises(ValueError, match=message):
            preset(name, replications=10, seed=largest + 1)
        assert drawn == []
        scenarios, _ = preset(name, replications=10, seed=largest)
        assert max(drawn + [s.seed for s in scenarios]) == 2**128 - 1


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

    @pytest.mark.parametrize("line, message", [
        ("tests = H1n bogus", "unknown test id 'bogus'"),
        ("tests = H3n", r"test 'H3n' needs u in \[1, 2\]"),
        ("tests = meta_re", "meta_re requires at least two studies"),
        ("tests =", "expected at least one test id"),
        ("tests = , ,", "expected at least one test id"),
    ])
    def test_bad_test_ids_name_the_line(self, line, message):
        studies = "nc = 25\nnt = 25\n" if "meta_re" in line else "nc = 25 25\nnt = 25 25\n"
        text = f"theta = {'1' if 'meta_re' in line else '1 0'}\n{line}\n{studies}"
        with pytest.raises(ValueError, match=rf"^config line 2: tests: {message}"):
            parse_scenario_config(io.StringIO(text))

    @pytest.mark.parametrize("seed", ["-5", str(2**128)])
    def test_seed_out_of_range_names_the_line(self, seed):
        text = f"theta = 1 0\nseed = {seed}\nnc = 25 25\nnt = 25 25\n"
        with pytest.raises(ValueError, match=rf"^config line 2: seed: seed must be in .*, got {seed}$"):
            parse_scenario_config(io.StringIO(text))

    @pytest.mark.parametrize("theta, tests", [
        ("1 0 0", simulation.DEFAULT_TESTS),
        ("1 0", ("meta_fe", "meta_re", "H1n", "H2n", "inconsistency_detected")),
        ("1", ("meta_fe", "H1n", "inconsistency_detected")),
    ])
    def test_default_tests_follow_the_number_of_studies(self, theta, tests):
        sizes = " ".join(["25"] * len(theta.split()))
        text = f"theta = {theta}\nnc = {sizes}\nnt = {sizes}\n"
        assert parse_scenario_config(io.StringIO(text))[1] == tests

    @pytest.mark.parametrize("value", ["2", "0", "-0.5", "nan"])
    def test_truncation_threshold_out_of_range_names_the_line(self, value):
        text = f"theta = 1 0\nt = {value}\nnc = 25 25\nnt = 25 25\n"
        message = r"^config line 2: t: truncation threshold t must be in \(0, 1\], got "
        with pytest.raises(ValueError, match=message):
            parse_scenario_config(io.StringIO(text))

    @pytest.mark.parametrize("key, first, second", [("t", "0.05", "0.5"), ("seed", "3", "4")])
    def test_repeated_key_names_both_lines(self, key, first, second):
        text = f"theta = 1 0\n{key} = {first}\nnc = 25 25\nnt = 25 25\n{key} = {second}\n"
        with pytest.raises(ValueError, match=rf"^config line 5: '{key}' is already set on line 2$"):
            parse_scenario_config(io.StringIO(text))

    def test_repeated_key_matches_in_any_case(self):
        text = "theta = 1 0\nnc = 25 25\nnt = 25 25\nNC = 30 30\n"
        with pytest.raises(ValueError, match=r"^config line 4: 'nc' is already set on line 2$"):
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


# sha256 of the CSV bytes of ``simulate --scenario NAME --replications 2000
# --seed SEED`` (and ``--t T`` where T is given), recorded while the harness
# still computed every r-value. A changed digest means a changed Monte Carlo
# decision somewhere in the grid.
CSV_DIGESTS = {
    ("single-nonnull", 0, None): "40b0a62065b4e492ce69e44fd627d2c7f593a4a73ae34761471c8607025ddc1e",
    ("single-nonnull", 1, None): "d3fffda37a8e3e238dfc3fe0f10123d19bd5fdc1e87a9f7ac97d3964956f2da6",
    ("single-nonnull", 2, None): "3c7760c1b34716c5c3336751eab51ba54b759630335d34d2bdb12effc0bd14ef",
    ("two-same-sign", 0, None): "2b82ea9e4492f188083b232f8aa39691406fcd0f708912c228fc02ce6788ffa2",
    ("two-same-sign", 1, None): "06ca3e0cfc81f0045702d6f83196e4d3d728f4078063af75be2a2af212d01e9b",
    ("two-same-sign", 2, None): "442344da201034585d203c89f4a3dabfbf1ba3d51d7025d32651351d0e41d5fd",
    ("mixed-signs", 0, None): "4292baaad2f10d7914146eb5e59c680680f1361a34e2c077a13bb1917e3344f5",
    ("mixed-signs", 1, None): "cbf61758c5672ff7cd0f23874064a75b4d9b50f46408a781112e8bfff3096b7d",
    ("mixed-signs", 2, None): "58f005d34de47db6e5ef8cca32404d70993251fb75f4232cb79ffe3ddaa4aa3f",
    ("common-effect-1", 0, None): "8b8aa845368caef61849d2ea477c3eb9383ed9a16b8ef523943bd4c5595396bf",
    ("common-effect-1", 1, None): "39968f91d1cb65bd5d4448f62e283ad9e058691a56e61cc6867801f21e0c2085",
    ("common-effect-1", 2, None): "0316690d56e50fe966064ec4d538072871bae003d0e39d3c2ece734c35c409a2",
    ("common-effect-2", 0, None): "d94e8d2aa569cc9842110958e0fec746fc2882f33ef939ce33168e642eb34eaf",
    ("common-effect-2", 1, None): "395b17cbb15da64a66c83d32f5060e37e30a1a892a7a9ff0aa6e96eb8868b560",
    ("common-effect-2", 2, None): "a7e9cc81dccf013269db6e82077bbe62aad6ba0f28650d411c83fe97f3b396e6",
    ("common-effect-3", 0, None): "d3168d9c1f651d220e5ea74b440069df79c8bc166a93d014144c661876576825",
    ("common-effect-3", 1, None): "a406b7213c2c59ac7063f556a66e9221e5b9820da746c6c25465cede38483193",
    ("common-effect-3", 2, None): "29d5ba076ba00312f12c9bf8db7c1d589c2bcdc5306c72d40aaf5e04a869e4fa",
    ("single-among-n", 0, None): "7ef46ddcf446a9cf306358ff136facc9f0e2b162504baa6efacd8f43f314fb4c",
    ("single-among-n", 1, None): "fac47d64848169a2cb47c37d6f06bc3e52173ff4dfd0b710c3a4579347e13875",
    ("single-among-n", 2, None): "8192cde99cc3eedc7a0f783fcfdc468d94de840a6a829e80f30416dce13d650d",
    ("single-among-n-weak", 0, None): "9a3fd3cbfd25ba4960806fc7729483033d815f43b5cbdacacf85a32b3ee9c39f",
    ("single-among-n-weak", 1, None): "12697ae060caaca41c676325a8b030788f2604fb796a81ffde11509f260cb3d7",
    ("single-among-n-weak", 2, None): "b5101dcb52e4887dafe809850306135332d182ea5a1a4eb6d8e0067ca4f885ed",
    ("re-high-het", 0, None): "d4dbbbae15932b4b63117d954b162a7286bedfcc2b608affb7399415f30425de",
    ("re-high-het", 1, None): "a137bd15f820269e49a0f685f9c67d6fd4488a4f4750df3da408911e9c8f09b0",
    ("re-high-het", 2, None): "b10271e04c68eae9fff0a4dd9d1dd46d9bce26603aed400f2f0d7063f7ff33fd",
    ("re-moderate-het", 0, None): "ff00677ea2e67c3d1ee5700f5a70f2cc083f300b7969b0a26667791fba63fe65",
    ("re-moderate-het", 1, None): "66c0f1d3748d50d35081aefe0e92b70c016a82f0e2c79dccffcbfcac9c1ed7d1",
    ("re-moderate-het", 2, None): "b3c8dda069aba19d65764e149e183e85d1e0223b7cfcb238165ae6570e7dc5b4",
    ("mixed-signs", 0, 1.0): "d01eeb8a77def7f408b1e11032bd9c22af3827074c3c5813e7f7e1566f9d544e",
    ("mixed-signs", 1, 1.0): "1b2f22d239c3ef48528b18a7bb3cb24522182784180b720abc944aff5296d69e",
    ("mixed-signs", 2, 1.0): "4c0703116ad3dc71046b6f268ab174286bf24e7458e342afa72d1e398503a83b",
}


class TestGuards:
    @pytest.mark.parametrize("name, seed, t", list(CSV_DIGESTS))
    def test_csv_digest(self, tmp_path, name, seed, t):
        out = tmp_path / "power.csv"
        argv = ["simulate", "--scenario", name, "--replications", "2000", "--seed", str(seed)]
        if t is not None:
            argv += ["--t", repr(t)]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_DIGESTS[(name, seed, t)]

    @staticmethod
    def _peak_rss_mb(config: str, replications: int) -> float:
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, "-m", "replimeta", "simulate", "--config", config,
                "--replications", str(replications), "--out", os.devnull]
        proc = subprocess.Popen(argv, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        return usage.ru_maxrss / 1024.0  # kilobytes on Linux

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in kB is Linux's")
    def test_peak_memory_does_not_grow_with_replications(self, tmp_path):
        # Replications are drawn and tested in row chunks, so eight times the
        # rows must not mean eight times the matrix.
        config = tmp_path / "mixed8.cfg"
        config.write_text(
            "theta = 0.4 -0.3 0.2 0.5 -0.1 0.3 0.25 -0.45\n"
            f"nc = {' '.join(str(c) for c, _ in BENCHMARK_GROUP_SIZES)}\n"
            f"nt = {' '.join(str(t) for _, t in BENCHMARK_GROUP_SIZES)}\n"
            "seed = 3\n"
            "tests = meta_fe meta_re H1n H2n H3n H2n_fe inconsistency_detected\n"
        )
        small = self._peak_rss_mb(str(config), 100_000)
        large = self._peak_rss_mb(str(config), 800_000)
        assert large - small < 30.0, (small, large)

    def test_common_effect_test_allocates_no_chunk_matrix_with_its_work_space(self):
        # A fresh matrix of a chunk's size faults its pages in on every chunk;
        # H2n_fe's weighted estimates, sums and gathered rows live in ``work``.
        import tracemalloc

        rng = np.random.default_rng(0)
        se = rng.uniform(0.1, 1.5, 8)
        theta_hat = rng.normal(0.3, 1.0, (8192, 8)) * se
        work = np.empty(simulation._work_size(theta_hat, ("H2n_fe",)))
        want = _evaluate_tests(theta_hat, se, ("H2n_fe",), 0.05, 0.05)["H2n_fe"]
        tracemalloc.start()
        try:
            got = _evaluate_tests(theta_hat, se, ("H2n_fe",), 0.05, 0.05, work)["H2n_fe"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < theta_hat.nbytes, peak

    def test_the_work_vector_holds_the_z_matrix_and_the_largest_share_that_runs(self):
        from replimeta.replicability import _directional_work_size, _fe_work_size

        rng = np.random.default_rng(1)
        se = rng.uniform(0.1, 1.5, 8)
        theta_hat = rng.normal(0.3, 1.0, (4096, 8)) * se
        size = theta_hat.size
        pooled = ("meta_fe", "meta_re")
        assert simulation._work_size(theta_hat, pooled) == size
        got = _evaluate_tests(theta_hat, se, pooled, 0.05, 0.05, np.empty(size))
        want = _evaluate_tests(theta_hat, se, pooled, 0.05, 0.05)
        assert all(np.array_equal(got[test_id], want[test_id]) for test_id in pooled)
        h_share, fe_share = _directional_work_size(size), _fe_work_size(8, 4096, 7)
        assert simulation._work_size(theta_hat, ("meta_fe", "H2n")) == size + h_share
        assert simulation._work_size(theta_hat, ("inconsistency_detected",)) == size + h_share
        assert simulation._work_size(theta_hat, ("H2n_fe", "H1n")) == size + max(h_share, fe_share)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FixedEffectsScenario(theta=(), group_sizes=()), "at least one study is required"),
        (lambda: calibrate_tau(0.999), "target heterogeneity unreachable within the search bracket"),
        (lambda: parse_scenario_config(io.StringIO("theta = 0 0\nnc = 25 25\nnt = 25\n")),
         "nc and nt must list the same number of studies"),
        (lambda: parse_scenario_config(io.StringIO("nc = 25 25\nnt = 25 25\n")),
         "config must define either theta or both mu and tau"),
    ],
    ids=["no-studies", "unreachable-tau", "nc-nt-lengths", "no-effects"],
)
def test_invalid_scenarios_are_named_errors(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
