"""Unit tests for the inverse-variance meta-analysis layer."""

import math

import numpy as np
import pytest

from replimeta import meta
from replimeta.meta import (
    StudySummary,
    binary_to_log_effect,
    fixed_effect_meta,
    leave_one_out,
    q_test_p_value,
    random_effects_meta,
)


def make(*pairs):
    return [StudySummary(f"s{i}", theta, se) for i, (theta, se) in enumerate(pairs)]


def random_studies(rng, n):
    return make(*((rng.normal(0, 1.5), rng.uniform(0.2, 2.0)) for _ in range(n)))


class TestStudySummary:
    def test_validation(self):
        with pytest.raises(ValueError):
            StudySummary("bad", 1.0, 0.0)
        with pytest.raises(ValueError):
            StudySummary("bad", math.inf, 1.0)

    # 1e-160 squares to a subnormal whose inverse overflows; 5e-324 squares to 0.
    @pytest.mark.parametrize("se", [1e-170, 1e-160, 5e-324, 1e160])
    def test_se_without_a_finite_weight_rejected(self, se):
        with pytest.raises(ValueError, match="1/se"):
            StudySummary("bad", 1.0, se)

    def test_extreme_se_with_a_finite_weight_accepted(self):
        for se in (1e-150, 1e150):
            assert StudySummary("ok", 1.0, se).se == se


class TestFixedEffect:
    def test_singleton_identity(self):
        result = fixed_effect_meta(make((1.2, 0.4)))
        assert result.pooled == 1.2
        assert result.se == 0.4
        assert result.tau_squared == 0.0

    def test_equal_weights(self):
        result = fixed_effect_meta(make((0.0, 1.0), (2.0, 1.0)))
        assert abs(result.pooled - 1.0) < 1e-12
        assert abs(result.se - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_hand_checked_weighted_mean(self):
        # weights 1, 4, 16 -> pooled (1 + 8 + 48) / 21
        result = fixed_effect_meta(make((1.0, 1.0), (2.0, 0.5), (3.0, 0.25)))
        assert abs(result.pooled - (1.0 + 8.0 + 48.0) / 21.0) < 1e-12
        assert abs(result.se - 1.0 / math.sqrt(21.0)) < 1e-12

    def test_pooled_within_range(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            studies = random_studies(rng, int(rng.integers(1, 9)))
            result = fixed_effect_meta(studies)
            thetas = [s.theta_hat for s in studies]
            assert min(thetas) - 1e-12 <= result.pooled <= max(thetas) + 1e-12

    def test_ci_and_p(self):
        result = fixed_effect_meta(make((0.5, 0.1), (0.6, 0.2)))
        assert result.ci[0] <= result.pooled <= result.ci[1]
        assert 0.0 <= result.p_two_sided <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fixed_effect_meta([])


class TestRandomEffects:
    def test_homogeneous_reduces_to_fixed(self):
        studies = make((1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
        re = random_effects_meta(studies)
        fe = fixed_effect_meta(studies)
        assert re.q == 0.0
        assert re.tau_squared == 0.0
        assert abs(re.pooled - fe.pooled) < 1e-15
        assert abs(re.se - fe.se) < 1e-15

    def test_moment_estimator_hand_value(self):
        # Q = 2, C = 2 - 2/2 = 1 -> tau^2 = 1; pooled stays at 1 by symmetry
        result = random_effects_meta(make((0.0, 1.0), (2.0, 1.0)))
        assert abs(result.q - 2.0) < 1e-12
        assert abs(result.tau_squared - 1.0) < 1e-12
        assert abs(result.pooled - 1.0) < 1e-12

    def test_tau_squared_truncated_at_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            result = random_effects_meta(random_studies(rng, int(rng.integers(2, 9))))
            assert result.tau_squared >= 0.0

    def test_ci_at_least_as_wide_as_fixed(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            studies = random_studies(rng, int(rng.integers(2, 9)))
            re = random_effects_meta(studies)
            fe = fixed_effect_meta(studies)
            assert (re.ci[1] - re.ci[0]) >= (fe.ci[1] - fe.ci[0]) - 1e-12

    def test_too_few_studies(self):
        with pytest.raises(ValueError):
            random_effects_meta(make((1.0, 1.0)))


class TestHeterogeneity:
    def test_identical_estimates(self):
        result = fixed_effect_meta(make((1.0, 0.5), (1.0, 0.5)))
        assert (result.q, result.i_squared) == (0.0, 0.0)

    def test_small_q_floors_i_squared(self):
        # Q below n-1 must report 0%, not a negative fraction
        result = fixed_effect_meta(make((1.0, 1.0), (1.1, 1.0), (0.9, 1.0)))
        assert result.q < 2.0
        assert result.i_squared == 0.0

    def test_hand_value(self):
        result = fixed_effect_meta(make((0.0, 1.0), (2.0, 1.0)))
        assert abs(result.q - 2.0) < 1e-12
        assert abs(result.i_squared - 0.5) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        studies = random_studies(rng, 6)
        first = fixed_effect_meta(studies)
        order = rng.permutation(6)
        second = fixed_effect_meta([studies[i] for i in order])
        assert abs(first.q - second.q) < 1e-10
        assert abs(first.i_squared - second.i_squared) < 1e-10

    def test_q_p_value(self):
        assert abs(q_test_p_value(0.0, 4) - 1.0) < 1e-12
        assert q_test_p_value(30.0, 4) < 1e-4


class TestLeaveOneOut:
    def test_symmetric_input(self):
        studies = make((1.0, 0.5), (1.0, 0.5), (1.0, 0.5))
        results = leave_one_out(studies)
        assert len(results) == 3
        assert all(abs(r.pooled - results[0].pooled) < 1e-15 for r in results)

    def test_cardinality_and_refit(self):
        rng = np.random.default_rng(37)
        studies = random_studies(rng, 5)
        results = leave_one_out(studies, "random")
        assert len(results) == 5
        for i, result in enumerate(results):
            refit = random_effects_meta(studies[:i] + studies[i + 1 :])
            assert abs(result.pooled - refit.pooled) < 1e-15

    def test_dominant_study_detected(self):
        """Exactly the refit omitting the dominant study loses significance."""
        dominant = StudySummary("big", 0.5, 0.05)
        nulls = [StudySummary(f"null{i}", 0.0, 0.6) for i in range(4)]
        results = leave_one_out([dominant] + nulls, "fixed", 0.05)
        significant = [r.p_two_sided <= 0.05 for r in results]
        assert significant[0] is False
        assert all(significant[1:])

    @pytest.mark.parametrize("model", ["fixed", "random"])
    def test_blocks_give_the_same_refits(self, monkeypatch, model):
        studies = random_studies(np.random.default_rng(41), 9)
        whole = leave_one_out(studies, model)
        # Blocks of one, two and three rows, the last one shorter.
        for elements in (8, 16, 24):
            monkeypatch.setattr(meta, "_BLOCK_ELEMENTS", elements)
            assert leave_one_out(studies, model) == whole

    def test_too_few(self):
        with pytest.raises(ValueError):
            leave_one_out(make((1.0, 1.0), (1.0, 1.0)))

    def test_bad_model(self):
        with pytest.raises(ValueError):
            leave_one_out(make((1, 1), (1, 1), (1, 1)), model="bayes")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            leave_one_out(make((1, 1), (1, 1), (1, 1)), alpha=alpha)


class TestBinaryToLogEffect:
    def test_balanced_table(self):
        theta, se = binary_to_log_effect((10, 20, 10, 20), "odds_ratio")
        assert theta == 0.0
        assert se > 0.0

    def test_odds_ratio_hand_value(self):
        theta, se = binary_to_log_effect((10, 20, 5, 20), "odds_ratio")
        assert abs(theta - math.log(3.0)) < 1e-12
        assert abs(se - math.sqrt(1 / 10 + 1 / 10 + 1 / 5 + 1 / 15)) < 1e-12

    def test_risk_ratio_hand_value(self):
        theta, se = binary_to_log_effect((10, 20, 5, 20), "risk_ratio")
        assert abs(theta - math.log(2.0)) < 1e-12
        assert abs(se - math.sqrt(1 / 10 - 1 / 20 + 1 / 5 - 1 / 20)) < 1e-12

    def test_zero_cell_correction(self):
        theta, se = binary_to_log_effect((0, 20, 5, 20), "odds_ratio")
        assert math.isfinite(theta)
        assert math.isfinite(se) and se > 0

    def test_empty_arm_rejected(self):
        with pytest.raises(ValueError):
            binary_to_log_effect((0, 0, 5, 20), "odds_ratio")

    @pytest.mark.parametrize("counts", [(5, 4, 1, 10), (1, 0, 1, 10), (-1, 10, 1, 10)])
    def test_impossible_table_rejected(self, counts):
        with pytest.raises(ValueError):
            binary_to_log_effect(counts, "odds_ratio")

    def test_bad_measure(self):
        with pytest.raises(ValueError):
            binary_to_log_effect((1, 10, 1, 10), "hazard_ratio")


def test_both_models_agree_on_degenerate_input():
    studies = make((0.7, 0.3), (0.7, 0.3), (0.7, 0.3), (0.7, 0.3))
    fe = fixed_effect_meta(studies)
    re = random_effects_meta(studies)
    assert fe.q == 0.0
    assert abs(fe.pooled - 0.7) < 1e-12
    assert abs(re.pooled - 0.7) < 1e-12


# Sets that pass every per-study check but whose pooling sums leave the
# doubles: Cochran's Q bound (at b), and Σ|w·θ| (at b, which the set without
# b, pooled by leave-one-out, overflows).
OVERFLOWING_SETS = [
    (((1e200, 1.0), (-1e200, 1.0), (1.0, 1.0)), "s1"),
    (((1e308, 1.0), (-1e308, 1.0), (1e308, 1.0)), "s1"),
]

LIBRARY_FITS = [
    fixed_effect_meta,
    random_effects_meta,
    lambda studies: leave_one_out(studies, "fixed"),
    lambda studies: leave_one_out(studies, "random"),
]


@pytest.mark.parametrize("pairs, label", OVERFLOWING_SETS)
@pytest.mark.parametrize("fit", LIBRARY_FITS)
def test_library_calls_name_the_study_where_a_pooling_sum_overflows(pairs, label, fit):
    # pytest turns RuntimeWarnings into errors, so this also shows that none is raised.
    with pytest.raises(ValueError, match=f"study '{label}': .*overflow"):
        fit(make(*pairs))


def _numbers(value):
    """Every number in a fit's result: a float, a tuple or a result, or a list of them."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in _numbers(item)]
    return [x for field in ("pooled", "se", "ci", "p_two_sided", "q", "i_squared", "tau_squared")
            for x in _numbers(getattr(value, field))]


@pytest.mark.parametrize("fit", LIBRARY_FITS)
def test_library_calls_pool_a_set_whose_squared_weights_overflow(fit):
    # Σw² leaves the doubles at s0, but no pooling sum forms it: the
    # DerSimonian-Laird scale c is summed without squaring a weight.
    numbers = _numbers(fit(make((1.0, 1e-100), (2.0, 1e-100), (3.0, 1.0))))
    assert numbers and all(math.isfinite(x) for x in numbers)


def test_a_q_test_of_one_study_is_a_named_error():
    with pytest.raises(ValueError) as caught:
        q_test_p_value(1.0, 1)
    assert str(caught.value) == "Q test requires at least two studies"
