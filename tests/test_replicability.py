"""Tests for the partial-conjunction machinery.

The sorted-shortcut implementation is checked against an exhaustive
enumeration oracle over all study subsets, and the combination p-value against
both the chi-square reduction at t=1 and a Monte Carlo sample of the null
statistic.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chi2

from replimeta import meta
from replimeta.meta import StudySummary
from replimeta.replicability import (
    TruncationConfig,
    _fe_z_extremes,
    _PCCurve,
    classify_consistency,
    conditional_p_transform,
    confidence_bounds,
    delta_bound,
    fe_r_value,
    partial_conjunction_p,
    r_value,
    truncated_product_p,
)
from replimeta.statkernels import one_sided_p

CFG = TruncationConfig()


def brute_force_pc(ps, u, cfg):
    """Independent oracle: explicit maximum over all (n-u+1)-subsets."""
    n = len(ps)
    return max(
        truncated_product_p([ps[i] for i in subset], cfg)
        for subset in combinations(range(n), n - u + 1)
    )


class TestTruncationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationConfig(t=0.0)
        with pytest.raises(ValueError):
            TruncationConfig(t=1.5)
        with pytest.raises(ValueError):
            TruncationConfig(alpha=1.0)


class TestTruncatedProduct:
    def test_nothing_truncated_returns_one(self):
        assert truncated_product_p([0.9] * 5, CFG) == 1.0

    def test_single_small_p(self):
        # analytic: 0.05 * (1 - F_1(log 5)) = 0.05 * 0.2 = 0.01
        assert abs(truncated_product_p([0.01], CFG) - 0.01) < 1e-12

    def test_fisher_reduction_at_t_one(self):
        """With no truncation the p-value is the chi-square tail of the statistic."""
        rng = np.random.default_rng(101)
        cfg = TruncationConfig(t=1.0)
        for _ in range(100):
            length = int(rng.integers(1, 11))
            ps = rng.uniform(0.001, 0.999, size=length)
            c_stat = -2.0 * float(np.sum(np.log(ps)))
            assert abs(truncated_product_p(ps, cfg) - chi2.sf(c_stat, 2 * length)) < 1e-10

    def test_order_invariance_is_exact(self):
        rng = np.random.default_rng(7)
        ps = rng.uniform(size=8)
        base = truncated_product_p(ps, CFG)
        for _ in range(10):
            assert truncated_product_p(rng.permutation(ps), CFG) == base

    def test_monte_carlo_null_oracle_small(self):
        """Quick draw-based check; the acceptance suite runs the full version."""
        rng = np.random.default_rng(55)
        draws = rng.uniform(size=(200_000, 3))
        c_null = -2.0 * np.where(draws <= 0.05, np.log(draws), 0.0).sum(axis=1)
        observed = [0.02, 0.3, 0.9]
        exact = truncated_product_p(observed, CFG)
        c_obs = -2.0 * sum(math.log(p) for p in observed if p <= 0.05)
        empirical = float((c_null >= c_obs).mean())
        mc_se = math.sqrt(empirical * (1 - empirical) / len(c_null))
        assert abs(exact - empirical) <= 3 * mc_se

    def test_validation(self):
        with pytest.raises(ValueError):
            truncated_product_p([], CFG)
        with pytest.raises(ValueError):
            truncated_product_p([0.5, 1.2], CFG)
        with pytest.raises(ValueError):
            truncated_product_p([0.5, -0.1], CFG)

    def test_extreme_p_values_stay_finite(self):
        value = truncated_product_p([0.0, 1.0, 1e-320], CFG)
        assert 0.0 <= value <= 1.0


class TestPartialConjunction:
    def test_all_ones(self):
        for u in (1, 2, 3):
            assert partial_conjunction_p([1.0] * 4, u, CFG) == 1.0

    def test_u_one_uses_all_pvalues(self):
        rng = np.random.default_rng(13)
        ps = rng.uniform(size=6)
        assert partial_conjunction_p(ps, 1, CFG) == truncated_product_p(ps, CFG)

    def test_sorted_shortcut_matches_brute_force_fixture(self):
        ps = [0.001, 0.002, 0.01, 0.6, 0.7]
        assert partial_conjunction_p(ps, 2, CFG) == brute_force_pc(ps, 2, CFG)

    @pytest.mark.parametrize("t", [0.05, 0.5, 1.0])
    def test_shortcut_equals_brute_force(self, t):
        rng = np.random.default_rng(int(t * 100))
        cfg = TruncationConfig(t=t)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            ps = rng.uniform(size=n)
            if rng.uniform() < 0.5:
                ps = np.minimum(ps, rng.beta(0.2, 1.0, size=n))
            for u in range(1, n + 1):
                assert partial_conjunction_p(ps, u, cfg) == brute_force_pc(list(ps), u, cfg)

    def test_u_out_of_range(self):
        with pytest.raises(ValueError):
            partial_conjunction_p([0.5, 0.5], 3, CFG)
        with pytest.raises(ValueError):
            partial_conjunction_p([0.5, 0.5], 0, CFG)

    def test_monotone_in_u_at_default_threshold(self):
        """At t=0.05 the p-value curve is nondecreasing in u.

        Any counterexample is reported explicitly; none are known at the
        default threshold. (At t=1 the curve is provably non-monotone, see
        test_non_monotone_at_t_one, which is why the bounds are computed by
        sequential testing rather than an argmax.)
        """
        rng = np.random.default_rng(99)
        n = 6
        matrix = rng.uniform(size=(10_000, n))
        matrix[:3000] = np.minimum(matrix[:3000], rng.beta(0.2, 1.0, size=(3000, n)))
        curve = _PCCurve(matrix, 0.05)
        curves = np.column_stack([curve(u) for u in range(1, n + 1)])
        drops = np.diff(curves, axis=1) < -1e-12
        bad_rows = np.nonzero(drops.any(axis=1))[0]
        counterexamples = [
            (matrix[i].tolist(), curves[i].tolist()) for i in bad_rows[:5]
        ]
        assert not counterexamples, f"monotonicity counterexamples at t=0.05: {counterexamples}"

    def test_non_monotone_at_t_one(self):
        """Fisher combination dilutes with large p-values, so r(u) can drop as u grows."""
        cfg = TruncationConfig(t=1.0)
        r1 = partial_conjunction_p([0.5, 0.5], 1, cfg)
        r2 = partial_conjunction_p([0.5, 0.5], 2, cfg)
        assert r2 < r1


class TestRValue:
    def test_all_half(self):
        assert r_value([0.5] * 5, [0.5] * 5, 2, CFG).r == 1.0

    def test_five_strong_studies(self):
        result = r_value([1 - 0.001] * 5, [0.001] * 5, 2, CFG)
        assert result.r < 1e-6
        assert result.r_right < result.r_left

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(3)
        rights = rng.uniform(size=6)
        lefts = 1.0 - rights
        forward = r_value(lefts, rights, 2, CFG)
        swapped = r_value(rights, lefts, 2, CFG)
        assert forward.r == swapped.r
        assert forward.r_left == swapped.r_right

    def test_result_invariants(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            rights = rng.uniform(size=n)
            result = r_value(1.0 - rights, rights, int(rng.integers(1, n + 1)), CFG)
            assert 0.0 <= result.r <= 1.0
            assert result.r == min(1.0, 2.0 * min(result.r_left, result.r_right))
            assert result.t == CFG.t

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            r_value([0.5, 0.5], [0.5], 1, CFG)

    def test_pairing_checked(self):
        with pytest.raises(ValueError):
            r_value([0.2, 0.2], [0.2, 0.2], 1, CFG)


class TestConfidenceBounds:
    def test_no_signal(self):
        assert confidence_bounds([0.5] * 5, [0.5] * 5, CFG) == (0, 0)

    def test_all_strong_right(self):
        assert confidence_bounds([1 - 1e-6] * 5, [1e-6] * 5, CFG) == (0, 5)

    def test_mixed_fixture(self):
        lefts = [1e-6, 1e-6, 1 - 1e-6, 1 - 1e-6, 1 - 1e-6]
        rights = [1.0 - l for l in lefts]
        assert confidence_bounds(lefts, rights, CFG) == (2, 3)

    def test_bounds_match_sequential_definition(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            rights = rng.uniform(size=n) ** 3
            lefts = 1.0 - rights
            u_left, u_right = confidence_bounds(lefts, rights, CFG)
            for side_ps, bound in ((lefts, u_left), (rights, u_right)):
                expected = 0
                for u in range(1, n + 1):
                    if partial_conjunction_p(side_ps, u, CFG) <= CFG.alpha / 2:
                        expected = u
                    else:
                        break
                assert bound == expected

    def test_bound_never_exceeds_truncated_count_or_n(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            rights = rng.uniform(size=n) ** 2
            lefts = 1.0 - rights
            u_left, u_right = confidence_bounds(lefts, rights, CFG)
            assert u_right <= int((rights <= CFG.t).sum())
            assert u_left <= int((lefts <= CFG.t).sum())
            assert u_left + u_right <= n


class TestClassifyConsistency:
    def test_spec_cases(self):
        assert classify_consistency(1, 1) == "inconsistent"
        assert classify_consistency(0, 2) == "supports_consistency"
        assert classify_consistency(1, 0) == "insufficient_evidence"

    def test_exhaustive_grid(self):
        for u_left in range(4):
            for u_right in range(4):
                got = classify_consistency(u_left, u_right)
                if u_left >= 1 and u_right >= 1:
                    assert got == "inconsistent"
                elif (u_left >= 2 and u_right == 0) or (u_left == 0 and u_right >= 2):
                    assert got == "supports_consistency"
                else:
                    assert got == "insufficient_evidence"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_consistency(-1, 0)


def make_studies(*pairs):
    return [StudySummary(f"s{i}", theta, se) for i, (theta, se) in enumerate(pairs)]


class TestFeRValue:
    def test_two_studies_reduces_to_singletons(self):
        studies = make_studies((0.8, 0.5), (0.1, 0.4))
        result = fe_r_value(studies, 2)
        p_rights = [one_sided_p(s.theta_hat, s.se).right for s in studies]
        p_lefts = [one_sided_p(s.theta_hat, s.se).left for s in studies]
        assert abs(result.r_right - max(p_rights)) < 1e-12
        assert abs(result.r_left - max(p_lefts)) < 1e-12

    def test_homogeneous_positive_dominance(self):
        from replimeta.meta import fixed_effect_meta

        studies = make_studies(*(((1.0, 0.4),) * 6))
        p = fixed_effect_meta(studies).p_two_sided
        for u in range(2, 7):
            assert p < fe_r_value(studies, u).r

    def test_dominance_on_random_instances(self):
        from replimeta.meta import fixed_effect_meta

        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            studies = make_studies(
                *((rng.normal(0, 1), rng.uniform(0.5, 1.5)) for _ in range(n))
            )
            p = fixed_effect_meta(studies).p_two_sided
            for u in range(2, n + 1):
                assert p < fe_r_value(studies, u).r

    def test_single_nonnull_rarely_rejects(self):
        """One strong study among nulls should not establish two-study replicability."""
        rng = np.random.default_rng(19)
        rejections = 0
        trials = 400
        for _ in range(trials):
            estimates = rng.normal(0, 1, size=6) * 0.5
            estimates[0] += 3.0
            studies = make_studies(*((float(t), 0.5) for t in estimates))
            if fe_r_value(studies, 2).r <= 0.05:
                rejections += 1
        assert rejections / trials <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / trials)

    def test_blocks_give_the_same_extremes(self, monkeypatch):
        rng = np.random.default_rng(23)
        theta_hat = rng.normal(0, 1, size=(3, 7))
        se = rng.uniform(0.2, 1.5, size=7)
        whole = _fe_z_extremes(theta_hat, se, 3)
        # Blocks of one, two and ten of the 35 subsets; the last block is shorter.
        for elements in (1, 12, 60):
            monkeypatch.setattr(meta, "_BLOCK_ELEMENTS", elements)
            got = _fe_z_extremes(theta_hat, se, 3)
            assert all(np.array_equal(a, b) for a, b in zip(got, whole))

    def test_enumeration_cap(self):
        studies = make_studies(*(((0.1, 1.0),) * 25))
        with pytest.raises(ValueError, match=r"5200300"):
            fe_r_value(studies, 14)

    def test_u_validation(self):
        studies = make_studies((1, 1), (2, 1), (3, 1))
        with pytest.raises(ValueError):
            fe_r_value(studies, 1)
        with pytest.raises(ValueError):
            fe_r_value(studies, 4)


class TestDeltaBound:
    def test_absent_when_not_significant(self):
        studies = make_studies(*(((0.0, 1.0),) * 5))
        assert delta_bound(studies, 2, side="upper_positive") is None

    def test_strong_fixture_close_to_effect(self):
        studies = make_studies(*(((2.0, 0.1),) * 5))
        delta = delta_bound(studies, 2, side="upper_positive")
        assert delta is not None
        assert 1.5 <= delta <= 2.0

    def test_boundary_against_grid_oracle(self):
        """Direct evaluation at the returned delta brackets the rejection level."""
        studies = make_studies((1.8, 0.2), (2.2, 0.25), (2.0, 0.3), (1.5, 0.4), (2.4, 0.2))
        alpha = 0.05
        cfg = TruncationConfig(t=alpha, alpha=alpha)
        delta = delta_bound(studies, 2, alpha, "upper_positive", cfg)
        assert delta is not None

        def shifted(d):
            ps = [one_sided_p(s.theta_hat, s.se, shift=d).right for s in studies]
            return partial_conjunction_p(ps, 2, cfg)

        assert shifted(delta - 1e-4) <= alpha / 2
        assert shifted(delta + 1e-4) > alpha / 2

    def test_lower_negative_mirrors_upper_positive(self):
        pos = make_studies(*(((2.0, 0.1),) * 5))
        neg = make_studies(*(((-2.0, 0.1),) * 5))
        up = delta_bound(pos, 2, side="upper_positive")
        down = delta_bound(neg, 2, side="lower_negative")
        assert up is not None and down is not None
        assert abs(up - down) < 1e-5

    def test_nonnegative(self):
        studies = make_studies(*(((0.5, 0.1),) * 4))
        delta = delta_bound(studies, 2, side="upper_positive")
        assert delta is not None and delta >= 0.0

    def test_validation(self):
        studies = make_studies((1, 1), (2, 1))
        with pytest.raises(ValueError):
            delta_bound(studies, 3)
        with pytest.raises(ValueError):
            delta_bound(studies, 2, side="sideways")


class TestConditionalTransform:
    def test_rescaling(self):
        assert conditional_p_transform([0.025], 0.05) == [0.5]

    def test_filtering(self):
        assert conditional_p_transform([0.06], 0.05) == []

    def test_boundary_kept(self):
        assert conditional_p_transform([0.05], 0.05) == [1.0]

    def test_order_preserved(self):
        out = conditional_p_transform([0.04, 0.9, 0.01, 0.02], 0.05)
        assert out == pytest.approx([0.8, 0.2, 0.4], abs=1e-12)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            conditional_p_transform([0.5], 0.0)
        with pytest.raises(ValueError):
            conditional_p_transform([0.5], 1.0)


def test_size_under_global_null_quick():
    """The u=2 r-value rejects at most ~alpha of the time under pure noise."""
    rng = np.random.default_rng(2718)
    replications = 4000
    n = 5
    z = rng.standard_normal((replications, n))
    from scipy.special import ndtr

    lefts = ndtr(z)
    rights = ndtr(-z)
    r_l = _PCCurve(lefts, 0.05)(2)
    r_r = _PCCurve(rights, 0.05)(2)
    rate = float((np.minimum(1.0, 2 * np.minimum(r_l, r_r)) <= 0.05).mean())
    assert rate <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / replications)
