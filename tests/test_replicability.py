"""Tests for the partial-conjunction machinery.

The sorted-shortcut implementation is checked against an exhaustive
enumeration oracle over all study subsets, and the combination p-value against
both the chi-square reduction at t=1 and a Monte Carlo sample of the null
statistic.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chi2

from replimeta import meta, replicability
from replimeta.meta import StudySummary
from replimeta.replicability import (
    ReplicabilityReport,
    _fe_z_extremes,
    _PCCurve,
    _validate_pvalues,
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

T = 0.05
ALPHA = 0.05


def brute_force_pc(ps, u, t):
    """Independent oracle: explicit maximum over all (n-u+1)-subsets."""
    n = len(ps)
    return max(
        truncated_product_p([ps[i] for i in subset], t=t)
        for subset in combinations(range(n), n - u + 1)
    )


class TestThresholdValidation:
    def test_validation(self):
        with pytest.raises(ValueError):
            truncated_product_p([0.5], t=0.0)
        with pytest.raises(ValueError):
            truncated_product_p([0.5], t=1.5)
        with pytest.raises(ValueError):
            confidence_bounds([0.5], [0.5], t=T, alpha=1.0)


class TestTruncatedProduct:
    def test_nothing_truncated_returns_one(self):
        assert truncated_product_p([0.9] * 5, t=T) == 1.0

    def test_single_small_p(self):
        # analytic: 0.05 * (1 - F_1(log 5)) = 0.05 * 0.2 = 0.01
        assert abs(truncated_product_p([0.01], t=T) - 0.01) < 1e-12

    def test_fisher_reduction_at_t_one(self):
        """With no truncation the p-value is the chi-square tail of the statistic."""
        rng = np.random.default_rng(101)
        for _ in range(100):
            length = int(rng.integers(1, 11))
            ps = rng.uniform(0.001, 0.999, size=length)
            c_stat = -2.0 * float(np.sum(np.log(ps)))
            assert abs(truncated_product_p(ps, t=1.0) - chi2.sf(c_stat, 2 * length)) < 1e-10

    def test_order_invariance_is_exact(self):
        rng = np.random.default_rng(7)
        ps = rng.uniform(size=8)
        base = truncated_product_p(ps, t=T)
        for _ in range(10):
            assert truncated_product_p(rng.permutation(ps), t=T) == base

    def test_monte_carlo_null_oracle_small(self):
        """Quick draw-based check; the acceptance suite runs the full version."""
        rng = np.random.default_rng(55)
        draws = rng.uniform(size=(200_000, 3))
        c_null = -2.0 * np.where(draws <= 0.05, np.log(draws), 0.0).sum(axis=1)
        observed = [0.02, 0.3, 0.9]
        exact = truncated_product_p(observed, t=T)
        c_obs = -2.0 * sum(math.log(p) for p in observed if p <= 0.05)
        empirical = float((c_null >= c_obs).mean())
        mc_se = math.sqrt(empirical * (1 - empirical) / len(c_null))
        assert abs(exact - empirical) <= 3 * mc_se

    def test_validation(self):
        with pytest.raises(ValueError):
            truncated_product_p([], t=T)
        with pytest.raises(ValueError):
            truncated_product_p([0.5, 1.2], t=T)
        with pytest.raises(ValueError):
            truncated_product_p([0.5, -0.1], t=T)

    def test_extreme_p_values_stay_finite(self):
        value = truncated_product_p([0.0, 1.0, 1e-320], t=T)
        assert 0.0 <= value <= 1.0


class TestPartialConjunction:
    def test_all_ones(self):
        for u in (1, 2, 3):
            assert partial_conjunction_p([1.0] * 4, u, t=T) == 1.0

    def test_u_one_uses_all_pvalues(self):
        rng = np.random.default_rng(13)
        ps = rng.uniform(size=6)
        assert partial_conjunction_p(ps, 1, t=T) == truncated_product_p(ps, t=T)

    def test_sorted_shortcut_matches_brute_force_fixture(self):
        ps = [0.001, 0.002, 0.01, 0.6, 0.7]
        assert partial_conjunction_p(ps, 2, t=T) == brute_force_pc(ps, 2, t=T)

    @pytest.mark.parametrize("t", [0.05, 0.5, 1.0])
    def test_shortcut_equals_brute_force(self, t):
        rng = np.random.default_rng(int(t * 100))
        for _ in range(25):
            n = int(rng.integers(1, 9))
            ps = rng.uniform(size=n)
            if rng.uniform() < 0.5:
                ps = np.minimum(ps, rng.beta(0.2, 1.0, size=n))
            for u in range(1, n + 1):
                assert partial_conjunction_p(ps, u, t=t) == brute_force_pc(list(ps), u, t)

    def test_u_out_of_range(self):
        with pytest.raises(ValueError):
            partial_conjunction_p([0.5, 0.5], 3, t=T)
        with pytest.raises(ValueError):
            partial_conjunction_p([0.5, 0.5], 0, t=T)

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
        curve = _PCCurve.from_p_values(matrix, 0.05)
        curves = np.column_stack([curve(u) for u in range(1, n + 1)])
        drops = np.diff(curves, axis=1) < -1e-12
        bad_rows = np.nonzero(drops.any(axis=1))[0]
        counterexamples = [
            (matrix[i].tolist(), curves[i].tolist()) for i in bad_rows[:5]
        ]
        assert not counterexamples, f"monotonicity counterexamples at t=0.05: {counterexamples}"

    def test_non_monotone_at_t_one(self):
        """Fisher combination dilutes with large p-values, so r(u) can drop as u grows."""
        r1 = partial_conjunction_p([0.5, 0.5], 1, t=1.0)
        r2 = partial_conjunction_p([0.5, 0.5], 2, t=1.0)
        assert r2 < r1


class TestRValue:
    def test_all_half(self):
        assert r_value([0.5] * 5, [0.5] * 5, 2, t=T).r == 1.0

    def test_five_strong_studies(self):
        result = r_value([1 - 0.001] * 5, [0.001] * 5, 2, t=T)
        assert result.r < 1e-6
        assert result.r_right < result.r_left

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(3)
        rights = rng.uniform(size=6)
        lefts = 1.0 - rights
        forward = r_value(lefts, rights, 2, t=T)
        swapped = r_value(rights, lefts, 2, t=T)
        assert forward.r == swapped.r
        assert forward.r_left == swapped.r_right

    def test_result_invariants(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            rights = rng.uniform(size=n)
            result = r_value(1.0 - rights, rights, int(rng.integers(1, n + 1)), t=T)
            assert 0.0 <= result.r <= 1.0
            assert result.r == min(1.0, 2.0 * min(result.r_left, result.r_right))
            assert result.t == T

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            r_value([0.5, 0.5], [0.5], 1, t=T)

    def test_pairing_checked(self):
        with pytest.raises(ValueError):
            r_value([0.2, 0.2], [0.2, 0.2], 1, t=T)


class TestConfidenceBounds:
    def test_no_signal(self):
        assert confidence_bounds([0.5] * 5, [0.5] * 5, t=T, alpha=ALPHA) == (0, 0)

    def test_all_strong_right(self):
        assert confidence_bounds([1 - 1e-6] * 5, [1e-6] * 5, t=T, alpha=ALPHA) == (0, 5)

    def test_mixed_fixture(self):
        lefts = [1e-6, 1e-6, 1 - 1e-6, 1 - 1e-6, 1 - 1e-6]
        rights = [1.0 - l for l in lefts]
        assert confidence_bounds(lefts, rights, t=T, alpha=ALPHA) == (2, 3)

    def test_bounds_match_sequential_definition(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            rights = rng.uniform(size=n) ** 3
            lefts = 1.0 - rights
            u_left, u_right = confidence_bounds(lefts, rights, t=T, alpha=ALPHA)
            for side_ps, bound in ((lefts, u_left), (rights, u_right)):
                expected = 0
                for u in range(1, n + 1):
                    if partial_conjunction_p(side_ps, u, t=T) <= ALPHA / 2:
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
            u_left, u_right = confidence_bounds(lefts, rights, t=T, alpha=ALPHA)
            assert u_right <= int((rights <= T).sum())
            assert u_left <= int((lefts <= T).sum())
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
        whole = _fe_z_extremes(theta_hat.T, se, 3)
        # Blocks of one, two and ten of the 35 subsets; the last block is shorter.
        for elements in (1, 12, 60):
            monkeypatch.setattr(meta, "_BLOCK_ELEMENTS", elements)
            got = _fe_z_extremes(theta_hat.T, se, 3)
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
        delta = delta_bound(studies, 2, alpha, "upper_positive", t=alpha)
        assert delta is not None

        def shifted(d):
            ps = [one_sided_p(s.theta_hat, s.se, shift=d).right for s in studies]
            return partial_conjunction_p(ps, 2, t=alpha)

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

    @pytest.mark.parametrize("t", [0.01, 0.05, 0.5, 1.0])
    @pytest.mark.parametrize("side", ["upper_positive", "lower_negative"])
    def test_search_bracket_top_never_rejects(self, t, side):
        """Why the bisection needs no check at its upper end.

        hi = max|theta| + 10 max se is at least |theta_i| + 10 se_i for every
        study, so the shifted z on the tested side is at most -10 and every
        one-sided p-value rounds to 1.0. Clipped to LOG_CEIL, such p-values
        give r(u) > alpha/2 for every u, at t = 1 (Fisher) as below it.
        """
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            studies = make_studies(
                *((float(rng.normal(0, 10)), float(rng.uniform(1e-3, 5))) for _ in range(n))
            )
            hi = max(abs(s.theta_hat) for s in studies) + 10.0 * max(s.se for s in studies)
            sign = 1.0 if side == "upper_positive" else -1.0
            pairs = [one_sided_p(s.theta_hat, s.se, shift=sign * hi) for s in studies]
            ps = [pair.right if side == "upper_positive" else pair.left for pair in pairs]
            assert ps == [1.0] * n
            for u in range(1, n + 1):
                assert partial_conjunction_p(ps, u, t=t) > ALPHA / 2

    @pytest.mark.parametrize("pairs, u, side, t, expected", [
        (((1.8, 0.2), (2.2, 0.25), (2.0, 0.3), (1.5, 0.4), (2.4, 0.2)), 2, "upper_positive",
         0.05, 1.5184135437011717),
        (((2.0, 0.1),) * 5, 1, "upper_positive", 1.0, 1.8868632316589355),
        (((-3.0, 0.5), (-2.5, 0.4), (-1.0, 1.0)), 2, "lower_negative", 0.5, 1.4421685934066772),
        (((40.0, 1.0), (45.0, 1.0), (38.0, 1.0)), 3, "upper_positive", 1.0, 36.04003578424454),
    ])
    def test_bounds_unchanged(self, pairs, u, side, t, expected):
        # Values recorded while delta_bound still tested its upper bracket end.
        assert delta_bound(make_studies(*pairs), u, 0.05, side, t=t) == expected

    @pytest.mark.parametrize("side, sign", [("upper_positive", 1.0), ("lower_negative", -1.0)])
    def test_a_boundary_where_doubles_lie_wider_apart_than_the_tolerance_is_found(self, side, sign):
        """Near 2e20 adjacent doubles are 32768 apart, far more than _DELTA_TOL,
        so the bisection ends on two of them: the lower rejects, the upper does not."""
        studies = make_studies(*((sign * k * 1e20, 1.0) for k in (1, 2, 3)))
        delta = delta_bound(studies, 2, side=side)

        def shifted(d):
            pairs = [one_sided_p(s.theta_hat, s.se, shift=sign * d) for s in studies]
            return partial_conjunction_p([p.right if sign > 0 else p.left for p in pairs], 2, t=ALPHA)

        assert delta == pytest.approx(2e20, rel=1e-15)
        assert shifted(delta) <= ALPHA / 2 < shifted(float(np.nextafter(delta, math.inf)))


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
    r_l = _PCCurve.from_p_values(lefts, 0.05)(2)
    r_r = _PCCurve.from_p_values(rights, 0.05)(2)
    rate = float((np.minimum(1.0, 2 * np.minimum(r_l, r_r)) <= 0.05).mean())
    assert rate <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / replications)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ReplicabilityReport(-1, 0, 0.5, alpha=0.05), "bounds must be nonnegative"),
        (lambda: _validate_pvalues([[0.1, 0.2]]), "p-values must form a one-dimensional sequence"),
        (lambda: partial_conjunction_p([], 1), "p_one_sided must be nonempty"),
        (lambda: r_value([0.1, 0.2], [0.9, 0.8], 3), "u must be in [1, 2], got 3"),
        (lambda: fe_r_value([StudySummary("a", 0.1, 0.2)], 2), "at least two studies are required"),
        (lambda: delta_bound([], 1), "at least one study is required"),
    ],
    ids=["negative-bound", "two-dimensional", "empty", "u-out-of-range", "fe-one-study", "delta-no-studies"],
)
def test_invalid_arguments_are_named_errors(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def scalar_log_pmf_weights(length, t):
    """The binomial log masses of ``_TailArrays``, one Python float expression per k."""
    if t == 1.0:
        return [0.0 if k == length else -math.inf for k in range(1, length + 1)]
    log_trials, log_t, log_rest = math.lgamma(length + 1), math.log(t), math.log1p(-t)
    return [
        log_trials - math.lgamma(k + 1) - math.lgamma(length - k + 1) + k * log_t + (length - k) * log_rest
        for k in range(1, length + 1)
    ]


@pytest.mark.parametrize("t", [0.025, 0.05, 0.5, 0.9, 1.0])
def test_tail_weights_equal_the_scalar_formula_bit_for_bit(t):
    """The numpy weights, log weights and log factorials of ``_TailArrays``
    equal the scalar formula and ``math.exp``/``math.lgamma`` of it, sign bits
    included, for every length 1..1000."""
    for length in range(1, 1001):
        log_weights = scalar_log_pmf_weights(length, t)
        arrays = replicability._TailArrays(length, t)
        assert arrays.log_weights.tobytes() == np.array(log_weights).tobytes(), length
        assert arrays.weights.tobytes() == np.array([math.exp(v) for v in log_weights]).tobytes(), length
        factorials = np.array([math.lgamma(k) for k in range(1, length + 1)])
        assert arrays.log_factorials.tobytes() == factorials.tobytes(), length


def test_the_tail_cache_holds_at_most_its_capacity_over_a_t_sweep():
    """Five walks over every length 1..1000, at five t, hold no more than
    ``_TAIL_CACHE_BYTES`` by the cache's count, and no more than 1 MiB over it
    as tracemalloc counts them (unbounded, they held about 84 MB); the
    entries of the oldest t are the ones evicted."""
    replicability._lgamma_table(2048)  # the shared table is not the cache's
    cache = replicability._TailCache(replicability._TAIL_CACHE_BYTES)
    sweep = (0.025, 0.05, 0.5, 0.9, 1.0)
    tracemalloc.start()
    try:
        for t in sweep:
            for length in range(1, 1001):
                cache(length, t)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache.held <= replicability._TAIL_CACHE_BYTES and held <= replicability._TAIL_CACHE_BYTES + (1 << 20)
    assert (1000, sweep[0]) not in cache._entries and (1000, sweep[-1]) in cache._entries


def test_an_evicted_t_gives_the_bytes_of_a_fresh_process(monkeypatch):
    """r(1..n) and the tail arrays at t = 0.05 after a sweep over other t has
    evicted them equal those of a process that computed them first."""
    code = (
        "import hashlib, sys\n"
        "import numpy as np\n"
        "from replimeta import replicability\n"
        "def digest():\n"
        "    rng = np.random.default_rng(5)\n"
        "    curve = replicability._PCCurve.from_p_values(rng.uniform(0.0, 0.2, 30) ** 3, 0.05)\n"
        "    parts = [curve(u).tobytes() for u in range(1, 31)]\n"
        "    for length in (1, 7, 20, 30):\n"
        "        arrays = replicability._tail_arrays(length, 0.05)\n"
        "        parts += [arrays.weights.tobytes(), arrays.log_weights.tobytes(), arrays.k_log_t.tobytes()]\n"
        "    return hashlib.sha256(b''.join(parts)).hexdigest()\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code + "print(digest())"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    cache = replicability._TailCache(1 << 20)
    monkeypatch.setattr(replicability, "_tail_arrays", cache)
    namespace = {}
    exec(code, namespace)
    first = namespace["digest"]()
    for t in np.linspace(0.1, 0.9, 40).tolist():
        for length in range(1, 31):
            cache(length, t)
    assert (30, 0.05) not in cache._entries
    assert first == namespace["digest"]() == done.stdout.strip()


def test_the_second_side_of_a_walk_at_1000_studies_reuses_the_first_sides_arrays(monkeypatch):
    """r(u) on every u of the left side, then of the right, at n = 1000:
    each length's arrays are built once, although the right side starts over
    from the longest."""
    built = []

    class Counted(replicability._TailArrays):
        def __init__(self, length, t):
            built.append(length)
            super().__init__(length, t)

    monkeypatch.setattr(replicability, "_TailArrays", Counted)
    monkeypatch.setattr(replicability, "_tail_arrays", replicability._TailCache(replicability._TAIL_CACHE_BYTES))
    rng = np.random.default_rng(11)
    left = rng.uniform(0.0, 1.0, 1000)
    profile = replicability._TwoSidedProfile(left, 1.0 - left, 0.05)
    for curve in (profile.left, profile.right):
        for u in range(1, 1001):
            curve(u)
    assert sorted(built) == list(range(1, 1001))
