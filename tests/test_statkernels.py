"""Unit tests for the scalar distribution primitives."""

import math

import numpy as np
import pytest

from replimeta.replicability import _pmf_weights
from replimeta.statkernels import (
    normal_cdf,
    one_sided_p,
)


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_standard_quantile(self):
        assert abs(normal_cdf(1.6449) - 0.95) < 1e-4

    def test_high_precision_value(self):
        # 50-digit erf-identity oracle: Phi(1) = 0.84134474606854294859...
        assert abs(normal_cdf(1.0) - 0.8413447460685429) < 1e-12

    def test_complement_identity(self):
        for z in np.linspace(-8.0, 8.0, 161):
            assert abs(normal_cdf(z) + normal_cdf(-z) - 1.0) < 1e-12

    def test_monotone(self):
        grid = np.linspace(-10, 10, 401)
        values = [normal_cdf(z) for z in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_tail_saturation(self):
        assert normal_cdf(-60.0) == 0.0
        assert normal_cdf(60.0) == 1.0
        assert normal_cdf(math.inf) == 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            normal_cdf(float("nan"))


class TestBinomialPmf:
    """The binomial masses P(k of L uniforms <= t), k = 1..L, that weigh the
    truncated-product mixture (``replicability._pmf_weights``)."""

    def test_all_failures(self):
        # The mass at k = 0, (1 - t)^L, is what the weights leave out.
        assert abs((1.0 - math.fsum(_pmf_weights(5, 0.05))) - 0.95**5) < 1e-15

    def test_certainty(self):
        assert _pmf_weights(5, 1.0) == (0.0, 0.0, 0.0, 0.0, 1.0)
        assert _pmf_weights(1, 1.0) == (1.0,)
        # An empty side, as under a conditional threshold, has no weights.
        assert _pmf_weights(0, 0.05) == ()
        assert _pmf_weights(0, 1.0) == ()

    def test_exact_rational_value(self):
        # Fraction oracle: C(8,2) * (1/20)^2 * (19/20)^6 = 329321167/6400000000
        assert abs(_pmf_weights(8, 0.05)[1] - 0.05145643234375) < 1e-12

    @pytest.mark.parametrize("trials", [1, 7, 33, 100])
    @pytest.mark.parametrize("prob", [0.01, 0.05, 0.5])
    def test_sums_to_one(self, trials, prob):
        total = sum(_pmf_weights(trials, prob))
        assert abs(total - (1.0 - (1.0 - prob) ** trials)) < 1e-12

    def test_large_trials_no_underflow(self):
        value = _pmf_weights(10_000, 0.5)[4999]
        assert 0.0 < value < 1.0
        assert math.isfinite(value)


class TestOneSidedP:
    def test_null_center(self):
        pair = one_sided_p(0.0, 1.0)
        assert pair == (0.5, 0.5)

    def test_quantile(self):
        assert abs(one_sided_p(1.6449, 1.0).right - 0.05) < 1e-4

    def test_shifted_value(self):
        # erf oracle: 1 - Phi(0.5) = 0.30853753872598689...
        assert abs(one_sided_p(2.0, 2.0, shift=1.0).right - 0.3085375387259869) < 1e-12

    def test_pair_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            theta = rng.normal(0, 5)
            se = rng.uniform(0.01, 3.0)
            shift = rng.normal(0, 2)
            pair = one_sided_p(theta, se, shift)
            assert abs(pair.left + pair.right - 1.0) < 1e-12
            assert 0.0 <= pair.left <= 1.0
            assert 0.0 <= pair.right <= 1.0

    def test_nonpositive_se(self):
        with pytest.raises(ValueError):
            one_sided_p(1.0, 0.0)
        with pytest.raises(ValueError):
            one_sided_p(1.0, -0.5)

