"""Accuracy oracles: printed numbers against mpmath at 40 significant digits.

Each case states its tolerance. A case that the present code fails is a
strict xfail naming the ROADMAP item that fixes it, so that the fixing
change has to flip it.
"""

import mpmath
import pytest

from replimeta import meta
from replimeta.meta import StudySummary
from replimeta.replicability import partial_conjunction_p
from replimeta.report import AnalysisRequest, partial_conjunction_summary
from replimeta.statkernels import one_sided_p

DIGITS = 40


def z_crit_oracle(alpha):
    """The z with P(|Z| > z) = alpha: the root of erfc(z / sqrt 2) = alpha."""
    with mpmath.workdps(DIGITS):
        level = mpmath.mpf(alpha)
        guess = mpmath.sqrt(2) * mpmath.erfinv(1 - level)
        return mpmath.findroot(lambda z: mpmath.erfc(z / mpmath.sqrt(2)) - level, guess)


def truncated_product_oracle(ps, t):
    """Zaykin et al. (2002): P(W <= w) for w the product of the p-values at or below t.

    Given k of L p-values at or below t, the product is below w with
    probability w sum_{s<k} x^s / s!, x = k log t - log w, when w < t^k, and
    with probability t^k otherwise; k is Binomial(L, t). No p-value at or
    below t is the empty product 1, whose p-value is 1.
    """
    with mpmath.workdps(DIGITS):
        t = mpmath.mpf(t)
        kept = [mpmath.mpf(p) for p in ps if p <= t]
        if not kept:
            return mpmath.mpf(1)
        w = mpmath.fprod(kept)
        total = mpmath.mpf(0)
        for k in range(1, len(ps) + 1):
            x = k * mpmath.log(t) - mpmath.log(w)
            if x > 0:
                given_k = w * mpmath.fsum(x**s / mpmath.factorial(s) for s in range(k))
            else:
                given_k = t**k
            total += mpmath.binomial(len(ps), k) * (1 - t) ** (len(ps) - k) * given_k
        return total


def relative_error(value, exact):
    with mpmath.workdps(DIGITS):
        return float(abs((mpmath.mpf(value) - exact) / exact))


@pytest.mark.parametrize("alpha", [0.05, 0.01])
def test_z_crit_at_common_levels(alpha):
    assert relative_error(meta._z_crit(alpha), z_crit_oracle(alpha)) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: ndtri(1 - alpha/2) loses alpha to rounding near 1 (-1.6e-3 here)",
)
def test_z_crit_at_a_tiny_level():
    assert relative_error(meta._z_crit(1e-15), z_crit_oracle(1e-15)) <= 1e-12


@pytest.mark.parametrize("t", [0.05, 0.5, 1.0])
def test_partial_conjunction_p_against_zaykin(t):
    """r(u) of each side, from the double p-values the scalar API receives."""
    zs = (2.5, 1.8, 0.4, -0.7, 3.1, -2.2)
    for side in (1.0, -1.0):
        ps = sorted(one_sided_p(side * z, 1.0).right for z in zs)
        for u in range(1, len(ps) + 1):
            exact = truncated_product_oracle(ps[u - 1 :], t)
            assert relative_error(partial_conjunction_p(ps, u, t=t), exact) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: p-values are clipped at 1e-300, so r_right(1) rounds to 0",
)
def test_r_value_of_extreme_studies_is_positive():
    """z = 40, 45, -38 and 0.1 with se = 1, the r-values that ``bounds`` prints.

    The right-sided p-values of the first two underflow, so the study-level
    path (the request's profile, which can use a log tail) carries the case.
    """
    studies = tuple(StudySummary(f"s{i}", z, 1.0) for i, z in enumerate((40.0, 45.0, -38.0, 0.1)))
    assert partial_conjunction_summary(AnalysisRequest(studies=studies), 1)["r_right"] > 0
