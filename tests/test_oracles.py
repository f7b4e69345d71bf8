"""Accuracy oracles: printed numbers against mpmath at 40 significant digits.

Each case states its tolerance. A case that the present code fails is a
strict xfail naming the ROADMAP item that fixes it, so that the fixing
change has to flip it.
"""

import mpmath
import pytest

from replimeta import meta
from replimeta.meta import StudySummary, fixed_effect_meta, random_effects_meta
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


def q_test_oracle(q, df):
    """P(chi-square on df degrees of freedom > q) = Q(df/2, q/2), the regularized upper gamma."""
    with mpmath.workdps(DIGITS):
        return mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(q) / 2, mpmath.inf, regularized=True)


def pooling_oracle(rows):
    """Fixed-effect and DerSimonian-Laird fits of (estimate, se) rows, in mpmath.

    Besides each model's estimate and se, returns Q, I-squared, tau-squared
    and, per model, the weighted mean of |estimate|, the scale against which
    the rounding of the weighted sum is measured.
    """
    with mpmath.workdps(DIGITS):
        theta = [mpmath.mpf(x) for x, _ in rows]
        var = [mpmath.mpf(se) ** 2 for _, se in rows]

        def pool(weights):
            total = mpmath.fsum(weights)
            estimate = mpmath.fsum(w * x for w, x in zip(weights, theta)) / total
            scale = mpmath.fsum(w * abs(x) for w, x in zip(weights, theta)) / total
            return estimate, 1 / mpmath.sqrt(total), scale

        w = [1 / v for v in var]
        fe, fe_se, fe_scale = pool(w)
        q = mpmath.fsum(wi * (x - fe) ** 2 for wi, x in zip(w, theta))
        df = len(rows) - 1
        i_squared = max(mpmath.mpf(0), (q - df) / q) if q > 0 else mpmath.mpf(0)
        c = mpmath.fsum(w) - mpmath.fsum(wi**2 for wi in w) / mpmath.fsum(w)
        tau_squared = max(mpmath.mpf(0), (q - df) / c)
        re, re_se, re_scale = pool([1 / (v + tau_squared) for v in var])
        return {
            "fixed": (fe, fe_se, fe_scale), "random": (re, re_se, re_scale),
            "q": q, "i_squared": i_squared, "tau_squared": tau_squared,
        }


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


@pytest.mark.parametrize("df", [1, 2, 3, 7, 19, 49, 199, 999])
def test_q_test_p_value_against_the_upper_gamma(df):
    """Relative error at most 1e-12 for q from 1e-3 to 2000, where the p-value is >= 1e-300.

    The largest error measured was about 5e-13, at df = 999 and q = 2000.
    """
    qs = (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
          1500.0, 2000.0)
    checked = 0
    for q in qs:
        exact = q_test_oracle(q, df)
        if exact < mpmath.mpf("1e-300"):
            continue
        checked += 1
        assert relative_error(meta.q_test_p_value(q, df + 1), exact) <= 1e-12, q
    assert checked >= 10


# (estimate, se) study sets: Q below its df (tau-squared and I-squared are 0),
# a heterogeneous set of nine, mixed signs with a near-zero pooled estimate,
# two studies, and weights spread over eight orders of magnitude.
POOLING_SETS = {
    "homogeneous": ((0.52, 0.18), (0.61, 0.22), (0.44, 0.15), (0.70, 0.30), (0.55, 0.21)),
    "heterogeneous": ((-0.889, 0.571), (-1.585, 0.441), (-1.348, 0.142), (-1.442, 0.147),
                      (-0.218, 0.227), (-0.786, 0.083), (-1.621, 0.472), (0.012, 0.063),
                      (-0.469, 0.239)),
    "mixed-signs": ((1.2, 0.3), (-0.8, 0.25), (0.1, 0.4), (2.5, 0.5), (-1.9, 0.35), (0.05, 0.1)),
    "two-studies": ((0.3, 0.1), (-0.2, 0.2)),
    "wide-weights": ((0.1, 1e-3), (0.5, 10.0), (-0.3, 0.5), (0.2, 0.01)),
}


@pytest.mark.parametrize("name", POOLING_SETS)
def test_fixed_and_random_effects_fits_against_mpmath(name):
    """FE and DerSimonian-Laird estimate, se, Q, I-squared and tau-squared.

    Tolerances: each estimate within 1e-13 of its weighted mean |estimate|
    (a weighted sum whose terms cancel has no relative accuracy); se, Q and
    tau-squared within 1e-13 relative; I-squared within 1e-13 absolute; a
    tau-squared or I-squared of exactly 0 when the oracle's is 0. The largest
    error measured was 1.8e-15, tau-squared's on the wide-weights set; the
    others were below 1e-15.
    """
    rows = POOLING_SETS[name]
    oracle = pooling_oracle(rows)
    studies = [StudySummary(f"s{i}", x, se) for i, (x, se) in enumerate(rows)]
    for model, fit in (("fixed", fixed_effect_meta(studies)), ("random", random_effects_meta(studies))):
        estimate, se, scale = oracle[model]
        assert abs(mpmath.mpf(fit.pooled) - estimate) <= 1e-13 * scale, model
        assert relative_error(fit.se, se) <= 1e-13, model
        assert relative_error(fit.q, oracle["q"]) <= 1e-13, model
        assert abs(mpmath.mpf(fit.i_squared) - oracle["i_squared"]) <= 1e-13, model
    tau_squared = random_effects_meta(studies).tau_squared
    if oracle["tau_squared"] == 0:
        assert tau_squared == 0.0 and fixed_effect_meta(studies).i_squared == 0.0
    else:
        assert relative_error(tau_squared, oracle["tau_squared"]) <= 1e-13
