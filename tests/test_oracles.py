"""Accuracy oracles: printed numbers against mpmath at 40 significant digits,
and the size of the per-study p-values of 2x2 tables against exact enumeration.

Each case states its tolerance. A case that the present code fails is a
strict xfail naming the ROADMAP item that fixes it, so that the fixing
change has to flip it.
"""

import io
import math
import random
import sys
from functools import lru_cache
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from replimeta import meta
from replimeta.meta import StudySummary, _pool_rows, fixed_effect_meta, random_effects_meta
from replimeta import replicability, simulation, statkernels
from replimeta.replicability import _fe_z_extremes, delta_bound, partial_conjunction_p
from replimeta.report import (
    AnalysisRequest,
    directional_pvalues,
    parse_studies,
    partial_conjunction_summary,
)
from replimeta.simulation import preset, preset_names, simulate_fixed
from replimeta.statkernels import LOG_CEIL, LOG_FLOOR, normal_cdf, one_sided_p
from test_properties import full_mantissas

DIGITS = 40


def z_crit_oracle(alpha):
    """The z with P(|Z| > z) = alpha: the root of log erfc(z / sqrt 2) = log alpha.

    In logs, so that the root is as well conditioned at alpha = 1e-300 as at
    0.05; the guess sqrt(-2 log alpha) is the root's leading asymptotic term.
    """
    with mpmath.workdps(DIGITS):
        log_level = mpmath.log(mpmath.mpf(alpha))
        return mpmath.findroot(
            lambda z: mpmath.log(mpmath.erfc(z / mpmath.sqrt(2))) - log_level,
            mpmath.sqrt(-2 * log_level),
        )


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


def pooling_oracle(rows, re_tau_squared=None):
    """Fixed-effect and DerSimonian-Laird fits of (estimate, se) rows, in mpmath.

    Besides each model's estimate and se, returns Q, I-squared, tau-squared,
    the DerSimonian-Laird scale c, the fixed-effect weight total and, per
    model, the weighted mean of |estimate|, the scale against which the
    rounding of the weighted sum is measured. With ``re_tau_squared``, the
    random-effects fit pools at that tau-squared rather than at its own.
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
        re_tau = tau_squared if re_tau_squared is None else mpmath.mpf(re_tau_squared)
        re, re_se, re_scale = pool([1 / (v + re_tau) for v in var])
        return {
            "fixed": (fe, fe_se, fe_scale), "random": (re, re_se, re_scale),
            "q": q, "i_squared": i_squared, "tau_squared": tau_squared, "c": c,
            "total": mpmath.fsum(w),
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


# 0.5 and every decade from 0.1 down to 1e-300. ndtri(1 - alpha/2) misses
# 1e-12 relative from alpha = 1e-6 down (3.3e-12 there, 1.7e-6 at 1e-12) and
# is inf once 1 - alpha/2 rounds to 1, from alpha = 1e-16 down.
Z_CRIT_LEVELS = [0.5] + [float(f"1e-{k}") for k in range(1, 301)]


@pytest.mark.parametrize("alpha", [
    pytest.param(alpha, marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: ndtri(1 - alpha/2) loses alpha to rounding near 1, "
        "and is inf once 1 - alpha/2 rounds to 1",
    )) if alpha <= 1e-6 else alpha
    for alpha in Z_CRIT_LEVELS
])
def test_z_crit_over_alpha(alpha):
    assert relative_error(meta._z_crit(alpha), z_crit_oracle(alpha)) <= 1e-12


def oracle_study_zs(n):
    """n study z-values of mixed signs, some far enough out that r(u) is tiny."""
    return tuple(float(z) for z in np.random.default_rng(n).normal(0.0, 2.0, n))


def right_pvalues(zs):
    return sorted(one_sided_p(z, 1.0).right for z in zs)


@pytest.mark.parametrize("t", [0.05, 0.5, 1.0])
def test_partial_conjunction_p_against_zaykin(t):
    """r(u) of each side at every u, from the double p-values the scalar API receives."""
    for zs in [(2.5, 1.8, 0.4, -0.7, 3.1, -2.2)] + [oracle_study_zs(n) for n in (8, 20, 50)]:
        for side in (1.0, -1.0):
            ps = right_pvalues([side * z for z in zs])
            for u in range(1, len(ps) + 1):
                exact = truncated_product_oracle(ps[u - 1 :], t)
                assert relative_error(partial_conjunction_p(ps, u, t=t), exact) <= 1e-12, (len(ps), u)


# The oracle sums O(n^2) terms per u. At n = 1000 it takes 1.5 s at t = 0.05,
# but 20 s at t = 0.5 and 12 s at t = 1 on a 2-vCPU Xeon, so those two stay out.
@pytest.mark.parametrize("n, t", [(200, 0.05), (200, 0.5), (200, 1.0), (1000, 0.05)])
def test_partial_conjunction_p_against_zaykin_at_many_studies(n, t):
    ps = right_pvalues(oracle_study_zs(n))
    exact = truncated_product_oracle(ps[2:], t)
    assert relative_error(partial_conjunction_p(ps, 3, t=t), exact) <= 1e-12


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
# two studies, weights spread over eight orders of magnitude, and weights of
# 1e200 whose squares, the sum(w^2) of W - sum(w^2) / W, overflow a double.
POOLING_SETS = {
    "homogeneous": ((0.52, 0.18), (0.61, 0.22), (0.44, 0.15), (0.70, 0.30), (0.55, 0.21)),
    "heterogeneous": ((-0.889, 0.571), (-1.585, 0.441), (-1.348, 0.142), (-1.442, 0.147),
                      (-0.218, 0.227), (-0.786, 0.083), (-1.621, 0.472), (0.012, 0.063),
                      (-0.469, 0.239)),
    "mixed-signs": ((1.2, 0.3), (-0.8, 0.25), (0.1, 0.4), (2.5, 0.5), (-1.9, 0.35), (0.05, 0.1)),
    "two-studies": ((0.3, 0.1), (-0.2, 0.2)),
    "wide-weights": ((0.1, 1e-3), (0.5, 10.0), (-0.3, 0.5), (0.2, 0.01)),
    "overflowing-squares": ((1.0, 1e-100), (2.0, 1e-100), (3.0, 1.0)),
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


# Study sets whose estimates and standard errors use every mantissa bit, where
# libm pow and x * x round about one square in a thousand differently. The
# standard errors lie in [1/4, 8), so the weights span at most 2^10.
FULL_MANTISSA_SETS = st.lists(
    st.tuples(
        st.one_of(full_mantissas(-8, 8), full_mantissas(-8, 8).map(lambda x: -x)),
        full_mantissas(-2, 2),
    ),
    min_size=2,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(rows=FULL_MANTISSA_SETS)
def test_pooling_kernel_on_full_mantissas_against_mpmath(rows):
    """``_pool_rows``, which squares with x * x, on study sets with full mantissas.

    Tolerances:
    - the FE estimate within 1e-14 of its weighted mean |estimate|, and the
      FE se within 1e-14 relative;
    - Q within 1e-14 relative plus W (1e-14 scale)^2, W the weight total and
      scale the FE weighted mean |estimate|: Q's deviations subtract the FE
      estimate, which is known only to 1e-14 scale, and equal estimates give
      an exact Q of 0;
    - I-squared within 1e-14 absolute;
    - tau-squared within 5e-12 of (Q + n - 1) / c, the size of the terms its
      subtraction cancels;
    - the RE estimate within 5e-12 of its weighted mean |estimate|, and the
      RE se within 5e-12 relative, as their weights carry tau-squared's error.
    The largest errors measured over two runs of 3,000 drawn sets were, in
    the same units: 5.4e-16 and 2.6e-16 (FE), 5.1e-16 (Q), 2.7e-16
    (I-squared), 2.4e-14 (tau-squared), 7.3e-15 and 4.3e-14 (RE).
    """
    oracle = pooling_oracle(rows)
    theta_t, se = np.array(rows).T[:, :, None]
    pooled = _pool_rows(theta_t, se)
    df = len(rows) - 1
    for model, (estimate, se_value), tolerance in (
        ("fixed", (pooled.fe[0], pooled.fe_se[0]), 1e-14),
        ("random", (pooled.re[0], pooled.re_se[0]), 5e-12),
    ):
        exact, exact_se, scale = oracle[model]
        assert abs(mpmath.mpf(estimate) - exact) <= tolerance * scale, model
        assert relative_error(se_value, exact_se) <= tolerance, model
    scale, total = oracle["fixed"][2], oracle["total"]
    q_error = abs(mpmath.mpf(pooled.q[0]) - oracle["q"])
    assert q_error <= 1e-14 * oracle["q"] + total * (1e-14 * scale) ** 2
    assert abs(mpmath.mpf(pooled.i_squared[0]) - oracle["i_squared"]) <= 1e-14
    tau_error = abs(mpmath.mpf(pooled.tau_squared[0]) - oracle["tau_squared"])
    assert tau_error <= 5e-12 * (oracle["q"] + df) / oracle["c"]


# Standard errors over [2^-8, 2^9), so that the weights span up to 2^34 and
# one of them can hold all but a sliver of the total: W - sum(w^2) / W would
# cancel up to 34 bits of the DerSimonian-Laird scale c.
WIDE_WEIGHT_SETS = st.lists(
    st.tuples(
        st.one_of(full_mantissas(-8, 8), full_mantissas(-8, 8).map(lambda x: -x)),
        full_mantissas(-8, 8),
    ),
    min_size=2,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(rows=WIDE_WEIGHT_SETS)
# Sets where tau-squared's error alone moved the RE fit by more than 1e-13.
@example(rows=[(197.20117374241553, 1.0), (-0.03125, 197.20117374128873)])
@example(rows=[(67.69104417602071, 67.69104417598781), (-0.015625, 1.0)])
def test_dersimonian_laird_fit_on_wide_weights_against_mpmath(rows):
    """c, tau-squared and the random-effects fit when one weight dominates.

    Tolerances: c within 1e-14 relative; tau-squared within 1e-13 of
    (Q + n - 1) / c, the size of the terms its subtraction cancels. The RE
    fit pools with the weights w_i = 1/(v_i + tau^2), so its error is the
    rounding of its own sums plus tau-squared's error carried through the
    weights: dw_i/dtau^2 = -w_i^2, so to first order sum(w_i^2 |x_i - RE|) / W
    per unit of tau-squared's error on the estimate, and sum(w_i^2) / (2 W)
    relative on the se. That carried part can be far above 1e-13 of the
    scale when one weight dominates, while tau-squared is within its own
    bound. So the RE fit is checked against the oracle's fit at the
    kernel's own tau-squared, which takes the carried part out: the
    estimate within 1e-13 of its weighted mean |estimate| and the se within
    1e-13 relative. The largest errors measured over two runs of 3,000
    drawn sets were, in the same units, 5.3e-16 (c), 7.1e-16
    (tau-squared), 1.8e-15 and 7.0e-15 (RE). Computed as W - sum(w^2) / W,
    c was off by up to 7.7e-7 relative, tau-squared by 2.0e-8 and the RE
    estimate by 1.4e-8.
    """
    oracle = pooling_oracle(rows)
    theta_t, se = np.array(rows).T[:, :, None]
    pooled = _pool_rows(theta_t, se)
    assert relative_error(pooled.c[0], oracle["c"]) <= 1e-14
    tau_error = abs(mpmath.mpf(pooled.tau_squared[0]) - oracle["tau_squared"])
    assert tau_error <= 1e-13 * (oracle["q"] + len(rows) - 1) / oracle["c"]
    exact, exact_se, scale = pooling_oracle(rows, pooled.tau_squared[0])["random"]
    assert abs(mpmath.mpf(pooled.re[0]) - exact) <= 1e-13 * scale
    assert relative_error(pooled.re_se[0], exact_se) <= 1e-13


def fe_z_extremes_oracle(rows, size):
    """The smallest and largest pooled z, sum(w x) / sqrt(sum(w)), over every size-subset.

    Also returns the largest sum(w |x|) / sqrt(sum(w)), the scale against
    which the rounding of a subset's weighted sum is measured.
    """
    with mpmath.workdps(DIGITS):
        w = [1 / mpmath.mpf(se) ** 2 for _, se in rows]
        theta = [mpmath.mpf(x) for x, _ in rows]
        z, scale = [], mpmath.mpf(0)
        for subset in combinations(range(len(rows)), size):
            root = mpmath.sqrt(mpmath.fsum(w[i] for i in subset))
            z.append(mpmath.fsum(w[i] * theta[i] for i in subset) / root)
            scale = max(scale, mpmath.fsum(w[i] * abs(theta[i]) for i in subset) / root)
        return min(z), max(z), scale


@settings(max_examples=10, deadline=None)
@given(rows=FULL_MANTISSA_SETS, data=st.data())
def test_common_effect_z_extremes_on_full_mantissas_against_mpmath(rows, data):
    """``_fe_z_extremes``, weights 1/(se * se), within 1e-14 of the largest subset scale.

    The largest error measured over 1,000 drawn sets and subset sizes was
    3.8e-16 of that scale.
    """
    size = data.draw(st.integers(1, len(rows)))
    theta_t, se = np.array(rows).T
    z_min, z_max = _fe_z_extremes(theta_t[:, None], se, size)
    exact_min, exact_max, scale = fe_z_extremes_oracle(rows, size)
    assert abs(mpmath.mpf(z_min[0]) - exact_min) <= 1e-14 * scale
    assert abs(mpmath.mpf(z_max[0]) - exact_max) <= 1e-14 * scale


# z on a 0.05 grid over [-37, 37], plus seeded draws: ndtr(-37) = 5.7e-300 is
# still a normal double. Each z also gets an se, for one_sided_p(z se, se).
TAIL_Z = np.concatenate(
    [np.linspace(-37.0, 37.0, 1481), np.random.default_rng(9).uniform(-37.0, 37.0, 500)]
)
TAIL_SE = np.random.default_rng(10).uniform(0.01, 10.0, TAIL_Z.size)
EPS = 2.0**-52


@lru_cache(maxsize=None)
def normal_tail_errors():
    """Relative errors of normal_cdf(z) and of both sides of one_sided_p, per z of TAIL_Z.

    one_sided_p(theta, se) is compared with the tails at the exact quotient
    theta / se, as mpmath takes it from the two doubles.
    """
    errors = []
    with mpmath.workdps(DIGITS):
        for z, se in zip(TAIL_Z.tolist(), TAIL_SE.tolist()):
            theta = z * se
            exact_z = mpmath.mpf(theta) / mpmath.mpf(se)
            pair = one_sided_p(theta, se)
            errors.append(max(
                relative_error(normal_cdf(z), mpmath.ncdf(z)),
                relative_error(pair.left, mpmath.ncdf(exact_z)),
                relative_error(pair.right, mpmath.ncdf(-exact_z)),
            ))
    return np.array(errors)


def test_normal_tails_against_mpmath():
    """normal_cdf and one_sided_p within 2 eps (1 + z^2) relative, eps = 2^-52, on [-37, 37].

    normal_cdf evaluates erfc(-z / sqrt 2). The roundings of sqrt 2 and of
    the quotient move erfc's argument x by up to eps relative, which moves
    erfc(x) by 2 x^2 = z^2 times that; one_sided_p adds the rounding of
    theta / se. The largest error measured on these points was 1.12 eps
    (1 + z^2), at z = 22.8 (the right side of one_sided_p); the largest
    relative error was 2.7e-13, at z = -34.25.
    """
    errors = normal_tail_errors()
    assert np.all(errors <= 2.0 * EPS * (1.0 + TAIL_Z**2))


def test_the_tabulated_log_tail_at_its_nodes_against_mpmath():
    """At every node of the table, on both sides, the harness's log normal tail
    reads clip(log Phi(z)) within the part of ``_TAIL_ERROR`` beyond the chord
    bound h^2 / 8: the rounding of the node values and of the interpolation.
    The largest error measured was 2.3e-13, at the lower nodes, where |log Phi| nears 700.
    """
    first, last = (round(end * simulation._TAIL_STEPS) for end in simulation._TAIL_RANGE)
    nodes = np.arange(first, last + 1) / simulation._TAIL_STEPS
    with mpmath.workdps(DIGITS):
        floor, ceil = mpmath.log(mpmath.mpf(LOG_FLOOR)), mpmath.log(mpmath.mpf(LOG_CEIL))
        want = np.array([float(min(max(mpmath.log(mpmath.ncdf(z)), floor), ceil)) for z in nodes])
    for z, right in ((nodes, False), (-nodes, True)):
        got = simulation._tabulated_log_ndtr(z, np.empty_like(z), right)
        assert np.max(np.abs(got - want)) <= simulation._TAIL_ERROR - 2.0**-15


def test_the_table_nodes_against_mpmath():
    """Every node value, log(normal_cdf(z)) in the normal doubles and the
    Mills-ratio series below them, within the 1e-12 of ``_TAIL_ERROR`` that
    its comment gives to node values, unclipped, down to z = -38.5. The
    largest error measured was 2.3e-13, at z = -37.34.
    """
    first, last = (round(end * simulation._TAIL_STEPS) for end in simulation._TAIL_RANGE)
    nodes = (np.arange(first, last + 1) / simulation._TAIL_STEPS).tolist()
    assert nodes[0] == -38.5 and simulation._normal_tail(-38.5) < sys.float_info.min
    with mpmath.workdps(DIGITS):
        errors = [abs(mpmath.mpf(simulation._log_normal_cdf(z)) - mpmath.log(mpmath.ncdf(z))) for z in nodes]
    assert max(errors) <= 1e-12


def test_the_quantile_against_scipys_ndtri():
    """``statkernels._ndtri``, the port of Cephes' ndtri, returns scipy's bits.

    On a grid of p in [1e-300, 1 - 1e-16]; on the 1 - alpha/2 that ``_z_crit``
    passes, alpha log-uniform in [1e-300, 0.5]; at both branch points,
    exp(-2) and 1 - exp(-2), and the z = 8 switch at p = exp(-32), each with
    its neighbouring doubles; and at the ends and beyond them.
    """
    rng = np.random.default_rng(28)
    alpha = 10.0 ** rng.uniform(-300.0, math.log10(0.5), 20_000)
    edges = [statkernels._EXP_MINUS_2, 1.0 - statkernels._EXP_MINUS_2, math.exp(-32.0)]
    p = np.concatenate([
        10.0 ** rng.uniform(-300.0, math.log10(0.5), 20_000),
        1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.5), 5_000),
        [1e-300, 0.5, 1.0 - 1e-16],
        1.0 - alpha / 2.0,
        [side for edge in edges for side in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0))],
        [5e-324, 1.0 - 2.0**-53, 0.0, 1.0, math.nan, -0.1, 1.0 + 1e-9],
    ])
    got = np.array([statkernels._ndtri(v) for v in p.tolist()])
    assert np.array_equal(got, special.ndtri(p), equal_nan=True)
    assert statkernels._ndtri(0.0) == -math.inf and statkernels._ndtri(1.0) == math.inf
    # t (1 + _LEVEL_MARGIN) > 1 just below LOG_CEIL: the upper quantile is NaN, as ndtri's is.
    low, high = simulation._level_quantiles(1.0 - 1e-7)
    assert low == statkernels._ndtri((1.0 - 1e-7) * (1.0 - simulation._LEVEL_MARGIN)) and math.isnan(high)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_z_crit_is_scipys_ndtri_of_one_minus_half_alpha(alpha):
    assert meta._z_crit(alpha) == float(special.ndtri(1.0 - alpha / 2.0))


def float_bits(values):
    """The bit patterns of a float array, sign of zero included, every NaN as one pattern."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), -1, values.view(np.int64))


def igamc_switch_points(a):
    """The x at which ``_igamc`` changes branch for shape a, each with its neighbouring doubles."""
    edges = [0.5, 1.1, a, a / 1.1, math.exp(-0.4 / a), 0.6 * a, 1.4 * a]
    return [side for edge in edges for side in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))]


def test_the_upper_gamma_tail_against_scipys_gammaincc(monkeypatch):
    """``statkernels._igamc``, the port of Cephes' igamc, returns scipy's bits.

    On shapes 0.5-20 in steps of 0.5 and random shapes in (0, 20], with x
    log-uniform in [1e-6, 800] and at every branch switch with its
    neighbours; at large shapes outside Temme's region, where ``_lgam``'s
    Stirling branches and ``_log1pmx`` run, and inside it, where scipy
    answers; and at the ends: 0, infinities, NaN and negatives. Every branch
    is reached.
    """
    reached = dict.fromkeys(
        ["_igamc_series", "_igam_series", "_igamc_continued_fraction", "_lgam1p_taylor", "_log1pmx"], 0
    )
    for name in reached:
        def counted(*args, _inner=getattr(statkernels, name), _name=name):
            reached[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(statkernels, name, counted)
    rng = np.random.default_rng(31)
    shapes = np.concatenate([np.arange(1, 41) / 2.0, rng.uniform(0.0, 20.0, 40), [1e-300, 1e-8, 2.0**-30]])
    x = 10.0 ** rng.uniform(-6.0, math.log10(800.0), 2_000)
    a_grid, x_grid = (v.ravel() for v in np.meshgrid(shapes, x))
    switches = [(a, v) for a in shapes.tolist() for v in igamc_switch_points(a)]
    big = [25.0, 150.0, math.nextafter(200.0, 0.0), 200.0, math.nextafter(200.0, math.inf), 250.0, 1500.0, 5e5,
           1e9, 1e300]
    large = [(a, a * f) for a in big for f in (1e-3, 0.1, 0.5, 0.65, 0.69, 0.75, 1.0, 1.3, 1.35, 1.4, 1.5, 3.0, 10.0)]
    ends = [0.0, -0.0, -1.0, 5e-324, 0.5, 1.1, 3.0, math.inf, -math.inf, math.nan]
    pairs = list(zip(a_grid.tolist(), x_grid.tolist())) + switches + large + [(a, v) for a in ends for v in ends]
    a_all, x_all = (np.array(v) for v in zip(*pairs))
    got = np.array([statkernels._igamc(a, v) for a, v in pairs])
    assert np.array_equal(float_bits(got), float_bits(special.gammaincc(a_all, x_all)))
    assert all(reached.values()), reached


@settings(max_examples=1000, deadline=None)
@given(st.floats(min_value=0.0, max_value=40.0), st.floats(min_value=0.0, max_value=1000.0))
def test_igamc_is_scipys_gammaincc(a, x):
    assert float_bits(statkernels._igamc(a, x)) == float_bits(special.gammaincc(a, x))


def test_the_q_test_p_value_is_scipys_chdtrc():
    """``q_test_p_value(q, n)``, igamc((n - 1) / 2, q / 2), against ``special.chdtrc(n - 1, q)``
    bit for bit: df 1-80 with q log-uniform in [1e-4, 2000], q near df (Temme's
    region past df = 40), and 0, -1, infinity and NaN."""
    rng = np.random.default_rng(32)
    df = np.arange(1, 81)
    q = np.concatenate([10.0 ** rng.uniform(-4.0, math.log10(2000.0), 1_500), [0.0, -1.0, math.inf, math.nan]])
    df_grid, q_grid = (v.ravel() for v in np.meshgrid(df, q))
    df_grid, q_grid = np.append(df_grid, df), np.append(q_grid, df * 1.01)
    got = np.array([meta.q_test_p_value(v, d + 1) for d, v in zip(df_grid.tolist(), q_grid.tolist())])
    assert np.array_equal(float_bits(got), float_bits(special.chdtrc(df_grid, q_grid)))


def test_the_zeta_table_is_scipys_zeta():
    """``lgam1p``'s zeta(n, 1), n = 2..41, as literals: the installed scipy's values."""
    assert statkernels._ZETA == tuple(float(special.zeta(n, 1.0)) for n in range(2, 42))


@pytest.mark.parametrize("t", [0.025, 0.05, 0.5, 1.0])
def test_the_product_tail_without_scipy_is_scipys(monkeypatch, t):
    """``_product_tail`` on lengths 1-20, through the scalar ``_igamc``, equals
    its scipy path bit for bit: on the statistics of random p-value rows,
    with extreme rows, NaN statistics and c = 0 among them."""
    rng = np.random.default_rng(33)
    scalar = {}
    for length in range(1, 21):
        p = rng.uniform(0.0, 1.0, (60, length)) ** rng.uniform(1.0, 40.0, (60, 1))
        p[:5] = 10.0 ** rng.uniform(-300.0, -1.0, (5, length))
        c = replicability._PCCurve.from_p_values(p, t).statistic(1)
        c = np.concatenate([c, [0.0, math.nan, 1e-300, 1e4, math.inf]])
        scalar[length] = (c, replicability._product_tail(c, length, t))
    monkeypatch.setattr(replicability, "_SCALAR_TAIL_LENGTH", 0)
    for length, (c, got) in scalar.items():
        assert np.array_equal(float_bits(got), float_bits(replicability._product_tail(c, length, t))), length


def test_the_product_tail_takes_scipys_path_past_20_ks(monkeypatch):
    """Past 20 ks ``_product_tail`` calls scipy's gammaincc, and up to 20 it does not."""
    calls = []
    monkeypatch.setattr(special, "gammaincc", lambda *args: calls.append(args) or np.ones_like(args[1]))
    replicability._product_tail(np.full(5, 3.0), 20, 0.05)
    assert not calls
    replicability._product_tail(np.full(5, 3.0), 21, 0.05)
    assert [args[1].shape for args in calls] == [(5, 21)]


# Far below DIGITS: a Poisson sum stops once its terms fall below this share of it.
NEGLIGIBLE = mpmath.mpf("1e-50")


def poisson_sum(x, k):
    """sum_{j<k} x^j / j! in mpmath, summed from its largest terms down until
    a term is below ``NEGLIGIBLE`` of the sum; the terms fall geometrically from there."""
    if x == 0:
        return mpmath.mpf(1)
    if x >= k - 1:  # the terms grow with j up to the last, j = k - 1
        term = mpmath.power(x, k - 1) / mpmath.factorial(k - 1)
        total = term
        for j in range(k - 1, 0, -1):
            term *= j / x
            total += term
            if term < total * NEGLIGIBLE:
                break
        return total
    term = total = mpmath.mpf(1)
    for j in range(1, k):
        term *= x / j
        total += term
        if j > x and term < total * NEGLIGIBLE:
            break
    return total


def product_tail_oracle(c, length, t):
    """K(c) = sum_k C(L, k) t^k (1 - t)^(L-k) Q(k, max(c/2 + k log t, 0)), in mpmath,
    Q(k, x) = e^-x sum_{j<k} x^j / j! the Poisson sum; 1 where c <= 0."""
    if c <= 0.0:
        return mpmath.mpf(1)
    with mpmath.workdps(DIGITS):
        t, total = mpmath.mpf(t), mpmath.mpf(0)
        for k in range(1, length + 1):
            weight = mpmath.binomial(length, k) * t**k * (1 - t) ** (length - k)
            if weight <= total * NEGLIGIBLE:  # Q <= 1, so the term is negligible too
                continue
            x = max(mpmath.mpf(c) / 2 + k * mpmath.log(t), mpmath.mpf(0))
            total += weight * mpmath.exp(-x) * poisson_sum(x, k)
        return total


def c_at_tail(length, t, tail):
    """The c at which the log-space tail falls to ``tail``, by bisection."""
    lo, hi = 0.0, -4.0 * length * math.log(LOG_FLOOR)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if simulation._log_product_tail(np.array([mid]), length, t)[0] > math.log(tail):
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("length", [*range(1, 65), 200])
def test_the_log_space_tail_against_mpmath(length):
    """``simulation._log_product_tail`` within 1e-12 of K, relative, from c = 0
    to where K reaches 1e-300, at t = 1e-3, 0.05, 0.5 and 1.

    Each grid holds c = 0, a point on the plateau 1 - (1 - t)^L, its end
    -2 log t, and four points up to the c where K is 1e-300. The largest
    error measured was 1.9e-13, at length 200.
    """
    for t in (1e-3, 0.05, 0.5, 1.0):
        last = c_at_tail(length, t, 1e-300)
        plateau = -2.0 * math.log(t)
        c = np.array([0.0, 0.5 * plateau, plateau, *np.linspace(plateau, last, 5)[1:]])
        got = simulation._log_product_tail(c, length, t)
        with mpmath.workdps(DIGITS):
            want = [product_tail_oracle(v, length, t) for v in c.tolist()]
            assert want[-1] <= mpmath.mpf("1.01e-300")
            errors = [abs(mpmath.exp(mpmath.mpf(g)) / w - 1) for g, w in zip(got.tolist(), want)]
        assert max(errors) <= 1e-12, (t, max(errors))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7: erfc(-z / sqrt 2) is off by about z^2 ulps in the lower tail",
)
def test_normal_tails_within_a_few_ulps():
    """Item 7's gate: relative error at most 4 eps on the whole of [-37, 37].

    It holds today only for |z| below about 1.9 (at most 3.7 eps there).
    """
    assert np.all(normal_tail_errors() <= 4.0 * EPS)


def meta_fe_power_oracle(theta, group_sizes, alpha):
    """Rejection rate of the two-sided common-effect z test on fixed effects.

    An estimate is its effect plus Normal(0, se^2) noise, se^2 = 1/nc + 1/nt,
    so the pooled z = sum(w x) / sqrt(W), w = 1/se^2, is Normal(delta, 1) with
    delta = sum(w theta) / sqrt(W): it rejects with probability
    Phi(-z - delta) + Phi(-z + delta), z the two-sided critical value.
    """
    with mpmath.workdps(DIGITS):
        weights = [1 / (mpmath.mpf(1) / nc + mpmath.mpf(1) / nt) for nc, nt in group_sizes]
        delta = mpmath.fsum(w * e for w, e in zip(weights, theta)) / mpmath.sqrt(mpmath.fsum(weights))
        z = z_crit_oracle(alpha)
        return mpmath.ncdf(-z - delta) + mpmath.ncdf(-z + delta)


META_FE_POINTS = [
    (name, scenario)
    for name, (scenarios, tests) in ((name, preset(name)) for name in preset_names())
    if "meta_fe" in tests
    for scenario in scenarios
]


@pytest.mark.parametrize(
    "scenario", [s for _, s in META_FE_POINTS], ids=[f"{name}-{s.param:g}" for name, s in META_FE_POINTS]
)
def test_meta_fe_power_against_its_closed_form(scenario):
    """Every preset point that runs meta_fe, at the presets' default seed and
    replications, within 4 Monte Carlo SE of the closed form (Bonferroni over
    the 26 points). The SE is that of the closed-form rate, as the estimated
    one is 0 where every replication rejects.
    """
    alpha = 0.05
    rate = simulate_fixed(scenario, ("meta_fe",), alpha=alpha).rejection_rate["meta_fe"]
    exact = float(meta_fe_power_oracle(scenario.theta, scenario.group_sizes, alpha))
    se = (exact * (1.0 - exact) / scenario.replications) ** 0.5
    assert abs(rate - exact) <= 4.0 * se


def shifted_r(studies, u, t, side, delta):
    """The tested side's r(u) with the null effect moved to +delta (upper_positive) or -delta."""
    if side == "upper_positive":
        ps = [one_sided_p(s.theta_hat, s.se, shift=delta).right for s in studies]
    else:
        ps = [one_sided_p(s.theta_hat, s.se, shift=-delta).left for s in studies]
    return partial_conjunction_p(ps, u, t)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(0.1, 2.0)), min_size=2, max_size=8),
    side=st.sampled_from(["upper_positive", "lower_negative"]),
    alpha=st.sampled_from([0.01, 0.05, 0.2]),
    t=st.sampled_from([None, 0.5, 1.0]),
)
def test_delta_bound_is_the_root_of_the_shifted_r_value(pairs, side, alpha, t):
    """None exactly where the unshifted test accepts; else the last rejecting shift, to
    ``_DELTA_TOL``; and the shifted r(u) never falls as the shift grows."""
    studies = [StudySummary(f"s{i}", est, se) for i, (est, se) in enumerate(pairs)]
    level, t_used = alpha / 2.0, alpha if t is None else t
    top = max(abs(est) for est, _ in pairs) + 10.0 * max(se for _, se in pairs)
    for u in range(1, len(studies) + 1):
        delta = delta_bound(studies, u, alpha=alpha, side=side, t=t)
        rejects = shifted_r(studies, u, t_used, side, 0.0) <= level
        assert (delta is None) == (not rejects)
        if delta is not None:
            assert shifted_r(studies, u, t_used, side, delta) <= level
            assert shifted_r(studies, u, t_used, side, delta + replicability._DELTA_TOL) > level
        grid = [shifted_r(studies, u, t_used, side, d) for d in np.linspace(0.0, top, 41)]
        assert grid == sorted(grid)


def reference_delta_bound(studies, u, alpha, side, t=None):
    """``delta_bound``'s bisection with its p-values built study by study from
    ``one_sided_p``; returns the bound and the number of shifted tests run."""
    level, t = alpha / 2.0, alpha if t is None else t
    tests = 0

    def rejects(delta):
        nonlocal tests
        tests += 1
        return shifted_r(studies, u, t, side, delta) <= level

    if not rejects(0.0):
        return None, tests
    hi = max(abs(s.theta_hat) for s in studies) + 10.0 * max(s.se for s in studies)
    lo = 0.0
    while hi - lo > replicability._DELTA_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:
        if rejects(mid):
            lo = mid
        else:
            hi = mid
    return lo, tests


def analyze_large_studies(n):
    """The studies of the benchmark's analyze-large file of n studies (50, 200
    or 1000) at seed 0: every fifth true effect negative, se in [0.08, 0.4]."""
    rng = random.Random("analyze-large/0")
    for size in (50, 200, 1000):
        studies = []
        for i in range(size):
            se = rng.uniform(0.08, 0.4)
            theta = -rng.uniform(0.7, 1.0) if i % 5 == 4 else abs(rng.gauss(0.3, 0.15))
            studies.append(StudySummary(f"s{i + 1:04d}", theta + rng.gauss(0.0, se), se))
        if size == n:
            return studies
    raise ValueError(f"no analyze-large file of {n} studies")


def random_study_set(n):
    """n studies with estimates of both signs, some past the tested level and some not."""
    rng = np.random.default_rng(n)
    return [
        StudySummary(f"s{i}", float(rng.normal(0.5, 2.0)), float(rng.uniform(0.05, 0.8)))
        for i in range(n)
    ]


# (id, studies, the u to test): every u of the random sets, a spread of u on
# the benchmark's long files.
DELTA_SETS = [
    *(
        (f"random-{n}", random_study_set(n), range(1, n + 1))
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 50)
    ),
    *(
        (f"analyze-large-{n}", analyze_large_studies(n), (1, 2, 3, 10, n // 5, n // 2, n))
        for n in (200, 1000)
    ),
]


@pytest.mark.parametrize("side", ["upper_positive", "lower_negative"])
@pytest.mark.parametrize(
    "studies, us", [(s, us) for _, s, us in DELTA_SETS], ids=[name for name, _, _ in DELTA_SETS]
)
def test_delta_bound_is_the_study_by_study_bisection(monkeypatch, studies, us, side):
    """The same bound, bit for bit, and one ``partial_conjunction_p`` call per
    shifted test, as the benchmark's ``delta_pc_calls`` counts them."""
    calls = []
    original = replicability.partial_conjunction_p
    monkeypatch.setattr(
        replicability, "partial_conjunction_p", lambda *args: calls.append(args) or original(*args)
    )
    for u in us:
        calls.clear()
        expected, tests = reference_delta_bound(studies, u, 0.05, side)
        assert delta_bound(studies, u, 0.05, side) == expected, u
        assert len(calls) == tests, u


# theta, se and shift over the whole finite double range, so that z takes
# signed zeros, tails past |z| = 38, where one side underflows, and quotients
# that overflow to +-inf.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROW_ENTRIES = st.lists(
    st.tuples(FINITE, st.floats(min_value=5e-324, allow_infinity=False), FINITE), min_size=1, max_size=16
)


@settings(max_examples=300, deadline=None)
@given(rows=ROW_ENTRIES)
@example(rows=[(0.0, 1.0, 0.0), (-0.0, 1.0, 0.0), (0.0, 2.0, -0.0), (-0.0, 3.0, -0.0), (1.0, 1.0, 1.0)])
@example(rows=[(38.5, 1.0, 0.0), (-40.0, 1.0, 0.0), (0.0, 1.0, 39.0), (1e3, 0.5, -1e3)])
@example(rows=[(1e308, 1e-10, 0.0), (-1e308, 1e-10, 0.0), (1e308, 1.0, -1e308), (-1.0, 5e-324, 1e308)])
def test_the_row_function_is_one_sided_p_per_entry(rows):
    """Both sides, and each side alone at a scalar shift, as ``delta_bound``
    calls it, equal ``one_sided_p`` of every entry bit for bit."""
    theta, se, shift = (np.array(column) for column in zip(*rows))
    pairs = [one_sided_p(*row) for row in rows]
    left, right = replicability._one_sided_rows(theta, se, shift)
    assert float_bits(left).tolist() == float_bits([pair.left for pair in pairs]).tolist()
    assert float_bits(right).tolist() == float_bits([pair.right for pair in pairs]).tolist()
    for side in ("left", "right"):
        (alone,) = replicability._one_sided_rows(theta, se, rows[0][2], (side,))
        scalar = [getattr(one_sided_p(th, s, rows[0][2]), side) for th, s, _ in rows]
        assert float_bits(alone).tolist() == float_bits(scalar).tolist()


# The one-sided size of the per-study p-values of a 2x2 table at level
# 0.025, by exact enumeration of both binomial arms under equal risks: arms
# are total_t/total_c. The Wald log ratio read as normal exceeds the level
# for 10 (arms, risk, side) of 70 with the odds ratio, the worst 0.02844 at
# 50/50 and 0.5, and for 12 of 70 with the risk ratio, the worst 0.05272 at
# 10/40 and 0.5 on the right.
SIZE_ARMS = [(10, 10), (10, 40), (40, 10), (20, 100), (100, 20), (50, 50), (25, 25)]
SIZE_RISKS = [0.02, 0.05, 0.1, 0.3, 0.5]
SIZE_LEVEL = 0.025
OVERSIZED = {
    ("odds_ratio", (50, 50), 0.5, "left"), ("odds_ratio", (50, 50), 0.5, "right"),
    ("odds_ratio", (100, 20), 0.3, "left"), ("odds_ratio", (20, 100), 0.3, "right"),
    ("odds_ratio", (100, 20), 0.05, "left"), ("odds_ratio", (20, 100), 0.05, "right"),
    ("odds_ratio", (100, 20), 0.1, "left"), ("odds_ratio", (20, 100), 0.1, "right"),
    ("odds_ratio", (40, 10), 0.3, "left"), ("odds_ratio", (10, 40), 0.3, "right"),
    ("risk_ratio", (40, 10), 0.5, "left"), ("risk_ratio", (10, 40), 0.5, "right"),
    ("risk_ratio", (40, 10), 0.3, "left"), ("risk_ratio", (10, 40), 0.3, "right"),
    *(("risk_ratio", (100, 20), risk, "left") for risk in (0.05, 0.1, 0.3, 0.5)),
    *(("risk_ratio", (20, 100), risk, "right") for risk in (0.05, 0.1, 0.3, 0.5)),
}


@lru_cache(maxsize=None)
def enumerated_pvalues(measure, arms):
    """Left and right p-values of every table with these arm totals, in the
    order (events_t, events_c), from one CSV through parse_studies and directional_pvalues."""
    total_t, total_c = arms
    lines = ["label,events_t,total_t,events_c,total_c"] + [
        f"{a}-{c},{a},{total_t},{c},{total_c}" for a in range(total_t + 1) for c in range(total_c + 1)
    ]
    studies = parse_studies(io.StringIO("\n".join(lines)), measure)
    return directional_pvalues(AnalysisRequest(tuple(studies)))


def binomial_pmf(n, p):
    return [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]


@pytest.mark.parametrize("measure, arms, risk, side", [
    pytest.param(*case, id=f"{case[0]}-{case[1][0]}/{case[1][1]}-{case[2]}-{case[3]}", marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 17: the Wald log ratio read as normal is not a valid p-value for small arms",
    ) if case in OVERSIZED else ())
    for case in [(measure, arms, risk, side) for measure in ("odds_ratio", "risk_ratio")
                 for arms in SIZE_ARMS for risk in SIZE_RISKS for side in ("left", "right")]
])
def test_two_by_two_p_values_hold_their_level(measure, arms, risk, side):
    """P(p <= 0.025) <= 0.025 when both arms have the same risk: each study's
    one-sided p-value is valid, as the bounds' guarantee needs."""
    left, right = enumerated_pvalues(measure, arms)
    weights = [w_t * w_c for w_t in binomial_pmf(arms[0], risk) for w_c in binomial_pmf(arms[1], risk)]
    size = math.fsum(w for w, p in zip(weights, left if side == "left" else right) if p <= SIZE_LEVEL)
    assert size <= SIZE_LEVEL
