"""Property tests for the row-wise kernels and everything read from them.

r(u), the directional bounds, the ``bounds`` table and the simulation H-tests
all come from one partial-conjunction curve per direction; the pooled
estimates, Q, I-squared and tau-squared all come from one pooling kernel; the
common-effect r-values and the simulation's ``H2n_fe`` come from one
subset-pooling kernel. These tests check the kernels against plain oracles and
check that the readers agree with each other.
"""

import json
import math
import os
import tempfile
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from replimeta.cli import main
from replimeta.meta import (
    StudySummary,
    _pool_rows,
    fixed_effect_meta,
    heterogeneity,
    leave_one_out,
    random_effects_meta,
)
from replimeta.replicability import (
    TruncationConfig,
    _leading_rejections,
    _fe_z_extremes,
    _PCCurve,
    confidence_bounds,
    fe_r_value,
    partial_conjunction_p,
    r_value,
    truncated_product_p,
)
from replimeta.report import AnalysisRequest, analyze, parse_studies, partial_conjunction_summary
from replimeta.simulation import _evaluate_tests
from replimeta.statkernels import normal_cdf

THRESHOLDS = st.sampled_from([0.05, 0.5, 1.0])
ALPHAS = st.sampled_from([0.05, 0.2])
# Mostly small p-values, so that the truncation and the walk have work to do,
# plus whatever edge values hypothesis picks from the whole unit interval.
P_VALUES = st.one_of(st.floats(0.0, 1e-3), st.floats(0.0, 0.1), st.floats(0.0, 1.0))
STUDIES = st.lists(
    st.tuples(st.floats(-4.0, 4.0), st.floats(0.05, 2.0)), min_size=2, max_size=8
)

PROPERTY = settings(max_examples=60, deadline=None)


def brute_force_pc(ps, u, cfg):
    """Independent oracle: explicit maximum over all (n-u+1)-subsets."""
    n = len(ps)
    return max(
        truncated_product_p([ps[i] for i in subset], cfg)
        for subset in combinations(range(n), n - u + 1)
    )


def reference_bound(ps, level, cfg):
    """The u before the first u whose partial-conjunction p-value exceeds the level."""
    for u in range(1, len(ps) + 1):
        if partial_conjunction_p(ps, u, cfg) > level:
            return u - 1
    return len(ps)


def pooling_reference(pairs):
    """Independent oracle: fixed-effect, Q/I-squared and DerSimonian-Laird pooling.

    Plain Python on (estimate, se) float pairs. Sums run left to right and
    squares are ``x ** 2`` (libm ``pow``), so the kernel must match every bit.
    """

    def add(values):
        total = 0.0
        for value in values:
            total += value
        return total

    n = len(pairs)
    w = [1.0 / se**2 for _, se in pairs]
    total = add(w)
    fe = add(wi * x for wi, (x, _) in zip(w, pairs)) / total
    q = add(wi * (x - fe) ** 2 for wi, (x, _) in zip(w, pairs)) if n >= 2 else 0.0
    i_squared = max(0.0, (q - (n - 1)) / q) if q > 0 else 0.0
    c = total - add(wi * wi for wi in w) / total
    tau_squared = max(0.0, (q - (n - 1)) / c) if c > 0 else 0.0
    re_w = [1.0 / (se**2 + tau_squared) for _, se in pairs]
    re_total = add(re_w)
    re = add(wi * x for wi, (x, _) in zip(re_w, pairs)) / re_total
    return {
        "fe": fe,
        "fe_se": 1.0 / math.sqrt(total),
        "q": q,
        "i_squared": i_squared,
        "tau_squared": tau_squared,
        "re": re,
        "re_se": 1.0 / math.sqrt(re_total),
    }


def common_effect_reference(pairs, size):
    """Independent oracle: the smallest and largest pooled z over every size-subset.

    Plain Python on (estimate, se) float pairs: each subset is pooled with
    ``sum`` and ``x ** 2`` (libm ``pow``), so the kernel must match every bit.
    """
    weights = [1.0 / se**2 for _, se in pairs]
    weighted_theta = [w * x for w, (x, _) in zip(weights, pairs)]
    z_min = math.inf
    z_max = -math.inf
    for subset in combinations(range(len(pairs)), size):
        denom = sum(weights[i] for i in subset)
        z = sum(weighted_theta[i] for i in subset) / math.sqrt(denom)
        if z < z_min:
            z_min = z
        if z > z_max:
            z_max = z
    return z_min, z_max


def bits(*values):
    """Exact float identity, telling -0.0 from 0.0."""
    return [float(v).hex() for v in values]


def _studies(pairs):
    return tuple(StudySummary(f"s{i}", est, se) for i, (est, se) in enumerate(pairs))


@PROPERTY
@given(ps=st.lists(P_VALUES, min_size=1, max_size=7), t=THRESHOLDS)
def test_curve_equals_subset_oracle(ps, t):
    curve = _PCCurve(ps, t)
    cfg = TruncationConfig(t=t)
    for u in range(1, len(ps) + 1):
        assert curve(u)[0] == pytest.approx(brute_force_pc(ps, u, cfg), rel=1e-12, abs=0.0)


@PROPERTY
@given(
    ps=st.lists(P_VALUES, min_size=1, max_size=9),
    t=THRESHOLDS,
    alpha=st.sampled_from([0.05, 0.2, 0.9]),
)
# At t=1 the curve is not monotone: here r(1) > 0.45 >= r(2), so the walk
# must stop at 0 although u=2 alone would be rejected.
@example(ps=[0.44, 0.44], t=1.0, alpha=0.9)
def test_walk_equals_first_non_rejection(ps, t, alpha):
    cfg = TruncationConfig(t=t, alpha=alpha)
    level = alpha / 2.0
    assert _leading_rejections(_PCCurve(ps, t), level) == reference_bound(ps, level, cfg)
    right = [1.0 - p for p in ps]
    assert confidence_bounds(ps, right, cfg) == (
        reference_bound(ps, level, cfg),
        reference_bound(right, level, cfg),
    )


@PROPERTY
@given(pairs=STUDIES, t=THRESHOLDS, alpha=ALPHAS)
def test_analyze_agrees_with_bounds_table(pairs, t, alpha):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "studies.csv")
        out = os.path.join(tmp, "bounds.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("label,estimate,se\n")
            handle.writelines(f"s{i},{est!r},{se!r}\n" for i, (est, se) in enumerate(pairs))
        argv = ["bounds", "--input", path, "--format", "json", "--output", out,
                "--alpha", repr(alpha), "--truncation", repr(t)]
        assert main(argv) == 0
        with open(out, "r", encoding="utf-8") as handle:
            table = json.load(handle)
        studies = tuple(parse_studies(path))
    request = AnalysisRequest(studies=studies, alpha=alpha, truncation=TruncationConfig(t, alpha))
    _, report, _ = analyze(request)
    assert (report.u_max_left, report.u_max_right) == (table["u_max_left"], table["u_max_right"])
    row = table["table"][1]
    assert row["u"] == 2
    assert report.r_value == min(1.0, 2.0 * min(row["r_left"], row["r_right"]))


@PROPERTY
@given(
    data=st.data(),
    pairs=STUDIES,
    t=THRESHOLDS,
    threshold=st.sampled_from([None, 0.05, 0.5]),
)
def test_permuting_studies_changes_no_replicability_output(data, pairs, t, threshold):
    permuted = data.draw(st.permutations(pairs))
    cfg = TruncationConfig(t=t)
    requests = [
        AnalysisRequest(studies=_studies(p), truncation=cfg, conditional_threshold=threshold)
        for p in (pairs, permuted)
    ]
    reports = [analyze(request)[1] for request in requests]
    assert reports[0] == reports[1]
    for u in range(1, len(pairs) + 1):
        summaries = [partial_conjunction_summary(request, u) for request in requests]
        assert summaries[0] == summaries[1]


@PROPERTY
@given(pairs=STUDIES, t=THRESHOLDS, alpha=ALPHAS)
def test_swapping_directions_swaps_results(pairs, t, alpha):
    cfg = TruncationConfig(t=t, alpha=alpha)
    studies = _studies(pairs)
    flipped = tuple(StudySummary(s.label, -s.theta_hat, s.se) for s in studies)
    _, report, _ = analyze(AnalysisRequest(studies=studies, alpha=alpha, truncation=cfg))
    _, mirror, _ = analyze(AnalysisRequest(studies=flipped, alpha=alpha, truncation=cfg))
    assert (mirror.u_max_left, mirror.u_max_right) == (report.u_max_right, report.u_max_left)
    assert mirror.r_value == report.r_value
    assert mirror.consistency == report.consistency

    z = np.array([est / se for est, se in pairs])
    left, right = special.ndtr(z), special.ndtr(-z)
    assert confidence_bounds(right, left, cfg) == confidence_bounds(left, right, cfg)[::-1]
    for u in range(1, len(pairs) + 1):
        forward, backward = r_value(left, right, u, cfg), r_value(right, left, u, cfg)
        assert (backward.r_left, backward.r_right) == (forward.r_right, forward.r_left)
        assert backward.r == forward.r


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 7),
    t=THRESHOLDS,
    scale=st.sampled_from([1.0, 2.0, 4.0]),
)
def test_evaluate_tests_matches_scalar_api_row_by_row(seed, n, t, scale):
    rng = np.random.default_rng(seed)
    se = rng.uniform(0.1, 1.5, size=n)
    theta_hat = rng.normal(0.0, scale, size=(100, n)) * se
    cfg = TruncationConfig(t=t)
    tests = ("H1n", "H2n", "H2n_fe", "H3n", "inconsistency_detected", "meta_fe", "meta_re")
    out = _evaluate_tests(theta_hat, se, tests, cfg)
    z = theta_hat / se[None, :]
    for i in range(theta_hat.shape[0]):
        pairs = list(zip(theta_hat[i].tolist(), se.tolist()))
        studies = _studies(pairs)
        z_min, z_max = common_effect_reference(pairs, n - 1)
        r_fe = min(1.0, 2.0 * min(special.ndtr(z_max), special.ndtr(-z_min)))
        assert out["H2n_fe"][i] == (r_fe <= cfg.alpha)
        assert out["meta_fe"][i] == (fixed_effect_meta(studies).p_two_sided <= cfg.alpha)
        assert out["meta_re"][i] == (random_effects_meta(studies).p_two_sided <= cfg.alpha)
        left, right = special.ndtr(z[i]), special.ndtr(-z[i])
        for u in (1, 2, 3):
            assert out[f"H{u}n"][i] == (r_value(left, right, u, cfg).r <= cfg.alpha)
        assert out["inconsistency_detected"][i] == (min(confidence_bounds(left, right, cfg)) >= 1)


def full_mantissas(low, high):
    """Floats with every mantissa bit drawn, scaled by 2**low .. 2**high.

    Squares of such values are where ``x ** 2`` (libm ``pow``) and ``x * x``
    differ, about once in a thousand.
    """
    return st.builds(
        lambda k, e: k * 2.0 ** (e - 52), st.integers(2**52, 2**53 - 1), st.integers(low, high)
    )


# Estimates and standard errors over many orders of magnitude, so that the
# summation order and the rounding of squares show in the last bits.
SPREAD_ESTIMATES = st.one_of(
    st.floats(-1e6, 1e6), full_mantissas(-20, 20), full_mantissas(-20, 20).map(lambda x: -x)
)
SPREAD_SES = st.one_of(st.floats(1e-4, 1e4), full_mantissas(-13, 13))
SPREAD_STUDIES = st.lists(st.tuples(SPREAD_ESTIMATES, SPREAD_SES), min_size=1, max_size=12)


def _fit_bits(result):
    return bits(result.pooled, result.se, result.q, result.i_squared, result.tau_squared)


def _reference_bits(ref, model):
    if model == "fixed":
        return bits(ref["fe"], ref["fe_se"], ref["q"], ref["i_squared"], 0.0)
    return bits(ref["re"], ref["re_se"], ref["q"], ref["i_squared"], ref["tau_squared"])


@settings(max_examples=200, deadline=None)
@given(pairs=SPREAD_STUDIES)
@example(pairs=[(-0.0, 0.3)])
@example(pairs=[(1.5, 0.2), (-2.0, 3.0)])
@example(pairs=[(1.0, 1e-4), (2.0, 1e4), (-3.0, 1e4)])
# pow and x * x round these squares differently: the se itself, then the
# deviations from the fixed-effect estimate.
@example(pairs=[(1.0, 0.9663597082455543)])
@example(pairs=[(2.93, 0.5), (-0.734, 0.25), (1.967, 1.0)])
def test_scalar_pooling_equals_reference_bitwise(pairs):
    studies = _studies(pairs)
    n = len(pairs)
    ref = pooling_reference(pairs)
    kernel = _pool_rows(np.array([[x for x, _ in pairs]]), np.array([[se for _, se in pairs]]))
    assert bits(*(getattr(kernel, key)[0] for key in ref)) == bits(*ref.values())
    assert _fit_bits(fixed_effect_meta(studies)) == _reference_bits(ref, "fixed")
    if n >= 2:
        assert _fit_bits(random_effects_meta(studies)) == _reference_bits(ref, "random")
        assert bits(*heterogeneity(studies)) == bits(ref["q"], ref["i_squared"])
    if n >= 3:
        for model in ("fixed", "random"):
            for i, result in enumerate(leave_one_out(studies, model)):
                without_i = pooling_reference(pairs[:i] + pairs[i + 1 :])
                assert _fit_bits(result) == _reference_bits(without_i, model)


@PROPERTY
@given(
    pairs=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)), min_size=2, max_size=7)
)
def test_pooled_p_value_never_exceeds_common_effect_r_value(pairs):
    studies = _studies(pairs)
    p = fixed_effect_meta(studies).p_two_sided
    for u in range(2, len(studies) + 1):
        assert p <= fe_r_value(studies, u).r


# One to three estimate rows of n studies, with a shared row of n standard errors.
COMMON_EFFECT_CASES = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(SPREAD_ESTIMATES, min_size=n, max_size=n), min_size=1, max_size=3),
        st.lists(SPREAD_SES, min_size=n, max_size=n),
    )
)


@settings(max_examples=150, deadline=None)
@given(case=COMMON_EFFECT_CASES)
# Python's sum starts from 0, so a subset of -0.0 estimates pools to +0.0.
@example(case=([[-0.0, -0.0, 1.0], [-0.0, 2.0, -3.0]], [0.5, 0.25, 1.0]))
# pow and x * x round the square of the first se differently.
@example(case=([[1.0, 2.0]], [0.9663597082455543, 0.25]))
def test_common_effect_kernel_equals_reference_bitwise(case):
    rows, se = case
    n = len(se)
    for size in range(1, n + 1):
        z_min, z_max = _fe_z_extremes(np.array(rows), np.array(se), size)
        for i, row in enumerate(rows):
            reference = common_effect_reference(list(zip(row, se)), size)
            assert bits(z_min[i], z_max[i]) == bits(*reference)
    pairs = list(zip(rows[0], se))
    for u in range(2, n + 1):
        ref_min, ref_max = common_effect_reference(pairs, n - u + 1)
        r_left, r_right = normal_cdf(ref_max), normal_cdf(-ref_min)
        result = fe_r_value(_studies(pairs), u)
        assert bits(result.r_left, result.r_right, result.r) == bits(
            r_left, r_right, min(1.0, 2.0 * min(r_left, r_right))
        )
