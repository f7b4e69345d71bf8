"""Property tests for the row-wise kernels and everything read from them.

r(u), the directional bounds and the ``bounds`` table all come from one
partial-conjunction curve per direction, and the simulation's H-test kernel
must decide as that curve does, bit for bit; the pooled
estimates, Q, I-squared and tau-squared all come from one pooling kernel; the
common-effect r-values and the simulation's ``H2n_fe`` come from one
subset-pooling kernel. These tests check the kernels against plain oracles and
check that the readers agree with each other.
"""

import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special

from replimeta import replicability, simulation
from replimeta.cli import main
from replimeta.meta import (
    StudySummary,
    _pool_rows,
    fixed_effect_meta,
    leave_one_out,
    random_effects_meta,
)
from replimeta.replicability import (
    _leading_rejections,
    _fe_z_extremes,
    _PCCurve,
    _truncated_terms,
    confidence_bounds,
    fe_r_value,
    partial_conjunction_p,
    r_value,
    truncated_product_p,
)
from replimeta.report import (
    AnalysisRequest,
    analyze,
    directional_pvalues,
    parse_studies,
    partial_conjunction_summary,
)
from replimeta.simulation import (
    _bracket_rejections,
    _critical_bracket,
    _decisive_z,
    _directional_rejections,
    _evaluate_tests,
    _LEVEL_MARGIN,
    _level_quantiles,
    _pooled_rejections,
    _summation_slack,
    _tabulated_log_ndtr,
    _TAIL_ERROR,
    _TAIL_RANGE,
    _TAIL_STEPS,
    _threshold_window,
    _truncated_rejections,
    preset,
    run_points,
)
from replimeta.statkernels import LOG_CEIL, LOG_FLOOR, normal_cdf, one_sided_p

THRESHOLDS = st.sampled_from([0.05, 0.5, 1.0])
ALPHAS = st.sampled_from([0.05, 0.2])
# Mostly small p-values, so that the truncation and the walk have work to do,
# plus whatever edge values hypothesis picks from the whole unit interval.
P_VALUES = st.one_of(st.floats(0.0, 1e-3), st.floats(0.0, 0.1), st.floats(0.0, 1.0))
STUDIES = st.lists(
    st.tuples(st.floats(-4.0, 4.0), st.floats(0.05, 2.0)), min_size=2, max_size=8
)

PROPERTY = settings(max_examples=60, deadline=None)


def brute_force_pc(ps, u, t):
    """Independent oracle: explicit maximum over all (n-u+1)-subsets."""
    n = len(ps)
    return max(
        truncated_product_p([ps[i] for i in subset], t=t)
        for subset in combinations(range(n), n - u + 1)
    )


def reference_bound(ps, level, t):
    """The u before the first u whose partial-conjunction p-value exceeds the level."""
    for u in range(1, len(ps) + 1):
        if partial_conjunction_p(ps, u, t=t) > level:
            return u - 1
    return len(ps)


def normal_tail(z):
    """``normal_cdf``, the scalar API's normal tail, of each entry of z; a NaN entry stays NaN.

    Every decision of the Monte Carlo harness must be the scalar API's, so
    this is the one reference tail of the harness's tests.
    """
    return np.vectorize(lambda x: x if math.isnan(x) else normal_cdf(x), otypes=[float])(z)


def add(values):
    """Left-to-right float sum; builtin ``sum`` compensates from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


def pooling_reference(pairs):
    """Independent oracle: fixed-effect, Q/I-squared and DerSimonian-Laird pooling.

    Plain Python on (estimate, se) float pairs. Sums run left to right and
    squares are ``x * x``, so the kernel must match every bit.
    """
    n = len(pairs)
    w = [1.0 / (se * se) for _, se in pairs]
    total = add(w)
    fe = add(wi * x for wi, (x, _) in zip(w, pairs)) / total
    q = add(wi * ((x - fe) * (x - fe)) for wi, (x, _) in zip(w, pairs)) if n >= 2 else 0.0
    i_squared = max(0.0, (q - (n - 1)) / q) if q > 0 else 0.0
    # c = W - sum(w^2) / W as twice the sum of each weight times the
    # weights before it, over W: positive terms, so nothing cancels.
    before = [add(w[:i]) for i in range(n)]
    c = 2.0 * add((p / total) * wi for wi, p in zip(w, before))
    tau_squared = max(0.0, (q - (n - 1)) / c) if c > 0 else 0.0
    re_w = [1.0 / (se * se + tau_squared) for _, se in pairs]
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

    Plain Python on (estimate, se) float pairs: each subset is pooled with a
    left-to-right ``add`` and ``x * x`` squares, so the kernel must match
    every bit.
    """
    weights = [1.0 / (se * se) for _, se in pairs]
    weighted_theta = [w * x for w, (x, _) in zip(weights, pairs)]
    z_min = math.inf
    z_max = -math.inf
    for subset in combinations(range(len(pairs)), size):
        denom = add(weights[i] for i in subset)
        z = add(weighted_theta[i] for i in subset) / math.sqrt(denom)
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
    curve = _PCCurve.from_p_values(ps, t)
    for u in range(1, len(ps) + 1):
        assert curve(u)[0] == pytest.approx(brute_force_pc(ps, u, t), rel=1e-12, abs=0.0)


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
    level = alpha / 2.0
    assert _leading_rejections(_PCCurve.from_p_values(ps, t), level) == reference_bound(ps, level, t)
    right = [1.0 - p for p in ps]
    assert confidence_bounds(ps, right, t=t, alpha=alpha) == (
        reference_bound(ps, level, t),
        reference_bound(right, level, t),
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
    request = AnalysisRequest(studies=studies, alpha=alpha, t=t)
    _, report, _ = analyze(request)
    assert (report.u_max_left, report.u_max_right) == (table["u_max_left"], table["u_max_right"])
    row = table["table"][1]
    assert row["u"] == 2
    assert report.r_value == min(1.0, 2.0 * min(row["r_left"], row["r_right"]))


@PROPERTY
@given(pairs=STUDIES, t=THRESHOLDS, alpha=st.sampled_from([0.01, 0.2, 0.5]))
def test_request_profile_is_at_the_request_alpha(pairs, t, alpha):
    # The alphas differ from the default of 0.05: the request's profile tests
    # each side at the request's alpha / 2.
    request = AnalysisRequest(studies=_studies(pairs), alpha=alpha, t=t)
    assert request.profile.level == alpha / 2
    left, right = directional_pvalues(request)
    _, report, _ = analyze(request)
    assert report.alpha == alpha
    assert (report.u_max_left, report.u_max_right) == confidence_bounds(left, right, t=t, alpha=alpha)
    for u in range(1, len(pairs) + 1):
        assert partial_conjunction_summary(request, u) == asdict(r_value(left, right, u, t=t))


@PROPERTY
@given(
    data=st.data(),
    pairs=STUDIES,
    t=THRESHOLDS,
    threshold=st.sampled_from([None, 0.05, 0.5]),
)
def test_permuting_studies_changes_no_replicability_output(data, pairs, t, threshold):
    permuted = data.draw(st.permutations(pairs))
    requests = [
        AnalysisRequest(studies=_studies(p), t=t, conditional_threshold=threshold)
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
    studies = _studies(pairs)
    flipped = tuple(StudySummary(s.label, -s.theta_hat, s.se) for s in studies)
    _, report, _ = analyze(AnalysisRequest(studies=studies, alpha=alpha, t=t))
    _, mirror, _ = analyze(AnalysisRequest(studies=flipped, alpha=alpha, t=t))
    assert (mirror.u_max_left, mirror.u_max_right) == (report.u_max_right, report.u_max_left)
    assert mirror.r_value == report.r_value
    assert mirror.consistency == report.consistency

    z = np.array([est / se for est, se in pairs])
    left, right = special.ndtr(z), special.ndtr(-z)
    bounds = confidence_bounds(left, right, t=t, alpha=alpha)
    assert confidence_bounds(right, left, t=t, alpha=alpha) == bounds[::-1]
    for u in range(1, len(pairs) + 1):
        forward, backward = r_value(left, right, u, t=t), r_value(right, left, u, t=t)
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
    alpha = 0.05
    tests = ("H1n", "H2n", "H2n_fe", "H3n", "inconsistency_detected", "meta_fe", "meta_re")
    out = _evaluate_tests(theta_hat, se, tests, t, alpha)
    z = theta_hat / se[None, :]
    for i in range(theta_hat.shape[0]):
        pairs = list(zip(theta_hat[i].tolist(), se.tolist()))
        studies = _studies(pairs)
        z_min, z_max = common_effect_reference(pairs, n - 1)
        r_fe = min(1.0, 2.0 * min(normal_cdf(z_max), normal_cdf(-z_min)))
        assert out["H2n_fe"][i] == (r_fe <= alpha)
        assert out["meta_fe"][i] == (fixed_effect_meta(studies).p_two_sided <= alpha)
        assert out["meta_re"][i] == (random_effects_meta(studies).p_two_sided <= alpha)
        left, right = normal_tail(z[i]), normal_tail(-z[i])
        for u in (1, 2, 3):
            assert out[f"H{u}n"][i] == (r_value(left, right, u, t=t).r <= alpha)
        bounds = confidence_bounds(left, right, t=t, alpha=alpha)
        assert out["inconsistency_detected"][i] == (min(bounds) >= 1)


def _float_bits(x):
    return int(np.array([x]).view(np.int64)[0])


def _from_bits(b):
    return float(np.array([b], dtype=np.int64).view(np.float64)[0])


def _rows_straddling(target, t, truncated, untruncated):
    """Rows of ``truncated`` plus one more p-value <= t whose statistic straddles target.

    The last p-value is bisected over the bit patterns of doubles, along
    which the statistic falls monotonically. Returns the two neighbouring
    rows (statistic above and at or below target), sorted; a single row when
    the target lies beyond what the last p-value can reach.
    """
    top = min(t, LOG_CEIL)

    def row(bits):
        return np.sort(np.array(truncated + [_from_bits(bits)] + untruncated))

    def stat(bits):
        return float(-2.0 * np.sum(_truncated_terms(row(bits)[None, :], t), axis=1)[0])

    lo, hi = _float_bits(LOG_FLOOR), _float_bits(top)
    if stat(hi) > target:
        return [row(hi)]
    if stat(lo) <= target:
        return [row(lo)]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stat(mid) <= target:
            hi = mid
        else:
            lo = mid
    return [row(lo), row(hi)]


@settings(max_examples=400, deadline=None)
@given(
    length=st.integers(1, 16),
    t=st.sampled_from([0.01, 0.05, 0.5, 1.0]),
    alpha=st.sampled_from([0.01, 0.05, 0.1]),
    edge=st.sampled_from([0, 1]),
    ulps=st.sampled_from([-1, 0, 1]),
    extra=st.integers(0, 3),
    data=st.data(),
)
def test_critical_value_decisions_equal_the_exact_kernel_at_the_band_edges(
    length, t, alpha, edge, ulps, extra, data
):
    """The simulation's decision step is curve(u) <= level on rows at a bracket edge.

    The statistic of r(u) is that of the row's length largest p-values; the
    rows are built so that it lands on c_accept or c_reject of the critical
    bracket, or one double either side, and their truncated logs are fed to
    ``_truncated_rejections``. Where the plateau 1 - (1 - t)^L is
    already at or below the level (t = 0.01 at L = 1), the bracket is
    (0, 5e-324) and no truncated row can reach it: the rows are then one
    with nothing truncated and one with a single p-value at t.
    """
    level = alpha / 2.0
    u = extra + 1
    target = _critical_bracket(length, t, level)[edge]
    target = float(np.nextafter(target, ulps * math.inf)) if ulps else target
    top = min(t, LOG_CEIL)
    above = [] if t == 1.0 else data.draw(
        st.lists(st.floats(t, 1.0, exclude_min=True), min_size=length, max_size=length)
    )
    above = [min(p, LOG_CEIL) for p in above]
    # Every truncated p-value adds at least -2 log(top) to the statistic.
    most = length if t == 1.0 else min(length, int(target / (-2.0 * math.log(top))))
    if most == 0:
        rows = [np.sort(np.array(above)), np.sort(np.array([top] + above[1:]))]
    else:
        k = length if t == 1.0 else data.draw(st.integers(1, most))
        shares = data.draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
        # k logs at most log(top) each, adding up to -target/2.
        spare = -target / 2.0 - k * math.log(top)
        truncated = [
            min(max(math.exp(math.log(top) + spare * w / sum(shares)), LOG_FLOOR), top)
            for w in shares[:-1]
        ]
        rows = _rows_straddling(target, t, truncated, above[: length - k])
    smallest = min(row[0] for row in rows)
    below = sorted(data.draw(st.floats(LOG_FLOOR, smallest)) for _ in range(extra))
    matrix = np.array([below + row.tolist() for row in rows])
    expected = _PCCurve.from_p_values(matrix, t)(u) <= level
    assert np.array_equal(kernel_decisions(matrix, u, t, level), expected)
    for row, want in zip(matrix, expected):
        assert bool(kernel_decisions(row[None, :], u, t, level)[0]) == bool(want)


def kernel_decisions(p_rows, u, t, level):
    """``_truncated_rejections`` at u on the truncated logs of a (rows, n) p-value matrix."""
    clipped = np.clip(p_rows, LOG_FLOOR, LOG_CEIL)
    logs = np.where(clipped <= t, np.log(clipped), 0.0).T.copy()
    return _truncated_rejections(logs, (u,), t, level, lambda columns: _PCCurve(logs[:, columns].T, t))[u]


def test_bracket_rule_sends_the_band_nan_and_infinite_slack_to_exact():
    x = np.array([math.nan, 3.0, -3.0, 0.5, 3.0, 0.0, 1.0])
    lower = np.array([0.0, 0.0, 0.0, 0.0, -math.inf, 0.0, 0.0])
    upper = np.array([1.0, 1.0, 1.0, 1.0, math.inf, 1.0, 1.0])
    seen = []

    def exact(band):
        seen.append(band.tolist())
        return np.ones(band.size, dtype=bool)

    out = _bracket_rejections(x, lower, upper, exact)
    assert seen == [[0, 3, 4, 5, 6]]
    assert out.tolist() == [True, True, False, True, True, True, True]
    assert _bracket_rejections(np.array([2.0, -1.0]), 0.0, 1.0, exact).tolist() == [True, False]
    assert len(seen) == 1  # no band, no call


def spy_on_bands(monkeypatch, kernel=None):
    """Record, per ``_bracket_rejections`` call, the indices sent to exact.

    With ``kernel``, only the calls whose ``exact`` is defined in that
    function of ``simulation`` are recorded, so that two spies, one per
    kernel, can watch the same name.
    """
    calls = []
    real = simulation._bracket_rejections

    def spy(x, lower, upper, exact):
        if kernel is not None and not exact.__qualname__.startswith(f"{kernel}."):
            return real(x, lower, upper, exact)
        calls.append([])

        def recorded(band):
            calls[-1] += band.tolist()
            return exact(band)

        return real(x, lower, upper, recorded)

    monkeypatch.setattr(simulation, "_bracket_rejections", spy)
    return calls


def test_h_tests_send_a_nan_statistic_to_the_exact_kernel(monkeypatch):
    calls = spy_on_bands(monkeypatch)
    t, level = 0.05, 0.025
    p_rows = np.random.default_rng(7).uniform(0.0, 0.05, size=(6, 4))
    logs = np.log(p_rows).T.copy()
    logs[2, 1] = math.nan
    out = _truncated_rejections(logs, (1, 2, 3), t, level, lambda columns: _PCCurve(logs[:, columns].T, t))
    assert len(calls) == 3 and all(1 in band for band in calls)
    for u in (1, 2, 3):
        assert out[u][1] == (_PCCurve(logs[:, 1:2].T, t)(u)[0] <= level)


def test_pooled_tests_send_nan_statistics_to_exact(monkeypatch):
    calls = spy_on_bands(monkeypatch)
    rng = np.random.default_rng(8)
    se = rng.uniform(0.2, 1.0, 5)
    theta_t = rng.normal(0.5, 1.0, (5, 60)) * se[:, None]
    theta_t[:, 3] = math.nan
    decided = _pooled_rejections(theta_t, se, ("meta_fe", "meta_re"), 0.05)
    fe_band, re_band = calls
    assert 3 in fe_band and 3 in re_band
    exact = _pool_rows(theta_t, se)
    want_re = 2.0 * normal_tail(-np.abs(exact.re / exact.re_se)) <= 0.05
    want_fe = 2.0 * normal_tail(-np.abs(exact.fe / exact.fe_se)) <= 0.05
    assert np.array_equal(decided["meta_re"], want_re)
    assert np.array_equal(decided["meta_fe"], want_fe)


@pytest.mark.parametrize("t", [1e-12, 0.01, 0.05, 0.5, 0.9, 1.0])
def test_every_z_above_the_cut_has_a_p_value_above_t(t):
    cut = _threshold_window(t)[1]
    if t == 1.0:
        assert cut == math.inf
        return
    z = [cut]
    for _ in range(2000):
        z.append(float(np.nextafter(z[-1], math.inf)))
    z = np.array(z[1:])
    rng = np.random.default_rng(int(t * 1e6))
    above = [z, cut + rng.exponential(1e-6, 2000), cut + rng.exponential(3.0, 2000)]
    p = np.clip(normal_tail(np.concatenate(above)), LOG_FLOOR, LOG_CEIL)
    assert np.all(p > t)


@pytest.mark.parametrize("t", [1e-12, 0.01, 0.05, 0.5, 1.0 - 1e-7])
def test_every_z_at_or_below_the_sure_end_has_a_p_value_at_or_below_t(t):
    sure, cut = _threshold_window(t)
    assert sure < cut
    z = [sure]
    for _ in range(2000):
        z.append(float(np.nextafter(z[-1], -math.inf)))
    rng = np.random.default_rng(int(t * 1e6) + 1)
    below = [np.array(z), sure - rng.exponential(1e-6, 2000), sure - rng.exponential(3.0, 2000),
             np.array([-38.5, -40.0, -1e300, -math.inf])]
    p = np.clip(normal_tail(np.concatenate(below)), LOG_FLOOR, LOG_CEIL)
    assert np.all(p <= t)


def test_the_window_has_no_sure_end_beyond_the_clip_bounds():
    """At LOG_CEIL every clipped p-value is at or below t; below LOG_FLOOR none is."""
    assert _threshold_window(LOG_CEIL)[0] == _threshold_window(1.0)[0] == math.inf
    assert _threshold_window(1e-310)[0] == -math.inf


@settings(max_examples=300, deadline=None)
@given(t=st.one_of(st.floats(math.log(5e-324), 0.0).map(math.exp), st.floats(0.0, 1.0, exclude_min=True),
                   st.sampled_from([LOG_FLOOR, LOG_CEIL, LOG_CEIL / (1.0 + _LEVEL_MARGIN)])))
def test_the_sure_end_of_the_window_lies_below_its_cut(t):
    sure, cut = _threshold_window(t)
    if math.isfinite(sure) and math.isfinite(cut):
        assert sure < cut


# z near the cuts and where the tail rounds to 0.5, 1 and LOG_FLOOR, besides draws.
SPECIAL_Z = np.array([0.0, 5e-324, 1e-17, -1e-17, 40.0, -40.0, -38.5, 8.3, -8.3,
                      float(_threshold_window(0.05)[1]), float(_threshold_window(0.5)[1]), float(special.ndtri(0.05))])


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    t=st.sampled_from([1e-310, 1e-12, 0.001, 0.05, 0.5, 0.9, LOG_CEIL, 1.0]),
    alpha=st.sampled_from([0.01, 0.05, 0.2]),
    scale=st.sampled_from([0.5, 1.0, 3.0, 12.0]),
)
def test_directional_rejections_equal_the_exact_kernel_row_by_row(seed, n, t, alpha, scale):
    """Every u up to n, on rows with few or no truncated entries and with t below LOG_FLOOR.

    At t = 1e-310 nothing is truncated; with a small scale most rows hold
    fewer than u - 1 truncated entries at large u.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, scale, size=(300, n)) + rng.choice([0.0, 2.5, -2.5], size=(300, 1))
    z[:60] = rng.choice(SPECIAL_Z, size=(60, n))
    level = alpha / 2.0
    exact_left = _PCCurve.from_p_values(normal_tail(z), t)
    exact_right = _PCCurve.from_p_values(normal_tail(-z), t)
    zt = z.T.copy()
    left, right = _directional_rejections(zt, t, range(1, n + 1), level)
    assert np.array_equal(zt, z.T)  # read, never written
    for u in range(1, n + 1):
        assert np.array_equal(left[u], exact_left(u) <= level)
        assert np.array_equal(right[u], exact_right(u) <= level)
    # Asked for u = n alone, the top-k still keeps the n - 1 smallest.
    left, right = _directional_rejections(zt, t, (n,), level)
    assert list(left) == list(right) == [n]
    assert np.array_equal(left[n], exact_left(n) <= level)
    assert np.array_equal(right[n], exact_right(n) <= level)


def test_directional_rejections_only_read_z():
    rng = np.random.default_rng(11)
    z = rng.normal(0.0, 2.0, size=(6, 500)) + rng.choice([0.0, 2.5, -2.5], size=(1, 500))
    for t in (0.05, 1.0):
        want = _directional_rejections(z.copy(), t, (1, 2, 3), 0.025)
        z.flags.writeable = False
        got = _directional_rejections(z, t, (1, 2, 3), 0.025)
        z.flags.writeable = True
        for side, expected in zip(got, want):
            assert all(np.array_equal(side[u], expected[u]) for u in (1, 2, 3))



@pytest.mark.parametrize("n, u, t, level", [
    (1, 1, 0.05, 0.025), (8, 1, 0.05, 0.025), (8, 3, 0.05, 0.025), (8, 8, 0.05, 0.005),
    (2, 1, 1e-12, 0.025), (8, 2, 0.5, 0.1), (8, 4, 0.9, 0.025), (300, 260, 0.05, 0.025),
    (4, 1, 1e-200, 0.025), (3, 2, 0.01, 1e-250),
])
def test_every_z_beyond_the_decisive_z_alone_rejects(n, u, t, level):
    """One-sided p-values at or beyond ``_decisive_z`` are truncated, with a log below the reject edge.

    The right p-value of z is normal_cdf(-z) and the left one of -z is the same
    double, so the right side stands for both.
    """
    decisive = _decisive_z(n, u, t, level)
    assert math.isfinite(decisive)
    z = [decisive]
    for _ in range(2000):
        z.append(float(np.nextafter(z[-1], math.inf)))
    rng = np.random.default_rng(n * 1000 + u)
    beyond = [np.array(z), decisive + rng.exponential(1e-6, 2000), decisive + rng.exponential(3.0, 2000),
              np.array([38.5, 40.0, 1e300, math.inf])]
    p = np.clip(normal_tail(-np.concatenate(beyond)), LOG_FLOOR, LOG_CEIL)
    c_reject = _critical_bracket(n - u + 1, t, level)[1]
    assert np.all(p <= t)
    assert np.all(np.log(p) < -(c_reject * (1.0 + _LEVEL_MARGIN) + _summation_slack(n)) / 2.0)


# (length, t, level) of every critical bracket the tests above read: the
# band-edge grid, the rows at the bracket, the threshold windows and the decisive z.
BRACKETS = [
    *((length, t, alpha / 2.0) for length in range(1, 17) for t in (0.01, 0.05, 0.5, 1.0)
      for alpha in (0.01, 0.05, 0.1)),
    (8, 1.0, 0.025), (6, 1.0, 0.025), (3, 1.0, 0.1), (8, 0.05, 0.025), (7, 0.05, 0.025),
    (6, 0.5, 0.005), (3, 0.2, 0.1), (4, 1e-12, 0.025), (4, 0.05, 0.025), (4, 0.5, 0.025),
    *((length, t, 0.025) for length in range(1, 5) for t in (1e-310, 1.0 - 1e-7)),
    (1, 0.05, 0.025), (1, 0.05, 0.005), (2, 1e-12, 0.025), (7, 0.5, 0.1), (5, 0.9, 0.025),
    (41, 0.05, 0.025), (4, 1e-200, 0.025), (2, 0.01, 1e-250),
]


def test_the_log_space_tail_decides_as_the_exact_tail_at_every_bracket_edge():
    """At each edge, |K - _product_tail| <= _EXACT_BAND level / 100, and the
    exact tail is above the level at c_accept and at or below it at c_reject."""
    for length, t, level in BRACKETS:
        c_accept, c_reject = _critical_bracket(length, t, level)
        edges = np.array([c for c in (c_accept, c_reject) if math.isfinite(c)])
        exact = replicability._product_tail(edges, length, t)
        tail = np.exp(simulation._log_product_tail(edges, length, t))
        assert np.all(np.abs(tail - exact) <= simulation._EXACT_BAND * level / 100.0), (length, t, level)
        assert exact[0] > level, (length, t, level)
        assert c_reject == math.inf or exact[1] <= level, (length, t, level)


def test_the_bracket_searches_past_a_plateau_within_the_band():
    """A level on the plateau 1 - (1 - t)^L, where K is flat, gets c_accept = 0
    and a c_reject past the plateau's end, from the second search."""
    length, t = 3, 0.05
    level = float(replicability._product_tail(np.array([1.0]), length, t)[0])
    c_accept, c_reject = _critical_bracket(length, t, level)
    assert c_accept == 0.0 and c_reject > -2.0 * math.log(t)
    assert replicability._product_tail(np.array([c_reject]), length, t)[0] <= level


def test_below_the_smallest_band_level_the_bracket_is_the_exact_tails():
    level = simulation._SMALLEST_BAND_LEVEL / 10.0
    c_accept, c_reject = _critical_bracket(2, 0.05, level)
    assert c_reject == float(np.nextafter(c_accept, math.inf))
    exact = replicability._product_tail(np.array([c_accept, c_reject]), 2, 0.05)
    assert exact[0] > level >= exact[1]


@pytest.mark.parametrize("length", [1, 2, 8, 64, 200, 300])
def test_the_log_space_tail_warns_of_nothing(length):
    """No overflow, underflow or invalid operation at any finite statistic
    other than a subnormal one, whose half underflows, weights of 0 (t = 1)
    and subnormal t included; K is 1 at c <= 0, nonincreasing, finite, and
    NaN at a NaN statistic. A subnormal statistic is on the plateau, and no
    RuntimeWarning (pytest's error) is raised for it."""
    c_top = -4.0 * length * math.log(LOG_FLOOR)
    c = np.array([-1.0, 0.0, *sorted([sys.float_info.min, 1e-300, 1e-3, 1.0, 50.0, 1e3, 1e5, c_top, 1e300]),
                  math.nan])
    for t in (1e-310, 1e-3, 0.5, 1.0):
        with np.errstate(all="raise"):
            out = simulation._log_product_tail(c, length, t)
        assert out[0] == out[1] == 0.0 and math.isnan(out[-1])
        # Past c = 0, where K is 1 exactly, K is within its rounding of at most 1.
        assert np.all(np.isfinite(out[:-1])) and np.all(out[:-1] <= 1e-12), t
        assert np.all(np.diff(out[2:-1]) <= 0.0), t
        subnormal = simulation._log_product_tail(np.array([5e-324]), length, t)
        assert subnormal[0] == pytest.approx(out[2], rel=1e-12, abs=1e-300), t


def test_the_log_space_tail_does_not_depend_on_its_blocks(monkeypatch):
    """Blocks of (row, k) pairs, split over k at length 300 and over rows at
    length 8, give what one block gives, to an ulp or so of the gemv sums."""
    rng = np.random.default_rng(28)
    for length, rows in ((300, 3), (8, 3000)):
        c = rng.uniform(0.0, 40.0 * length, rows)
        split = simulation._log_product_tail(c, length, 0.05)
        monkeypatch.setattr(simulation, "_POISSON_BLOCK", rows * length * length)
        whole = simulation._log_product_tail(c, length, 0.05)
        monkeypatch.undo()
        np.testing.assert_allclose(split, whole, rtol=4e-16, atol=0.0)


def test_only_rows_near_the_level_or_nan_run_the_exact_tail(monkeypatch):
    """``_curve_rejections`` decides as ``curve(u) <= level``, and sends
    ``_product_tail`` only a NaN statistic and those within _EXACT_BAND of the level."""
    seen = []
    real = simulation._product_tail

    def spy(c_stat, length, t):
        seen.extend(c_stat.tolist())
        return real(c_stat, length, t)

    monkeypatch.setattr(simulation, "_product_tail", spy)
    level = 0.025
    # One term at t = 1: c(1) = c exactly and the tail is exp(-c / 2).
    critical = -2.0 * math.log(level)
    near = [critical * (1.0 + f) for f in (-1e-12, 0.0, 1e-12)]
    far = [critical * (1.0 + f) for f in (-1e-3, -1e-8, 1e-8, 1e-3)] + [0.0, 1e-300, 1e3]
    c = np.array(near + far + [math.nan])
    curve = _PCCurve(-c[:, None] / 2.0, 1.0)
    got = simulation._curve_rejections(curve, 1, 1.0, level)
    assert np.array_equal(got, curve(1) <= level)
    assert seen[:3] == near and math.isnan(seen[3]) and len(seen) == 4
    seen.clear()
    tiny = simulation._SMALLEST_BAND_LEVEL / 10.0
    assert np.array_equal(simulation._curve_rejections(curve, 1, 1.0, tiny), curve(1) <= tiny)


def test_the_decisive_z_is_inf_where_no_clipped_p_value_can_be_decisive():
    # Below LOG_FLOOR no clipped p-value is at or below t.
    assert _decisive_z(8, 1, 1e-310, 0.025) == math.inf
    # The reject edge's log is below log LOG_FLOOR.
    assert _decisive_z(1, 1, 0.05, 1e-305) == math.inf
    # No statistic rejects, so c_reject is inf.
    assert _critical_bracket(1, 0.05, -1.0)[1] == math.inf
    assert _decisive_z(1, 1, 0.05, -1.0) == math.inf


def spy_on_truncated_logs(monkeypatch):
    """Record the number of columns of each ``_truncated_logs`` call."""
    widths = []
    real = simulation._truncated_logs

    def spy(z, t, right, work):
        widths.append(z.shape[1])
        return real(z, t, right, work)

    monkeypatch.setattr(simulation, "_truncated_logs", spy)
    return widths


def assert_directional_rejections_are_exact(z, t, us, level):
    """``_directional_rejections`` on a (rows, n) z matrix against ``_PCCurve`` on its p-values."""
    left, right = _directional_rejections(np.ascontiguousarray(z.T), t, us, level)
    exact_left = _PCCurve.from_p_values(normal_tail(z), t)
    exact_right = _PCCurve.from_p_values(normal_tail(-z), t)
    for u in us:
        assert np.array_equal(left[u], exact_left(u) <= level), u
        assert np.array_equal(right[u], exact_right(u) <= level), u


def test_only_the_open_columns_are_gathered_for_the_normal_tail(monkeypatch):
    widths = spy_on_truncated_logs(monkeypatch)
    rng = np.random.default_rng(21)
    # Null rows and a few near the edge: a minority of columns stays open on each side.
    z = rng.normal(0.0, 1.0, size=(400, 6))
    z[:40] += rng.choice([2.0, -2.0], size=(40, 1))
    assert_directional_rejections_are_exact(z, 0.05, range(1, 7), 0.025)
    assert len(widths) == 2 and all(0 < width <= 200 for width in widths)
    # Every left z a candidate and almost none decisive: every left column is
    # gathered, and the right, with no candidate, runs no normal tail.
    widths.clear()
    z = rng.normal(-2.0, 0.3, size=(400, 6))
    assert_directional_rejections_are_exact(z, 0.05, range(1, 7), 0.025)
    assert widths == [400]


def test_counts_of_hundreds_of_studies_do_not_wrap():
    n = 300
    z = np.zeros((4, n))
    z[0, :260] = -40.0  # 260 decisive on the left
    z[0, 260:] = 1.0
    z[1, :299] = -2.0  # 299 left candidates
    z[1, 299] = 3.0
    z[2] = np.random.default_rng(22).normal(0.0, 1.0, n)
    z[3] = 40.0
    assert_directional_rejections_are_exact(z, 0.05, (1, 2, 44, 256, 257, 260, 261, 299, 300), 0.025)


def test_a_chunk_settled_by_counts_runs_no_normal_tail(monkeypatch):
    widths = spy_on_truncated_logs(monkeypatch)
    z = np.zeros((50, 5))
    z[::2] = -40.0  # every left p-value decisive, no right candidate
    z[1::4, 0] = 0.5
    assert_directional_rejections_are_exact(z, 0.05, range(1, 6), 0.025)
    assert widths == []


def test_the_tabulated_log_tail_stays_within_its_bound():
    """Within ``_TAIL_ERROR`` of log(clip(normal_cdf(z))) on both sides.

    At the nodes, their midpoints (where the chord is farthest from the
    curve) and their neighbouring doubles, around both clip kinks, at and
    beyond both ends of the table, and on 10^5 draws.
    """
    first, last = (round(end * _TAIL_STEPS) for end in _TAIL_RANGE)
    nodes = np.arange(first, last + 1) / _TAIL_STEPS
    kinks = special.ndtri([LOG_FLOOR, LOG_CEIL])
    rng = np.random.default_rng(24)
    z = np.concatenate([
        nodes, nodes[:-1] + 0.5 / _TAIL_STEPS,
        np.nextafter(nodes, math.inf), np.nextafter(nodes, -math.inf),
        *(kinks + step for step in (-1e-3, -1e-9, 0.0, 1e-9, 1e-3)),
        [*_TAIL_RANGE, -38.6, -40.0, -1e3, -1e300, 8.6, 9.0, 40.0, 1e300],
        rng.uniform(-40.0, 10.0, 50_000), rng.normal(0.0, 3.0, 50_000),
    ])
    for right in (False, True):
        want = np.log(np.clip(normal_tail(-z if right else z), LOG_FLOOR, LOG_CEIL))
        error = np.abs(_tabulated_log_ndtr(z, np.empty_like(z), right) - want)
        assert error.max() <= _TAIL_ERROR
        # Where (log ndtr)'' nears -1 the chord is nearly h^2 / 8 off.
        assert error.max() > 0.99 * 2.0**-15


def rows_at_the_bracket(n, u, t, level):
    """Rows of z whose exact c(u) lies within 2 (n - u + 1) _TAIL_ERROR of c_accept or c_reject.

    The u - 1 smallest p-values, which r(u) leaves out, are far out; j of
    the rest are truncated, j - 1 of them at midpoints of table cells, where
    the tabulated logs are off the most, and one solved for the statistic;
    the others have p > t. Returns the rows and each one's exact c(u) and edge.
    """
    k = n - u + 1
    width = 2.0 * k * _TAIL_ERROR
    log_top = -2.0 * math.log(min(t, LOG_CEIL))
    rng = np.random.default_rng(n * 100 + u)
    rows, stats, edges = [], [], []
    for edge in _critical_bracket(k, t, level):
        for share in np.linspace(-0.95, 0.95, 39):
            target = edge + share * width
            j = k if t == 1.0 else max(1, min(k, int(0.9 * target / log_top)))
            z_share = float(special.ndtri(math.exp(-target / (2.0 * j))))
            mids = [(math.floor(z_share * _TAIL_STEPS) + 0.5) / _TAIL_STEPS] * (j - 1)
            rest = -target / 2.0 - float(np.sum(special.log_ndtr(mids)))
            row = np.array([-30.0] * (u - 1) + mids + [float(special.ndtri(math.exp(rest)))]
                           + [3.0] * (k - j))
            terms = np.sort(_truncated_terms(normal_tail(row), t))
            rows.append(rng.permutation(row))
            stats.append(-2.0 * np.sum(terms[u - 1 :]))
            edges.append(edge)
    return np.array(rows), np.array(stats), np.array(edges)


@pytest.mark.parametrize("n, u, t, level", [
    (8, 1, 1.0, 0.025), (8, 3, 1.0, 0.025), (4, 2, 1.0, 0.1), (8, 1, 0.05, 0.025),
    (8, 2, 0.05, 0.025), (6, 1, 0.5, 0.005), (3, 1, 0.2, 0.1),
])
def test_rows_within_the_tabulation_bound_of_the_bracket_decide_exactly(n, u, t, level):
    """Near the bracket the tabulated statistic can lie on the wrong side of
    it; the widened bracket sends such rows to the exact kernel."""
    z, stats, edges = rows_at_the_bracket(n, u, t, level)
    assert np.all(np.abs(stats - edges) <= 2.0 * (n - u + 1) * _TAIL_ERROR)
    exact = _PCCurve.from_p_values(normal_tail(z), t)(u) <= level
    assert 0 < np.count_nonzero(exact) < len(z)
    assert_directional_rejections_are_exact(np.vstack([z, -z]), t, (u,), level)


def window_z(t):
    """z across the threshold window of t, and the doubles next to ndtri(t)."""
    middle = float(special.ndtri(t))
    near = [middle]
    for step in (math.inf, -math.inf):
        z = middle
        for _ in range(100):
            z = float(np.nextafter(z, step))
            near.append(z)
    return np.concatenate([np.linspace(max(_threshold_window(t)[0], -40.0), min(_threshold_window(t)[1], 8.0), 41), near])


@pytest.mark.parametrize("t", [1e-12, 0.05, 0.5])
def test_rows_with_an_entry_in_the_threshold_window_decide_exactly(t):
    """Whether a window entry is truncated moves c(1) across the bracket."""
    level = 0.025
    c_accept = _critical_bracket(4, t, level)[0]
    log_t = -2.0 * math.log(t)
    # Short of c_accept by half an entry at t, and truncated itself, if it can be.
    c_rest = c_accept - 0.5 * log_t
    rest = [float(special.ndtri(math.exp(-c_rest / 2.0)))] if c_rest >= log_t else []
    z = np.array([[w, *rest] + [3.0] * (3 - len(rest)) for w in window_z(t)])
    step = t * _LEVEL_MARGIN / 2.0
    flip = np.array([[float(special.ndtri(p)), *rest] + [3.0] * (3 - len(rest)) for p in (t - step, t + step)])
    assert (_PCCurve.from_p_values(normal_tail(flip), t)(1) <= level).tolist() == [True, False]
    assert_directional_rejections_are_exact(np.vstack([z, -z, flip, -flip]), t, (1,), level)


@pytest.mark.parametrize("t", [1e-310, 1.0 - 1e-7])
def test_window_entries_at_the_extreme_thresholds_decide_exactly(t):
    """Below LOG_FLOOR every candidate is in the window; just below LOG_CEIL the window has no top."""
    rng = np.random.default_rng(25)
    z = rng.normal(0.0, 2.0, size=(400, 4))
    z[:, 0] = rng.choice(np.concatenate([window_z(t), [-40.0, -38.5, 40.0]]), size=400)
    assert_directional_rejections_are_exact(z, t, (1, 2, 3, 4), 0.025)


def clip_sort_sum_curve(p_rows, t, u):
    """r(u) per row by the formula: clip, sort, and sum the logs at or below t of the suffix."""
    rows = np.clip(np.array(p_rows, dtype=float, ndmin=2), LOG_FLOOR, LOG_CEIL)
    rows.sort(axis=1)
    suffix = rows[:, u - 1 :]
    c_stat = -2.0 * np.sum(np.where(suffix <= t, np.log(suffix), 0.0), axis=1)
    return replicability._product_tail(c_stat, suffix.shape[1], t)


# Ties, p exactly at a threshold, 0, 1 and the clip bounds, besides draws.
EDGE_P_VALUES = st.one_of(st.sampled_from([0.0, 1.0, 0.05, 0.5, LOG_FLOOR, LOG_CEIL]), P_VALUES)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 12).flatmap(
        lambda n: st.lists(st.lists(EDGE_P_VALUES, min_size=n, max_size=n), min_size=1, max_size=5)
    ),
    t=THRESHOLDS,
)
def test_curve_from_p_values_equals_the_clip_sort_sum_formula_bit_for_bit(rows, t):
    curve = _PCCurve.from_p_values(np.array(rows), t)
    for u in range(1, len(rows[0]) + 2):
        want = clip_sort_sum_curve(rows, t, u)
        assert bits(*curve(u)) == bits(*want)
        for row, value in zip(rows, want):
            assert bits(_PCCurve.from_p_values(row, t)(u)[0]) == bits(value)


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
    kernel = _pool_rows(np.array([[x] for x, _ in pairs]), np.array([[se] for _, se in pairs]))
    assert bits(*(getattr(kernel, key)[0] for key in ref)) == bits(*ref.values())
    assert _fit_bits(fixed_effect_meta(studies)) == _reference_bits(ref, "fixed")
    if n >= 2:
        assert _fit_bits(random_effects_meta(studies)) == _reference_bits(ref, "random")
        fit = fixed_effect_meta(studies)
        assert bits(fit.q, fit.i_squared) == bits(ref["q"], ref["i_squared"])
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
        z_min, z_max = _fe_z_extremes(np.array(rows).T, np.array(se), size)
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


def pooled_decision(test_id, pairs, alpha):
    """Independent oracle: a pooled test's decision from the plain-Python pooling formulas."""
    if test_id == "H2n_fe":
        z_min, z_max = common_effect_reference(pairs, len(pairs) - 1)
        return min(1.0, 2.0 * min(normal_cdf(z_max), normal_cdf(-z_min))) <= alpha
    ref = pooling_reference(pairs)
    estimate, se = (ref["fe"], ref["fe_se"]) if test_id == "meta_fe" else (ref["re"], ref["re_se"])
    return 2.0 * normal_cdf(-abs(estimate / se)) <= alpha


def _pooled_case(kind, n, data):
    """Estimates, their standard errors and how the bisected parameter s moves them.

    ``plain``: estimates of one sign, scaled by s. ``dominant``: one study's
    weight dwarfs the others', so c = sum(w) - sum(w^2)/sum(w) is far below
    sum(w); the estimates are scaled by s, or spread around 0 and shifted by
    s, which moves the pooled z but not Q. ``huge_q``: estimates spread over
    up to 1e8 standard errors, shifted by s, so that Q and tau-squared are
    huge where the random-effects z crosses the critical value.
    """
    se = data.draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    noise = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    if kind == "dominant":
        se[0] *= 10.0 ** -data.draw(st.integers(3, 7))
    if kind == "plain" or (kind == "dominant" and data.draw(st.booleans())):
        return (1.0 + 0.5 * noise).tolist(), se, lambda s, x: s * x
    assume(np.ptp(noise) > 0.1)
    spread = 10.0 ** data.draw(st.integers(0, 2) if kind == "dominant" else st.integers(3, 8))
    return ((noise - noise.mean()) * spread).tolist(), se, lambda s, x: s + x


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 9),
    alpha=st.sampled_from([0.05, 0.01, 0.1, 0.001]),
    kind=st.sampled_from(["plain", "dominant", "huge_q"]),
    test_id=st.sampled_from(["meta_fe", "meta_re", "H2n_fe"]),
    data=st.data(),
)
def test_pooled_decisions_equal_the_exact_formulas_at_the_critical_value(
    n, alpha, kind, test_id, data
):
    """Rows whose exact pooled |z| straddles the critical value decide as the exact formulas.

    The estimates move with a parameter s, which is bisected over the bit
    patterns of doubles to neighbours whose exact decisions differ, and the
    kernels must send such rows to the normal tail on their exact z. At alpha = 0.1 and
    0.001 the first |z| that rejects lies 3 and -70 doubles from
    ndtri(1 - alpha/2).
    """
    base, se, move = _pooled_case(kind, n, data)

    def row(bits_of_s):
        s = _from_bits(bits_of_s)
        return [move(s, x) for x in base]

    def rejects(bits_of_s):
        return pooled_decision(test_id, list(zip(row(bits_of_s), se)), alpha)

    lo, hi = _float_bits(2.0**-30), _float_bits(2.0**40)
    assume(not rejects(lo) and rejects(hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rejects(mid):
            hi = mid
        else:
            lo = mid
    rows = np.array([row(lo), row(hi)])
    out = _evaluate_tests(rows, np.array(se), (test_id,), 0.05, alpha)[test_id]
    assert out.tolist() == [False, True]
    for one, want in zip(rows, (False, True)):
        row_out = _evaluate_tests(one[None, :], np.array(se), (test_id,), 0.05, alpha)
        assert bool(row_out[test_id][0]) == want


def _straddling_sets():
    """Estimate matrices, one study a column, each with its shared se vector.

    First 60 rows of 8 random studies; then sets of 2 to 5 studies where one
    weight dominates, each scaled over 400 neighbouring doubles around the
    scale that puts Q at n - 1. There tau-squared is a few doubles above 0,
    and any rounding of Q moves the random-effects z by far more than its
    last bits. The dominant study's estimate is a few of its se, so that
    the pooled z, and with it alpha, stays moderate.
    """
    rng = np.random.default_rng(5)
    se = rng.uniform(0.1, 1.5, 8)
    yield rng.normal(0.5, 1.0, (60, 8)) * se, se
    for _ in range(12):
        n = int(rng.integers(2, 6))
        se = rng.uniform(0.5, 2.0, n)
        se[0] = 10.0 ** -rng.uniform(4, 7)
        base = rng.normal(0.0, 1.0, n)
        base[0] = rng.normal(0.0, 2.0) * se[0]
        scale = math.sqrt((n - 1) / _pool_rows(base[:, None], se).q[0])
        scales = (np.array([scale]).view(np.int64) + np.arange(-200, 200)).view(np.float64)
        yield scales[:, None] * base[None, :], se


def _straddling_decisions(test_id):
    """The harness's decisions at alphas that each sit at one row's own two-sided p.

    At alpha = p_two_sided of row i, its pooled |z| is exactly the critical
    value, so its decision rests on every bit of z and of the tail. Yields
    alpha, the harness's decisions on every row of the set, and per row the
    |pooled / se| and ``p_two_sided`` of the scalar API's fit, neither of
    which depends on the fit's alpha.
    """
    fit = fixed_effect_meta if test_id == "meta_fe" else random_effects_meta
    for theta_hat, se in _straddling_sets():
        fits = [fit(_studies(list(zip(row, se)))) for row in theta_hat.tolist()]
        z = np.array([abs(f.pooled / f.se) for f in fits])
        p = np.array([f.p_two_sided for f in fits])
        for alpha in p.tolist():
            if 0.0 < alpha < 1.0:
                out = _evaluate_tests(theta_hat, se, (test_id,), 0.05, alpha)[test_id]
                yield alpha, out, z, p


@pytest.mark.parametrize("test_id", ["meta_fe", "meta_re"])
def test_pooled_tests_at_a_straddling_alpha_decide_as_the_scalar_pooling(test_id):
    """Row by row, the harness decides as ``normal_cdf`` on the scalar API's pooled estimate / se.

    So the harness and ``fixed_effect_meta`` or ``random_effects_meta`` agree
    on every bit of the pooled z: one pooling kernel, with x * x squares,
    serves both.
    """
    straddled = 0
    for alpha, out, z, _ in _straddling_decisions(test_id):
        assert np.array_equal(out, 2.0 * normal_tail(-z) <= alpha)
        straddled += 1
    assert straddled > 4000


@pytest.mark.parametrize("test_id", ["meta_fe", "meta_re"])
def test_pooled_tests_at_a_straddling_alpha_decide_as_the_scalar_p_value(test_id):
    """Row by row, the harness decides as ``p_two_sided <= alpha`` of the scalar API."""
    for alpha, out, _, p in _straddling_decisions(test_id):
        assert np.array_equal(out, p <= alpha)


@pytest.mark.parametrize("alpha", [1e-300, 1e-10, 0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9, 1.0 - 1e-9])
def test_every_abs_z_beyond_the_z_bracket_decides_as_normal_cdf(alpha):
    reject_below, accept_above = _level_quantiles(alpha / 2.0)
    z_accept, z_reject = -accept_above, -reject_below
    above, below = [z_reject], [z_accept]
    for _ in range(2000):
        above.append(float(np.nextafter(above[-1], math.inf)))
        below.append(float(np.nextafter(below[-1], -math.inf)))
    rng = np.random.default_rng(int(-math.log(alpha) * 1e3))
    above = np.concatenate([above[1:], z_reject + rng.exponential(1e-6, 2000)])
    below = np.concatenate([below[1:], z_accept - rng.exponential(1e-6, 2000)])
    if z_accept > 0.0:
        below = np.concatenate([below, rng.uniform(0.0, z_accept, 2000)])
    assert np.all(2.0 * normal_tail(-above) <= alpha)
    assert np.all(2.0 * normal_tail(-below[below >= 0.0]) > alpha)


MONTE_CARLO_TESTS = ("H1n", "H2n", "H3n", "inconsistency_detected", "meta_fe", "meta_re", "H2n_fe")


def scalar_values(theta_hat, se, t):
    """Per test id, each row's own value in the scalar API, whose test rejects at alpha when value <= alpha.

    ``H{u}n``: ``r_value(...).r`` on the rows' ``one_sided_p``; meta_fe and
    meta_re: ``p_two_sided``; H2n_fe: ``fe_r_value(row, 2).r``;
    inconsistency_detected: 2 max(r_left(1), r_right(1)), since both bounds
    of ``confidence_bounds`` at alpha are at least 1 exactly when both r(1)
    are at or below alpha / 2.
    """
    values = {test_id: [] for test_id in MONTE_CARLO_TESTS}
    for row in theta_hat.tolist():
        studies = _studies(list(zip(row, se.tolist())))
        pairs = [one_sided_p(study.theta_hat, study.se) for study in studies]
        left, right = [pair.left for pair in pairs], [pair.right for pair in pairs]
        results = [r_value(left, right, u, t=t) for u in (1, 2, 3)]
        for u, result in enumerate(results, start=1):
            values[f"H{u}n"].append(result.r)
        values["inconsistency_detected"].append(2.0 * max(results[0].r_left, results[0].r_right))
        values["meta_fe"].append(fixed_effect_meta(studies).p_two_sided)
        values["meta_re"].append(random_effects_meta(studies).p_two_sided)
        values["H2n_fe"].append(fe_r_value(studies, 2).r)
    return {test_id: np.array(value) for test_id, value in values.items()}


def straddling_alphas(value):
    """A value and its two neighbouring doubles, those of them in (0, 1)."""
    alphas = (float(np.nextafter(value, 0.0)), value, float(np.nextafter(value, 1.0)))
    return [alpha for alpha in alphas if 0.0 < alpha < 1.0]


def straddling_rows(seed, n, rows):
    """Estimates, one study a column, and their se: null rows and rows with a shared shift."""
    rng = np.random.default_rng(seed)
    se = rng.uniform(0.1, 1.5, n)
    z = rng.normal(0.0, 1.5, (rows, n)) + rng.choice([0.0, 2.0, -2.0], (rows, 1))
    return z * se, se


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8), t=THRESHOLDS)
def test_every_monte_carlo_decision_at_a_straddling_alpha_is_the_scalar_apis(seed, n, t):
    """At alpha equal to a row's own scalar value, and at both neighbouring doubles,
    ``_evaluate_tests`` decides every row of the chunk as the scalar API does.

    At such an alpha the row lies inside the harness's bracket, so its
    decision rests on the last bits of the normal tail; one tail serves both.
    inconsistency_detected is also checked against ``confidence_bounds`` on
    the row itself.
    """
    theta_hat, se = straddling_rows(seed, n, 20)
    values = scalar_values(theta_hat, se, t)
    for test_id, value in values.items():
        for i, own in enumerate(value.tolist()):
            for alpha in straddling_alphas(own):
                out = _evaluate_tests(theta_hat, se, (test_id,), t, alpha)[test_id]
                assert np.array_equal(out, value <= alpha), (test_id, i, alpha)
                if test_id == "inconsistency_detected":
                    z = theta_hat[i] / se
                    bounds = confidence_bounds(normal_tail(z), normal_tail(-z), t=t, alpha=alpha)
                    assert bool(out[i]) == (min(bounds) >= 1)


def test_no_monte_carlo_decision_runs_scipys_ndtr(monkeypatch):
    """With ``scipy.special.ndtr`` raising, every test id decides chunks whose
    rows reach the exact band of both kernels, and a preset point runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.special.ndtr was called")

    directional = spy_on_bands(monkeypatch, "_truncated_rejections")
    pooled = spy_on_bands(monkeypatch, "_pooled_rejections")
    monkeypatch.setattr(special, "ndtr", refuse)
    theta_hat, se = straddling_rows(26, 6, 40)
    for t in (0.05, 1.0):
        for test_id, value in scalar_values(theta_hat, se, t).items():
            alpha = next(v for v in value.tolist() if 0.0 < v < 1.0)
            directional.clear()
            pooled.clear()
            _evaluate_tests(theta_hat, se, MONTE_CARLO_TESTS, t, alpha)
            band = pooled if test_id in ("meta_fe", "meta_re", "H2n_fe") else directional
            assert any(band), (test_id, t)
    scenarios, tests = preset("mixed-signs", replications=2_000, seed=3)
    (point,) = run_points(scenarios[1:2], tests)
    assert set(point.rejection_rate) == set(tests)
