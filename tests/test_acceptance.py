"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Tolerances for Monte Carlo checks are three binomial
standard errors at the stated replication counts.
"""

import json
import math
import re
import time
from itertools import combinations

import numpy as np
from scipy.stats import chi2

from replimeta.cli import main
from replimeta.meta import StudySummary, fixed_effect_meta
from replimeta.replicability import (
    classify_consistency,
    fe_r_value,
    partial_conjunction_p,
    truncated_product_p,
)
from replimeta.simulation import (
    BENCHMARK_GROUP_SIZES,
    FixedEffectsScenario,
    inconsistency_probability,
    preset,
    simulate_fixed,
    simulate_random,
    truncation_comparison,
)

REPLICATIONS = 10_000
SIZE_BOUND = 0.05 + 3 * math.sqrt(0.05 * 0.95 / REPLICATIONS)  # 0.05654...


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_truncated_product_monte_carlo_oracle():
    """The combination p-value matches a 1e6-draw null sample at four (L, t) pairs."""
    start = time.monotonic()
    rng = np.random.default_rng(10**6 + 7)
    cases = {
        (3, 0.05): [[0.02, 0.3, 0.9], [0.01, 0.04, 0.5], [0.04, 0.6, 0.7]],
        (5, 0.05): [[0.01, 0.2, 0.4, 0.6, 0.8], [0.03, 0.04, 0.3, 0.5, 0.9],
                    [0.002, 0.7, 0.8, 0.9, 0.95]],
        (5, 0.5): [[0.1, 0.3, 0.45, 0.7, 0.9], [0.05, 0.2, 0.35, 0.4, 0.6],
                   [0.45, 0.48, 0.6, 0.7, 0.8]],
        (8, 1.0): [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
                   [0.05, 0.1, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
                   [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]],
    }
    worst = 0.0
    ok = True
    for (length, t), vectors in cases.items():
        draws = rng.uniform(size=(1_000_000, length))
        c_null = -2.0 * np.where(draws <= t, np.log(draws), 0.0).sum(axis=1)
        for vector in vectors:
            exact = truncated_product_p(vector, t=t)
            c_obs = -2.0 * sum(math.log(p) for p in vector if p <= t)
            empirical = float((c_null >= c_obs).mean())
            mc_se = math.sqrt(max(empirical * (1 - empirical), 1e-12) / c_null.size)
            deviation = abs(exact - empirical) / (3 * mc_se)
            worst = max(worst, deviation)
            ok = ok and deviation <= 1.0
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _criterion(1, ok, f"worst |exact-MC| = {worst:.2f} of 3 MC SE at 1e6 draws, {elapsed:.1f}s")


def test_criterion_02_fisher_reduction_at_t_one():
    """Untruncated combination equals the chi-square(2L) upper tail to 1e-10."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(1, 12))
        ps = rng.uniform(1e-6, 1.0 - 1e-9, size=length)
        c_stat = -2.0 * float(np.sum(np.log(ps)))
        worst = max(worst, abs(truncated_product_p(ps, t=1.0) - chi2.sf(c_stat, 2 * length)))
    _criterion(2, worst <= 1e-10, f"max |TPM(t=1) - chi2 tail| = {worst:.2e} over 100 vectors")


def test_criterion_03_shortcut_equals_brute_force():
    """The sorted shortcut equals the exhaustive subset maximum exactly."""
    rng = np.random.default_rng(1003)
    mismatches = 0
    vectors = 0
    for n in range(1, 9):
        for _ in range(64):
            vectors += 1
            ps = rng.uniform(size=n)
            if rng.uniform() < 0.5:
                ps = np.minimum(ps, rng.beta(0.2, 1.0, size=n))
            for u in range(1, n + 1):
                brute = max(
                    truncated_product_p([ps[i] for i in subset], t=0.05)
                    for subset in combinations(range(n), n - u + 1)
                )
                if partial_conjunction_p(ps, u, t=0.05) != brute:
                    mismatches += 1
    _criterion(
        3, mismatches == 0, f"{mismatches} mismatches over {vectors} vectors, all n <= 8, all u"
    )


def test_criterion_04_size_under_global_null():
    """H1n, H2n and the RE meta-analysis hold level under the eight-study null."""
    start = time.monotonic()
    scenario = FixedEffectsScenario(
        theta=(0.0,) * 8,
        group_sizes=BENCHMARK_GROUP_SIZES,
        replications=REPLICATIONS,
        seed=1004,
    )
    point = simulate_fixed(scenario, tests=("H1n", "H2n", "meta_re"))
    rates = point.rejection_rate
    elapsed = time.monotonic() - start
    ok = all(rates[k] <= SIZE_BOUND for k in ("H1n", "H2n", "meta_re")) and elapsed < 180.0
    _criterion(
        4,
        ok,
        f"null rates H1n={rates['H1n']:.4f} H2n={rates['H2n']:.4f} "
        f"meta_re={rates['meta_re']:.4f} (bound {SIZE_BOUND:.4f}), {elapsed:.1f}s",
    )


def test_criterion_05_single_study_immunity():
    """One nonnull study inflates the FE meta-analysis but not the common-effect H2n."""
    scenarios, tests = preset("single-among-n", replications=REPLICATIONS, seed=1005)
    details = []
    ok = True
    for scenario in scenarios:
        point = simulate_fixed(scenario, tests)
        fe = point.rejection_rate["meta_fe"]
        h2 = point.rejection_rate["H2n_fe"]
        ok = ok and fe >= 0.20 and h2 <= SIZE_BOUND
        details.append(f"n={int(scenario.param)}: meta_fe={fe:.3f} H2n_fe={h2:.4f}")
    _criterion(5, ok, "; ".join(details) + f" (need fe>=0.20, H2n_fe<={SIZE_BOUND:.4f})")


def test_criterion_06_power_ordering_two_nonnull():
    """Two strong same-sign studies: replicability test powerful, RE meta weak."""
    scenario = FixedEffectsScenario(
        theta=(3.0, 3.0) + (0.0,) * 6,
        group_sizes=BENCHMARK_GROUP_SIZES,
        replications=REPLICATIONS,
        seed=1006,
    )
    point = simulate_fixed(scenario, tests=("H2n", "meta_re"))
    h2n = point.rejection_rate["H2n"]
    re = point.rejection_rate["meta_re"]
    ok = h2n >= 0.90 and re <= 0.20
    _criterion(6, ok, f"H2n power={h2n:.4f} (>=0.9), meta_re power={re:.4f} (<=0.20)")


def test_criterion_07_truncation_advantage_mixed_signs():
    """Truncating at the nominal level beats no truncation wherever power is real."""
    scenarios, _ = preset("mixed-signs", replications=REPLICATIONS, seed=1007)
    table = truncation_comparison(scenarios, t_values=(0.05, 1.0), tests=("H2n",))
    ok = True
    rows = []
    for low, high in zip(table[0.05], table[1.0]):
        a = low.rejection_rate["H2n"]
        b = high.rejection_rate["H2n"]
        if max(a, b) > 0.2:
            ok = ok and a > b
            rows.append(f"m={low.param}: {a:.3f}>{b:.3f}")
    _criterion(7, ok and rows, "common random numbers; " + "; ".join(rows))


def test_criterion_08_inconsistency_detection_rate():
    """Detection of mixed effect signs at zero mean and calibrated heterogeneity.

    Calibration follows the stated procedure (median estimated I-squared of
    70%). Note: reaching the quoted ~60% detection would need a median
    I-squared near 88% (tau ~ 0.55 with these group sizes); with the stated
    70% calibration the detection rate sits near 20%, so the window check
    fails; the monotone decrease holds. See the decisions ledger.
    """
    scenarios, _ = preset("re-high-het", replications=REPLICATIONS, seed=1008)
    rates = []
    for scenario in scenarios:
        point = simulate_random(scenario, ("inconsistency_detected",))
        rates.append(point.rejection_rate["inconsistency_detected"])
    in_window = 0.45 <= rates[0] <= 0.75
    decreasing = all(a > b for a, b in zip(rates, rates[1:]))
    ok = in_window and decreasing
    _criterion(
        8,
        ok,
        f"tau={scenarios[0].tau:.3f} (median I2=70%), detection over mu grid = "
        + ", ".join(f"{r:.3f}" for r in rates)
        + f"; window [0.45, 0.75] {'met' if in_window else 'NOT met'}, "
        + f"decreasing {'holds' if decreasing else 'fails'}",
    )


def test_criterion_09_common_effect_dominance():
    """The pooled p-value is always smaller than every common-effect r-value."""
    rng = np.random.default_rng(1009)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        studies = [
            StudySummary(f"s{j}", float(rng.normal(0, 1)), float(rng.uniform(0.5, 1.5)))
            for j in range(n)
        ]
        p = fixed_effect_meta(studies).p_two_sided
        for u in range(2, n + 1):
            if not p < fe_r_value(studies, u).r:
                violations += 1
    _criterion(9, violations == 0, f"{violations} violations in 1000 random instances, n <= 10")


def test_criterion_10_inconsistency_closed_form():
    """Exact value at zero mean and agreement with simulated sign patterns."""
    exact_ok = all(
        inconsistency_probability(0.0, tau, 8) == 1.0 - 2.0**-7 for tau in (0.3, 1.0, 2.5)
    )
    rng = np.random.default_rng(1010)
    draws = rng.normal(0.0, 0.7, size=(100_000, 8))
    empirical = float(((draws > 0).any(axis=1) & (draws < 0).any(axis=1)).mean())
    target = 1.0 - 2.0**-7
    mc_se = math.sqrt(target * (1 - target) / draws.shape[0])
    mc_ok = abs(empirical - target) <= 3 * mc_se
    _criterion(
        10,
        exact_ok and mc_ok,
        f"closed form = 1 - 2^-7 exactly; empirical {empirical:.5f} vs {target:.5f} "
        f"(3 MC SE = {3 * mc_se:.5f})",
    )


def test_criterion_11_classification_table():
    """The consistency classification on the exhaustive grid of bounds."""
    failures = []
    for u_left in range(4):
        for u_right in range(4):
            got = classify_consistency(u_left, u_right)
            if u_left >= 1 and u_right >= 1:
                want = "inconsistent"
            elif (u_left >= 2 and u_right == 0) or (u_left == 0 and u_right >= 2):
                want = "supports_consistency"
            else:
                want = "insufficient_evidence"
            if got != want:
                failures.append((u_left, u_right, got, want))
    _criterion(11, not failures, f"exhaustive 4x4 grid of bounds, failures: {failures}")


def test_criterion_12_determinism(tmp_path, capsys):
    """Identical seeds give byte-identical CSV; text and JSON agree to 12 digits."""
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--scenario", "two-same-sign", "--replications", "500", "--seed", "12"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    csv_ok = first.read_bytes() == second.read_bytes()

    study_file = tmp_path / "studies.csv"
    study_file.write_text(
        "label,estimate,se\nA,0.52,0.18\nB,0.61,0.22\nC,0.44,0.15\nD,0.70,0.30\nE,0.55,0.21\n"
    )
    assert main(["analyze", "--input", str(study_file), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["analyze", "--input", str(study_file)]) == 0
    text = capsys.readouterr().out
    details = dict(
        re.findall(r"^(\w+)\s+= (.+)$", text.split("details (full precision)")[1], re.M)
    )

    def round12(x: float) -> float:
        return float(f"{x:.12g}")

    keys = ("pooled", "se", "ci_low", "ci_high", "p_two_sided", "q", "i_squared", "tau_squared")
    text_json_ok = all(round12(float(details[k])) == round12(payload["meta"][k]) for k in keys)
    text_json_ok = text_json_ok and round12(float(details["r_value"])) == round12(
        payload["replicability"]["r_value"]
    )
    _criterion(
        12,
        csv_ok and text_json_ok,
        f"CSV byte-identical: {csv_ok}; text/JSON 12-digit agreement: {text_json_ok}",
    )
