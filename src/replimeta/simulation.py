"""Monte Carlo power harness for the replicability and meta-analysis tests.

Scenarios describe how study effect estimates are generated; the harness draws
replications in row chunks, evaluates the requested tests on every row of a
chunk, and reports rejection rates with their Monte Carlo standard errors.

Randomness scheme: each scenario owns a counter-based Philox stream keyed by
its seed, and the replications are drawn replication-major from that stream,
in successive chunks of at most ``_CHUNK_ELEMENTS`` estimates. Chunked
draws equal one draw of the whole block byte for byte, and rejection counts
are whole numbers, so results are bit-reproducible for a given seed and
independent of the chunk size. The next chunk is drawn on one worker thread
while the current one is tested; that one thread draws every chunk, in
stream order, so the draws are the same bytes as without it. Grid builders
give point i the seed ``base_seed + i``.
"""

from __future__ import annotations

import contextlib
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .meta import StudySummary, _check_alpha, _overflow_index, _pool_rows
from .replicability import (
    _bracket_rejections,
    _check_t,
    _directional_rejections,
    _directional_work_size,
    _fe_work_size,
    _fe_z_extremes,
    _level_quantiles,
    _normal_cdf_rows,
)
from .statkernels import normal_cdf

__all__ = [
    "BENCHMARK_GROUP_SIZES",
    "FixedEffectsScenario",
    "PowerCurvePoint",
    "RandomEffectsScenario",
    "calibrate_tau",
    "inconsistency_probability",
    "parse_scenario_config",
    "preset",
    "preset_names",
    "run_points",
    "simulate_fixed",
    "simulate_random",
    "truncation_comparison",
    "write_power_csv",
]

# Eight-study benchmark of (control, treatment) group sizes with realistically
# uneven precision, used by the shipped scenario presets.
BENCHMARK_GROUP_SIZES: tuple[tuple[int, int], ...] = (
    (22, 22),
    (210, 121),
    (26, 24),
    (192, 187),
    (60, 31),
    (38, 53),
    (53, 49),
    (15, 16),
)

_H_TEST = re.compile(r"^H(\d+)n$")
# The test ids besides H{u}n.
_TEST_IDS = ("meta_fe", "meta_re", "H2n_fe", "inconsistency_detected")
DEFAULT_TESTS = ("meta_fe", "meta_re", "H1n", "H2n", "H3n", "inconsistency_detected")
_T_DEPENDENT_TESTS = ("H1n", "H2n", "H3n", "inconsistency_detected")


def _standard_errors(group_sizes: Sequence[tuple[int, int]]) -> np.ndarray:
    sizes = np.asarray(group_sizes, dtype=float)
    return np.sqrt(1.0 / sizes[:, 0] + 1.0 / sizes[:, 1])


def _check_finite(name: str, *values: float | None) -> None:
    if not all(v is None or math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite, got {', '.join(map(repr, values))}")


def _check_seed(seed: int) -> int:
    """The seed, once it is a valid Philox key."""
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    return seed


def _check_scenario(scenario: Scenario) -> None:
    """The checks both scenario kinds share: study count, param, group sizes, replications, seed."""
    if not scenario.group_sizes:
        raise ValueError("at least one study is required")
    _check_finite("param", scenario.param)
    for pair in scenario.group_sizes:
        if len(pair) != 2 or not (0 < pair[0] < math.inf and 0 < pair[1] < math.inf):
            raise ValueError(
                f"group sizes must be positive finite (control, treatment) pairs, got {pair}"
            )
    if scenario.replications < 1:
        raise ValueError("replications must be at least 1")
    _check_seed(scenario.seed)


# numpy's ziggurat draws a normal's tail as r - log(1 - U)/r, with r = 3.654
# and U at most 1 - 2**-53, so no standard normal it draws exceeds 13.71 in
# absolute value; every estimate lies within this many sd of its mean.
_DRAW_BOUND = 16.0


def _check_draw_range(key: str, mean, sd: np.ndarray, se: np.ndarray) -> None:
    """Raise ValueError naming ``key`` where drawn estimates could overflow a pooling sum.

    The estimates of study i lie in [mean_i - _DRAW_BOUND sd_i, mean_i +
    _DRAW_BOUND sd_i]. ``meta``'s overflow rule for study files, applied to
    both ends of every range as two studies with the study's se, bounds the
    inverse-variance sums, the weighted sums of |estimate| and Cochran's Q
    of every row drawn.
    """
    ends = [
        (float(m) + sign * _DRAW_BOUND * float(s), float(e))
        for m, s, e in zip(np.broadcast_to(mean, se.shape), sd, se)
        for sign in (-1.0, 1.0)
    ]
    # Python floats overflow to inf without a warning.
    finite = all(math.isfinite(end) for end, _ in ends)
    if not finite or _overflow_index([StudySummary(key, end, e) for end, e in ends]) is not None:
        raise ValueError(
            f"{key}: estimates drawn within {_DRAW_BOUND:g} sd of their means can overflow "
            "the inverse-variance sums of 1/se^2, |estimate|/se^2 or Cochran's Q"
        )


@dataclass(frozen=True)
class FixedEffectsScenario:
    """Studies with fixed true effects; estimates are effect plus sampling noise."""

    theta: tuple[float, ...]
    group_sizes: tuple[tuple[int, int], ...]
    replications: int = 10_000
    seed: int = 0
    param: float | None = None

    def __post_init__(self) -> None:
        if len(self.theta) != len(self.group_sizes):
            raise ValueError("theta and group_sizes must have the same length")
        _check_finite("theta", *self.theta)
        _check_scenario(self)
        se = self.standard_errors
        _check_draw_range("theta", self.theta, se, se)

    @property
    def standard_errors(self) -> np.ndarray:
        return _standard_errors(self.group_sizes)

    def _marginal(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Mean and sd of each estimate, and the param a point reports by default."""
        return np.asarray(self.theta), self.standard_errors, float(np.max(np.abs(self.theta)))


@dataclass(frozen=True)
class RandomEffectsScenario:
    """Study effects drawn anew per replication from Normal(mu, tau^2)."""

    mu: float
    tau: float
    n: int
    group_sizes: tuple[tuple[int, int], ...]
    replications: int = 10_000
    seed: int = 0
    param: float | None = None

    def __post_init__(self) -> None:
        _check_finite("mu", self.mu)
        _check_finite("tau", self.tau)
        if self.tau < 0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")
        if self.n != len(self.group_sizes):
            raise ValueError("n must match the number of group-size pairs")
        _check_scenario(self)
        se = self.standard_errors
        _check_draw_range("mu", self.mu, se, se)
        # The marginal sd sqrt(tau^2 + se^2) is at most tau + se. A tau whose
        # square overflows, so that the sd would not be finite, fails here,
        # before ``_marginal`` squares it.
        _check_draw_range("tau", self.mu, self.tau + se, se)

    @property
    def standard_errors(self) -> np.ndarray:
        return _standard_errors(self.group_sizes)

    def _marginal(self) -> tuple[float, np.ndarray, float]:
        """Mean and sd of each estimate, and the param a point reports by default."""
        # theta_i ~ N(mu, tau^2) and the estimate adds N(0, SE_i^2) independently,
        # so the estimate is marginally N(mu, tau^2 + SE_i^2), independent across
        # studies; drawing it directly makes tau=0 reduce bitwise to the fixed
        # generator with a constant effects vector.
        return self.mu, np.sqrt(self.tau**2 + self.standard_errors**2), self.mu


Scenario = FixedEffectsScenario | RandomEffectsScenario


@dataclass(frozen=True)
class PowerCurvePoint:
    """Rejection rates at one grid point, with per-test Monte Carlo standard errors."""

    param: float
    rejection_rate: dict[str, float]
    replications: int
    seed: int

    @property
    def mc_se(self) -> dict[str, float]:
        """sqrt(rate (1 - rate) / replications), the binomial standard error of each rate."""
        return {tid: math.sqrt(r * (1.0 - r) / self.replications) for tid, r in self.rejection_rate.items()}


# Replications are drawn and tested in chunks of at most this many estimates,
# 512 KB per float64 matrix of a chunk. On a 2-vCPU Xeon VM with 2 MB of L2
# cache per core, the median time of a benchmark grid point (five presets at
# 1e5 replications; median of five alternated runs per size) was 92 ms at
# 2^16 elements, 98 ms at 2^17 and 113 ms at 2^18. A point took about 700
# minor page faults at 2^16 and 3,500 at 2^17 and 2^18.
_CHUNK_ELEMENTS = 1 << 16


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _draws(scenario: Scenario) -> Iterator[np.ndarray]:
    """The scenario's estimate matrix, in row chunks of at most ``_CHUNK_ELEMENTS``."""
    mean, sd, _ = scenario._marginal()
    rng = _rng(scenario.seed)
    rows = max(1, _CHUNK_ELEMENTS // len(sd))
    for first in range(0, scenario.replications, rows):
        chunk = min(rows, scenario.replications - first)
        # In place, so that a chunk allocates one matrix rather than three.
        draw = rng.standard_normal((chunk, len(sd)))
        draw *= sd
        draw += mean
        yield draw


def _drawn_ahead(chunks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """The items of ``chunks``, the next one drawn on a worker thread while the
    caller holds the current one.

    numpy's Generator fills release the GIL, so the draw of chunk k+1 runs
    beside the tests of chunk k. The draw itself cannot be split: the
    ziggurat takes a variable number of Philox outputs per normal, so a
    chunk's place in the stream is known only once the chunk before it is
    drawn. One thread advances ``chunks``, one item at a time and in order,
    so the items are those a plain loop gets. Leaving the ``with`` block, on
    exhaustion, on an error or on ``close``, waits for the draw in flight.
    """
    # Imported here, so that importing the package starts no executor machinery.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as worker:
        pending = worker.submit(next, chunks, None)
        while (chunk := pending.result()) is not None:
            pending = worker.submit(next, chunks, None)
            yield chunk


def _pooled_rejections(
    theta_t: np.ndarray,
    se: np.ndarray,
    tests: Sequence[str],
    alpha: float,
    work: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """The requested ones of meta_fe, meta_re and H2n_fe, per column of an (n, rows) matrix.

    Each decides 2 normal_cdf(-z) <= alpha through ``_bracket_rejections``,
    from its pooled z alone outside -ndtri(alpha/2 (1 -+ _LEVEL_MARGIN)): a
    margin on the level holds for every alpha, while ndtri(1 - alpha/2), the
    critical value of the confidence intervals, is inf below alpha = 1.1e-16.
    Inside, each runs ``_normal_cdf_rows`` on its z, as the scalar API does:
    meta_fe and meta_re read the |z| of ``_pool_rows`` (``p_two_sided`` of
    ``fixed_effect_meta`` and ``random_effects_meta``), and H2n_fe the less
    significant direction's max(-z_max, z_min) of ``_fe_z_extremes`` (the r
    of ``fe_r_value(row, 2)``), passing ``work`` on as its work space.
    """
    n = theta_t.shape[0]
    z_reject, z_accept = (-z for z in _level_quantiles(alpha / 2.0))
    decided: dict[str, np.ndarray] = {}

    def two_sided(z: np.ndarray) -> np.ndarray:
        return _bracket_rejections(
            z, z_accept, z_reject, lambda band: 2.0 * _normal_cdf_rows(-z[band]) <= alpha
        )

    if {"meta_fe", "meta_re"} & set(tests):
        pooled = _pool_rows(theta_t, se)
        if "meta_fe" in tests:
            decided["meta_fe"] = two_sided(np.abs(pooled.fe / pooled.fe_se))
        if "meta_re" in tests:
            decided["meta_re"] = two_sided(np.abs(pooled.re / pooled.re_se))
    if "H2n_fe" in tests:
        z_min, z_max = _fe_z_extremes(theta_t, se, n - 1, work)
        decided["H2n_fe"] = two_sided(np.maximum(-z_max, z_min))
    return decided


def _test_error(test_id: str, n: int) -> str | None:
    """Why ``test_id`` is unknown or cannot run on n studies; None when it can."""
    match = _H_TEST.match(test_id)
    if match is None and test_id not in _TEST_IDS:
        return f"unknown test id {test_id!r}"
    if match is not None and not 1 <= int(match.group(1)) <= n:
        return f"test {test_id!r} needs u in [1, {n}]"
    if test_id in ("meta_re", "H2n_fe") and n < 2:
        return f"{test_id} requires at least two studies"
    return None


def _check_tests(tests: Sequence[str], n: int) -> None:
    """Raise ValueError naming the first test id that is unknown or needs more than n studies."""
    for test_id in tests:
        error = _test_error(test_id, n)
        if error is not None:
            raise ValueError(error)


def _runnable(tests: Sequence[str], n: int) -> tuple[str, ...]:
    """The ids of ``tests`` that n studies allow, in order."""
    return tuple(test_id for test_id in tests if _test_error(test_id, n) is None)


def _evaluate_tests(
    theta_hat: np.ndarray, se: np.ndarray, tests: Sequence[str], t: float, alpha: float,
    work: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Boolean rejection indicators per requested test, one per row of ``theta_hat``.

    Every test compares a statistic with a critical value and computes a
    normal tail or a truncated-product p-value only near it. The H-tests and
    inconsistency_detected ask each side's partial-conjunction test at
    threshold t only whether r(u) <= alpha/2, through
    ``_directional_rejections``. That is the whole decision: doubling is
    exact, so min(1, 2 min(a, b)) <= alpha exactly when a <= alpha/2 or b <=
    alpha/2. The pooled tests and H2n_fe are decided through
    ``_pooled_rejections``, which compares a z with the critical value and
    runs the normal tail only on rows near it.

    The test ids must have passed ``_check_tests``. ``work``, a vector of at
    least ``_work_size(theta_hat, tests)`` elements, holds the chunk's work
    matrices, so that a loop over chunks allocates none: a fresh matrix of a
    chunk's size costs more in page faults than the arithmetic done on it.
    One is allocated when it is None.
    """
    if not tests:
        return {}
    n = theta_hat.shape[1]
    # The u of each H{u}n id.
    us = {m.group(0): int(m.group(1)) for m in map(_H_TEST.match, tests) if m is not None}
    levels = set(us.values())
    if "inconsistency_detected" in tests:
        levels.add(1)
    size = theta_hat.size
    if work is None:
        work = np.empty(_work_size(theta_hat, tests))
    # (n, rows), so that each study is one contiguous row. It becomes the
    # H-tests' z matrix in place once the pooled tests are done with it.
    theta_t = work[:size].reshape(n, -1)
    np.copyto(theta_t, theta_hat.T)
    # The rest of ``work`` is H2n_fe's until the H-tests need it.
    decided = _pooled_rejections(theta_t, se, tests, alpha, work[size:])
    if levels:
        theta_t /= se[:, None]
        left, right = _directional_rejections(theta_t, t, levels, alpha / 2.0, work[size:])
        for test_id, u in us.items():
            decided[test_id] = left[u] | right[u]
        if "inconsistency_detected" in tests:
            decided["inconsistency_detected"] = left[1] & right[1]
    return {test_id: decided[test_id] for test_id in tests}


def _work_size(theta_hat: np.ndarray, tests: Sequence[str]) -> int:
    """Elements of ``_evaluate_tests``'s work vector: the (n, rows) matrix,
    then the larger of the H-tests' ``_directional_work_size`` and H2n_fe's
    ``_fe_work_size``, of those that run."""
    rows, n = theta_hat.shape
    rest = 0
    if "inconsistency_detected" in tests or any(map(_H_TEST.match, tests)):
        rest = _directional_work_size(theta_hat.size)
    if "H2n_fe" in tests:
        rest = max(rest, _fe_work_size(n, rows, n - 1))
    return theta_hat.size + rest


def _simulate(
    scenario: Scenario, t: float, alpha: float, tests: Sequence[str] | None
) -> PowerCurvePoint:
    """The scenario's point at threshold t, its chunks tested as they are drawn.

    While a chunk is tested on the calling thread, ``_drawn_ahead`` draws the
    next one on a worker thread. Only the draws run there, in stream order,
    so they are the bytes a plain loop draws, and the rejection counts are
    whole numbers, so no point depends on the overlap. The tests stay on the
    calling thread, under its ``np.errstate``.

    With ``tests`` None, the ids of ``DEFAULT_TESTS`` that the studies allow run.
    """
    _check_t(t)
    _check_alpha(alpha)
    se = scenario.standard_errors
    if tests is None:
        tests = _runnable(DEFAULT_TESTS, len(se))
    _check_tests(tests, len(se))
    counts = dict.fromkeys(tests, 0)
    work = None
    with contextlib.closing(_drawn_ahead(_draws(scenario))) as chunks:
        for theta_hat in chunks:
            if work is None and tests:  # the first chunk is the largest
                work = np.empty(_work_size(theta_hat, tests))
            for test_id, rejected in _evaluate_tests(theta_hat, se, tests, t, alpha, work).items():
                counts[test_id] += int(np.count_nonzero(rejected))
    _, _, default_param = scenario._marginal()
    param = scenario.param if scenario.param is not None else default_param
    replications = scenario.replications
    rates = {tid: c / replications for tid, c in counts.items()}
    return PowerCurvePoint(param, rates, replications, scenario.seed)


def simulate_fixed(
    scenario: FixedEffectsScenario,
    tests: Sequence[str] | None = None,
    t: float = 0.05,
    alpha: float = 0.05,
) -> PowerCurvePoint:
    """Rejection rates under a fixed effects vector; ``tests`` defaults to the
    ``DEFAULT_TESTS`` ids that the number of studies allows."""
    return _simulate(scenario, t, alpha, tests)


def simulate_random(
    scenario: RandomEffectsScenario,
    tests: Sequence[str] | None = None,
    t: float = 0.05,
    alpha: float = 0.05,
) -> PowerCurvePoint:
    """Rejection rates when study effects are redrawn per replication; ``tests``
    defaults to the ``DEFAULT_TESTS`` ids that the number of studies allows."""
    return _simulate(scenario, t, alpha, tests)


def inconsistency_probability(mu: float, tau: float, n: int) -> float:
    """Probability that effects drawn from Normal(mu, tau^2) have mixed signs.

    Closed form: 1 - Phi(mu/tau)^n - (1 - Phi(mu/tau))^n.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    phi = normal_cdf(mu / tau)
    return 1.0 - phi**n - (1.0 - phi) ** n


def truncation_comparison(
    scenario_grid: Sequence[Scenario],
    t_values: Sequence[float] = (0.05, 0.5, 1.0),
    tests: Sequence[str] | None = None,
    alpha: float = 0.05,
) -> dict[float, list[PowerCurvePoint]]:
    """Power curves for several truncation thresholds on common random numbers.

    Each threshold's point of a scenario is drawn from the scenario's own
    seed, so curves differ only through the test, not the noise. By default
    the t-dependent tests (H1n-H3n, inconsistency_detected) that n allows run.
    Every threshold is checked before anything is drawn.
    """
    t_values = [_check_t(float(t)) for t in t_values]
    for i, t in enumerate(t_values):
        if t in t_values[:i]:
            raise ValueError(f"truncation threshold {t} is repeated in t_values")
    grid = [
        (s, _runnable(_T_DEPENDENT_TESTS, len(s.group_sizes)) if tests is None else tests)
        for s in scenario_grid
    ]
    return {t: [_simulate(s, t, alpha, s_tests) for s, s_tests in grid] for t in t_values}


# calibrate_tau's bisection stops once its tau bracket is narrower than this.
_TAU_TOL = 0.002
# calibrate_tau takes the median I-squared over this many replications.
_TAU_REPLICATIONS = 2000


def calibrate_tau(target_i_squared: float, seed: int = 0) -> float:
    """Find tau so the median estimated heterogeneity fraction hits a target.

    The studies are those of ``BENCHMARK_GROUP_SIZES``. The median I-squared
    across simulated replications is monotone in tau, so a bisection over
    tau converges; the heterogeneity of the generating process itself is not
    published by the estimator, hence the search. The effects are drawn
    around zero: I-squared does not change when every estimate shifts by the
    same amount, so the mean effect plays no part.
    """
    if not 0.0 < target_i_squared < 1.0:
        raise ValueError("target_i_squared must be in (0, 1)")
    _check_seed(seed)
    se = _standard_errors(BENCHMARK_GROUP_SIZES)
    # (n, replications), one study a row, as ``_pool_rows`` takes it.
    noise = _rng(seed).standard_normal((_TAU_REPLICATIONS, len(se))).T.copy()

    def median_i2(tau: float) -> float:
        theta_t = noise * np.sqrt(tau**2 + se**2)[:, None]
        return float(np.median(_pool_rows(theta_t, se).i_squared))

    lo, hi = 0.0, 10.0 * float(se.max())
    if median_i2(hi) < target_i_squared:
        raise ValueError("target heterogeneity unreachable within the search bracket")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if median_i2(mid) < target_i_squared:
            lo = mid
        else:
            hi = mid
        if hi - lo < _TAU_TOL:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Scenario presets
# ---------------------------------------------------------------------------

_STRENGTH_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
_MIXED_GRID = (0.0, 0.3, 0.6, 0.9, 1.2, 1.5)
_RE_MU_GRID = (0.0, 0.3, 0.6, 0.9)


class _Preset(NamedTuple):
    """A named scenario family: ``build(replications, seed)`` gives its points
    and tests, and ``seed + seed_offset`` is the largest seed it derives."""

    build: Callable[[int, int], tuple[list, tuple[str, ...]]]
    seed_offset: int


def _fixed_preset(
    theta: Callable[[float], tuple[float, ...]],
    grid: Sequence[float],
    tests: tuple[str, ...],
    group_sizes: Callable[[float], tuple[tuple[int, int], ...]] = lambda m: BENCHMARK_GROUP_SIZES,
) -> _Preset:
    """A preset of fixed-effects points: point i of ``grid``, m, has effects
    theta(m), group sizes group_sizes(m), seed ``seed + i`` and param float(m)."""

    def build(replications: int, seed: int):
        scenarios = [
            FixedEffectsScenario(
                theta=theta(m),
                group_sizes=group_sizes(m),
                replications=replications,
                seed=seed + i,
                param=float(m),
            )
            for i, m in enumerate(grid)
        ]
        return scenarios, tests

    return _Preset(build, len(grid) - 1)


# A random-effects preset calibrates tau on its own stream, seed + this.
_TAU_SEED_OFFSET = 901


def _preset_re(target_i_squared: float) -> _Preset:
    def build(replications: int, seed: int):
        tau = calibrate_tau(target_i_squared, seed=seed + _TAU_SEED_OFFSET)
        scenarios = [
            RandomEffectsScenario(
                mu=m,
                tau=tau,
                n=8,
                group_sizes=BENCHMARK_GROUP_SIZES,
                replications=replications,
                seed=seed + i,
                param=m,
            )
            for i, m in enumerate(_RE_MU_GRID)
        ]
        return scenarios, ("meta_re", "H1n", "H2n", "H3n", "inconsistency_detected")

    return _Preset(build, max(_TAU_SEED_OFFSET, len(_RE_MU_GRID) - 1))


_PRESETS: dict[str, _Preset] = {
    "single-nonnull": _fixed_preset(lambda m: (m,) + (0.0,) * 7, _STRENGTH_GRID, DEFAULT_TESTS),
    "two-same-sign": _fixed_preset(lambda m: (m, m) + (0.0,) * 6, _STRENGTH_GRID, DEFAULT_TESTS),
    "mixed-signs": _fixed_preset(lambda m: (m, m, -m) + (0.0,) * 5, _MIXED_GRID, DEFAULT_TESTS),
    # k = 0..8 of the eight studies share the effect.
    **{
        f"common-effect-{effect}": _fixed_preset(
            lambda k, e=float(effect): (e,) * k + (0.0,) * (8 - k), range(9), ("meta_re", "H2n")
        )
        for effect in (1, 2, 3)
    },
    # One study with the effect among n equally sized ones.
    **{
        name: _fixed_preset(
            lambda n, e=effect: (e,) + (0.0,) * (n - 1),
            (4, 8, 16),
            ("meta_fe", "H2n_fe"),
            lambda n: ((25, 25),) * n,
        )
        for name, effect in (("single-among-n", 2.0), ("single-among-n-weak", 1.0))
    },
    "re-high-het": _preset_re(0.70),
    "re-moderate-het": _preset_re(0.50),
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def preset(name: str, replications: int = 10_000, seed: int = 0):
    """Scenario grid and default test set for a named scenario family.

    Its points take seeds from ``seed`` up, so every seed it derives is
    checked before anything is built.
    """
    try:
        build, offset = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario preset {name!r}; available: {', '.join(_PRESETS)}"
        ) from None
    largest = 2**128 - 1 - offset
    if _check_seed(seed) > largest:
        raise ValueError(
            f"preset {name!r} derives seeds up to seed + {offset}, so its seed must be "
            f"at most {largest}, got {seed}"
        )
    return build(replications, seed)


# ---------------------------------------------------------------------------
# Plain-text scenario configs and CSV output
# ---------------------------------------------------------------------------


def _number(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"expected a number, got {token!r}") from None


def _integer(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"expected an integer, got {token!r}") from None


def _group_size(token: str) -> int:
    value = _number(token)
    if not value.is_integer():
        raise ValueError(f"expected a whole number of participants, got {token!r}")
    return int(value)


def parse_scenario_config(
    source: str | TextIO,
) -> tuple[Scenario, tuple[str, ...], float]:
    """Read a key = value scenario file.

    Recognized keys: ``theta`` (whitespace/comma separated vector, fixed
    scenarios), ``mu`` and ``tau`` (random scenarios), ``nc`` and ``nt``
    (control/treatment group sizes), ``replications``, ``seed``, ``t``,
    ``tests`` (whitespace separated ids), ``param``. Lines starting with ``#``
    are comments. Without ``tests``, the ids of ``DEFAULT_TESTS`` that n
    studies allow are run. Returns (scenario, tests, truncation threshold). A
    value that does not parse, or a seed outside [0, 2**128), raises
    ValueError naming its key and line; a key set twice names both lines.
    """
    if isinstance(source, str):
        # utf-8-sig drops the byte-order mark that Excel and some editors write.
        with open(source, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    else:
        text = source.read()

    values: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in values:
            raise ValueError(
                f"config line {lineno}: {key!r} is already set on line {values[key][0]}"
            )
        values[key] = (lineno, value.strip())

    def read(key: str, convert: Callable[[str], object], default: object = None):
        if key not in values:
            return default
        lineno, text = values[key]
        try:
            return convert(text)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from None

    def vector(convert: Callable[[str], object]) -> Callable[[str], tuple]:
        return lambda text: tuple(convert(tok) for tok in text.replace(",", " ").split())

    for required in ("nc", "nt"):
        if required not in values:
            raise ValueError(f"config is missing required key {required!r}")
    nc = read("nc", vector(_group_size))
    nt = read("nt", vector(_group_size))
    if len(nc) != len(nt):
        raise ValueError("nc and nt must list the same number of studies")
    group_sizes = tuple(zip(nc, nt))
    n = len(group_sizes)
    replications = read("replications", _integer, 10_000)
    seed = read("seed", lambda text: _check_seed(_integer(text)), 0)
    t = read("t", lambda text: _check_t(_number(text)), 0.05)
    param = read("param", _number)

    def test_ids(text: str) -> tuple[str, ...]:
        ids = vector(str)(text)
        if not ids:
            raise ValueError("expected at least one test id")
        _check_tests(ids, n)
        return ids

    tests = read("tests", test_ids, _runnable(DEFAULT_TESTS, n))

    if "theta" in values:
        if "mu" in values or "tau" in values:
            raise ValueError("give either theta (fixed) or mu/tau (random), not both")
        scenario: Scenario = FixedEffectsScenario(
            theta=read("theta", vector(_number)),
            group_sizes=group_sizes,
            replications=replications,
            seed=seed,
            param=param,
        )
    elif "mu" in values and "tau" in values:
        scenario = RandomEffectsScenario(
            mu=read("mu", _number),
            tau=read("tau", _number),
            n=len(group_sizes),
            group_sizes=group_sizes,
            replications=replications,
            seed=seed,
            param=param,
        )
    else:
        raise ValueError("config must define either theta or both mu and tau")
    return scenario, tests, t


def write_power_csv(points: Sequence[PowerCurvePoint], sink: TextIO) -> None:
    """One CSV row per grid point per test: param,test,rate,mc_se,replications,seed."""
    sink.write("param,test,rate,mc_se,replications,seed\n")
    for point in points:
        mc_se = point.mc_se
        for test_id, rate in point.rejection_rate.items():
            sink.write(
                f"{point.param!r},{test_id},{rate!r},{mc_se[test_id]!r},"
                f"{point.replications},{point.seed}\n"
            )


def run_points(
    scenarios: Sequence[Scenario],
    tests: Sequence[str],
    t: float = 0.05,
    alpha: float = 0.05,
) -> list[PowerCurvePoint]:
    """Evaluate each scenario of a grid with the same tests, t and alpha.

    Each point goes through its public entry point, ``simulate_fixed`` or
    ``simulate_random``, so that wrapping either one sees every grid point.
    """
    return [
        (simulate_fixed if isinstance(scenario, FixedEffectsScenario) else simulate_random)(
            scenario, tests, t, alpha
        )
        for scenario in scenarios
    ]
