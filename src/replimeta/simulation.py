"""Monte Carlo power harness for the replicability and meta-analysis tests.

Scenarios describe how study effect estimates are generated; the harness draws
all replications as one matrix, evaluates the requested tests on every row,
and reports rejection rates with their Monte Carlo standard errors.

Randomness scheme: each scenario owns a counter-based Philox stream keyed by
its seed, and all replications are drawn in one replication-major block from
that stream. Grid builders give point i the seed ``base_seed + i``. Results
are therefore bit-reproducible for a given seed and independent of any later
chunking of the work.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, TextIO

import numpy as np

from scipy import special

from .meta import _pool_rows
from .replicability import TruncationConfig, _fe_z_extremes, _PCCurve

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


def _standard_errors(group_sizes: Sequence[tuple[int, int]]) -> np.ndarray:
    sizes = np.asarray(group_sizes, dtype=float)
    return np.sqrt(1.0 / sizes[:, 0] + 1.0 / sizes[:, 1])


def _check_finite(name: str, *values: float | None) -> None:
    if not all(v is None or math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite, got {', '.join(map(repr, values))}")


def _check_group_sizes(group_sizes: Sequence[tuple[int, int]]) -> None:
    for pair in group_sizes:
        if len(pair) != 2 or pair[0] <= 0 or pair[1] <= 0:
            raise ValueError(f"group sizes must be positive (control, treatment) pairs, got {pair}")


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
        if not self.theta:
            raise ValueError("at least one study is required")
        _check_finite("theta", *self.theta)
        _check_finite("param", self.param)
        _check_group_sizes(self.group_sizes)
        if self.replications < 1:
            raise ValueError("replications must be at least 1")

    @property
    def standard_errors(self) -> np.ndarray:
        return _standard_errors(self.group_sizes)


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
        _check_finite("param", self.param)
        if self.tau < 0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")
        if self.n != len(self.group_sizes):
            raise ValueError("n must match the number of group-size pairs")
        if self.n < 1:
            raise ValueError("at least one study is required")
        _check_group_sizes(self.group_sizes)
        if self.replications < 1:
            raise ValueError("replications must be at least 1")

    @property
    def standard_errors(self) -> np.ndarray:
        return _standard_errors(self.group_sizes)


@dataclass(frozen=True)
class PowerCurvePoint:
    """Rejection rates at one grid point, with per-test Monte Carlo standard errors."""

    param: float
    rejection_rate: dict[str, float]
    mc_se: dict[str, float]
    replications: int
    seed: int


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _draw_fixed(scenario: FixedEffectsScenario) -> np.ndarray:
    se = scenario.standard_errors
    noise = _rng(scenario.seed).standard_normal((scenario.replications, len(scenario.theta)))
    return np.asarray(scenario.theta) + noise * se


def _draw_random(scenario: RandomEffectsScenario) -> np.ndarray:
    # theta_i ~ N(mu, tau^2) and the estimate adds N(0, SE_i^2) independently,
    # so the estimate is marginally N(mu, tau^2 + SE_i^2), independent across
    # studies; drawing it directly makes tau=0 reduce bitwise to the fixed
    # generator with a constant effects vector.
    se_eff = np.sqrt(scenario.tau**2 + scenario.standard_errors**2)
    noise = _rng(scenario.seed).standard_normal((scenario.replications, scenario.n))
    return scenario.mu + noise * se_eff


def _two_sided_p(estimate: np.ndarray, se: np.ndarray) -> np.ndarray:
    return 2.0 * special.ndtr(-np.abs(estimate / se))


def _curve_values(p_rows: np.ndarray, levels: set[int], t: float) -> dict[int, np.ndarray]:
    # The curve, and with it the side's sorted matrix, is freed on return.
    curve = _PCCurve(p_rows, t)
    return {u: curve(u) for u in levels}


def _evaluate_tests(
    theta_hat: np.ndarray,
    se: np.ndarray,
    tests: Sequence[str],
    cfg: TruncationConfig,
) -> dict[str, np.ndarray]:
    """Boolean rejection indicators per requested test, one entry per replication.

    The H-tests and inconsistency_detected read one partial-conjunction curve
    per side, at every u any of them needs. The left side is finished before
    the right side is sorted, so one side's sorted matrix is alive at a time.
    """
    n = theta_hat.shape[1]
    alpha = cfg.alpha
    levels = {int(m.group(1)) for m in map(_H_TEST.match, tests) if m is not None}
    levels = {u for u in levels if 1 <= u <= n}
    if "inconsistency_detected" in tests:
        levels.add(1)
    r_left: dict[int, np.ndarray] = {}
    r_right: dict[int, np.ndarray] = {}
    if levels:
        z = theta_hat / se[None, :]
        r_left = _curve_values(special.ndtr(z), levels, cfg.t)
        r_right = _curve_values(special.ndtr(-z), levels, cfg.t)
    pooled = _pool_rows(theta_hat, se) if {"meta_fe", "meta_re"} & set(tests) else None
    out: dict[str, np.ndarray] = {}
    for test_id in tests:
        if test_id == "meta_fe":
            out[test_id] = _two_sided_p(pooled.fe, pooled.fe_se) <= alpha
        elif test_id == "meta_re":
            if n < 2:
                raise ValueError("meta_re requires at least two studies")
            out[test_id] = _two_sided_p(pooled.re, pooled.re_se) <= alpha
        elif test_id == "H2n_fe":
            if n < 2:
                raise ValueError("H2n_fe requires at least two studies")
            # The (n-1)-subsets of the common-effect test at u = 2.
            z_min, z_max = _fe_z_extremes(theta_hat, se, n - 1)
            r_fe = np.minimum(1.0, 2.0 * np.minimum(special.ndtr(z_max), special.ndtr(-z_min)))
            out[test_id] = r_fe <= alpha
        elif test_id == "inconsistency_detected":
            out[test_id] = (r_left[1] <= alpha / 2.0) & (r_right[1] <= alpha / 2.0)
        else:
            match = _H_TEST.match(test_id)
            if match is None:
                raise ValueError(f"unknown test id {test_id!r}")
            u = int(match.group(1))
            if not 1 <= u <= n:
                raise ValueError(f"test {test_id!r} needs u in [1, {n}]")
            out[test_id] = np.minimum(1.0, 2.0 * np.minimum(r_left[u], r_right[u])) <= alpha
    return out


def _summarize(
    indicators: Mapping[str, np.ndarray], param: float, replications: int, seed: int
) -> PowerCurvePoint:
    rates = {tid: float(ind.mean()) for tid, ind in indicators.items()}
    mc_se = {tid: math.sqrt(r * (1.0 - r) / replications) for tid, r in rates.items()}
    return PowerCurvePoint(
        param=param, rejection_rate=rates, mc_se=mc_se, replications=replications, seed=seed
    )


DEFAULT_TESTS = ("meta_fe", "meta_re", "H1n", "H2n", "H3n", "inconsistency_detected")


def simulate_fixed(
    scenario: FixedEffectsScenario,
    tests: Sequence[str] = DEFAULT_TESTS,
    cfg: TruncationConfig = TruncationConfig(),
) -> PowerCurvePoint:
    """Rejection rates of the requested tests under a fixed effects vector."""
    theta_hat = _draw_fixed(scenario)
    indicators = _evaluate_tests(theta_hat, scenario.standard_errors, tests, cfg)
    param = scenario.param if scenario.param is not None else float(np.max(np.abs(scenario.theta)))
    return _summarize(indicators, param, scenario.replications, scenario.seed)


def simulate_random(
    scenario: RandomEffectsScenario,
    tests: Sequence[str] = DEFAULT_TESTS,
    cfg: TruncationConfig = TruncationConfig(),
) -> PowerCurvePoint:
    """Rejection rates when study effects are redrawn per replication."""
    theta_hat = _draw_random(scenario)
    indicators = _evaluate_tests(theta_hat, scenario.standard_errors, tests, cfg)
    param = scenario.param if scenario.param is not None else scenario.mu
    return _summarize(indicators, param, scenario.replications, scenario.seed)


def inconsistency_probability(mu: float, tau: float, n: int) -> float:
    """Probability that effects drawn from Normal(mu, tau^2) have mixed signs.

    Closed form: 1 - Phi(mu/tau)^n - (1 - Phi(mu/tau))^n.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    phi = 0.5 * math.erfc(-(mu / tau) / math.sqrt(2.0))
    return 1.0 - phi**n - (1.0 - phi) ** n


def truncation_comparison(
    scenario_grid: Sequence[FixedEffectsScenario | RandomEffectsScenario],
    t_values: Sequence[float] = (0.05, 0.5, 1.0),
    tests: Sequence[str] = ("H1n", "H2n", "H3n", "inconsistency_detected"),
    alpha: float = 0.05,
) -> dict[float, list[PowerCurvePoint]]:
    """Power curves for several truncation thresholds on common random numbers.

    The estimate matrix of each grid point is drawn once and reused for every
    threshold, so curves differ only through the test, not the noise.
    """
    results: dict[float, list[PowerCurvePoint]] = {float(t): [] for t in t_values}
    for scenario in scenario_grid:
        if isinstance(scenario, FixedEffectsScenario):
            theta_hat = _draw_fixed(scenario)
            default_param = float(np.max(np.abs(scenario.theta)))
        else:
            theta_hat = _draw_random(scenario)
            default_param = scenario.mu
        param = scenario.param if scenario.param is not None else default_param
        for t in t_values:
            cfg = TruncationConfig(t=float(t), alpha=alpha)
            indicators = _evaluate_tests(theta_hat, scenario.standard_errors, tests, cfg)
            results[float(t)].append(
                _summarize(indicators, param, scenario.replications, scenario.seed)
            )
    return results


def calibrate_tau(
    target_i_squared: float,
    mu: float = 0.0,
    group_sizes: Sequence[tuple[int, int]] = BENCHMARK_GROUP_SIZES,
    replications: int = 2000,
    seed: int = 0,
    tol: float = 0.002,
) -> float:
    """Find tau so the median estimated heterogeneity fraction hits a target.

    The median I-squared across simulated replications is monotone in tau, so
    a bisection over tau converges; the heterogeneity of the generating
    process itself is not published by the estimator, hence the search.
    """
    if not 0.0 < target_i_squared < 1.0:
        raise ValueError("target_i_squared must be in (0, 1)")
    se = _standard_errors(group_sizes)
    n = len(se)
    if n < 2:
        raise ValueError("calibration requires at least two studies")
    noise = _rng(seed).standard_normal((replications, n))

    def median_i2(tau: float) -> float:
        theta_hat = mu + noise * np.sqrt(tau**2 + se**2)
        return float(np.median(_pool_rows(theta_hat, se).i_squared))

    lo, hi = 0.0, 10.0 * float(se.max())
    if median_i2(hi) < target_i_squared:
        raise ValueError("target heterogeneity unreachable within the search bracket")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if median_i2(mid) < target_i_squared:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Scenario presets
# ---------------------------------------------------------------------------

_STRENGTH_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
_MIXED_GRID = (0.0, 0.3, 0.6, 0.9, 1.2, 1.5)
_RE_MU_GRID = (0.0, 0.3, 0.6, 0.9)


def _fixed_grid(
    pattern: Callable[[float], tuple[float, ...]],
    grid: Sequence[float],
    replications: int,
    seed: int,
) -> list[FixedEffectsScenario]:
    return [
        FixedEffectsScenario(
            theta=pattern(m),
            group_sizes=BENCHMARK_GROUP_SIZES,
            replications=replications,
            seed=seed + i,
            param=m,
        )
        for i, m in enumerate(grid)
    ]


def _preset_single_nonnull(replications: int, seed: int):
    pattern = lambda m: (m,) + (0.0,) * 7
    return _fixed_grid(pattern, _STRENGTH_GRID, replications, seed), DEFAULT_TESTS


def _preset_two_same_sign(replications: int, seed: int):
    pattern = lambda m: (m, m) + (0.0,) * 6
    return _fixed_grid(pattern, _STRENGTH_GRID, replications, seed), DEFAULT_TESTS


def _preset_mixed_signs(replications: int, seed: int):
    pattern = lambda m: (m, m, -m) + (0.0,) * 5
    return _fixed_grid(pattern, _MIXED_GRID, replications, seed), DEFAULT_TESTS


def _preset_common_effect(effect: float):
    def build(replications: int, seed: int):
        scenarios = [
            FixedEffectsScenario(
                theta=(effect,) * k + (0.0,) * (8 - k),
                group_sizes=BENCHMARK_GROUP_SIZES,
                replications=replications,
                seed=seed + k,
                param=float(k),
            )
            for k in range(9)
        ]
        return scenarios, ("meta_re", "H2n")

    return build


def _preset_single_among_n(effect: float):
    def build(replications: int, seed: int):
        scenarios = [
            FixedEffectsScenario(
                theta=(effect,) + (0.0,) * (n - 1),
                group_sizes=((25, 25),) * n,
                replications=replications,
                seed=seed + i,
                param=float(n),
            )
            for i, n in enumerate((4, 8, 16))
        ]
        return scenarios, ("meta_fe", "H2n_fe")

    return build


def _preset_re(target_i_squared: float):
    def build(replications: int, seed: int):
        tau = calibrate_tau(target_i_squared, seed=seed + 901)
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

    return build


_PRESETS: dict[str, Callable[[int, int], tuple[list, tuple[str, ...]]]] = {
    "single-nonnull": _preset_single_nonnull,
    "two-same-sign": _preset_two_same_sign,
    "mixed-signs": _preset_mixed_signs,
    "common-effect-1": _preset_common_effect(1.0),
    "common-effect-2": _preset_common_effect(2.0),
    "common-effect-3": _preset_common_effect(3.0),
    "single-among-n": _preset_single_among_n(2.0),
    "single-among-n-weak": _preset_single_among_n(1.0),
    "re-high-het": _preset_re(0.70),
    "re-moderate-het": _preset_re(0.50),
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def preset(name: str, replications: int = 10_000, seed: int = 0):
    """Scenario grid and default test set for a named scenario family."""
    try:
        build = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario preset {name!r}; available: {', '.join(_PRESETS)}"
        ) from None
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
) -> tuple[FixedEffectsScenario | RandomEffectsScenario, tuple[str, ...], float]:
    """Read a key = value scenario file.

    Recognized keys: ``theta`` (whitespace/comma separated vector, fixed
    scenarios), ``mu`` and ``tau`` (random scenarios), ``nc`` and ``nt``
    (control/treatment group sizes), ``replications``, ``seed``, ``t``,
    ``tests`` (whitespace separated ids), ``param``. Lines starting with ``#``
    are comments. Returns (scenario, tests, truncation threshold). A value
    that does not parse raises ValueError naming its key and line.
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
        values[key.strip().lower()] = (lineno, value.strip())

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
    replications = read("replications", _integer, 10_000)
    seed = read("seed", _integer, 0)
    t = read("t", _number, 0.05)
    param = read("param", _number)
    tests = read("tests", vector(str), DEFAULT_TESTS)

    if "theta" in values:
        if "mu" in values or "tau" in values:
            raise ValueError("give either theta (fixed) or mu/tau (random), not both")
        scenario: FixedEffectsScenario | RandomEffectsScenario = FixedEffectsScenario(
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


def write_power_csv(points: Sequence[PowerCurvePoint], sink: str | TextIO) -> None:
    """One CSV row per grid point per test: param,test,rate,mc_se,replications,seed."""
    buffer = io.StringIO()
    buffer.write("param,test,rate,mc_se,replications,seed\n")
    for point in points:
        for test_id, rate in point.rejection_rate.items():
            buffer.write(
                f"{point.param!r},{test_id},{rate!r},{point.mc_se[test_id]!r},"
                f"{point.replications},{point.seed}\n"
            )
    payload = buffer.getvalue()
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    else:
        sink.write(payload)


def run_points(
    scenarios: Sequence[FixedEffectsScenario | RandomEffectsScenario],
    tests: Sequence[str],
    cfg: TruncationConfig = TruncationConfig(),
) -> list[PowerCurvePoint]:
    """Evaluate each scenario of a grid with the same tests and config."""
    points = []
    for scenario in scenarios:
        if isinstance(scenario, FixedEffectsScenario):
            points.append(simulate_fixed(scenario, tests, cfg))
        else:
            points.append(simulate_random(scenario, tests, cfg))
    return points
