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

Decision rule: each test compares a statistic with its critical value
(``_bracket_rejections``) and computes the scalar API's exact p-value only
for the rows near it, so every decision is the scalar API's. The H-tests'
statistics come from a tabulated log normal tail (``_directional_rejections``),
the pooled tests' from ``_pooled_rejections``. The exact row kernels,
``_PCCurve``, ``_product_tail``, ``_fe_z_extremes`` and the row-wise normal
tail ``_normal_cdf_rows``, are ``replicability``'s; the scalar API reads the
same normal tail for its lists of studies.

The harness imports no scipy itself. Its normal quantiles are the package's one
quantile, ``statkernels._ndtri`` (scipy's ndtri, bit for bit), its table's
nodes come from ``normal_cdf`` (``_log_normal_cdf``), and its critical values
and the exact band of the H-tests read a log-space truncated-product tail
(``_log_product_tail``). The caches keyed by a level or a threshold keep at
most ``meta._LEVEL_CACHE_SIZE`` entries each.
Only a band row whose tail lies within ``_EXACT_BAND`` of the level, or
whose statistic is NaN, runs the scalar API's ``_product_tail``
(``_curve_rejections``), which loads scipy only past 20 studies.
"""

from __future__ import annotations

import contextlib
import math
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Collection, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .meta import _LEVEL_CACHE_SIZE, StudySummary, _check_alpha, _overflow_index, _pool_rows
from .replicability import (
    _PCCurve,
    _check_t,
    _fe_work_size,
    _fe_z_extremes,
    _normal_cdf_rows,
    _product_tail,
    _tail_arrays,
    _TailArrays,
)
from .statkernels import LOG_CEIL, LOG_FLOOR, _ndtri, _normal_tail, normal_cdf

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


def _check_int(name: str, value: int) -> int:
    """The value, once it is an int and not a bool; a float or True would pass
    the range checks and be read as another count or Philox key."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _check_seed(seed: int) -> int:
    """The seed, once it is a valid Philox key."""
    if not 0 <= _check_int("seed", seed) < 2**128:
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
    if _check_int("replications", scenario.replications) < 1:
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


# A relative margin for decisions made on a rounded tail function: a row is
# decided without the exact computation only when it is beyond a bracket
# widened by this much. It sits on the level p of the normal quantiles of
# ``_level_quantiles``, since normal_cdf(_ndtri(p)) was within 5.8e-13 of p,
# relative, over 1,208,000 p from 1e-300 to 1 - 1e-6; a margin on p rather
# than on z also holds near p = 1, where the normal tail is flat and a fixed
# margin on z would have to grow without bound. On the critical statistic c
# of ``_critical_bracket``, whose edges the log-space tail already places on
# the right side of the level, it is a further margin for the tabulated sums.
_LEVEL_MARGIN = 1e-6


# eta, a relative margin on the level for the decisions made on the
# log-space tail K of ``_log_product_tail``: a row is decided on K only
# where K lies beyond level (1 -+ _EXACT_BAND), and the rest run
# ``_product_tail``. Against mpmath at 40 digits, K was within 1.9e-13,
# relative, over lengths 1-64 and 200, t from 1e-3 to 1 and tails down to
# 1e-300, and ``_product_tail`` within 1.5e-13 where its tail exceeds
# 1e-290; K and ``_product_tail`` were within 2.1e-13 of each other over
# the same grid. So where K is 1e-9 from the level, both are on the same
# side of it.
_EXACT_BAND = 1e-9
# Below this level the log-space tail decides nothing. ``_product_tail``'s
# gamma tails flush to 0 below about 1e-308 (an error of up to 1.2e-308 was
# measured there against mpmath), which is far below _EXACT_BAND times this.
_SMALLEST_BAND_LEVEL = 1e-290


@lru_cache(maxsize=_LEVEL_CACHE_SIZE)
def _level_quantiles(p: float) -> tuple[float, float]:
    """ndtri(p (1 - _LEVEL_MARGIN)) and ndtri(p (1 + _LEVEL_MARGIN))."""
    return _ndtri(p * (1.0 - _LEVEL_MARGIN)), _ndtri(p * (1.0 + _LEVEL_MARGIN))


def _bracket_rejections(
    x: np.ndarray,
    lower: np.ndarray | float,
    upper: np.ndarray | float,
    exact: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Per entry of x: True above ``upper``, False below ``lower``, ``exact(band)`` otherwise.

    ``lower`` and ``upper`` are scalars or one value per entry. The band is
    every entry that is neither, NaN included, and ``exact`` returns the
    decisions of the entries whose indices it is given.
    """
    rejected = x > upper
    decided = x < lower
    decided |= rejected
    band = np.flatnonzero(~decided)
    if band.size:
        rejected[band] = exact(band)
    return rejected


# The log-space tail works on blocks of at most this many Poisson terms.
_POISSON_BLOCK = 1 << 16
# No exp in the log-space tail takes an argument below this, so none
# underflows; exp(-708) is below 2^-1021, and a term of that size vanishes
# next to the term of 1 that each normalised sum holds.
_LOG_NEGLIGIBLE = -708.0


def _log_poisson_cdf(x: np.ndarray, first: int, arrays: _TailArrays) -> np.ndarray:
    """log Q(k, x) = log(e^-x sum_{j<k} x^j / j!) for a (rows, ks) block of x.

    The block's columns are the ks of ``arrays`` from index ``first`` on.
    Each sum is taken relative to a bound on its largest term, the term j =
    k - 1 where x >= k - 1 and x itself otherwise (x^j / j! <= e^x), so
    nothing overflows or underflows; an x of 0 gives log Q = 0.
    """
    ks = arrays.ks[first : first + x.shape[1]]
    j = arrays.ks[: int(ks[-1])] - 1.0
    log_x = np.log(np.maximum(x, sys.float_info.min))
    bound = np.where(x >= ks - 1.0, (ks - 1.0) * log_x - arrays.log_factorials[first : first + ks.size], x)
    terms = np.multiply.outer(log_x, j)
    terms += np.where(j >= ks[:, None], -math.inf, -arrays.log_factorials[: j.size])
    terms -= bound[..., None]
    np.maximum(terms, _LOG_NEGLIGIBLE, out=terms)
    sums = np.exp(terms, out=terms).reshape(-1, j.size) @ np.ones(j.size)
    return np.log(sums, out=sums).reshape(x.shape) + bound - x


def _log_product_tail(c_stat: np.ndarray, length: int, t: float) -> np.ndarray:
    """log ``_product_tail``, in log space: the harness's tail K of each statistic c.

    K(c) = sum_k w_k Q(k, x_k), w_k the binomial weights of ``_tail_arrays``,
    x_k = max(c/2 + k log t, 0) and Q the integer-shape gamma upper tail, a
    Poisson sum (``_log_poisson_cdf``); K(c) = 1 where c <= 0, as in
    ``_product_tail``. Both sums are taken in logs, relative to a bound on
    their largest term, so K stays finite, and warns of nothing, at any
    length of at least 1 and any finite statistic; a weight of 0 (t = 1)
    adds nothing. A statistic costs ``length``^2 terms, taken in blocks of
    at most ``_POISSON_BLOCK``. A NaN statistic gives NaN.
    """
    arrays = _tail_arrays(length, t)
    mixture = np.maximum(c_stat[:, None] / 2.0 + arrays.k_log_t, 0.0)
    ks_per = min(length, max(1, _POISSON_BLOCK // length))
    rows_per = max(1, _POISSON_BLOCK // (ks_per * length))
    for first in range(0, length, ks_per):
        for row in range(0, c_stat.size, rows_per):
            block = (slice(row, row + rows_per), slice(first, first + ks_per))
            mixture[block] = _log_poisson_cdf(mixture[block], first, arrays)
    mixture += arrays.log_weights
    largest = np.max(mixture, axis=1)
    mixture -= largest[:, None]
    np.maximum(mixture, _LOG_NEGLIGIBLE, out=mixture)
    out = np.log(np.sum(np.exp(mixture, out=mixture), axis=1)) + largest
    out[c_stat <= 0.0] = 0.0
    return out


def _tail_band(level: float) -> tuple[float, float] | None:
    """The logs of level (1 - _EXACT_BAND) and level (1 + _EXACT_BAND): a
    log-space tail at or below the first rejects, one above the second
    accepts. None below ``_SMALLEST_BAND_LEVEL``, where it decides nothing."""
    if not level >= _SMALLEST_BAND_LEVEL:
        return None
    return math.log(level * (1.0 - _EXACT_BAND)), math.log(level * (1.0 + _EXACT_BAND))


def _curve_rejections(curve: _PCCurve, u: int, t: float, level: float) -> np.ndarray:
    """``curve(u) <= level`` per row, u at most the curve's length: the scalar
    API's decision.

    Each row's statistic goes through ``_log_product_tail``, and only the
    rows that its band (``_tail_band``) leaves open, with a NaN statistic
    among them, run ``_product_tail``. Below ``_SMALLEST_BAND_LEVEL`` every
    row does.
    """
    band = _tail_band(level)
    if band is None:
        return curve(u) <= level
    c_stat = curve.statistic(u)
    length = len(curve) - u + 1
    log_k = _log_product_tail(c_stat, length, t)
    rejected = log_k <= band[0]
    open_ = np.flatnonzero(~(rejected | (log_k > band[1])))
    if open_.size:
        rejected[open_] = _product_tail(c_stat[open_], length, t) <= level
    return rejected


def _from_bits(bits: int) -> float:
    return float(np.array([bits], dtype=np.int64).view(np.float64)[0])


def _first_rejecting(rejects: Callable[[float], bool], top: float) -> tuple[float, float]:
    """Adjacent nonnegative doubles (lo, hi) in [0, top] with ``rejects``
    False at lo and True at hi, or (top, inf) where it is False at top.

    ``rejects`` must be nondecreasing in c and False at 0. The bisection
    runs over the bit patterns of nonnegative doubles, which are ordered as
    the doubles are.
    """
    if not rejects(top):
        return top, math.inf
    lo, hi = 0, int(np.float64(top).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rejects(_from_bits(mid)):
            hi = mid
        else:
            lo = mid
    return _from_bits(lo), _from_bits(hi)


def _tail_root(tail: Callable[[float], float], target: float, a: float, b: float) -> float | None:
    """A c with ``tail(c)`` within _EXACT_BAND / 100 of ``target``, by the
    Illinois method on [a, b]; None where tail(a) is not _EXACT_BAND above
    the target or tail(b) not that far below it, or after 100 steps.

    The Illinois method is regula falsi that halves the value kept at an
    end that stays twice in a row, so that both ends close in.
    """
    fa, fb = tail(a) - target, tail(b) - target
    if not (fa > _EXACT_BAND and fb < -_EXACT_BAND):
        return None
    moved = 0
    for _ in range(100):
        c = b - fb * (b - a) / (fb - fa)
        fc = tail(c) - target
        if abs(fc) <= _EXACT_BAND / 100.0:
            return c
        if fc > 0.0:
            a, fa = c, fc
            if moved > 0:
                fb /= 2.0
            moved = 1
        else:
            b, fb = c, fc
            if moved < 0:
                fa /= 2.0
            moved = -1
    return None


@lru_cache(maxsize=_LEVEL_CACHE_SIZE)
def _critical_bracket(length: int, t: float, level: float) -> tuple[float, float]:
    """Doubles (c_accept, c_reject) around the critical value of ``_product_tail``.

    ``_product_tail(c) > level`` at c_accept and below, and ``<= level`` at
    c_reject and above, the tail being nonincreasing in c. They are read
    from the log-space tail K of ``_log_product_tail``: K is above the band
    of ``_tail_band(level)`` at c_accept and below it at c_reject. Mostly
    they are the root of K = level found by ``_tail_root``, times 1 -+ 10
    _EXACT_BAND, checked by one more K. Where that fails and the plateau
    1 - (1 - t)^length, K on (0, -2 log t], is below the band, they are (0,
    5e-324). Otherwise, and below ``_SMALLEST_BAND_LEVEL``, where
    ``_product_tail`` itself is bisected, they come from bisections
    (``_first_rejecting``). When no statistic a row of ``length`` clipped
    p-values can reach rejects, c_reject is inf, and c_accept is c_top,
    beyond every such statistic, or below it.
    """
    c_top = -4.0 * length * math.log(LOG_FLOOR)
    band = _tail_band(level)
    if band is None:
        return _first_rejecting(lambda c: _product_tail(np.array([c]), length, t)[0] <= level, c_top)

    def tail(c: float) -> float:
        return float(_log_product_tail(np.array([c]), length, t)[0])

    # K(c) >= exp(-c/2) from the plateau's end on, so the root is beyond a.
    a = max(-2.0 * math.log(t), -2.0 * math.log(level) - 1.0)
    root = _tail_root(tail, math.log(level), a, c_top)
    if root is not None:
        edges = root * np.array([1.0 - 10.0 * _EXACT_BAND, 1.0 + 10.0 * _EXACT_BAND])
        above, below = _log_product_tail(edges, length, t)
        if above > band[1] and below <= band[0]:
            return float(edges[0]), float(edges[1])
    if tail(sys.float_info.min) <= band[0]:
        return 0.0, math.ulp(0.0)
    return (
        _first_rejecting(lambda c: tail(c) <= band[1], c_top)[0],
        _first_rejecting(lambda c: tail(c) <= band[0], c_top)[1],
    )


@lru_cache(maxsize=_LEVEL_CACHE_SIZE)
def _threshold_window(t: float) -> tuple[float, float]:
    """(sure, cut), the threshold window of normal_cdf(z) clipped to [LOG_FLOOR, LOG_CEIL] at t.

    At or below ``sure`` the clipped p-value is at or below t; above ``cut``
    it exceeds t. Between the two, whether p <= t is left to the tail itself.
    They are ndtri(t (1 - _LEVEL_MARGIN)) and ndtri(t (1 + _LEVEL_MARGIN)).
    ``sure`` is +inf when t reaches LOG_CEIL, where every clipped p-value is
    at or below t, and -inf when t is below LOG_FLOOR, where none is;
    ``cut`` is +inf once t (1 + _LEVEL_MARGIN) reaches LOG_CEIL, where every
    clipped p-value could be.
    """
    if t >= LOG_CEIL:
        return math.inf, math.inf
    sure, cut = _level_quantiles(t)
    return (
        -math.inf if t < LOG_FLOOR else sure,
        math.inf if t * (1.0 + _LEVEL_MARGIN) >= LOG_CEIL else cut,
    )


# The tabulated log normal tail: log ndtr at nodes h = 1/_TAIL_STEPS apart on
# [_TAIL_RANGE], linearly interpolated. Both ends lie beyond a clip kink:
# log ndtr(-38.5) = -745.9 is below log LOG_FLOOR, and ndtr(8.5) rounds to 1.
_TAIL_STEPS = 64
_TAIL_RANGE = (-38.5, 8.5)
# The first and last node, as multiples of h.
_TAIL_FIRST, _TAIL_LAST = (round(end * _TAIL_STEPS) for end in _TAIL_RANGE)
# How far a tabulated term can lie from log(clip(normal_cdf(z))). (log ndtr)''
# = -(1 - Var(X | X < z)) lies in (-1, 0), so the chord between two nodes is
# below the concave curve by less than h^2 / 8 = 2^-15. Of the 1e-11 beside
# it, 1e-12 is the node values' (``_log_normal_cdf``, within 2.3e-13 of
# mpmath at 40 digits); log normal_cdf at a z between nodes was within
# 4.5e-13 of the exact log, and the interpolation's roundings are of the
# same order; 1e-11 covers them.
_TAIL_ERROR = 2.0**-15 + 1e-11


def _log_normal_cdf(z: float) -> float:
    """log Phi(z), finite wherever Phi(z) > 0 in exact arithmetic.

    It is log(normal_cdf(z)) where normal_cdf(z) is a normal double. Below
    that, z < -37.5, it is the Mills-ratio series log Phi(z) = -z^2/2 -
    log(-z sqrt(2 pi)) + log(1 - 1/z^2 + 3/z^4 - 15/z^6 + ...), whose terms
    up to 135135/z^14 leave out less than 1e-19 there.
    """
    p = _normal_tail(z)
    if p >= sys.float_info.min:
        return math.log(p)
    inverse_square = 1.0 / (z * z)
    series, term = 0.0, 1.0
    for m in range(1, 8):
        term *= -(2 * m - 1) * inverse_square
        series += term
    return -0.5 * z * z - math.log(-z) - 0.5 * math.log(2.0 * math.pi) + math.log1p(series)


@lru_cache(maxsize=None)
def _log_ndtr_table() -> tuple[np.ndarray, np.ndarray]:
    """Intercepts a and slopes b with log ndtr(z) ~ a[i] + b[i] x at x = z / h.

    Cell i spans x in [i - k, i - k + 1], k = -_TAIL_RANGE[0] / h being the
    index of z = 0. The last entry, past the last node, is flat at that
    node's value, so a position clamped to the range's top end reads it.
    The node values are ``_log_normal_cdf``'s.
    """
    x = np.arange(_TAIL_FIRST, _TAIL_LAST + 1, dtype=float)
    values = np.array([_log_normal_cdf(z) for z in (x / _TAIL_STEPS).tolist()])
    slopes = np.append(np.diff(values), 0.0)
    return values - x * slopes, slopes


def _tabulated_log_ndtr(
    z: np.ndarray, out: np.ndarray, right: bool, work: np.ndarray | None = None
) -> np.ndarray:
    """log ndtr(z), or log ndtr(-z) on the right, clipped to [log LOG_FLOOR, log LOG_CEIL].

    Each value lies within ``_TAIL_ERROR`` of log(clip(normal_cdf(z))): the table
    of ``_log_ndtr_table`` interpolated linearly, z clamped to the table's
    range, beyond which both are at a clip bound. ``out``, a C-contiguous
    array of z's shape, may be z itself. The first 2 z.size elements of the
    vector ``work`` hold each entry's cell and its gathered table entry, so
    that a caller that passes the same work space allocates nothing; they
    are allocated when ``work`` is None.
    """
    intercepts, slopes = _log_ndtr_table()
    size = z.size
    if work is None:
        work = np.empty(2 * size)
    cell, value = work[:size].view(np.int64), work[size : 2 * size]
    x = out.reshape(-1)
    np.multiply(np.ascontiguousarray(z).reshape(-1), -_TAIL_STEPS if right else _TAIL_STEPS, out=x)
    np.clip(x, _TAIL_FIRST, _TAIL_LAST, out=x)
    # x - _TAIL_FIRST >= 0, so the cast truncates it to its cell.
    np.subtract(x, _TAIL_FIRST, out=cell, casting="unsafe")
    # take buffers its output in mode "raise"; every cell is in range.
    x *= np.take(slopes, cell, out=value, mode="clip")
    x += np.take(intercepts, cell, out=value, mode="clip")
    return np.clip(out, math.log(LOG_FLOOR), math.log(LOG_CEIL), out=out)


def _truncated_logs(z: np.ndarray, t: float, right: bool, work: np.ndarray) -> np.ndarray:
    """One side's ``_truncated_terms`` of a C-contiguous z array, in place, each within ``_TAIL_ERROR``.

    The left p-values are normal_cdf(z), the right ones normal_cdf(-z), and
    their logs come from ``_tabulated_log_ndtr``. Of the window (sure,
    cut) of ``_threshold_window(t)``, an entry whose p may be at or below t
    is a candidate: z <= cut on the left, z >= -cut on the right. A
    candidate beyond ``sure`` is truncated and gets its tabulated log; one
    inside the window gets NaN, since the table cannot tell whether its p is
    at or below t; every other entry has p > t and adds 0. Only the
    candidates run the table, gathered by flat index; ``work`` is its work
    space. The z must be finite (``_directional_rejections``).
    """
    sure, cut = _threshold_window(t)
    # Flat indices: a take and a put cost half what a boolean mask does.
    candidates = np.flatnonzero(z >= -cut if right else z <= cut)
    held = np.take(z, candidates)
    unsure = np.flatnonzero(held < -sure if right else held > sure)
    logs = _tabulated_log_ndtr(held, held, right, work)
    logs[unsure] = math.nan
    z.fill(0.0)
    np.put(z, candidates, logs)
    return z


def _summation_slack(n: int) -> float:
    """A bound on how far two sums of the same n clipped logs, as -2 times a
    difference of sums, can differ when they are summed in different orders.

    Each clipped log lies in [log LOG_FLOOR, 0], so a sum of at most n of
    them, in any order, is off by less than n^2 eps |log LOG_FLOOR|. The exact
    kernel makes one such sum; the top-k statistic of ``_truncated_rejections``
    makes two, the row total T and the k smallest S(k), and one rounding of
    T - S(k). With c = -2 (...) the two statistics differ by less than this
    slack, 7.9e-11 at n = 8.
    """
    return 8.0 * n * n * np.finfo(float).eps * -math.log(LOG_FLOOR)


@lru_cache(maxsize=_LEVEL_CACHE_SIZE)
def _decisive_z(n: int, u: int, t: float, level: float) -> float:
    """A z beyond which one study alone makes r(u) <= level in a row of n studies.

    On the right every z at or above it, on the left every z at or below its
    negative, has a clipped one-sided p-value at or below t whose log is below
    -(c_reject (1 + _LEVEL_MARGIN) + slack) / 2, c_reject being that of
    ``_critical_bracket(n - u + 1, t, level)`` and slack ``_summation_slack(n)``.
    r(u) keeps the n - u + 1 largest terms, so a row with u such studies keeps
    one, and its exact statistic is beyond c_reject by the level margin and
    the summation slack of ``_truncated_rejections``. The z is -ndtri(p* (1 - _LEVEL_MARGIN)), p*
    being t or that log's exp if smaller; it is inf where that level is below
    LOG_FLOOR, where the clip could lift a p-value above it, and where
    c_reject is inf.
    """
    c_reject = _critical_bracket(n - u + 1, t, level)[1]
    p_star = min(t, math.exp(-(c_reject * (1.0 + _LEVEL_MARGIN) + _summation_slack(n)) / 2.0))
    if p_star * (1.0 - _LEVEL_MARGIN) < LOG_FLOOR:
        return math.inf
    return -_level_quantiles(p_star)[0]


def _truncated_rejections(
    logs: np.ndarray,
    us: Collection[int],
    t: float,
    level: float,
    exact: Callable[[np.ndarray], _PCCurve],
) -> dict[int, np.ndarray]:
    """``r(u) <= level`` for each u in ``us``, per column of an (n, rows) log matrix.

    ``logs`` holds the ``_truncated_terms`` of the p-values, one study a row,
    each within ``_TAIL_ERROR`` (``_truncated_logs``), or NaN where that is
    unknown. r(u) leaves out the u - 1 smallest p-values, so its statistic is
    c(u) = -2 (T - S(u-1)), T being the total of a column's logs and S(k)
    the sum of its k most negative ones, kept by a running minimum/maximum
    insertion over the studies. It sums the n - u + 1 largest logs, so it is
    within 2 (n - u + 1) _TAIL_ERROR of the exact statistic, besides the
    summation slack. Columns clearly beyond the critical bracket of
    ``_product_tail`` reject, columns clearly short of it accept, and only
    columns within ``_LEVEL_MARGIN``, the slack and that bound of it, or with
    a NaN statistic, are decided by the exact curve of their columns,
    ``exact(columns)`` (``_bracket_rejections``). A column with fewer than u
    truncated logs has c(u) = 0 exactly in that kernel, and within the
    bounds of 0 here.
    """
    rows = logs.shape[1]
    total = np.zeros(rows)
    smallest = np.zeros((max(us) - 1, rows))
    carry, spare = np.empty(rows), np.empty(rows)
    n = 0
    for row in logs:
        n += 1
        total += row
        carry[:] = row
        # Insert the row into the sorted k smallest; what a slot gives up
        # moves on to the next slot, and what the last gives up is dropped.
        for i, slot in enumerate(smallest):
            if i + 1 < len(smallest):
                np.maximum(slot, carry, out=spare)
            np.minimum(slot, carry, out=slot)
            carry, spare = spare, carry
    slack = _summation_slack(n)
    # An exact statistic is 0 or at least one truncated log's worth, c_least;
    # below it a row accepts, as r(u) = 1 there, also where c_accept is 0.
    c_least = -2.0 * math.log(min(t, LOG_CEIL))
    excluded = np.zeros(rows)
    out = {}
    for u in range(1, max(us) + 1):
        if u > 1:
            excluded += smallest[u - 2]
        if u not in us:
            continue
        c_stat = -2.0 * (total - excluded)
        c_accept, c_reject = _critical_bracket(n - u + 1, t, level)
        spread = slack + 2.0 * (n - u + 1) * _TAIL_ERROR
        out[u] = _bracket_rejections(
            c_stat,
            max(c_accept * (1.0 - _LEVEL_MARGIN), c_least) - spread,
            c_reject * (1.0 + _LEVEL_MARGIN) + spread,
            lambda band: _curve_rejections(exact(band), u, t, level),
        )
    return out


def _side_rejections(
    zt: np.ndarray, t: float, us: Collection[int], level: float, work: np.ndarray, right: bool
) -> dict[int, np.ndarray]:
    """One side's ``r(u) <= level`` per column of an (n, rows) z matrix, for each u in ``us``.

    ``work`` is laid out as ``_directional_work_size`` states. When the
    ``sure`` end of ``_threshold_window(t)`` is inf, every entry is
    truncated: nothing is counted, and the tabulated logs of the whole
    matrix go to ``_truncated_rejections``. Otherwise each column is first
    settled by two counts where it can be: with fewer than u candidates (z
    within the window's ``cut``) it has fewer than u truncated logs, so
    c(u) = 0 and it accepts at u; with at least u z beyond ``_decisive_z``
    it rejects at u. Only the columns some u leaves open run
    ``_truncated_logs`` and ``_truncated_rejections``: their z are gathered
    into the front of the log matrix and turned into their logs there. The
    columns the widened bracket leaves open, and those with an entry in the
    threshold window, are decided by ``_PCCurve`` on ``_normal_cdf_rows`` of
    their z, re-read from ``zt``. The z must be finite (``_directional_rejections``).
    """

    def exact(columns: np.ndarray) -> _PCCurve:
        z = zt.T[columns]  # one row per column, as the p-value rows are
        return _PCCurve.from_p_values(_normal_cdf_rows(np.negative(z, out=z) if right else z), t)

    n, rows = zt.shape
    logs, tail = work[: zt.size], work[zt.size :]
    sure, cut = _threshold_window(t)
    if sure == math.inf:
        logs = _tabulated_log_ndtr(zt, logs.reshape(n, rows), right, tail)
        return _truncated_rejections(logs, us, t, level, exact)
    beyond = np.empty(zt.shape, dtype=bool)
    counted = np.min_scalar_type(n)

    def count(bound: float) -> np.ndarray:
        """Entries at or below ``bound`` on the left, at or above -``bound`` on the right."""
        if right:
            np.greater_equal(zt, -bound, out=beyond)
        else:
            np.less_equal(zt, bound, out=beyond)
        return np.add.reduce(beyond, axis=0, dtype=counted)

    candidates = count(cut)
    out = {}
    unsettled = np.zeros(rows, dtype=bool)
    for u in us:
        out[u] = count(-_decisive_z(n, u, t, level)) >= u
        unsettled |= (candidates >= u) & ~out[u]
    open_ = np.flatnonzero(unsettled)
    if open_.size:
        z_open = logs[: n * open_.size].reshape(n, -1)
        np.take(zt, open_, axis=1, out=z_open, mode="clip")
        logs_open = _truncated_logs(z_open, t, right, tail)
        decided = _truncated_rejections(logs_open, us, t, level, lambda band: exact(open_[band]))
        for u, rejected in decided.items():
            out[u][open_] = rejected
    return out


def _directional_work_size(size: int) -> int:
    """Elements of ``_directional_rejections``'s work vector for a z matrix of
    ``size`` entries: each side in turn holds a log matrix of ``size``
    entries at its front, then the table's work space of 2 ``size``."""
    return 3 * size


def _directional_rejections(
    zt: np.ndarray, t: float, us: Collection[int], level: float, work: np.ndarray | None = None
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Left and right ``r(u) <= level`` per column of an (n, rows) z matrix, for each u in ``us``.

    Each study is one contiguous row of ``zt``, which is only read, and each
    side is decided by ``_side_rejections``. The z must be finite, and then
    every decision is that of ``r_value`` and ``confidence_bounds``: of
    ``_PCCurve.from_p_values`` on the ``normal_cdf`` rows. A NaN z is read
    as p > t where the count step or the candidate cut sees it, while
    ``_PCCurve`` carries it to r = NaN and accepts. ``work``, laid out as
    ``_directional_work_size`` states, is allocated when it is None.
    """
    if work is None:
        work = np.empty(_directional_work_size(zt.size))
    return tuple(_side_rejections(zt, t, us, level, work, right) for right in (False, True))


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
    """Why ``test_id`` is unknown or cannot run on n studies; None when it can.

    H{u}n is known only as written with u's own digits, so that no two ids
    name one test: H01n is unknown.
    """
    match = _H_TEST.match(test_id)
    if test_id not in _TEST_IDS and (match is None or test_id != f"H{int(match.group(1))}n"):
        return f"unknown test id {test_id!r}"
    if match is not None and not 1 <= int(match.group(1)) <= n:
        return f"test {test_id!r} needs u in [1, {n}]"
    if test_id in ("meta_re", "H2n_fe") and n < 2:
        return f"{test_id} requires at least two studies"
    return None


def _check_tests(tests: Sequence[str], n: int) -> None:
    """Raise ValueError naming the first test id that is unknown, needs more
    than n studies, or repeats an earlier one, as the two would print as one row."""
    for i, test_id in enumerate(tests):
        error = _test_error(test_id, n)
        if error is not None:
            raise ValueError(error)
        if test_id in tests[:i]:
            raise ValueError(f"test id {test_id!r} is repeated")


def _runnable(tests: Sequence[str], n: int) -> tuple[str, ...]:
    """The ids of ``tests`` that n studies allow, in order."""
    return tuple(test_id for test_id in tests if _test_error(test_id, n) is None)


def _evaluate_tests(
    theta_hat: np.ndarray, se: np.ndarray, tests: Sequence[str], t: float, alpha: float,
    work: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Boolean rejection indicators per requested test, one per row of ``theta_hat``.

    Every test is decided through ``_bracket_rejections``. The H-tests and
    inconsistency_detected ask each side's partial-conjunction test at
    threshold t only whether r(u) <= alpha/2, through
    ``_directional_rejections``. That is the whole decision: doubling is
    exact, so min(1, 2 min(a, b)) <= alpha exactly when a <= alpha/2 or b <=
    alpha/2. The pooled tests and H2n_fe are decided through
    ``_pooled_rejections``.

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

    Closed form: 1 - Phi(mu/tau)^n - (1 - Phi(mu/tau))^n. An infinite mu or
    tau gives the limit, 0 or 1 - 2^(1 - n); both infinite have none.
    """
    for name, value in (("mu", mu), ("tau", tau)):
        if math.isnan(value):
            raise ValueError(f"{name} must not be NaN")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if math.isinf(mu) and math.isinf(tau):
        raise ValueError("mu and tau must not both be infinite: mu/tau has no limit")
    if _check_int("n", n) < 2:
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


_CONFIG_KEYS = ("theta", "mu", "tau", "nc", "nt", "replications", "seed", "t", "tests", "param")


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
    ValueError naming its key and line; a key set twice names both lines,
    and an unknown key its line and the recognized keys.
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
        if key not in _CONFIG_KEYS:
            raise ValueError(
                f"config line {lineno}: unknown key {key!r}; recognized keys: {', '.join(_CONFIG_KEYS)}"
            )
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
