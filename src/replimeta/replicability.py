"""Partial-conjunction replicability tests for groups of studies.

The intersection statistic is a truncated product of one-sided p-values: only
p-values at or below a threshold t enter the product, and the exact null
distribution is a binomial mixture over the number of truncated p-values of
gamma upper tails. On top of it sit directional r-values (the p-value of the
claim "at least u of the n studies have an effect in one direction"),
confidence lower bounds on the number of studies with effects in each
direction, a consistency classification of those bounds, a common-effect
variant that pools subsets by inverse variance, shifted tests that bound the
effect magnitude, and a conditional p-value transform that guards against
publication bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Callable, Collection, Literal, Sequence

import numpy as np

# scipy.special is imported on first use, inside each kernel that calls it (see meta).

from . import meta
from .meta import StudySummary
from .statkernels import LOG_CEIL, LOG_FLOOR, _normal_tail, normal_cdf, one_sided_p

__all__ = [
    "Consistency",
    "PartialConjunctionResult",
    "ReplicabilityReport",
    "SUBSET_ENUMERATION_CAP",
    "classify_consistency",
    "conditional_p_transform",
    "confidence_bounds",
    "delta_bound",
    "fe_r_value",
    "partial_conjunction_p",
    "r_value",
    "truncated_product_p",
]

Consistency = Literal["inconsistent", "supports_consistency", "insufficient_evidence"]

# fe_r_value enumerates subsets exactly; this cap keeps a typo in u from
# turning into hours of work. Real systematic reviews sit far below it.
SUBSET_ENUMERATION_CAP = 1_000_000


def _check_t(t: float) -> float:
    """The truncation threshold, once it lies in (0, 1]."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"truncation threshold t must be in (0, 1], got {t}")
    return t


@dataclass(frozen=True)
class PartialConjunctionResult:
    """Directional and combined p-values for "at least u of n studies"."""

    u: int
    r_left: float
    r_right: float
    r: float
    t: float | None = None


@dataclass(frozen=True)
class ReplicabilityReport:
    """Confidence bounds on study counts per direction plus the u=2 r-value, at level alpha."""

    u_max_left: int
    u_max_right: int
    r_value: float
    alpha: float = field(kw_only=True)

    def __post_init__(self) -> None:
        if self.u_max_left < 0 or self.u_max_right < 0:
            raise ValueError("bounds must be nonnegative")
        meta._check_alpha(self.alpha)

    @property
    def confidence(self) -> float:
        """1 - alpha, the joint confidence of the two bounds."""
        return 1.0 - self.alpha

    @property
    def consistency(self) -> Consistency:
        """The ``classify_consistency`` class of the two bounds."""
        return classify_consistency(self.u_max_left, self.u_max_right)


def _validate_pvalues(p_values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(p_values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("p-values must form a one-dimensional sequence")
    if arr.size and not (np.all(np.isfinite(arr)) and arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    return arr


@lru_cache(maxsize=None)
def _pmf_weights(length: int, t: float) -> tuple[float, ...]:
    """P(exactly k of ``length`` independent uniforms fall at or below t), k = 1..length.

    Each binomial mass is taken in log space, so that it does not underflow
    to zero for lengths in the thousands.
    """
    if t == 1.0:
        return tuple(float(k == length) for k in range(1, length + 1))
    log_trials, log_t, log_rest = math.lgamma(length + 1), math.log(t), math.log1p(-t)
    return tuple(
        math.exp(
            log_trials - math.lgamma(k + 1) - math.lgamma(length - k + 1) + k * log_t + (length - k) * log_rest
        )
        for k in range(1, length + 1)
    )


def _truncated_terms(p: np.ndarray, t: float) -> np.ndarray:
    """The terms of the statistic c = -2 log(product of the p-values at or below t), in place.

    Each p is clipped to [LOG_FLOOR, LOG_CEIL] and replaced by its log, or by
    0 when it is above t. Every clipped log is negative, so the terms sort as
    the p-values do, and c is 0 exactly when no p-value is at or below t.
    """
    np.clip(p, LOG_FLOOR, LOG_CEIL, out=p)
    above = p > t
    terms = np.log(p, out=p)
    # A masked store: np.where with a scalar 0.0 is several times slower.
    terms[above] = 0.0
    return terms


def _product_tail(c_stat: np.ndarray, length: int, t: float) -> np.ndarray:
    """Null p-value of each statistic c, -2 times a sum of ``length`` ``_truncated_terms``.

    A statistic of 0 (nothing truncated, an empty product of 1) gets the
    weakest possible p-value, exactly 1.
    """
    ks = np.arange(1, length + 1, dtype=float)
    from scipy import special

    weights = np.asarray(_pmf_weights(length, t))
    # Conditional on k truncated p-values, -log(product / t^k) is Gamma(k, 1);
    # the upper tail is evaluated directly to avoid cancellation. The weighted
    # sum uses np.sum, whose reduction tree depends only on the row length, so
    # batched and single-row calls agree bitwise.
    args = np.maximum(c_stat[:, None] / 2.0 + ks[None, :] * math.log(t), 0.0)
    mixture = np.sum(special.gammaincc(ks[None, :], args) * weights[None, :], axis=1)
    out = np.clip(mixture, 0.0, 1.0)
    out[c_stat <= 0.0] = 1.0
    return out


# A relative margin for decisions made on a rounded tail function: a row is
# decided without the exact computation only when it is beyond a bracket
# widened by this much. It sits on the level p of the normal quantiles of
# ``_level_quantiles``, since normal_cdf(ndtri(p)) was within 5.3e-13 of p,
# relative, over 250,000 p from 1e-300 to 1 - 1e-6; a margin on p rather
# than on z also holds near p = 1, where the normal tail is flat and a fixed
# margin on z would have to grow without bound. On the critical statistic c of
# ``_critical_bracket`` it covers the rounding of ``_product_tail``.
_LEVEL_MARGIN = 1e-6


@lru_cache(maxsize=None)
def _level_quantiles(p: float) -> tuple[float, float]:
    """ndtri(p (1 - _LEVEL_MARGIN)) and ndtri(p (1 + _LEVEL_MARGIN))."""
    from scipy import special

    low, high = special.ndtri([p * (1.0 - _LEVEL_MARGIN), p * (1.0 + _LEVEL_MARGIN)])
    return float(low), float(high)


def _normal_cdf_rows(z: np.ndarray) -> np.ndarray:
    """``normal_cdf`` of each entry of a float array, bit for bit; a NaN entry gives NaN."""
    return np.frompyfunc(_normal_tail, 1, 1)(z).astype(float)


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


@lru_cache(maxsize=None)
def _critical_bracket(length: int, t: float, level: float) -> tuple[float, float]:
    """Adjacent doubles (c_accept, c_reject) around the critical value of ``_product_tail``.

    ``_product_tail(c) > level`` at c_accept and ``<= level`` at c_reject.
    The tail is nonincreasing in c, so the bisection runs over the bit
    patterns of nonnegative doubles, which are ordered as the doubles are.
    When no statistic a row of ``length`` clipped p-values can reach rejects,
    the bracket is (c_top, inf), c_top being beyond every such statistic.
    """

    def value(bits: int) -> np.ndarray:
        return np.array([bits], dtype=np.int64).view(np.float64)

    def rejects(bits: int) -> bool:
        return bool(_product_tail(value(bits), length, t)[0] <= level)

    c_top = -4.0 * length * math.log(LOG_FLOOR)
    lo, hi = 0, int(np.float64(c_top).view(np.int64))
    if not rejects(hi):
        return c_top, math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rejects(mid):
            hi = mid
        else:
            lo = mid
    return float(value(lo)[0]), float(value(hi)[0])


class _PCCurve:
    """r(1), r(2), ... for each row of a ``_truncated_terms`` matrix.

    r(u), the p-value of "at least u of the row's studies have an effect", is
    the truncated-product p-value of the row's n-u+1 largest p-values, whose
    terms are the n-u+1 largest. Rows are sorted once, here, and each r(u) is
    computed on first use. For u > n the suffix is empty and r(u) is 1: fewer
    than u cannot establish u.
    """

    def __init__(self, terms: np.ndarray, t: float) -> None:
        self._sorted = np.sort(terms, axis=1)
        self._t = t
        self._values: dict[int, np.ndarray] = {}

    @classmethod
    def from_p_values(cls, p_rows: Sequence[float] | np.ndarray, t: float) -> _PCCurve:
        """The curve of each row of a p-value matrix; a sequence is one row."""
        return cls(_truncated_terms(np.array(p_rows, dtype=float, ndmin=2), t), t)

    def __len__(self) -> int:
        return self._sorted.shape[1]

    def __call__(self, u: int) -> np.ndarray:
        if u not in self._values:
            suffix = self._sorted[:, u - 1 :]
            self._values[u] = _product_tail(-2.0 * np.sum(suffix, axis=1), suffix.shape[1], self._t)
        return self._values[u]


def _leading_rejections(curve: _PCCurve, level: float) -> int:
    """Largest u with r(1), ..., r(u) all at or below level, for a one-row curve.

    The walk stops at the first non-rejection, which keeps the bound well
    defined although the curve need not be monotone in u (at t=1 it is not).
    """
    u = 0
    while u < len(curve) and curve(u + 1)[0] <= level:
        u += 1
    return u


def _two_sided(r_left: float, r_right: float) -> float:
    """The two-directional p-value: twice the smaller directional one, capped at 1."""
    return min(1.0, 2.0 * min(r_left, r_right))


class _TwoSidedProfile:
    """The left and right ``_PCCurve`` of one set of one-sided p-values.

    r(u) and both directional bounds are read from these two curves. Each side
    is tested at ``level`` = alpha / 2, so the bounds hold jointly at 1 - alpha.
    A profile built without alpha gives r(u) alone and has no level.
    """

    def __init__(
        self, left_ps: Sequence[float], right_ps: Sequence[float], t: float, alpha: float | None = None
    ):
        self.left = _PCCurve.from_p_values(left_ps, t)
        self.right = _PCCurve.from_p_values(right_ps, t)
        self.t = t
        self.level = None if alpha is None else alpha / 2.0

    def result(self, u: int) -> PartialConjunctionResult:
        """r_left(u), r_right(u) and r(u); a side with fewer than u p-values has r = 1."""
        r_left, r_right = float(self.left(u)[0]), float(self.right(u)[0])
        return PartialConjunctionResult(u, r_left, r_right, _two_sided(r_left, r_right), self.t)

    def bounds(self) -> tuple[int, int]:
        """(u_max_left, u_max_right), each side's leading rejections at ``level``."""
        return tuple(_leading_rejections(curve, self.level) for curve in (self.left, self.right))


@lru_cache(maxsize=None)
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
# below the concave curve by less than h^2 / 8 = 2^-15. Against mpmath at 40
# digits the node values of special.log_ndtr were within 2.3e-13, log
# normal_cdf was within 4.5e-13 of log ndtr over the range, and the
# interpolation's roundings are of the same order; 1e-11 covers the four.
_TAIL_ERROR = 2.0**-15 + 1e-11


@lru_cache(maxsize=None)
def _log_ndtr_table() -> tuple[np.ndarray, np.ndarray]:
    """Intercepts a and slopes b with log ndtr(z) ~ a[i] + b[i] x at x = z / h.

    Cell i spans x in [i - k, i - k + 1], k = -_TAIL_RANGE[0] / h being the
    index of z = 0. The last entry, past the last node, is flat at that
    node's value, so a position clamped to the range's top end reads it.
    """
    from scipy import special

    x = np.arange(_TAIL_FIRST, _TAIL_LAST + 1, dtype=float)
    values = special.log_ndtr(x / _TAIL_STEPS)
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


@lru_cache(maxsize=None)
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
            lambda band: exact(band)(u) <= level,
        )
    return out


def _side_rejections(
    zt: np.ndarray, t: float, us: Collection[int], level: float, work: np.ndarray, right: bool
) -> dict[int, np.ndarray]:
    """One side's ``r(u) <= level`` per column of an (n, rows) z matrix, for each u in ``us``.

    The vector ``work``, of ``_directional_work_size(zt.size)`` elements,
    holds a log matrix of zt's size, then the table's work space. When the
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
    ``size`` entries: a log matrix and the table's work space (``_side_rejections``)."""
    return 3 * size


def _directional_rejections(
    zt: np.ndarray, t: float, us: Collection[int], level: float, work: np.ndarray | None = None
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Left and right ``r(u) <= level`` per column of an (n, rows) z matrix, for each u in ``us``.

    Each study is one contiguous row of ``zt``, which is only read. Each side
    settles most columns by counting, per column, the z beyond two values,
    and runs the tabulated log normal tail and the top-k statistic only on
    the rest (``_side_rejections``). The z must be finite, and then every
    decision is that of ``r_value`` and ``confidence_bounds``: of
    ``_PCCurve.from_p_values`` on the ``normal_cdf`` rows. A NaN z is read
    as p > t where the count step or the candidate cut sees it, while
    ``_PCCurve`` carries it to r = NaN and accepts. The first
    ``_directional_work_size(zt.size)`` elements of ``work`` are each side's
    work space in turn; one is allocated when it is None.
    """
    if work is None:
        work = np.empty(_directional_work_size(zt.size))
    return tuple(_side_rejections(zt, t, us, level, work, right) for right in (False, True))


def truncated_product_p(p_values: Sequence[float], t: float = 0.05) -> float:
    """P-value of the truncated product of p-values at threshold t.

    When no p-value is at or below the threshold the observed product is the
    empty product 1 and the weakest possible p-value, exactly 1, is returned.
    At t=1 this is Fisher's combination.
    """
    _check_t(t)
    arr = _validate_pvalues(p_values)
    if arr.size == 0:
        raise ValueError("p_values must be nonempty")
    return float(_PCCurve.from_p_values(arr, t)(1)[0])


def partial_conjunction_p(p_one_sided: Sequence[float], u: int, t: float = 0.05) -> float:
    """P-value for "at least u studies have an effect" in one direction.

    Equal to the truncated-product p-value of the n-u+1 largest one-sided
    p-values, which is the maximum over all (n-u+1)-subsets because the
    statistic is monotone in each p-value.
    """
    _check_t(t)
    arr = _validate_pvalues(p_one_sided)
    if arr.size == 0:
        raise ValueError("p_one_sided must be nonempty")
    if not 1 <= u <= arr.size:
        raise ValueError(f"u must be in [1, {arr.size}], got {u}")
    return float(_PCCurve.from_p_values(arr, t)(u)[0])


def _paired_profile(
    left_ps: Sequence[float], right_ps: Sequence[float], t: float, alpha: float | None = None
) -> _TwoSidedProfile:
    """The profile of a left and a right p-value list that pair up, study by study."""
    _check_t(t)
    left = _validate_pvalues(left_ps)
    right = _validate_pvalues(right_ps)
    if left.size != right.size:
        raise ValueError(f"left and right lists differ in length ({left.size} vs {right.size})")
    if left.size and float(np.max(np.abs(left + right - 1.0))) > 1e-6:
        raise ValueError("each left/right pair must sum to 1")
    return _TwoSidedProfile(left, right, t, alpha)


def r_value(
    left_ps: Sequence[float], right_ps: Sequence[float], u: int, t: float = 0.05
) -> PartialConjunctionResult:
    """Two-directional p-value for "at least u studies share an effect direction".

    Twice the smaller of the directional p-values, capped at 1.
    """
    profile = _paired_profile(left_ps, right_ps, t)
    if not 1 <= u <= len(profile.left):
        raise ValueError(f"u must be in [1, {len(profile.left)}], got {u}")
    return profile.result(u)


def confidence_bounds(
    left_ps: Sequence[float], right_ps: Sequence[float], t: float = 0.05, alpha: float = 0.05
) -> tuple[int, int]:
    """Confidence lower bounds on the number of studies with effects per direction.

    Each side is tested sequentially at level alpha/2, so the pair holds
    jointly with confidence 1 - alpha.
    """
    meta._check_alpha(alpha)
    return _paired_profile(left_ps, right_ps, t, alpha).bounds()


def classify_consistency(u_max_left: int, u_max_right: int) -> Consistency:
    """Classify a pair of directional lower bounds.

    Inconsistent when both directions are established; supportive of
    consistency when one direction has at least two studies and the other has
    none; otherwise the evidence is insufficient to say either.
    """
    if u_max_left < 0 or u_max_right < 0:
        raise ValueError("bounds must be nonnegative")
    if u_max_left >= 1 and u_max_right >= 1:
        return "inconsistent"
    if (u_max_left >= 2 and u_max_right == 0) or (u_max_left == 0 and u_max_right >= 2):
        return "supports_consistency"
    return "insufficient_evidence"


# Python floats overflow to inf, and inf - inf gives NaN, without a warning.
@np.errstate(over="ignore", invalid="ignore")
def _fe_z_extremes(
    theta_t: np.ndarray, se: np.ndarray, size: int, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest pooled z over every ``size``-subset of studies, per column.

    ``theta_t`` is an (n, rows) estimate matrix, one study a row, and ``se`` a
    vector of n standard errors shared by all columns. A subset's pooled z
    is sum(w * theta) / sqrt(sum(w)) with w = 1 / (se * se). Each subset's
    sums run in ascending study order, so the result equals the Python-float
    formulas bit for bit. Subsets are pooled in blocks of at most
    ``meta._BLOCK_ELEMENTS`` elements (at least one subset).

    The first ``_fe_work_size(n, rows, size)`` elements of the vector
    ``work`` hold the weighted estimates and a block's sums and gathered
    rows, so that a loop over chunks that passes the same vector allocates
    no matrix. One is allocated when ``work`` is None or shorter.
    """
    n, rows = theta_t.shape
    w = 1.0 / (se * se)
    step = _fe_block_subsets(rows, size)
    needed = _fe_work_size(n, rows, size)
    if work is None or work.size < needed:
        work = np.empty(needed)
    # Adding 0.0 turns -0.0 into 0.0, as Python's sum, which starts from 0,
    # does. Each study is one row, so gathering a study is a contiguous copy.
    weighted = work[: n * rows].reshape(n, rows)
    np.multiply(theta_t, w[:, None], out=weighted)
    weighted += 0.0
    z_min = np.full(rows, math.inf)
    z_max = np.full(rows, -math.inf)
    subsets = combinations(range(n), size)
    while True:
        block = np.fromiter(chain.from_iterable(islice(subsets, step)), dtype=np.intp)
        if not block.size:
            return z_min, z_max
        block = block.reshape(-1, size)
        count = len(block)
        num = work[n * rows : (n + count) * rows].reshape(count, rows)
        gathered = work[(n + count) * rows : (n + 2 * count) * rows].reshape(count, rows)
        # take buffers its output in mode "raise"; every index is in range,
        # so "clip" gathers the same rows straight into ``out``.
        np.take(weighted, block[:, 0], axis=0, out=num, mode="clip")
        den = w[block[:, 0]]
        for j in range(1, size):
            np.take(weighted, block[:, j], axis=0, out=gathered, mode="clip")
            num += gathered
            den += w[block[:, j]]
        num /= np.sqrt(den)[:, None]
        # fmin/fmax pass over NaN, as the comparisons of a Python loop do.
        extreme = gathered[0]
        np.fmin(z_min, np.fmin.reduce(num, axis=0, out=extreme), out=z_min)
        np.fmax(z_max, np.fmax.reduce(num, axis=0, out=extreme), out=z_max)


def _fe_block_subsets(rows: int, size: int) -> int:
    """Subsets per block of ``_fe_z_extremes``: at least one, else at most
    ``meta._BLOCK_ELEMENTS`` elements of estimates and indices."""
    return max(1, meta._BLOCK_ELEMENTS // (rows + size))


def _fe_work_size(n: int, rows: int, size: int) -> int:
    """Elements of ``_fe_z_extremes``'s work vector: the weighted estimates,
    and a block's sums and gathered rows."""
    return (n + 2 * min(_fe_block_subsets(rows, size), math.comb(n, size))) * rows


def fe_r_value(studies: Sequence[StudySummary], u: int) -> PartialConjunctionResult:
    """Partial-conjunction p-values using the common-effect pooled statistic.

    Every (n-u+1)-subset is pooled by inverse variance and tested one-sidedly;
    the directional p-value is the maximum over subsets, that is, the p-value
    of the least significant subset. There is no sorting shortcut for this
    statistic, so ``_fe_z_extremes`` enumerates the subsets exactly, up to
    ``SUBSET_ENUMERATION_CAP`` of them.
    """
    studies = list(studies)
    n = len(studies)
    if n < 2:
        raise ValueError("at least two studies are required")
    if not 2 <= u <= n:
        raise ValueError(f"u must be in [2, {n}], got {u}")
    size = n - u + 1
    needed = math.comb(n, size)
    if needed > SUBSET_ENUMERATION_CAP:
        raise ValueError(
            f"enumeration needs {needed} subsets per side, exceeding the cap of "
            f"{SUBSET_ENUMERATION_CAP}"
        )
    theta_hat, se = meta._study_rows(studies)
    z_min, z_max = _fe_z_extremes(theta_hat[:, None], se, size)
    # Right-sided p is largest at the smallest pooled z, left-sided at the largest.
    r_right = normal_cdf(-float(z_min[0]))
    r_left = normal_cdf(float(z_max[0]))
    return PartialConjunctionResult(u, r_left, r_right, _two_sided(r_left, r_right))


# delta_bound's bisection stops once its bracket is at most this wide.
_DELTA_TOL = 1e-6


def delta_bound(
    studies: Sequence[StudySummary],
    u: int,
    alpha: float = 0.05,
    side: str = "upper_positive",
    t: float | None = None,
) -> float | None:
    """Largest shift for which "at least u studies exceed the shift" still holds.

    For ``upper_positive`` the null effect is moved from 0 to +delta and the
    right-sided partial-conjunction test is run at level alpha/2; for
    ``lower_negative`` it is moved to -delta with the left-sided test. Returns
    the boundary delta found by bisection, or None when the unshifted test is
    not significant and a bound is not meaningful; t defaults to alpha.
    """
    studies = list(studies)
    n = len(studies)
    if n == 0:
        raise ValueError("at least one study is required")
    if not 1 <= u <= n:
        raise ValueError(f"u must be in [1, {n}], got {u}")
    if side not in ("upper_positive", "lower_negative"):
        raise ValueError(f"side must be 'upper_positive' or 'lower_negative', got {side!r}")
    meta._check_alpha(alpha)
    t = _check_t(alpha if t is None else t)
    level = alpha / 2.0

    def shifted_p(delta: float) -> float:
        if side == "upper_positive":
            ps = [one_sided_p(s.theta_hat, s.se, shift=delta).right for s in studies]
        else:
            ps = [one_sided_p(s.theta_hat, s.se, shift=-delta).left for s in studies]
        return partial_conjunction_p(ps, u, t)

    if shifted_p(0.0) > level:
        return None
    # At hi every study's shifted z on the tested side is at most -10, so each
    # one-sided p-value rounds to 1.0 and the shifted test cannot reject there.
    hi = max(abs(s.theta_hat) for s in studies) + 10.0 * max(s.se for s in studies)
    lo = 0.0
    # The shifted p-value is monotone nondecreasing in delta, so plain
    # bisection localizes the rejection boundary, to _DELTA_TOL or, beyond
    # about 4.5e9, where doubles lie farther apart, to two adjacent ones.
    while hi - lo > _DELTA_TOL and lo < (mid := 0.5 * (lo + hi)) < hi:
        if shifted_p(mid) <= level:
            lo = mid
        else:
            hi = mid
    return lo


def conditional_p_transform(p_values: Sequence[float], threshold: float) -> list[float]:
    """Publication-bias guard: keep p-values at or below the threshold, rescaled.

    Survivors are divided by the threshold (their conditional null
    distribution is stochastically larger than uniform) and returned in their
    original order.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    arr = _validate_pvalues(p_values)
    return [float(p / threshold) for p in arr if p <= threshold]
