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
from .statkernels import LOG_CEIL, LOG_FLOOR, normal_cdf, one_sided_p

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


def _truncated_statistic(sorted_rows: np.ndarray, t: float) -> np.ndarray:
    """The statistic c = -2 log(product of the p-values at or below t), per row.

    Rows must be clipped to [LOG_FLOOR, LOG_CEIL] and sorted, which makes the
    statistic a canonical function of the multiset of p-values. Every clipped
    log is negative, so c is 0 exactly when no p-value is at or below t.
    """
    truncated = sorted_rows <= t
    return -2.0 * np.sum(np.where(truncated, np.log(sorted_rows), 0.0), axis=1)


def _product_tail(c_stat: np.ndarray, length: int, t: float) -> np.ndarray:
    """Null p-value of each statistic c of ``_truncated_statistic`` on rows of ``length``.

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


def _truncated_product_rows(sorted_rows: np.ndarray, t: float) -> np.ndarray:
    """Combination p-value for each row of a clipped, sorted (rows, L) p-value matrix."""
    return _product_tail(_truncated_statistic(sorted_rows, t), sorted_rows.shape[1], t)


# A relative margin for decisions made on a rounded tail function: a row is
# decided without the exact computation only when it is beyond a bracket
# widened by this much. It sits on the level p of the normal quantiles of
# ``_level_quantiles``, since ndtr(ndtri(p)) is within 1e-12 of p, relative,
# for p from 1e-300 to 1 - 1e-6; a margin on p rather than on z also holds
# near p = 1, where the normal tail is flat and a fixed margin on z would
# have to grow without bound. On the critical statistic c of
# ``_critical_bracket`` it covers the rounding of ``_product_tail``.
_LEVEL_MARGIN = 1e-6


@lru_cache(maxsize=None)
def _level_quantiles(p: float) -> tuple[float, float]:
    """ndtri(p (1 - _LEVEL_MARGIN)) and ndtri(p (1 + _LEVEL_MARGIN))."""
    from scipy import special

    low, high = special.ndtri([p * (1.0 - _LEVEL_MARGIN), p * (1.0 + _LEVEL_MARGIN)])
    return float(low), float(high)


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
    """r(1), r(2), ... for each row of a p-value matrix; a sequence is one row.

    r(u), the p-value of "at least u of the row's studies have an effect", is
    the truncated-product p-value of the row's n-u+1 largest values. Rows are
    clipped and sorted once, here, and each r(u) is computed on first use. For
    u > n the suffix is empty and r(u) is 1: fewer than u cannot establish u.
    """

    def __init__(self, p_rows: np.ndarray, t: float) -> None:
        rows = np.atleast_2d(np.asarray(p_rows, dtype=float))
        self._sorted = np.clip(rows, LOG_FLOOR, LOG_CEIL)
        self._sorted.sort(axis=1)
        self._t = t
        self._values: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self._sorted.shape[1]

    def __call__(self, u: int) -> np.ndarray:
        if u not in self._values:
            self._values[u] = _truncated_product_rows(self._sorted[:, u - 1 :], self._t)
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
        self.left = _PCCurve(left_ps, t)
        self.right = _PCCurve(right_ps, t)
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
def _tail_cut(t: float) -> float:
    """A z above which ndtr(z), clipped to [LOG_FLOOR, LOG_CEIL], exceeds t.

    It is ndtri(t (1 + _LEVEL_MARGIN)), and +inf when that level reaches
    LOG_CEIL, where every clipped p-value could be at or below t.
    """
    return math.inf if t * (1.0 + _LEVEL_MARGIN) >= LOG_CEIL else _level_quantiles(t)[1]


def _truncated_logs(zt: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
    """Per entry of an (n, rows) z matrix, log p where p = ndtr(z), clipped, is <= t; else 0.

    These are the terms the exact kernel adds, p being clipped to
    [LOG_FLOOR, LOG_CEIL]. ndtr runs only on the candidates z <=
    ``_tail_cut(t)``, in one masked pass over the matrix: every other entry
    has p > t and adds 0. The logs are written to ``out``, of zt's shape.
    """
    from scipy import special

    cut = _tail_cut(t)
    if cut == math.inf:
        p = special.ndtr(zt, out=out)
    else:
        # Flat indices: a take and a put cost half what a boolean mask does.
        candidates = np.flatnonzero(zt <= cut)
        p = np.take(zt, candidates)
        special.ndtr(p, out=p)
    np.clip(p, LOG_FLOOR, LOG_CEIL, out=p)
    above = p > t
    terms = np.log(p, out=p)
    # A masked store: np.where with a scalar 0.0 is several times slower.
    terms[above] = 0.0
    if cut != math.inf:
        out.fill(0.0)
        np.put(out, candidates, terms)
    return out


def _truncated_rejections(
    logs: np.ndarray,
    rows: int,
    us: Collection[int],
    t: float,
    level: float,
    exact_rows: Callable[[np.ndarray], np.ndarray],
) -> dict[int, np.ndarray]:
    """``r(u) <= level`` for each u in ``us``, per entry of ``rows``-long log vectors.

    ``logs`` is the (n, rows) ``_truncated_logs`` matrix, one study a row. r(u)
    leaves out the u - 1 smallest p-values, so its statistic is c(u) =
    -2 (T - S(u-1)), T being the total of a row's logs and S(k) the sum of
    its k most negative ones, kept by a running minimum/maximum insertion
    over the studies. Rows clearly beyond the critical bracket of
    ``_product_tail`` reject, rows clearly short of it accept, and only rows
    within ``_LEVEL_MARGIN`` and the summation slack of it, or with a NaN
    statistic, run the exact kernel (``_bracket_rejections``), on the p-value
    rows ``exact_rows(band)`` returns. A row with fewer than u truncated logs
    has c(u) = 0 exactly in that kernel, and within the slack of 0 here.
    """
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
    # The statistic is summed in another order than the exact kernel's. Each
    # clipped log lies in [log LOG_FLOOR, 0], so a sum of at most n of them, in
    # any order, is off by less than n^2 eps |log LOG_FLOOR|. The exact kernel
    # makes one such sum; the top-k statistic makes two, the row total T and
    # the k smallest S(k), and one rounding of T - S(k). With c = -2 (...) the
    # two statistics differ by less than this slack, 7.9e-11 at n = 8.
    slack = 8.0 * n * n * np.finfo(float).eps * -math.log(LOG_FLOOR)
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
        out[u] = _bracket_rejections(
            c_stat,
            max(c_accept * (1.0 - _LEVEL_MARGIN), c_least) - slack,
            c_reject * (1.0 + _LEVEL_MARGIN) + slack,
            lambda band: _PCCurve(exact_rows(band), t)(u) <= level,
        )
    return out


def _directional_rejections(
    zt: np.ndarray, t: float, us: Collection[int], level: float, logs: np.ndarray | None = None
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Left and right ``r(u) <= level`` per column of an (n, rows) z matrix, for each u in ``us``.

    Each study is one contiguous row of ``zt``. The left p-values are
    ndtr(z), the right ones ndtr(-z): ``zt`` is negated in place for the
    right side and negated back. Every decision is that of ``_PCCurve`` on
    the p-value rows, bit for bit. ``logs``, a matrix of zt's shape, holds
    each side's truncated logs in turn; one is allocated when it is None.
    """
    from scipy import special

    if logs is None:
        logs = np.empty_like(zt)

    def side() -> dict[int, np.ndarray]:
        return _truncated_rejections(
            _truncated_logs(zt, t, logs), zt.shape[1], us, t, level,
            lambda band: special.ndtr(zt[:, band].T),
        )

    left = side()
    np.negative(zt, out=zt)
    right = side()
    np.negative(zt, out=zt)
    return left, right


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
    return float(_PCCurve(arr, t)(1)[0])


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
    return float(_PCCurve(arr, t)(u)[0])


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
    # bisection localizes the rejection boundary.
    while hi - lo > _DELTA_TOL:
        mid = 0.5 * (lo + hi)
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
