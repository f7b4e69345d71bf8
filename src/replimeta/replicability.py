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

Every list of studies gets its one-sided p-values from one row function,
``_one_sided_rows``, which equals ``one_sided_p`` per study bit for bit.

The row kernels ``_PCCurve``, ``_fe_z_extremes`` and ``_normal_cdf_rows``
also settle the Monte Carlo harness's close calls, which read the
truncated-product tail in log space from the arrays of ``_tail_arrays`` and
reach ``_product_tail`` only within a rounding distance of the level; its
decision rule is ``simulation``'s.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Literal, Sequence

import numpy as np

# scipy.special is imported by ``_product_tail`` alone, on first use, past
# ``_SCALAR_TAIL_LENGTH`` ks (see meta).

from . import meta
from .meta import StudySummary
from .statkernels import LOG_CEIL, LOG_FLOOR, _igamc, _normal_tail, normal_cdf

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


class _TailArrays:
    """The arrays of the truncated-product tail at one (length, t), k = 1..length.

    ``_product_tail`` reads ks, the binomial weights and k log t; the
    harness's log-space tail also reads the weights' logs
    (``_log_pmf_weights``) and the log factorials, a view of the shared
    ``_lgamma_table``. A weight is ``math.exp`` of its log, and exactly 0 where
    the log is at most ``_EXP_UNDERFLOW``.
    """

    def __init__(self, length: int, t: float) -> None:
        self.ks = np.arange(1, length + 1, dtype=float)
        self.log_weights = _log_pmf_weights(length, t)
        self.weights = np.zeros(length)
        live = np.flatnonzero(self.log_weights > _EXP_UNDERFLOW)
        self.weights[live] = [math.exp(v) for v in self.log_weights[live].tolist()]
        self.k_log_t = self.ks * math.log(t)
        self.log_factorials = _lgamma_table(length)

    @property
    def nbytes(self) -> int:
        """The bytes of the arrays this entry owns (not the shared log factorials)."""
        return self.ks.nbytes + self.weights.nbytes + self.log_weights.nbytes + self.k_log_t.nbytes


# math.exp of an argument at or below this is 0: exp(-745.14) is below half
# the smallest subnormal double.
_EXP_UNDERFLOW = -746.0
# math.lgamma(i), i = 1, 2, ...: shared by every _TailArrays, and at least
# doubled when it grows, so the older tables that entries still view hold no
# more than the newest.
_LGAMMA = np.empty(0)


def _lgamma_table(size: int) -> np.ndarray:
    """lgamma(i), the log of (i - 1)!, for i = 1..size."""
    global _LGAMMA
    if _LGAMMA.size < size:
        grown = max(size, 2 * _LGAMMA.size)
        _LGAMMA = np.append(_LGAMMA, [math.lgamma(i) for i in range(_LGAMMA.size + 1, grown + 1)])
    return _LGAMMA[:size]


def _log_pmf_weights(length: int, t: float) -> np.ndarray:
    """log P(exactly k of ``length`` independent uniforms fall at or below t), k = 1..length.

    Each binomial mass is taken in log space, so that it does not underflow
    to zero for lengths in the thousands; it is -inf where the mass is 0 (t = 1).
    The terms are those of
    lgamma(length + 1) - lgamma(k + 1) - lgamma(length - k + 1) + k log t + (length - k) log(1 - t),
    combined from the left, element by element, so each equals that scalar formula's double.
    """
    if t == 1.0:
        out = np.full(length, -math.inf)
        out[length - 1 :] = 0.0
        return out
    ks = np.arange(1, length + 1, dtype=float)
    lgamma = _lgamma_table(length + 1)  # lgamma(i + 1) at index i
    return (
        lgamma[length] - lgamma[1:] - lgamma[:length][::-1]
        + ks * math.log(t) + (length - ks) * math.log1p(-t)
    )


# The bytes of ``_TailArrays`` that ``_tail_arrays`` keeps, counting each
# entry's own arrays plus _TAIL_ENTRY_BYTES for its objects. A walk over every
# length 1..1000 at one t takes 17 MB of it, so the second side of a walk at
# 1000 studies reads the first side's arrays; a sweep over many t values
# evicts the least recently used first.
_TAIL_CACHE_BYTES = 24 << 20
_TAIL_ENTRY_BYTES = 1024


class _TailCache:
    """``_TailArrays`` by (length, t), least recently used out first once they
    hold more than ``capacity`` bytes (the newest entry always stays)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.held = 0
        self._entries: OrderedDict[tuple[int, float], _TailArrays] = OrderedDict()

    def __call__(self, length: int, t: float) -> _TailArrays:
        key = (length, t)
        arrays = self._entries.get(key)
        if arrays is not None:
            self._entries.move_to_end(key)
            return arrays
        arrays = self._entries[key] = _TailArrays(length, t)
        self.held += arrays.nbytes + _TAIL_ENTRY_BYTES
        while self.held > self.capacity and len(self._entries) > 1:
            _, old = self._entries.popitem(last=False)
            self.held -= old.nbytes + _TAIL_ENTRY_BYTES
        return arrays


_tail_arrays = _TailCache(_TAIL_CACHE_BYTES)


_normal_tail_elements = np.frompyfunc(_normal_tail, 1, 1)


def _normal_cdf_rows(z: np.ndarray) -> np.ndarray:
    """``normal_cdf`` of each entry of a float array, bit for bit; a NaN entry gives NaN."""
    return _normal_tail_elements(z).astype(float)


# Python floats overflow to inf without a warning.
@np.errstate(over="ignore")
def _one_sided_rows(
    theta: np.ndarray,
    se: np.ndarray,
    shift: float | np.ndarray = 0.0,
    sides: Sequence[str] = ("left", "right"),
) -> tuple[np.ndarray, ...]:
    """``one_sided_p(theta, se, shift)`` per entry, bit for bit: one array per side in ``sides``.

    z = (theta - shift) / se is formed once, with the scalar's subtraction
    and division, and each side is one ``_normal_cdf_rows`` call: on z for
    "left", on -z for "right". The se must be positive, as ``StudySummary``
    makes it.
    """
    z = np.subtract(theta, shift, dtype=float)
    z /= se
    return tuple(_normal_cdf_rows(np.negative(z) if side == "right" else z) for side in sides)


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


# _product_tail takes its gamma tails from the scalar ``_igamc`` up to this
# many ks, so that analyze and bounds on up to 20 studies load no scipy;
# past it, scipy's gammaincc, the same bits at about a fiftieth of the cost
# per element (4 us against 0.08 us), is imported: a walk over n studies
# takes n^2 / 2 of them.
_SCALAR_TAIL_LENGTH = 20
_igamc_elements = np.frompyfunc(_igamc, 2, 1)


def _product_tail(c_stat: np.ndarray, length: int, t: float) -> np.ndarray:
    """Null p-value of each statistic c, -2 times a sum of ``length`` ``_truncated_terms``.

    A statistic of 0 (nothing truncated, an empty product of 1) gets the
    weakest possible p-value, exactly 1.
    """
    arrays = _tail_arrays(length, t)
    # Conditional on k truncated p-values, -log(product / t^k) is Gamma(k, 1);
    # the upper tail is evaluated directly to avoid cancellation. The weighted
    # sum uses np.sum, whose reduction tree depends only on the row length, so
    # batched and single-row calls agree bitwise.
    args = np.maximum(c_stat[:, None] / 2.0 + arrays.k_log_t[None, :], 0.0)
    if length <= _SCALAR_TAIL_LENGTH:
        upper = _igamc_elements(arrays.ks[None, :], args).astype(float)
    else:
        from scipy import special

        upper = special.gammaincc(arrays.ks[None, :], args)
    mixture = np.sum(upper * arrays.weights[None, :], axis=1)
    out = np.clip(mixture, 0.0, 1.0)
    out[c_stat <= 0.0] = 1.0
    return out


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

    def statistic(self, u: int) -> np.ndarray:
        """c(u) of each row: -2 times the sum of its n-u+1 largest terms, 0 when u > n."""
        return -2.0 * np.sum(self._sorted[:, u - 1 :], axis=1)

    def __call__(self, u: int) -> np.ndarray:
        if u not in self._values:
            self._values[u] = _product_tail(self.statistic(u), max(len(self) - u + 1, 0), self._t)
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
    not significant and a bound is not meaningful; t defaults to alpha. Each
    step takes the tested side's shifted p-values from one ``_one_sided_rows``
    call, ``one_sided_p`` of every study bit for bit, and passes them to
    ``partial_conjunction_p``.
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
    theta, se = meta._study_rows(studies)
    sign, tested = (1.0, "right") if side == "upper_positive" else (-1.0, "left")

    def shifted_p(delta: float) -> float:
        (ps,) = _one_sided_rows(theta, se, sign * delta, (tested,))
        return partial_conjunction_p(ps, u, t)

    if shifted_p(0.0) > level:
        return None
    # At hi every study's shifted z on the tested side is at most -10, so each
    # one-sided p-value rounds to 1.0 and the shifted test cannot reject there.
    hi = float(np.max(np.abs(theta))) + 10.0 * float(np.max(se))
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
