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
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Literal, Sequence

import numpy as np

from scipy import special

from . import meta
from .meta import StudySummary
from .statkernels import LOG_CEIL, LOG_FLOOR, binomial_pmf, normal_cdf, one_sided_p

__all__ = [
    "Consistency",
    "PartialConjunctionResult",
    "ReplicabilityReport",
    "SUBSET_ENUMERATION_CAP",
    "TruncationConfig",
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


@dataclass(frozen=True)
class TruncationConfig:
    """Truncation threshold for the product statistic and the nominal test level."""

    t: float = 0.05
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.t <= 1.0:
            raise ValueError(f"truncation threshold t must be in (0, 1], got {self.t}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


DEFAULT_CONFIG = TruncationConfig()


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
    """Confidence bounds on study counts per direction plus the u=2 r-value."""

    u_max_left: int
    u_max_right: int
    r_value: float
    consistency: Consistency
    confidence: float

    def __post_init__(self) -> None:
        if self.u_max_left < 0 or self.u_max_right < 0:
            raise ValueError("bounds must be nonnegative")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")


def _validate_pvalues(p_values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(p_values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("p-values must form a one-dimensional sequence")
    if arr.size and not (np.all(np.isfinite(arr)) and arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    return arr


@lru_cache(maxsize=None)
def _pmf_weights(length: int, t: float) -> tuple[float, ...]:
    # P(exactly k of `length` independent uniforms fall at or below t), k=1..length
    return tuple(binomial_pmf(k, length, t) for k in range(1, length + 1))


def _truncated_product_rows(sorted_rows: np.ndarray, t: float) -> np.ndarray:
    """Combination p-value for each row of a (rows, L) matrix of p-values.

    Rows must be clipped to [LOG_FLOOR, LOG_CEIL] and sorted, which makes the
    statistic a canonical function of the multiset of p-values.
    """
    length = sorted_rows.shape[1]
    truncated = sorted_rows <= t
    c_stat = -2.0 * np.sum(np.where(truncated, np.log(sorted_rows), 0.0), axis=1)
    ks = np.arange(1, length + 1, dtype=float)
    weights = np.asarray(_pmf_weights(length, t))
    # Conditional on k truncated p-values, -log(product / t^k) is Gamma(k, 1);
    # the upper tail is evaluated directly to avoid cancellation. The weighted
    # sum uses np.sum, whose reduction tree depends only on the row length, so
    # batched and single-row calls agree bitwise.
    args = np.maximum(c_stat[:, None] / 2.0 + ks[None, :] * math.log(t), 0.0)
    mixture = np.sum(special.gammaincc(ks[None, :], args) * weights[None, :], axis=1)
    out = np.clip(mixture, 0.0, 1.0)
    out[~truncated.any(axis=1)] = 1.0
    return out


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


def truncated_product_p(p_values: Sequence[float], cfg: TruncationConfig = DEFAULT_CONFIG) -> float:
    """P-value of the truncated product of p-values at threshold ``cfg.t``.

    When no p-value is at or below the threshold the observed product is the
    empty product 1 and the weakest possible p-value, exactly 1, is returned.
    At t=1 this is Fisher's combination.
    """
    arr = _validate_pvalues(p_values)
    if arr.size == 0:
        raise ValueError("p_values must be nonempty")
    return float(_PCCurve(arr, cfg.t)(1)[0])


def partial_conjunction_p(
    p_one_sided: Sequence[float], u: int, cfg: TruncationConfig = DEFAULT_CONFIG
) -> float:
    """P-value for "at least u studies have an effect" in one direction.

    Equal to the truncated-product p-value of the n-u+1 largest one-sided
    p-values, which is the maximum over all (n-u+1)-subsets because the
    statistic is monotone in each p-value.
    """
    arr = _validate_pvalues(p_one_sided)
    if arr.size == 0:
        raise ValueError("p_one_sided must be nonempty")
    if not 1 <= u <= arr.size:
        raise ValueError(f"u must be in [1, {arr.size}], got {u}")
    return float(_PCCurve(arr, cfg.t)(u)[0])


def _check_pairing(left: np.ndarray, right: np.ndarray) -> None:
    if left.size != right.size:
        raise ValueError(f"left and right lists differ in length ({left.size} vs {right.size})")
    if left.size and float(np.max(np.abs(left + right - 1.0))) > 1e-6:
        raise ValueError("each left/right pair must sum to 1")


def r_value(
    left_ps: Sequence[float],
    right_ps: Sequence[float],
    u: int,
    cfg: TruncationConfig = DEFAULT_CONFIG,
) -> PartialConjunctionResult:
    """Two-directional p-value for "at least u studies share an effect direction".

    Twice the smaller of the directional p-values, capped at 1.
    """
    left = _validate_pvalues(left_ps)
    right = _validate_pvalues(right_ps)
    _check_pairing(left, right)
    r_left = partial_conjunction_p(left, u, cfg)
    r_right = partial_conjunction_p(right, u, cfg)
    return PartialConjunctionResult(
        u=u,
        r_left=r_left,
        r_right=r_right,
        r=min(1.0, 2.0 * min(r_left, r_right)),
        t=cfg.t,
    )


def confidence_bounds(
    left_ps: Sequence[float],
    right_ps: Sequence[float],
    cfg: TruncationConfig = DEFAULT_CONFIG,
) -> tuple[int, int]:
    """Confidence lower bounds on the number of studies with effects per direction.

    Each side is tested sequentially at level alpha/2, so the pair holds
    jointly with confidence 1 - alpha.
    """
    left = _validate_pvalues(left_ps)
    right = _validate_pvalues(right_ps)
    _check_pairing(left, right)
    level = cfg.alpha / 2.0
    return (
        _leading_rejections(_PCCurve(left, cfg.t), level),
        _leading_rejections(_PCCurve(right, cfg.t), level),
    )


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
    theta_hat: np.ndarray, se: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest pooled z over every ``size``-subset of columns, per row.

    ``theta_hat`` is a (rows, n) estimate matrix and ``se`` one row of n
    standard errors shared by all rows. A subset's pooled z is
    sum(w * theta) / sqrt(sum(w)) with w = 1 / se**2. Weights square with
    libm ``pow`` and each subset's sums run in ascending column order, so the
    result equals the Python-float formulas bit for bit. Subsets are pooled in
    blocks of at most ``meta._BLOCK_ELEMENTS`` elements (at least one subset).
    """
    rows, n = theta_hat.shape
    w = 1.0 / np.float_power(se, 2.0)
    # (n, rows), so that gathering a study is a contiguous copy. Adding 0.0
    # turns -0.0 into 0.0, as Python's sum, which starts from 0, does.
    weighted = np.empty((n, rows))
    np.multiply(theta_hat.T, w[:, None], out=weighted)
    weighted += 0.0
    z_min = np.full(rows, math.inf)
    z_max = np.full(rows, -math.inf)
    step = max(1, meta._BLOCK_ELEMENTS // (rows + size))
    subsets = combinations(range(n), size)
    while True:
        block = np.fromiter(chain.from_iterable(islice(subsets, step)), dtype=np.intp)
        if not block.size:
            return z_min, z_max
        block = block.reshape(-1, size)
        num = weighted[block[:, 0]]
        den = w[block[:, 0]]
        for j in range(1, size):
            num += weighted[block[:, j]]
            den += w[block[:, j]]
        z = num / np.sqrt(den)[:, None]
        # fmin/fmax pass over NaN, as the comparisons of a Python loop do.
        np.fmin(z_min, np.fmin.reduce(z, axis=0), out=z_min)
        np.fmax(z_max, np.fmax.reduce(z, axis=0), out=z_max)


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
    z_min, z_max = _fe_z_extremes(theta_hat[None, :], se, size)
    # Right-sided p is largest at the smallest pooled z, left-sided at the largest.
    r_right = normal_cdf(-float(z_min[0]))
    r_left = normal_cdf(float(z_max[0]))
    return PartialConjunctionResult(
        u=u,
        r_left=r_left,
        r_right=r_right,
        r=min(1.0, 2.0 * min(r_left, r_right)),
        t=None,
    )


def delta_bound(
    studies: Sequence[StudySummary],
    u: int,
    alpha: float = 0.05,
    side: str = "upper_positive",
    cfg: TruncationConfig | None = None,
    tol: float = 1e-6,
) -> float | None:
    """Largest shift for which "at least u studies exceed the shift" still holds.

    For ``upper_positive`` the null effect is moved from 0 to +delta and the
    right-sided partial-conjunction test is run at level alpha/2; for
    ``lower_negative`` it is moved to -delta with the left-sided test. Returns
    the boundary delta found by bisection, or None when the unshifted test is
    not significant and a bound is not meaningful.
    """
    studies = list(studies)
    n = len(studies)
    if n == 0:
        raise ValueError("at least one study is required")
    if not 1 <= u <= n:
        raise ValueError(f"u must be in [1, {n}], got {u}")
    if side not in ("upper_positive", "lower_negative"):
        raise ValueError(f"side must be 'upper_positive' or 'lower_negative', got {side!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if cfg is None:
        cfg = TruncationConfig(t=alpha, alpha=alpha)
    level = alpha / 2.0

    def shifted_p(delta: float) -> float:
        if side == "upper_positive":
            ps = [one_sided_p(s.theta_hat, s.se, shift=delta).right for s in studies]
        else:
            ps = [one_sided_p(s.theta_hat, s.se, shift=-delta).left for s in studies]
        return partial_conjunction_p(ps, u, cfg)

    if shifted_p(0.0) > level:
        return None
    hi = max(abs(s.theta_hat) for s in studies) + 10.0 * max(s.se for s in studies)
    if shifted_p(hi) <= level:
        return hi
    lo = 0.0
    # The shifted p-value is monotone nondecreasing in delta, so plain
    # bisection localizes the rejection boundary.
    while hi - lo > tol:
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
