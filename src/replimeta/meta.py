"""Classical inverse-variance meta-analysis.

Fixed-effect and DerSimonian-Laird random-effects pooling, Cochran's Q with
the I-squared heterogeneity fraction, leave-one-out sensitivity refits, and
conversion of 2x2 count tables to log odds/risk ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy import special

from .statkernels import one_sided_p

__all__ = [
    "MetaAnalysisResult",
    "StudySummary",
    "binary_to_log_effect",
    "fixed_effect_meta",
    "heterogeneity",
    "leave_one_out",
    "q_test_p_value",
    "random_effects_meta",
]


@dataclass(frozen=True)
class StudySummary:
    """Effect estimate and standard error for one study, on the analysis scale.

    ``counts`` optionally carries the originating 2x2 table as
    (events_treatment, total_treatment, events_control, total_control).
    """

    label: str
    theta_hat: float
    se: float
    counts: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta_hat):
            raise ValueError(f"study {self.label!r}: effect estimate must be finite")
        if not (math.isfinite(self.se) and self.se > 0):
            raise ValueError(f"study {self.label!r}: se must be positive, got {self.se}")
        if not _has_finite_weight(self.se):
            raise ValueError(
                f"study {self.label!r}: se^2 and 1/se^2 must be finite and positive, "
                f"got se = {self.se}"
            )
        if self.counts is not None:
            events_t, total_t, events_c, total_c = self.counts
            if any(c < 0 or c != int(c) for c in self.counts):
                raise ValueError(f"study {self.label!r}: counts must be nonnegative integers")
            if total_t <= 0 or total_c <= 0:
                raise ValueError(f"study {self.label!r}: group totals must be positive")
            if events_t > total_t or events_c > total_c:
                raise ValueError(f"study {self.label!r}: events cannot exceed group totals")


def _has_finite_weight(se: float) -> bool:
    """Whether se**2 and the inverse-variance weight 1/se**2 are finite and positive."""
    try:
        var = se**2
    except OverflowError:
        return False
    return var > 0.0 and 1.0 / var < math.inf


@dataclass(frozen=True)
class MetaAnalysisResult:
    """Pooled estimate with its uncertainty and heterogeneity summaries."""

    model: str
    pooled: float
    se: float
    ci: tuple[float, float]
    p_two_sided: float
    q: float
    i_squared: float
    tau_squared: float


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def fixed_effect_meta(studies: Sequence[StudySummary], alpha: float = 0.05) -> MetaAnalysisResult:
    """Inverse-variance pooled estimate under a common true effect."""
    studies = list(studies)
    if not studies:
        raise ValueError("at least one study is required")
    _check_alpha(alpha)
    return _pool_studies(studies).result(0, "fixed", alpha)


def random_effects_meta(studies: Sequence[StudySummary], alpha: float = 0.05) -> MetaAnalysisResult:
    """Random-effects pooling with the DerSimonian-Laird moment estimator.

    The between-study variance estimate is truncated at zero, so homogeneous
    inputs reduce exactly to the fixed-effect analysis.
    """
    studies = list(studies)
    if len(studies) < 2:
        raise ValueError("random-effects model requires at least two studies")
    _check_alpha(alpha)
    return _pool_studies(studies).result(0, "random", alpha)


def heterogeneity(studies: Sequence[StudySummary]) -> tuple[float, float]:
    """Cochran's Q and the I-squared fraction it implies.

    I-squared is ``max(0, (Q - (n - 1)) / Q)`` for positive Q, and 0 when
    Q is 0 (identical estimates).
    """
    studies = list(studies)
    if len(studies) < 2:
        raise ValueError("heterogeneity requires at least two studies")
    pooled = _pool_studies(studies)
    return float(pooled.q[0]), float(pooled.i_squared[0])


def q_test_p_value(q: float, n_studies: int) -> float:
    """Upper-tail chi-square p-value of Cochran's Q on n-1 degrees of freedom."""
    if n_studies < 2:
        raise ValueError("Q test requires at least two studies")
    return float(special.chdtrc(n_studies - 1, q))


# leave_one_out pools at most this many estimates (an 8 MB matrix) per call,
# so its working memory stays near 75 MB whatever the number of studies.
_BLOCK_ELEMENTS = 1 << 20


def leave_one_out(
    studies: Sequence[StudySummary], model: str = "fixed", alpha: float = 0.05
) -> list[MetaAnalysisResult]:
    """Refit the chosen model n times, omitting one study each time.

    Result i corresponds to the analysis without study i, in input order.
    The n refits are the rows of pooling calls on blocks of leave-one-out
    sets, each block of at most ``_BLOCK_ELEMENTS`` estimates.
    """
    studies = list(studies)
    n = len(studies)
    if n < 3:
        raise ValueError("leave-one-out requires at least three studies")
    if model not in ("fixed", "random"):
        raise ValueError(f"model must be 'fixed' or 'random', got {model!r}")
    _check_alpha(alpha)
    theta_hat, se = _study_rows(studies)
    columns = np.arange(n - 1)
    step = max(1, _BLOCK_ELEMENTS // (n - 1))
    results = []
    for first in range(0, n, step):
        omitted = np.arange(first, min(first + step, n))
        # Row i keeps every study but i, in input order.
        keep = columns + (columns >= omitted[:, None])
        pooled = _pool_rows(theta_hat[keep], se[keep])
        results += [pooled.result(i, model, alpha) for i in range(len(omitted))]
    return results


def _ordered_sum(columns: Iterable) -> np.ndarray:
    # Study order, as ``sum`` adds a list; pairwise np.sum and BLAS products
    # add in other orders and change the last bits.
    total = 0.0
    for column in columns:
        total = total + column
    return total


@dataclass(frozen=True, eq=False)
class _Pooled:
    """Per-row results of ``_pool_rows``; each array has one value per row.

    ``_pool_rows`` computes the fixed-effect estimate and se. Q, I-squared,
    tau-squared and the random-effects estimate and se are computed on first
    use, so a caller that needs only the fixed-effect estimate pays for
    nothing else. With a shared se row, ``total`` and ``fe_se`` depend on no
    row and are scalars.
    """

    theta_hat: np.ndarray
    var: np.ndarray
    w: np.ndarray
    total: np.ndarray
    fe: np.ndarray
    fe_se: np.ndarray

    @cached_property
    def q(self) -> np.ndarray:
        """Cochran's Q, 0 for one study."""
        w, theta_hat, n = self.w, self.theta_hat, self.theta_hat.shape[1]
        if n < 2:
            return np.zeros_like(self.fe)
        return _ordered_sum(
            w[..., j] * np.float_power(theta_hat[:, j] - self.fe, 2.0) for j in range(n)
        )

    @cached_property
    def i_squared(self) -> np.ndarray:
        q, n = self.q, self.theta_hat.shape[1]
        # fmax(x, 0.0) is max(0.0, x): negative values and NaN become 0.0,
        # and so does the -inf that a subnormal Q gives.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(q > 0.0, np.fmax((q - (n - 1)) / q, 0.0), 0.0)

    @cached_property
    def tau_squared(self) -> np.ndarray:
        """The DerSimonian-Laird estimate, truncated at zero."""
        w, total, n = self.w, self.total, self.theta_hat.shape[1]
        c = total - _ordered_sum(w[..., j] * w[..., j] for j in range(n)) / total
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(c > 0.0, np.fmax((self.q - (n - 1)) / c, 0.0), 0.0)

    @cached_property
    def re(self) -> np.ndarray:
        theta_hat = self.theta_hat
        return _ordered_sum(
            self._re_weight(j) * theta_hat[:, j] for j in range(theta_hat.shape[1])
        ) / self._re_total

    @property
    def re_se(self) -> np.ndarray:
        return 1.0 / np.sqrt(self._re_total)

    @cached_property
    def _re_total(self) -> np.ndarray:
        return _ordered_sum(self._re_weight(j) for j in range(self.theta_hat.shape[1]))

    def _re_weight(self, j: int) -> np.ndarray:
        return 1.0 / (self.var[..., j] + self.tau_squared)

    def result(self, row: int, model: str, alpha: float) -> MetaAnalysisResult:
        """The fixed-effect or random-effects result of one row."""
        if model == "fixed":
            pooled, se, tau_squared = self.fe[row], self.fe_se[row], 0.0
        else:
            pooled, se, tau_squared = self.re[row], self.re_se[row], self.tau_squared[row]
        pooled, se = float(pooled), float(se)
        z_crit = float(special.ndtri(1.0 - alpha / 2.0))
        pair = one_sided_p(pooled, se)
        return MetaAnalysisResult(
            model=model,
            pooled=pooled,
            se=se,
            ci=(pooled - z_crit * se, pooled + z_crit * se),
            p_two_sided=2.0 * min(pair.left, pair.right),
            q=float(self.q[row]),
            i_squared=float(self.i_squared[row]),
            tau_squared=float(tau_squared),
        )


def _pool_rows(theta_hat: np.ndarray, se: np.ndarray) -> _Pooled:
    """Inverse-variance pooling of every row of a (rows, n) estimate matrix.

    ``se`` is one row of n standard errors shared by all rows, or a matrix of
    ``theta_hat``'s shape. Per row: the fixed-effect estimate and se, Cochran's
    Q and I-squared (both 0 for one study), the DerSimonian-Laird tau-squared
    truncated at zero, and the random-effects estimate and se. Sums run in
    study order and squares use libm ``pow`` (``np.square`` rounds
    differently), so results equal the Python-float formulas bit for bit.
    """
    n = theta_hat.shape[1]
    var = np.float_power(se, 2.0)
    w = 1.0 / var
    total = _ordered_sum(w[..., j] for j in range(n))
    fe = _ordered_sum(w[..., j] * theta_hat[:, j] for j in range(n)) / total
    return _Pooled(theta_hat, var, w, total, fe, 1.0 / np.sqrt(total))


def _overflow_index(studies: Sequence[StudySummary]) -> int | None:
    """Index of the study at which a pooling sum first can leave the doubles, or None.

    ``_pool_rows`` adds the weights 1/se**2, the products weight x estimate
    and Cochran's Q terms weight x (estimate - pooled)**2 in study order, and
    ``leave_one_out`` does so for every set without one study. The same sums
    in Python floats overflow to inf without a warning, so running bounds on
    them are checked here, for the studies so far. The sums of the weights
    and of |weight x estimate| bound those of every subset. A subset's pooled
    estimate is a weighted mean of its estimates, so each of them lies within
    the spread max - min of it, and the weight total times the squared spread,
    doubled to cover rounding, bounds Q of every subset.
    """
    total = weighted = 0.0
    lo, hi = math.inf, -math.inf
    for index, study in enumerate(studies):
        w = 1.0 / study.se**2
        total += w
        weighted += abs(w * study.theta_hat)
        lo, hi = min(lo, study.theta_hat), max(hi, study.theta_hat)
        spread = hi - lo
        q_bound = total * (spread * spread) * 2.0
        if not (math.isfinite(total) and math.isfinite(weighted) and math.isfinite(q_bound)):
            return index
    return None


def _study_rows(studies: Sequence[StudySummary]) -> np.ndarray:
    """A (2, n) array: the estimates, then the standard errors, in study order."""
    return np.array([[s.theta_hat for s in studies], [s.se for s in studies]], dtype=float)


def _pool_studies(studies: Sequence[StudySummary]) -> _Pooled:
    """``_pool_rows`` called with the studies as its one row."""
    theta_hat, se = _study_rows(studies)
    return _pool_rows(theta_hat[None, :], se[None, :])


def binary_to_log_effect(
    counts: tuple[int, int, int, int], measure: str = "odds_ratio"
) -> tuple[float, float]:
    """Log odds ratio or log risk ratio with its standard error from a 2x2 table.

    ``counts`` is (events_treatment, total_treatment, events_control,
    total_control). When any cell of the table is zero, 0.5 is added to all
    four cells to keep the log effect and its standard error finite.
    """
    events_t, total_t, events_c, total_c = counts
    if any(c < 0 for c in counts):
        raise ValueError("cell counts must be nonnegative")
    if total_t <= 0 or total_c <= 0:
        raise ValueError("both arms must have a positive total")
    if events_t > total_t or events_c > total_c:
        raise ValueError("events cannot exceed the arm total")

    a = float(events_t)
    b = float(total_t - events_t)
    c = float(events_c)
    d = float(total_c - events_c)
    if min(a, b, c, d) == 0.0:
        a, b, c, d = a + 0.5, b + 0.5, c + 0.5, d + 0.5

    if measure == "odds_ratio":
        theta = math.log((a * d) / (b * c))
        se = math.sqrt(1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d)
    elif measure == "risk_ratio":
        n1 = a + b
        n2 = c + d
        theta = math.log((a / n1) / (c / n2))
        se = math.sqrt(1.0 / a - 1.0 / n1 + 1.0 / c - 1.0 / n2)
    else:
        raise ValueError(f"measure must be 'odds_ratio' or 'risk_ratio', got {measure!r}")
    return theta, se
