"""Classical inverse-variance meta-analysis.

Fixed-effect and DerSimonian-Laird random-effects pooling, Cochran's Q with
the I-squared heterogeneity fraction, leave-one-out sensitivity refits, and
conversion of 2x2 count tables to log odds/risk ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

# scipy.special is imported inside each function that calls it, on first use:
# it takes longer to load than the rest of the package, and a process that
# exits before any kernel runs (--help, --version, an input error) never needs it.

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
    """Effect estimate and standard error for one study, on the analysis scale."""

    label: str
    theta_hat: float
    se: float

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


def _has_finite_weight(se: float) -> bool:
    """Whether se * se and the inverse-variance weight 1/(se * se) are finite and positive."""
    var = se * se
    return 0.0 < var < math.inf and 1.0 / var < math.inf


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


@lru_cache(maxsize=None)
def _z_crit(alpha: float) -> float:
    """The two-sided normal critical value ndtri(1 - alpha/2)."""
    from scipy import special

    return float(special.ndtri(1.0 - alpha / 2.0))


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
    from scipy import special

    return float(special.chdtrc(n_studies - 1, q))


# leave_one_out pools at most this many estimates (an 8 MB matrix) per call,
# so its working memory stays near 75 MB whatever the number of studies.
_BLOCK_ELEMENTS = 1 << 20


def leave_one_out(
    studies: Sequence[StudySummary], model: str = "fixed", alpha: float = 0.05
) -> list[MetaAnalysisResult]:
    """Refit the chosen model n times, omitting one study each time.

    Result i corresponds to the analysis without study i, in input order.
    The n refits are the columns of pooling calls on blocks of leave-one-out
    sets, each block of at most ``_BLOCK_ELEMENTS`` estimates.
    """
    studies = list(studies)
    n = len(studies)
    if n < 3:
        raise ValueError("leave-one-out requires at least three studies")
    if model not in ("fixed", "random"):
        raise ValueError(f"model must be 'fixed' or 'random', got {model!r}")
    _check_alpha(alpha)
    _check_pooling_range(studies)
    theta_hat, se = _study_rows(studies)
    positions = np.arange(n - 1)[:, None]
    step = max(1, _BLOCK_ELEMENTS // (n - 1))
    results = []
    for first in range(0, n, step):
        omitted = np.arange(first, min(first + step, n))
        # Column i keeps every study but i, in input order.
        keep = positions + (positions >= omitted)
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
    """Per-column results of ``_pool_rows``; each array has one value per column.

    ``_pool_rows`` computes the fixed-effect estimate and se. Q, I-squared,
    tau-squared and the random-effects estimate and se are computed on first
    use, so a caller that needs only the fixed-effect estimate pays for
    nothing else. With a shared se vector, ``total``, ``fe_se`` and ``c``
    depend on no column and are scalars. The per-column sums start from 0.0
    and add the studies in order into vectors filled in place: a fresh
    vector per term costs more than the arithmetic done on it. The scalar
    API reads one column, and the Monte Carlo harness's ``meta_fe`` and
    ``meta_re`` read them all, so the two agree bit for bit.
    """

    theta_t: np.ndarray
    var: np.ndarray
    w: np.ndarray
    total: np.ndarray
    fe: np.ndarray
    fe_se: np.ndarray

    @cached_property
    def q(self) -> np.ndarray:
        """Cochran's Q, 0 for one study."""
        q = np.zeros_like(self.fe)
        if len(self.theta_t) < 2:
            return q
        term = np.empty_like(self.fe)
        for theta, w in zip(self.theta_t, self.w):
            np.subtract(theta, self.fe, out=term)
            np.multiply(term, term, out=term)
            term *= w
            q += term
        return q

    @cached_property
    def i_squared(self) -> np.ndarray:
        q, n = self.q, len(self.theta_t)
        # fmax(x, 0.0) is max(0.0, x): negative values and NaN become 0.0,
        # and so does the -inf that a subnormal Q gives.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(q > 0.0, np.fmax((q - (n - 1)) / q, 0.0), 0.0)

    @cached_property
    def c(self) -> np.ndarray:
        """The DerSimonian-Laird scale W - sum(w^2) / W, W the weight total.

        W^2 - sum(w^2) is twice the sum of w_i w_j over the pairs i < j, so c
        is summed as 2 sum_j w_j P_j / W, where P_j is the sum of the weights
        before study j: every term is positive, so nothing cancels when one
        weight dominates, as the subtraction would. Each P_j is divided by W
        before it is multiplied, so that no term exceeds w_j and the sum
        cannot overflow.
        """
        c, before = np.zeros_like(self.total), np.zeros_like(self.total)
        term = np.empty_like(self.total)
        for w in self.w:
            np.divide(before, self.total, out=term)
            term *= w
            c += term
            before += w
        return 2.0 * c

    @cached_property
    def tau_squared(self) -> np.ndarray:
        """The DerSimonian-Laird estimate max((Q - (n - 1)) / c, 0), and 0 where c <= 0."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            tau_squared = self.q - (len(self.theta_t) - 1)
            tau_squared /= self.c
            # fmax also turns NaN into 0.0.
            np.fmax(tau_squared, 0.0, out=tau_squared)
        positive = self.c > 0.0
        if not np.all(positive):
            np.copyto(tau_squared, 0.0, where=~positive)
        return tau_squared

    @cached_property
    def re(self) -> np.ndarray:
        total, weighted = self._re_sums
        return weighted / total

    @property
    def re_se(self) -> np.ndarray:
        return 1.0 / np.sqrt(self._re_sums[0])

    @cached_property
    def _re_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """The totals of the weights 1/(se^2 + tau^2) and of weight x estimate.

        One study at a time, so that no weight matrix is held.
        """
        tau_squared = self.tau_squared
        total, weighted = np.zeros_like(tau_squared), np.zeros_like(tau_squared)
        w, term = np.empty_like(tau_squared), np.empty_like(tau_squared)
        for var, theta in zip(self.var, self.theta_t):
            np.divide(1.0, np.add(var, tau_squared, out=w), out=w)
            total += w
            weighted += np.multiply(w, theta, out=term)
        return total, weighted

    def result(self, row: int, model: str, alpha: float) -> MetaAnalysisResult:
        """The fixed-effect or random-effects result of one row."""
        if model == "fixed":
            pooled, se, tau_squared = self.fe[row], self.fe_se[row], 0.0
        else:
            pooled, se, tau_squared = self.re[row], self.re_se[row], self.tau_squared[row]
        pooled, se = float(pooled), float(se)
        z_crit = _z_crit(alpha)
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


def _pool_rows(theta_t: np.ndarray, se: np.ndarray) -> _Pooled:
    """Inverse-variance pooling of every column of an (n, rows) estimate matrix.

    Each study is one row of ``theta_t``. ``se`` is a vector of n standard
    errors shared by all columns, or a matrix of ``theta_t``'s shape. Per
    column: the fixed-effect estimate and se, Cochran's Q and I-squared (both
    0 for one study), the DerSimonian-Laird tau-squared truncated at zero,
    and the random-effects estimate and se. Sums run in study order and
    squares are products x * x, so results equal the Python-float formulas
    bit for bit.
    """
    var = se * se
    w, total = _weights(var, 0.0)
    fe, term = np.zeros(theta_t.shape[1:]), np.empty(theta_t.shape[1:])
    for theta, weight in zip(theta_t, w):
        fe += np.multiply(theta, weight, out=term)
    fe /= total
    return _Pooled(theta_t, var, w, total, fe, 1.0 / np.sqrt(total))


def _weights(var: np.ndarray, tau_squared) -> tuple[np.ndarray, np.ndarray]:
    """The weights 1/(var + tau_squared), and their total in study order.

    ``var`` holds the variances of the studies along its first axis, and
    ``tau_squared`` is one value.
    """
    w = np.add(var, tau_squared)
    np.divide(1.0, w, out=w)
    return w, _ordered_sum(w)


def _forest_weights(studies: Sequence[StudySummary], tau_squared: float) -> list[float]:
    """Each study's share of the total weight, 1/(se * se + tau_squared), in study order."""
    _, se = _study_rows(studies)
    w, total = _weights(se * se, tau_squared)
    return (w / total).tolist()


_OVERFLOW_MESSAGE = (
    "the inverse-variance sums of 1/se^2, |estimate|/se^2 or Cochran's Q "
    "up to this study can overflow a double"
)


def _overflow_index(studies: Sequence[StudySummary]) -> int | None:
    """Index of the study at which a pooling sum first can leave the doubles, or None.

    ``_pool_rows`` adds the weights 1/(se * se), the products weight x
    estimate and Cochran's Q terms weight x d * d, d = estimate - pooled, in
    study order, and ``leave_one_out`` does so for every set without one
    study. The same sums in Python floats overflow to inf without a warning,
    so running bounds on them are checked here, for the studies so far. The
    sums of the weights and of |weight x estimate| bound those of every
    subset. A subset's pooled estimate is a weighted mean of its estimates, so
    each of them lies within the spread max - min of it, and the weight total
    times the squared spread, doubled to cover rounding, bounds Q of every
    subset.
    """
    total = weighted = 0.0
    lo, hi = math.inf, -math.inf
    for index, study in enumerate(studies):
        w = 1.0 / (study.se * study.se)
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


def _check_pooling_range(studies: Sequence[StudySummary]) -> None:
    """Raise ValueError, naming the study, where ``_overflow_index`` finds one."""
    index = _overflow_index(studies)
    if index is not None:
        raise ValueError(f"study {studies[index].label!r}: {_OVERFLOW_MESSAGE}")


def _pool_studies(studies: Sequence[StudySummary]) -> _Pooled:
    """``_pool_rows`` called with the studies as its one column, after the overflow check."""
    _check_pooling_range(studies)
    theta_hat, se = _study_rows(studies)
    return _pool_rows(theta_hat[:, None], se[:, None])


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
