"""Classical inverse-variance meta-analysis.

Fixed-effect and DerSimonian-Laird random-effects pooling, Cochran's Q with
the I-squared heterogeneity fraction, leave-one-out sensitivity refits, and
conversion of 2x2 count tables to log odds/risk ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

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


# ``_Pooled.re_abs_z_fast`` squares the deviations d from the fixed-effect
# estimate as d * d, where ``_Pooled.q`` uses libm pow, and bounds the effect
# on the random-effects z per row. Let e = 2^-52 and m = 2^-1022, the smallest
# normal double. The bound assumes |pow(d, 2) - d * d| <= 1 ulp of d * d, that
# is, at most e * max(d * d, m): both are within one ulp of d^2, d * d
# rounded correctly. The factors 2 below cover second-order terms and the
# roundings of the bound's own arithmetic.
#
# Q: each weighted square moves by at most w e max(d * d, m), and each of
# the two sums of n nonnegative terms carries a relative error of at most
# n e / 2 and an absolute one of n e m, so
#     dQ = 2 (n + 1) e (Q + (W + n) m),  W the weight total.
# Where Q + dQ <= n - 1, or where c <= 0, both tau-squared are exactly 0
# and so is the bound: every later step is the same in both.
# tau-squared = max((Q - (n - 1)) / c, 0) adds the rounding of a subtraction
# and a division, and taking the maximum with 0 moves nothing further:
#     dtau = 2 (dQ + 2 e (Q + n)) / c.
# Weights 1/(v + tau-squared), v the smallest variance: with
# rho = dtau / (v + tau-squared) <= 2^-10, each weight moves by a relative
#     eta = 1.01 rho + 3 e
# (rho over 1 - rho, plus the roundings of a sum and a reciprocal).
# z = N / sqrt(R), N the weighted sum of the estimates and R the weight
# total: R moves by a relative eta + n e, N by (eta + n e) A, A the sum of
# the weights times the absolute estimates, at most R max|estimate|, plus
# n e m for products that fall below m. The four roundings of re = N / R,
# 1 / sqrt(R) and re / se add 2 e |z| on each side. So
#     B = 2 (eta + (n + 8) e) (sqrt(R) max|estimate| + n m / sqrt(R) + |z|).
# Rows with rho > 2^-10, with tau-squared > 2^1000 (weights near m) or with a
# B that is not finite get B = inf: the caller decides them exactly.
_RHO_LIMIT = 2.0**-10
_TAU_SQUARED_LIMIT = 2.0**1000


@dataclass(frozen=True, eq=False)
class _Pooled:
    """Per-column results of ``_pool_rows``; each array has one value per column.

    ``_pool_rows`` computes the fixed-effect estimate and se. Q, I-squared,
    tau-squared and the random-effects estimate and se are computed on first
    use, so a caller that needs only the fixed-effect estimate pays for
    nothing else. With a shared se vector, ``total``, ``fe_se`` and ``c``
    depend on no column and are scalars. The per-column sums start from 0.0
    and add the studies in order into vectors filled in place: a fresh
    vector per term costs more than the arithmetic done on it.
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
        if len(self.theta_t) < 2:
            return np.zeros_like(self.fe)
        return self._q(lambda d: np.float_power(d, 2.0, out=d))

    def _q(self, square: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Cochran's Q with the deviations from ``fe`` squared in place by ``square``."""
        q, term = np.zeros_like(self.fe), np.empty_like(self.fe)
        for theta, w in zip(self.theta_t, self.w):
            square(np.subtract(theta, self.fe, out=term))
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
        """The DerSimonian-Laird scale W - sum(w^2) / W, W the weight total."""
        return self.total - _ordered_sum(w * w for w in self.w) / self.total

    @cached_property
    def tau_squared(self) -> np.ndarray:
        """The DerSimonian-Laird estimate, truncated at zero."""
        return self._tau_squared(self.q.copy())

    def _tau_squared(self, q: np.ndarray) -> np.ndarray:
        """max((Q - (n - 1)) / c, 0), and 0 where c <= 0, computed in the place of ``q``."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q -= len(self.theta_t) - 1
            q /= self.c
            # fmax also turns NaN into 0.0.
            np.fmax(q, 0.0, out=q)
        positive = self.c > 0.0
        if not np.all(positive):
            np.copyto(q, 0.0, where=~positive)
        return q

    @cached_property
    def re(self) -> np.ndarray:
        total, weighted = self._re_sums
        return weighted / total

    @property
    def re_se(self) -> np.ndarray:
        return 1.0 / np.sqrt(self._re_sums[0])

    @cached_property
    def _re_sums(self) -> tuple[np.ndarray, np.ndarray]:
        return self._re_totals(self.tau_squared)

    def _re_totals(self, tau_squared: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The totals of the weights 1/(se^2 + tau^2) and of weight x estimate.

        One study at a time, so that no weight matrix is held.
        """
        total, weighted = np.zeros_like(tau_squared), np.zeros_like(tau_squared)
        w, term = np.empty_like(tau_squared), np.empty_like(tau_squared)
        for var, theta in zip(self.var, self.theta_t):
            np.divide(1.0, np.add(var, tau_squared, out=w), out=w)
            total += w
            weighted += np.multiply(w, theta, out=term)
        return total, weighted

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def re_abs_z_fast(self) -> tuple[np.ndarray, np.ndarray]:
        """The random-effects |z| = |re / re_se| from d * d squares, and a bound B per column.

        B bounds its distance from the |z| of ``re`` and ``re_se``, which
        square with libm pow; d * d is 50 times faster, and B is derived in the
        comment above. Only Q, the slack and B are computed here: the weights,
        the fixed-effect estimate and c are the object's own.
        """
        n = len(self.theta_t)
        q = self._q(lambda d: np.multiply(d, d, out=d))
        term = np.empty_like(q)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        # dQ, then where tau-squared is 0 both ways, then 2 (dQ + 2 e (Q + n)).
        slack = (q + (self.total + n) * tiny) * (2.0 * (n + 1) * eps)
        zero_tau = (np.add(q, slack, out=term) <= n - 1) | np.logical_not(self.c > 0.0)
        slack += np.add(q, n, out=term) * (2.0 * eps)
        slack *= 2.0
        tau_squared = self._tau_squared(q)
        total, weighted = self._re_totals(tau_squared)
        top = np.maximum(self.theta_t.max(axis=0), -self.theta_t.min(axis=0))
        # z = (weighted / total) / (1 / sqrt(total)), as re / re_se.
        weighted /= total
        root = np.sqrt(total, out=total)
        weighted /= np.divide(1.0, root, out=term)
        abs_re = np.abs(weighted, out=weighted)
        # rho, then B = 2 (1.01 rho + (n + 11) e) (sqrt(R) top + n m / sqrt(R) + |z|).
        rho = slack
        rho /= self.c
        rho /= np.add(tau_squared, self.var.min(axis=0), out=term)
        exact = ~((rho <= _RHO_LIMIT) & (tau_squared <= _TAU_SQUARED_LIMIT))
        bound = top
        bound *= root
        bound += np.divide(n * tiny, root, out=term)
        bound += abs_re
        rho *= 1.01
        rho += (n + 11) * eps
        bound *= rho
        bound *= 2.0
        exact |= ~(bound < math.inf)
        bound[exact] = math.inf
        bound[zero_tau] = 0.0
        return abs_re, bound

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
    squares use libm ``pow`` (``np.square`` rounds differently), so results
    equal the Python-float formulas bit for bit.
    """
    var = np.float_power(se, 2.0)
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
    """Each study's share of the total weight, 1/(se**2 + tau_squared), in study order."""
    _, se = _study_rows(studies)
    w, total = _weights(np.float_power(se, 2.0), tau_squared)
    return (w / total).tolist()


_OVERFLOW_MESSAGE = (
    "the inverse-variance sums of 1/se^2, |estimate|/se^2, 1/se^4 or Cochran's Q "
    "up to this study can overflow a double"
)


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
    doubled to cover rounding, bounds Q of every subset. The DerSimonian-Laird
    tau-squared also adds the squared weights; their running sum is checked
    only once the other three hold on the whole set, so that a set whose
    weights overflow is named at the row where their sum does.
    """
    total = weighted = squares = 0.0
    lo, hi = math.inf, -math.inf
    first_square = None
    for index, study in enumerate(studies):
        w = 1.0 / study.se**2
        total += w
        weighted += abs(w * study.theta_hat)
        squares += w * w
        lo, hi = min(lo, study.theta_hat), max(hi, study.theta_hat)
        spread = hi - lo
        q_bound = total * (spread * spread) * 2.0
        if not (math.isfinite(total) and math.isfinite(weighted) and math.isfinite(q_bound)):
            return index
        if first_square is None and not math.isfinite(squares):
            first_square = index
    return first_square


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
