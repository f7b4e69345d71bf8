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


@lru_cache(maxsize=None)
def _z_crit(alpha: float) -> float:
    """The two-sided normal critical value ndtri(1 - alpha/2)."""
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
    _check_pooling_range(studies)
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
        total, weighted = self._re_sums
        return weighted / total

    @property
    def re_se(self) -> np.ndarray:
        return 1.0 / np.sqrt(self._re_sums[0])

    @cached_property
    def _re_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """The total of the weights 1/(se^2 + tau^2) and of weight x estimate, in study order.

        One column at a time, so that no weight matrix is held.
        """
        total = weighted = 0.0
        for j in range(self.theta_hat.shape[1]):
            w = 1.0 / (self.var[..., j] + self.tau_squared)
            total = total + w
            weighted = weighted + w * self.theta_hat[:, j]
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
    w, total = _weights(var, 0.0)
    fe = _ordered_sum(w[..., j] * theta_hat[:, j] for j in range(n)) / total
    return _Pooled(theta_hat, var, w, total, fe, 1.0 / np.sqrt(total))


def _weights(var: np.ndarray, tau_squared) -> tuple[np.ndarray, np.ndarray]:
    """The weights 1/(var + tau_squared), and their total per row in study order.

    ``var`` holds the variances of the studies along its last axis, and
    ``tau_squared`` is 0.0 or one value per row.
    """
    w = np.add(var, tau_squared)
    np.divide(1.0, w, out=w)
    return w, _ordered_sum(w[..., j] for j in range(w.shape[-1]))


def _forest_weights(studies: Sequence[StudySummary], tau_squared: float) -> list[float]:
    """Each study's share of the total weight, 1/(se**2 + tau_squared), in study order."""
    _, se = _study_rows(studies)
    w, total = _weights(np.float_power(se, 2.0), tau_squared)
    return (w / total).tolist()


# ``_pooled_abs_z`` squares the deviations d from the fixed-effect estimate as
# d * d, where ``_pool_rows`` uses libm pow, and bounds the effect on the
# random-effects z per row. Let e = 2^-52 and m = 2^-1022, the smallest
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


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _pooled_abs_z(
    theta_t: np.ndarray, se: np.ndarray, random_effects: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Pooled |z| = |estimate / se| per column of an (n, rows) estimate matrix.

    ``se`` is one row of n standard errors shared by all columns. Returns the
    fixed-effect |z| and, with ``random_effects``, the random-effects |z| and
    a bound B on its distance from the |z| of ``_pool_rows``. The
    fixed-effect z repeats ``_pool_rows``'s operations in the same order, so
    it equals that z bit for bit. The random-effects z squares with d * d
    instead of libm pow, which is 50 times faster; B is derived in the
    comment above. Each sum starts from 0.0 and adds the studies in order, as
    ``_ordered_sum`` does. Work vectors are filled in place and no matrix is
    allocated: a fresh matrix of a chunk's size costs more in page faults
    than the arithmetic done on it.
    """
    n, rows = theta_t.shape
    var = np.float_power(se, 2.0)
    w, total = _weights(var, 0.0)
    term = np.empty(rows)
    fe = np.zeros(rows)
    for j in range(n):
        fe += np.multiply(theta_t[j], w[j], out=term)
    fe /= total
    abs_fe = np.abs(fe / (1.0 / np.sqrt(total)))
    if not random_effects:
        return abs_fe, None, None
    q = np.zeros(rows)
    for j in range(n):
        np.subtract(theta_t[j], fe, out=term)
        term *= term
        term *= w[j]
        q += term
    c = total - _ordered_sum(w * w) / total
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    # dQ, then where tau-squared is 0 both ways, then 2 (dQ + 2 e (Q + n)).
    slack = (q + (total + n) * tiny) * (2.0 * (n + 1) * eps)
    zero_tau = np.add(q, slack, out=term) <= n - 1
    slack += np.add(q, n, out=term) * (2.0 * eps)
    slack *= 2.0
    # Q becomes tau-squared in place, as _Pooled.tau_squared computes it.
    tau_squared = q
    if c > 0.0:
        tau_squared -= n - 1
        tau_squared /= c
        np.fmax(tau_squared, 0.0, out=tau_squared)
    else:
        tau_squared.fill(0.0)
    re_w, re_total, weighted, top = np.empty(rows), np.zeros(rows), np.zeros(rows), np.zeros(rows)
    for j in range(n):
        # The weights of ``_weights``.
        np.divide(1.0, np.add(var[j], tau_squared, out=re_w), out=re_w)
        re_total += re_w
        weighted += np.multiply(re_w, theta_t[j], out=term)
        np.maximum(top, np.abs(theta_t[j], out=term), out=top)
    # z = (weighted / re_total) / (1 / sqrt(re_total)), as _Pooled.re / re_se.
    weighted /= re_total
    root = np.sqrt(re_total, out=re_total)
    weighted /= np.divide(1.0, root, out=re_w)
    abs_re = np.abs(weighted, out=weighted)
    # rho, then B = 2 (1.01 rho + (n + 11) e) (sqrt(R) top + n m / sqrt(R) + |z|).
    rho = slack
    rho /= c
    rho /= np.add(tau_squared, var.min(), out=term)
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
    if c > 0.0:
        bound[zero_tau] = 0.0
    else:
        bound.fill(0.0)
    return abs_fe, abs_re, bound


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
    """``_pool_rows`` called with the studies as its one row, after the overflow check."""
    _check_pooling_range(studies)
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
