"""Scalar distribution primitives shared by the meta-analysis and replicability layers.

Everything here is pure, reentrant, and cheap enough to call inside tight
simulation loops. Tail probabilities are evaluated on the survival side where
it matters so that left/right p-value pairs stay complementary at full double
precision instead of degrading through ``1 - p``.

``_ndtri`` is the package's one normal quantile: the meta-analysis critical
value and the Monte Carlo harness's level quantiles both read it. It is a
port of Cephes' ndtri, the routine behind ``scipy.special.ndtri``, and
returns the same bits, so no process needs scipy for a quantile.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "LOG_CEIL",
    "LOG_FLOOR",
    "PValuePair",
    "normal_cdf",
    "one_sided_p",
]

# Probabilities are clamped into this range before any log is taken, so that
# combination statistics stay finite even when a study z-score is far out in
# the tail.
LOG_FLOOR = 1e-300
LOG_CEIL = 1.0 - 1e-16

_SQRT2 = math.sqrt(2.0)


class PValuePair(NamedTuple):
    """One-sided p-values of a single study, for the left- and right-sided alternatives."""

    left: float
    right: float


def normal_cdf(z: float) -> float:
    """Standard normal CDF, via the complementary error function.

    Saturates at 0/1 in the extreme tails (including infinite input) rather
    than raising.
    """
    if math.isnan(z):
        raise ValueError("z must not be NaN")
    return _normal_tail(z)


def _normal_tail(z: float) -> float:
    """0.5 erfc(-z / sqrt 2), ``normal_cdf`` without its NaN check: a NaN z gives NaN."""
    return 0.5 * math.erfc(-z / _SQRT2)


# Cephes' ndtri (S. L. Moshier, "Methods and Programs for Mathematical
# Functions", 1989), the routine scipy.special.ndtri compiles: its rational
# approximations, branch points and Horner order, so that ``_ndtri`` returns
# the same bits. P0/Q0 hold for |p - 1/2| <= 3/8; P1/Q1 and P2/Q2, in
# 1/sqrt(-2 log p), for sqrt(-2 log p) below and above 8. Cephes leaves each
# Q's leading 1 implicit (p1evl); here it is written out, and since 1 * x is
# exact, Horner's first step gives p1evl's x + Q[0].
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242e0


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Cephes' polevl: coef[0] x^N + ... + coef[N], in Horner order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(p: float) -> float:
    """The standard normal quantile of p, Cephes' ndtri, bit for bit as scipy has it.

    -inf at 0, inf at 1 and NaN outside [0, 1] or at NaN.
    """
    if not 0.0 < p < 1.0:
        return -math.inf if p == 0.0 else math.inf if p == 1.0 else math.nan
    y = p
    lower = True
    if y > 1.0 - _EXP_MINUS_2:
        y = 1.0 - y
        lower = False
    if y > _EXP_MINUS_2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if lower else x


def one_sided_p(theta_hat: float, se: float, shift: float = 0.0) -> PValuePair:
    """Left/right one-sided p-values for one effect estimate.

    The null value is ``shift`` (0 for the usual no-effect null); the test
    statistic is ``(theta_hat - shift) / se``. Both tails are evaluated
    directly so the pair sums to 1 without losing the smaller tail.
    """
    if not se > 0:
        raise ValueError(f"se must be positive, got {se}")
    z = (theta_hat - shift) / se
    return PValuePair(left=normal_cdf(z), right=normal_cdf(-z))

