"""Scalar distribution primitives shared by the meta-analysis and replicability layers.

Everything here is pure, reentrant, and cheap enough to call inside tight
simulation loops. Tail probabilities are evaluated on the survival side where
it matters so that left/right p-value pairs stay complementary at full double
precision instead of degrading through ``1 - p``.

``_ndtri`` is the package's one normal quantile: the meta-analysis critical
value and the Monte Carlo harness's level quantiles both read it. It is a
port of Cephes' ndtri, the routine behind ``scipy.special.ndtri``, and
returns the same bits, so no process needs scipy for a quantile.

``_igamc`` is the regularised upper incomplete gamma function, a port of
Cephes' igamc, the routine behind ``scipy.special.gammaincc`` and
``chdtrc``, with the same bits. The Q-test p-value and the truncated-product
tail on up to 20 studies read it, so ``analyze`` and ``bounds`` on such
reviews load no scipy.
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


# Cephes' igamc (S. L. Moshier, 1989), the routine scipy.special.gammaincc
# compiles and chdtrc(df, q) reads as igamc(df / 2, q / 2): its end cases,
# branch points, sums and order of operations, so that ``_igamc`` returns the
# same bits. exp, log, pow and sqrt are libm's, through ``math``, as in the
# compiled routine; numpy's own exp, power and expm1 differ from libm on some
# arguments. expm1 is Cephes' own rational approximation, which differs from
# libm's on some arguments too.
_MACHEP = 1.11022302462515654042e-16  # 2^-53
_MAXLOG = 7.09782712893383996732e2  # log(DBL_MAX)
_IGAM_MAXITER = 2000
_IGAM_BIG = 4.503599627370496e15
_IGAM_BIGINV = 2.22044604925031308085e-16
# Boost's lanczos13m53: the scaled sum, num/denom in ratevl's order.
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222, 0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208, 449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526, 75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507, 3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571, 43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342, 103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DENOM = (
    1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0, 45995730.0, 105258076.0,
    150917976.0, 120543840.0, 39916800.0, 0.0,
)
# Cephes' lgam: B/C for 2 <= x < 3 after the recurrence, A for Stirling's tail.
_LGAM_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
    -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
    -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # lgam overflows above this
# Cephes' expm1 for |x| <= 1/2.
_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2, 9.9999999999999999991025e-1)
_EXPM1_Q = (
    3.0019850513866445504159e-6, 2.5244834034968410419224e-3, 2.2726554820815502876593e-1,
    2.0000000000000000000897e0,
)
# lgam1p's Taylor series: Euler's constant, and zeta(n, 1), n = 2..41, as the
# installed scipy.special.zeta(n, 1) gives them (a test keeps them equal).
_EULER = 0.577215664901532860606512090082402431
_ZETA = (
    1.6449340668482266, 1.202056903159594, 1.0823232337111381, 1.0369277551433704, 1.0173430619844488,
    1.008349277381923, 1.0040773561979446, 1.0020083928260826, 1.0009945751278182, 1.0004941886041194,
    1.0002460865533078, 1.0001227133475785, 1.0000612481350586, 1.0000305882363072, 1.0000152822594084,
    1.0000076371976376, 1.000003817293265, 1.0000019082127163, 1.0000009539620338, 1.0000004769329867,
    1.0000002384505027, 1.000000119219926, 1.000000059608189, 1.0000000298035034, 1.0000000149015549,
    1.0000000074507118, 1.000000003725334, 1.0000000018626598, 1.0000000009313275, 1.0000000004656628,
    1.000000000232831, 1.0000000001164155, 1.0000000000582077, 1.0000000000291038, 1.000000000014552,
    1.000000000007276, 1.000000000003638, 1.000000000001819, 1.0000000000009095, 1.0000000000004547,
)


def _expm1(x: float) -> float:
    """Cephes' expm1, exp(x) - 1, for finite x."""
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * _polevl(xx, _EXPM1_P)
    r = r / (_polevl(xx, _EXPM1_Q) - r)
    return r + r


def _lgam(x: float) -> float:
    """Cephes' lgam, log |Gamma(x)|, for x > 0."""
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def _lgam1p_taylor(x: float) -> float:
    """log Gamma(1 + x) for |x| <= 1/2, by its Taylor series at 0."""
    if x == 0:
        return 0.0
    res = -_EULER * x
    xfac = -x
    for n, zeta in enumerate(_ZETA, start=2):
        xfac *= -x
        coeff = zeta * xfac / n
        res += coeff
        if abs(coeff) < _MACHEP * abs(res):
            break
    return res


def _lgam1p(x: float) -> float:
    """Cephes' lgam1p, log Gamma(1 + x), for x > 0."""
    if abs(x) <= 0.5:
        return _lgam1p_taylor(x)
    if abs(x - 1.0) < 0.5:
        return math.log(x) + _lgam1p_taylor(x - 1.0)
    return _lgam(x + 1.0)


def _log1pmx(x: float) -> float:
    """Cephes' log1pmx, log(1 + x) - x."""
    if abs(x) >= 0.5:
        # Cephes' log1p is log(1 + x) wherever 1 + x lies outside [sqrt(1/2), sqrt(2)].
        return math.log(1.0 + x) - x
    xfac = x
    res = 0.0
    for n in range(2, 500):
        xfac *= -x
        term = xfac / n
        res += term
        if abs(term) < _MACHEP * abs(res):
            break
    return res


def _lanczos_sum_expg_scaled(x: float) -> float:
    """Boost's lanczos13m53 sum, scaled by exp(-g), in ratevl's order, for x > 0."""
    if x > 1.0:
        # A polynomial in 1/x; numerator and denominator have one degree.
        y = 1.0 / x
        return _polevl(y, _LANCZOS_NUM[::-1]) / _polevl(y, _LANCZOS_DENOM[::-1])
    return _polevl(x, _LANCZOS_NUM) / _polevl(x, _LANCZOS_DENOM)


def _igam_fac(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a), as Cephes' igam_fac computes it."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - _lgam(a)
        return 0.0 if ax < -_MAXLOG else math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.exp(1.0)) / _lanczos_sum_expg_scaled(a)
    if a < 200.0 and x < 200.0:
        return res * (math.exp(a - x) * math.pow(x / fac, a))
    num = x - a - _LANCZOS_G + 0.5
    return res * math.exp(a * _log1pmx(num / fac) + x * (0.5 - _LANCZOS_G) / fac)


def _igamc_continued_fraction(a: float, x: float) -> float:
    """Q(a, x) by the continued fraction of DLMF 8.9.2."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(_IGAM_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            # C's (ans - r) / r is inf or NaN at r = 0; either fails the test below.
            t = abs((ans - r) / r) if r != 0.0 else math.inf
            ans = r
        else:
            t = 1.0
        pkm2 = pkm1
        pkm1 = pk
        qkm2 = qkm1
        qkm1 = qk
        if abs(pk) > _IGAM_BIG:
            pkm2 *= _IGAM_BIGINV
            pkm1 *= _IGAM_BIGINV
            qkm2 *= _IGAM_BIGINV
            qkm1 *= _IGAM_BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def _igam_series(a: float, x: float) -> float:
    """P(a, x) by the power series of DLMF 8.11.4."""
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(_IGAM_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


def _igamc_series(a: float, x: float) -> float:
    """Q(a, x) by DLMF 8.7.3, which avoids igam_series' cancellation at small x."""
    fac = 1.0
    total = 0.0
    for n in range(1, _IGAM_MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= _MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_expm1(a * logx - _lgam1p(a))
    return term - math.exp(a * logx - _lgam(a)) * total


def _igamc(a: float, x: float) -> float:
    """The regularised upper incomplete gamma Q(a, x), Cephes' igamc, bit for bit as scipy has it.

    NaN for a NaN argument, a negative one, a = x = 0 or a = x = inf.
    Temme's uniform asymptotic series, which Cephes takes for a > 20 with x
    near a, is not ported: those arguments go to scipy, imported there only.
    """
    if math.isnan(a) or math.isnan(x) or x < 0.0 or a < 0.0:
        return math.nan
    if a == 0.0:
        return 0.0 if x > 0.0 else math.nan
    if x == 0.0:
        return 1.0
    if math.isinf(a):
        return math.nan if math.isinf(x) else 1.0
    if math.isinf(x):
        return 0.0
    ratio = abs(x - a) / a
    if (20.0 < a < 200.0 and ratio < 0.3) or (a > 200.0 and ratio < 4.5 / math.sqrt(a)):
        from scipy import special

        return float(special.gammaincc(a, x))
    if x > 1.1:
        if x < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_continued_fraction(a, x)
    if x <= 0.5:
        if -0.4 / math.log(x) < a:
            return 1.0 - _igam_series(a, x)
        return _igamc_series(a, x)
    if x * 1.1 < a:
        return 1.0 - _igam_series(a, x)
    return _igamc_series(a, x)


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

