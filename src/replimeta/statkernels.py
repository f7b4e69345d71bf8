"""Scalar distribution primitives shared by the meta-analysis and replicability layers.

Everything here is pure, reentrant, and cheap enough to call inside tight
simulation loops. Tail probabilities are evaluated on the survival side where
it matters so that left/right p-value pairs stay complementary at full double
precision instead of degrading through ``1 - p``.
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

