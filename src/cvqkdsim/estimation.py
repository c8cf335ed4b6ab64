"""Maximum-likelihood parameter estimation on correlated (x, y) samples.

Implements the normal-linear-model estimators

    t_hat      = sum(x*y) / sum(x^2)
    sigma2_hat = mean((y - t_hat*x)^2) = (sum(y^2) - t_hat*sum(x*y)) / m
    va_hat     = mean(x^2)

from the three sums alone (the means of x and y are known to be 0),
their confidence intervals (Gaussian for t_hat, chi-square with m-1
degrees of freedom for the variance estimators), the channel-parameter
mapping T = t_hat^2/eta, xi = (sigma2_hat - n0_assumed - v_el)/t_hat^2.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

import numpy as np

from .ranges import NON_NEGATIVE, POSITIVE, Range, checked, param

# Above this sample count the chi-square quantiles switch to the
# Wilson-Hilferty normal approximation; up to it they are exact.
CHI2_EXACT_MAX_M = 10_000

_NORMAL = NormalDist()

# the confidence intervals' tail probability epsilon: below 2**-52, 1 - epsilon/2
# may round to 1, a quantile the normal and chi-square laws do not have
TAIL_PROBABILITY = Range("in [2**-52, 1)", lambda v: 2.0**-52 <= v < 1.0)


def __getattr__(name: str):
    # scipy.stats costs about a second to import and is needed only for
    # the exact chi-square quantiles, so it is loaded on first use.
    if name == "stats":
        from scipy import stats

        globals()["stats"] = stats
        return stats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@checked
class MlEstimates:
    """Point estimates of the normal linear model y = t*x + z."""

    m: int = param(within=Range(">= 2", lambda v: v >= 2))
    t_hat: float
    sigma2_hat: float = param(within=NON_NEGATIVE)
    va_hat: float = param(within=NON_NEGATIVE)

    @property
    def sum_x2(self) -> float:
        return self.m * self.va_hat


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of ``a*b`` over two 1-d arrays, in an order that does not depend on the host.

    ``a @ b`` goes to BLAS, whose summation order (and so the last bits)
    changes with its thread count; einsum's own loop does not.  The
    pulse dump and the tests' per-pulse reference take their sums here.
    """
    return float(np.einsum("i,i->", a, b))


def ml_from_moments(m: int, sum_xx: float, sum_xy: float, sum_yy: float) -> MlEstimates:
    """Maximum-likelihood estimates for y = t*x + z from the sums of m samples.

    The means of x and y are known to be 0 (Alice's modulation is
    centred), so no mean is estimated or removed and the sums Σx and Σy
    are not read.  sigma2_hat = (sum_yy - sum_xy**2/sum_xx)/m is
    non-negative by Cauchy-Schwarz; rounding can push it below zero on an
    exact line, so it is clamped there.
    """
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
    if sum_xx <= 0.0:
        raise ValueError("sum of x^2 is zero; t_hat undefined")
    t_hat = sum_xy / sum_xx
    sigma2_hat = max(sum_yy - sum_xy * t_hat, 0.0) / m
    return MlEstimates(t_hat=t_hat, sigma2_hat=sigma2_hat, va_hat=sum_xx / m, m=m)


def _chi2_ppf(q: float, df: int) -> float:
    """Chi-square quantile at df = m - 1; exact for m <= CHI2_EXACT_MAX_M, approximate above."""
    if df < CHI2_EXACT_MAX_M:
        # attribute lookup, so that a replacement of ``stats`` is honoured
        return float(sys.modules[__name__].stats.chi2.ppf(q, df))
    z = _NORMAL.inv_cdf(q)
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def confidence_bounds(
    est: MlEstimates, epsilon: float
) -> dict[str, tuple[float, float]]:
    """Two-sided 1-epsilon confidence intervals for t, sigma^2 and V_A.

    t_hat is Gaussian with variance sigma2_hat/sum(x^2); the variance
    estimators follow chi-square with m-1 degrees of freedom (the normal
    approximation is used above m = 10^4).
    """
    TAIL_PROBABILITY.check("epsilon", epsilon)
    m = est.m
    z = _NORMAL.inv_cdf(1.0 - epsilon / 2.0)
    half_width = z * math.sqrt(est.sigma2_hat / est.sum_x2)
    chi_low = _chi2_ppf(epsilon / 2.0, m - 1)
    chi_high = _chi2_ppf(1.0 - epsilon / 2.0, m - 1)
    intervals = {"t": (est.t_hat - half_width, est.t_hat + half_width)}
    for key, value in (("sigma2", est.sigma2_hat), ("va", est.va_hat)):
        intervals[key] = (
            m * value / chi_high,
            m * value / chi_low if chi_low > 0 else float("inf"),
        )
    return intervals


def infer_channel(
    est: MlEstimates, n0_assumed: float, eta: float, v_el: float
) -> tuple[float, float]:
    """Channel transmittance and excess noise implied by the estimates.

    Returns (T_hat, xi_hat) with T_hat = t_hat^2/eta and
    xi_hat = (sigma2_hat - n0_assumed - v_el)/t_hat^2.  xi_hat can be
    negative and is reported as-is.
    """
    POSITIVE.check("eta", eta)
    if est.t_hat == 0.0:
        raise ValueError("t_hat is zero; excess noise undefined")
    t2 = est.t_hat**2
    return t2 / eta, (est.sigma2_hat - n0_assumed - v_el) / t2
