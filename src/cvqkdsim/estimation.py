"""Maximum-likelihood parameter estimation on correlated (x, y) samples.

Implements the normal-linear-model estimators

    t_hat      = sum(x*y) / sum(x^2)
    sigma2_hat = mean((y - t_hat*x)^2) = (sum(y^2) - t_hat*sum(x*y)) / m
    va_hat     = mean(x^2)

from the sample sums alone (so that a caller can stream its samples),
their confidence intervals (Gaussian for t_hat, chi-square with m-1
degrees of freedom for the variance estimators), the channel-parameter
mapping T = t_hat^2/eta, xi = (sigma2_hat - n0_assumed - v_el)/t_hat^2,
and the closed-form bias of the excess-noise estimate when the assumed
shot noise differs from the true one.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, fields, is_dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateDataError

# Above this sample count the chi-square quantiles switch to the
# Wilson-Hilferty normal approximation; below it they are exact.
CHI2_EXACT_MAX_M = 10_000

_NORMAL = NormalDist()


def __getattr__(name: str):
    # scipy.stats costs about a second to import and is needed only for
    # the exact chi-square quantiles, so it is loaded on first use.
    if name == "stats":
        from scipy import stats

        globals()["stats"] = stats
        return stats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class MlEstimates:
    """Point estimates of the normal linear model y = t*x + z."""

    m: int
    t_hat: float
    sigma2_hat: float
    va_hat: float

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if self.sigma2_hat < 0:
            raise ValueError(f"sigma2_hat must be >= 0, got {self.sigma2_hat}")
        if self.va_hat < 0:
            raise ValueError(f"va_hat must be >= 0, got {self.va_hat}")

    @property
    def sum_x2(self) -> float:
        return self.m * self.va_hat


def record_lines(record) -> list[str]:
    """``name=value`` lines of a report record, one per field, in field order.

    A nested record contributes its own lines in place, each prefixed
    with its field's ``metadata["prefix"]``; an interval map ``{key:
    (low, high)}`` contributes ``key_low`` and ``key_high``.  Strings
    print bare, every other value through ``repr``.
    """
    lines = []
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            prefix = f.metadata.get("prefix", "")
            lines += [prefix + line for line in record_lines(value)]
        elif isinstance(value, dict):
            lines += [
                f"{key}_{side}={bound!r}"
                for key, bounds in value.items()
                for side, bound in zip(("low", "high"), bounds)
            ]
        else:
            lines.append(f"{f.name}={value if isinstance(value, str) else repr(value)}")
    return lines


@dataclass
class EstimationReport:
    """Channel estimates with confidence intervals.

    ``intervals`` maps "t", "sigma2" and "va" to (low, high) bounds at the
    confidence level the report was built with;  ``xi_hat`` may be
    negative and is never clamped here.
    """

    estimates: MlEstimates
    transmittance_hat: float
    xi_hat: float
    n0_assumed: float
    epsilon: float
    intervals: dict[str, tuple[float, float]]


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of ``a*b`` over two 1-d arrays, in an order that does not depend on the host.

    ``a @ b`` goes to BLAS, whose summation order (and so the last bits)
    changes with its thread count; einsum's own loop does not.  Every
    sum of products the estimates are built from goes through here.
    """
    return float(np.einsum("i,i->", a, b))


def ml_from_moments(
    m: int, sum_xx: float, sum_xy: float, sum_yy: float, sum_x: float, sum_y: float
) -> MlEstimates:
    """Maximum-likelihood estimates for y = t*x + z from the sums of m centred samples.

    sigma2_hat = (sum_yy - sum_xy**2/sum_xx)/m is non-negative by
    Cauchy-Schwarz; rounding can push it below zero on an exact line,
    so it is clamped there.  No mean removal is performed, but a
    diagnostic warning fires if a sample mean exceeds 5 standard errors.
    """
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
    if sum_xx <= 0.0:
        raise DegenerateDataError("sum of x^2 is zero; t_hat undefined")
    for name, total, squares in (("x", sum_x, sum_xx), ("y", sum_y, sum_yy)):
        rms = math.sqrt(squares / m)
        if rms > 0 and abs(total / m) > 5.0 * rms / math.sqrt(m):
            warnings.warn(
                f"{name} does not look centred: |mean| exceeds 5 standard errors",
                RuntimeWarning,
                stacklevel=3,
            )
    t_hat = sum_xy / sum_xx
    sigma2_hat = max(sum_yy - sum_xy * t_hat, 0.0) / m
    return MlEstimates(t_hat=t_hat, sigma2_hat=sigma2_hat, va_hat=sum_xx / m, m=m)


def ml_estimate(x: np.ndarray, y: np.ndarray) -> MlEstimates:
    """Maximum-likelihood estimates for y = t*x + z on centred samples (see ``ml_from_moments``)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    return ml_from_moments(
        x.size, dot(x, x), dot(x, y), dot(y, y), float(x.sum()), float(y.sum())
    )


def _chi2_ppf(q: float, df: int) -> float:
    """Chi-square quantile; Wilson-Hilferty approximation for large df."""
    if df <= CHI2_EXACT_MAX_M:
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
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    m = est.m
    z = _NORMAL.inv_cdf(1.0 - epsilon / 2.0)
    half_width = z * float(np.sqrt(est.sigma2_hat / est.sum_x2))
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
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if est.t_hat == 0.0:
        raise DegenerateDataError("t_hat is zero; excess noise undefined")
    t2 = est.t_hat**2
    return t2 / eta, (est.sigma2_hat - n0_assumed - v_el) / t2


def xi_pir(xi_snu: float, mu: float) -> float:
    """Excess noise after a partial intercept-resend on a fraction ``mu``.

    Eve's double-quadrature measurement and re-preparation add two
    shot-noise units on the intercepted fraction: xi + 2*mu.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must be in [0, 1], got {mu}")
    return xi_snu + 2.0 * mu


def xi_under_calibration(xi_true_snu: float, n0_ratio: float, t_squared: float) -> float:
    """Excess-noise estimate (in assumed-shot-noise units) under a biased shot noise.

    ``n0_ratio`` is assumed-over-true shot noise; the true excess noise
    ``xi_true_snu`` is expressed in true shot-noise units.  Identity at
    n0_ratio = 1; affine in xi_true_snu; negative outputs are meaningful
    and returned as-is.
    """
    if not n0_ratio > 0:
        raise ValueError(f"n0_ratio must be > 0, got {n0_ratio}")
    if not t_squared > 0:
        raise ValueError(f"t_squared must be > 0, got {t_squared}")
    return (xi_true_snu + (1.0 - n0_ratio) / t_squared) / n0_ratio
